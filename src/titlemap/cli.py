"""Batch CLI: every subcommand reads one JSON config and writes its outputs
plus a fully-resolved config echo into the output directory.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric error. All
randomness flows from the config's seeds; output files are written atomically
(temp file + rename) so a crashed run never leaves half-written artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Optional

import numpy as np

from . import evaluation as ev
from .datagen import SynthConfig, gen_resumes, gen_taxonomy
from .errors import ConfigError, DataError, EvaluationError, NumericError, TitlemapError
from .formats import is_utf8, read_lines, read_rows, write_rows
from .graph import (
    build_transition_graph,
    extract_parent_child_pairs,
    load_pairs,
    load_records,
    person_sequences,
    write_pairs,
    write_records,
)
from .model import (
    FeaturePipeline,
    TrainConfig,
    clamp_k,
    forward_probabilities,
    load_model,
    rank_classes,
    save_model,
    train,
)
from .poincare import HyperbolicEmbeddingTable, PoincareConfig, train_poincare
from .schema import accepts, build, field_specs, rejection
from .semantic import (
    HashedNgramProvider,
    PrecomputedProvider,
    embed_titles,
    load_precomputed,
    write_embeddings,
)
from .syntactic import Taxonomy

# ---------------------------------------------------------------------------
# Config schema: section -> key -> (type, default). The `dims`, `datagen`,
# `poincare` and `train` sections are the fields of the config dataclasses
# (each `seed` comes from `seeds`, `d_h`/`d_b`/`d_r` from `dims`) plus a few
# CLI-only keys. A `None` default means an optional path. Unknown keys
# anywhere are rejected.

_DIMS = ("d_h", "d_b", "d_r")


def _dataclass_section(cls) -> dict:
    return {k: v for k, v in field_specs(cls).items() if k != "seed" and k not in _DIMS}


SCHEMA = {
    "output_dir": (str, "__required__"),
    "provider": (str, "hashed"),
    "provider_fallback": (bool, True),
    "semantic_seed": (int, 0),
    "seeds": dict.fromkeys(("data", "poincare", "train", "linkpred"), (int, 0)),
    "dims": {k: field_specs(TrainConfig)[k] for k in _DIMS},
    "data": dict.fromkeys(
        ("taxonomy", "labels", "resumes", "pairs", "hyperbolic", "titles", "vectors", "model"),
        (str, None),
    ),
    "datagen": {**_dataclass_section(SynthConfig), "include_standard_labels": (bool, True)},
    "poincare": {**_dataclass_section(PoincareConfig), "export_2d": (bool, False)},
    "train": _dataclass_section(TrainConfig),
    "map": {"k": (int, 10)},
    "linkpred": {"epochs": (int, 100), "lr": (float, 0.05)},
}


def _resolve(raw, schema: dict, prefix: str) -> dict:
    resolved = {}
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
    for key, spec in schema.items():
        name = prefix + key
        if isinstance(spec, dict):
            section = raw.get(key, {})
            if not isinstance(section, dict):
                raise ConfigError(f"config key '{name}' must be an object")
            resolved[key] = _resolve(section, spec, name + ".")
            continue
        kind, default = spec
        if default == "__required__" and key not in raw:
            raise ConfigError(f"config key '{name}' is required")
        value = raw.get(key, default)
        if not (value is None and default is None) and not accepts(kind, value):
            raise ConfigError(f"config key '{name}' {rejection(value)}")
        if isinstance(value, str) and not is_utf8(value):
            raise ConfigError(f"config key '{name}' is not valid UTF-8 (lone surrogate)")
        resolved[key] = value
    return resolved


def resolve_config(raw: dict) -> dict:
    """Validate against the schema, reject unknown keys, fill every default."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    resolved = _resolve(raw, SCHEMA, "")
    provider = resolved["provider"]
    if provider != "hashed" and not provider.startswith("precomputed:"):
        raise ConfigError(
            "provider must be 'hashed' or 'precomputed:<path>', got " + repr(provider)
        )
    return resolved


def _dataclass_from(config: dict, cls, section: str, seed: str):
    """The `cls` instance a resolved config describes, range-checked."""
    values = {**config["dims"], **config[section], "seed": config["seeds"][seed]}
    return build(cls, {k: values[k] for k in field_specs(cls)})


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON ({e.msg})") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not valid UTF-8") from None
    return resolve_config(raw)


def _save(out: str, name: str, write: Callable, *args) -> None:
    """`write(path, *args)` into a temp file, renamed to `out/name` on success."""
    path = os.path.join(out, name)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        write(tmp, *args)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_curve(path, history: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,train_loss,val_hit_at_10\n")
        for epoch, loss, hit in history:
            fh.write(f"{epoch},{loss!r},{hit!r}\n")


def _write_echo(config: dict, command: str) -> None:
    _save(config["output_dir"], f"{command}_config.json", _write_json, config)


def _require(config: dict, *keys: str) -> list:
    values = []
    for dotted in keys:
        section, sub = dotted.split(".")
        value = config[section][sub]
        if value is None:
            raise ConfigError(f"config key '{dotted}' is required for this command")
        values.append(value)
    return values


def _build_provider(config: dict):
    spec = config["provider"]
    d_b = config["dims"]["d_b"]
    hashed = HashedNgramProvider(dimension=d_b, seed=config["semantic_seed"])
    if spec == "hashed":
        return hashed
    cache = load_precomputed(spec.removeprefix("precomputed:"))
    if cache.dimension != d_b:
        raise ConfigError(
            f"precomputed embeddings have dim {cache.dimension}, config dims.d_b is {d_b}"
        )
    return PrecomputedProvider(cache, fallback=hashed if config["provider_fallback"] else None)


def _load_pipeline(config: dict, taxonomy: Taxonomy) -> FeaturePipeline:
    (hyperbolic_path,) = _require(config, "data.hyperbolic")
    table = HyperbolicEmbeddingTable.load_tsv(hyperbolic_path)
    if table.dim != config["dims"]["d_h"]:
        raise ConfigError(
            f"hyperbolic table has dim {table.dim}, config dims.d_h is {config['dims']['d_h']}"
        )
    return FeaturePipeline(hyperbolic=table, semantic=_build_provider(config), taxonomy=taxonomy)


def _read_labeled(path, taxonomy: Taxonomy) -> list[tuple[str, str]]:
    rows = []
    for lineno, (raw, std) in read_rows(path, ("raw_title", "standard_title"))[1]:
        if std not in taxonomy:
            raise DataError(f"{path}:{lineno}: standard title {std!r} not in taxonomy")
        rows.append((raw, std))
    if not rows:
        raise DataError(f"{path}: no labeled rows")
    return rows


def _read_titles(path) -> list[str]:
    titles = [title for _, (title,) in read_rows(path, ("title",))[1]]
    if not titles:
        raise DataError(f"{path}: no titles")
    return titles


# ---------------------------------------------------------------------------
# Subcommands

def cmd_gen_data(config: dict) -> None:
    out = config["output_dir"]
    synth = _dataclass_from(config, SynthConfig, "datagen", "data")
    taxonomy, labeled = gen_taxonomy(synth)
    records = gen_resumes(synth, taxonomy, labeled)
    _save(out, "taxonomy.tsv", taxonomy.write_tsv)
    rows = list(labeled)
    if config["datagen"]["include_standard_labels"]:
        rows.extend((t, t) for t in taxonomy.titles)
    _save(out, "labels.tsv", write_rows, rows)
    _save(out, "resumes.jsonl", write_records, records)
    _write_echo(config, "gen-data")


def cmd_build_graph(config: dict) -> None:
    out = config["output_dir"]
    (resumes_path,) = _require(config, "data.resumes")
    records = load_records(resumes_path)
    graph = build_transition_graph(records)
    pairs = extract_parent_child_pairs(records)
    _save(out, "pairs.tsv", write_pairs, pairs)
    summary = {**graph.summary(), "pairs": len(pairs), "weight_sum": sum(graph.weights.values())}
    _save(out, "graph_summary.json", _write_json, summary)
    _write_echo(config, "build-graph")


def cmd_train_poincare(config: dict) -> None:
    out = config["output_dir"]
    (pairs_path,) = _require(config, "data.pairs")
    poincare_config = _dataclass_from(config, PoincareConfig, "poincare", "poincare")
    pairs = load_pairs(pairs_path)
    table = train_poincare(pairs, m=config["dims"]["d_h"], config=poincare_config)
    _save(out, "hyperbolic.tsv", table.export_tsv)
    report = {
        "pairs": len(pairs),
        "titles": len(table.vectors),
        "epochs": table.history,
        "seeds": config["seeds"],
    }
    _save(out, "poincare_report.json", _write_json, report)
    if config["poincare"]["export_2d"]:
        flat = train_poincare(pairs, m=2, config=poincare_config)
        _save(out, "hyperbolic_2d.tsv", flat.export_tsv)
    _write_echo(config, "train-poincare")


def cmd_encode_semantic(config: dict) -> None:
    out = config["output_dir"]
    (titles_path,) = _require(config, "data.titles")
    provider = _build_provider(config)
    cache = embed_titles(provider, _read_titles(titles_path))
    _save(out, "semantic.tsv", write_embeddings, cache)
    _write_echo(config, "encode-semantic")


def cmd_train(config: dict) -> None:
    out = config["output_dir"]
    taxonomy_path, labels_path = _require(config, "data.taxonomy", "data.labels")
    train_config = _dataclass_from(config, TrainConfig, "train", "train")
    taxonomy = Taxonomy.load_tsv(taxonomy_path)
    examples = _read_labeled(labels_path, taxonomy)
    pipeline = _load_pipeline(config, taxonomy)
    result = train(examples, pipeline, train_config)
    _save(out, "model.json", lambda path: save_model(result.model, path))
    _save(out, "training_curve.csv", _write_curve, result.history)
    for name, idx in result.split_indices.items():
        _save(out, f"split_{name}.tsv", write_rows, (examples[int(i)] for i in idx))
    report = {
        "best_epoch": result.best_epoch,
        "epochs_run": len(result.history),
        "metrics": result.metrics,
        "seeds": config["seeds"],
    }
    _save(out, "train_report.json", _write_json, report)
    _write_echo(config, "train")


def _load_model_pipeline(config: dict):
    (model_path,) = _require(config, "data.model")
    model = load_model(model_path)
    pipeline = _load_pipeline(config, model.taxonomy)
    if pipeline.d_b != model.d_b:
        raise ConfigError(
            f"provider dim {pipeline.d_b} does not match model d_b {model.d_b}"
        )
    return model, pipeline


def cmd_map(config: dict) -> None:
    out = config["output_dir"]
    (titles_path,) = _require(config, "data.titles")
    model, pipeline = _load_model_pipeline(config)
    titles = _read_titles(titles_path)
    k = clamp_k(config["map"]["k"], len(model.taxonomy))
    distinct = list(dict.fromkeys(titles))  # a resume stream repeats titles
    probs = forward_probabilities(model, pipeline, distinct)
    top = rank_classes(probs)[:, :k]
    block_of = {
        title: [
            (title, str(rank), model.taxonomy.titles[class_idx], repr(float(row[class_idx])))
            for rank, class_idx in enumerate(order, start=1)
        ]
        for title, row, order in zip(distinct, probs, top)
    }
    rows = (row for title in titles for row in block_of[title])
    header = "#mappings\ttitle\trank\tstandard_title\tprobability"
    _save(out, "mappings.tsv", write_rows, rows, header)
    _write_echo(config, "map")


def cmd_eval(config: dict) -> None:
    out = config["output_dir"]
    (labels_path,) = _require(config, "data.labels")
    model, pipeline = _load_model_pipeline(config)
    examples = _read_labeled(labels_path, model.taxonomy)
    titles = [raw for raw, _ in examples]
    labels = [model.taxonomy.index(std) for _, std in examples]
    probs = forward_probabilities(model, pipeline, titles)
    cutoffs = (1, 5, 10)  # the report reads no rank below the last
    rankings = [list(order) for order in rank_classes(probs)[:, : cutoffs[-1]]]
    results = ev.RankingResult(rankings=rankings, relevant=[{l} for l in labels])
    report = {
        "queries": len(titles),
        "precision_at": {str(n): ev.precision_at_n(results, n) for n in cutoffs},
        "hit_rate_at": {str(n): ev.hit_rate_at_n(results, n) for n in cutoffs},
        "ndcg_at_10": ev.ndcg_at_n(results, cutoffs[-1]),
        "seeds": config["seeds"],
    }
    _save(out, "eval_report.json", _write_json, report)
    _write_echo(config, "eval")


def _load_vectors(path) -> dict:
    if next(read_lines(path), (1, ""))[1].startswith("#poincare"):
        return dict(HyperbolicEmbeddingTable.load_tsv(path).vectors)
    return dict(load_precomputed(path).vectors)


def cmd_linkpred(config: dict) -> None:
    out = config["output_dir"]
    resumes_path, vectors_path = _require(config, "data.resumes", "data.vectors")
    lp = config["linkpred"]
    if lp["epochs"] < 1 or not lp["lr"] > 0:
        raise ConfigError(
            f"linkpred needs epochs >= 1 and lr > 0, got epochs={lp['epochs']} lr={lp['lr']}"
        )
    if config["seeds"]["linkpred"] < 0:
        raise ConfigError(f"seeds.linkpred must be >= 0, got {config['seeds']['linkpred']}")
    graph = build_transition_graph(load_records(resumes_path))
    vectors = _load_vectors(vectors_path)
    split = ev.make_link_split(graph, seed=config["seeds"]["linkpred"])
    result = ev.link_prediction_auc(
        split,
        vectors,
        seed=config["seeds"]["linkpred"],
        epochs=lp["epochs"],
        lr=float(lp["lr"]),
    )
    report = {
        "edges": len(graph.edge_counts),
        "split": {
            "train_edges": len(split.train_edges),
            "dev_pos": len(split.dev_pos),
            "test_pos": len(split.test_pos),
        },
        "per_operator": result.per_operator,
        "best_operator": result.best_operator,
        "test_auc": result.test_auc,
        "seeds": config["seeds"],
    }
    _save(out, "linkpred_report.json", _write_json, report)
    _write_echo(config, "linkpred")


def cmd_mobility(config: dict) -> None:
    out = config["output_dir"]
    (resumes_path,) = _require(config, "data.resumes")
    model, pipeline = _load_model_pipeline(config)
    trajectories = person_sequences(load_records(resumes_path))
    unique_titles = sorted({t for seq in trajectories for t in seq})
    probs = forward_probabilities(model, pipeline, unique_titles)
    top1 = {
        t: model.taxonomy.titles[int(np.argmax(probs[i]))]
        for i, t in enumerate(unique_titles)
    }
    mapped = ev.map_at_10_mobility(trajectories, mapper=lambda t: top1[t])
    unmapped = ev.map_at_10_mobility(trajectories, mapper=None)
    report = {
        "trajectories": len(trajectories),
        "map_at_10_mapped": mapped,
        "map_at_10_unmapped": unmapped,
        "mapped_minus_unmapped": mapped - unmapped,
        "seeds": config["seeds"],
    }
    _save(out, "mobility_report.json", _write_json, report)
    _write_echo(config, "mobility")


COMMANDS = {
    "gen-data": cmd_gen_data,
    "build-graph": cmd_build_graph,
    "train-poincare": cmd_train_poincare,
    "encode-semantic": cmd_encode_semantic,
    "train": cmd_train,
    "map": cmd_map,
    "eval": cmd_eval,
    "linkpred": cmd_linkpred,
    "mobility": cmd_mobility,
}


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="titlemap",
        description="Map noisy job titles onto a standard taxonomy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        os.makedirs(config["output_dir"], exist_ok=True)
        COMMANDS[args.command](config)
    except ConfigError as e:
        print(f"error kind=config code=2: {_one_line(e)}", file=sys.stderr)
        return 2
    except (DataError, EvaluationError) as e:
        print(f"error kind=data code=3: {_one_line(e)}", file=sys.stderr)
        return 3
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as e:
        what = "is a directory" if isinstance(e, IsADirectoryError) else "no such file"
        print(f"error kind=data code=3: {what}: {e.filename}", file=sys.stderr)
        return 3
    except (NumericError, TitlemapError) as e:
        print(f"error kind=numeric code=4: {_one_line(e)}", file=sys.stderr)
        return 4
    return 0


def _one_line(exc: Exception) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
