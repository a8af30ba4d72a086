"""Batch CLI: every subcommand reads one JSON config and writes its outputs
plus a fully-resolved config echo into the output directory.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric error. All
randomness flows from the config's seeds; output files are written atomically
(temp file + rename) so a crashed run never leaves half-written artifacts.

Each stage runs as its own process, and without a bytecode cache every module
it imports is compiled again. So this module imports only what the config
schema needs (`config`, `errors`, `formats`, `schema`), and each subcommand
imports the modules it runs inside its own body.

Every stage runs BLAS and OpenMP on one thread: the thread count changes how
the products round, and a second thread buys no speed. The variables are set
here, before `formats` loads numpy, and override the caller's values, so a
stage's bytes depend on its config alone. A program that loads numpy before
importing this module keeps whatever threads numpy started with.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Callable, Optional

os.environ.update(
    dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
)

from .config import PoincareConfig, SynthConfig, TrainConfig  # noqa: E402
from .errors import ConfigError, DataError, EvaluationError, TitlemapError  # noqa: E402
from .formats import (  # noqa: E402
    is_utf8,
    line_keys,
    read_rows,
    write_lines,
    write_rows,
)
from .schema import accepts, build, field_specs, rejection  # noqa: E402

if TYPE_CHECKING:
    from .model import FeaturePipeline
    from .syntactic import Taxonomy

# ---------------------------------------------------------------------------
# Config schema: section -> key -> (type, default). The `dims`, `datagen`,
# `poincare` and `train` sections are the fields of the config dataclasses
# and nothing else (each `seed` comes from `seeds`, `d_h`/`d_b`/`d_r` from
# `dims`). The stages that load a model take its widths from the model, not
# from `dims`. A `None` default means an optional path. Unknown keys anywhere
# are rejected.

_DIMS = ("d_h", "d_b", "d_r")


def _dataclass_section(cls) -> dict:
    return {k: v for k, v in field_specs(cls).items() if k != "seed" and k not in _DIMS}


SCHEMA = {
    "output_dir": (str, "__required__"),
    "provider": (str, "hashed"),
    "provider_fallback": (bool, True),
    "seeds": dict.fromkeys(("data", "poincare", "train", "linkpred"), (int, 0)),
    "dims": {k: field_specs(TrainConfig)[k] for k in _DIMS},
    "data": dict.fromkeys(
        ("taxonomy", "labels", "resumes", "pairs", "hyperbolic", "titles", "vectors", "model"),
        (str, None),
    ),
    "datagen": _dataclass_section(SynthConfig),
    "poincare": _dataclass_section(PoincareConfig),
    "train": _dataclass_section(TrainConfig),
    "map": {"k": (int, 10)},
    "linkpred": {"epochs": (int, 100)},
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
        if isinstance(value, str) and "\0" in value:
            raise ConfigError(f"config key '{name}' holds a NUL character")
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
    except OSError as e:
        raise ConfigError(f"config file {path}: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON ({e.msg})") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not valid UTF-8") from None
    return resolve_config(raw)


def _make_output_dir(path: str) -> None:
    if not path:
        raise ConfigError("config key 'output_dir' is empty")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(
            f"config key 'output_dir' is not a usable directory: {path} ({e.strerror})"
        ) from None


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


def _require(config: dict, *keys: str) -> list:
    values = []
    for dotted in keys:
        section, sub = dotted.split(".")
        value = config[section][sub]
        if value is None:
            raise ConfigError(f"config key '{dotted}' is required for this command")
        values.append(value)
    return values


def _build_provider(config: dict, d_b: int, owner: str):
    """The configured semantic provider; the hashed encoder, alone or as the
    fallback, is `d_b` wide, and a precomputed file has its own width, which
    must be `d_b` where the fallback serves its missing titles. `owner` names
    where `d_b` comes from ("model" or "config")."""
    from .semantic import HashedNgramProvider, PrecomputedProvider, load_precomputed

    spec = config["provider"]
    hashed = HashedNgramProvider(dimension=d_b)
    if spec == "hashed":
        return hashed
    path = spec.removeprefix("precomputed:")
    table = load_precomputed(path)
    fallback = hashed if config["provider_fallback"] else None
    if fallback is not None and table.dim != d_b:
        raise ConfigError(
            f"precomputed embeddings {path} have width {table.dim}, but the "
            f"{owner}'s d_b, the width of their hashed fallback, is {d_b}"
        )
    return PrecomputedProvider(table, fallback=fallback)


def _load_pipeline(config: dict, taxonomy: Taxonomy, d_b: int, owner: str) -> FeaturePipeline:
    """The views of `data.hyperbolic` and the configured provider, unchecked:
    `model.train` and `_load_model_pipeline` meet their widths to the model's."""
    from .model import FeaturePipeline
    from .poincare import HyperbolicEmbeddingTable

    (hyperbolic_path,) = _require(config, "data.hyperbolic")
    table = HyperbolicEmbeddingTable.load_tsv(hyperbolic_path)
    return FeaturePipeline(table, _build_provider(config, d_b, owner), taxonomy)


def _read_labeled(path, taxonomy: Taxonomy) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """The (raw title, standard title) rows of a labels file as written, and
    the same rows as canonical keys; each distinct raw title is canonicalized
    once."""
    rows, keys, key_of = [], [], line_keys(path)
    for lineno, (raw, std) in read_rows(path, ("raw_title", "standard_title"))[1]:
        title, standard = key_of(raw, lineno), key_of(std, lineno)
        if standard not in taxonomy:
            raise DataError(f"{path}:{lineno}: standard title {std!r} not in taxonomy")
        rows.append((raw, std))
        keys.append((title, standard))
    if not rows:
        raise DataError(f"{path}: no labeled rows")
    return rows, keys


def _read_titles(path) -> list[tuple[str, str]]:
    """The (raw title, canonical key) of every title line; each distinct raw
    title is canonicalized once."""
    key_of, rows = line_keys(path), read_rows(path, ("title",))[1]
    titles = [(title, key_of(title, lineno)) for lineno, (title,) in rows]
    if not titles:
        raise DataError(f"{path}: no titles")
    return titles


# ---------------------------------------------------------------------------
# Subcommands

def cmd_gen_data(config: dict) -> None:
    from .datagen import gen_resumes, gen_taxonomy
    from .graph import write_records

    out = config["output_dir"]
    synth = _dataclass_from(config, SynthConfig, "datagen", "data")
    taxonomy, labeled = gen_taxonomy(synth)
    records = gen_resumes(synth, taxonomy, labeled)
    _save(out, "taxonomy.tsv", taxonomy.write_tsv)
    _save(out, "labels.tsv", write_rows, labeled + [(t, t) for t in taxonomy.titles])
    _save(out, "resumes.jsonl", write_records, records)


def cmd_build_graph(config: dict) -> None:
    from .graph import (
        build_transition_graph, extract_parent_child_pairs, load_records, person_sequences,
        write_pairs,
    )

    out = config["output_dir"]
    (resumes_path,) = _require(config, "data.resumes")
    sequences = person_sequences(load_records(resumes_path))
    counts = build_transition_graph(sequences)
    pairs = extract_parent_child_pairs(sequences)
    _save(out, "pairs.tsv", write_pairs, pairs)
    _save(out, "graph_summary.json", _write_json, {**counts, "pairs": len(pairs)})


def cmd_train_poincare(config: dict) -> None:
    from .graph import load_pairs
    from .poincare import train_poincare

    out = config["output_dir"]
    (pairs_path,) = _require(config, "data.pairs")
    poincare_config = _dataclass_from(config, PoincareConfig, "poincare", "poincare")
    pairs = load_pairs(pairs_path)
    table = train_poincare(pairs, m=config["dims"]["d_h"], config=poincare_config)
    _save(out, "hyperbolic.tsv", table.export_tsv)
    report = {
        "pairs": len(pairs),
        "titles": len(table.titles),
        "epochs": table.history,
        "seeds": config["seeds"],
    }
    _save(out, "poincare_report.json", _write_json, report)


def cmd_encode_semantic(config: dict) -> None:
    from .semantic import embed_titles, write_embeddings

    out = config["output_dir"]
    (titles_path,) = _require(config, "data.titles")
    provider = _build_provider(config, config["dims"]["d_b"], "config")
    table = embed_titles(provider, [key for _, key in _read_titles(titles_path)])
    _save(out, "semantic.tsv", write_embeddings, table)


def cmd_train(config: dict) -> None:
    from .model import save_model, train
    from .syntactic import Taxonomy

    out = config["output_dir"]
    taxonomy_path, labels_path = _require(config, "data.taxonomy", "data.labels")
    train_config = _dataclass_from(config, TrainConfig, "train", "train")
    taxonomy = Taxonomy.load_tsv(taxonomy_path)
    rows, examples = _read_labeled(labels_path, taxonomy)
    pipeline = _load_pipeline(config, taxonomy, train_config.d_b, "config")
    result = train(examples, pipeline, train_config)
    _save(out, "model.json", lambda path: save_model(result.model, path))
    _save(out, "training_curve.csv", _write_curve, result.history)
    for name, idx in result.split_indices.items():
        _save(out, f"split_{name}.tsv", write_rows, (rows[int(i)] for i in idx))
    report = {
        "best_epoch": result.best_epoch,
        "epochs_run": len(result.history),
        "metrics": result.metrics,
        "seeds": config["seeds"],
    }
    _save(out, "train_report.json", _write_json, report)


def _load_model_pipeline(config: dict):
    """The model of `data.model` and the views it takes; every width comes
    from the model, none from the config's `dims`."""
    from .model import check_view_widths, load_model

    (model_path,) = _require(config, "data.model")
    model = load_model(model_path)
    pipeline = _load_pipeline(config, model.taxonomy, model.d_b, "model")
    check_view_widths(pipeline, model.config)
    return model, pipeline


def cmd_map(config: dict) -> None:
    from .model import clamp_k, forward_probabilities, rank_classes

    out = config["output_dir"]
    (titles_path,) = _require(config, "data.titles")
    model, pipeline = _load_model_pipeline(config)
    lines = _read_titles(titles_path)
    k = clamp_k(config["map"]["k"], len(model.taxonomy))
    distinct = dict(lines)  # raw title -> key; a resume stream repeats titles
    probs = forward_probabilities(model, pipeline, list(distinct.values()))
    top = rank_classes(probs, k)
    names = model.taxonomy.titles
    block_of = {}
    for title, row, order in zip(distinct, probs, top):
        ranked = zip(range(1, k + 1), order.tolist(), row[order].tolist())
        block_of[title] = "".join(
            f"{title}\t{rank}\t{names[class_idx]}\t{prob!r}\n" for rank, class_idx, prob in ranked
        )
    header = "#mappings\ttitle\trank\tstandard_title\tprobability"
    _save(out, "mappings.tsv", write_lines, (block_of[title] for title, _ in lines), header)


def cmd_eval(config: dict) -> None:
    from .model import forward_probabilities, gold_rank, hit_at, ndcg_at, precision_at

    out = config["output_dir"]
    (labels_path,) = _require(config, "data.labels")
    model, pipeline = _load_model_pipeline(config)
    _, examples = _read_labeled(labels_path, model.taxonomy)
    titles = [title for title, _ in examples]
    labels = [model.taxonomy.index(std) for _, std in examples]
    ranks = gold_rank(forward_probabilities(model, pipeline, titles), labels)
    cutoffs = (1, 5, 10)
    report = {
        "queries": len(titles),
        "precision_at": {str(n): precision_at(ranks, n) for n in cutoffs},
        "hit_rate_at": {str(n): hit_at(ranks, n) for n in cutoffs},
        "ndcg_at_10": ndcg_at(ranks, 10),
        "seeds": config["seeds"],
    }
    _save(out, "eval_report.json", _write_json, report)


def cmd_linkpred(config: dict) -> None:
    from . import evaluation as ev
    from .graph import load_pairs
    from .poincare import HyperbolicEmbeddingTable

    out = config["output_dir"]
    pairs_path, vectors_path = _require(config, "data.pairs", "data.vectors")
    epochs, seed = config["linkpred"]["epochs"], config["seeds"]["linkpred"]
    if epochs < 1:
        raise ConfigError(f"linkpred.epochs must be >= 1, got {epochs}")
    if seed < 0:
        raise ConfigError(f"seeds.linkpred must be >= 0, got {seed}")
    pairs = load_pairs(pairs_path)
    table = HyperbolicEmbeddingTable.load_tsv(vectors_path)
    split = ev.make_link_split(pairs, seed=seed)
    result = ev.link_prediction_auc(split, table, seed=seed, epochs=epochs)
    report = {
        "edges": len(split.train_edges) + len(split.dev_pos) + len(split.test_pos),
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


def cmd_mobility(config: dict) -> None:
    from . import evaluation as ev
    from .graph import load_records, person_sequences
    from .model import forward_probabilities, rank_classes

    out = config["output_dir"]
    (resumes_path,) = _require(config, "data.resumes")
    model, pipeline = _load_model_pipeline(config)
    trajectories = person_sequences(load_records(resumes_path))
    unique_titles = sorted({t for seq in trajectories for t in seq})
    best = rank_classes(forward_probabilities(model, pipeline, unique_titles), 1)[:, 0]
    top1 = {t: model.taxonomy.titles[c] for t, c in zip(unique_titles, best.tolist())}
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
        _make_output_dir(config["output_dir"])
        COMMANDS[args.command](config)
        _save(config["output_dir"], f"{args.command}_config.json", _write_json, config)
    except ConfigError as e:
        print(f"error kind=config code=2: {_one_line(e)}", file=sys.stderr)
        return 2
    except (DataError, EvaluationError, OSError) as e:
        print(f"error kind=data code=3: {_one_line(e)}", file=sys.stderr)
        return 3
    except TitlemapError as e:
        print(f"error kind=numeric code=4: {_one_line(e)}", file=sys.stderr)
        return 4
    return 0


def _one_line(exc: Exception) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
