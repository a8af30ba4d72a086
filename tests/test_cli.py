import base64
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import titlemap
from titlemap.cli import main, resolve_config
from titlemap.errors import ConfigError
from titlemap.formats import canonicalize_title
from titlemap.model import FeaturePipeline, forward_probabilities, load_model
from titlemap.poincare import HyperbolicEmbeddingTable
from titlemap.semantic import HashedNgramProvider

from helpers import FLOAT32_PROB_TOL, record_canonicalize_calls


def write_config(tmp_path, overrides=None, name="config.json"):
    config = {
        "output_dir": str(tmp_path / "out"),
        "dims": {"d_h": 6, "d_b": 16, "d_r": 8},
        "datagen": {"groups": 6, "synonyms": 2, "persons": 40, "jobs_per_person": 4},
        "poincare": {"epochs": 5},
        "train": {"batch_size": 32, "max_epochs": 3, "patience": 2, "lr": 0.005},
    }
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path, config


def test_unknown_top_level_key_is_rejected():
    with pytest.raises(ConfigError, match="mystery"):
        resolve_config({"output_dir": "x", "mystery": 1})


def test_unknown_nested_key_names_the_path():
    with pytest.raises(ConfigError, match="train.warmup"):
        resolve_config({"output_dir": "x", "train": {"warmup": 5}})


def test_missing_output_dir_is_rejected():
    with pytest.raises(ConfigError, match="output_dir"):
        resolve_config({})


def test_bad_provider_string_is_rejected():
    with pytest.raises(ConfigError, match="provider"):
        resolve_config({"output_dir": "x", "provider": "bert"})


def test_defaults_are_filled_in():
    resolved = resolve_config({"output_dir": "x"})
    expected = {
        "output_dir": "x",
        "provider": "hashed",
        "provider_fallback": True,
        "seeds": {"data": 0, "poincare": 0, "train": 0, "linkpred": 0},
        "dims": {"d_h": 128, "d_b": 128, "d_r": 64},
        "data": dict.fromkeys(
            ("taxonomy", "labels", "resumes", "pairs", "hyperbolic", "titles", "vectors", "model")
        ),
        "datagen": {
            "groups": 10, "synonyms": 3, "max_noise_ops": 3, "persons": 100,
            "jobs_per_person": 5, "self_transition_bias": 0.6,
            "transition_concentration": 0.3,
        },
        "poincare": {
            "epochs": 50, "lr": 0.1, "negatives": 10, "burn_in_epochs": 10,
            "burn_in_lr_factor": 0.1,
        },
        "train": {
            "lr": 0.001, "batch_size": 256, "max_epochs": 200, "patience": 20,
            "split": [0.64, 0.16, 0.2], "logic_weight": 1.0, "clause_weight": 0.1,
            "fusion_lr_multiplier": 1.0,
        },
        "map": {"k": 10},
        "linkpred": {"epochs": 100},
    }
    assert resolved == expected
    # the echo is JSON, so an int default turning into a float (or back) is drift too
    assert json.dumps(resolved, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_invalid_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path), "nope": 1}))
    assert main(["gen-data", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "nope" in err and "kind=config" in err


# paths the operating system refuses to open: absent, a directory, under a
# file, a name above the 255-byte limit and a symbolic link to itself
_REFUSED = ["absent", "", "file.json/x", "x" * 300, "loop"]
_REFUSED_IDS = ["missing", "directory", "under-a-file", "name-too-long", "symlink-loop"]


def refused_path(tmp_path, name):
    (tmp_path / "file.json").write_text("{}")
    (tmp_path / "loop").symlink_to(tmp_path / "loop")
    return str(tmp_path / name)


@pytest.mark.parametrize("name", _REFUSED, ids=_REFUSED_IDS)
def test_missing_config_file_exits_2(tmp_path, capsys, name):
    path = refused_path(tmp_path, name)
    assert main(["gen-data", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "kind=config" in err and path in err


@pytest.mark.parametrize(
    "output_dir", ["config.json", "config.json/out", ""],
    ids=["existing-file", "under-a-file", "empty"],
)
def test_unusable_output_dir_exits_2(tmp_path, capsys, output_dir):
    path, _ = write_config(tmp_path, {"output_dir": output_dir and str(tmp_path / output_dir)})
    assert main(["gen-data", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "kind=config" in err and "output_dir" in err
    assert os.listdir(tmp_path) == ["config.json"]


def test_missing_input_file_exits_3(tmp_path, capsys):
    for case, name in zip(_REFUSED_IDS, _REFUSED):
        (tmp_path / case).mkdir()
        resumes = refused_path(tmp_path / case, name)
        path, _ = write_config(tmp_path / case, {"data": {"resumes": resumes}})
        assert main(["build-graph", "--config", str(path)]) == 3, case
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "kind=data" in err and resumes in err


def test_unset_required_path_exits_2(tmp_path):
    path, _ = write_config(tmp_path)
    assert main(["build-graph", "--config", str(path)]) == 2


def test_pipeline_runs_end_to_end(tmp_path):
    out = tmp_path / "out"
    path, config = write_config(tmp_path)
    assert main(["gen-data", "--config", str(path)]) == 0
    for filename in ("taxonomy.tsv", "labels.tsv", "resumes.jsonl", "gen-data_config.json"):
        assert (out / filename).exists()

    path, _ = write_config(tmp_path, {"data": {"resumes": str(out / "resumes.jsonl")}})
    assert main(["build-graph", "--config", str(path)]) == 0
    summary = json.loads((out / "graph_summary.json").read_text())
    assert summary.keys() == {"nodes", "edges", "transitions", "pairs"}
    assert summary["transitions"] >= summary["pairs"] > 0

    path, _ = write_config(tmp_path, {"data": {"pairs": str(out / "pairs.tsv")}})
    assert main(["train-poincare", "--config", str(path)]) == 0
    assert (out / "hyperbolic.tsv").exists()

    path, _ = write_config(
        tmp_path,
        {"data": {
            "taxonomy": str(out / "taxonomy.tsv"),
            "labels": str(out / "labels.tsv"),
            "hyperbolic": str(out / "hyperbolic.tsv"),
        }},
    )
    assert main(["train", "--config", str(path)]) == 0
    for filename in ("model.json", "training_curve.csv", "train_report.json",
                     "split_train.tsv", "split_val.tsv", "split_test.tsv"):
        assert (out / filename).exists()

    titles_file = tmp_path / "queries.txt"
    first_standard = (out / "taxonomy.tsv").read_text().splitlines()[0].split("\t")[0]
    titles_file.write_text(first_standard + "\n")
    path, _ = write_config(
        tmp_path,
        {"data": {
            "model": str(out / "model.json"),
            "hyperbolic": str(out / "hyperbolic.tsv"),
            "titles": str(titles_file),
        }, "map": {"k": 3}},
    )
    assert main(["map", "--config", str(path)]) == 0
    lines = (out / "mappings.tsv").read_text().splitlines()
    assert lines[0].startswith("#mappings")
    assert len(lines) == 1 + 3

    path, _ = write_config(
        tmp_path,
        {"data": {
            "model": str(out / "model.json"),
            "hyperbolic": str(out / "hyperbolic.tsv"),
            "labels": str(out / "split_test.tsv"),
        }},
    )
    assert main(["eval", "--config", str(path)]) == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert set(report["precision_at"]) == {"1", "5", "10"}
    assert 0.0 <= report["ndcg_at_10"] <= 1.0

    path, _ = write_config(
        tmp_path,
        {"data": {
            "pairs": str(out / "pairs.tsv"),
            "vectors": str(out / "hyperbolic.tsv"),
        }},
    )
    assert main(["linkpred", "--config", str(path)]) == 0
    lp = json.loads((out / "linkpred_report.json").read_text())
    assert set(lp["per_operator"]) == {"average", "hadamard", "weighted_l1", "weighted_l2"}

    path, _ = write_config(
        tmp_path,
        {"data": {
            "resumes": str(out / "resumes.jsonl"),
            "model": str(out / "model.json"),
            "hyperbolic": str(out / "hyperbolic.tsv"),
        }},
    )
    assert main(["mobility", "--config", str(path)]) == 0
    mob = json.loads((out / "mobility_report.json").read_text())
    assert "map_at_10_mapped" in mob and "map_at_10_unmapped" in mob


def test_gen_data_rerun_from_echo_is_bit_identical(tmp_path):
    out = tmp_path / "out"
    path, _ = write_config(tmp_path)
    assert main(["gen-data", "--config", str(path)]) == 0
    first = {f: (out / f).read_bytes() for f in ("taxonomy.tsv", "labels.tsv", "resumes.jsonl")}
    echo = out / "gen-data_config.json"
    assert main(["gen-data", "--config", str(echo)]) == 0
    for filename, blob in first.items():
        assert (out / filename).read_bytes() == blob


def test_train_rerun_from_echo_is_bit_identical(tmp_path):
    out = tmp_path / "out"
    data = {name: str(out / f"{name}.{ext}") for name, ext in (
        ("taxonomy", "tsv"), ("labels", "tsv"), ("resumes", "jsonl"), ("pairs", "tsv"),
        ("hyperbolic", "tsv"))}
    path, _ = write_config(tmp_path, {"data": data, "seeds": {"train": 2}})
    for command in ("gen-data", "build-graph", "train-poincare", "train"):
        assert main([command, "--config", str(path)]) == 0
    first = {f: (out / f).read_bytes() for f in ("model.json", "train_report.json")}
    echo = out / "train_config.json"
    assert main(["train", "--config", str(echo)]) == 0
    for filename, blob in first.items():
        assert (out / filename).read_bytes() == blob


def test_readme_minimal_run_config_resolves():
    # the README's example config may name only keys the CLI accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A minimal end-to-end run:", 1)[1].split("```json\n", 1)[1]
    raw = json.loads(block.split("```", 1)[0])
    resolved = resolve_config(raw)
    assert resolved["output_dir"] == raw["output_dir"]
    for section in ("dims", "datagen", "train"):
        assert resolved[section] == {**resolved[section], **raw[section]}


def test_encode_semantic_writes_embeddings(tmp_path):
    out = tmp_path / "out"
    titles = tmp_path / "titles.txt"
    titles.write_text("software engineer\ndata analyst\n")
    path, _ = write_config(tmp_path, {"data": {"titles": str(titles)}})
    assert main(["encode-semantic", "--config", str(path)]) == 0
    lines = (out / "semantic.tsv").read_text().splitlines()
    assert lines[0] == "#embeddings d=16 normalize=false"
    assert len(lines) == 3


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Data paths of a small pipeline run through gen-data, build-graph,
    train-poincare and train."""
    tmp = tmp_path_factory.mktemp("trained")
    out = tmp / "out"
    data = {
        "taxonomy": str(out / "taxonomy.tsv"),
        "labels": str(out / "labels.tsv"),
        "resumes": str(out / "resumes.jsonl"),
        "pairs": str(out / "pairs.tsv"),
        "hyperbolic": str(out / "hyperbolic.tsv"),
        "model": str(out / "model.json"),
        "titles": str(tmp / "titles.txt"),
        "vectors": str(out / "hyperbolic.tsv"),
    }
    (tmp / "titles.txt").write_text("data analyst\n")
    path, _ = write_config(tmp, {"data": data})
    for command in ("gen-data", "build-graph", "train-poincare", "train"):
        assert main([command, "--config", str(path)]) == 0
    return tmp, data


# keys the config no longer has, as the error names them
REMOVED_KEYS = ("train.variant", "poincare.export_2d", "datagen.include_standard_labels",
                "semantic_seed", "linkpred.lr")


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("train", {"train": {"split": ["a", "b", "c"]}}),
        ("train", {"train": {"split": [-0.1, 1.05, 0.05]}}),
        ("train", {"train": {"batch_size": 0}}),
        ("train", {"train": {"max_epochs": True}}),
        ("train", {"train": {"max_epochs": 0}}),
        ("train", {"train": {"patience": -1}}),
        ("train", {"train": {"lr": 0}}),
        ("train", {"train": {"logic_weight": -5}}),
        ("train", {"train": {"clause_weight": -5}}),
        ("map", {"map": {"k": 0}}),
        ("map", {"map": {"k": -1}}),
        ("train-poincare", {"poincare": {"negatives": -2}}),
        ("train-poincare", {"poincare": {"negatives": 0}}),
        ("train-poincare", {"poincare": {"lr": 0}}),
        ("train-poincare", {"poincare": {"burn_in_epochs": -1}}),
        ("train-poincare", {"poincare": {"burn_in_lr_factor": -50}}),
        ("train-poincare", {"poincare": {"burn_in_lr_factor": 0}}),
        ("linkpred", {"linkpred": {"epochs": 0}}),
        # linkpred.lr is gone: any value, in range or not, is an unknown key
        ("linkpred", {"linkpred": {"lr": 0}}),
        ("linkpred", {"linkpred": {"lr": -0.05}}),
        ("gen-data", {"seeds": {"data": -1}}),
        ("train-poincare", {"seeds": {"poincare": -1}}),
        ("train", {"seeds": {"train": -1}}),
        ("linkpred", {"seeds": {"linkpred": -1}}),
        # keys the config no longer has, each set to its last default
        ("train", {"train": {"variant": "full"}}),
        ("train-poincare", {"poincare": {"export_2d": False}}),
        ("gen-data", {"datagen": {"include_standard_labels": True}}),
        ("train", {"semantic_seed": 0}),
    ],
    ids=["split-of-strings", "split-outside-0-1", "batch-size-0", "max-epochs-bool",
         "max-epochs-0", "patience-negative", "train-lr-0", "logic-weight-negative",
         "clause-weight-negative",
         "map-k-0", "map-k-negative", "negatives-negative", "negatives-0", "poincare-lr-0",
         "burn-in-epochs-negative", "burn-in-lr-factor-negative", "burn-in-lr-factor-0",
         "linkpred-epochs-0", "linkpred-lr-0", "linkpred-lr-negative",
         "data-seed-negative", "poincare-seed-negative", "train-seed-negative",
         "linkpred-seed-negative", "removed-train-variant", "removed-poincare-export-2d",
         "removed-datagen-include-standard-labels", "removed-semantic-seed"],
)
def test_bad_config_value_exits_2(trained, command, overrides, capsys):
    tmp, data = trained
    path, _ = write_config(
        tmp, {"output_dir": str(tmp / "rejected"), "data": data, **overrides}, name="bad.json"
    )
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    ((section, value),) = overrides.items()
    (key,) = value if isinstance(value, dict) else (section,)
    assert "kind=config" in err and key in err
    name = f"{section}.{key}" if isinstance(value, dict) else key
    if name in REMOVED_KEYS:
        assert f"unknown config key '{name}'" in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize(
    "command, section, value",
    [("train-poincare", "poincare", {"lr": "@"}), ("train", "train", {"split": ["@", 0.5, 0.5]})],
    ids=["poincare-lr", "train-split"],
)
def test_non_finite_config_number_exits_2(trained, command, section, value, literal, capsys):
    """`json` reads these literals as floats; none may reach a run or its echo."""
    tmp, data = trained
    out = tmp / f"non-finite-{command}"
    path, _ = write_config(tmp, {"output_dir": str(out), "data": data, section: value},
                           name="non_finite.json")
    path.write_text(path.read_text().replace('"@"', literal))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "kind=config" in err and next(iter(value)) in err
    assert not (out / f"{command}_config.json").exists()


def tensor_values(entry):
    """The float32 values of one artifact tensor entry, as a writable array."""
    return np.frombuffer(base64.b64decode(entry["data"]), dtype="<f4").copy()


def set_tensor_values(entry, values, dtype="<f4"):
    entry["data"] = base64.b64encode(values.astype(dtype).tobytes()).decode("ascii")


def as_version_1(doc):
    """Rewrite an artifact in the version-1 layout: tensor data as a JSON list."""
    doc["version"] = 1
    for entry in doc["tensors"].values():
        entry["data"] = tensor_values(entry).tolist()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: doc["train_config"].update(warmup=5),
        lambda doc: doc["train_config"].pop("batch_size"),
        lambda doc: doc["train_config"].update(batch_size="x"),
        lambda doc: doc["train_config"].update(clause_weight=float("nan")),
        lambda doc: doc["train_config"].update(logic_weight=-5.0),
        lambda doc: doc["train_config"].update(seed=-1),
        lambda doc: doc["train_config"].update(split=[-0.1, 1.05, 0.05]),
        # a key the config no longer has, as an older artifact carries it
        lambda doc: doc["train_config"].update(fusion_weight_decay=0.0),
        lambda doc: doc["train_config"].update(variant="full"),
        lambda doc: doc["tensors"]["fusion.b"].pop("shape"),
        lambda doc: doc.pop("taxonomy_titles"),
        lambda doc: doc.pop("taxonomy_groups"),
        lambda doc: doc.pop("taxonomy_hash"),
        # a top-level field the writer does not write, and a stale one
        lambda doc: doc.update(mystery=1, variant="concat"),
        lambda doc: doc.update(taxonomy_titles="data analyst"),
        lambda doc: doc.update(taxonomy_groups=[1, 2]),
        lambda doc: doc.update(taxonomy_hash=7),
        lambda doc: doc["train_config"].update(d_h="6"),
        lambda doc: doc["train_config"].update(d_b=0),
        # only the tensor shapes can catch it, and they must be checked
        # before a 50000-wide model is built
        lambda doc: doc["train_config"].update(d_h=50000),
        lambda doc: doc["taxonomy_titles"].__setitem__(0, "head \ud800 chef"),
        lambda doc: doc["tensors"]["fusion.b"].update(data="not base64!"),
        lambda doc: set_tensor_values(doc["tensors"]["fusion.b"],
                                      tensor_values(doc["tensors"]["fusion.b"])[:-1]),
        as_version_1,
        # the version-2 layout: the widths written a second time beside train_config
        lambda doc: doc.update(version=2, dims={"d_h": 6, "d_b": 16, "d_s": 6, "d_r": 8}),
    ],
    ids=["extra-key", "missing-key", "wrong-type", "clause-weight-nan", "logic-weight-negative",
         "seed-negative", "split-outside-0-1", "fusion-weight-decay", "variant",
         "tensor-without-shape",
         "no-taxonomy-titles", "no-taxonomy-groups", "no-taxonomy-hash", "unknown-field",
         "titles-not-list", "groups-not-strings", "hash-not-string", "d-h-string",
         "d-b-zero", "d-h-50000",
         "lone-surrogate-title", "payload-not-base64", "payload-wrong-length",
         "version-1-list-payload", "version-2-dims"],
)
def test_corrupt_model_artifact_exits_3(trained, corrupt, capsys):
    tmp, data = trained
    doc = json.loads((tmp / "out" / "model.json").read_text())
    corrupt(doc)
    assert run_map_with_model(trained, json.dumps(doc), capsys) == (3, "kind=data")


def run_map_with_model(trained, text, capsys):
    """Exit code and error kind of `map` on a model artifact with this text;
    the error must be one stderr line."""
    tmp, data = trained
    model = tmp / "corrupt_model.json"
    model.write_text(text)
    path, _ = write_config(
        tmp,
        {"output_dir": str(tmp / "rejected"), "data": {**data, "model": str(model)}},
        name="corrupt.json",
    )
    code = main(["map", "--config", str(path)])
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return code, err.split()[1]


def test_version_3_artifact_exits_3_as_unsupported(trained, capsys):
    # the layout before float32 training: the same tensors as float64 bytes
    tmp, data = trained
    doc = json.loads((tmp / "out" / "model.json").read_text())
    doc["version"] = 3
    for entry in doc["tensors"].values():
        set_tensor_values(entry, tensor_values(entry), "<f8")
    model = tmp / "version_3_model.json"
    model.write_text(json.dumps(doc))
    path, _ = write_config(
        tmp, {"output_dir": str(tmp / "rejected"), "data": {**data, "model": str(model)}},
        name="version_3.json",
    )
    assert main(["map", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "kind=data" in err and f"{model}: unsupported artifact version 3" in err


def test_version_4_artifact_exits_3_as_unsupported(trained, capsys):
    # the layout of the serial clause fold: the same tensor names, shapes and
    # float32 bytes, read as a left fold of OR over the candidates
    tmp, data = trained
    doc = json.loads((tmp / "out" / "model.json").read_text())
    doc["version"] = 4
    model = tmp / "version_4_model.json"
    model.write_text(json.dumps(doc))
    path, _ = write_config(
        tmp, {"output_dir": str(tmp / "rejected"), "data": {**data, "model": str(model)}},
        name="version_4.json",
    )
    assert main(["map", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "kind=data" in err and f"{model}: unsupported artifact version 4" in err


def class_axes(d_h, d_b, d_s):
    """Artifact tensor -> (rows, columns) index slices that run over the
    classes: the head's rows and its co-attended syntactic block, the bias,
    every co-attention weight over the syntactic view, and the syntactic
    encoder's first layer, whose title and candidate slots are |Y| wide."""
    block = slice(d_h + d_b, d_h + d_b + d_s)
    rows, cols, both = (slice(None), None), (None, slice(None)), (slice(None), slice(None))
    return {
        "fusion.w": (slice(None), block), "fusion.b": cols,
        "coattention.w_aff_hs": cols, "coattention.w_aff_bs": cols,
        "coattention.w_self_s": both, "coattention.w_cross_sh": cols,
        "coattention.w_cross_sb": cols, "coattention.w_cross_hs": rows,
        "coattention.w_cross_bs": rows,
        "reasoning_s.enc_w1_j": cols, "reasoning_s.enc_w1_v": cols,
    }


def permute_classes(doc, perm):
    """`doc` with its taxonomy in the order `perm` (new class i is old class
    perm[i]) and every class-indexed row and column moved to match."""
    cfg, titles = doc["train_config"], doc["taxonomy_titles"]
    doc["taxonomy_titles"] = [titles[i] for i in perm]
    doc["taxonomy_groups"] = [doc["taxonomy_groups"][i] for i in perm]
    doc["taxonomy_hash"] = hashlib.sha256(
        "\x1f".join(doc["taxonomy_titles"]).encode("utf-8")).hexdigest()[:16]
    for name, (row_axis, col_axis) in class_axes(cfg["d_h"], cfg["d_b"], len(titles)).items():
        entry = doc["tensors"][name]
        values = tensor_values(entry).reshape(entry["shape"])
        if row_axis is not None:
            values[row_axis] = values[row_axis][perm]
        if col_axis is not None:
            values[:, col_axis] = values[:, col_axis][:, perm]
        set_tensor_values(entry, values.ravel())


def test_map_does_not_depend_on_the_taxonomy_order(tmp_path):
    """The taxonomy's lines, permuted along with the model's class-indexed
    rows and columns, give every title the same top-k standard titles in the
    same order. A probability moves only by float32 rounding: the clause
    pools its candidates in another order, and the head and co-attention sum
    over the syntactic view's columns in another order (measured: at most
    1.5e-8). The serial clause fold this replaced moved a probability by
    2.9e-4 here and listed 43 of the 350 rows differently."""
    out = tmp_path / "out"
    data = {name: str(out / f"{name}.{ext}") for name, ext in (
        ("taxonomy", "tsv"), ("labels", "tsv"), ("resumes", "jsonl"), ("pairs", "tsv"),
        ("hyperbolic", "tsv"), ("model", "json"))}
    data["titles"] = str(tmp_path / "titles.txt")
    path, _ = write_config(tmp_path, {
        "data": data,
        "datagen": {"groups": 12, "synonyms": 2, "persons": 40, "jobs_per_person": 4},
        "train": {"max_epochs": 8, "patience": 8, "lr": 0.01},
    })
    for command in ("gen-data", "build-graph", "train-poincare", "train"):
        assert main([command, "--config", str(path)]) == 0
    raw = [line.split("\t")[0] for line in (out / "labels.tsv").read_text().splitlines()[1:]]
    Path(data["titles"]).write_text("".join(f"{title}\n" for title in raw))
    doc = json.loads(Path(data["model"]).read_text())
    permute_classes(doc, np.random.default_rng(5).permutation(len(doc["taxonomy_titles"])))
    (tmp_path / "permuted_model.json").write_text(json.dumps(doc))
    mappings = []
    for name, model in (("natural", data["model"]),
                        ("permuted", str(tmp_path / "permuted_model.json"))):
        run, _ = write_config(tmp_path, {"output_dir": str(tmp_path / name),
                                         "data": {**data, "model": model}}, name=f"{name}.json")
        assert main(["map", "--config", str(run)]) == 0
        rows = (tmp_path / name / "mappings.tsv").read_text().splitlines()[1:]
        mappings.append([row.rsplit("\t", 1) for row in rows])
    natural, permuted = mappings
    assert len(natural) == len(permuted) == 10 * len(raw)
    assert [listed for listed, _ in natural] == [listed for listed, _ in permuted]
    moved = max(abs(float(a) - float(b)) for (_, a), (_, b) in zip(natural, permuted))
    assert moved <= 1e-6


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_model_tensor_exits_4(trained, value, capsys):
    tmp, _ = trained
    doc = json.loads((tmp / "out" / "model.json").read_text())
    entry = doc["tensors"]["fusion.w"]
    values = tensor_values(entry)
    values[3] = value
    set_tensor_values(entry, values)
    assert run_map_with_model(trained, json.dumps(doc), capsys) == (4, "kind=numeric")


def narrow_hyperbolic_table(tmp, source, width):
    """`source`'s hyperbolic table cut to its first `width` coordinates."""
    lines = source.read_text().splitlines()
    rows = [title + "\t" + ",".join(values.split(",")[:width])
            for title, values in (line.split("\t") for line in lines[1:])]
    path = tmp / f"hyperbolic_m{width}.tsv"
    path.write_text(f"#poincare m={width} seed=0\n" + "\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize(
    "view", ["hyperbolic-4-wide", "precomputed-8-wide", "precomputed-8-wide-no-fallback"]
)
def test_view_narrower_than_the_model_exits_2(trained, view, capsys):
    # the model is d_h 6, d_b 16; the config's dims agree with the view, so
    # only a check against the model's own widths can catch it
    tmp, data = trained
    if view == "hyperbolic-4-wide":
        table = narrow_hyperbolic_table(tmp, Path(data["hyperbolic"]), 4)
        overrides = {"dims": {"d_h": 4}, "data": {**data, "hyperbolic": str(table)}}
        widths = {"4", "6"}
    else:
        vectors = tmp / "precomputed_d8.tsv"
        vectors.write_text("#embeddings d=8 normalize=true\nchef\t" + ",".join(["1"] * 8) + "\n")
        overrides = {"dims": {"d_b": 8}, "data": data, "provider": f"precomputed:{vectors}",
                     "provider_fallback": view == "precomputed-8-wide"}
        widths = {"8", "16"}
    path, _ = write_config(
        tmp, {"output_dir": str(tmp / "rejected"), **overrides}, name="narrow.json"
    )
    assert main(["eval", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "kind=config" in err
    message = err.split(":", 1)[1]
    assert widths <= set(re.findall(r"\d+", message)), err


@pytest.mark.parametrize("command, owner", [
    ("eval", "model"), ("train", "config"), ("encode-semantic", "config")
])
def test_precomputed_width_error_names_the_file_and_the_d_b(trained, command, owner, capsys):
    # an 8-wide file with the hashed fallback on: the fallback is the model's
    # d_b (16) wide when serving, even though the config's dims say 8, and
    # the config's d_b (16) wide when training or encoding
    tmp, data = trained
    vectors = tmp / "precomputed_fallback_d8.tsv"
    vectors.write_text("#embeddings d=8 normalize=true\nchef\t" + ",".join(["1"] * 8) + "\n")
    dims = {"d_b": 8} if owner == "model" else {}
    path, _ = write_config(tmp, {
        "output_dir": str(tmp / f"rejected-{command}"), "dims": dims, "data": data,
        "provider": f"precomputed:{vectors}", "provider_fallback": True,
    }, name=f"fallback-{command}.json")
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "kind=config" in err
    assert f"{vectors} have width 8" in err and f"the {owner}'s d_b" in err, err
    assert err.rstrip().endswith("is 16"), err


def map_blocks(trained, lines, name, k=3):
    """The `map` output for a titles file of `lines`: one block of k
    tab-split rows per line, in input order."""
    tmp, data = trained
    titles = tmp / f"{name}.txt"
    titles.write_text("\n".join(lines) + "\n")
    out = tmp / name
    path, _ = write_config(
        tmp, {"output_dir": str(out), "data": {**data, "titles": str(titles)}, "map": {"k": k}},
        name=f"{name}.json",
    )
    assert main(["map", "--config", str(path)]) == 0
    rows = [row.split("\t") for row in (out / "mappings.tsv").read_text().splitlines()[1:]]
    assert len(rows) == k * len(lines)
    return [rows[k * i : k * i + k] for i in range(len(lines))]


def test_map_writes_one_block_per_input_line_for_repeated_titles(trained):
    lines = ["data analyst", "head chef", "data analyst", "Data  Analyst", "head chef",
             "HEAD CHEF"]
    blocks = map_blocks(trained, lines, "repeated")
    for line, block in zip(lines, blocks):
        assert [row[:2] for row in block] == [[line, "1"], [line, "2"], [line, "3"]]
    assert blocks[0] == blocks[2] and blocks[1] == blocks[4]
    # a canonical twin gets the same ranking and probabilities
    assert [row[2:] for row in blocks[3]] == [row[2:] for row in blocks[0]]
    assert [row[2:] for row in blocks[5]] == [row[2:] for row in blocks[1]]
    for i, (line, block) in enumerate(zip(lines, blocks)):
        (alone,) = map_blocks(trained, [line], f"alone{i}")
        # scoring one row alone may round the last bits of the float32 pass
        # differently (BLAS products are not row-independent), so classes
        # nearly tied in probability may trade ranks below the first
        assert [row[:2] for row in block] == [row[:2] for row in alone]
        assert block[0][2] == alone[0][2]
        listed = {row[2]: float(row[3]) for row in alone}
        for row in block:
            if row[2] in listed:
                assert abs(float(row[3]) - listed[row[2]]) < FLOAT32_PROB_TOL


@pytest.mark.parametrize("max_noise_ops", [0, 3])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gen_data_writes_only_canonical_keys(tmp_path, seed, max_noise_ops):
    # `gen_resumes` gives each record its variant as its own key, and the
    # benchmark's map/eval check scores the titles of labels.tsv as keys
    datagen = {"groups": 200, "synonyms": 5, "persons": 200, "max_noise_ops": max_noise_ops}
    path, _ = write_config(tmp_path, {"seeds": {"data": seed}, "datagen": datagen})
    assert main(["gen-data", "--config", str(path)]) == 0

    def lines(name):
        return (tmp_path / "out" / name).read_text(encoding="utf-8").splitlines()

    titles = [line.split("\t")[0] for line in lines("taxonomy.tsv")]
    titles += [title for line in lines("labels.tsv") for title in line.split("\t")]
    titles += [json.loads(line)["title"] for line in lines("resumes.jsonl")]
    assert len(titles) == 200 + 2 * 6 * 200 + 200 * 4
    assert all(canonicalize_title(title) == title for title in titles)


def test_map_canonicalizes_each_title_once_at_the_edge(trained, monkeypatch):
    # one call per distinct raw input line, per standard title of the model
    # and per row of the hyperbolic table; none below the edge
    tmp, data = trained
    standard = json.loads((tmp / "out" / "model.json").read_text())["taxonomy_titles"]
    hyperbolic = [line.split("\t")[0] for line in
                  (tmp / "out" / "hyperbolic.tsv").read_text().splitlines()[1:]]
    lines = ["data analyst", "Data  Analyst", "data analyst", "HEAD CHEF", "head chef",
             "Data  Analyst", "never seen title"]
    calls = record_canonicalize_calls(monkeypatch)
    map_blocks(trained, lines, "edge")
    assert Counter(calls) == Counter(dict.fromkeys(lines, 1)) + Counter(standard) + Counter(hyperbolic)


def test_benchmark_check_calls_reproduce_eval(trained):
    # the same package calls `check_map_agrees_with_eval` in perfbench/run.py
    # makes, so a change to the serving path cannot break that check unseen
    tmp, data = trained
    path, _ = write_config(tmp, {"output_dir": str(tmp / "bench"), "data": data},
                           name="bench.json")
    assert main(["eval", "--config", str(path)]) == 0
    report = json.loads((tmp / "bench" / "eval_report.json").read_text())
    model = load_model(tmp / "out" / "model.json")
    pipeline = FeaturePipeline(
        hyperbolic=HyperbolicEmbeddingTable.load_tsv(tmp / "out" / "hyperbolic.tsv"),
        semantic=HashedNgramProvider(dimension=model.d_b, seed=0),
        taxonomy=model.taxonomy,
    )
    labels = [tuple(line.split("\t")) for line in
              (tmp / "out" / "labels.tsv").read_text(encoding="utf-8").splitlines() if line.strip()]
    titles = [raw for raw, _ in labels]
    probs = forward_probabilities(model, pipeline, titles)
    n_classes = len(model.taxonomy)
    rankings = [np.lexsort((np.arange(n_classes), -row))[:10] for row in probs]
    gold = [model.taxonomy.index(std) for _, std in labels]
    hits = {n: float(np.mean([g in r[:n] for g, r in zip(gold, rankings)])) for n in (1, 10)}
    assert hits == {n: report["hit_rate_at"][str(n)] for n in hits}
    _, _, x_s = pipeline.title_views(titles)
    best = [np.lexsort((np.arange(n_classes), -row))[0] for row in x_s]
    assert float(np.mean([g == b for g, b in zip(gold, best)])) >= 0.9


@pytest.mark.filterwarnings("error")
def test_non_finite_training_loss_exits_4(trained, capsys):
    tmp, data = trained
    path, _ = write_config(
        tmp, {"output_dir": str(tmp / "rejected"), "data": data, "train": {"lr": 1e300}},
        name="huge_lr.json",
    )
    assert main(["train", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "kind=numeric" in err and "training loss" in err
    assert not (tmp / "rejected" / "model.json").exists()


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"output_dir": "\xff"}')
    assert main(["gen-data", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "kind=config" in err and "config.json" in err


@pytest.mark.parametrize(
    "key, name",
    [("output_dir", "out\ud800"), ("data", {"resumes": "resumes\udfff.jsonl"})],
    ids=["output-dir", "data-path"],
)
def test_lone_surrogate_in_config_string_exits_2(tmp_path, capsys, key, name):
    config = {"output_dir": str(tmp_path / "out")}
    config[key] = str(tmp_path / name) if isinstance(name, str) else name
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))  # ensure_ascii writes the JSON escape
    assert main(["build-graph", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "kind=config" in err and "UTF-8" in err


@pytest.mark.parametrize(
    "command, key, value",
    [("train-poincare", "data", {"pairs": "a\u0000b"}), ("build-graph", "output_dir", "o\u0000x")],
    ids=["data-path", "output-dir"],
)
def test_nul_in_config_string_exits_2(tmp_path, capsys, command, key, value):
    config = {"output_dir": str(tmp_path / "out"), "data": {"resumes": str(tmp_path / "r.jsonl")}}
    config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))  # written as the JSON escape \u0000
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "kind=config" in err and "NUL" in err
    assert ("data.pairs" if key == "data" else "output_dir") in err


def run_fresh(command, config, **env):
    """Run a CLI stage in a fresh `python -m titlemap.cli` process, with the
    caller's environment plus `env`. The CLI sets one BLAS thread before
    numpy loads, which a stage run in this process, where numpy is already
    loaded, cannot do."""
    src = Path(titlemap.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-m", "titlemap.cli", command, "--config", str(config)],
                   env={**os.environ, "PYTHONPATH": str(src), **env}, check=True,
                   capture_output=True, timeout=120)


def test_seeded_train_report_is_pinned(tmp_path):
    """A small seeded `train` whose clause spans several candidate blocks
    (57 training rows and 30 candidates at d_r 32) writes the same split
    metrics, best epoch, `model.json` and `training_curve.csv` as when these
    figures were recorded. `train` runs in a fresh process, where the CLI
    sets one BLAS thread before numpy loads, so the bytes do not follow the
    caller's thread count. A change that moves these bytes re-pins them and
    states its tolerance in CHANGES.md."""
    out = tmp_path / "out"
    data = {name: str(out / f"{name}.{ext}") for name, ext in (
        ("taxonomy", "tsv"), ("labels", "tsv"), ("resumes", "jsonl"), ("pairs", "tsv"),
        ("hyperbolic", "tsv"))}
    path, _ = write_config(tmp_path, {
        "data": data,
        "dims": {"d_h": 6, "d_b": 16, "d_r": 32},
        "datagen": {"groups": 30, "synonyms": 2, "persons": 40, "jobs_per_person": 4},
        "poincare": {"epochs": 2},
        "train": {"batch_size": 64, "max_epochs": 6, "patience": 6, "lr": 0.01,
                  "fusion_lr_multiplier": 10},
    })
    for command in ("gen-data", "build-graph", "train-poincare"):
        assert main([command, "--config", str(path)]) == 0
    run_fresh("train", path)
    report = json.loads((out / "train_report.json").read_text())
    assert report["best_epoch"] == 3
    assert report["metrics"] == {
        "best_val_hit_at_10": 3 / 7,
        "test_hit_at_1": 3 / 19,
        "test_hit_at_5": 5 / 19,
        "test_hit_at_10": 8 / 19,
    }
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("model.json", "training_curve.csv")}
    assert digests == {
        "model.json": "7f35122f155681f6d57e2696c0f756c1c4b509e5d6c488e5a98fb56373d1ca01",
        "training_curve.csv":
            "fee92bfa8f26234e1eb80cd6662197d4723d45b3c80a11cabb13739b2f7d1e18",
    }


def test_seeded_train_poincare_outputs_are_pinned(tmp_path):
    """A small seeded `train-poincare` (4 epochs, with burn-in, over a
    generated graph of 116 pairs and 16 titles, so the last block is partial
    and some children's pools are narrower than 12 negatives) writes the same bytes as
    when these digests were recorded. A rewrite of the RSGD step or of the
    negative sampler must leave both files bit-identical."""
    out = tmp_path / "out"
    data = {"resumes": str(out / "resumes.jsonl"), "pairs": str(out / "pairs.tsv")}
    path, _ = write_config(tmp_path, {
        "data": data,
        "seeds": {"data": 3, "poincare": 5},
        "datagen": {"groups": 8, "synonyms": 2, "persons": 60, "jobs_per_person": 4},
        "poincare": {"epochs": 4, "burn_in_epochs": 2, "negatives": 12},
    })
    for command in ("gen-data", "build-graph", "train-poincare"):
        assert main([command, "--config", str(path)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("hyperbolic.tsv", "poincare_report.json")}
    assert digests == {
        "hyperbolic.tsv": "9541f4977b442597566f4d114b125a8387dc00433f92c972f90b458dc58ecd8c",
        "poincare_report.json":
            "d8ad360913904b6273dc47fbc5ed8ba5866bb9fe08228c93c2cb4b1d1ecf3d49",
    }


def test_seeded_graph_eval_and_mobility_outputs_are_pinned(tmp_path):
    """A small seeded run through `mobility` (eval over all 75 labelled
    titles, so gold ranks past 10 occur) writes the same bytes as when these
    digests were recorded. A rewrite of the ranking metrics, of how a stage
    walks each career, or of how gen-data draws and writes the corpus must
    leave all eight files bit-identical. `map` lists the labelled titles twice
    over 25 classes; its digest leaves out the probability column, whose last
    bits follow the float32 rounding of the serving pass, so it pins which
    classes it lists and in what order. `train`, `eval`, `mobility` and
    `map` run in fresh processes, so the bytes do not follow the caller's
    BLAS thread count."""
    out = tmp_path / "out"
    data = {name: str(out / f"{name}.{ext}") for name, ext in (
        ("taxonomy", "tsv"), ("labels", "tsv"), ("resumes", "jsonl"), ("pairs", "tsv"),
        ("hyperbolic", "tsv"), ("model", "json"))}
    data["titles"] = str(tmp_path / "titles.txt")
    path, _ = write_config(tmp_path, {
        "data": data,
        "seeds": {"data": 4, "poincare": 2, "train": 3},
        "datagen": {"groups": 25, "synonyms": 2, "persons": 60, "jobs_per_person": 4},
        "poincare": {"epochs": 2},
        "train": {"max_epochs": 2},
    })
    for command in ("gen-data", "build-graph", "train-poincare"):
        assert main([command, "--config", str(path)]) == 0
    raw = [line.split("\t")[0] for line in (out / "labels.tsv").read_text().splitlines()]
    Path(data["titles"]).write_text("".join(f"{title}\n" for title in raw + raw[::-1]))
    for command in ("train", "eval", "mobility", "map"):
        run_fresh(command, path)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("taxonomy.tsv", "labels.tsv", "resumes.jsonl", "eval_report.json",
                            "mobility_report.json", "pairs.tsv", "graph_summary.json")}
    listed = "".join(line.rsplit("\t", 1)[0] + "\n"
                     for line in (out / "mappings.tsv").read_text().splitlines())
    digests["mappings.tsv"] = hashlib.sha256(listed.encode()).hexdigest()
    assert digests == {
        "taxonomy.tsv": "5d5e0158f7001485f6bb9800927d5af6eb1f753ede264221bf37ec809a94adb5",
        "labels.tsv": "c73b7866ed6cec1bd271b9230513956c94bac30f1f3280b2bcf226d54f0b6a6d",
        "resumes.jsonl": "1d3829c6b18af908adc521d16c64d82c8caff7dbe2c5f2b1c1f71f4c1a86f93f",
        "eval_report.json": "a1b4fe46d09c912abffbd2dfaa910a5f0640e169ef7022c596a87b124c17bead",
        "mobility_report.json":
            "9feeefe4b78040f7b781df79bcad5fd6f60e4737e4ed8cf3f686abdb4d1f9024",
        "pairs.tsv": "262747f6acfbf63c32a4a5d175c95710d7f44d311f40fd3b534301ca585611ea",
        "graph_summary.json": "1c22a1a17d7461003f262bb52a8c9d6867cdc3511ae3216bd7a157b7a7bcffd1",
        "mappings.tsv": "c4b721c451cf008b3f943fa20ce0cfd0b84e428d35f68a462bcfd6e745896456",
    }


def test_train_and_map_bytes_do_not_depend_on_the_callers_blas_threads(tmp_path):
    """`train` and `map` started with `OPENBLAS_NUM_THREADS=1` and `=2` write
    the same bytes: the CLI sets one BLAS thread before numpy loads. At this
    README-width config, two threads moved `model.json` and `mappings.tsv`
    while the caller's value was honoured."""
    base = tmp_path / "base"
    data = {name: str(base / f"{name}.{ext}") for name, ext in (
        ("taxonomy", "tsv"), ("labels", "tsv"), ("resumes", "jsonl"), ("pairs", "tsv"),
        ("hyperbolic", "tsv"))}
    data["titles"] = str(tmp_path / "titles.txt")
    overrides = {
        "data": data,
        "dims": {"d_h": 32, "d_b": 128, "d_r": 16},
        "datagen": {"groups": 50, "synonyms": 5, "persons": 200},
        "poincare": {"epochs": 1},
        "train": {"batch_size": 256, "max_epochs": 1, "patience": 25, "lr": 0.01,
                  "fusion_lr_multiplier": 10},
    }
    path, _ = write_config(tmp_path, {**overrides, "output_dir": str(base)})
    for command in ("gen-data", "build-graph", "train-poincare"):
        assert main([command, "--config", str(path)]) == 0
    titles = [json.loads(line)["title"]
              for line in (base / "resumes.jsonl").read_text().splitlines()]
    Path(data["titles"]).write_text("".join(f"{title}\n" for title in titles))
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        run_data = {**data, "model": str(out / "model.json")}
        config, _ = write_config(tmp_path, {**overrides, "data": run_data, "output_dir": str(out)},
                                 name=f"threads-{threads}.json")
        for command in ("train", "map"):
            run_fresh(command, config, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                      MKL_NUM_THREADS=threads)
        written[threads] = {name: (out / name).read_bytes()
                            for name in ("model.json", "train_report.json", "mappings.tsv")}
    assert written["1"] == written["2"]


def test_train_poincare_writes_a_deterministic_report(trained):
    tmp, data = trained
    report = json.loads((tmp / "out" / "poincare_report.json").read_text())
    pair_rows = len((tmp / "out" / "pairs.tsv").read_text().splitlines()) - 1
    table_rows = len((tmp / "out" / "hyperbolic.tsv").read_text().splitlines()) - 1
    assert report["pairs"] == pair_rows and report["titles"] == table_rows
    assert len(report["epochs"]) == 5
    for epoch in report["epochs"]:
        assert set(epoch) == {"loss", "clamped_rows"}
        assert epoch["loss"] > 0 and epoch["clamped_rows"] >= 0
    path, _ = write_config(
        tmp, {"output_dir": str(tmp / "again"), "data": data}, name="again.json"
    )
    assert main(["train-poincare", "--config", str(path)]) == 0
    for name in ("poincare_report.json", "hyperbolic.tsv"):
        assert (tmp / "again" / name).read_bytes() == (tmp / "out" / name).read_bytes()


def test_linkpred_rerun_writes_an_identical_report(trained):
    tmp, data = trained
    reports = []
    for run in ("linkpred-a", "linkpred-b"):
        path, _ = write_config(tmp, {"output_dir": str(tmp / run), "data": data,
                                     "linkpred": {"epochs": 20}}, name=f"{run}.json")
        assert main(["linkpred", "--config", str(path)]) == 0
        reports.append((tmp / run / "linkpred_report.json").read_bytes())
    assert reports[0] == reports[1]
    assert 0.0 <= json.loads(reports[0])["test_auc"] <= 1.0


def test_linkpred_scores_the_links_train_poincare_embedded(tmp_path, monkeypatch):
    """One person holds the same title for every job, so that title has only
    self-transitions: `build-graph` writes no pair for it and `train-poincare`
    gives it no row. `linkpred` reads the same pairs, so it is no node of the
    split, and the split's nodes are the rows of the hyperbolic table."""
    from titlemap import evaluation

    out = tmp_path / "out"
    data = {"resumes": str(out / "resumes.jsonl"), "pairs": str(out / "pairs.tsv"),
            "vectors": str(out / "hyperbolic.tsv")}
    path, _ = write_config(tmp_path, {"data": data, "linkpred": {"epochs": 5}})
    assert main(["gen-data", "--config", str(path)]) == 0
    lonely = "cusotmer coordinator"
    with open(out / "resumes.jsonl", "a", encoding="utf-8") as fh:
        for year in range(2010, 2015):
            fh.write(json.dumps({"person_id": "p-loop", "title": lonely, "company_id": "c1",
                                 "start": f"{year}-01-01", "end": f"{year}-12-31"}) + "\n")
    splits = []
    make_link_split = evaluation.make_link_split

    def recording(*args, **kwargs):
        splits.append(make_link_split(*args, **kwargs))
        return splits[-1]

    monkeypatch.setattr(evaluation, "make_link_split", recording)
    for command in ("build-graph", "train-poincare", "linkpred"):
        assert main([command, "--config", str(path)]) == 0
    (split,) = splits
    rows = [line.split("\t")[0] for line in
            (out / "hyperbolic.tsv").read_text(encoding="utf-8").splitlines()[1:]]
    assert lonely not in split.nodes
    assert split.nodes == rows
    report = json.loads((out / "linkpred_report.json").read_text())
    assert report["edges"] == len({tuple(line.split("\t")) for line in
                                   (out / "pairs.tsv").read_text().splitlines()[1:]})


EMBEDDINGS_D16 = "#embeddings d=16 normalize=true\n"

# one malformed file per on-disk format: (command, data key or the provider,
# file content, exit code, error kind)
MALFORMED_INPUTS = {
    "taxonomy-three-fields": ("train", "taxonomy", b"a\tb\tc\n", 3, "kind=data"),
    "taxonomy-not-utf8": ("train", "taxonomy", b"data analyst\t\xff\n", 3, "kind=data"),
    "taxonomy-title-empty-after-canonicalization": ("train", "taxonomy", b"chef\tg0\n\tg1\n", 3,
                                                    "kind=data"),
    "labels-one-field": ("train", "labels", b"data analyst\n", 3, "kind=data"),
    "titles-with-tab": ("map", "titles", b"data\tanalyst\n", 3, "kind=data"),
    "titles-empty-after-canonicalization": ("map", "titles", b"data analyst\n\x07\n", 3,
                                            "kind=data"),
    "semantic-titles-empty-after-canonicalization": ("encode-semantic", "titles",
                                                     b"data analyst\n\x07\n", 3, "kind=data"),
    "pairs-no-header": ("train-poincare", "pairs", b"a\tb\n", 3, "kind=data"),
    "pairs-self-transition": ("train-poincare", "pairs", b"#pairs\tchild\tparent\nChef\tchef\n", 3,
                              "kind=data"),
    "pairs-title-empty-after-canonicalization": ("train-poincare", "pairs",
                                                 b"#pairs\tchild\tparent\n\x01 \tchef\n", 3,
                                                 "kind=data"),
    "resumes-not-utf8": ("build-graph", "resumes", b"\xff\n", 3, "kind=data"),
    "resumes-lone-surrogate": ("build-graph", "resumes",
                               b'{"person_id": "p1", "title": "head \\ud800 chef", "company_id": '
                               b'"c1", "start": "2010-01-01", "end": null}\n', 3, "kind=data"),
    "resumes-title-null": ("build-graph", "resumes",
                           b'{"person_id": "p1", "title": null, "company_id": "c1", '
                           b'"start": "2010-01-01", "end": null}\n', 3, "kind=data"),
    "resumes-person-id-number": ("build-graph", "resumes",
                                 b'{"person_id": 7, "title": "chef", "company_id": "c1", '
                                 b'"start": "2010-01-01", "end": null}\n', 3, "kind=data"),
    "resumes-company-id-number": ("build-graph", "resumes",
                                  b'{"person_id": "p1", "title": "chef", "company_id": 3, '
                                  b'"start": "2010-01-01", "end": null}\n', 3, "kind=data"),
    "hyperbolic-nan": ("train", "hyperbolic", b"#poincare m=6 seed=0\nchef\tnan,0,0,0,0,0\n", 4,
                       "kind=numeric"),
    "hyperbolic-not-a-number": ("train", "hyperbolic",
                                b"#poincare m=6 seed=0\nchef\tabc,0,0,0,0,0\n", 3, "kind=data"),
    "hyperbolic-not-utf8": ("train", "hyperbolic", b"#poincare m=6 seed=0\n\xff\t0,0,0,0,0,0\n", 3,
                            "kind=data"),
    "hyperbolic-dim-0": ("map", "hyperbolic", b"#poincare m=0 seed=0\n", 3, "kind=data"),
    "hyperbolic-outside-ball": ("eval", "hyperbolic",
                                b"#poincare m=2 seed=0\nchef\t0.5,0\ncook\t0.8,0.6\n", 3,
                                "kind=data"),
    "vectors-dim-negative": ("linkpred", "vectors", b"#poincare m=-3 seed=0\nchef\t0\n", 3,
                             "kind=data"),
    "vectors-not-a-number": ("linkpred", "vectors", b"#poincare m=2 seed=0\nchef\tabc,0\n", 3,
                             "kind=data"),
    "vectors-nan": ("linkpred", "vectors", b"#poincare m=2 seed=0\nchef\t0,nan\n", 4,
                    "kind=numeric"),
    "embeddings-inf": ("train", "provider", (EMBEDDINGS_D16 + "chef\tinf" + ",1" * 15 + "\n").encode(),
                       4, "kind=numeric"),
    "embeddings-norm-overflows": ("train", "provider",
                                  (EMBEDDINGS_D16 + "chef\t1e308" + ",1e308" * 15 + "\n").encode(),
                                  4, "kind=numeric"),
    "model-root-not-object": ("map", "model", b"[1, 2]\n", 3, "kind=data"),
    "model-not-utf8": ("map", "model", b'{"format": "\xff"}', 3, "kind=data"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_input_file_exits_with_its_code(trained, case, capsys):
    command, key, content, code, kind = MALFORMED_INPUTS[case]
    tmp, data = trained
    bad = tmp / f"malformed-{case}"
    bad.write_bytes(content)
    overrides = {"output_dir": str(tmp / "rejected"), "data": dict(data)}
    if key == "provider":
        overrides["provider"] = f"precomputed:{bad}"
    else:
        overrides["data"][key] = str(bad)
    path, _ = write_config(tmp, overrides, name="malformed.json")
    assert main([command, "--config", str(path)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert kind in err and str(bad) in err
    if case.endswith("empty-after-canonicalization"):  # each holds the bad title on line 2
        assert f"{bad}:2: " in err


@pytest.mark.parametrize("where", ["directory", "under-a-file"])
def test_data_path_that_is_not_a_file_exits_3(trained, where, capsys):
    tmp, data = trained
    bad = tmp if where == "directory" else tmp / "out" / "taxonomy.tsv" / "resumes.jsonl"
    path, _ = write_config(
        tmp, {"output_dir": str(tmp / "rejected"), "data": {**data, "resumes": str(bad)}},
        name="not_a_file.json",
    )
    assert main(["build-graph", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "kind=data" in err and str(bad) in err


def test_precomputed_key_is_canonicalized_on_load(trained, capsys):
    tmp, data = trained
    title = (tmp / "out" / "taxonomy.tsv").read_text().split("\t")[0]
    raw_key = "  " + title.upper().replace(" ", "  ")
    emb = tmp / "precomputed.tsv"
    emb.write_text(EMBEDDINGS_D16 + raw_key + "\t" + ",".join(["0.25"] * 16) + "\n")
    (tmp / "one_title.txt").write_text(title + "\n")
    path, _ = write_config(
        tmp,
        {"output_dir": str(tmp / "encoded"), "provider": f"precomputed:{emb}",
         "provider_fallback": False, "data": {**data, "titles": str(tmp / "one_title.txt")}},
        name="precomputed.json",
    )
    assert main(["encode-semantic", "--config", str(path)]) == 0
    rows = (tmp / "encoded" / "semantic.tsv").read_text().splitlines()
    assert rows[1] == f"{title}\t" + ",".join(["0.25"] * 16)
