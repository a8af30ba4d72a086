import json
import os

import pytest

from titlemap.cli import main, resolve_config
from titlemap.errors import ConfigError


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
        "semantic_seed": 0,
        "seeds": {"data": 0, "poincare": 0, "train": 0, "linkpred": 0},
        "dims": {"d_h": 128, "d_b": 128, "d_r": 64},
        "data": dict.fromkeys(
            ("taxonomy", "labels", "resumes", "pairs", "hyperbolic", "titles", "vectors", "model")
        ),
        "datagen": {
            "groups": 10, "synonyms": 3, "max_noise_ops": 3, "persons": 100,
            "jobs_per_person": 5, "self_transition_bias": 0.6,
            "transition_concentration": 0.3, "include_standard_labels": True,
        },
        "poincare": {
            "epochs": 50, "lr": 0.1, "negatives": 10, "burn_in_epochs": 10,
            "burn_in_lr_factor": 0.1, "export_2d": False,
        },
        "train": {
            "lr": 0.001, "batch_size": 256, "max_epochs": 200, "patience": 20,
            "split": [0.64, 0.16, 0.2], "logic_weight": 1.0, "clause_weight": 0.1,
            "variant": "full", "fusion_lr_multiplier": 1.0, "fusion_weight_decay": 0.0,
        },
        "map": {"k": 10},
        "linkpred": {"epochs": 100, "lr": 0.05},
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


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["gen-data", "--config", str(tmp_path / "absent.json")]) == 2


def test_missing_input_file_exits_3(tmp_path, capsys):
    path, _ = write_config(tmp_path, {"data": {"resumes": str(tmp_path / "none.jsonl")}})
    assert main(["build-graph", "--config", str(path)]) == 3
    assert "kind=data" in capsys.readouterr().err


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
    assert summary["weight_sum"] == pytest.approx(1.0, abs=1e-9)

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
            "resumes": str(out / "resumes.jsonl"),
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
    }
    (tmp / "titles.txt").write_text("data analyst\n")
    path, _ = write_config(tmp, {"data": data})
    for command in ("gen-data", "build-graph", "train-poincare", "train"):
        assert main([command, "--config", str(path)]) == 0
    return tmp, data


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("train", {"train": {"split": ["a", "b", "c"]}}),
        ("train", {"train": {"batch_size": 0}}),
        ("train", {"train": {"max_epochs": True}}),
        ("train", {"train": {"max_epochs": 0}}),
        ("train", {"train": {"patience": -1}}),
        ("train", {"train": {"lr": 0}}),
        ("map", {"map": {"k": 0}}),
        ("map", {"map": {"k": -1}}),
        ("train-poincare", {"poincare": {"negatives": -2}}),
        ("train-poincare", {"poincare": {"lr": 0}}),
    ],
    ids=["split-of-strings", "batch-size-0", "max-epochs-bool", "max-epochs-0",
         "patience-negative", "train-lr-0", "map-k-0", "map-k-negative",
         "negatives-negative", "poincare-lr-0"],
)
def test_bad_config_value_exits_2(trained, command, overrides, capsys):
    tmp, data = trained
    path, _ = write_config(
        tmp, {"output_dir": str(tmp / "rejected"), "data": data, **overrides}, name="bad.json"
    )
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "kind=config" in err


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: doc["train_config"].update(warmup=5),
        lambda doc: doc["train_config"].pop("batch_size"),
        lambda doc: doc["train_config"].update(batch_size="x"),
        lambda doc: doc["tensors"]["fusion.b"].pop("shape"),
        lambda doc: doc.pop("taxonomy_titles"),
        lambda doc: doc.pop("taxonomy_groups"),
        lambda doc: doc.pop("taxonomy_hash"),
        lambda doc: doc["dims"].pop("d_h"),
        lambda doc: doc["dims"].pop("d_b"),
        lambda doc: doc.update(taxonomy_titles="data analyst"),
        lambda doc: doc.update(taxonomy_groups=[1, 2]),
        lambda doc: doc.update(taxonomy_hash=7),
        lambda doc: doc["dims"].update(d_h="6"),
        lambda doc: doc["dims"].update(d_b=0),
        lambda doc: doc.update(dims=[6, 16]),
    ],
    ids=["extra-key", "missing-key", "wrong-type", "tensor-without-shape",
         "no-taxonomy-titles", "no-taxonomy-groups", "no-taxonomy-hash", "no-d-h", "no-d-b",
         "titles-not-list", "groups-not-strings", "hash-not-string", "d-h-string",
         "d-b-zero", "dims-not-object"],
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_model_tensor_exits_4(trained, value, capsys):
    tmp, _ = trained
    doc = json.loads((tmp / "out" / "model.json").read_text())
    doc["tensors"]["fusion.w"]["data"][3] = value
    assert run_map_with_model(trained, json.dumps(doc), capsys) == (4, "kind=numeric")


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


EMBEDDINGS_D16 = "#embeddings d=16 normalize=true\n"

# one malformed file per on-disk format: (command, data key or the provider,
# file content, exit code, error kind)
MALFORMED_INPUTS = {
    "taxonomy-three-fields": ("train", "taxonomy", b"a\tb\tc\n", 3, "kind=data"),
    "taxonomy-not-utf8": ("train", "taxonomy", b"data analyst\t\xff\n", 3, "kind=data"),
    "labels-one-field": ("train", "labels", b"data analyst\n", 3, "kind=data"),
    "titles-with-tab": ("map", "titles", b"data\tanalyst\n", 3, "kind=data"),
    "pairs-no-header": ("train-poincare", "pairs", b"a\tb\n", 3, "kind=data"),
    "resumes-not-utf8": ("build-graph", "resumes", b"\xff\n", 3, "kind=data"),
    "hyperbolic-nan": ("train", "hyperbolic", b"#poincare m=6 seed=0\nchef\tnan,0,0,0,0,0\n", 4,
                       "kind=numeric"),
    "hyperbolic-not-a-number": ("train", "hyperbolic",
                                b"#poincare m=6 seed=0\nchef\tabc,0,0,0,0,0\n", 3, "kind=data"),
    "hyperbolic-not-utf8": ("train", "hyperbolic", b"#poincare m=6 seed=0\n\xff\t0,0,0,0,0,0\n", 3,
                            "kind=data"),
    "vectors-not-a-number": ("linkpred", "vectors",
                             b"#embeddings d=2 normalize=false\nchef\tabc,1\n", 3, "kind=data"),
    "vectors-nan": ("linkpred", "vectors", b"#embeddings d=2 normalize=false\nchef\t1,nan\n", 4,
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
    overrides = {"output_dir": str(tmp / "rejected"), "data": {**data, "vectors": data["hyperbolic"]}}
    if key == "provider":
        overrides["provider"] = f"precomputed:{bad}"
    else:
        overrides["data"][key] = str(bad)
    path, _ = write_config(tmp, overrides, name="malformed.json")
    assert main([command, "--config", str(path)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert kind in err and str(bad) in err


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
