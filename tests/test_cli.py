import base64
import json
import os

import numpy as np
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
            "variant": "full", "fusion_lr_multiplier": 1.0,
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
        "vectors": str(out / "hyperbolic.tsv"),
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
        ("train", {"train": {"logic_weight": -5}}),
        ("train", {"train": {"clause_weight": -5}}),
        ("map", {"map": {"k": 0}}),
        ("map", {"map": {"k": -1}}),
        ("train-poincare", {"poincare": {"negatives": -2}}),
        ("train-poincare", {"poincare": {"lr": 0}}),
        ("train-poincare", {"poincare": {"burn_in_epochs": -1}}),
        ("train-poincare", {"poincare": {"burn_in_lr_factor": -50}}),
        ("train-poincare", {"poincare": {"burn_in_lr_factor": 0}}),
        ("linkpred", {"linkpred": {"epochs": 0}}),
        ("linkpred", {"linkpred": {"lr": 0}}),
        ("linkpred", {"linkpred": {"lr": -0.05}}),
        ("gen-data", {"seeds": {"data": -1}}),
        ("train-poincare", {"seeds": {"poincare": -1}}),
        ("train", {"seeds": {"train": -1}}),
        ("linkpred", {"seeds": {"linkpred": -1}}),
    ],
    ids=["split-of-strings", "batch-size-0", "max-epochs-bool", "max-epochs-0",
         "patience-negative", "train-lr-0", "logic-weight-negative", "clause-weight-negative",
         "map-k-0", "map-k-negative", "negatives-negative", "poincare-lr-0",
         "burn-in-epochs-negative", "burn-in-lr-factor-negative", "burn-in-lr-factor-0",
         "linkpred-epochs-0", "linkpred-lr-0", "linkpred-lr-negative",
         "data-seed-negative", "poincare-seed-negative", "train-seed-negative",
         "linkpred-seed-negative"],
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


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize(
    "command, section, value",
    [("linkpred", "linkpred", {"lr": "@"}), ("train", "train", {"split": ["@", 0.5, 0.5]})],
    ids=["linkpred-lr", "train-split"],
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
    """The float64 values of one artifact tensor entry, as a writable array."""
    return np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()


def set_tensor_values(entry, values):
    entry["data"] = base64.b64encode(values.astype("<f8").tobytes()).decode("ascii")


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
        # a key the config no longer has, as an older artifact carries it
        lambda doc: doc["train_config"].update(fusion_weight_decay=0.0),
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
        # both claims agree, so only the tensor shapes can catch it, and they
        # must be checked before a 50000-wide model is built
        lambda doc: (doc["dims"].update(d_h=50000), doc["train_config"].update(d_h=50000)),
        lambda doc: doc["dims"].update(d_h=7),
        lambda doc: doc["taxonomy_titles"].__setitem__(0, "head \ud800 chef"),
        lambda doc: doc["tensors"]["fusion.b"].update(data="not base64!"),
        lambda doc: set_tensor_values(doc["tensors"]["fusion.b"],
                                      tensor_values(doc["tensors"]["fusion.b"])[:-1]),
        as_version_1,
    ],
    ids=["extra-key", "missing-key", "wrong-type", "clause-weight-nan", "logic-weight-negative",
         "seed-negative", "fusion-weight-decay",
         "tensor-without-shape",
         "no-taxonomy-titles", "no-taxonomy-groups", "no-taxonomy-hash", "no-d-h", "no-d-b",
         "titles-not-list", "groups-not-strings", "hash-not-string", "d-h-string",
         "d-b-zero", "dims-not-object", "d-h-50000", "dims-differ-from-train-config",
         "lone-surrogate-title", "payload-not-base64", "payload-wrong-length",
         "version-1-list-payload"],
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
    entry = doc["tensors"]["fusion.w"]
    values = tensor_values(entry)
    values[3] = value
    set_tensor_values(entry, values)
    assert run_map_with_model(trained, json.dumps(doc), capsys) == (4, "kind=numeric")


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
        assert [row[:3] for row in block] == [row[:3] for row in alone]
        # scoring one row alone may round the last bits differently (BLAS
        # products are not row-independent)
        for row, ref in zip(block, alone):
            assert float(row[3]) == pytest.approx(float(ref[3]), rel=1e-12, abs=0)


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
