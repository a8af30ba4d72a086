"""Stages import no module they do not use.

`import titlemap.cli` loads only the config schema's modules, and each
subcommand imports the package modules it runs: without a bytecode cache,
every module a stage loads is compiled again on every run. `train-poincare`
finds its distinct pairs without `np.unique` (which imports `numpy.ma`), and
the serving stages build a loaded model without an initialization draw (which
imports `numpy.random`); `map` and `eval` read their titles as keys, so
neither loads `graph`. The serving stages fold both views on the calling
thread, so none of them loads `concurrent.futures`. The model's two
warnings are printed to stderr, so no stage that loads the model loads
`logging`. `linkpred` reads the
pairs and the hyperbolic table alone, so it loads none of the mapper's
modules, and its negative sampler counts pairs without `np.unique`. Each
stage runs in a fresh interpreter, as on the command line, so an import
made anywhere in the stage shows in `sys.modules` afterwards. numpy 1.x loads its public submodules on `import numpy` itself,
so there a module already loaded before the stage runs skips the check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import titlemap
from titlemap.cli import main

_STAGE_SCRIPT = """
import json
import sys
import numpy
modules = sys.argv[1].split(",")
preloaded = [m for m in modules if m in sys.modules]
from titlemap.cli import main
status = main(sys.argv[2:])
imported = [m for m in modules if m in sys.modules]
print(json.dumps({"status": status, "preloaded": preloaded, "imported": imported}))
"""


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """A tiny trained pipeline: its data, pairs, hyperbolic table and model."""
    root = tmp_path_factory.mktemp("stages")
    out = root / "out"
    (root / "titles.txt").write_text("software engineer\nsoftware engineer\ndata anlyst\n")
    config = {
        "output_dir": str(out),
        "dims": {"d_h": 4, "d_b": 16, "d_r": 4},
        "datagen": {"groups": 5, "synonyms": 2, "persons": 30, "jobs_per_person": 3},
        "poincare": {"epochs": 2, "burn_in_epochs": 1},
        "train": {"batch_size": 16, "max_epochs": 1},
        "data": {
            "resumes": str(out / "resumes.jsonl"),
            "pairs": str(out / "pairs.tsv"),
            "taxonomy": str(out / "taxonomy.tsv"),
            "labels": str(out / "labels.tsv"),
            "hyperbolic": str(out / "hyperbolic.tsv"),
            "vectors": str(out / "hyperbolic.tsv"),
            "model": str(out / "model.json"),
            "titles": str(root / "titles.txt"),
        },
    }
    (root / "config.json").write_text(json.dumps(config))
    for stage in ("gen-data", "build-graph", "train-poincare", "train"):
        assert main([stage, "--config", str(root / "config.json")]) == 0
    return root


_ENV = {**os.environ, "PYTHONPATH": str(Path(titlemap.__file__).parents[1])}

# every package module that only some stages run
_PIPELINE = [
    f"titlemap.{name}" for name in (
        "model", "reasoning", "coattention", "numerics", "poincare", "datagen",
        "evaluation", "semantic", "syntactic",
    )
]


def _run_stage(fixture_dir, stage: str, modules: list[str]) -> dict:
    """Run `stage` in a fresh interpreter; which of `modules` it loaded."""
    result = subprocess.run(
        [sys.executable, "-c", _STAGE_SCRIPT, ",".join(modules),
         stage, "--config", str(fixture_dir / "config.json")],
        env=_ENV, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["status"] == 0
    return report


def test_cli_import_loads_only_the_config_modules():
    script = "import json, sys, titlemap.cli; print(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", script], env=_ENV, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    loaded = [m for m in json.loads(result.stdout) if m.startswith("titlemap.")]
    assert loaded == [
        "titlemap.cli", "titlemap.config", "titlemap.errors", "titlemap.formats", "titlemap.schema",
    ]


@pytest.mark.parametrize(
    "stage, absent",
    [
        ("build-graph", _PIPELINE),
        ("train-poincare", [m for m in _PIPELINE if m != "titlemap.poincare"]),
        ("map", ["titlemap.datagen", "titlemap.evaluation", "titlemap.graph"]),
        ("eval", ["titlemap.datagen", "titlemap.evaluation", "titlemap.graph"]),
        ("linkpred", [f"titlemap.{name}" for name in (
            "model", "reasoning", "coattention", "datagen", "semantic", "syntactic")]),
    ],
)
def test_stage_loads_no_package_module_it_does_not_run(fixture_dir, stage, absent):
    assert _run_stage(fixture_dir, stage, absent)["imported"] == []


@pytest.mark.parametrize(
    "stage, absent",
    [("train-poincare", ["numpy.ma"]), ("map", ["numpy.ma", "numpy.random"]),
     ("linkpred", ["numpy.ma"])],
)
def test_stage_leaves_unused_numpy_modules_unimported(fixture_dir, stage, absent):
    report = _run_stage(fixture_dir, stage, absent)
    if report["preloaded"]:
        pytest.skip(f"import numpy alone loads {report['preloaded']} (numpy {np.__version__})")
    assert report["imported"] == []


@pytest.mark.parametrize("stage", ["map", "eval", "mobility"])
def test_serving_stage_starts_no_worker_pool(fixture_dir, stage):
    report = _run_stage(fixture_dir, stage, ["concurrent.futures"])
    assert report["preloaded"] == [] and report["imported"] == []


@pytest.mark.parametrize("stage", ["train", "map", "eval", "mobility"])
def test_model_stage_does_not_load_logging(fixture_dir, stage):
    report = _run_stage(fixture_dir, stage, ["logging"])
    assert report["preloaded"] == [] and report["imported"] == []
