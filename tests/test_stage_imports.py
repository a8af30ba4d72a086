"""Stages import no numpy submodule they do not use.

`train-poincare` finds its distinct pairs without `np.unique` (which imports
`numpy.ma`), and the serving stages build a loaded model without an
initialization draw (which imports `numpy.random`). Each stage runs in a fresh
interpreter, as on the command line, so an import made anywhere in the stage
shows in `sys.modules` afterwards. numpy 1.x loads its public submodules on
`import numpy` itself, so there a module already loaded before the stage runs
skips the check.
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
    """A tiny trained pipeline: its data, pairs, vectors and model."""
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
            "model": str(out / "model.json"),
            "titles": str(root / "titles.txt"),
        },
    }
    (root / "config.json").write_text(json.dumps(config))
    for stage in ("gen-data", "build-graph", "train-poincare", "train"):
        assert main([stage, "--config", str(root / "config.json")]) == 0
    return root


@pytest.mark.parametrize(
    "stage, absent",
    [("train-poincare", ["numpy.ma"]), ("map", ["numpy.ma", "numpy.random"])],
)
def test_stage_leaves_unused_numpy_modules_unimported(fixture_dir, stage, absent):
    env = {**os.environ, "PYTHONPATH": str(Path(titlemap.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", _STAGE_SCRIPT, ",".join(absent),
         stage, "--config", str(fixture_dir / "config.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    if report["preloaded"]:
        pytest.skip(f"import numpy alone loads {report['preloaded']} (numpy {np.__version__})")
    assert report["status"] == 0
    assert report["imported"] == []
