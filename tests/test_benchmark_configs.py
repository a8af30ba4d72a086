"""The benchmark (`perfbench/run.py`) writes its own CLI configs. A config
key that the program drops or renames makes every benchmark stage that sets
it exit 2, so each workload's configs are resolved here, the way a stage
resolves its config."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from titlemap.cli import _dataclass_from, resolve_config
from titlemap.config import PoincareConfig, SynthConfig, TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench():
    """`perfbench/run.py` as a module. Importing it pins the BLAS threads in
    the environment and puts `perfbench/` on `sys.path` for its own imports;
    all of that is undone afterwards."""
    env, path, modules = dict(os.environ), list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up here to read its annotations
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        os.environ.clear()
        os.environ.update(env)
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            origin = getattr(sys.modules[name], "__file__", None) or ""
            if name == spec.name or Path(origin).parent == PERFBENCH:
                del sys.modules[name]


def test_every_benchmark_config_resolves(bench, tmp_path):
    assert bench.WORKLOADS
    for workload in bench.WORKLOADS.values():
        for stages in (workload.setup, workload.timed):
            config = resolve_config(
                bench.make_config(workload, 1, tmp_path / "out", tmp_path / "setup", stages)
            )
            _dataclass_from(config, SynthConfig, "datagen", "data")
            _dataclass_from(config, PoincareConfig, "poincare", "poincare")
            _dataclass_from(config, TrainConfig, "train", "train")
