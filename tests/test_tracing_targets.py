"""The benchmark's tracer (`perfbench/tracing.py`) looks every traced name up
in the package by name, so deleting or renaming one makes every traced
benchmark stage fail. This checks that each name still installs and that
`restore` puts every original back."""

import importlib.util
from pathlib import Path

import numpy as np

from titlemap import reasoning as rs
from titlemap.numerics import Tensor

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_installs_and_restores():
    tracing = load_tracing()
    assert tracing.installed_wrappers() == []
    installed = tracing.install(tracing.Recorder("tier-1"))
    try:
        wrapped = set(tracing.installed_wrappers())
    finally:
        tracing.restore(installed)
    assert tracing.installed_wrappers() == []
    for target in tracing.TARGETS:
        assert f"{target.module}.{target.attr}" in wrapped, target


def test_traced_clause_fold_counts_one_step_per_candidate():
    # the fold-step probe reads the candidates from the second positional argument
    tracing = load_tracing()
    recorder = tracing.Recorder("tier-1")
    installed = tracing.install(recorder)
    try:
        params = rs.ReasoningParams.init(3, 4, seed=0)
        rs.clause_representation(Tensor(np.ones((2, 3))), Tensor(np.ones((5, 3))), params, None)
    finally:
        tracing.restore(installed)
    assert recorder.counts["reasoning.clause_representation.fold_steps"] == 5
