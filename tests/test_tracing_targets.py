"""The benchmark's tracer (`perfbench/tracing.py`) looks every traced name up
in the package by name, so deleting or renaming one makes every traced
benchmark stage fail. This checks that each name still installs and that
`restore` puts every original back."""

import importlib.util
from pathlib import Path

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
