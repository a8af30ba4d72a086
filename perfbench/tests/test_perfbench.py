"""Tests of the benchmark itself: statistics, span arithmetic, wrappers, a smoke run.

    python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import stats
import tracing

PERFBENCH = Path(run.__file__).resolve().parent
ROOT = PERFBENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# --- percentile rule ---------------------------------------------------------


@pytest.mark.parametrize("n, pct", [(100, 90.0), (1000, 99.0), (10000, 99.9), (20, 50.0), (40, 75.0)])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, pct):
    values = list(range(1, n + 1))
    got_pct, got_value = stats.tail_percentile(values)
    assert got_pct == pct
    assert sum(v > got_value for v in values) >= 10
    higher = [p for p in stats.TAIL_PERCENTILES if p > pct]
    for p in higher:
        assert sum(v > stats.nearest_rank(values, p) for v in values) < 10


def test_tail_percentile_needs_twenty_samples():
    assert stats.tail_percentile(list(range(19))) is None
    assert "p50" not in stats.timing_summary([1.0] * 19)
    assert stats.timing_summary([1.0] * 19)["n"] == 19


def test_nearest_rank_and_spread():
    assert stats.nearest_rank([5, 1, 3, 2, 4], 50) == 3
    assert stats.nearest_rank([5, 1, 3, 2, 4], 100) == 5
    assert stats.quartile_spread([10.0] * 8) == 0.0


# --- self time ----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root 10s -> a 6s -> b 2s ; root -> leaf aggregated over 3 calls, 1.5s
    spans = [
        [0, "root", "st", None, 0.0, 10.0, 10.0, 1],
        [1, "a", "st", 0, 1.0, 7.0, 6.0, 1],
        [2, "b", "st", 1, 2.0, 4.0, 2.0, 1],
        [3, "leaf", "st", 0, 7.0, 9.5, 1.5, 3],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: pytest.approx(2.5), 1: pytest.approx(4.0), 2: 2.0, 3: 1.5}
    totals = tracing.layer_totals(spans)
    assert totals["leaf"]["calls"] == 3
    assert totals["leaf"]["durations"] == []  # an aggregate is not one call
    assert sum(t["s"] for t in totals.values()) == pytest.approx(10.0)


def test_recorder_aggregates_repeated_calls_under_one_parent():
    rec = tracing.Recorder("st")
    root = rec.open("root")
    for _ in range(5):
        rec.close(rec.open("hot", aggregate=True))
    child = rec.open("child")
    rec.close(rec.open("hot", aggregate=True))
    rec.close(child)
    rec.close(root)
    names = [(s[1], s[3], s[7]) for s in rec.spans]
    assert names == [("root", None, 1), ("hot", 0, 5), ("child", 0, 1), ("hot", 2, 1)]
    total = sum(tracing.self_times(rec.spans).values())
    assert total == pytest.approx(rec.spans[0][6])


# --- metric names ---------------------------------------------------------------


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    assert e2e == list(run.END_TO_END)
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert layers == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    names = [n for n, *_ in run.END_TO_END] + [n for n, *_ in run.PER_LAYER]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum()


def test_every_traced_layer_has_a_target():
    traced = {t.name for t in tracing.TARGETS}
    for name, *_ in run.PER_LAYER:
        layer = name.rpartition(".")[0]
        if layer != "trace" and name != "numerics.tape_nodes":
            assert layer in traced, name


# --- wrappers -------------------------------------------------------------------


def test_wrappers_install_where_callers_look_and_restore():
    import titlemap.model as model
    import titlemap.numerics as nx
    import titlemap.syntactic as syntactic
    from titlemap.poincare import HyperbolicEmbeddingTable

    original = syntactic.syntactic_matrix
    backward = nx.GradTape.__dict__["backward"]
    load_tsv = HyperbolicEmbeddingTable.__dict__["load_tsv"]
    assert tracing.installed_wrappers() == []
    rec = tracing.Recorder("unit")
    installed = tracing.install(rec)
    try:
        assert model.syntactic_matrix is syntactic.syntactic_matrix is not original
        assert nx.GradTape.__dict__["backward"] is not backward
        assert isinstance(HyperbolicEmbeddingTable.__dict__["load_tsv"], classmethod)
        assert "titlemap.model.syntactic_matrix" in tracing.installed_wrappers()
        tax = syntactic.Taxonomy(titles=["data analyst", "chef"])
        out = model.syntactic_matrix(["data analyst", "chef", "chef"], tax)
        assert out.shape == (3, 2)
        with nx.GradTape() as tape:
            loss = nx.tsum(nx.mul(nx.Tensor(np.ones(3), requires_grad=True), nx.Tensor(2.0)))
        tape.backward(loss)
    finally:
        tracing.restore(installed)
    assert tracing.installed_wrappers() == []
    assert model.syntactic_matrix is syntactic.syntactic_matrix is original
    assert nx.GradTape.__dict__["backward"] is backward
    assert HyperbolicEmbeddingTable.__dict__["load_tsv"] is load_tsv
    totals = tracing.layer_totals(rec.spans)
    assert totals["syntactic.syntactic_matrix"]["calls"] == 1
    assert totals["numerics.backward"]["calls"] == 1
    assert rec.counts["syntactic.string_cosine.calls"] == 6
    assert rec.counts["syntactic.syntactic_matrix.rows"] == 3
    assert len(rec.distinct["syntactic.syntactic_matrix"]) == 2
    assert rec.samples["numerics.tape_nodes"] == [2]
    # canonicalize_title is aggregated: one record under syntactic_matrix
    (matrix,) = [s[0] for s in rec.spans if s[1] == "syntactic.syntactic_matrix"]
    canon = [s for s in rec.spans if s[1] == "graph.canonicalize_title" and s[3] == matrix]
    assert len(canon) == 1 and canon[0][7] == 12


def test_install_restores_on_failure():
    bad = tracing.Target("titlemap.graph", "no_such_function", "graph.none", "span")
    with pytest.raises(AttributeError):
        tracing.install(tracing.Recorder("unit"), tracing.TARGETS[:3] + (bad,))
    assert tracing.installed_wrappers() == []


# --- host speed samples ------------------------------------------------------------


def test_sampler_probes_while_the_stage_runs_and_restores_the_handler():
    import signal
    import time

    import stage

    before = signal.getsignal(signal.SIGALRM)
    with stage.Sampler("python") as sampler:
        end = time.perf_counter() + 3 * stage.SAMPLE_INTERVAL_S + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 2
    assert all(s > 0 for s in sampler.samples)
    assert 0 < sampler.spent < 3 * stage.SAMPLE_INTERVAL_S


# --- end to end -------------------------------------------------------------------


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_run_prints_every_metric_and_passes_its_checks():
    proc = _run(ROOT, "--workload", "embed-g200", "--seed", "7", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {n for n, *_ in run.END_TO_END}
    for name, unit, _ in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "fit-g50", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
