"""The benchmark's tracer (`perfbench/tracing.py`) looks every traced name up
in the package by name, so deleting or renaming one makes every traced
benchmark stage fail. This checks that each name still installs and that
`restore` puts every original back."""

import importlib.util
import threading
from pathlib import Path

import numpy as np

from titlemap import model as mapper
from titlemap import poincare
from titlemap import reasoning as rs
from titlemap.model import FeaturePipeline, TrainConfig, init_model, loss_on_batch
from titlemap.numerics import Tensor
from titlemap.poincare import PoincareConfig
from titlemap.semantic import HashedNgramProvider
from titlemap.syntactic import Taxonomy

from helpers import balanced_tree_pairs, desk_serving_world, empty_ball_table

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
        pre = rs.encode_views(Tensor(np.ones((2, 3))), Tensor(np.ones((5, 3))), params)
        rs.clause_representation(*pre, params)
    finally:
        tracing.restore(installed)
    assert recorder.counts["reasoning.clause_representation.fold_steps"] == 5


def test_traced_training_step_records_every_reasoning_layer():
    # the benchmark's per-layer reasoning metrics read these spans; a step that
    # stopped calling one of the traced names would read 0 without failing
    taxonomy = Taxonomy(titles=["aa bb", "cc dd", "ee ff", "gg hh", "ii jj"])
    n_cand, d_h, d_b = len(taxonomy), 3, 4
    config = TrainConfig(d_h=d_h, d_b=d_b, d_r=2, batch_size=6, seed=0)
    model = init_model(taxonomy, config)
    rng = np.random.default_rng(0)
    batch = 6
    tracing = load_tracing()
    recorder = tracing.Recorder("tier-1")
    installed = tracing.install(recorder)
    try:
        loss_on_batch(
            model, rng.uniform(-1, 1, (batch, d_h)), rng.uniform(-1, 1, (batch, d_b)),
            rng.uniform(0, 1, (batch, n_cand)), np.arange(batch) % n_cand,
            Tensor(rng.uniform(-1, 1, (n_cand, d_b))), Tensor(rng.uniform(0, 1, (n_cand, n_cand))),
            np.random.default_rng(2),
        )
    finally:
        tracing.restore(installed)
    spans = {record[1] for record in recorder.spans}
    for name in ("correct_events", "clause_representation", "logical_regularizers"):
        assert f"reasoning.{name}" in spans, name
    assert recorder.counts["reasoning.clause_representation.fold_steps"] == 2 * n_cand


def test_traced_serving_counts_input_rows_and_distinct_scored_rows():
    # forward_probabilities' rows probe reads the input keys, while the
    # syntactic view is built once per distinct key plus once for the
    # standard titles, so the view's unique_ratio reads what it names
    taxonomy = Taxonomy(titles=["aa bb", "cc dd", "ee ff", "gg hh", "ii jj"])
    d_h, d_b = 3, 8
    model = init_model(taxonomy, TrainConfig(d_h=d_h, d_b=d_b, d_r=2))
    pipeline = FeaturePipeline(
        empty_ball_table(d_h), HashedNgramProvider(dimension=d_b), taxonomy
    )
    titles = ["aa bb", "aa bb", "cc xx", "aa bb", "zz", "cc xx"]
    tracing = load_tracing()
    recorder = tracing.Recorder("tier-1")
    installed = tracing.install(recorder)
    try:
        # called through the module, where the tracer installs its wrapper
        probs = mapper.forward_probabilities(model, pipeline, titles)
    finally:
        tracing.restore(installed)
    assert probs.shape == (6, len(taxonomy))
    assert recorder.counts["model.forward_probabilities.rows"] == 6
    assert recorder.counts["syntactic.syntactic_matrix.rows"] == 3 + len(taxonomy)


def test_no_traced_name_runs_off_the_calling_thread():
    # the recorder keeps one span stack per process, so a traced call on
    # another thread would interleave with the caller's spans; serving folds
    # both views in turn on the calling thread, and the tracer counts both
    tracing = load_tracing()

    class CallingThreadRecorder(tracing.Recorder):
        def open(self, name, aggregate=False):
            assert threading.current_thread() is threading.main_thread(), name
            return super().open(name, aggregate)

    model, pipeline, titles = desk_serving_world()
    recorder = CallingThreadRecorder("tier-1")
    installed = tracing.install(recorder)
    try:
        mapper.forward_probabilities(model, pipeline, titles)
    finally:
        tracing.restore(installed)
    assert recorder._stack == []
    # two chunks, each tracing both views' folds on this thread
    assert recorder.counts["reasoning.clause_representation.fold_steps"] == 4 * len(model.taxonomy)


def test_traced_poincare_training_counts_every_clamp():
    # the project_to_ball probes count calls through the module global; a step
    # that stopped calling it would read 0 calls without failing
    config = PoincareConfig(epochs=6, lr=500.0, burn_in_epochs=0, seed=2)
    tracing = load_tracing()
    recorder = tracing.Recorder("tier-1")
    installed = tracing.install(recorder)
    try:
        table = poincare.train_poincare(balanced_tree_pairs(), m=4, config=config)
    finally:
        tracing.restore(installed)
    clamped = sum(epoch["clamped_rows"] for epoch in table.history)
    assert clamped > 0
    assert recorder.counts["poincare.project_to_ball.calls"] >= clamped
    assert recorder.counts["poincare.project_to_ball.clamped"] == clamped
    assert "poincare.train_poincare" in {record[1] for record in recorder.spans}
