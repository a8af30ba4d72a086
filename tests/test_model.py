import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from titlemap import model as model_module
from titlemap import numerics as nx
from titlemap import reasoning as rs
from titlemap import syntactic as syntactic_module
from titlemap.datagen import SynthConfig, gen_resumes, gen_taxonomy
from titlemap.errors import ConfigError, DataError, FormatError
from titlemap.graph import canonicalize_title, extract_parent_child_pairs, person_sequences
from titlemap.model import (
    FeaturePipeline,
    MapperModel,
    TrainConfig,
    _reg_batch,
    _tensor_registry,
    _tensor_shapes,
    clamp_k,
    forward_probabilities,
    init_model,
    load_model,
    loss_on_batch,
    rank_classes,
    save_model,
    train,
)
from titlemap.numerics import Tensor
from titlemap.poincare import PoincareConfig, train_poincare
from titlemap.semantic import HashedNgramProvider
from titlemap.syntactic import Taxonomy

from helpers import (
    FLOAT32_PROB_TOL, cast_tensors, desk_serving_world, empty_ball_table, event_oracle,
    finite_difference_check, leaf_gradients, taped_reg_batch,
)


def tiny_world(groups=6, synonyms=3, persons=60, seed=0, d_h=6, d_b=16):
    synth = SynthConfig(groups=groups, synonyms=synonyms, persons=persons,
                        jobs_per_person=4, seed=seed)
    taxonomy, labeled = gen_taxonomy(synth)
    records = gen_resumes(synth, taxonomy, labeled)
    pairs = extract_parent_child_pairs(person_sequences(records))
    table = train_poincare(pairs, m=d_h, config=PoincareConfig(epochs=8, seed=seed))
    pipeline = FeaturePipeline(table, HashedNgramProvider(dimension=d_b, seed=seed), taxonomy)
    examples = labeled + [(t, t) for t in taxonomy.titles]
    return taxonomy, pipeline, examples


def small_config(**kw):
    base = dict(d_h=6, d_b=16, d_r=8, batch_size=32, max_epochs=6, patience=3,
                lr=5e-3, seed=0, fusion_lr_multiplier=5.0)
    base.update(kw)
    return TrainConfig(**base)


def test_split_fractions_must_sum_to_one():
    with pytest.raises(ConfigError):
        TrainConfig(split=(0.5, 0.2, 0.2))


def test_forward_is_a_probability_distribution():
    taxonomy, pipeline, examples = tiny_world()
    model = init_model(taxonomy, small_config())
    probs = forward_probabilities(model, pipeline, [t for t, _ in examples[:7]])
    assert probs.shape == (7, len(taxonomy))
    assert np.all(probs > 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_zero_fusion_weights_give_uniform_distribution():
    taxonomy, pipeline, examples = tiny_world()
    model = init_model(taxonomy, small_config())
    model.fusion_w.data[...] = 0.0
    model.fusion_b.data[...] = 0.0
    probs = forward_probabilities(model, pipeline, [examples[0][0]])
    assert np.allclose(probs, 1.0 / len(taxonomy), atol=1e-12)


def cross_entropy_only(taxonomy, x_h, x_b, labels, prepare):
    """The loss of one batch with the logical and clause weights at zero, so
    it is the head's cross-entropy alone; `prepare(model)` sets the weights.
    The model is cast up to float64, the views' dtype."""
    d_h, d_b = x_h.shape[1], x_b.shape[1]
    config = small_config(d_h=d_h, d_b=d_b, logic_weight=0.0, clause_weight=0.0)
    model = init_model(taxonomy, config)
    prepare(model)
    model = cast_tensors(model, np.float64)
    rng = np.random.default_rng(0)
    n_cand = len(taxonomy)
    loss, detail = loss_on_batch(
        model, x_h, x_b, rng.uniform(0, 1, (len(labels), n_cand)), labels,
        Tensor(rng.uniform(-1, 1, (n_cand, d_b))), Tensor(rng.uniform(0, 1, (n_cand, n_cand))),
        rng,
    )
    assert loss.item() == detail["cross_entropy"].item()
    return loss.item()


def test_uniform_prediction_cross_entropy_is_log_classes():
    taxonomy = Taxonomy(titles=["aa bb", "cc dd", "ee ff", "gg hh"])
    rng = np.random.default_rng(1)

    def zero_head(model):
        model.fusion_w.data[...] = 0.0
        model.fusion_b.data[...] = 0.0

    loss = cross_entropy_only(taxonomy, rng.uniform(-1, 1, (5, 6)), rng.uniform(-1, 1, (5, 16)),
                              np.array([0, 1, 2, 3, 0]), zero_head)
    assert loss == pytest.approx(np.log(4), abs=1e-12)


def test_perfect_prediction_drives_loss_to_zero():
    taxonomy = Taxonomy(titles=["aa bb", "cc dd", "ee ff", "gg hh"])
    d_h, d_b = 6, 8
    x_b = np.zeros((4, d_b))
    x_b[np.arange(4), np.arange(4)] = 1.0

    def aligned_head(model):
        # zero co-attention weights make every key's softmax 1/d_b, so the
        # co-attended semantic block is x_b / d_b; a huge weight on it reads
        # each row's one-hot back as a logit of 60 for its own class
        for t in nx.tensor_fields(model.coatt).values():
            t.data[...] = 0.0
        model.fusion_w.data[...] = 0.0
        model.fusion_w.data[:, d_h : d_h + 4] = 60.0 * d_b * np.eye(4)
        model.fusion_b.data[...] = 0.0

    loss = cross_entropy_only(taxonomy, np.zeros((4, d_h)), x_b, np.arange(4), aligned_head)
    assert loss < 1e-9


def test_label_outside_taxonomy_is_data_error():
    taxonomy, pipeline, examples = tiny_world()
    model = init_model(taxonomy, small_config())
    x_h, x_b, x_s = pipeline.title_views([examples[0][0]])
    with pytest.raises(DataError):
        loss_on_batch(model, x_h, x_b, x_s, np.array([len(taxonomy)]),
                      Tensor(pipeline.standard_semantic()),
                      Tensor(pipeline.standard_syntactic()), np.random.default_rng(0))


@pytest.mark.parametrize("batch,n_cand", [(3, 5), (4, 2)])
def test_regularizer_batch_rows_are_encoder_events(batch, n_cand):
    """Two sampled-candidate events, then each title and each sampled
    standard title encoded alone with the other event slot zero."""
    params = rs.ReasoningParams.init(6, 4, seed=0)
    rng = np.random.default_rng(1)
    x, v = rng.uniform(-1, 1, (batch, 6)), rng.uniform(-1, 1, (n_cand, 6))
    reg_rng = np.random.default_rng(3)
    out = _reg_batch(*rs.encode_views(Tensor(x), Tensor(v), params), params, reg_rng).data
    replay = np.random.default_rng(3)
    k1, k2 = replay.choice(n_cand, size=2, replace=False)
    sample = np.sort(replay.choice(n_cand, size=min(n_cand, batch), replace=False))
    expected = np.concatenate([
        event_oracle(params, x, v[[k1]]),
        event_oracle(params, x, v[[k2]]),
        event_oracle(params, x, np.zeros((1, 6))),
        event_oracle(params, np.zeros((1, 6)), v[sample]),
    ])
    assert out.shape == expected.shape
    assert np.allclose(out, expected, rtol=0, atol=1e-12)


# (batch rows, candidates, view width): a fit-g50 batch against its |Y| = 50
# syntactic view, a 512-row chunk against |Y| = 200, and a small case
REG_BATCH_SHAPES = [(192, 50, 50), (512, 200, 200), (3, 5, 6), (4, 1, 6)]


def reg_batch_inputs(batch, n_cand, width, dtype, seed=5):
    """A d_r 16 reasoning parameter set and one view's title and candidate
    rows in `dtype`, the rows requiring a gradient."""
    rng = np.random.default_rng(seed)
    params = cast_tensors(rs.ReasoningParams.init(width, 16, seed=seed), dtype)
    j, v = (Tensor(rng.uniform(-1, 1, shape).astype(dtype), requires_grad=True)
            for shape in ((batch, width), (n_cand, width)))
    return params, j, v


@pytest.mark.parametrize("batch,n_cand,width", REG_BATCH_SHAPES)
def test_float32_regularizer_batch_equals_the_tape_composition_bit_for_bit(batch, n_cand, width):
    params, j, v = reg_batch_inputs(batch, n_cand, width, np.float32)
    pre = rs.encode_views(j, v, params)
    plain = _reg_batch(*pre, params, np.random.default_rng(6))
    with nx.GradTape() as tape:
        taped = _reg_batch(*pre, params, np.random.default_rng(6))
    assert len(tape._nodes) == 1 and taped.requires_grad
    oracle = taped_reg_batch(*pre, params, np.random.default_rng(6))
    assert plain.data.dtype == np.float32
    assert np.array_equal(plain.data, oracle.data)
    assert np.array_equal(taped.data, plain.data)


@pytest.mark.parametrize("batch,n_cand,width", REG_BATCH_SHAPES)
def test_regularizer_batch_gradients_match_the_tape_composition(batch, n_cand, width):
    # the seven input gradients within 1e-12 relative to the largest
    # magnitude of the composition's (measured: at most 3.3e-16)
    params, j, v = reg_batch_inputs(batch, n_cand, width, np.float64)
    leaves = [j, v, params.enc_w1_j, params.enc_w1_v, params.enc_b1, params.enc_w2,
              params.enc_b2]
    rows = (min(2, n_cand) + 1) * batch + min(n_cand, batch)
    weight = Tensor(np.random.default_rng(8).uniform(-1, 1, (rows, 16)))
    value, grads = leaf_gradients(
        lambda: _reg_batch(*rs.encode_views(j, v, params), params, np.random.default_rng(7)),
        leaves, weight)
    expected_value, expected = leaf_gradients(
        lambda: taped_reg_batch(*rs.encode_views(j, v, params), params, np.random.default_rng(7)),
        leaves, weight)
    assert np.array_equal(value, expected_value)
    for grad, want in zip(grads, expected):
        assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want))


def test_regularizer_batch_gradients_match_finite_differences():
    # two picked candidates and the lone titles (3 rows each), then 3 of the
    # 4 candidates alone
    params, j, v = reg_batch_inputs(3, 4, 5, np.float64)
    weight = Tensor(np.random.default_rng(10).uniform(-1, 1, (3 * 3 + 3, 16)))
    err = finite_difference_check(
        lambda: nx.tsum(nx.mul(_reg_batch(*rs.encode_views(j, v, params), params,
                                          np.random.default_rng(11)), weight)),
        [j, v, params.enc_w1_j, params.enc_w1_v, params.enc_b1, params.enc_w2, params.enc_b2],
    )
    assert err <= 1e-6


def tape_nodes_of_one_step(n_cand, batch=8, d_h=4, d_b=8):
    taxonomy = Taxonomy(titles=[f"title {chr(97 + i // 26)}{chr(97 + i % 26)}"
                                for i in range(n_cand)])
    model = init_model(taxonomy, small_config(d_h=d_h, d_b=d_b))
    rng = np.random.default_rng(0)
    x_h, x_b, x_s, v_b, v_s = (rng.uniform(low, 1, shape).astype(np.float32) for low, shape in (
        (-1, (batch, d_h)), (-1, (batch, d_b)), (0, (batch, n_cand)), (-1, (n_cand, d_b)),
        (0, (n_cand, n_cand))))
    with nx.GradTape() as tape:
        loss_on_batch(model, x_h, x_b, x_s, np.arange(batch) % n_cand, Tensor(v_b), Tensor(v_s),
                      np.random.default_rng(2))
    return len(tape._nodes)


def test_training_step_tape_is_small_and_independent_of_taxonomy_size():
    # co-attention is one tape node; per view the clause, the gold events,
    # the clause-truth loss, the regularizer batch and the six regularizers
    # are one each, so a step records the README's 39 nodes at any |Y|
    assert tape_nodes_of_one_step(12) == tape_nodes_of_one_step(60) == 39


def test_training_loss_decreases_on_separable_data():
    taxonomy, pipeline, examples = tiny_world()
    result = train(examples, pipeline, small_config(max_epochs=5, patience=5))
    losses = [loss for _, loss, _ in result.history]
    assert len(losses) == 5
    assert losses[-1] < losses[0]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_training_is_reproducible_bit_for_bit(tmp_path):
    taxonomy, pipeline, examples = tiny_world()
    config = small_config(max_epochs=3, patience=3)
    paths = []
    for run in range(2):
        result = train(examples, pipeline, config)
        path = tmp_path / f"model{run}.json"
        save_model(result.model, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_patience_zero_stops_one_epoch_past_first_plateau():
    taxonomy, pipeline, examples = tiny_world()
    # lr must be positive; one this small leaves every weight bit-identical,
    # so the metric never improves after the first epoch's value is recorded
    config = small_config(lr=1e-300, max_epochs=50, patience=0)
    result = train(examples, pipeline, config)
    assert result.best_epoch == 0
    assert len(result.history) == 2


def test_empty_split_is_config_error():
    taxonomy, pipeline, examples = tiny_world()
    with pytest.raises(ConfigError):
        train(examples[:3], pipeline, small_config(split=(0.34, 0.33, 0.33)))


def test_dimension_mismatch_with_pipeline_is_config_error():
    taxonomy, pipeline, examples = tiny_world()
    for width, message in (
        ({"d_h": 12}, "hyperbolic table has width 6, but the model's d_h is 12"),
        ({"d_b": 8}, "semantic provider has width 16, but the model's d_b is 8"),
    ):
        with pytest.raises(ConfigError, match=message):
            train(examples, pipeline, small_config(**width))


def test_checkpoint_round_trip_is_bit_identical(tmp_path):
    taxonomy, pipeline, examples = tiny_world()
    result = train(examples, pipeline, small_config(max_epochs=2, patience=2))
    probe_titles = [t for t, _ in examples[:9]]
    before = forward_probabilities(result.model, pipeline, probe_titles)
    path = tmp_path / "model.json"
    save_model(result.model, path)
    loaded = load_model(path)
    after = forward_probabilities(loaded, pipeline, probe_titles)
    assert np.array_equal(before, after)
    assert loaded.taxonomy.titles == taxonomy.titles


def test_train_scores_its_test_rows_as_the_saved_model_serves_them(tmp_path, monkeypatch):
    # `train` and `forward_probabilities` run the same float32 arrays through
    # the same pass, so on the same rows they agree bit for bit
    taxonomy, pipeline, examples = tiny_world()
    scored = []
    probs_from_views = model_module._probs_from_views

    def recorded(*args):
        scored.append(probs_from_views(*args))
        return scored[-1]

    monkeypatch.setattr(model_module, "_probs_from_views", recorded)
    result = train(examples, pipeline, small_config(max_epochs=3, patience=3))
    monkeypatch.undo()
    keys = [examples[i][0] for i in result.split_indices["test"]]
    assert len(set(keys)) == len(keys) > 1
    path = tmp_path / "model.json"
    save_model(result.model, path)
    served = forward_probabilities(load_model(path), pipeline, keys)
    assert served.dtype == scored[-1].dtype == np.float32
    assert np.array_equal(served, scored[-1])


def test_saved_model_bytes_match_the_streaming_encoder(tmp_path):
    taxonomy = Taxonomy(titles=["data analyst", "café owner", "pilot"])
    model = init_model(taxonomy, small_config())
    path = tmp_path / "model.json"
    save_model(model, path)
    written = path.read_bytes()
    oracle = io.StringIO()
    json.dump(json.loads(written), oracle, sort_keys=True)
    assert written == (oracle.getvalue() + "\n").encode("utf-8")


def test_saved_tensors_round_trip_bit_for_bit(tmp_path):
    taxonomy = Taxonomy(titles=["data analyst", "café owner", "pilot"])
    model = init_model(taxonomy, small_config())
    rng = np.random.default_rng(7)
    for t in model.trainable_tensors():
        scale = 10.0 ** rng.integers(-37, 38, t.data.shape)
        t.data[...] = rng.standard_normal(t.data.shape) * scale
    info = np.finfo(np.float32)
    edge = [-0.0, info.smallest_subnormal, info.tiny, info.max, -info.max]
    model.fusion_w.data.reshape(-1)[: len(edge)] = edge
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    for before, after in zip(model.trainable_tensors(), loaded.trainable_tensors()):
        assert before.data.dtype == after.data.dtype == np.float32
        assert np.array_equal(before.data.view(np.int32), after.data.view(np.int32))


def test_tampered_taxonomy_hash_is_rejected(tmp_path):
    taxonomy, pipeline, examples = tiny_world()
    result = train(examples, pipeline, small_config(max_epochs=2, patience=2))
    path = tmp_path / "model.json"
    save_model(result.model, path)
    doc = json.loads(path.read_text())
    doc["taxonomy_titles"][0] = "tampered title"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_model(path)


def test_repeated_taxonomy_title_is_rejected_naming_the_file(tmp_path):
    # the titles are checked before the taxonomy is built from them, so the
    # error names the artifact as every other artifact check does
    taxonomy, pipeline, examples = tiny_world()
    result = train(examples, pipeline, small_config(max_epochs=2, patience=2))
    path = tmp_path / "model.json"
    save_model(result.model, path)
    doc = json.loads(path.read_text())
    doc["taxonomy_titles"][1] = doc["taxonomy_titles"][0]
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as exc:
        load_model(path)
    assert str(exc.value) == (f"{path}: taxonomy title {doc['taxonomy_titles'][0]!r} "
                              "is repeated")


def test_stored_title_that_is_not_its_own_key_is_rejected(tmp_path):
    # the hash holds over the stored titles, so only the key check sees it
    taxonomy, _, _ = tiny_world()
    path = tmp_path / "model.json"
    save_model(init_model(taxonomy, small_config()), path)
    doc = json.loads(path.read_text())
    doc["taxonomy_titles"][0] = "Data Analyst"
    doc["taxonomy_hash"] = Taxonomy(titles=doc["taxonomy_titles"]).version_id
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="'Data Analyst' is not a canonical key"):
        load_model(path)


def test_repeated_and_twin_titles_score_like_each_title_alone():
    taxonomy, pipeline, examples = tiny_world()
    result = train(examples, pipeline, small_config(max_epochs=2, patience=2))
    raw = [t for t, _ in examples[:5]]
    titles = raw + ["Data  Analyst", raw[0], "data analyst", raw[3], "DATA ANALYST", raw[0]]
    keys = [canonicalize_title(t) for t in titles]  # as the readers give them
    probs = forward_probabilities(result.model, pipeline, keys)
    assert probs.shape == (len(titles), len(taxonomy))
    first = {}
    for row, key in enumerate(keys):  # one canonical form, one row, bit for bit
        assert np.array_equal(probs[row], probs[first.setdefault(key, row)])
    assert len(first) == 6
    assert_scored_alone_alike(result.model, pipeline, keys, probs)


def test_rows_equal_the_distinct_batch_and_agree_with_scoring_alone_at_desk_dims():
    # at d_b 128 and |Y| 50 the BLAS products are not row-independent: a
    # title's row can differ in its last bits from scoring that title alone
    taxonomy, labeled = gen_taxonomy(SynthConfig(groups=50, synonyms=2, seed=3))
    d_h, d_b = 8, 128
    pipeline = FeaturePipeline(
        empty_ball_table(d_h), HashedNgramProvider(dimension=d_b), taxonomy
    )
    model = init_model(taxonomy, TrainConfig(d_h=d_h, d_b=d_b, d_r=16, seed=0))
    raw = [t for t, _ in labeled[:40]]
    titles = [canonicalize_title(t) for t in raw + [t.upper() for t in raw[:10]] + raw[:5]]
    keys = list(dict.fromkeys(titles))
    inverse = [keys.index(t) for t in titles]
    distinct = forward_probabilities(model, pipeline, keys)
    assert np.array_equal(forward_probabilities(model, pipeline, titles), distinct[inverse])
    assert_scored_alone_alike(model, pipeline, keys, distinct)


# The float32 serving gate, against the same forward pass run in float64: on
# the model cast up to float64 and the views before their cast. On a fresh
# model (`desk_serving_world`, `g200_serving_world`): every probability
# within FLOAT32_PROB_TOL (1e-6; the largest change seen was 2.2e-7), the
# same top class on every row, and a top-k order that may differ only
# between classes whose float64
# probabilities are less than FLOAT32_RANK_GAP apart (two probabilities that
# each move by the tolerance can trade places). A trained model has larger
# logits, and the head's float32 products move its probabilities more
# (`fit_g50_trained_world`): every probability within
# TRAINED_FLOAT32_PROB_TOL and the same top 10, in order, on every row.
FLOAT32_RANK_GAP = 2 * FLOAT32_PROB_TOL
TRAINED_FLOAT32_PROB_TOL = 2e-6


def float64_probabilities(model, pipeline, keys):
    """The test oracle of `forward_probabilities`: the same pass over `keys`,
    run in float64 on the float32 model cast up and on the float64 views
    that `forward_probabilities` casts to float32."""
    v_b, v_s = Tensor(pipeline.standard_semantic()), Tensor(pipeline.standard_syntactic())
    views = pipeline.title_views(keys)
    wide = cast_tensors(model, np.float64)
    return model_module._probs_from_views(wide, *views, v_b, v_s)


def assert_within_float32_gate(served, oracle, k):
    assert served.shape == oracle.shape
    assert np.abs(served - oracle).max() < FLOAT32_PROB_TOL
    assert np.array_equal(rank_classes(served, 1), rank_classes(oracle, 1))
    # the float64 probabilities in the float32 order: each of the first k may
    # fall short of one ranked below it by less than the gap, never more
    ordered = np.take_along_axis(oracle, rank_classes(served), axis=1)
    below = np.maximum.accumulate(ordered[:, ::-1], axis=1)[:, ::-1]
    k = min(k, oracle.shape[1] - 1)  # the last class has none below it
    assert (ordered[:, :k] > below[:, 1 : k + 1] - FLOAT32_RANK_GAP).all()


def assert_scored_alone_alike(model, pipeline, keys, probs):
    """Each key scored alone agrees with its row of `probs`, the float32
    serving of `keys`: within FLOAT32_PROB_TOL with the same top class.
    The float64 pass, scored alone and together, agrees within 1e-12
    relative with the same order. The BLAS products are not row-independent,
    so scoring a key alone may round its last bits differently."""
    alone = np.concatenate([forward_probabilities(model, pipeline, [k]) for k in keys])
    assert np.abs(alone - probs).max() < FLOAT32_PROB_TOL
    assert np.array_equal(rank_classes(alone, 1), rank_classes(probs, 1))
    wide = float64_probabilities(model, pipeline, keys)
    wide_alone = np.concatenate([float64_probabilities(model, pipeline, [k]) for k in keys])
    assert np.allclose(wide_alone, wide, rtol=1e-12, atol=0)
    assert np.array_equal(rank_classes(wide_alone), rank_classes(wide))


def g200_serving_world():
    """A fresh desk-width model over a generated G=200 taxonomy (1,000
    standard and noisy labelled titles as the keys), with its fusion weights
    scaled up so the top class holds up to about half the mass: a sharper
    head than the fresh near-uniform one, so the clauses' rounding reaches
    the probabilities."""
    taxonomy, labeled = gen_taxonomy(SynthConfig(groups=200, synonyms=5, seed=2))
    config = TrainConfig(d_h=32, d_b=128, d_r=16, seed=0)
    pipeline = FeaturePipeline(
        empty_ball_table(config.d_h), HashedNgramProvider(dimension=config.d_b), taxonomy,
    )
    model = init_model(taxonomy, config)
    model.fusion_w.data *= 300.0
    return model, pipeline, list(dict.fromkeys(canonicalize_title(t) for t, _ in labeled))


@pytest.mark.parametrize("world", [desk_serving_world, g200_serving_world])
def test_float32_serving_is_within_the_gate_of_the_float64_fold(world):
    model, pipeline, keys = world()
    served = forward_probabilities(model, pipeline, keys)
    oracle = float64_probabilities(model, pipeline, keys)
    assert served.dtype == np.float32 and oracle.dtype == np.float64
    assert_within_float32_gate(served, oracle, k=10)


def fit_g50_trained_world(seed=2):
    """A model trained as the benchmark's fit-g50 workload trains it (G=50,
    800 persons, 2 Poincare epochs, 50 training epochs at the README's
    rates), with the hyperbolic table it trains on, and its 300 distinct
    titles as the keys; the table holds 250 of them. Over data and train
    seeds 1-3 the largest probability change of the float32 pass was 6.5e-7,
    7.7e-7 and 1.1e-6, with the same top 10 on every row."""
    synth = SynthConfig(groups=50, synonyms=5, persons=800, seed=seed)
    taxonomy, labeled = gen_taxonomy(synth)
    pairs = extract_parent_child_pairs(person_sequences(gen_resumes(synth, taxonomy, labeled)))
    table = train_poincare(pairs, m=32, config=PoincareConfig(epochs=2, burn_in_epochs=2, seed=seed))
    pipeline = FeaturePipeline(table, HashedNgramProvider(dimension=128), taxonomy)
    examples = [(canonicalize_title(raw), canonicalize_title(std))
                for raw, std in labeled + [(t, t) for t in taxonomy.titles]]
    config = TrainConfig(d_h=32, d_b=128, d_r=16, lr=0.01, fusion_lr_multiplier=10.0,
                         max_epochs=50, patience=50, seed=seed)
    model = train(examples, pipeline, config).model
    return model, pipeline, list(dict.fromkeys(key for key, _ in examples))


def test_float32_serving_of_a_trained_model_keeps_the_top_10():
    model, pipeline, keys = fit_g50_trained_world()
    assert np.count_nonzero(pipeline.hyperbolic.rows(keys) >= 0) == 250
    served = forward_probabilities(model, pipeline, keys)
    oracle = float64_probabilities(model, pipeline, keys)
    assert np.abs(served - oracle).max() < TRAINED_FLOAT32_PROB_TOL
    # the first column is the top class
    assert np.array_equal(rank_classes(served, 10), rank_classes(oracle, 10))


def test_init_model_casts_every_registered_tensor_to_float32():
    # drawn in float64 and cast once, so the random stream is the float64 one
    model, _, _ = desk_serving_world()
    config, d_s = model.config, len(model.taxonomy)
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    shapes = _tensor_shapes(config, d_s)
    wide = {"fusion.w": np.random.default_rng(seeds[0]).uniform(-0.01, 0.01, shapes["fusion.w"]),
            "fusion.b": np.ones(shapes["fusion.b"])}
    for (prefix, _, cls, dims), seed in zip(model_module._PARAM_SETS, seeds[1:]):
        params = cls.init(*dims(config, d_s), seed=seed.generate_state(1)[0])
        wide.update({f"{prefix}.{name}": t.data for name, t in nx.tensor_fields(params).items()})
    narrow = _tensor_registry(model)
    assert sorted(narrow) == sorted(wide)
    for name, t in narrow.items():
        assert t.data.dtype == np.float32 and t.requires_grad, name
        assert np.array_equal(t.data, wide[name].astype(np.float32)), name


def test_training_step_stays_float32_end_to_end():
    # the counterpart of serving's check below: every tape node, every leaf
    # gradient and Adam's moments are float32
    taxonomy, pipeline, examples = tiny_world()
    model = init_model(taxonomy, small_config())
    x_h, x_b, x_s, v_b, v_s = model_module._float32_views(pipeline, [t for t, _ in examples[:8]])
    labels = np.array([taxonomy.index(std) for _, std in examples[:8]])
    optimizer = nx.Adam(model.trainable_tensors(), lr=1e-3)
    with nx.GradTape() as tape:
        loss, _ = loss_on_batch(model, x_h, x_b, x_s, labels, v_b, v_s, np.random.default_rng(2))
    assert tape.dtype == np.float32 and loss.data.dtype == np.float32
    for out, inputs, _ in tape._nodes:
        assert all(t.data.dtype == np.float32 for t in (out, *inputs))
    tape.backward(loss)
    optimizer.step()
    for name, t in _tensor_registry(model).items():
        assert t.grad.dtype == t.data.dtype == np.float32, name
    assert all(m.dtype == v.dtype == np.float32 for m, v in zip(optimizer._m, optimizer._v))


def test_serving_forward_stays_float32_end_to_end(monkeypatch):
    # one float64 array or numpy scalar left in the pass would promote the
    # rest of it to float64 without an error
    model, pipeline, titles = desk_serving_world(n_titles=20)
    seen = []

    def recorded(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            seen.append((name, out))
            return out

        monkeypatch.setattr(module, name, wrapper)

    recorded(model_module.ca, "co_attend")
    recorded(model_module.rs, "clause_representation")
    forward_probabilities(model, pipeline, titles)
    assert [name for name, _ in seen] == ["co_attend"] + ["clause_representation"] * 2
    assert seen[0][1].data.dtype == np.float32
    assert all(out.data.dtype == np.float32 for _, out in seen[1:])
    logits, _, _ = model_module._forward(model, *model_module._float32_views(pipeline, titles))
    assert logits.data.dtype == np.float32


def test_serving_hands_its_float32_arrays_to_the_fold_without_a_copy(monkeypatch):
    # the clause computes on the projections and the model's own clause
    # weights, all float32, without a copy
    model, pipeline, titles = desk_serving_world(n_titles=20)
    calls, pooled = [], []
    original, original_pooled = rs.clause_representation, rs._pooled_clause

    def clause(j_pre, v_pre, params):
        calls.append((j_pre, v_pre) + rs._clause_weights(params))
        return original(j_pre, v_pre, params)

    def pooled_clause(arrays, taped):
        pooled.append(arrays)
        return original_pooled(arrays, taped)

    monkeypatch.setattr(model_module.rs, "clause_representation", clause)
    monkeypatch.setattr(rs, "_pooled_clause", pooled_clause)
    forward_probabilities(model, pipeline, titles)
    assert len(calls) == len(pooled) == 2
    for inputs, arrays in zip(calls, pooled):
        assert len(arrays) == len(inputs) == 9
        for t, array in zip(inputs, arrays):
            assert array.dtype == np.float32 and np.shares_memory(array, t.data)


def test_each_distinct_canonical_title_is_embedded_and_scored_once(monkeypatch):
    taxonomy, pipeline, examples = tiny_world()
    model = init_model(taxonomy, small_config())
    # fill the standard-title caches first, so only the input titles are counted
    pipeline.standard_semantic()
    pipeline.standard_syntactic()
    scored, embedded = [], []
    matrix, embed_batch = model_module.syntactic_matrix, pipeline.semantic.embed_batch

    def counted_matrix(titles, tax, grams=None):
        scored.extend(titles)
        return matrix(titles, tax, grams)

    def counted_embed_batch(titles, grams=None):
        embedded.extend(titles)
        return embed_batch(titles, grams)

    monkeypatch.setattr(model_module, "syntactic_matrix", counted_matrix)
    monkeypatch.setattr(pipeline.semantic, "embed_batch", counted_embed_batch)
    keys = ["data analyst", "pilot", "data analyst", "pilot", "data analyst", "chef", "pilot"]
    forward_probabilities(model, pipeline, keys)
    assert scored == ["data analyst", "pilot", "chef"]
    assert embedded == ["data analyst", "pilot", "chef"]


def test_forward_numbers_each_batch_once_and_indexes_the_taxonomy_once(monkeypatch):
    # both string views of a batch read one numbering of its 3-grams, and the
    # standard views read the taxonomy's own, from which its postings are built;
    # `gen_taxonomy` has indexed its taxonomy already, so the pipeline serves
    # a fresh one of the same titles
    generated, pipeline, _ = tiny_world()
    taxonomy = Taxonomy(titles=generated.titles, groups=generated.groups)
    pipeline = FeaturePipeline(pipeline.hyperbolic, pipeline.semantic, taxonomy)
    model = init_model(taxonomy, small_config())
    numbered, indexed = [], []
    number_init = syntactic_module.GramNumbering.__init__
    index_init = syntactic_module.GramIndex.__init__

    def counted_numbering(self, titles):
        numbered.append(list(titles))
        number_init(self, titles)

    def counted_index(self, standards):
        indexed.append(standards)
        index_init(self, standards)

    monkeypatch.setattr(syntactic_module.GramNumbering, "__init__", counted_numbering)
    monkeypatch.setattr(syntactic_module.GramIndex, "__init__", counted_index)
    keys = ["data analyst", "pilot", "data analyst", "chef"]
    forward_probabilities(model, pipeline, keys)
    assert numbered == [taxonomy.titles, ["data analyst", "pilot", "chef"]]
    assert indexed == [taxonomy.gram_index.standards]
    forward_probabilities(model, pipeline, ["pilot"])
    assert numbered[2:] == [["pilot"]] and len(indexed) == 1


def test_rank_classes_full_permutation_and_determinism():
    taxonomy, pipeline, examples = tiny_world()
    model = init_model(taxonomy, small_config())
    probs = forward_probabilities(model, pipeline, [examples[0][0]])
    order = rank_classes(probs)[0]
    assert sorted(order) == list(range(len(taxonomy)))
    assert list(probs[0, order]) == sorted(probs[0], reverse=True)
    again = rank_classes(forward_probabilities(model, pipeline, [examples[0][0]]))[0]
    assert np.array_equal(again, order)


def test_rank_classes_breaks_ties_on_lower_taxonomy_index():
    probs = np.array([[0.1, 0.3, 0.3, 0.2, 0.1], [0.2, 0.2, 0.2, 0.2, 0.2]])
    assert rank_classes(probs).tolist() == [[1, 2, 3, 0, 4], [0, 1, 2, 3, 4]]


# few distinct values, so most rows tie at, above and below their k-th value
_TIED_PROBS = st.integers(1, 12).flatmap(lambda n_classes: st.lists(
    st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5]) | st.floats(0, 1), min_size=n_classes,
             max_size=n_classes),
    max_size=6,
).map(lambda rows: np.array(rows, dtype=float).reshape(len(rows), n_classes)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_TIED_PROBS)
@example(np.zeros((3, 7)))
@example(np.full((2, 5), 0.2))
@example(np.array([[0.1, 0.3, 0.3, 0.2, 0.1, 0.3], [0.5, 0.1, 0.1, 0.1, 0.1, 0.1]]))
def test_rank_classes_top_k_is_the_prefix_of_the_full_order(probs):
    n_classes = probs.shape[1]
    full = rank_classes(probs)
    oracle = [sorted(range(n_classes), key=lambda j: (-row[j], j)) for row in probs]
    assert full.tolist() == oracle
    for k in range(1, n_classes + 1):
        top = rank_classes(probs, k)
        assert top.shape == (probs.shape[0], k)
        assert np.array_equal(top, full[:, :k])


def test_clamp_k_clamps_large_k(capsys):
    assert clamp_k(60, 6) == 6
    assert capsys.readouterr().err == "k=60 clamped to taxonomy size 6\n"


def test_out_of_graph_title_gets_zero_topological_view():
    taxonomy, pipeline, examples = tiny_world()
    x_h, _, _ = pipeline.title_views(["definitely unseen title xyz"])
    assert np.array_equal(x_h, np.zeros((1, 6)))


def test_tensor_shapes_match_the_built_model():
    taxonomy = Taxonomy(titles=["data analyst", "chef", "pilot"])
    config = small_config(d_h=5, d_b=7, d_r=3)
    model = init_model(taxonomy, config)
    built = {name: t.data.shape for name, t in _tensor_registry(model).items()}
    assert _tensor_shapes(config, 3) == built
    assert list(_tensor_shapes(config, 3)) == list(built)
