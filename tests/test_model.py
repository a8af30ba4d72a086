import io
import json
import logging
import threading

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
    _TrainContext,
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
from titlemap.poincare import HyperbolicEmbeddingTable, PoincareConfig, train_poincare
from titlemap.semantic import HashedNgramProvider
from titlemap.syntactic import Taxonomy

from helpers import desk_serving_world, event_oracle


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
    it is the head's cross-entropy alone; `prepare(model)` sets the weights."""
    d_h, d_b = x_h.shape[1], x_b.shape[1]
    config = small_config(d_h=d_h, d_b=d_b, logic_weight=0.0, clause_weight=0.0)
    model = init_model(taxonomy, config)
    prepare(model)
    rng = np.random.default_rng(0)
    ctx = _TrainContext(fold_rng=rng, reg_rng=rng)
    n_cand = len(taxonomy)
    loss, detail = loss_on_batch(
        model, x_h, x_b, rng.uniform(0, 1, (len(labels), n_cand)), labels,
        Tensor(rng.uniform(-1, 1, (n_cand, d_b))), Tensor(rng.uniform(0, 1, (n_cand, n_cand))),
        ctx,
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
    rng = np.random.default_rng(0)
    ctx = _TrainContext(fold_rng=rng, reg_rng=rng)
    x_h, x_b, x_s = pipeline.title_views([examples[0][0]])
    with pytest.raises(DataError):
        loss_on_batch(model, x_h, x_b, x_s, np.array([len(taxonomy)]),
                      Tensor(pipeline.standard_semantic()),
                      Tensor(pipeline.standard_syntactic()), ctx)


@pytest.mark.parametrize("batch,n_cand", [(3, 5), (4, 2)])
def test_regularizer_batch_rows_are_encoder_events(batch, n_cand):
    """Two sampled-candidate events, then each title and each sampled
    standard title encoded alone with the other event slot zero."""
    params = rs.ReasoningParams.init(6, 4, seed=0)
    rng = np.random.default_rng(1)
    x, v = rng.uniform(-1, 1, (batch, 6)), rng.uniform(-1, 1, (n_cand, 6))
    ctx = _TrainContext(fold_rng=np.random.default_rng(2), reg_rng=np.random.default_rng(3))
    out = _reg_batch(*rs.encode_views(Tensor(x), Tensor(v), params), params, ctx).data
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


def tape_nodes_of_one_step(n_cand, batch=8, d_h=4, d_b=8):
    taxonomy = Taxonomy(titles=[f"title {chr(97 + i // 26)}{chr(97 + i % 26)}"
                                for i in range(n_cand)])
    model = init_model(taxonomy, small_config(d_h=d_h, d_b=d_b))
    rng = np.random.default_rng(0)
    ctx = _TrainContext(fold_rng=np.random.default_rng(1), reg_rng=np.random.default_rng(2))
    with nx.GradTape() as tape:
        loss_on_batch(
            model, rng.uniform(-1, 1, (batch, d_h)), rng.uniform(-1, 1, (batch, d_b)),
            rng.uniform(0, 1, (batch, n_cand)), np.arange(batch) % n_cand,
            Tensor(rng.uniform(-1, 1, (n_cand, d_b))),
            Tensor(rng.uniform(0, 1, (n_cand, n_cand))), ctx,
        )
    return len(tape._nodes)


def test_training_step_tape_is_small_and_independent_of_taxonomy_size():
    # the clause fold and the six regularizers are one tape node each per view
    small, large = tape_nodes_of_one_step(12), tape_nodes_of_one_step(60)
    assert small == large
    assert small < 300


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
        scale = 10.0 ** rng.integers(-300, 300, t.data.shape)
        t.data[...] = rng.standard_normal(t.data.shape) * scale
    edge = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
    model.fusion_w.data.reshape(-1)[: len(edge)] = edge
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    for before, after in zip(model.trainable_tensors(), loaded.trainable_tensors()):
        assert np.array_equal(before.data.view(np.int64), after.data.view(np.int64))


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
    # the BLAS products are not row-independent, so scoring a title alone may
    # differ in its last bits, as in the desk-dimension test below
    alone = np.concatenate([forward_probabilities(result.model, pipeline, [k]) for k in keys])
    assert np.allclose(alone, probs, rtol=1e-12, atol=0)
    assert np.array_equal(rank_classes(alone), rank_classes(probs))


def test_rows_equal_the_distinct_batch_and_agree_with_scoring_alone_at_desk_dims():
    # at d_b 128 and |Y| 50 the BLAS products are not row-independent: a
    # title's row can differ in its last bits from scoring that title alone
    taxonomy, labeled = gen_taxonomy(SynthConfig(groups=50, synonyms=2, seed=3))
    d_h, d_b = 8, 128
    pipeline = FeaturePipeline(
        HyperbolicEmbeddingTable(dim=d_h, seed=0), HashedNgramProvider(dimension=d_b), taxonomy
    )
    model = init_model(taxonomy, TrainConfig(d_h=d_h, d_b=d_b, d_r=16, seed=0))
    raw = [t for t, _ in labeled[:40]]
    titles = [canonicalize_title(t) for t in raw + [t.upper() for t in raw[:10]] + raw[:5]]
    keys = list(dict.fromkeys(titles))
    inverse = [keys.index(t) for t in titles]
    distinct = forward_probabilities(model, pipeline, keys)
    assert np.array_equal(forward_probabilities(model, pipeline, titles), distinct[inverse])
    alone = np.concatenate([forward_probabilities(model, pipeline, [key]) for key in keys])
    assert np.allclose(alone, distinct, rtol=1e-12, atol=0)
    assert np.array_equal(rank_classes(alone), rank_classes(distinct))


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
    # standard views read the taxonomy's own, from which its postings are built
    taxonomy, pipeline, _ = tiny_world()
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


def test_clamp_k_clamps_large_k(caplog):
    with caplog.at_level(logging.WARNING):
        assert clamp_k(60, 6) == 6
    assert any("clamped" in rec.message for rec in caplog.records)


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


def test_forward_probabilities_bytes_do_not_depend_on_the_cpu_count(monkeypatch):
    # on one CPU both folds run on this thread; on two the syntactic fold of
    # each 512-row chunk runs on the worker thread
    model, pipeline, titles = desk_serving_world()
    threads = threading.active_count()
    monkeypatch.setattr(model_module, "_usable_cpus", lambda: 1)
    one_cpu = forward_probabilities(model, pipeline, titles)
    assert threading.active_count() == threads
    monkeypatch.setattr(model_module, "_usable_cpus", lambda: 2)
    two_cpus = forward_probabilities(model, pipeline, titles)
    assert model_module._FOLD_POOL is not None
    assert np.array_equal(one_cpu, two_cpus)
