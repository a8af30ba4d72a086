import tracemalloc

import numpy as np
import pytest

from titlemap import numerics as nx
from titlemap import reasoning as rs
from titlemap.errors import DegenerateInputError, DimensionError
from titlemap.numerics import Tensor

from helpers import (
    broadcast_clause_fold, event_oracle, finite_difference_check, not_op, taped_regularizers,
)

D_VIEW, D_R = 6, 8


@pytest.fixture
def params():
    return rs.ReasoningParams.init(D_VIEW, D_R, seed=0)


def rand_rows(rng, n, d):
    return Tensor(rng.uniform(-1, 1, (n, d)))


def test_correct_events_are_deterministic(params):
    rng = np.random.default_rng(0)
    j = rand_rows(rng, 3, D_VIEW)
    v = rand_rows(rng, 3, D_VIEW)
    labels = np.array([2, 0, 1])
    first = rs.correct_events(*rs.encode_views(j, v, params), labels, params).data
    again = rs.correct_events(*rs.encode_views(j, v, params), labels, params).data
    assert np.array_equal(first, again)


def test_correct_events_output_dimension(params):
    rng = np.random.default_rng(1)
    j, v = rand_rows(rng, 4, D_VIEW), rand_rows(rng, 4, D_VIEW)
    out = rs.correct_events(*rs.encode_views(j, v, params), np.arange(4), params)
    assert out.data.shape == (4, D_R)


def test_correct_events_reject_wrong_width(params):
    wide, right = Tensor(np.zeros((2, D_VIEW + 1))), Tensor(np.zeros((2, D_VIEW)))
    with pytest.raises(DimensionError):
        rs.encode_views(wide, right, params)
    with pytest.raises(DimensionError):
        rs.encode_views(right, wide, params)


def test_encoder_gradients_match_finite_differences(params):
    rng = np.random.default_rng(2)
    j = rand_rows(rng, 2, D_VIEW)
    v = rand_rows(rng, 3, D_VIEW)
    labels = np.array([2, 0])
    w = Tensor(rng.uniform(-1, 1, (2, D_R)))
    err = finite_difference_check(
        lambda: nx.tsum(nx.mul(
            rs.correct_events(*rs.encode_views(j, v, params), labels, params), w
        )),
        [params.enc_w1_j, params.enc_w1_v, params.enc_b1, params.enc_w2, params.enc_b2],
    )
    assert err <= 1e-4


def test_not_and_or_preserve_shape(params):
    rng = np.random.default_rng(3)
    e = rand_rows(rng, 5, D_R)
    assert not_op(e, params).data.shape == (5, D_R)
    assert rs.or_op(e, e, params).data.shape == (5, D_R)


# The fused fold composes NOT with the event head's linear layer, so it rounds
# differently from the tape-unrolled oracle below; values and gradients must
# agree within this bound, relative to the largest magnitude of the oracle's.
FOLD_RTOL = 1e-12


def assert_fold_close(actual, expected, name=""):
    scale = max(np.max(np.abs(expected)), 1e-300)
    assert np.max(np.abs(actual - expected)) <= FOLD_RTOL * scale, name


def unrolled_fold(j, v, params, order):
    """Tape-unrolled oracle: one not_op/or_op per candidate, each event from
    its own `encode_views` and `correct_events` with every row labelled with
    that candidate."""
    folded = None
    for k in order:
        labels = np.full(j.data.shape[0], k)
        event = rs.correct_events(*rs.encode_views(j, v, params), labels, params)
        negated = not_op(event, params)
        folded = negated if folded is None else rs.or_op(folded, negated, params)
    return folded


def test_clause_single_candidate_is_negated_event(params):
    rng = np.random.default_rng(4)
    j = rand_rows(rng, 3, D_VIEW)
    v = rand_rows(rng, 1, D_VIEW)
    out = rs.clause_representation(*rs.encode_views(j, v, params), params)
    expected = not_op(Tensor(event_oracle(params, j.data, v.data)), params)
    assert np.allclose(out.data, expected.data, atol=1e-12)
    assert_fold_close(out.data, unrolled_fold(j, v, params, [0]).data)


def test_clause_rejects_empty_candidates(params):
    with pytest.raises(DegenerateInputError):
        rs.clause_representation(
            *rs.encode_views(Tensor(np.zeros((2, D_VIEW))), Tensor(np.zeros((0, D_VIEW))), params),
            params,
        )


def test_clause_is_reproducible_for_fixed_order(params):
    rng = np.random.default_rng(5)
    j = rand_rows(rng, 2, D_VIEW)
    v = rand_rows(rng, 4, D_VIEW)
    order = np.array([2, 0, 3, 1])
    a = rs.clause_representation(*rs.encode_views(j, v, params), params, order=order)
    b = rs.clause_representation(*rs.encode_views(j, v, params), params, order=order)
    assert np.array_equal(a.data, b.data)


def test_clause_fold_matches_hand_unrolled_oracle(params):
    rng = np.random.default_rng(6)
    j = rand_rows(rng, 2, D_VIEW)
    v = rand_rows(rng, 3, D_VIEW)
    order = np.array([1, 2, 0])
    out = rs.clause_representation(*rs.encode_views(j, v, params), params, order=order)

    def event(k):
        return Tensor(event_oracle(params, j.data, v.data[k : k + 1]))

    folded = not_op(event(1), params)
    folded = rs.or_op(folded, not_op(event(2), params), params)
    folded = rs.or_op(folded, not_op(event(0), params), params)
    assert np.allclose(out.data, folded.data, atol=1e-12)
    assert_fold_close(out.data, unrolled_fold(j, v, params, order).data)


# The fold runs in blocks of steps whose length falls with the batch; at this
# batch a block is a few steps, so the shapes below cross block boundaries.
BLOCK_BATCH = 384
BLOCK = rs.fold_block_steps(BLOCK_BATCH, 2 * D_R)

# (batch rows, candidates, fold order): True a shuffled order, False the
# natural one, REPEATED as many steps as candidates, drawn with repeats from
# the first four, so a candidate recurs within and across blocks. The
# shapes: one candidate, batch 1, step counts one below, at and one above the
# block length, more than two blocks with a ragged last one, and the README
# desk shape of a training batch against |Y| = 50.
REPEATED = "repeated"
FOLD_SHAPES = [
    (3, 5, True), (1, 4, True), (3, 1, False), (4, 6, False), (64, 50, True),
    (BLOCK_BATCH, 1, False), (BLOCK_BATCH, BLOCK - 1, True), (BLOCK_BATCH, BLOCK, False),
    (BLOCK_BATCH, BLOCK + 1, True), (BLOCK_BATCH, 2 * BLOCK + 3, True),
    (BLOCK_BATCH, 3 * BLOCK + 1, False), (BLOCK_BATCH, 2 * BLOCK + 3, REPEATED),
]


def test_block_shapes_cross_block_boundaries():
    assert 2 < BLOCK and 3 * BLOCK + 1 < 50
    assert rs.fold_block_steps(10**9, 2 * D_R) == 1


def fold_inputs(batch, n_cand, shuffled, seed):
    rng = np.random.default_rng(seed)
    j = Tensor(rng.uniform(-1, 1, (batch, D_VIEW)), requires_grad=True)
    v = Tensor(rng.uniform(-1, 1, (n_cand, D_VIEW)), requires_grad=True)
    if shuffled == REPEATED:
        order = rng.integers(0, min(n_cand, 4), n_cand)
    else:
        order = rng.permutation(n_cand) if shuffled else np.arange(n_cand)
    weights = Tensor(rng.uniform(-1, 1, (batch, D_R)))
    return j, v, order, weights


@pytest.mark.parametrize("batch,n_cand,shuffled", FOLD_SHAPES)
def test_taped_and_untaped_fold_are_bit_identical(params, batch, n_cand, shuffled):
    j, v, order, _ = fold_inputs(batch, n_cand, shuffled, seed=12)
    plain = rs.clause_representation(*rs.encode_views(j, v, params), params, order)
    with nx.GradTape():
        taped = rs.clause_representation(*rs.encode_views(j, v, params), params, order)
    assert taped.requires_grad and not plain.requires_grad
    assert np.array_equal(taped.data, plain.data)
    assert_fold_close(taped.data, unrolled_fold(j, v, params, order).data)


@pytest.mark.parametrize("batch,n_cand,shuffled", FOLD_SHAPES)
def test_fold_value_and_backward_equal_the_broadcast_hidden_layer_bit_for_bit(
    params, batch, n_cand, shuffled
):
    j, v, order, weights = fold_inputs(batch, n_cand, shuffled, seed=14)
    pre = rs.encode_views(j, v, params)
    for taped in (False, True):
        fold, backward = rs._clause_fold(*pre, params, order, taped)
        oracle, oracle_backward = broadcast_clause_fold(*pre, params, order, taped)
        assert fold.tobytes() == oracle.tobytes()
    grads, oracle_grads = backward(weights.data), oracle_backward(weights.data)
    assert len(grads) == len(oracle_grads) == 9
    for grad, expected in zip(grads, oracle_grads):
        assert grad.tobytes() == expected.tobytes()


def gradients(make_output, j, v, weights, params):
    leaves = {"j": j, "v": v, **{k: t for k, t in nx.tensor_fields(params).items()
                                 if k != "true_anchor"}}
    for t in leaves.values():
        t.grad = None
    with nx.GradTape() as tape:
        loss = nx.tsum(nx.mul(make_output(), weights))
    tape.backward(loss)
    # a leaf the oracle's tape never reached (the OR weights at one candidate)
    # has no gradient, which is a zero one
    return {k: np.zeros_like(t.data) if t.grad is None else t.grad for k, t in leaves.items()}


@pytest.mark.parametrize("batch,n_cand,shuffled", FOLD_SHAPES)
def test_fused_fold_gradients_match_tape_unrolled_oracle(params, batch, n_cand, shuffled):
    j, v, order, weights = fold_inputs(batch, n_cand, shuffled, seed=13)
    fused = gradients(
        lambda: rs.clause_representation(*rs.encode_views(j, v, params), params, order),
        j, v, weights, params,
    )
    oracle = gradients(lambda: unrolled_fold(j, v, params, order), j, v, weights, params)
    assert len(fused) == 12
    for name, expected in oracle.items():
        assert_fold_close(fused[name], expected, name)


def test_untaped_fold_keeps_one_block_not_every_step():
    # serving shape: a 512-row chunk against |Y| = 200 at d_r 16, where a
    # taped call's stash of 4·d_r floats per row per step is 52 MB
    d_r, batch, n_cand = 16, 512, 200
    params = rs.ReasoningParams.init(D_VIEW, d_r, seed=0)
    rng = np.random.default_rng(16)
    j_pre, v_pre = rs.encode_views(Tensor(rng.uniform(-1, 1, (batch, D_VIEW))),
                                   Tensor(rng.uniform(-1, 1, (n_cand, D_VIEW))), params)
    tracemalloc.start()
    try:
        rs.clause_representation(j_pre, v_pre, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * rs._FOLD_BLOCK_BYTES


def test_fused_fold_gradients_match_finite_differences(params):
    j, v, order, weights = fold_inputs(2, 4, True, seed=14)
    trainables = [j, v] + [t for k, t in nx.tensor_fields(params).items() if k != "true_anchor"]
    err = finite_difference_check(
        lambda: nx.tsum(nx.mul(
            rs.clause_representation(*rs.encode_views(j, v, params), params, order), weights
        )),
        trainables,
    )
    assert err <= 1e-6


def test_correct_events_pick_label_rows(params):
    rng = np.random.default_rng(7)
    j = rand_rows(rng, 3, D_VIEW)
    v = rand_rows(rng, 4, D_VIEW)
    labels = np.array([2, 0, 3])
    out = rs.correct_events(*rs.encode_views(j, v, params), labels, params)
    assert np.allclose(out.data, event_oracle(params, j.data, v.data[labels]), atol=1e-12)


def test_truth_loss_formula_and_range(params):
    rng = np.random.default_rng(8)
    x_prime = rand_rows(rng, 4, D_R)
    e_gold = rand_rows(rng, 4, D_R)
    loss = rs.clause_truth_loss(x_prime, e_gold, params)
    disjunction = rs.or_op(x_prime, e_gold, params).data
    anchor = params.true_anchor.data[0]
    cosines = [
        float(d @ anchor / (np.linalg.norm(d) * np.linalg.norm(anchor)))
        for d in disjunction
    ]
    assert loss.item() == pytest.approx(float(np.mean([1 - c for c in cosines])), abs=1e-12)
    assert 0.0 <= loss.item() <= 2.0


def test_truth_loss_zero_when_disjunction_equals_anchor(params):
    cos = rs.row_cosine(params.true_anchor, params.true_anchor)
    assert nx.tmean(Tensor(1.0) - cos).item() == pytest.approx(0.0, abs=1e-12)


def test_regularizers_on_empty_batch_are_zero(params):
    regs = rs.logical_regularizers(Tensor(np.zeros((0, D_R))), params)
    for value in regs:
        assert value.item() == 0.0


def test_regularizers_are_non_negative_and_bounded(params):
    rng = np.random.default_rng(9)
    n = 12
    batch = rand_rows(rng, n, D_R)
    regs = rs.logical_regularizers(batch, params)
    for name in ("r1", "r2", "r3", "r4", "r5", "r6"):
        value = getattr(regs, name).item()
        assert -1e-12 <= value <= 2 * n
    assert regs.total.item() >= -1e-12


def test_regularizers_differentiable_end_to_end(params):
    rng = np.random.default_rng(10)
    batch = rand_rows(rng, 3, D_R)
    trainables = [params.not_w, params.not_b, params.or_w_left, params.or_w_right,
                  params.or_b, params.true_anchor]
    err = finite_difference_check(
        lambda: rs.logical_regularizers(batch, params).total, trainables
    )
    assert err <= 1e-4


REG_PARAMS = ("not_w", "not_b", "or_w_left", "or_w_right", "or_b", "true_anchor")

# The fused regularizers sum in another order than the taped composition;
# values and gradients must agree within this bound, relative to the largest
# magnitude of the oracle's values (r1..r6, total) or of each gradient.
REG_RTOL = 1e-12


def assert_reg_close(actual, expected, scale, name):
    assert np.max(np.abs(actual - expected)) <= REG_RTOL * max(scale, 1e-300), name


def regularizer_batch(params, n, case, seed):
    """A (n, d_r) batch; "saturated" zeroes NOT's weight, so NOT x is one
    constant row, and scales that row, so some clipped cosines round to 1."""
    rng = np.random.default_rng(seed)
    if case == "saturated":
        params.not_w.data[...] = 0.0
        rows = np.linspace(0.3, 3.0, n)[:, None] * np.tanh(params.not_b.data)
    else:
        rows = rng.uniform(-1, 1, (n, params.not_w.data.shape[0]))
    return Tensor(rows, requires_grad=True)


def regularizer_gradients(make_regs, batch, params, weight):
    leaves = [batch] + [getattr(params, name) for name in REG_PARAMS]
    for t in leaves:
        t.grad = None
    with nx.GradTape() as tape:
        regs = make_regs(batch, params)
        loss = nx.mul(regs.total, Tensor(weight))
    tape.backward(loss)
    return regs, [t.grad for t in leaves]


@pytest.mark.parametrize("n,case", [(1, "random"), (2, "random"), (7, "random"),
                                    (40, "random"), (12, "saturated"), (626, "training")])
def test_fused_regularizers_match_taped_composition(params, n, case):
    if case == "training":  # the regularizer batch of a fit-g50 training step
        params = rs.ReasoningParams.init(D_VIEW, 16, seed=0)
    batch = regularizer_batch(params, n, case, seed=20 + n)
    fused, fused_grads = regularizer_gradients(rs.logical_regularizers, batch, params, 0.7)
    taped, taped_grads = regularizer_gradients(taped_regularizers, batch, params, 0.7)
    if case == "saturated":  # the clip's strict mask drops some rows, keeps others
        q = rs.row_cosine(batch, not_op(batch, params)).data
        assert np.any(q >= 1.0) and np.any(q < 1.0)
    scale = max(abs(expected.item()) for expected in taped)
    for name, value, expected in zip(rs.RegularizerValues._fields, fused, taped):
        assert_reg_close(value.data, expected.data, scale, name)
    for name, grad, expected in zip(("batch",) + REG_PARAMS, fused_grads, taped_grads):
        assert_reg_close(grad, expected, np.max(np.abs(expected)), name)


def test_fused_regularizers_record_one_tape_node(params):
    batch = Tensor(np.random.default_rng(21).uniform(-1, 1, (5, D_R)), requires_grad=True)
    with nx.GradTape() as tape:
        regs = rs.logical_regularizers(batch, params)
    assert len(tape._nodes) == 1
    assert regs.total.requires_grad
    assert not any(r.requires_grad for r in regs[:6])


def test_regularizer_gradients_match_finite_differences_for_batch_and_params(params):
    batch = Tensor(np.random.default_rng(22).uniform(-1, 1, (3, D_R)), requires_grad=True)
    trainables = [batch] + [getattr(params, name) for name in REG_PARAMS]
    err = finite_difference_check(
        lambda: nx.mul(rs.logical_regularizers(batch, params).total, Tensor(0.7)), trainables
    )
    assert err <= 1e-6


def test_zero_row_makes_regularizer_total_non_finite(params):
    # a zero vector has no cosine; training must see NaN and stop (exit 4)
    rows = np.random.default_rng(23).uniform(-1, 1, (4, D_R))
    rows[2] = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        regs = rs.logical_regularizers(Tensor(rows, requires_grad=True), params)
    assert not np.isfinite(regs.total.item())


def train_regularizers_only(params, steps, seed=0, lr=1e-2, batch_size=64):
    """Minimize the six logical penalties alone on fixed random unit vectors."""
    rng = np.random.default_rng(seed)
    batch_data = rng.standard_normal((batch_size, D_R))
    batch_data /= np.linalg.norm(batch_data, axis=1, keepdims=True)
    batch = Tensor(batch_data)
    trainables = [params.not_w, params.not_b, params.or_w_left, params.or_w_right,
                  params.or_b, params.true_anchor]
    optimizer = nx.Adam(trainables, lr=lr)
    totals = []
    for _ in range(steps):
        with nx.GradTape() as tape:
            regs = rs.logical_regularizers(batch, params)
        totals.append(regs.total.item())
        tape.backward(regs.total)
        optimizer.step()
        params.renormalize_anchor()
    with nx.GradTape():
        totals.append(rs.logical_regularizers(batch, params).total.item())
    return batch, totals


def test_regularizer_training_teaches_double_negation_and_identity(params):
    rng = np.random.default_rng(11)
    probe = rng.standard_normal((16, D_R))
    probe /= np.linalg.norm(probe, axis=1, keepdims=True)
    probe_t = Tensor(probe)

    def mean_cos(a, b):
        return float(np.mean(rs.row_cosine(a, b).data))

    def probes():
        not_not = not_op(not_op(probe_t, params), params)
        false_row = not_op(params.true_anchor, params)
        or_false = rs.or_op(probe_t, Tensor(np.repeat(false_row.data, 16, axis=0)), params)
        return mean_cos(probe_t, not_not), mean_cos(probe_t, or_false)

    before_nn, before_of = probes()
    _, totals = train_regularizers_only(params, steps=300, seed=1)
    after_nn, after_of = probes()
    assert totals[-1] < totals[0]
    assert after_nn > before_nn  # sim(e, NOT(NOT e)) rises
    assert after_of > before_of  # OR(e, FALSE) approaches e
