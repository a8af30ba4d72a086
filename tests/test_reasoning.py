import hashlib
import tracemalloc

import numpy as np
import pytest

from titlemap import numerics as nx
from titlemap import reasoning as rs
from titlemap.errors import ContractError, DegenerateInputError, DimensionError
from titlemap.numerics import Tensor

from helpers import (
    cast_tensors, event_head, event_oracle, finite_difference_check, leaf_gradients, not_op,
    or_op, row_cosine, taped_correct_events, taped_regularizers, taped_truth_loss,
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
    assert or_op(e, e, params).data.shape == (5, D_R)


# The pooled clause composes NOT with the event head's linear layer and OR's
# two halves, so at float64 it rounds differently from the tape-composed
# oracle below; values and gradients must agree within FOLD_RTOL, relative
# to the largest magnitude of the oracle's. Fed the float32 copies of its
# leaves, as the mapper holds them, the clause and its gradients must agree
# within FLOAT32_FOLD_RTOL of the same scale (measured at FOLD_SHAPES: values
# at most 2.7 and gradients at most 14.9 float32 eps).
FOLD_RTOL = 1e-12
FLOAT32_FOLD_RTOL = 16 * np.finfo(np.float32).eps
FOLD_DTYPES = ((np.float64, FOLD_RTOL), (np.float32, FLOAT32_FOLD_RTOL))


def assert_fold_close(actual, expected, name="", rtol=FOLD_RTOL):
    scale = max(np.max(np.abs(expected)), 1e-300)
    assert np.max(np.abs(actual - expected)) <= rtol * scale, name


def cast_leaves(dtype, j, v, params):
    """Copies of a clause's title rows, candidate rows and parameters in
    `dtype`, each requiring a gradient as its original does."""
    return (*(Tensor(t.data.astype(dtype), t.requires_grad) for t in (j, v)),
            cast_tensors(params, dtype))


def fold_of(j, v, params):
    return rs.clause_representation(*rs.encode_views(j, v, params), params)


def unrolled_fold(j, v, params):
    """Tape-composed oracle: one `event_head` (through `taped_correct_events`,
    every row labelled with the candidate) and one `not_op` per candidate,
    then the mean of the literals and `or_op` of the mean with itself."""
    j_pre, v_pre = rs.encode_views(j, v, params)
    n_cand = v.data.shape[0]
    total = None
    for k in range(n_cand):
        labels = np.full(j.data.shape[0], k)
        literal = not_op(taped_correct_events(j_pre, v_pre, labels, params), params)
        total = literal if total is None else total + literal
    pooled = nx.mul(total, Tensor(total.data.dtype.type(1.0 / n_cand)))
    return or_op(pooled, pooled, params)


def test_clause_of_one_candidate_is_or_of_its_negated_event_with_itself(params):
    rng = np.random.default_rng(4)
    j = rand_rows(rng, 3, D_VIEW)
    v = rand_rows(rng, 1, D_VIEW)
    out = fold_of(j, v, params)
    negated = not_op(Tensor(event_oracle(params, j.data, v.data)), params)
    expected = or_op(negated, negated, params)
    assert np.allclose(out.data, expected.data, atol=1e-12)
    assert_fold_close(out.data, unrolled_fold(j, v, params).data)
    narrow = fold_of(*cast_leaves(np.float32, j, v, params))
    assert narrow.data.dtype == np.float32
    assert_fold_close(narrow.data, expected.data, rtol=FLOAT32_FOLD_RTOL)


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
    a = fold_of(j, v, params)
    b = fold_of(j, v, params)
    assert np.array_equal(a.data, b.data)


def test_clause_fold_matches_hand_unrolled_oracle(params):
    rng = np.random.default_rng(6)
    j = rand_rows(rng, 2, D_VIEW)
    v = rand_rows(rng, 3, D_VIEW)
    out = fold_of(j, v, params)

    def literal(k):
        return not_op(Tensor(event_oracle(params, j.data, v.data[k : k + 1])), params).data

    pooled = Tensor((literal(0) + literal(1) + literal(2)) / 3)
    expected = or_op(pooled, pooled, params)
    assert np.allclose(out.data, expected.data, atol=1e-12)
    assert_fold_close(out.data, unrolled_fold(j, v, params).data)
    narrow = fold_of(*cast_leaves(np.float32, j, v, params))
    assert narrow.data.dtype == np.float32
    assert_fold_close(narrow.data, expected.data, rtol=FLOAT32_FOLD_RTOL)


# A permutation of the candidate rows moves the float32 clause only by the
# rounding of its sum: within ORDER_EPS float32 eps of the clause's largest
# magnitude (measured over these ten permutations: at most 1.7 at |Y| = 7
# and 200, and 0 at |Y| = 1).
ORDER_EPS = 4


@pytest.mark.parametrize("n_cand", [1, 7, 200])
def test_clause_is_invariant_to_the_candidate_order(n_cand):
    d_r, batch = 16, 64
    params = cast_tensors(rs.ReasoningParams.init(D_VIEW, d_r, seed=0), np.float32)
    rng = np.random.default_rng(18)
    j = Tensor(rng.uniform(-1, 1, (batch, D_VIEW)).astype(np.float32))
    v = rng.uniform(-1, 1, (n_cand, D_VIEW)).astype(np.float32)
    j_pre, v_pre = rs.encode_views(j, Tensor(v), params)
    clause = rs.clause_representation(j_pre, v_pre, params).data
    bound = ORDER_EPS * np.finfo(np.float32).eps * np.max(np.abs(clause))
    for _ in range(10):
        permuted = Tensor(v_pre.data[rng.permutation(n_cand)])
        moved = rs.clause_representation(j_pre, permuted, params).data
        assert np.max(np.abs(moved - clause)) <= bound


# The clause runs in blocks of candidates whose length falls with the batch;
# at this batch a block is a few candidates, so the shapes below cross block
# boundaries.
BLOCK_BATCH = 384
BLOCK = rs.clause_block_steps(BLOCK_BATCH, 2 * D_R)

# (batch rows, candidates, candidate rows): True a permutation of the drawn
# rows, False the drawn order, REPEATED as many rows as candidates, drawn
# with repeats from the first four, so a candidate recurs within and across
# blocks. The shapes: one candidate, batch 1, candidate counts one below, at
# and one above the block length, more than two blocks with a ragged last
# one, and the README desk shape of a training batch against |Y| = 50.
REPEATED = "repeated"
FOLD_SHAPES = [
    (3, 5, True), (1, 4, True), (3, 1, False), (4, 6, False), (64, 50, True),
    (BLOCK_BATCH, 1, False), (BLOCK_BATCH, BLOCK - 1, True), (BLOCK_BATCH, BLOCK, False),
    (BLOCK_BATCH, BLOCK + 1, True), (BLOCK_BATCH, 2 * BLOCK + 3, True),
    (BLOCK_BATCH, 3 * BLOCK + 1, False), (BLOCK_BATCH, 2 * BLOCK + 3, REPEATED),
]


def test_block_shapes_cross_block_boundaries():
    assert 2 < BLOCK and 3 * BLOCK + 1 < 50
    assert rs.clause_block_steps(10**9, 2 * D_R) == 1


def fold_inputs(batch, n_cand, shuffled, seed, d_r=D_R):
    rng = np.random.default_rng(seed)
    j = Tensor(rng.uniform(-1, 1, (batch, D_VIEW)), requires_grad=True)
    rows = rng.uniform(-1, 1, (n_cand, D_VIEW))
    if shuffled == REPEATED:
        rows = rows[rng.integers(0, min(n_cand, 4), n_cand)]
    elif shuffled:
        rows = rows[rng.permutation(n_cand)]
    weights = Tensor(rng.uniform(-1, 1, (batch, d_r)))
    return j, Tensor(rows, requires_grad=True), weights


@pytest.mark.parametrize("batch,n_cand,shuffled", FOLD_SHAPES)
def test_taped_and_untaped_fold_are_bit_identical(params, batch, n_cand, shuffled):
    j, v, _ = fold_inputs(batch, n_cand, shuffled, seed=12)
    oracle = unrolled_fold(j, v, params).data
    for dtype, rtol in FOLD_DTYPES:
        leaves = cast_leaves(dtype, j, v, params)
        plain = fold_of(*leaves)
        with nx.GradTape():
            taped = fold_of(*leaves)
        assert taped.requires_grad and not plain.requires_grad
        assert taped.data.dtype == dtype
        assert np.array_equal(taped.data, plain.data)
        assert_fold_close(taped.data, oracle, rtol=rtol)


# sha256 of each FOLD_SHAPES case's untaped and taped value and the taped
# call's nine input gradients, recorded from the pooled clause with the
# broadcast hidden layer, `np.add(j, v[s : s + n, None], out=h)`, which the
# row copy and same-shape add match bit for bit. A change that moves these
# bits re-pins them and states its tolerance against the tape-composed
# oracle.
FOLD_DIGESTS = dict(zip(FOLD_SHAPES, [
    "83ec2f4ced222a0eda26d3ec6f22a962b10eb33fcfcaf729ecf506e21462d5e9",
    "f60c1e7447898cf309152aacf2915724c69bdee69f39f9a43428b6ab0755c389",
    "b1371665814e827d9c4958fc548429d078d8886e74f5c5c7d50a96a25090f659",
    "b93d280969dd6ae5e399c5ed9c7862e7e10286905dd76164395d98b2afe0da83",
    "18edd7775e348280e07613e6796604daed0ee3447a5d5f4bb955741f846c5cfa",
    "3683db0488fd9b2ff67cb480a6b3883b179ecdbce84ce2ae0a9213729777d6e3",
    "e1e7bbbc77d943b293cbb36dcd3fad5eeb03373869f2087a1a5703f89d66784a",
    "613be1c1cb60297c9ce2637eaa330ce3f7b40e52f0f4013c5d1678419a77d60c",
    "e4879b798e3072298971fd8dc81ebd8377140d29aaecb907e14b984bd746fee0",
    "1b096219467b9dbeeae43c586efb9d23c1b97c88afcd0cf4dd2140d12340f24e",
    "548fd47ce82d1bca42cb6b524779f4c7758136114684f5a5ef32741e9903abe2",
    "0ae0ad52069e617bd21a07aafe38b906db2049e0e935be2e2c2456cf04bb0058",
]))


def fold_digest(params, batch, n_cand, shuffled, d_r=D_R):
    """sha256 of the untaped and taped clause's value and the taped call's
    nine input gradients, on `fold_inputs(..., seed=14)`."""
    j, v, weights = fold_inputs(batch, n_cand, shuffled, seed=14, d_r=d_r)
    pre = rs.encode_views(j, v, params)
    digest = hashlib.sha256()
    arrays = [t.data for t in pre + rs._clause_weights(params)]
    for taped in (False, True):
        clause, backward = rs._pooled_clause(arrays, taped)
        digest.update(clause.tobytes())
    grads = backward(weights.data)
    assert len(grads) == 9
    for grad in grads:
        digest.update(grad.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("batch,n_cand,shuffled", FOLD_SHAPES)
def test_fold_value_and_backward_equal_the_broadcast_hidden_layer_bit_for_bit(
    params, batch, n_cand, shuffled
):
    assert fold_digest(params, batch, n_cand, shuffled) == FOLD_DIGESTS[batch, n_cand, shuffled]


# The same pins at the README's d_r 16, recorded from the pooled clause that
# composes NOT as `w_not @ w2`. At D_R 8, `(w2.T @ w_not.T).T` rounds like
# that product at every shape above; here it moves every pin below.
WIDE_D_R = 16
WIDE_BLOCK = rs.clause_block_steps(BLOCK_BATCH, 2 * WIDE_D_R)
WIDE_FOLD_SHAPES = [
    (1, 4, True), (64, 50, True), (BLOCK_BATCH, 2 * WIDE_BLOCK + 3, True),
    (BLOCK_BATCH, 2 * WIDE_BLOCK + 3, REPEATED),
]
WIDE_FOLD_DIGESTS = dict(zip(WIDE_FOLD_SHAPES, [
    "e176903452392581052fb6cd312e79a69afcc4d3e0dbaabdbde58393ad55a0a7",
    "c4b0fbc4654c93ec79bf93e9d409b1ee81b870e9c94cad45314a76fb2c676549",
    "c771ac7a1825e0b7b81f8092d79bb192d47f4a8ea5ab61e7a097f2abde01f889",
    "e49775967e10087a5706e123a1737a58814a7eb5de64cbc876d61f56ba17cbfc",
]))


@pytest.mark.parametrize("batch,n_cand,shuffled", WIDE_FOLD_SHAPES)
def test_fold_value_and_backward_are_pinned_at_the_readme_width(batch, n_cand, shuffled):
    assert WIDE_BLOCK < 2 * WIDE_BLOCK + 3 < 50
    params = rs.ReasoningParams.init(D_VIEW, WIDE_D_R, seed=0)
    digest = fold_digest(params, batch, n_cand, shuffled, WIDE_D_R)
    assert digest == WIDE_FOLD_DIGESTS[batch, n_cand, shuffled]


@pytest.mark.parametrize("batch,n_cand,shuffled", FOLD_SHAPES)
def test_float32_fold_agrees_with_the_float64_fold(params, batch, n_cand, shuffled):
    # the literals are tanh of bounded sums and the clause one more tanh, so
    # float32 rounding stays a few ulps of float32 (measured at these shapes:
    # at most 1.0e-7)
    j, v, _ = fold_inputs(batch, n_cand, shuffled, seed=15)
    wide = fold_of(j, v, params)
    narrow = fold_of(*cast_leaves(np.float32, j, v, params))
    assert wide.data.dtype == np.float64
    assert narrow.data.dtype == np.float32 and not narrow.requires_grad
    assert np.allclose(narrow.data, wide.data, rtol=0, atol=16 * np.finfo(np.float32).eps)
    assert not np.array_equal(narrow.data, wide.data)


def test_taped_fold_refuses_mixed_dtypes(params):
    # a float32 projection on a float64 tape: the clause's one node refuses
    # to record
    j, v, _ = fold_inputs(3, 5, True, seed=12)
    with nx.GradTape():
        pre = rs.encode_views(j, v, params)
        narrow = Tensor(pre[0].data.astype(np.float32), requires_grad=True)
        with pytest.raises(ContractError, match="float64 tape cannot record an op over "
                                                "float32, float64"):
            rs.clause_representation(narrow, pre[1], params)
        assert rs.clause_representation(*pre, params).requires_grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_taped_fold_node_keeps_its_inputs_dtype(params, dtype):
    # the clause computes in its inputs' dtype, and its one node's value and
    # nine gradients have it: float32 in the mapper, float64 in the oracles
    j, v, weights = fold_inputs(4, 6, True, seed=12)
    j, v, params = cast_leaves(dtype, j, v, params)
    with nx.GradTape() as tape:
        pre = rs.encode_views(j, v, params)
        out = rs.clause_representation(*pre, params)
    node_out, inputs, backward = tape._nodes[-1]
    assert node_out is out and out.data.dtype == dtype == tape.dtype
    assert inputs == pre + rs._clause_weights(params)
    grads = backward(weights.data.astype(dtype))
    assert len(grads) == 9
    for grad, t in zip(grads, inputs):
        assert grad.dtype == dtype and grad.shape == t.data.shape


def gradients(make_output, j, v, weights, params):
    leaves = {"j": j, "v": v, **{k: t for k, t in nx.tensor_fields(params).items()
                                 if k != "true_anchor"}}
    for t in leaves.values():
        t.grad = None
    with nx.GradTape() as tape:
        loss = nx.tsum(nx.mul(make_output(), weights))
    tape.backward(loss)
    return {k: t.grad for k, t in leaves.items()}


@pytest.mark.parametrize("batch,n_cand,shuffled", FOLD_SHAPES)
def test_fused_fold_gradients_match_tape_unrolled_oracle(params, batch, n_cand, shuffled):
    j, v, weights = fold_inputs(batch, n_cand, shuffled, seed=13)
    oracle = gradients(lambda: unrolled_fold(j, v, params), j, v, weights, params)
    for dtype, rtol in FOLD_DTYPES:
        leaves = cast_leaves(dtype, j, v, params)
        fused = gradients(lambda: fold_of(*leaves), *leaves[:2],
                          Tensor(weights.data.astype(dtype)), leaves[2])
        assert len(fused) == 12
        for name, expected in oracle.items():
            assert fused[name].dtype == dtype, name
            assert_fold_close(fused[name], expected, name, rtol)


def test_untaped_fold_keeps_one_block_not_every_step():
    # serving shape: a 512-row chunk against |Y| = 200 at d_r 16, where a
    # taped call's stash of 3·d_r floats per row per candidate is 39 MB
    d_r, batch, n_cand = 16, 512, 200
    params = rs.ReasoningParams.init(D_VIEW, d_r, seed=0)
    rng = np.random.default_rng(16)
    j_pre, v_pre = rs.encode_views(Tensor(rng.uniform(-1, 1, (batch, D_VIEW))),
                                   Tensor(rng.uniform(-1, 1, (n_cand, D_VIEW))), params)
    # the mapper's float32 clause, and the float64 one of the tests' oracles
    narrow_params = cast_tensors(params, np.float32)
    narrow_pre = (Tensor(t.data.astype(np.float32)) for t in (j_pre, v_pre))
    for inputs in ((j_pre, v_pre, params), (*narrow_pre, narrow_params)):
        tracemalloc.start()
        try:
            rs.clause_representation(*inputs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * rs._CLAUSE_BLOCK_BYTES, inputs[0].data.dtype


def test_fused_fold_gradients_match_finite_differences(params):
    j, v, weights = fold_inputs(2, 4, True, seed=14)
    trainables = [j, v] + [t for k, t in nx.tensor_fields(params).items() if k != "true_anchor"]
    err = finite_difference_check(
        lambda: nx.tsum(nx.mul(fold_of(j, v, params), weights)),
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
    disjunction = or_op(x_prime, e_gold, params).data
    anchor = params.true_anchor.data[0]
    cosines = [
        float(d @ anchor / (np.linalg.norm(d) * np.linalg.norm(anchor)))
        for d in disjunction
    ]
    assert loss.item() == pytest.approx(float(np.mean([1 - c for c in cosines])), abs=1e-12)
    assert 0.0 <= loss.item() <= 2.0


def test_truth_loss_zero_when_disjunction_equals_anchor(params):
    # zero OR weights and a bias of atanh(TRUE) make every disjunction TRUE
    for name in ("or_w_left", "or_w_right"):
        getattr(params, name).data[...] = 0.0
    params.or_b.data[...] = np.arctanh(params.true_anchor.data)
    rows = Tensor(np.random.default_rng(8).uniform(-1, 1, (3, D_R)))
    assert rs.clause_truth_loss(rows, rows, params).item() == pytest.approx(0.0, abs=1e-12)


# (batch rows, candidates, view width) of the per-view training ops: a
# fit-g50 batch against its |Y| = 50 syntactic view, a 512-row chunk against
# |Y| = 200, and a small case
VIEW_SHAPES = [(192, 50, 50), (512, 200, 200), (3, 4, D_VIEW)]


def view_inputs(batch, n_cand, width, dtype, d_r=16, seed=30):
    """A reasoning parameter set and one view's title and candidate rows in
    `dtype`, the rows requiring a gradient, and gold labels."""
    rng = np.random.default_rng(seed)
    params = cast_tensors(rs.ReasoningParams.init(width, d_r, seed=seed), dtype)
    j, v = (Tensor(rng.uniform(-1, 1, shape).astype(dtype), requires_grad=True)
            for shape in ((batch, width), (n_cand, width)))
    return params, j, v, rng.integers(0, n_cand, batch)


def assert_grads_close(grads, expected, rtol=1e-12):
    assert len(grads) == len(expected)
    for grad, want in zip(grads, expected):
        assert grad.dtype == want.dtype
        assert np.max(np.abs(grad - want)) <= rtol * max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_event_rows_equal_the_event_head(dtype):
    # the shared op of the gold events and the regularizer batch: its value
    # is the tape's `event_head` bit for bit, and at float64 its gradients
    # agree within 1e-12 relative
    rng = np.random.default_rng(34)
    params = cast_tensors(rs.ReasoningParams.init(D_VIEW, D_R, seed=34), dtype)
    pre = Tensor(rng.uniform(-2, 2, (9, 2 * D_R)).astype(dtype), requires_grad=True)
    weight = Tensor(rng.uniform(-1, 1, (9, D_R)).astype(dtype))
    leaves = [pre, params.enc_w2, params.enc_b2]
    value, grads = leaf_gradients(
        lambda: rs.event_rows(pre.data, (pre,), lambda g_pre: (g_pre,), params), leaves, weight)
    expected_value, expected = leaf_gradients(lambda: event_head(pre, params), leaves, weight)
    assert value.dtype == dtype and np.array_equal(value, expected_value)
    assert_grads_close(grads, expected, 1e-12 if dtype == np.float64 else 1e-6)


@pytest.mark.parametrize("batch,n_cand,width", VIEW_SHAPES)
def test_float32_correct_events_equal_the_tape_composition_bit_for_bit(batch, n_cand, width):
    params, j, v, labels = view_inputs(batch, n_cand, width, np.float32)
    pre = rs.encode_views(j, v, params)
    plain = rs.correct_events(*pre, labels, params)
    with nx.GradTape() as tape:
        taped = rs.correct_events(*pre, labels, params)
    assert len(tape._nodes) == 1 and taped.requires_grad
    assert plain.data.dtype == np.float32
    assert np.array_equal(plain.data, taped_correct_events(*pre, labels, params).data)
    assert np.array_equal(taped.data, plain.data)


@pytest.mark.parametrize("batch,n_cand,width", VIEW_SHAPES)
def test_correct_events_gradients_match_the_tape_composition(batch, n_cand, width):
    params, j, v, labels = view_inputs(batch, n_cand, width, np.float64)
    leaves = [j, v, params.enc_w1_j, params.enc_w1_v, params.enc_b1, params.enc_w2,
              params.enc_b2]
    weight = Tensor(np.random.default_rng(31).uniform(-1, 1, (batch, 16)))
    value, grads = leaf_gradients(
        lambda: rs.correct_events(*rs.encode_views(j, v, params), labels, params), leaves, weight)
    expected_value, expected = leaf_gradients(
        lambda: taped_correct_events(*rs.encode_views(j, v, params), labels, params),
        leaves, weight)
    assert np.array_equal(value, expected_value)
    assert_grads_close(grads, expected)


TRUTH_PARAMS = ("or_w_left", "or_w_right", "or_b", "true_anchor")


def truth_inputs(batch, dtype, seed=32):
    rng = np.random.default_rng(seed)
    params = cast_tensors(rs.ReasoningParams.init(D_VIEW, 16, seed=seed), dtype)
    x, e = (Tensor(rng.uniform(-1, 1, (batch, 16)).astype(dtype), requires_grad=True)
            for _ in range(2))
    return params, x, e


@pytest.mark.parametrize("batch", [1, 3, 192, 512])
def test_truth_loss_value_and_gradients_match_the_tape_composition(batch):
    # one tape node, within 1e-12 relative of `or_op`, `row_cosine` and a
    # mean composed on the tape (measured: at most 2.5e-15)
    params, x, e = truth_inputs(batch, np.float64)
    leaves = [x, e] + [getattr(params, name) for name in TRUTH_PARAMS]
    with nx.GradTape() as tape:
        rs.clause_truth_loss(x, e, params)
    assert len(tape._nodes) == 1
    value, grads = leaf_gradients(lambda: rs.clause_truth_loss(x, e, params), leaves)
    expected_value, expected = leaf_gradients(lambda: taped_truth_loss(x, e, params), leaves)
    assert value == pytest.approx(expected_value, rel=1e-12, abs=0)
    assert_grads_close(grads, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_taped_and_untaped_truth_loss_are_bit_identical(dtype):
    params, x, e = truth_inputs(192, dtype)
    plain = rs.clause_truth_loss(x, e, params)
    with nx.GradTape():
        taped = rs.clause_truth_loss(x, e, params)
    assert plain.data.dtype == taped.data.dtype == dtype
    assert np.array_equal(plain.data, taped.data)


def test_clipped_truth_cosine_passes_no_gradient(params):
    # a disjunction parallel to TRUE has cosine 1 up to rounding; the clip's
    # strict mask then drops the row, as the tape composition's clip does
    for name in ("or_w_left", "or_w_right"):
        getattr(params, name).data[...] = 0.0
    params.or_b.data[...] = np.arctanh(0.5 * params.true_anchor.data)
    x = Tensor(np.zeros((2, D_R)), requires_grad=True)
    leaves = [x, params.or_b, params.true_anchor]
    _, grads = leaf_gradients(lambda: rs.clause_truth_loss(x, x, params), leaves)
    _, expected = leaf_gradients(lambda: taped_truth_loss(x, x, params), leaves)
    for grad, want in zip(grads, expected):
        assert not np.any(grad) and np.array_equal(grad, want)


def test_truth_loss_gradients_match_finite_differences(params):
    rng = np.random.default_rng(33)
    x, e = (Tensor(rng.uniform(-1, 1, (3, D_R)), requires_grad=True) for _ in range(2))
    trainables = [x, e] + [getattr(params, name) for name in TRUTH_PARAMS]
    err = finite_difference_check(lambda: rs.clause_truth_loss(x, e, params), trainables)
    assert err <= 1e-6


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
        q = row_cosine(batch, not_op(batch, params)).data
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
        return float(np.mean(row_cosine(a, b).data))

    def probes():
        not_not = not_op(not_op(probe_t, params), params)
        false_row = not_op(params.true_anchor, params)
        or_false = or_op(probe_t, Tensor(np.repeat(false_row.data, 16, axis=0)), params)
        return mean_cos(probe_t, not_not), mean_cos(probe_t, or_false)

    before_nn, before_of = probes()
    _, totals = train_regularizers_only(params, steps=300, seed=1)
    after_nn, after_of = probes()
    assert totals[-1] < totals[0]
    assert after_nn > before_nn  # sim(e, NOT(NOT e)) rises
    assert after_of > before_of  # OR(e, FALSE) approaches e
