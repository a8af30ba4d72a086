import numpy as np
import pytest

from titlemap import coattention as ca
from titlemap import numerics as nx
from titlemap.numerics import Tensor

from helpers import cast_tensors, finite_difference_check, leaf_gradients, taped_co_attend

D_H, D_B, D_S = 5, 4, 3


@pytest.fixture
def params():
    return ca.CoAttentionParams.init(D_H, D_B, D_S, seed=0)


@pytest.fixture
def views():
    rng = np.random.default_rng(1)
    return (
        rng.uniform(-1, 1, (2, D_H)),
        rng.uniform(-1, 1, (2, D_B)),
        rng.uniform(0, 1, (2, D_S)),
    )


def softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def weights(params):
    return {name: t.data for name, t in nx.tensor_fields(params).items()}


def split(attended, widths=(D_H, D_B, D_S)):
    """The (x_hat_h, x_hat_b, x_hat_s) blocks of `co_attend`'s one output."""
    return np.split(attended.data, np.cumsum(widths)[:-1], axis=1)


def co_attention_oracle(x_h, x_b, x_s, p):
    """The co-attention formulas in plain numpy: one affinity tanh(xᵀ W y)
    per title and view pair, then per view the key tanh(x W_selfᵀ + Σ (a y)
    W_crossᵀ) over the other two views, and softmax(key) ⊙ x."""
    w = weights(p)

    def affinity(x, w_aff, y):
        return np.tanh(np.einsum("ri,ij,rj->r", x, w_aff, y))[:, None]

    a_hb = affinity(x_h, w["w_aff_hb"], x_b)
    a_hs = affinity(x_h, w["w_aff_hs"], x_s)
    a_bs = affinity(x_b, w["w_aff_bs"], x_s)
    k_h = np.tanh(x_h @ w["w_self_h"].T + (a_hb * x_b) @ w["w_cross_bh"].T
                  + (a_hs * x_s) @ w["w_cross_sh"].T)
    k_b = np.tanh(x_b @ w["w_self_b"].T + (a_hb * x_h) @ w["w_cross_hb"].T
                  + (a_bs * x_s) @ w["w_cross_sb"].T)
    k_s = np.tanh(x_s @ w["w_self_s"].T + (a_hs * x_h) @ w["w_cross_hs"].T
                  + (a_bs * x_b) @ w["w_cross_bs"].T)
    return [softmax_rows(k) * x for k, x in ((k_h, x_h), (k_b, x_b), (k_s, x_s))]


def co_attend_keys(views, params):
    """Each view's attention key, from the function `co_attend` reads them from."""
    return ca._keys(list(views), weights(params))[1]


def test_co_attend_matches_the_numpy_oracle_in_one_tape_node(params, views):
    with nx.GradTape() as tape:
        attended = ca.co_attend(*views, params)
    assert len(tape._nodes) == 1
    expected = co_attention_oracle(*views, params)
    assert attended.data.dtype == np.float64
    for x_hat, want in zip(split(attended), expected):
        assert np.allclose(x_hat, want, rtol=1e-12, atol=0)


def test_zero_semantic_view_kills_hb_affinity(params, views):
    x_h, _, _ = views
    a_hb = ca._affinity(x_h, params.w_aff_hb.data, np.zeros((2, D_B)))
    assert np.array_equal(a_hb, np.zeros((2, 1)))


def test_zero_weight_kills_affinity(params, views):
    x_h, x_b, _ = views
    params.w_aff_hb.data[...] = 0.0
    a_hb = ca._affinity(x_h, params.w_aff_hb.data, x_b)
    assert np.array_equal(a_hb, np.zeros((2, 1)))


def test_affinity_matches_double_loop_oracle(params, views):
    x_h, x_b, _ = views
    a_hb = ca._affinity(x_h, params.w_aff_hb.data, x_b)
    for row in range(2):
        acc = 0.0
        for i in range(D_H):
            for j in range(D_B):
                acc += x_h[row, i] * params.w_aff_hb.data[i, j] * x_b[row, j]
        assert a_hb[row, 0] == pytest.approx(np.tanh(acc), abs=1e-12)
    assert np.all(np.abs(a_hb) < 1)


def test_zero_affinities_reduce_keys_to_self_projection(params, views):
    for name in ("w_aff_hb", "w_aff_hs", "w_aff_bs"):
        getattr(params, name).data[...] = 0.0
    affinities, keys = ca._keys(list(views), weights(params))
    assert all(np.array_equal(a, np.zeros((2, 1))) for a in affinities.values())
    for x, key, x_hat, w_self in zip(views, keys, split(ca.co_attend(*views, params)),
                                     (params.w_self_h, params.w_self_b, params.w_self_s)):
        solo = np.tanh(x @ w_self.data.T)
        assert np.allclose(key, solo, atol=1e-15)
        assert np.allclose(x_hat, softmax_rows(solo) * x, atol=1e-15)


def test_all_zero_inputs_give_zero_keys(params):
    zeros = [np.zeros((2, d)) for d in (D_H, D_B, D_S)]
    keys = co_attend_keys(zeros, params)
    assert [key.shape for key in keys] == [(2, D_H), (2, D_B), (2, D_S)]
    for key in keys:
        assert np.array_equal(key, np.zeros_like(key))


def test_keys_stay_strictly_inside_unit_interval(params, views):
    keys = co_attend_keys(views, params)
    assert len(keys) == 3
    for key in keys:
        assert np.all(np.abs(key) < 1)


def test_key_gradients_match_finite_differences(params, views):
    err = finite_difference_check(
        lambda: nx.tsum(ca.co_attend(*views, params)),
        list(nx.tensor_fields(params).values()),
    )
    assert err <= 1e-4


def test_apply_with_constant_key_divides_by_dimension(params):
    # zero weights make every key tanh(0) = 0, so each view is spread evenly
    for t in nx.tensor_fields(params).values():
        t.data[...] = 0.0
    x = [np.array([[2.0, -4.0, 6.0, 1.0, 3.0][:d]]) for d in (D_H, D_B, D_S)]
    for x_hat, view in zip(split(ca.co_attend(*x, params)), x):
        assert np.allclose(x_hat, view / view.shape[1], atol=1e-15)


def test_apply_on_singleton_is_identity():
    params = ca.CoAttentionParams.init(1, 1, 1, seed=3)
    x = [np.array([[value]]) for value in (5.0, -2.0, 0.5)]
    out = ca.co_attend(*x, params)
    assert np.array_equal(out.data, np.array([[5.0, -2.0, 0.5]]))


def test_apply_weights_sum_to_one_identity(params):
    rng = np.random.default_rng(2)
    x = [rng.uniform(0.5, 2.0, (3, d)) for d in (D_H, D_B, D_S)]
    for x_hat, view in zip(split(ca.co_attend(*x, params)), x):
        assert np.allclose((x_hat / view).sum(axis=1), 1.0, atol=1e-12)


def test_attended_magnitude_never_exceeds_input(params, views):
    for x_hat, x in zip(split(ca.co_attend(*views, params)), views):
        assert np.all(np.abs(x_hat) <= np.abs(x) + 1e-15)


def test_zero_cross_weights_degrade_to_solo_attention(params, views):
    x_h, x_b, x_s = views
    for name in ("w_cross_bh", "w_cross_sh", "w_cross_hb", "w_cross_sb", "w_cross_hs", "w_cross_bs"):
        getattr(params, name).data[...] = 0.0
    x_hat_h, _, _ = split(ca.co_attend(x_h, x_b, x_s, params))
    solo_key = np.tanh(x_h @ params.w_self_h.data.T)
    assert np.allclose(x_hat_h, softmax_rows(solo_key) * x_h, atol=1e-14)


# (batch, d_h, d_b, d_s): the fit-g50 training batch and the serving chunk of
# 512 rows against |Y| = 200, both at the README's d_h and d_b, and the
# fixture's small widths
SHAPES = [(192, 32, 128, 50), (512, 32, 128, 200), (2, D_H, D_B, D_S)]


def shaped_inputs(batch, d_h, d_b, d_s, dtype, seed=4):
    """Co-attention weights and three view arrays in `dtype`, and a weight
    for each output column."""
    rng = np.random.default_rng(seed)
    params = cast_tensors(ca.CoAttentionParams.init(d_h, d_b, d_s, seed=seed), dtype)
    views = [rng.uniform(low, 1, (batch, d)).astype(dtype)
             for low, d in ((-1, d_h), (-1, d_b), (0, d_s))]
    w = Tensor(rng.uniform(-1, 1, (batch, d_h + d_b + d_s)).astype(dtype))
    return params, views, w


@pytest.mark.parametrize("shape", SHAPES)
def test_float32_co_attend_equals_the_tape_composition_bit_for_bit(shape):
    # the forward pass replays the composition's float operations in order,
    # so an existing model serves the same bytes; taped and untaped agree
    params, views, _ = shaped_inputs(*shape, np.float32)
    plain = ca.co_attend(*views, params)
    with nx.GradTape():
        taped = ca.co_attend(*views, params)
    oracle = taped_co_attend(*map(Tensor, views), params)
    assert plain.data.dtype == taped.data.dtype == np.float32
    assert taped.requires_grad and not plain.requires_grad
    assert np.array_equal(plain.data, oracle.data)
    assert np.array_equal(taped.data, plain.data)


@pytest.mark.parametrize("shape", SHAPES)
def test_co_attend_gradients_match_the_tape_composition(shape):
    # every one of the twelve weight gradients within 1e-12 relative to the
    # largest magnitude of the composition's (measured: at most 3e-16)
    params, views, w = shaped_inputs(*shape, np.float64)
    leaves = list(nx.tensor_fields(params).values())
    value, grads = leaf_gradients(lambda: ca.co_attend(*views, params), leaves, w)
    expected_value, expected = leaf_gradients(
        lambda: taped_co_attend(*map(Tensor, views), params), leaves, w)
    assert np.array_equal(value, expected_value)
    assert len(grads) == 12
    for grad, want in zip(grads, expected):
        assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want))


def test_co_attend_node_takes_the_twelve_weights_alone(params, views):
    # the views never learn: a view in the node's inputs could only get a
    # gradient that nothing reads
    with nx.GradTape() as tape:
        ca.co_attend(*views, params)
    (out, inputs, backward), = tape._nodes
    fields = list(nx.tensor_fields(params).values())
    assert len(inputs) == 12 and all(t is w for t, w in zip(inputs, fields))
    grads = backward(np.ones_like(out.data))
    assert [g.shape for g in grads] == [w.data.shape for w in fields]
