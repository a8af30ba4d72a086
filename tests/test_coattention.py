import numpy as np
import pytest

from titlemap import coattention as ca
from titlemap import numerics as nx
from titlemap.numerics import Tensor

from helpers import finite_difference_check

D_H, D_B, D_S = 5, 4, 3


@pytest.fixture
def params():
    return ca.CoAttentionParams.init(D_H, D_B, D_S, seed=0)


@pytest.fixture
def views():
    rng = np.random.default_rng(1)
    return (
        Tensor(rng.uniform(-1, 1, (2, D_H))),
        Tensor(rng.uniform(-1, 1, (2, D_B))),
        Tensor(rng.uniform(0, 1, (2, D_S))),
    )


def softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def co_attention_oracle(x_h, x_b, x_s, p):
    """The co-attention formulas in plain numpy: one affinity tanh(xᵀ W y)
    per title and view pair, then per view the key tanh(x W_selfᵀ + Σ (a y)
    W_crossᵀ) over the other two views, and softmax(key) ⊙ x."""
    w = {name: t.data for name, t in nx.tensor_fields(p).items()}

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


def co_attend_keys(views, params, monkeypatch):
    """Each view's attention key, as `co_attend` hands it to the softmax."""
    keys = []
    softmax = nx.softmax

    def recording_softmax(x, axis=-1):
        keys.append(x.data.copy())
        return softmax(x, axis=axis)

    monkeypatch.setattr(nx, "softmax", recording_softmax)
    ca.co_attend(*views, params)
    return keys


def test_co_attend_matches_the_numpy_oracle_in_51_tape_nodes(params, views):
    with nx.GradTape() as tape:
        attended = ca.co_attend(*views, params)
    # three affinities of 4 ops, three views of 13 (a key of 11, softmax, product)
    assert len(tape._nodes) == 51
    expected = co_attention_oracle(*(x.data for x in views), params)
    for x_hat, want in zip(attended, expected):
        assert x_hat.data.dtype == np.float64
        assert np.allclose(x_hat.data, want, rtol=1e-12, atol=0)


def test_zero_semantic_view_kills_hb_affinity(params, views):
    x_h, _, _ = views
    a_hb = ca._bilinear(x_h, params.w_aff_hb, Tensor(np.zeros((2, D_B))))
    assert np.array_equal(a_hb.data, np.zeros((2, 1)))


def test_zero_weight_kills_affinity(params, views):
    x_h, x_b, _ = views
    params.w_aff_hb.data[...] = 0.0
    a_hb = ca._bilinear(x_h, params.w_aff_hb, x_b)
    assert np.array_equal(a_hb.data, np.zeros((2, 1)))


def test_affinity_matches_double_loop_oracle(params, views):
    x_h, x_b, _ = views
    a_hb = ca._bilinear(x_h, params.w_aff_hb, x_b)
    for row in range(2):
        acc = 0.0
        for i in range(D_H):
            for j in range(D_B):
                acc += x_h.data[row, i] * params.w_aff_hb.data[i, j] * x_b.data[row, j]
        assert a_hb.data[row, 0] == pytest.approx(np.tanh(acc), abs=1e-12)
    assert np.all(np.abs(a_hb.data) < 1)


def test_zero_affinities_reduce_keys_to_self_projection(params, views):
    x_h, x_b, x_s = views
    zero = Tensor(np.zeros((2, 1)))
    out = ca._attend(x_h, params.w_self_h, (zero, x_b, params.w_cross_bh),
                     (zero, x_s, params.w_cross_sh))
    expected = softmax_rows(np.tanh(x_h.data @ params.w_self_h.data.T)) * x_h.data
    assert np.allclose(out.data, expected, atol=1e-15)


def test_all_zero_inputs_give_zero_keys(params, monkeypatch):
    zeros = [Tensor(np.zeros((2, d))) for d in (D_H, D_B, D_S)]
    keys = co_attend_keys(zeros, params, monkeypatch)
    assert [key.shape for key in keys] == [(2, D_H), (2, D_B), (2, D_S)]
    for key in keys:
        assert np.array_equal(key, np.zeros_like(key))


def test_keys_stay_strictly_inside_unit_interval(params, views, monkeypatch):
    keys = co_attend_keys(views, params, monkeypatch)
    assert len(keys) == 3
    for key in keys:
        assert np.all(np.abs(key) < 1)


def test_key_gradients_match_finite_differences(params, views):
    x_h, x_b, x_s = views

    def loss():
        x_hat_h, x_hat_b, x_hat_s = ca.co_attend(x_h, x_b, x_s, params)
        return nx.tsum(x_hat_h) + nx.tsum(x_hat_b) + nx.tsum(x_hat_s)

    err = finite_difference_check(loss, list(nx.tensor_fields(params).values()))
    assert err <= 1e-4


def test_apply_with_constant_key_divides_by_dimension():
    # a zero self weight and no cross term make the key tanh(0) = 0 everywhere
    x = Tensor(np.array([[2.0, -4.0, 6.0]]))
    out = ca._attend(x, Tensor(np.zeros((3, 3))))
    assert np.allclose(out.data, x.data / 3, atol=1e-15)


def test_apply_on_singleton_is_identity():
    x = Tensor(np.array([[5.0]]))
    out = ca._attend(x, Tensor(np.array([[-2.0]])))
    assert np.array_equal(out.data, x.data)


def test_apply_weights_sum_to_one_identity():
    rng = np.random.default_rng(2)
    x = Tensor(rng.uniform(0.5, 2.0, (3, 6)))
    cross = (Tensor(rng.uniform(-1, 1, (3, 1))), Tensor(rng.uniform(-1, 1, (3, 4))),
             Tensor(rng.uniform(-1, 1, (6, 4))))
    out = ca._attend(x, Tensor(rng.uniform(-1, 1, (6, 6))), cross)
    ratios = out.data / x.data
    assert np.allclose(ratios.sum(axis=1), 1.0, atol=1e-12)


def test_attended_magnitude_never_exceeds_input(params, views):
    for x_hat, x in zip(ca.co_attend(*views, params), views):
        assert np.all(np.abs(x_hat.data) <= np.abs(x.data) + 1e-15)


def test_zero_cross_weights_degrade_to_solo_attention(params, views):
    x_h, x_b, x_s = views
    for name in ("w_cross_bh", "w_cross_sh", "w_cross_hb", "w_cross_sb", "w_cross_hs", "w_cross_bs"):
        getattr(params, name).data[...] = 0.0
    x_hat_h, _, _ = ca.co_attend(x_h, x_b, x_s, params)
    solo_key = np.tanh(x_h.data @ params.w_self_h.data.T)
    assert np.allclose(x_hat_h.data, softmax_rows(solo_key) * x_h.data, atol=1e-14)
