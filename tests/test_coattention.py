import numpy as np
import pytest

from titlemap import coattention as ca
from titlemap import numerics as nx
from titlemap.errors import DimensionError
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


def test_zero_semantic_view_kills_hb_affinity(params, views):
    x_h, _, x_s = views
    affs = ca.affinities(x_h, Tensor(np.zeros((2, D_B))), x_s, params)
    assert np.array_equal(affs.a_hb.data, np.zeros((2, 1)))


def test_zero_weight_kills_affinity(params, views):
    x_h, x_b, x_s = views
    params.w_aff_hb.data[...] = 0.0
    affs = ca.affinities(x_h, x_b, x_s, params)
    assert np.array_equal(affs.a_hb.data, np.zeros((2, 1)))


def test_affinity_matches_double_loop_oracle(params, views):
    x_h, x_b, x_s = views
    affs = ca.affinities(x_h, x_b, x_s, params)
    for row in range(2):
        acc = 0.0
        for i in range(D_H):
            for j in range(D_B):
                acc += x_h.data[row, i] * params.w_aff_hb.data[i, j] * x_b.data[row, j]
        assert affs.a_hb.data[row, 0] == pytest.approx(np.tanh(acc), abs=1e-12)
    assert np.all(np.abs(affs.a_hb.data) < 1)


def test_zero_affinities_reduce_keys_to_self_projection(params, views):
    x_h, x_b, x_s = views
    zero = ca.Affinities(
        a_hb=Tensor(np.zeros((2, 1))),
        a_hs=Tensor(np.zeros((2, 1))),
        a_bs=Tensor(np.zeros((2, 1))),
    )
    keys = ca.attention_keys(x_h, x_b, x_s, zero, params)
    expected = np.tanh(x_h.data @ params.w_self_h.data.T)
    assert np.allclose(keys.k_h.data, expected, atol=1e-15)


def test_all_zero_inputs_give_zero_keys(params):
    zeros = (Tensor(np.zeros((2, D_H))), Tensor(np.zeros((2, D_B))), Tensor(np.zeros((2, D_S))))
    affs = ca.affinities(*zeros, params)
    keys = ca.attention_keys(*zeros, affs, params)
    for key in keys:
        assert np.array_equal(key.data, np.zeros_like(key.data))


def test_keys_stay_strictly_inside_unit_interval(params, views):
    for key in ca.attention_keys(*views, ca.affinities(*views, params), params):
        assert np.all(np.abs(key.data) < 1)


def test_key_gradients_match_finite_differences(params, views):
    x_h, x_b, x_s = views

    def loss():
        x_hat_h, x_hat_b, x_hat_s = ca.co_attend(x_h, x_b, x_s, params)
        return nx.tsum(x_hat_h) + nx.tsum(x_hat_b) + nx.tsum(x_hat_s)

    err = finite_difference_check(loss, list(nx.tensor_fields(params).values()))
    assert err <= 1e-4


def test_apply_with_constant_key_divides_by_dimension():
    x = Tensor(np.array([[2.0, -4.0, 6.0]]))
    key = Tensor(np.full((1, 3), 0.7))
    out = ca.apply(x, key)
    assert np.allclose(out.data, x.data / 3, atol=1e-15)


def test_apply_on_singleton_is_identity():
    x = Tensor(np.array([[5.0]]))
    out = ca.apply(x, Tensor(np.array([[-2.0]])))
    assert np.array_equal(out.data, x.data)


def test_apply_weights_sum_to_one_identity():
    rng = np.random.default_rng(2)
    x = Tensor(rng.uniform(0.5, 2.0, (3, 6)))
    key = Tensor(rng.uniform(-1, 1, (3, 6)))
    out = ca.apply(x, key)
    ratios = out.data / x.data
    assert np.allclose(ratios.sum(axis=1), 1.0, atol=1e-12)


def test_apply_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        ca.apply(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def test_attended_magnitude_never_exceeds_input(params, views):
    for x_hat, x in zip(ca.co_attend(*views, params), views):
        assert np.all(np.abs(x_hat.data) <= np.abs(x.data) + 1e-15)


def test_zero_cross_weights_degrade_to_solo_attention(params, views):
    x_h, x_b, x_s = views
    for name in ("w_cross_bh", "w_cross_sh", "w_cross_hb", "w_cross_sb", "w_cross_hs", "w_cross_bs"):
        getattr(params, name).data[...] = 0.0
    x_hat_h, _, _ = ca.co_attend(x_h, x_b, x_s, params)
    solo_key = np.tanh(x_h.data @ params.w_self_h.data.T)
    expected = np.exp(solo_key - solo_key.max(axis=1, keepdims=True))
    expected /= expected.sum(axis=1, keepdims=True)
    assert np.allclose(x_hat_h.data, expected * x_h.data, atol=1e-14)
