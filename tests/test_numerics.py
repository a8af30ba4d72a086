import numpy as np
import pytest

from titlemap import numerics as nx
from titlemap.errors import ContractError, DimensionError
from titlemap.numerics import Tensor
from titlemap.reasoning import row_cosine

from helpers import finite_difference_check, rel_err, scalar_adam_reference


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = nx.matmul(Tensor(np.eye(2)), a)
    assert np.array_equal(out.data, a.data)


def test_matmul_orthogonal_rows():
    out = nx.matmul(Tensor([[1.0, 0.0]]), Tensor([[0.0], [1.0]]))
    assert np.array_equal(out.data, [[0.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        nx.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))))
    assert "(3, 4)" in str(exc.value)


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (3, 2)))
    err = finite_difference_check(lambda: nx.tsum(nx.mul(nx.matmul(a, b), w)), [a, b])
    assert err <= 1e-4


def test_tanh_at_origin():
    x = Tensor(np.zeros(1), requires_grad=True)
    with nx.GradTape() as tape:
        out = nx.tsum(nx.tanh(x))
    tape.backward(out)
    assert out.item() == 0.0
    assert x.grad[0] == 1.0


def test_relu_dead_region():
    x = Tensor([-3.0], requires_grad=True)
    with nx.GradTape() as tape:
        out = nx.tsum(nx.relu(x))
    tape.backward(out)
    assert out.item() == 0.0
    assert x.grad[0] == 0.0


def test_elementwise_mul_gradient():
    rng = np.random.default_rng(1)
    a = Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
    err = finite_difference_check(lambda: nx.tsum(nx.mul(a, b)), [a, b])
    assert err <= 1e-4


def test_elementwise_shape_error():
    with pytest.raises(DimensionError):
        nx.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def test_concat_off_axis_shape_error():
    with pytest.raises(DimensionError):
        nx.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)


def test_softmax_symmetry():
    out = nx.softmax(Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=0)


def test_softmax_large_inputs_stable():
    out = nx.softmax(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] > 1 - 1e-12
    assert out.data[1] < 1e-12


def test_softmax_against_high_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    xs = [1.0, 2.0, 3.0]
    es = [mp.e ** mp.mpf(x) for x in xs]
    total = sum(es)
    expected = [float(e / total) for e in es]
    out = nx.softmax(Tensor(xs))
    assert np.max(np.abs(out.data - expected)) <= 1e-12


def test_softmax_sums_to_one_and_is_permutation_equivariant():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-5, 5, 7)
        out = nx.softmax(Tensor(x)).data
        assert abs(out.sum() - 1.0) <= 1e-12
        perm = rng.permutation(7)
        # fp summation order differs under permutation; equality holds to an ulp
        assert np.max(np.abs(nx.softmax(Tensor(x[perm])).data - out[perm])) <= 1e-15


def test_softmax_empty_is_dimension_error():
    with pytest.raises(DimensionError):
        nx.softmax(Tensor(np.zeros(0)))


def test_cosine_self_similarity():
    v = Tensor([[0.3, -1.2, 0.7]])
    assert row_cosine(v, v).data[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert row_cosine(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]])).data[0, 0] == 0.0


def test_cosine_worked_example():
    # (1,2).(2,1) = 4, norms sqrt(5) each -> 4/5; the one-row b broadcasts
    out = row_cosine(Tensor([[1.0, 2.0], [2.0, 1.0]]), Tensor([[2.0, 1.0]]))
    assert out.data[:, 0] == pytest.approx([0.8, 1.0], abs=1e-15)


def test_backward_of_sum_is_ones():
    x = Tensor(np.arange(4.0), requires_grad=True)
    with nx.GradTape() as tape:
        loss = nx.tsum(x)
    tape.backward(loss)
    assert np.array_equal(x.grad, np.ones(4))


def test_backward_of_constant_is_zero():
    x = Tensor(np.arange(3.0), requires_grad=True)
    with nx.GradTape() as tape:
        loss = nx.tsum(nx.mul(x, Tensor(np.zeros(3))))
    tape.backward(loss)
    assert np.array_equal(x.grad, np.zeros(3))


def test_products_skip_the_gradient_of_a_constant_operand():
    rng = np.random.default_rng(4)
    x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    c = Tensor(rng.uniform(-1, 1, (4, 2)))
    d = Tensor(rng.uniform(-1, 1, (3, 2)))
    with nx.GradTape() as tape:
        prod = nx.matmul(x, c)
        loss = nx.tsum(nx.mul(d, prod))
    g = rng.uniform(-1, 1, (3, 2))
    (_, _, matmul_backward), (_, _, mul_backward), _ = tape._nodes
    g_x, g_c = matmul_backward(g)
    g_d, g_prod = mul_backward(g)
    assert g_c is None and g_d is None
    assert np.array_equal(g_x, g @ c.data.T)
    assert np.array_equal(g_prod, g * d.data)
    tape.backward(loss)
    assert np.array_equal(x.grad, d.data @ c.data.T)
    assert c.grad is None and d.grad is None


def test_backward_rejects_non_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with nx.GradTape() as tape:
        y = nx.mul(x, x)
    with pytest.raises(ContractError):
        tape.backward(y)


def test_tensor_keeps_float32_and_casts_anything_else_to_float64():
    assert Tensor(np.ones(2, np.float32)).data.dtype == np.float32
    for data in (1, 1.0, [1, 2], np.ones(2, np.float16), np.ones(2, bool)):
        assert Tensor(data).data.dtype == np.float64


def test_a_float32_tape_records_float32_ops_and_gives_float32_gradients():
    w = Tensor(np.full((2, 2), 0.5, np.float32), requires_grad=True)
    x = Tensor(np.ones((3, 2), np.float32))
    with nx.GradTape() as tape:
        loss = nx.tmean(nx.tanh(nx.matmul(x, w)))
    assert tape.dtype == np.float32
    assert all(out.data.dtype == np.float32 for out, _, _ in tape._nodes)
    tape.backward(loss)
    assert w.grad.dtype == np.float32


def test_a_float64_constant_on_a_float32_tape_raises():
    # numpy promotes a float32 array that meets a 0-d float64 array to float64
    w = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
    with nx.GradTape() as tape:
        narrow = nx.tanh(w)
        with pytest.raises(ContractError, match="float32 tape cannot record an op over "
                                                "float32, float64"):
            nx.mul(narrow, Tensor(2.0))
        nx.mul(narrow, Tensor(np.float32(2.0)))
    assert len(tape._nodes) == 2
    # the first node fixes the tape's dtype, even for an op all of one dtype
    with nx.GradTape():
        nx.tanh(w)
        with pytest.raises(ContractError, match="float32 tape cannot record an op over float64"):
            nx.tanh(Tensor(np.ones(2), requires_grad=True))
    # off the tape the same op computes in the dtype numpy gives it
    assert nx.mul(w, Tensor(2.0)).data.dtype == np.float64
    assert nx.matmul(w, w).data.dtype == np.float32


def test_a_float64_tape_still_records_for_the_oracles():
    w = Tensor(np.full((2, 2), 0.5), requires_grad=True)
    with nx.GradTape() as tape:
        loss = nx.tmean(nx.tanh(w))
    assert tape.dtype == np.float64
    tape.backward(loss)
    assert w.grad.dtype == np.float64
    assert np.allclose(w.grad, (1 - np.tanh(0.5) ** 2) * 0.25, rtol=1e-15)


def test_a_fused_backward_returning_another_dtype_raises():
    w = Tensor(np.ones(3, np.float32), requires_grad=True)
    with nx.GradTape() as tape:
        loss = nx.tsum(nx.fused_op(2 * w.data, [w], lambda g: (2 * g.astype(np.float64),)))
    with pytest.raises(ContractError, match="float64 gradient on a float32 tape"):
        tape.backward(loss)


def test_gradients_accumulate_on_node_reuse():
    x = Tensor([2.0], requires_grad=True)
    with nx.GradTape() as tape:
        loss = nx.tsum(nx.add(nx.mul(x, x), x))  # x^2 + x -> 2x + 1 = 5
    tape.backward(loss)
    assert x.grad[0] == pytest.approx(5.0, abs=1e-12)


def test_operations_are_deterministic():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, (6, 6))
    first = nx.tanh(nx.matmul(Tensor(a), Tensor(a))).data
    second = nx.tanh(nx.matmul(Tensor(a), Tensor(a))).data
    assert np.array_equal(first, second)


@pytest.mark.parametrize(
    "name",
    ["add", "sub", "mul", "div", "tanh", "relu", "sqrt",
     "softmax", "log_softmax", "sum", "mean", "concat", "transpose",
     "take_rows", "gather_rows", "clip", "cosine"],
)
def test_every_op_gradient_matches_finite_differences(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (3, 4)))
    pos = Tensor(rng.uniform(0.5, 1.5, (3, 4)), requires_grad=True)

    if name == "add":
        fn, params = lambda: nx.tsum(nx.mul(nx.add(a, b), w)), [a, b]
    elif name == "sub":
        fn, params = lambda: nx.tsum(nx.mul(nx.sub(a, b), w)), [a, b]
    elif name == "mul":
        fn, params = lambda: nx.tsum(nx.mul(nx.mul(a, b), w)), [a, b]
    elif name == "div":
        fn, params = lambda: nx.tsum(nx.mul(nx.div(a, pos), w)), [a, pos]
    elif name == "tanh":
        fn, params = lambda: nx.tsum(nx.mul(nx.tanh(a), w)), [a]
    elif name == "relu":
        fn, params = lambda: nx.tsum(nx.mul(nx.relu(a), w)), [a]
    elif name == "sqrt":
        fn, params = lambda: nx.tsum(nx.mul(nx.sqrt(pos), w)), [pos]
    elif name == "softmax":
        fn, params = lambda: nx.tsum(nx.mul(nx.softmax(a, axis=-1), w)), [a]
    elif name == "log_softmax":
        fn, params = lambda: nx.tsum(nx.mul(nx.log_softmax(a, axis=-1), w)), [a]
    elif name == "sum":
        fn, params = lambda: nx.tsum(nx.mul(nx.tsum(a, axis=1, keepdims=True), Tensor(np.ones((3, 1))))), [a]
    elif name == "mean":
        fn, params = lambda: nx.tmean(nx.mul(a, w)), [a]
    elif name == "concat":
        fn, params = lambda: nx.tsum(nx.mul(nx.concat([a, b], axis=1), Tensor(np.ones((3, 8))))), [a, b]
    elif name == "transpose":
        fn, params = lambda: nx.tsum(nx.mul(nx.transpose(a), nx.transpose(w))), [a]
    elif name == "take_rows":
        idx = np.array([0, 2, 2, 1])
        ww = Tensor(rng.uniform(-1, 1, (4, 4)))
        fn, params = lambda: nx.tsum(nx.mul(nx.take_rows(a, idx), ww)), [a]
    elif name == "gather_rows":
        cols = np.array([0, 3, 1])
        fn, params = lambda: nx.tsum(nx.gather_rows(a, cols)), [a]
    elif name == "clip":
        fn, params = lambda: nx.tsum(nx.mul(nx.clip(a, -0.5, 0.5), w)), [a]
    else:  # cosine
        fn, params = lambda: nx.tsum(nx.mul(row_cosine(a, b), Tensor(w.data[:, :1]))), [a, b]

    assert finite_difference_check(fn, params) <= 1e-4


def test_adam_zero_gradient_leaves_params_unchanged():
    p = Tensor([1.0, -2.0], requires_grad=True)
    opt = nx.Adam([p])
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])
    assert opt.step_count == 1


def test_adam_first_step_moves_by_lr_sign():
    p = Tensor([1.0, 2.0], requires_grad=True)
    opt = nx.Adam([p], lr=1e-3)
    p.grad = np.array([0.5, -3.0])
    opt.step()
    delta = p.data - np.array([1.0, 2.0])
    assert delta[0] == pytest.approx(-1e-3, rel=1e-6)
    assert delta[1] == pytest.approx(+1e-3, rel=1e-6)


def test_adam_two_steps_match_scalar_reference():
    grads = [0.7, -0.2]
    expected = scalar_adam_reference(1.5, grads)
    p = Tensor([1.5], requires_grad=True)
    opt = nx.Adam([p])
    observed = []
    for g in grads:
        p.grad = np.array([g])
        opt.step()
        observed.append(float(p.data[0]))
    assert observed == pytest.approx(expected, abs=1e-15)


def test_adam_shape_mismatch_rejected():
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = nx.Adam([p])
    p.grad = np.zeros(4)
    with pytest.raises(DimensionError):
        opt.step()
