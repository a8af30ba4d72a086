"""Dense tensors with reverse-mode automatic differentiation.

Everything learnable in titlemap runs on this substrate: a `Tensor` wraps a
numpy array, operations executed inside a `GradTape` context record their
backward rules on the tape, and `GradTape.backward` replays the tape in
reverse to accumulate gradients into the `requires_grad` leaves.

Precision is the arrays' dtype, and a tape holds one: the first node it
records fixes its dtype, and an op whose value or any input has another
dtype raises `ContractError`, as does a backward that returns a gradient of
another dtype. The ops are dtype-generic, so the mapper trains and serves in
float32 while the tests' oracles run float64 tapes, the only ones (the link
classifier in `evaluation` records none: it sets its float64 gradients by
hand and only takes `Adam` steps). Under numpy's promotion rules one float64
array or numpy scalar in a float32 expression turns it to float64, while a
Python float does not, so a constant is built in the dtype of the tensor it
meets. Off a tape nothing is checked: an op computes in the dtype numpy
gives its operands.

Scope is deliberately small: 1-D/2-D arrays, the generic operations the
mapper still records, `fused_op` for a hand-written composite, and a plain
Adam optimizer. Co-attention, the clause, the gold events, the regularizer
batch, the clause-truth loss and the regularizers are fused ops; the
generic ops they replaced (`tanh`, `sub`, `div`, `sqrt`, `clip`,
`take_rows`) live in `tests/helpers.py`, where they compose the fused ops'
oracles. Gradients sum on node reuse; a tape lives for exactly one
forward/backward pass and is confined to one thread. Tensors evaluated
outside any tape are plain values and safe to share read-only. exp defers
to the platform libm (worth a 1-ulp tolerance in any cross-platform
comparison).
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DimensionError

__all__ = [
    "Tensor",
    "tensor_fields",
    "GradTape",
    "Adam",
    "add",
    "neg",
    "mul",
    "matmul",
    "transpose",
    "relu",
    "softmax",
    "log_softmax",
    "tsum",
    "tmean",
    "concat",
    "gather_rows",
    "recording",
    "fused_op",
]


class Tensor:
    """A float64 or float32 array plus autodiff bookkeeping.

    float32 data is kept as given, and anything else is cast to float64. A
    tape records tensors of one dtype (`GradTape`). `grad` is populated (for
    requires_grad leaves) by `GradTape.backward` and always has the same
    shape and dtype as `data`.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    def item(self) -> float:
        return float(self.data)

    def __add__(self, other):
        return add(self, _as_tensor(other))


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def tensor_fields(params) -> dict[str, Tensor]:
    """Tensor-valued fields of a parameter dataclass, by name in field order."""
    values = {f.name: getattr(params, f.name) for f in fields(params)}
    return {name: v for name, v in values.items() if isinstance(v, Tensor)}


# ---------------------------------------------------------------------------
# Tape

_TAPE_STACK: list["GradTape"] = []


class GradTape:
    """Ordered record of operations for one forward/backward pass.

    Nodes are appended in execution order, so every node's inputs precede it
    and a single reverse sweep implements the chain rule. `dtype` is that of
    the first node recorded; every later node, and every gradient a backward
    returns, must have it.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._output_ids: set[int] = set()
        self.dtype: Optional[np.dtype] = None

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise ContractError("GradTape contexts must be exited in LIFO order")
        return False

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> None:
        dtype = out.data.dtype if self.dtype is None else self.dtype
        if any(t.data.dtype != dtype for t in (out, *inputs)):
            dtypes = sorted({str(t.data.dtype) for t in (out, *inputs)})
            raise ContractError(f"a {dtype} tape cannot record an op over {', '.join(dtypes)}")
        self.dtype = dtype
        self._nodes.append((out, inputs, backward))
        self._output_ids.add(id(out))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every requires_grad leaf on the tape.

        Leaves the tape never reached get a zero gradient of matching shape.
        """
        if loss.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.data.shape}"
            )
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        leaves: dict[int, Tensor] = {}
        for _, inputs, _ in self._nodes:
            for t in inputs:
                if t.requires_grad and id(t) not in self._output_ids:
                    leaves[id(t)] = t
        for out, inputs, backward in reversed(self._nodes):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for t, ig in zip(inputs, backward(g)):
                if ig is None or not t.requires_grad:
                    continue
                if ig.dtype != self.dtype:
                    raise ContractError(f"a backward returned a {ig.dtype} gradient "
                                        f"on a {self.dtype} tape")
                buf = grads.get(id(t))
                if buf is None:
                    grads[id(t)] = ig.copy() if ig.base is not None or ig is g else ig
                else:
                    buf += ig
        for tid, leaf in leaves.items():
            g = grads.get(tid)
            leaf.grad = np.zeros_like(leaf.data) if g is None else np.asarray(g)


def _active_tape() -> Optional[GradTape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def recording(inputs: Sequence[Tensor]) -> bool:
    """Whether an op over `inputs` goes on the tape: a tape is active and some
    input requires a gradient."""
    return _active_tape() is not None and any(t.requires_grad for t in inputs)


def _make(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward: Callable) -> Tensor:
    out = Tensor(out_data)
    if recording(inputs):
        _active_tape()._record(out, inputs, backward)
        out.requires_grad = True
    return out


def fused_op(out_data: np.ndarray, inputs: Sequence[Tensor], backward: Callable) -> Tensor:
    """One tape node for a hand-written composite op. `backward(g)` returns
    one gradient (or None) per input, in the order of `inputs`, each in the
    tape's dtype."""
    return _make(out_data, tuple(inputs), backward)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise DimensionError(
            f"{op}: shapes {a.data.shape} and {b.data.shape} are incompatible"
        ) from None


# ---------------------------------------------------------------------------
# Arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise product with numpy broadcasting; the backward skips the
    gradient of an input that does not require one."""
    _check_broadcast(a, b, "elementwise_mul")
    return _make(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        ),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Strict 2-D matrix product; gradient is g@b^T / a^T@g, computed only
    for an input that requires one."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul: shapes {a.data.shape} and {b.data.shape} are incompatible"
        )
    return _make(
        a.data @ b.data,
        (a, b),
        lambda g: (
            g @ b.data.T if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None,
        ),
    )


def transpose(a: Tensor) -> Tensor:
    return _make(a.data.T, (a,), lambda g: (g.T,))


# ---------------------------------------------------------------------------
# Nonlinearities

def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _make(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax along `axis`, in the dtype of `a`; rows sum to 1
    to that dtype's precision."""
    if a.data.size == 0:
        raise DimensionError("softmax: input must be non-empty")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - inner),)

    return _make(out_data, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    if a.data.size == 0:
        raise DimensionError("log_softmax: input must be non-empty")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def backward(g):
        return (g - np.exp(out_data) * g.sum(axis=axis, keepdims=True),)

    return _make(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# Reductions / reshaping

def tsum(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape),)

    return _make(out_data, (a,), backward)


def tmean(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), Tensor(a.data.dtype.type(1.0 / count)))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise DimensionError("concat: need at least one tensor")
    ref = tensors[0].data.shape
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(ref) or any(
            s[i] != ref[i] for i in range(len(ref)) if i != axis % len(ref)
        ):
            raise DimensionError(
                f"concat: shapes {ref} and {s} differ off axis {axis}"
            )
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(out_data, tuple(tensors), backward)


def gather_rows(a: Tensor, column_indices: np.ndarray) -> Tensor:
    """Pick one column per row: out[i] = a[i, column_indices[i]]."""
    if a.data.ndim != 2:
        raise DimensionError(f"gather_rows: expected a matrix, got shape {a.data.shape}")
    cols = np.asarray(column_indices, dtype=np.intp)
    rows = np.arange(a.data.shape[0])

    def backward(g):
        buf = np.zeros_like(a.data)
        buf[rows, cols] = g
        return (buf,)

    return _make(a.data[rows, cols], (a,), backward)


# ---------------------------------------------------------------------------
# Optimizer

class Adam:
    """Adam with bias correction over a fixed parameter list.

    Parameters with `grad is None` are treated as having a zero gradient for
    that step. The step counter increases by exactly one per `step()` call.
    """

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif g.shape != p.data.shape:
                raise DimensionError(
                    f"adam_step: gradient shape {g.shape} does not match parameter shape {p.data.shape}"
                )
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
