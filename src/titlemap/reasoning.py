"""Neural collaborative reasoning over (title, candidate) similarity events.

For one view, every standard title k yields an event vector e_k encoding the
proposition "the input title matches candidate k". Learned NOT and OR modules
fold the negated events into a clause representation; no algebraic law is
hard-coded - the logical behaviour of NOT/OR is only encouraged by the six
regularizers (negation, double negation, identity, annihilator, idempotence,
complementation) against learnable TRUE/FALSE anchors.

The encoder's first layer is linear in each event slot, so `encode_views`
projects a view's title rows and candidate rows once per forward pass; the
fold, the gold events and the regularizer batch all take rows from those two
projections. The fold that feeds the classifier is label-free: the correct
candidate's positive literal only ever appears inside `clause_truth_loss`, a
training-time auxiliary, so the classifier input cannot encode the answer.
The whole fold is one tape node whatever the number of candidates; its
backward runs through the fold in reverse, step by step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import numerics as nx
from .errors import DegenerateInputError
from .numerics import Tensor


def _uniform_param(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    bound = 1.0 / np.sqrt(cols)
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)), requires_grad=True)


@dataclass
class ReasoningParams:
    """Event encoder (two-layer, tanh hidden), NOT and OR modules, TRUE anchor.

    The encoder's first layer is stored as two column blocks (title side,
    candidate side) of the conceptual weight over concat(j, v); likewise the
    OR module stores the two halves of its 2*d_r -> d_r weight. `true_anchor`
    is renormalized to unit length after every optimizer step.
    """

    enc_w1_j: Tensor  # hidden x view_dim
    enc_w1_v: Tensor  # hidden x view_dim
    enc_b1: Tensor  # 1 x hidden
    enc_w2: Tensor  # d_r x hidden
    enc_b2: Tensor  # 1 x d_r
    not_w: Tensor  # d_r x d_r
    not_b: Tensor  # 1 x d_r
    or_w_left: Tensor  # d_r x d_r
    or_w_right: Tensor  # d_r x d_r
    or_b: Tensor  # 1 x d_r
    true_anchor: Tensor  # 1 x d_r, unit norm

    @staticmethod
    def shapes(view_dim: int, d_r: int) -> dict[str, tuple[int, int]]:
        """Field name -> shape of every tensor, in field order. A bias is one
        row, so `_uniform_param` draws it with bound 1/sqrt(its width)."""
        hidden = 2 * d_r
        return {
            "enc_w1_j": (hidden, view_dim),
            "enc_w1_v": (hidden, view_dim),
            "enc_b1": (1, hidden),
            "enc_w2": (d_r, hidden),
            "enc_b2": (1, d_r),
            "not_w": (d_r, d_r),
            "not_b": (1, d_r),
            "or_w_left": (d_r, d_r),
            "or_w_right": (d_r, d_r),
            "or_b": (1, d_r),
            "true_anchor": (1, d_r),
        }

    @classmethod
    def init(cls, view_dim: int, d_r: int, seed: int = 0) -> "ReasoningParams":
        rng = np.random.default_rng(seed)
        shapes = cls.shapes(view_dim, d_r)
        anchor = rng.standard_normal(shapes.pop("true_anchor"))
        anchor /= np.linalg.norm(anchor)
        return cls(
            true_anchor=Tensor(anchor, requires_grad=True),
            **{name: _uniform_param(rng, *shape) for name, shape in shapes.items()},
        )

    def renormalize_anchor(self) -> None:
        self.true_anchor.data /= np.linalg.norm(self.true_anchor.data)


def event_head(pre: Tensor, params: ReasoningParams) -> Tensor:
    """Second encoder layer: event vectors from first-layer pre-activations."""
    return nx.matmul(nx.tanh(pre), nx.transpose(params.enc_w2)) + params.enc_b2


def not_op(e: Tensor, params: ReasoningParams) -> Tensor:
    return nx.tanh(nx.matmul(e, nx.transpose(params.not_w)) + params.not_b)


def or_op(a: Tensor, b: Tensor, params: ReasoningParams) -> Tensor:
    return nx.tanh(
        nx.matmul(a, nx.transpose(params.or_w_left))
        + nx.matmul(b, nx.transpose(params.or_w_right))
        + params.or_b
    )


def row_cosine(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise cosine of two (n, d) tensors (broadcasting rows), clipped to [-1, 1]."""
    num = nx.tsum(nx.mul(a, b), axis=1, keepdims=True)
    na = nx.sqrt(nx.tsum(nx.mul(a, a), axis=1, keepdims=True))
    nb = nx.sqrt(nx.tsum(nx.mul(b, b), axis=1, keepdims=True))
    return nx.clip(nx.div(num, nx.mul(na, nb)), -1.0, 1.0)


def encode_views(
    j_matrix: Tensor, candidates: Tensor, params: ReasoningParams
) -> tuple[Tensor, Tensor]:
    """First-layer projections of one view: `j_pre` = x W1jᵀ + b1 per title
    row and `v_pre` = V W1vᵀ per candidate row. The pre-activation of event
    (j, k) is `j_pre[j] + v_pre[k]`; with the title slot zero it is
    `v_pre[k] + b1`, with the candidate slot zero `j_pre[j]`."""
    j_pre = nx.matmul(j_matrix, nx.transpose(params.enc_w1_j)) + params.enc_b1
    v_pre = nx.matmul(candidates, nx.transpose(params.enc_w1_v))
    return j_pre, v_pre


def clause_representation(
    j_pre: Tensor,
    v_pre: Tensor,
    params: ReasoningParams,
    order: Optional[np.ndarray] = None,
) -> Tensor:
    """Left-fold OR over the NOT of every candidate event: the (batch, d_r)
    label-free clause representation, from the projections of `encode_views`.

    `order` permutes the fold (shuffled per training step, natural taxonomy
    order at inference). The output never sees the gold candidate's positive
    literal. The fold is one tape node with a hand-written backward through
    time; its per-step arrays are kept only while a tape records it.
    """
    n_cand = v_pre.data.shape[0]
    if n_cand == 0:
        raise DegenerateInputError("clause_representation: empty candidate set")
    sequence = np.arange(n_cand) if order is None else np.asarray(order, dtype=np.intp)
    weights = (params.enc_w2, params.enc_b2, params.not_w, params.not_b,
               params.or_w_left, params.or_w_right, params.or_b)
    inputs = (j_pre, v_pre) + weights
    w2, b2, w_not, b_not, w_left, w_right, b_or = (t.data for t in weights)
    j, v = j_pre.data, v_pre.data
    steps, batch, d_r = len(sequence), j.shape[0], w_not.shape[0]
    stash = nx.recording(inputs)
    if stash:  # time-major, so every step reads and writes contiguous blocks
        hidden = np.empty((steps,) + j.shape)
        events, negated, states = (np.empty((steps, batch, d_r)) for _ in range(3))
    fold = None
    for t, k in enumerate(sequence):
        h = np.tanh(j + v[k], out=hidden[t] if stash else None)
        e = h @ w2.T + b2
        n = np.tanh(e @ w_not.T + b_not)
        fold = n if fold is None else np.tanh(fold @ w_left.T + n @ w_right.T + b_or)
        if stash:
            events[t], negated[t], states[t] = e, n, fold

    def backward(g):
        g_j, g_v = np.zeros_like(j), np.zeros_like(v)
        g_w2, g_b2, g_not, g_bnot, g_left, g_right, g_bor = (
            np.zeros_like(w) for w in (w2, b2, w_not, b_not, w_left, w_right, b_or)
        )
        ones = np.ones(batch)  # `ones @ x` sums rows several times faster than x.sum(0)
        g_state = g
        for t in range(steps - 1, -1, -1):
            if t > 0:
                s = states[t]
                g_or = g_state * (1.0 - s * s)
                g_left += g_or.T @ states[t - 1]
                g_right += g_or.T @ negated[t]
                g_bor += ones @ g_or
                g_neg = g_or @ w_right
                g_state = g_or @ w_left  # the only sequential dependency
            else:
                g_neg = g_state
            n, h = negated[t], hidden[t]
            g_n = g_neg * (1.0 - n * n)
            g_not += g_n.T @ events[t]
            g_bnot += ones @ g_n
            g_e = g_n @ w_not
            g_w2 += g_e.T @ h
            g_b2 += ones @ g_e
            g_pre = (g_e @ w2) * (1.0 - h * h)
            g_j += g_pre
            g_v[sequence[t]] += ones @ g_pre
        return g_j, g_v, g_w2, g_b2, g_not, g_bnot, g_left, g_right, g_bor

    return nx.fused_op(fold, inputs, backward)


def correct_events(
    j_pre: Tensor,
    v_pre: Tensor,
    labels: np.ndarray,
    params: ReasoningParams,
) -> Tensor:
    """Event vector of each row's gold candidate (training only)."""
    return event_head(j_pre + nx.take_rows(v_pre, labels), params)


def clause_truth_loss(x_prime: Tensor, e_correct: Tensor, params: ReasoningParams) -> Tensor:
    """1 - cosine(OR(clause, gold event), TRUE), averaged over the batch."""
    disjunction = or_op(x_prime, e_correct, params)
    cos = row_cosine(disjunction, params.true_anchor)
    return nx.tmean(Tensor(1.0) - cos)


class RegularizerValues(NamedTuple):
    r1: Tensor
    r2: Tensor
    r3: Tensor
    r4: Tensor
    r5: Tensor
    r6: Tensor
    total: Tensor  # sum of r1..r6 divided by the batch size


def _sim(a: Tensor, b: Tensor) -> Tensor:
    # cosine mapped to [0, 1] so every regularizer term is non-negative
    return nx.mul(row_cosine(a, b) + Tensor(1.0), Tensor(0.5))


def logical_regularizers(batch: Tensor, params: ReasoningParams) -> RegularizerValues:
    """The six logical-law penalties over a (n, d_r) batch of vectors.

    Each r_q is a sum over rows of terms in [0, 1]; `total` is their sum
    averaged over the batch size. FALSE is NOT(TRUE), not an independent
    parameter.
    """
    n = batch.data.shape[0]
    if n == 0:
        zero = Tensor(0.0)
        return RegularizerValues(zero, zero, zero, zero, zero, zero, zero)
    one = Tensor(1.0)
    true_row = params.true_anchor
    false_row = not_op(true_row, params)
    not_x = not_op(batch, params)
    r1 = nx.tsum(_sim(batch, not_x))
    r2 = nx.tsum(one - _sim(batch, not_op(not_x, params)))
    r3 = nx.tsum(one - _sim(or_op(batch, false_row, params), batch))
    r4 = nx.tsum(one - _sim(or_op(batch, true_row, params), true_row))
    r5 = nx.tsum(one - _sim(or_op(batch, batch, params), batch))
    r6 = nx.tsum(one - _sim(or_op(batch, not_x, params), true_row))
    total = nx.mul(r1 + r2 + r3 + r4 + r5 + r6, Tensor(1.0 / n))
    return RegularizerValues(r1, r2, r3, r4, r5, r6, total)
