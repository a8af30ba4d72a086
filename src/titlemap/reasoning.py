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
The whole fold is one tape node whatever the number of candidates. Inside
it, NOT is composed with the event head's second layer once per call, and
the steps run in blocks whose length comes from a working-set budget for
the block's hidden layer (`_FOLD_BLOCK_BYTES`, see `fold_block_steps`). The
work that does not read the fold state (hidden layers, literals, the
literals' share of OR, and in the backward the weight, literal and hidden
gradients) is a few wide array operations per block; only the OR
recurrence runs step by step, forward and then in reverse. A taped call
keeps 4·d_r floats per row per step, an untaped one a single block. The
composed weight and the split OR product round differently from
`or_op(..., not_op(event_head(...)))`, where `not_op`, tanh(e W_notᵀ +
b_not), is the tests' oracle of NOT (`tests/helpers.py`; no code here
applies NOT alone). So the fold agrees with that composition within 1e-12
relative (the tests' bound), not bit for bit. The six regularizers with
their cosines are one tape node per call as well, and agree with composing
the tests' `not_op` with `or_op` and `row_cosine` within the same bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

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


# Working-set budget of one block of fold steps, in bytes of the block's
# hidden layer: (steps, batch, 2·d_r) floats. At d_r 16 that is 8 steps at
# batch 192, 3 at batch 512 and 25 at batch 60.
_FOLD_BLOCK_BYTES = 384 * 1024


def fold_block_steps(batch: int, width: int) -> int:
    """Steps per block of the clause fold over `batch` rows whose hidden
    layer is `width` floats wide: as many as `_FOLD_BLOCK_BYTES` holds, at
    least one."""
    return max(1, _FOLD_BLOCK_BYTES // max(1, batch * width * 8))


def clause_representation(
    j_pre: Tensor,
    v_pre: Tensor,
    params: ReasoningParams,
    order: Optional[np.ndarray] = None,
) -> Tensor:
    """Left-fold OR over the NOT of every candidate event: the (batch, d_r)
    label-free clause representation, from the projections of `encode_views`.

    `order` permutes the fold (shuffled per training step, natural taxonomy
    order at inference) and may repeat a candidate. The output never sees
    the gold candidate's positive literal. The fold is one tape node with a
    hand-written backward through time.

    NOT is composed with the event head once per call: literal t is
    tanh(h_t W_negᵀ + b_neg), with hidden layer h_t = tanh(j_pre +
    v_pre[order[t]]), W_neg = not_w enc_w2 and b_neg = enc_b2 not_wᵀ +
    not_b. The steps run in blocks of `fold_block_steps(batch, 2·d_r)`, and
    everything that does not read the fold state is done once per block over
    a (steps, batch, ·) array: one row copy, one add and one tanh for the
    hidden layers, one product for the literals and one for their OR terms
    r_t = literal_t W_rightᵀ + b_or. Only state_t = tanh(state_{t-1} W_leftᵀ
    + r_t) runs per step; the first state is the first literal. The backward
    mirrors this: per step only the recurrence g ← (g W_left) ⊙ (1 −
    state_{t-1}²), per block one product or reduction for each weight
    gradient, the literal and hidden gradients, g_j and the g_v rows, and
    after the loop one scatter-add of those rows (an `order` may repeat a
    candidate).

    A taped call keeps every step's hidden layer, literal and state, 4·d_r
    floats per row per step; an untaped call keeps one block of each and the
    last state. Composing NOT with the head and taking OR as
    state W_leftᵀ + r_t round differently from applying `event_head`, the
    tests' oracle `not_op` and `or_op` in turn, so value and gradients
    agree with that composition within 1e-12 relative, not bit for bit.
    Taped and untaped calls run the same block shapes and are bit-identical.
    """
    inputs = (j_pre, v_pre) + _fold_weights(params)
    fold, backward = _clause_fold(j_pre, v_pre, params, order, nx.recording(inputs))
    return nx.fused_op(fold, inputs, backward)


def _fold_weights(params: ReasoningParams) -> tuple[Tensor, ...]:
    """The fold's weight inputs, in the order its backward returns them."""
    return (params.enc_w2, params.enc_b2, params.not_w, params.not_b,
            params.or_w_left, params.or_w_right, params.or_b)


def _clause_fold(
    j_pre: Tensor,
    v_pre: Tensor,
    params: ReasoningParams,
    order: Optional[np.ndarray],
    taped: bool,
) -> tuple[np.ndarray, Callable]:
    """The body of `clause_representation`: the fold's value and its
    backward, keeping every step for the backward if `taped`. It reads only
    the arrays of its inputs and neither records on the tape nor calls a
    public name of the package, so an untaped fold may run on another thread
    while the caller does other work."""
    n_cand = v_pre.data.shape[0]
    if n_cand == 0:
        raise DegenerateInputError("clause_representation: empty candidate set")
    sequence = np.arange(n_cand) if order is None else np.asarray(order, dtype=np.intp)
    w2, b2, w_not, b_not, w_left, w_right, b_or = (t.data for t in _fold_weights(params))
    w_neg = w_not @ w2  # NOT after the event head's linear layer
    b_neg = b2 @ w_not.T + b_not
    # BLAS multiplies by a contiguous right operand faster than by a transposed view
    w_neg_t, w_left_t, w_right_t = (np.ascontiguousarray(w.T) for w in (w_neg, w_left, w_right))
    j, v = j_pre.data, v_pre.data
    steps, (batch, width), d_r = len(sequence), j.shape, w_not.shape[0]
    # the biases repeated per batch row: numpy adds a (batch, d_r) operand
    # to a block over batch·d_r-long runs, a (d_r,) one over d_r-long runs
    bias_neg, bias_or = np.tile(b_neg, (batch, 1)), np.tile(b_or, (batch, 1))
    block = min(steps, fold_block_steps(batch, width))
    starts = range(0, steps, block)
    # time-major, so a block of steps is one contiguous slab of each
    kept = steps if taped else block
    hidden = np.empty((kept, batch, width))
    literals = np.empty((kept, batch, d_r))
    states = np.empty((kept, batch, d_r))
    for s in starts:
        n = min(block, steps - s)
        at = slice(s, s + n) if taped else slice(n)
        h, lit, st = hidden[at], literals[at], states[at]
        # copy the rows, then add j over batch·width-long runs: one add that
        # broadcasts both operands runs over width-long runs, about 1.4× slower
        h[...] = v[sequence[s : s + n]][:, None]
        h += j
        np.tanh(h, out=h)
        np.matmul(h.reshape(-1, width), w_neg_t, out=lit.reshape(-1, d_r))
        lit += bias_neg
        np.tanh(lit, out=lit)
        np.matmul(lit.reshape(-1, d_r), w_right_t, out=st.reshape(-1, d_r))
        st += bias_or
        for i in range(n):
            if s + i == 0:
                st[0] = lit[0]  # the first state is the first literal
            else:
                st[i] += (st[i - 1] if i else fold) @ w_left_t
                np.tanh(st[i], out=st[i])
        fold = st[n - 1].copy()

    def backward(g):
        g_w_left, g_w_right, g_w_neg = (np.zeros_like(w) for w in (w_left, w_right, w_neg))
        g_b_or, g_b_neg, g_j = np.zeros(d_r), np.zeros(d_r), np.zeros_like(j)
        g_v_rows = np.empty((steps, width))  # one row per step, scattered after the loop
        ones = np.ones(block * batch)  # `ones @ x` sums rows several times faster than x.sum(0)
        # per block: pre-activation gradients of OR, literal and hidden layer,
        # and the tanh slopes 1 - y² of states, literals and hidden layer
        g_ors, g_lits = np.empty((block, batch, d_r)), np.empty((block, batch, d_r))
        g_hs, slopes_h = np.empty((block, batch, width)), np.empty((block, batch, width))
        slopes = np.empty((block, batch, d_r))
        g_state = g  # gradient of the state after the step in hand
        for s in reversed(starts):
            n = min(block, steps - s)
            h, lit, st = hidden[s : s + n], literals[s : s + n], states[s : s + n]
            g_or, g_lit, g_h = g_ors[:n], g_lits[:n], g_hs[:n]
            slope, slope_h = slopes[:n], slopes_h[:n]
            np.subtract(1.0, np.square(st, out=slope), out=slope)
            for i in range(n - 1, -1, -1):
                np.multiply(g_state, slope[i], out=g_or[i])
                if s + i:
                    g_state = g_or[i] @ w_left
            # step 0 has no OR: its slot holds the first literal's gradient
            first = 1 if s == 0 else 0
            ors = g_or[first:].reshape(-1, d_r)
            g_w_left += ors.T @ states[s + first - 1 : s + n - 1].reshape(-1, d_r)
            g_w_right += ors.T @ lit[first:].reshape(-1, d_r)
            g_b_or += ones[: len(ors)] @ ors
            lits = g_lit.reshape(-1, d_r)
            np.matmul(g_or.reshape(-1, d_r), w_right, out=lits)
            g_lit *= np.subtract(1.0, np.square(lit, out=slope), out=slope)
            if first:
                g_lit[0] = g_or[0]
            g_w_neg += lits.T @ h.reshape(-1, width)
            g_b_neg += ones[: len(lits)] @ lits
            np.matmul(lits, w_neg, out=g_h.reshape(-1, width))
            g_h *= np.subtract(1.0, np.square(h, out=slope_h), out=slope_h)
            g_j += g_h.sum(axis=0)
            np.matmul(ones[:batch], g_h, out=g_v_rows[s : s + n])
        g_v = np.zeros_like(v)
        np.add.at(g_v, sequence, g_v_rows)
        g_not = g_w_neg @ w2.T + np.outer(g_b_neg, b2)
        return (g_j, g_v, w_not.T @ g_w_neg, (g_b_neg @ w_not)[None], g_not,
                g_b_neg[None], g_w_left, g_w_right, g_b_or[None])

    return fold, backward


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


# The six cosines of the regularizers, as (a, b) rows of the stacked vectors
# [x, NOT x, NOT NOT x, OR(x, FALSE), OR(x, TRUE), OR(x, x), OR(x, NOT x),
# TRUE]; r1 is sim(x, NOT x) summed, r2..r6 are 1 - sim(a, b) summed.
_COS_PAIRS = ((0, 1), (0, 2), (3, 0), (4, 7), (5, 0), (6, 7))
_COS_A, _COS_B = (np.array(side) for side in zip(*_COS_PAIRS))
_COS_SIGN = np.array([1.0, -1.0, -1.0, -1.0, -1.0, -1.0])[:, None]


def logical_regularizers(batch: Tensor, params: ReasoningParams) -> RegularizerValues:
    """The six logical-law penalties over a (n, d_r) batch of vectors x:

        r1 = sum sim(x, NOT x)                r4 = sum 1 - sim(OR(x, TRUE), TRUE)
        r2 = sum 1 - sim(x, NOT NOT x)        r5 = sum 1 - sim(OR(x, x), x)
        r3 = sum 1 - sim(OR(x, FALSE), x)     r6 = sum 1 - sim(OR(x, NOT x), TRUE)

    with sim(a, b) = (cos(a, b) + 1) / 2 and the row cosine clipped to
    [-1, 1], so each term is in [0, 1]. FALSE is NOT(TRUE), not an
    independent parameter. `total`, the six sums added and divided by the
    batch size, is one tape node; r1..r6 are plain values.

    The four ORs share one left product, and their right operands are two
    full blocks (x, NOT x) and two rows (FALSE, TRUE). The sums run in
    another order than composing the tests' oracle `not_op` with `or_op` and
    `row_cosine` on the tape, so values and gradients agree with that
    composition within 1e-12 relative (the tests' bound), not bit for bit.
    """
    n = batch.data.shape[0]
    if n == 0:
        zero = Tensor(0.0)
        return RegularizerValues(zero, zero, zero, zero, zero, zero, zero)
    inputs = (batch, params.not_w, params.not_b, params.or_w_left,
              params.or_w_right, params.or_b, params.true_anchor)
    x, w_not, b_not, w_left, w_right, b_or, anchor = (t.data for t in inputs)
    consts = np.concatenate([np.tanh(anchor @ w_not.T + b_not), anchor])  # FALSE, TRUE
    vecs = np.empty((8,) + x.shape)  # the cosine operands, one (n, d_r) block each
    vecs[0], vecs[7] = x, anchor
    np.tanh(x @ w_not.T + b_not, out=vecs[1])
    np.tanh(vecs[1] @ w_not.T + b_not, out=vecs[2])
    full = vecs[:2].reshape(2 * n, -1)  # x and NOT x, the full right operands
    left, ors = x @ w_left.T + b_or, vecs[3:7]
    np.add(left, (consts @ w_right.T)[:, None], out=ors[:2])
    np.add(left, (full @ w_right.T).reshape(2, n, -1), out=ors[2:])
    np.tanh(ors, out=ors)
    sq = np.einsum("kij,kij->ki", vecs, vecs)
    dots = np.einsum("kij,kij->ki", vecs[_COS_A], vecs[_COS_B])
    norms = np.sqrt(sq)
    den = norms[_COS_A] * norms[_COS_B]
    ratio = dots / den
    sims = (np.clip(ratio, -1.0, 1.0) + 1.0) * 0.5
    r1, r2, r3, r4, r5, r6 = np.concatenate([sims[:1], 1.0 - sims[1:]]).sum(axis=1)
    total = (r1 + r2 + r3 + r4 + r5 + r6) * (1.0 / n)

    def backward(g):
        # d/d ratio, zero where the clip saturates (nx.clip's strict mask);
        # ratio = a·b / (|a| |b|) gives a the gradient b/den - ratio a/|a|²
        g_ratio = _COS_SIGN * (g * 0.5 / n) * ((ratio > -1.0) & (ratio < 1.0))
        c, c_ratio = (g_ratio / den)[..., None], (g_ratio * ratio)[..., None]
        c_a, c_b = c_ratio / sq[_COS_A, :, None], c_ratio / sq[_COS_B, :, None]
        g_vecs = np.zeros_like(vecs)
        for k, (a, b) in enumerate(_COS_PAIRS):
            g_vecs[a] += c[k] * vecs[b] - c_a[k] * vecs[a]
            g_vecs[b] += c[k] * vecs[a] - c_b[k] * vecs[b]
        # the four ORs, as one block of pre-activation gradients; a constant
        # right operand is one row, so its OR's gradient is summed over rows
        g_ors = g_vecs[3:7] * (1.0 - ors * ors)
        g_left, g_const_ors = g_ors.sum(axis=0), g_ors[:2].sum(axis=1)
        g_full = g_ors[2:].reshape(2 * n, -1)
        g_w_right = g_full.T @ full + g_const_ors.T @ consts
        g_vecs[:2] += (g_full @ w_right).reshape(2, n, -1)
        g_vecs[0] += g_left @ w_left
        g_consts = g_const_ors @ w_right
        g_consts[1] += g_vecs[7].sum(axis=0)  # TRUE's own cosine terms
        # NOT NOT x, NOT x and FALSE, each a NOT of the operand before it
        g_w_not, g_b_not = np.zeros_like(w_not), np.zeros_like(b_not)
        for out, g_out, operand, g_operand in ((vecs[2], g_vecs[2], vecs[1], g_vecs[1]),
                                               (vecs[1], g_vecs[1], x, g_vecs[0]),
                                               (consts[:1], g_consts[:1], anchor, g_consts[1:])):
            g_pre = g_out * (1.0 - out * out)
            g_w_not += g_pre.T @ operand
            g_b_not += g_pre.sum(axis=0)
            g_operand += g_pre @ w_not
        return (g_vecs[0], g_w_not, g_b_not, g_left.T @ x, g_w_right,
                g_left.sum(axis=0, keepdims=True), g_consts[1:])

    return RegularizerValues(
        *(Tensor(r) for r in (r1, r2, r3, r4, r5, r6)),
        total=nx.fused_op(total, inputs, backward),
    )
