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
backward runs through the fold in reverse, step by step. Inside it, NOT is
composed with the event head's second layer once per call, and each step
keeps its hidden layer and one `[previous state | literal]` block, which
OR multiplies in one product. The composed weight rounds differently from
`not_op(event_head(...))`, so the fold agrees with that composition within
1e-12 relative (the tests' bound), not bit for bit. The six regularizers
with their cosines are one tape node per call as well.
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
    time. NOT is composed with the event head once per call, so each literal
    NOT(e_k) = tanh(h_k W_negᵀ + b_neg), with W_neg = not_w enc_w2 and
    b_neg = enc_b2 not_wᵀ + not_b, is one product; each OR is one product of
    the `[state | literal]` block with `[or_w_left | or_w_right]`. Per step
    it keeps h_k and that block, 4·d_r floats per row, and only while a tape
    records it; an untaped call reuses one buffer of each. The backward maps
    the gradients of W_neg and b_neg back to the four stored tensors once,
    after the loop.

    The composed weight rounds differently from applying the head and NOT
    in turn, so value and gradients agree with that composition within
    1e-12 relative, not bit for bit. Taped and untaped calls are
    bit-identical.
    """
    n_cand = v_pre.data.shape[0]
    if n_cand == 0:
        raise DegenerateInputError("clause_representation: empty candidate set")
    sequence = np.arange(n_cand) if order is None else np.asarray(order, dtype=np.intp)
    weights = (params.enc_w2, params.enc_b2, params.not_w, params.not_b,
               params.or_w_left, params.or_w_right, params.or_b)
    inputs = (j_pre, v_pre) + weights
    w2, b2, w_not, b_not, w_left, w_right, b_or = (t.data for t in weights)
    w_neg = w_not @ w2  # NOT after the event head's linear layer
    b_neg = b2 @ w_not.T + b_not
    w_or = np.concatenate([w_left, w_right], axis=1)
    # BLAS multiplies by a contiguous right operand faster than by a transposed view
    w_neg_t, w_or_t = np.ascontiguousarray(w_neg.T), np.ascontiguousarray(w_or.T)
    j, v = j_pre.data, v_pre.data
    steps, batch, d_r = len(sequence), j.shape[0], w_not.shape[0]
    kept = steps if nx.recording(inputs) else 1
    # time-major, so every step reads and writes contiguous blocks; pairs[t]
    # is [state after step t - 1 | literal of step t]
    hidden = np.empty((kept,) + j.shape)
    pairs = np.empty((kept, batch, 2 * d_r))
    for t, k in enumerate(sequence):
        h, pair = hidden[t % kept], pairs[t % kept]
        np.tanh(np.add(j, v[k], out=h), out=h)
        literal = h @ w_neg_t
        literal += b_neg
        np.tanh(literal, out=pair[:, d_r:])
        if t == 0:
            fold = pair[:, d_r:]
        else:
            fold = pair @ w_or_t
            fold += b_or
            np.tanh(fold, out=fold)
        if t + 1 < steps:
            pairs[(t + 1) % kept, :, :d_r] = fold
    fold = fold.copy() if steps == 1 else fold  # one step leaves a view of the stash

    def backward(g):
        g_j, g_v = np.zeros_like(j), np.zeros_like(v)
        g_or_w, g_w_neg = np.zeros_like(w_or), np.zeros_like(w_neg)
        g_or_rows, g_neg_rows = np.zeros_like(g), np.zeros_like(g)
        ones = np.ones(batch)  # `ones @ x` sums rows several times faster than x.sum(0)

        # gradient of the last step's pre-activation: an OR's, or with one
        # candidate the only literal's
        g_or = g * (1.0 - fold * fold)
        for t in range(steps - 1, -1, -1):
            if t > 0:
                pair = pairs[t]
                g_or_rows += g_or
                g_or_w += g_or.T @ pair
                # through both tanhs behind [state | literal] at once: the left
                # half becomes the previous step's pre-activation gradient
                g_pair = g_or @ w_or
                g_pair *= 1.0 - pair * pair
                g_or, g_n = g_pair[:, :d_r], g_pair[:, d_r:]
            else:
                g_n = g_or  # the first state is the first literal
            h = hidden[t]
            g_neg_rows += g_n
            g_w_neg += g_n.T @ h
            g_pre = g_n @ w_neg
            g_pre *= 1.0 - h * h
            g_j += g_pre
            g_v[sequence[t]] += ones @ g_pre
        g_b_or, g_b_neg = ones @ g_or_rows, ones @ g_neg_rows
        g_not = g_w_neg @ w2.T + np.outer(g_b_neg, b2)
        return (g_j, g_v, w_not.T @ g_w_neg, (g_b_neg @ w_not)[None], g_not,
                g_b_neg[None], g_or_w[:, :d_r], g_or_w[:, d_r:], g_b_or[None])

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


# The six cosines of the regularizers, as (a, b) rows of the stacked vectors
# [x, NOT x, NOT NOT x, OR(x, FALSE), OR(x, TRUE), OR(x, x), OR(x, NOT x),
# TRUE]; r1 is sim(x, NOT x) summed, r2..r6 are 1 - sim(a, b) summed.
_COS_PAIRS = ((0, 1), (0, 2), (3, 0), (4, 7), (5, 0), (6, 7))
_COS_A, _COS_B = (np.array(side) for side in zip(*_COS_PAIRS))
_COS_SIGN = np.array([1.0, -1.0, -1.0, -1.0, -1.0, -1.0])[:, None]
_TRUE = 7


def logical_regularizers(batch: Tensor, params: ReasoningParams) -> RegularizerValues:
    """The six logical-law penalties over a (n, d_r) batch of vectors x:

        r1 = sum sim(x, NOT x)                r4 = sum 1 - sim(OR(x, TRUE), TRUE)
        r2 = sum 1 - sim(x, NOT NOT x)        r5 = sum 1 - sim(OR(x, x), x)
        r3 = sum 1 - sim(OR(x, FALSE), x)     r6 = sum 1 - sim(OR(x, NOT x), TRUE)

    with sim(a, b) = (cos(a, b) + 1) / 2 and the row cosine clipped to
    [-1, 1], so each term is in [0, 1]. FALSE is NOT(TRUE), not an
    independent parameter. `total`, the six sums added and divided by the
    batch size, is one tape node; r1..r6 are plain values.

    The forward keeps the operation order of composing `not_op`, `or_op` and
    `row_cosine` on the tape, and the backward adds each vector's gradient
    terms in the order that tape's reverse sweep added them, so values and
    gradients are bit-identical to that composition.
    """
    n = batch.data.shape[0]
    if n == 0:
        zero = Tensor(0.0)
        return RegularizerValues(zero, zero, zero, zero, zero, zero, zero)
    inputs = (batch, params.not_w, params.not_b, params.or_w_left,
              params.or_w_right, params.or_b, params.true_anchor)
    x, w_not, b_not, w_left, w_right, b_or, anchor = (t.data for t in inputs)
    false_row = np.tanh(anchor @ w_not.T + b_not)
    # the cosine operands, one (n, d_r) block each, written in place
    vecs = np.empty((8,) + x.shape)
    vecs[0], vecs[_TRUE] = x, anchor
    not_x = np.tanh(x @ w_not.T + b_not, out=vecs[1])
    np.tanh(not_x @ w_not.T + b_not, out=vecs[2])
    x_left, ors = x @ w_left.T, vecs[3:7]
    rights = (false_row, anchor, x, not_x)  # second operand of each OR
    for k, right in enumerate(rights):
        np.add(x_left, right @ w_right.T, out=ors[k])
    ors += b_or
    np.tanh(ors, out=ors)
    norms = np.sqrt((vecs * vecs).sum(axis=2))
    dots = (vecs[_COS_A] * vecs[_COS_B]).sum(axis=2)
    den = norms[_COS_A] * norms[_COS_B]
    ratio = dots / den
    sims = (np.clip(ratio, -1.0, 1.0) + 1.0) * 0.5
    r1, r2, r3, r4, r5, r6 = np.concatenate([sims[:1], 1.0 - sims[1:]]).sum(axis=1)
    total = (r1 + r2 + r3 + r4 + r5 + r6) * (1.0 / n)

    def backward(g):
        # per cosine: d/d ratio, zero where the clip saturates (nx.clip's
        # strict mask), then through ratio = dots / (|a| |b|) to the dot
        # product, to |a|² and to |b|; TRUE's |b| is one value for all rows
        g_ratio = _COS_SIGN * ((g * (1.0 / n)) * 0.5) * ((ratio > -1.0) & (ratio < 1.0))
        g_dots = g_ratio / den
        g_den = -g_ratio * dots / (den * den)
        g_sq_a = g_den * norms[_COS_B] * 0.5 / norms[_COS_A]
        g_norm_b = g_den * norms[_COS_A]
        acc: dict = {}  # gradient so far, by index in vecs, "false" or parameter name

        def add(key, term):  # every term is a fresh array: keep the first, add in place
            if key in acc:
                acc[key] += term
            else:
                acc[key] = term

        def row_sum(term):  # gradient of a (1, d_r) row broadcast over the batch
            return term.sum(axis=0, keepdims=True)

        def cosine(k):
            a, b = _COS_PAIRS[k]
            if b == _TRUE:
                vec_b, g_sq_b = anchor, g_norm_b[k].sum() * 0.5 / norms[b, 0]
            else:
                vec_b, g_sq_b = vecs[b], (g_norm_b[k] * 0.5 / norms[b])[:, None]
            for key, term in ((b, g_sq_b * vec_b), (a, g_sq_a[k][:, None] * vecs[a])):
                add(key, term)  # |v|² is sum(v * v): the product feeds v twice
                add(key, term)
            add(a, g_dots[k][:, None] * vec_b)  # a * b
            g_b = g_dots[k][:, None] * vecs[a]
            add(b, row_sum(g_b) if b == _TRUE else g_b)

        def negation(key, out, operand, operand_key):
            g_pre = acc.pop(key) * (1.0 - out * out)
            add("not_b", row_sum(g_pre))
            add(operand_key, g_pre @ w_not)
            add("not_w", (operand.T @ g_pre).T)

        # the composed tape's reverse sweep: each OR after the cosine reading
        # it, last OR first; then NOT NOT x, NOT x and FALSE, each after the
        # cosine that reads it
        for k, right_key in zip((3, 2, 1, 0), (1, 0, _TRUE, "false")):
            cosine(k + 2)
            g_pre = acc.pop(k + 3) * (1.0 - ors[k] * ors[k])
            add("or_b", row_sum(g_pre))
            g_right = g_pre if k >= 2 else row_sum(g_pre)  # FALSE and TRUE are one row
            add(right_key, g_right @ w_right)
            add("or_w_right", (rights[k].T @ g_right).T)
            add(0, g_pre @ w_left)
            add("or_w_left", (x.T @ g_pre).T)
        cosine(1)
        negation(2, vecs[2], not_x, 1)
        cosine(0)
        negation(1, not_x, x, 0)
        negation("false", false_row, anchor, _TRUE)
        return (acc[0], acc["not_w"], acc["not_b"], acc["or_w_left"],
                acc["or_w_right"], acc["or_b"], acc[_TRUE])

    return RegularizerValues(
        *(Tensor(r) for r in (r1, r2, r3, r4, r5, r6)),
        total=nx.fused_op(total, inputs, backward),
    )
