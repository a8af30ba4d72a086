"""Shared oracles and builders for the test suite."""

from __future__ import annotations

import numpy as np

from titlemap import numerics as nx
from titlemap import reasoning as rs
from titlemap.graph import ParentChildPair


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def finite_difference_check(make_loss, params, h=1e-5):
    """Worst relative error between tape gradients and central differences.

    `make_loss` must be a pure function of the params' current data (any
    internal randomness replayed identically per call).
    """
    with nx.GradTape() as tape:
        loss = make_loss()
    tape.backward(loss)
    worst = 0.0
    for p in params:
        grad = p.grad.reshape(-1)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = make_loss().item()
            flat[i] = orig - h
            down = make_loss().item()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            worst = max(worst, rel_err(grad[i], fd))
    return worst


def event_oracle(params, j: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Plain-numpy event encoder over aligned (or broadcast) title rows `j`
    and candidate rows `v`: tanh(j W1jᵀ + v W1vᵀ + b1) W2ᵀ + b2."""
    hidden = np.tanh(
        j @ params.enc_w1_j.data.T + v @ params.enc_w1_v.data.T + params.enc_b1.data
    )
    return hidden @ params.enc_w2.data.T + params.enc_b2.data


def _sim(a, b):
    # cosine mapped to [0, 1] so every regularizer term is non-negative
    return nx.mul(rs.row_cosine(a, b) + nx.Tensor(1.0), nx.Tensor(0.5))


def taped_regularizers(batch, params):
    """Tape-composed oracle of `logical_regularizers`: r1..r6 and `total`
    built from `not_op`, `or_op` and `row_cosine`, one tape node per op."""
    one = nx.Tensor(1.0)
    true_row = params.true_anchor
    false_row = rs.not_op(true_row, params)
    not_x = rs.not_op(batch, params)
    r1 = nx.tsum(_sim(batch, not_x))
    r2 = nx.tsum(one - _sim(batch, rs.not_op(not_x, params)))
    r3 = nx.tsum(one - _sim(rs.or_op(batch, false_row, params), batch))
    r4 = nx.tsum(one - _sim(rs.or_op(batch, true_row, params), true_row))
    r5 = nx.tsum(one - _sim(rs.or_op(batch, batch, params), batch))
    r6 = nx.tsum(one - _sim(rs.or_op(batch, not_x, params), true_row))
    total = nx.mul(r1 + r2 + r3 + r4 + r5 + r6, nx.Tensor(1.0 / batch.data.shape[0]))
    return rs.RegularizerValues(r1, r2, r3, r4, r5, r6, total)


def scalar_adam_reference(x0, grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar Adam trace, plain Python floats."""
    x, m, v = float(x0), 0.0, 0.0
    trace = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        x = x - lr * m_hat / (v_hat**0.5 + eps)
        trace.append(x)
    return trace


def balanced_tree_pairs(branching=3, depth=2):
    """(child, parent) pairs of a balanced tree; 13 nodes for (3, 2)."""
    pairs = []
    frontier = ["n"]
    for _ in range(depth):
        nxt = []
        for parent in frontier:
            for i in range(branching):
                child = f"{parent}{i}"
                pairs.append(ParentChildPair(parent=parent, child=child))
                nxt.append(child)
        frontier = nxt
    return pairs


def brute_force_gram_cosine(a: str, b: str, n: int = 3) -> float:
    """Independent oracle: enumerate padded n-grams with explicit loops."""
    def grams(s):
        padded = "^" * (n - 1) + s + "$" * (n - 1)
        out = []
        for i in range(len(padded) - n + 1):
            g = padded[i : i + n]
            if g not in out:
                out.append(g)
        return out

    ga, gb = grams(a), grams(b)
    shared = 0
    for g in ga:
        if g in gb:
            shared += 1
    return shared / np.sqrt(len(ga) * len(gb))


def pairwise_auc_oracle(pos, neg):
    """O(n^2) comparison count: P(pos > neg) + 0.5 P(pos == neg)."""
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))
