"""Multi-aspect co-attention over the three title views.

Each title contributes one vector per view (topological h, semantic b,
syntactic s), so the pairwise affinity of two views collapses to a scalar
bilinear form per title, and every view's attention key mixes its own
projection with affinity-scaled support from the other two views. Inputs
are (batch, dim) rows; a single title is a 1-row matrix.

`co_attend` is one tape node with a hand-written backward. Its forward pass
replays the float operations of composing the generic tape ops (matmul,
tanh, softmax, products) in their order, so its value equals that
composition bit for bit, in float32 as in float64, and an existing
`model.json` serves the same bytes; taped and untaped calls are
bit-identical. At float64 its value and every weight gradient agree with
that composition, which the tests keep as its oracle, within 1e-12
relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nx
from .numerics import Tensor
from .reasoning import _uniform_param


@dataclass
class CoAttentionParams:
    """Learnable weights; shapes are fixed by (d_h, d_b, d_s).

    `w_aff_*` are the bilinear affinity forms; `w_self_*` project a view onto
    its own key; `w_cross_xy` carries affinity-scaled support from view x into
    view y's key.
    """

    w_aff_hb: Tensor  # d_h x d_b
    w_aff_hs: Tensor  # d_h x d_s
    w_aff_bs: Tensor  # d_b x d_s
    w_self_h: Tensor  # d_h x d_h
    w_self_b: Tensor  # d_b x d_b
    w_self_s: Tensor  # d_s x d_s
    w_cross_bh: Tensor  # d_h x d_b
    w_cross_sh: Tensor  # d_h x d_s
    w_cross_hb: Tensor  # d_b x d_h
    w_cross_sb: Tensor  # d_b x d_s
    w_cross_hs: Tensor  # d_s x d_h
    w_cross_bs: Tensor  # d_s x d_b

    @staticmethod
    def shapes(d_h: int, d_b: int, d_s: int) -> dict[str, tuple[int, int]]:
        """Field name -> shape of every weight, in field order."""
        return {
            "w_aff_hb": (d_h, d_b),
            "w_aff_hs": (d_h, d_s),
            "w_aff_bs": (d_b, d_s),
            "w_self_h": (d_h, d_h),
            "w_self_b": (d_b, d_b),
            "w_self_s": (d_s, d_s),
            "w_cross_bh": (d_h, d_b),
            "w_cross_sh": (d_h, d_s),
            "w_cross_hb": (d_b, d_h),
            "w_cross_sb": (d_b, d_s),
            "w_cross_hs": (d_s, d_h),
            "w_cross_bs": (d_s, d_b),
        }

    @classmethod
    def init(cls, d_h: int, d_b: int, d_s: int, seed: int = 0) -> "CoAttentionParams":
        rng = np.random.default_rng(seed)
        shapes = cls.shapes(d_h, d_b, d_s)
        return cls(**{name: _uniform_param(rng, *shape) for name, shape in shapes.items()})


# Views are numbered h 0, b 1, s 2. Each affinity joins two views, and each
# view's key sums its self term, then its two cross terms (affinity, other
# view, cross weight) in the order listed. Float addition is not
# associative, so this order fixes a trained model's bits.
_AFFINITY_VIEWS = {"w_aff_hb": (0, 1), "w_aff_hs": (0, 2), "w_aff_bs": (1, 2)}
_KEY_TERMS = (
    ("w_self_h", (("w_aff_hb", 1, "w_cross_bh"), ("w_aff_hs", 2, "w_cross_sh"))),
    ("w_self_b", (("w_aff_hb", 0, "w_cross_hb"), ("w_aff_bs", 2, "w_cross_sb"))),
    ("w_self_s", (("w_aff_hs", 0, "w_cross_hs"), ("w_aff_bs", 1, "w_cross_bs"))),
)


def _affinity(x: np.ndarray, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-title scalar affinity tanh(xᵀ W y), shape (batch, 1), in (-1, 1)."""
    return np.tanh((x @ w * y).sum(axis=1, keepdims=True))


def _keys(views: Sequence[np.ndarray], w: dict[str, np.ndarray]) -> tuple[dict, list]:
    """The affinities (by weight name) and the three attention keys of the
    view arrays (x_h, x_b, x_s) under the weight arrays `w` (by field name).

    A view's key is tanh(x W_selfᵀ + Σ (a ⊙ y) W_crossᵀ), summed in the
    order of `_KEY_TERMS`: each other view y enters through its affinity a
    with x, so every key lies in (-1, 1) and is zero for zero views."""
    affinities = {name: _affinity(views[i], w[name], views[j])
                  for name, (i, j) in _AFFINITY_VIEWS.items()}
    keys = []
    for x, (w_self, cross) in zip(views, _KEY_TERMS):
        key = x @ w[w_self].T
        for w_aff, other, w_cross in cross:
            key += (affinities[w_aff] * views[other]) @ w[w_cross].T
        keys.append(np.tanh(key, out=key))
    return affinities, keys


def co_attend(
    x_h: np.ndarray, x_b: np.ndarray, x_s: np.ndarray, params: CoAttentionParams
) -> Tensor:
    """The attended views softmax(key) ⊙ x of h, b and s, side by side in one
    (batch, d_h + d_b + d_s) tensor: one tape node over the twelve weights,
    in field order. The views are arrays: they never learn, so the node
    takes no gradient to them."""
    weights = nx.tensor_fields(params)
    views = [x_h, x_b, x_s]
    w = {name: t.data for name, t in weights.items()}
    affinities, keys = _keys(views, w)
    bounds = np.cumsum([0] + [x.shape[1] for x in views])
    blocks = list(zip(bounds[:-1], bounds[1:]))
    out = np.empty((x_h.shape[0], bounds[-1]), x_h.dtype)
    probs = []
    for x, key, (lo, hi) in zip(views, keys, blocks):
        e = key - key.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        e /= e.sum(axis=-1, keepdims=True)
        probs.append(e)
        np.multiply(e, x, out=out[:, lo:hi])

    def backward(g):
        grads = dict.fromkeys(w)
        g_affinities = {name: np.zeros_like(a) for name, a in affinities.items()}
        for x, p, key, (lo, hi), (w_self, cross) in zip(views, probs, keys, blocks, _KEY_TERMS):
            g_p = g[:, lo:hi] * x
            g_key = g_p - (g_p * p).sum(axis=1, keepdims=True)
            g_key *= p
            g_key *= 1.0 - key * key  # through the key's tanh
            grads[w_self] = g_key.T @ x
            for w_aff, other, w_cross in cross:
                a, y = affinities[w_aff], views[other]
                grads[w_cross] = g_key.T @ (a * y)
                g_affinities[w_aff] += ((g_key @ w[w_cross]) * y).sum(axis=1, keepdims=True)
        for name, (i, j) in _AFFINITY_VIEWS.items():
            a = affinities[name]
            g_s = g_affinities[name] * (1.0 - a * a)  # through the affinity's tanh
            grads[name] = views[i].T @ (g_s * views[j])
        return tuple(grads.values())

    return nx.fused_op(out, tuple(weights.values()), backward)
