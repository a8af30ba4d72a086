"""Multi-aspect co-attention over the three title views.

Each title contributes one vector per view (topological h, semantic b,
syntactic s), so the pairwise affinity of two views collapses to a scalar
bilinear form per title, and every view's attention key mixes its own
projection with affinity-scaled support from the other two views. All
functions follow a row-batch convention: inputs are (batch, dim) tensors,
single titles are 1-row matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _bilinear(x: Tensor, w: Tensor, y: Tensor) -> Tensor:
    """Per-title scalar affinity tanh(x^T W y), shape (batch, 1), in (-1, 1)."""
    return nx.tanh(nx.tsum(nx.mul(nx.matmul(x, w), y), axis=1, keepdims=True))


def _attend(x: Tensor, w_self: Tensor, *cross: tuple[Tensor, Tensor, Tensor]) -> Tensor:
    """softmax(key) (over components) elementwise-weights x, where the key
    tanh(x w_selfᵀ + Σ (a ⊙ y) w_crossᵀ) acknowledges each other view y
    through its affinity a, for every (a, y, w_cross) in `cross`."""
    key = nx.matmul(x, nx.transpose(w_self))
    for a, y, w_cross in cross:
        key = key + nx.matmul(nx.mul(a, y), nx.transpose(w_cross))
    return nx.mul(nx.softmax(nx.tanh(key), axis=-1), x)


def co_attend(
    x_h: Tensor, x_b: Tensor, x_s: Tensor, params: CoAttentionParams
) -> tuple[Tensor, Tensor, Tensor]:
    """The attended views (x_hat_h, x_hat_b, x_hat_s).

    Each key sums its self term, then its cross terms in this order; float
    addition is not associative, so a trained model's bits depend on that
    order."""
    p = params
    a_hb = _bilinear(x_h, p.w_aff_hb, x_b)
    a_hs = _bilinear(x_h, p.w_aff_hs, x_s)
    a_bs = _bilinear(x_b, p.w_aff_bs, x_s)
    return (
        _attend(x_h, p.w_self_h, (a_hb, x_b, p.w_cross_bh), (a_hs, x_s, p.w_cross_sh)),
        _attend(x_b, p.w_self_b, (a_hb, x_h, p.w_cross_hb), (a_bs, x_s, p.w_cross_sb)),
        _attend(x_s, p.w_self_s, (a_hs, x_h, p.w_cross_hs), (a_bs, x_b, p.w_cross_bs)),
    )
