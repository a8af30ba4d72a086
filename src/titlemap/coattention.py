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
from typing import NamedTuple

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


class Affinities(NamedTuple):
    a_hb: Tensor  # (batch, 1) each, values in (-1, 1)
    a_hs: Tensor
    a_bs: Tensor


class AttentionKeys(NamedTuple):
    k_h: Tensor
    k_b: Tensor
    k_s: Tensor


def _bilinear(x: Tensor, w: Tensor, y: Tensor) -> Tensor:
    return nx.tanh(nx.tsum(nx.mul(nx.matmul(x, w), y), axis=1, keepdims=True))


def affinities(x_h: Tensor, x_b: Tensor, x_s: Tensor, params: CoAttentionParams) -> Affinities:
    """Per-title scalar affinities tanh(x^T W y) for the three view pairs."""
    return Affinities(
        a_hb=_bilinear(x_h, params.w_aff_hb, x_b),
        a_hs=_bilinear(x_h, params.w_aff_hs, x_s),
        a_bs=_bilinear(x_b, params.w_aff_bs, x_s),
    )


def attention_keys(
    x_h: Tensor,
    x_b: Tensor,
    x_s: Tensor,
    affs: Affinities,
    params: CoAttentionParams,
) -> AttentionKeys:
    """tanh-bounded keys; each view acknowledges the other two via affinities."""
    k_h = nx.tanh(
        nx.matmul(x_h, nx.transpose(params.w_self_h))
        + nx.matmul(nx.mul(affs.a_hb, x_b), nx.transpose(params.w_cross_bh))
        + nx.matmul(nx.mul(affs.a_hs, x_s), nx.transpose(params.w_cross_sh))
    )
    k_b = nx.tanh(
        nx.matmul(x_b, nx.transpose(params.w_self_b))
        + nx.matmul(nx.mul(affs.a_hb, x_h), nx.transpose(params.w_cross_hb))
        + nx.matmul(nx.mul(affs.a_bs, x_s), nx.transpose(params.w_cross_sb))
    )
    k_s = nx.tanh(
        nx.matmul(x_s, nx.transpose(params.w_self_s))
        + nx.matmul(nx.mul(affs.a_hs, x_h), nx.transpose(params.w_cross_hs))
        + nx.matmul(nx.mul(affs.a_bs, x_b), nx.transpose(params.w_cross_bs))
    )
    return AttentionKeys(k_h=k_h, k_b=k_b, k_s=k_s)


def apply(x: Tensor, key: Tensor) -> Tensor:
    """softmax(key) (over components) elementwise-weights x."""
    if x.data.shape != key.data.shape:
        raise nx.DimensionError(
            f"co-attention apply: x shape {x.data.shape} != key shape {key.data.shape}"
        )
    return nx.mul(nx.softmax(key, axis=-1), x)


def co_attend(
    x_h: Tensor, x_b: Tensor, x_s: Tensor, params: CoAttentionParams
) -> tuple[Tensor, Tensor, Tensor]:
    """The attended views (x_hat_h, x_hat_b, x_hat_s)."""
    keys = attention_keys(x_h, x_b, x_s, affinities(x_h, x_b, x_s, params), params)
    return apply(x_h, keys.k_h), apply(x_b, keys.k_b), apply(x_s, keys.k_s)
