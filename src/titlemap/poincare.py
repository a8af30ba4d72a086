"""Hyperbolic embeddings of job titles on the open unit ball.

Titles are trained from (child, parent) transition pairs with a
negative-sampling softmax over distances and Riemannian SGD: the Euclidean
gradient is rescaled by the inverse metric ((1 - ||x||^2)^2 / 4) and points
are projected back inside the ball after every update. Distances follow

    d(a, b) = arcosh(1 + 2 ||a-b||^2 / ((1 - ||a||^2)(1 - ||b||^2)))

with arcosh(x) = ln(x + sqrt(x^2 - 1)) and the argument clamped to >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError, DomainError, NumericError
from .formats import read_vectors, write_vectors
from .graph import ParentChildPair

BOUNDARY_EPS = 1e-5
_ACOSH_GUARD = 1e-30

# (child, parent) pairs per Riemannian SGD step. Rows shared within a block
# sum their gradients; 32 keeps link AUC and mean parent rank at the per-pair
# trainer's level while paying numpy's per-call cost once per 32 pairs.
_BATCH_PAIRS = 32

# Rows whose squared norm reaches this are handed to `project_to_ball`, which
# decides exactly; the margin covers the few ulps by which a row-wise sum can
# differ from its own norm.
_NEAR_LIMIT_SQ = (1.0 - BOUNDARY_EPS) ** 2 * (1.0 - 1e-12)


def _check_inside(x: np.ndarray, name: str) -> float:
    sq = float(np.dot(x, x))
    if sq >= 1.0:
        raise DomainError(f"{name}: point with norm {np.sqrt(sq):.6f} is not inside the unit ball")
    return sq


def poincare_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hyperbolic distance between two points strictly inside the ball."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sq_a = _check_inside(a, "poincare_distance")
    sq_b = _check_inside(b, "poincare_distance")
    diff = a - b
    arg = 1.0 + 2.0 * float(np.dot(diff, diff)) / ((1.0 - sq_a) * (1.0 - sq_b))
    arg = max(arg, 1.0)
    return float(np.log(arg + np.sqrt(arg * arg - 1.0)))


def riemannian_rescale(x: np.ndarray, euclid_grad: np.ndarray) -> np.ndarray:
    """Rescale a Euclidean gradient by the inverse metric at x; a stack of
    rows is rescaled row by row, each by its own metric."""
    x = np.asarray(x, dtype=np.float64)
    sq = np.einsum("...i,...i->...", x, x)
    return ((1.0 - sq) ** 2 / 4.0)[..., None] * np.asarray(euclid_grad, dtype=np.float64)


def project_to_ball(x: np.ndarray, eps: float = BOUNDARY_EPS) -> np.ndarray:
    """Clamp a vector to norm <= 1 - eps. Identity for interior points."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NumericError("project_to_ball: input has non-finite components")
    limit = 1.0 - eps
    norm = float(np.linalg.norm(x))
    if norm < limit:
        return x
    x = x * (limit / norm)
    # float rounding can leave the norm an ulp above the limit; idempotence
    # requires settling strictly at or below it
    norm = float(np.linalg.norm(x))
    while norm > limit:
        x = x * (limit / norm)
        norm = float(np.linalg.norm(x))
    return x


def _distance_batch(u: np.ndarray, cands: np.ndarray):
    """Distances from each point u[b] to its candidates cands[b, k], plus the
    intermediates the gradients reuse. u is (..., m), cands (..., K, m)."""
    alpha = 1.0 - np.einsum("...i,...i->...", u, u)
    beta = 1.0 - np.einsum("...i,...i->...", cands, cands)
    diff = u[..., None, :] - cands
    sq_diff = np.einsum("...i,...i->...", diff, diff)
    gamma = 1.0 + 2.0 * sq_diff / (alpha[..., None] * beta)
    gamma = np.maximum(gamma, 1.0)
    dist = np.log(gamma + np.sqrt(gamma * gamma - 1.0))
    return dist, alpha, beta, gamma


def _distance_gradients(u, cands, alpha, beta, gamma, weights):
    """Gradients of sum_k weights[..., k] * d(u, c_k): with respect to u,
    shaped like u, and with respect to each c_k, shaped like cands.

    Coincident points (gamma ~ 1) take the zero limit gradient explicitly:
    near the arcosh singularity the analytic 0/0 would otherwise amplify
    float round-off.
    """
    live = (gamma - 1.0) > 1e-12
    denom = np.sqrt(np.maximum(gamma * gamma - 1.0, _ACOSH_GUARD))
    dot_uc = np.einsum("...ki,...i->...k", cands, u)
    u_sq = (1.0 - alpha)[..., None]
    c_sq = 1.0 - beta
    alpha = alpha[..., None]
    coeff_u = np.where(live, 4.0 / (beta * denom), 0.0) * weights
    grad_u = (
        np.sum(coeff_u * (c_sq - 2.0 * dot_uc + 1.0), axis=-1)[..., None] / alpha**2 * u
        - np.einsum("...k,...ki->...i", coeff_u, cands) / alpha
    )
    coeff_c = np.where(live, 4.0 / (alpha * denom), 0.0) * weights
    grad_c = (
        (coeff_c * (u_sq - 2.0 * dot_uc + 1.0) / beta**2)[..., None] * cands
        - (coeff_c / beta)[..., None] * u[..., None, :]
    )
    return grad_u, grad_c


@dataclass
class PoincareConfig:
    epochs: int = 50
    lr: float = 0.1
    negatives: int = 10
    burn_in_epochs: int = 10
    burn_in_lr_factor: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.negatives, self.burn_in_epochs) < 0:
            raise ConfigError("poincare epochs, negatives and burn_in_epochs must be >= 0")
        if not min(self.lr, self.burn_in_lr_factor) > 0:
            raise ConfigError("poincare lr and burn_in_lr_factor must be positive")
        if self.seed < 0:
            raise ConfigError(f"poincare seed must be >= 0, got {self.seed}")


@dataclass
class HyperbolicEmbeddingTable:
    """Frozen title -> ball point map produced by training.

    `history` holds one entry per training epoch: the mean -log p(parent)
    over the epoch's pairs (`loss`) and the rows projected back inside the
    ball (`clamped_rows`). A loaded table has none.
    """

    dim: int
    seed: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)
    history: list[dict] = field(default_factory=list)

    def export_tsv(self, path) -> None:
        write_vectors(path, f"#poincare m={self.dim} seed={self.seed}", self.vectors)

    @classmethod
    def load_tsv(cls, path) -> "HyperbolicEmbeddingTable":
        dim, seed, rows = read_vectors(path, "#poincare", "m", "seed", int)
        table = cls(dim=dim, seed=seed)
        for lineno, title, vec in rows:
            if np.abs(vec).max() >= 1.0 or float(np.linalg.norm(vec)) >= 1.0:
                raise DataError(f"{path}:{lineno}: point is not inside the unit ball")
            table.vectors[title] = vec
        return table


class _NegativeSampler:
    """Distinct negatives drawn uniformly from each child's non-parents, for
    a block of children at once.

    The non-parents are never listed. With B the child's sorted parents, its
    j-th non-parent is j + #{i : B_i - i <= j}; one `searchsorted` over every
    child's (B_i - i), offset by child index so that the keys stay sorted,
    counts that for a whole block. Memory is one key per distinct pair.
    """

    def __init__(self, pair_idx: np.ndarray, n: int):
        links = np.unique(pair_idx, axis=0)  # distinct (child, parent), sorted
        parents = np.bincount(links[:, 0], minlength=n)
        self._starts = np.concatenate(([0], np.cumsum(parents)))
        rank = np.arange(len(links)) - self._starts[links[:, 0]]
        self._stride = n + 1
        self._keys = links[:, 0] * self._stride + links[:, 1] - rank
        self.pool_sizes = n - parents

    def draw(self, rng: np.random.Generator, children: np.ndarray, negatives: int):
        """(title indices, validity mask), both (len(children), K): row r holds
        min(negatives, pool size) distinct non-parents of children[r] in its
        valid columns. The child itself is a legal draw."""
        pool = self.pool_sizes[children]
        k = np.minimum(negatives, pool)
        width = int(k.max())
        valid = np.arange(width) < k[:, None]
        # Floyd's algorithm: column i draws from [0, pool - k + i] and takes
        # that bound instead when it repeats an earlier column, which leaves
        # each row a uniform k-subset of [0, pool). Rows whose draws are all
        # distinct need no replacement, so only the others are walked.
        bounds = (pool - k)[:, None] + np.arange(width)
        picks = np.where(valid, rng.integers(0, bounds + 1), -1 - np.arange(width))
        ordered = np.sort(picks, axis=1)
        for r in np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1)):
            row = picks[r]
            for i in range(1, k[r]):
                if row[i] in row[:i]:
                    row[i] = bounds[r, i]
        picks[~valid] = 0
        query = children[:, None] * self._stride + picks
        skipped = np.searchsorted(self._keys, query, side="right") - self._starts[children, None]
        return picks + skipped, valid


def _rsgd_step(
    vectors: np.ndarray,
    block: np.ndarray,
    sampler: _NegativeSampler,
    rng: np.random.Generator,
    negatives: int,
    lr: float,
) -> tuple[float, int]:
    """One Riemannian SGD step on a block of (child, parent) index rows.

    Updates `vectors` in place; returns the block's summed -log p(parent)
    and the number of rows the projection moved.
    """
    children = block[:, 0]
    negs, valid = sampler.draw(rng, children, negatives)
    cand_idx = np.concatenate((block[:, 1:], negs), axis=1)
    valid = np.concatenate((np.ones((len(block), 1), dtype=bool), valid), axis=1)
    u = vectors[children]
    cands = vectors[cand_idx]
    dist, alpha, beta, gamma = _distance_batch(u, cands)
    nearest = np.where(valid, dist, np.inf).min(axis=1, keepdims=True)
    e = np.where(valid, np.exp(nearest - dist), 0.0)
    total = e.sum(axis=1, keepdims=True)
    loss = float(np.sum(dist[:, :1] - nearest + np.log(total)))
    coeff = -e / total  # d loss / d dist: one-hot parent minus softmax
    coeff[:, 0] += 1.0
    grad_u, grad_c = _distance_gradients(u, cands, alpha, beta, gamma, coeff)

    m = vectors.shape[1]
    rows, slot = np.unique(np.concatenate((children, cand_idx.ravel())), return_inverse=True)
    step = np.concatenate((grad_u, grad_c.reshape(-1, m)))
    # scatter-add over a flat view: one-dimensional `np.add.at` is the fast one
    grad = np.zeros(len(rows) * m)
    np.add.at(grad, (slot[:, None] * m + np.arange(m)).ravel(), step.ravel())
    x = vectors[rows]
    x -= lr * riemannian_rescale(x, grad.reshape(-1, m))
    if not np.all(np.isfinite(x)):
        raise NumericError("train_poincare: an update produced non-finite coordinates")
    clamped = 0
    for r in np.flatnonzero(np.einsum("ij,ij->i", x, x) >= _NEAR_LIMIT_SQ):
        projected = project_to_ball(x[r])
        clamped += not np.array_equal(projected, x[r])
        x[r] = projected
    vectors[rows] = x
    return loss, clamped


def train_poincare(
    pairs: Sequence[ParentChildPair],
    m: int,
    config: PoincareConfig = PoincareConfig(),
    on_epoch: Optional[Callable[[int, dict[str, np.ndarray]], None]] = None,
) -> HyperbolicEmbeddingTable:
    """Train ball embeddings from (child, parent) pairs.

    Loss per pair is a softmax over distances from the child to the parent
    plus min(`config.negatives`, pool) distinct negatives drawn uniformly
    from the pool of titles that are not parents of that child. Each epoch
    shuffles the pairs and takes one mini-batched Riemannian SGD step per
    block of `_BATCH_PAIRS` of them. Fully deterministic for a fixed seed.
    """
    if m < 2:
        raise ConfigError(f"poincare dimension must be >= 2, got {m}")
    if not pairs:
        raise DegenerateInputError("train_poincare: empty pair list")

    titles = sorted({t for pair in pairs for t in pair})
    index = {t: i for i, t in enumerate(titles)}
    pair_idx = np.array(
        [(index[p.child], index[p.parent]) for p in pairs], dtype=np.intp
    )
    n = len(titles)
    rng = np.random.default_rng(config.seed)
    vectors = rng.uniform(-0.001, 0.001, size=(n, m))
    sampler = _NegativeSampler(pair_idx, n)

    history = []
    for epoch in range(config.epochs):
        lr = config.lr * (config.burn_in_lr_factor if epoch < config.burn_in_epochs else 1.0)
        order = rng.permutation(len(pairs))
        loss, clamped = 0.0, 0
        for start in range(0, len(order), _BATCH_PAIRS):
            block = pair_idx[order[start : start + _BATCH_PAIRS]]
            block_loss, block_clamped = _rsgd_step(
                vectors, block, sampler, rng, config.negatives, lr
            )
            loss += block_loss
            clamped += block_clamped
        history.append({"loss": loss / len(pairs), "clamped_rows": clamped})
        if on_epoch is not None:
            on_epoch(epoch, {t: vectors[index[t]] for t in titles})

    return HyperbolicEmbeddingTable(
        dim=m,
        seed=config.seed,
        vectors={t: vectors[index[t]].copy() for t in titles},
        history=history,
    )


def mean_parent_rank(table: HyperbolicEmbeddingTable, pairs: Sequence[ParentChildPair]) -> float:
    """Mean rank of each pair's parent among all other nodes by distance from the child."""
    if not pairs:
        raise DegenerateInputError("mean_parent_rank: empty pair list")
    titles = sorted(table.vectors)
    matrix = np.stack([table.vectors[t] for t in titles])
    index = {t: i for i, t in enumerate(titles)}
    parents_of: dict[int, list[int]] = {}
    for pair in pairs:
        parents_of.setdefault(index[pair.child], []).append(index[pair.parent])
    ranks = []
    for child, parents in parents_of.items():
        dist = _distance_batch(matrix[child], matrix)[0]
        target = dist[parents]
        # the parent never counts itself (equal distance); the child must be left out
        closer = np.count_nonzero(dist < target[:, None], axis=1) - (dist[child] < target)
        ranks.extend(closer + 1)
    return float(np.mean(ranks))
