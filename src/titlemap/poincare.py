"""Hyperbolic embeddings of job titles on the open unit ball.

Titles are trained from (child, parent) transition pairs with a
negative-sampling softmax over distances and Riemannian SGD: the Euclidean
gradient is rescaled by the inverse metric ((1 - ||x||^2)^2 / 4) and points
are projected back inside the ball after every update. Distances follow

    d(a, b) = arcosh(1 + 2 ||a-b||^2 / ((1 - ||a||^2)(1 - ||b||^2)))

with arcosh(x) = ln(x + sqrt(x^2 - 1)) and the argument clamped to >= 1.

The index work of an epoch is planned in one pass right after its shuffle:
every step's negatives come from one draw, and every step's distinct rows
and scatter slots from one sort. A step then only does arithmetic on the
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .config import PoincareConfig
from .errors import ConfigError, DataError, DegenerateInputError, NumericError
from .formats import VectorTable, read_vectors, write_vectors

if TYPE_CHECKING:
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


def _inverse_metric(x: np.ndarray) -> np.ndarray:
    """(1 - ||x||^2)^2 / 4 for each row of x."""
    sq = np.einsum("...i,...i->...", x, x)
    return (1.0 - sq) ** 2 / 4.0


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
    shaped like u, and with respect to each c_k as the coefficients (a, b),
    shaped (..., K), of a[..., k] * c_k - b[..., k] * u.

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
    return grad_u, coeff_c * (u_sq - 2.0 * dot_uc + 1.0) / beta**2, coeff_c / beta


@dataclass(eq=False)
class HyperbolicEmbeddingTable(VectorTable):
    """The ball points of titles, as `train_poincare` trains them.

    `history` holds one entry per training epoch: the mean -log p(parent)
    over the epoch's pairs (`loss`) and the rows projected back inside the
    ball (`clamped_rows`). A loaded table has none.
    """

    seed: int
    history: list[dict] = field(default_factory=list)

    def export_tsv(self, path) -> None:
        write_vectors(path, f"#poincare m={self.dim} seed={self.seed}", self)

    @classmethod
    def load_tsv(cls, path) -> "HyperbolicEmbeddingTable":
        table, seed, linenos = read_vectors(path, "#poincare", "m", "seed", int)
        points = table.matrix
        outside = np.flatnonzero(np.einsum("ij,ij->i", points, points) >= 1.0)
        if len(outside):
            raise DataError(f"{path}:{linenos[outside[0]]}: point is not inside the unit ball")
        return cls(table.titles, points, seed=seed)


def _distinct_pairs(pair_idx: np.ndarray, n: int) -> np.ndarray:
    """The distinct (child, parent) rows of `pair_idx`, sorted, as
    `np.unique(pair_idx, axis=0)` returns them. Found from one sort of the
    keys child * n + parent instead: np.unique imports numpy.ma (about 10 ms
    and 0.6 MB) on first use."""
    keys = np.sort(pair_idx[:, 0] * n + pair_idx[:, 1])
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return np.stack(np.divmod(keys[first], n), axis=1)


class _NegativeSampler:
    """Distinct negatives drawn uniformly from each child's non-parents, for
    a whole epoch of children at once.

    The non-parents are never listed. With B the child's sorted parents, its
    j-th non-parent is j + #{i : B_i - i <= j}; one `searchsorted` over every
    child's (B_i - i), offset by child index so that the keys stay sorted,
    counts that for the whole epoch. Memory is one key per distinct pair.
    """

    def __init__(self, pair_idx: np.ndarray, n: int):
        links = _distinct_pairs(pair_idx, n)
        parents = np.bincount(links[:, 0], minlength=n)
        self._starts = np.concatenate(([0], np.cumsum(parents)))
        rank = np.arange(len(links)) - self._starts[links[:, 0]]
        self._stride = n + 1
        self._keys = links[:, 0] * self._stride + links[:, 1] - rank
        self.pool_sizes = n - parents

    def draw(self, rng: np.random.Generator, children: np.ndarray, negatives: int, batch: int):
        """Negatives for an epoch's children, taken in blocks of `batch`:
        (title indices, validity mask), both (len(children), W), and each
        block's width. Row r holds min(negatives, pool size) distinct
        non-parents of children[r] in its valid columns; a block is as wide
        as the most negatives any of its rows takes, W is the widest block,
        and columns beyond a row's block are invalid. The child itself is a
        legal draw.

        Each block draws all of its columns, valid or not, row by row, in
        one `rng.integers` call over every block's bounds: the generator
        yields the values and ends in the state that one call per block
        would leave.
        """
        pool = self.pool_sizes[children]
        k = np.minimum(negatives, pool)
        widths = np.maximum.reduceat(k, np.arange(0, len(k), batch))
        cols = np.arange(widths.max())
        drawn = cols < np.repeat(widths, batch)[: len(k), None]
        valid = cols < k[:, None]
        # Floyd's algorithm: column i draws from [0, pool - k + i] and takes
        # that bound instead when it repeats an earlier column, which leaves
        # each row a uniform k-subset of [0, pool). Rows whose draws are all
        # distinct need no replacement; the others are repaired column by
        # column, each column against the final values of the earlier ones.
        low = pool - k
        picks = np.broadcast_to(-1 - cols, drawn.shape).copy()  # distinct, below any draw
        picks[valid] = rng.integers(0, (low[:, None] + cols)[drawn] + 1)[valid[drawn]]
        repeats = np.flatnonzero((np.diff(np.sort(picks, axis=1), axis=1) == 0).any(axis=1))
        sub = picks[repeats]
        for i in range(1, len(cols)):
            hit = (sub[:, :i] == sub[:, i, None]).any(axis=1)
            sub[hit, i] = low[repeats[hit]] + i
        picks[repeats] = sub
        picks[~valid] = 0
        picks += np.searchsorted(self._keys, children[:, None] * self._stride + picks, side="right")
        picks -= self._starts[children, None]
        return picks, valid, widths


def _plan_epoch(
    block_pairs: np.ndarray,
    sampler: _NegativeSampler,
    rng: np.random.Generator,
    negatives: int,
    batch: int,
    n: int,
) -> list[tuple[np.ndarray, ...]]:
    """The index work of an epoch's steps, done in one pass: for each block
    of `batch` consecutive (child, parent) rows of `block_pairs`, the
    arguments (children, cand_idx, valid, rows, slot) of its `_rsgd_step`.

    cand_idx holds each child's parent, then its negatives, and `valid`
    masks the columns that hold none. A step scatters its gradient rows,
    each child's and then each candidate's, onto the distinct titles `rows`
    it touches, sorted: row i onto rows[slot[i]]. One sort of the keys
    block * n + title finds them for every block at once (`np.unique` finds
    the same, but holds about seven key-sized arrays at once).
    """
    count = len(block_pairs)
    children = np.ascontiguousarray(block_pairs[:, 0])
    negs, valid, widths = sampler.draw(rng, children, negatives, batch)
    starts = np.arange(0, count, batch)
    sizes = np.diff(starts, append=count)
    # each block's candidates, row after row, as wide as its widest row
    keep = np.arange(1 + negs.shape[1]) <= np.repeat(widths, sizes)[:, None]
    cand_idx = np.concatenate((block_pairs[:, 1:], negs), axis=1)[keep]
    valid = np.concatenate((np.ones((count, 1), dtype=bool), valid), axis=1)[keep]
    del negs, keep  # each `del` here lowers the plan's peak by a key-sized array
    cand_sizes = sizes * (1 + widths)
    cand_ends = np.cumsum(cand_sizes)
    spans = list(zip(starts.tolist(), (starts + sizes).tolist(),
                     (cand_ends - cand_sizes).tolist(), cand_ends.tolist()))

    # A block's titles in the order of its gradient rows, keyed block * n +
    # title: sorted, a block's keys are consecutive, so a key's rank among
    # the distinct keys, less the ranks of the blocks before it, is the
    # title's slot in its block's rows.
    keys = np.concatenate([
        part for start, end, c_start, c_end in spans
        for part in (children[start:end], cand_idx[c_start:c_end])
    ])
    entries = sizes + cand_sizes
    offsets = np.arange(len(starts)) * n
    keys += np.repeat(offsets, entries)
    order = np.argsort(keys)
    keys = keys[order]
    distinct = np.concatenate(([True], keys[1:] != keys[:-1]))
    rows = keys[distinct]
    del keys
    firsts = np.searchsorted(rows, offsets)
    rows %= n
    rank = np.cumsum(distinct)
    rank -= np.repeat(firsts + 1, entries)
    slot = np.empty_like(rank)
    slot[order] = rank

    lasts = np.append(firsts[1:], len(rows))
    steps = []
    for (start, end, c_start, c_end), first, last in zip(spans, firsts.tolist(), lasts.tolist()):
        shape = (end - start, -1)
        steps.append((
            children[start:end],
            cand_idx[c_start:c_end].reshape(shape),
            valid[c_start:c_end].reshape(shape),
            rows[first:last],
            slot[start + c_start : end + c_end],
        ))
    return steps


def _rsgd_step(
    vectors: np.ndarray,
    children: np.ndarray,
    cand_idx: np.ndarray,
    valid: np.ndarray,
    rows: np.ndarray,
    slot: np.ndarray,
    lr: float,
) -> tuple[float, int]:
    """One Riemannian SGD step on a block of children, each against its
    candidates `cand_idx` (its parent, then its negatives) where `valid`.

    Its index work is planned by `_plan_epoch`, so the step only does
    arithmetic on `vectors`, which it updates in place. Returns the block's
    summed -log p(parent) and the number of rows the projection moved.
    """
    m = vectors.shape[1]
    u = vectors[children]
    cands = vectors[cand_idx]
    dist, alpha, beta, gamma = _distance_batch(u, cands)
    nearest = np.where(valid, dist, np.inf).min(axis=1, keepdims=True)
    e = np.where(valid, np.exp(nearest - dist), 0.0)
    total = e.sum(axis=1, keepdims=True)
    loss = float(np.sum(dist[:, :1] - nearest + np.log(total)))
    coeff = -e / total  # d loss / d dist: one-hot parent minus softmax
    coeff[:, 0] += 1.0
    grad_u, along_c, along_u = _distance_gradients(u, cands, alpha, beta, gamma, coeff)

    # the gradient rows to scatter: each child's, then its candidates'
    grad_c = cands * along_c[..., None]
    grad_c -= along_u[..., None] * u[:, None, :]
    step = np.concatenate((grad_u, grad_c.reshape(-1, m)))
    # scatter-add over a flat view: one-dimensional `np.add.at` is the fast one
    grad = np.zeros((len(rows), m))
    np.add.at(grad.reshape(-1), (slot[:, None] * m + np.arange(m)).reshape(-1), step.reshape(-1))
    x = vectors[rows]
    # the Riemannian step lr * (inverse metric * grad)
    grad *= _inverse_metric(x)[:, None]
    grad *= lr
    x -= grad
    if not np.all(np.isfinite(x)):
        raise NumericError("train_poincare: an update produced non-finite coordinates")
    clamped = 0
    for r in np.flatnonzero(np.einsum("ij,ij->i", x, x) >= _NEAR_LIMIT_SQ):
        projected = project_to_ball(x[r])
        clamped += not np.array_equal(projected, x[r])
        x[r] = projected
    vectors[rows] = x
    return loss, clamped


def _train_epoch(
    vectors: np.ndarray,
    pair_idx: np.ndarray,
    sampler: _NegativeSampler,
    rng: np.random.Generator,
    negatives: int,
    lr: float,
    batch: int,
) -> tuple[float, int]:
    """Shuffle the pairs, plan the epoch and take its steps; returns the
    summed -log p(parent) and the rows clamped."""
    order = rng.permutation(len(pair_idx))
    plan = _plan_epoch(pair_idx[order], sampler, rng, negatives, batch, len(vectors))
    loss, clamped = 0.0, 0
    for step in plan:
        step_loss, step_clamped = _rsgd_step(vectors, *step, lr)
        loss += step_loss
        clamped += step_clamped
    return loss, clamped


def train_poincare(
    pairs: Sequence[ParentChildPair],
    m: int,
    config: PoincareConfig = PoincareConfig(),
    on_epoch: Optional[Callable[[int, HyperbolicEmbeddingTable], None]] = None,
) -> HyperbolicEmbeddingTable:
    """Train ball embeddings from (child, parent) pairs.

    Loss per pair is a softmax over distances from the child to the parent
    plus min(`config.negatives`, pool) distinct negatives drawn uniformly
    from the pool of titles that are not parents of that child. Each epoch
    shuffles the pairs, plans the negatives and scatter indices of all its
    steps in one pass, then takes one mini-batched Riemannian SGD step per
    block of `_BATCH_PAIRS` of them. Fully deterministic for a fixed seed.
    `on_epoch` sees the table being trained after each epoch.
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
    table = HyperbolicEmbeddingTable(titles, vectors, seed=config.seed)
    sampler = _NegativeSampler(pair_idx, n)
    # read at call time: the block size is not fixed at import
    batch = min(_BATCH_PAIRS, len(pairs))

    for epoch in range(config.epochs):
        lr = config.lr * (config.burn_in_lr_factor if epoch < config.burn_in_epochs else 1.0)
        loss, clamped = _train_epoch(vectors, pair_idx, sampler, rng, config.negatives, lr, batch)
        table.history.append({"loss": loss / len(pairs), "clamped_rows": clamped})
        if on_epoch is not None:
            on_epoch(epoch, table)
    return table
