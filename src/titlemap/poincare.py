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

from .errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    DomainError,
    FormatError,
    NumericError,
)
from .graph import ParentChildPair

BOUNDARY_EPS = 1e-5
_ACOSH_GUARD = 1e-30


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


def conformal_factor(x: np.ndarray) -> float:
    """Scale factor 2 / (1 - ||x||^2); the metric tensor is its square."""
    sq = _check_inside(np.asarray(x, dtype=np.float64), "conformal_factor")
    return 2.0 / (1.0 - sq)


def riemannian_rescale(x: np.ndarray, euclid_grad: np.ndarray) -> np.ndarray:
    """Rescale a Euclidean gradient by the inverse metric at x."""
    x = np.asarray(x, dtype=np.float64)
    sq = float(np.dot(x, x))
    return ((1.0 - sq) ** 2 / 4.0) * np.asarray(euclid_grad, dtype=np.float64)


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
    """Distances and intermediates from one point to a stack of candidates."""
    alpha = 1.0 - float(np.dot(u, u))
    beta = 1.0 - np.einsum("ij,ij->i", cands, cands)
    diff = u[None, :] - cands
    sq_diff = np.einsum("ij,ij->i", diff, diff)
    gamma = 1.0 + 2.0 * sq_diff / (alpha * beta)
    gamma = np.maximum(gamma, 1.0)
    dist = np.log(gamma + np.sqrt(gamma * gamma - 1.0))
    return dist, alpha, beta, gamma


def _distance_gradients(u, cands, alpha, beta, gamma):
    """d d(u, c_i)/du and /dc_i, rows aligned with cands.

    Coincident points (gamma ~ 1) take the zero limit gradient explicitly:
    near the arcosh singularity the analytic 0/0 would otherwise amplify
    float round-off.
    """
    live = (gamma - 1.0) > 1e-12
    denom = np.sqrt(np.maximum(gamma * gamma - 1.0, _ACOSH_GUARD))
    dot_uc = cands @ u
    c_sq = 1.0 - beta
    u_sq = 1.0 - alpha
    coeff_u = np.where(live, 4.0 / (beta * denom), 0.0)
    grad_u = coeff_u[:, None] * (
        ((c_sq - 2.0 * dot_uc + 1.0) / alpha**2)[:, None] * u[None, :]
        - cands / alpha
    )
    coeff_c = np.where(live, 4.0 / (alpha * denom), 0.0)
    grad_c = coeff_c[:, None] * (
        ((u_sq - 2.0 * dot_uc + 1.0) / (beta**2))[:, None] * cands
        - u[None, :] / beta[:, None]
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
        if min(self.epochs, self.negatives) < 0:
            raise ConfigError("poincare epochs and negatives must be >= 0")
        if not self.lr > 0:
            raise ConfigError("poincare lr must be positive")


@dataclass
class HyperbolicEmbeddingTable:
    """Frozen title -> ball point map produced by training."""

    dim: int
    seed: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)

    def __contains__(self, title: str) -> bool:
        return title in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def get(self, title: str) -> np.ndarray:
        return self.vectors[title]

    def export_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"#poincare m={self.dim} seed={self.seed}\n")
            for title in sorted(self.vectors):
                coords = ",".join(repr(float(v)) for v in self.vectors[title])
                fh.write(f"{title}\t{coords}\n")

    @classmethod
    def load_tsv(cls, path) -> "HyperbolicEmbeddingTable":
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            m = _parse_poincare_header(header, path)
            dim, seed = m
            table = cls(dim=dim, seed=seed)
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 2:
                    raise FormatError(f"{path}:{lineno}: expected title<TAB>coords")
                title, coord_str = parts
                vec = np.array([float(tok) for tok in coord_str.split(",")], dtype=np.float64)
                if vec.shape[0] != dim:
                    raise FormatError(
                        f"{path}:{lineno}: expected {dim} coordinates, got {vec.shape[0]}"
                    )
                if float(np.linalg.norm(vec)) >= 1.0:
                    raise DataError(f"{path}:{lineno}: point is not inside the unit ball")
                if title in table.vectors:
                    raise FormatError(f"{path}:{lineno}: duplicate title {title!r}")
                table.vectors[title] = vec
        return table


def _parse_poincare_header(header: str, path) -> tuple[int, int]:
    parts = header.split()
    if len(parts) != 3 or parts[0] != "#poincare":
        raise FormatError(f"{path}:1: expected '#poincare m=<dim> seed=<seed>' header")
    try:
        dim = int(parts[1].removeprefix("m="))
        seed = int(parts[2].removeprefix("seed="))
    except ValueError:
        raise FormatError(f"{path}:1: malformed header {header!r}") from None
    return dim, seed


def train_poincare(
    pairs: Sequence[ParentChildPair],
    m: int,
    config: PoincareConfig = PoincareConfig(),
    on_epoch: Optional[Callable[[int, dict[str, np.ndarray]], None]] = None,
) -> HyperbolicEmbeddingTable:
    """Train ball embeddings from (child, parent) pairs.

    Loss per pair is a softmax over distances from the child to the parent
    plus `config.negatives` negatives drawn uniformly from titles that are
    not parents of that child. Fully deterministic for a fixed seed.
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
    parents_of: dict[int, set[int]] = {}
    for child, parent in pair_idx:
        parents_of.setdefault(int(child), set()).add(int(parent))

    n = len(titles)
    rng = np.random.default_rng(config.seed)
    vectors = rng.uniform(-0.001, 0.001, size=(n, m))

    # Uniform negatives over non-parents of the child (the child itself is a
    # legal draw; its zero-gradient self-distance term is harmless).
    populations: dict[int, np.ndarray] = {}

    def negative_pool(child: int) -> np.ndarray:
        pool = populations.get(child)
        if pool is None:
            banned = parents_of[child]
            pool = np.array([i for i in range(n) if i not in banned], dtype=np.intp)
            populations[child] = pool
        return pool

    for epoch in range(config.epochs):
        lr = config.lr * (config.burn_in_lr_factor if epoch < config.burn_in_epochs else 1.0)
        order = rng.permutation(len(pairs))
        for step in order:
            child, parent = int(pair_idx[step, 0]), int(pair_idx[step, 1])
            pool = negative_pool(child)
            k = min(config.negatives, pool.shape[0])
            if k > 0:
                negs = rng.choice(pool, size=k, replace=False)
                cand_idx = np.concatenate(([parent], negs))
            else:
                cand_idx = np.array([parent], dtype=np.intp)
            u = vectors[child]
            cands = vectors[cand_idx]
            dist, alpha, beta, gamma = _distance_batch(u, cands)
            shifted = -dist + dist.min()
            e = np.exp(shifted)
            p = e / e.sum()
            coeff = -p
            coeff[0] += 1.0
            grad_u_rows, grad_c_rows = _distance_gradients(u, cands, alpha, beta, gamma)
            grad_u = coeff @ grad_u_rows
            vectors[child] = project_to_ball(u - lr * riemannian_rescale(u, grad_u))
            for row, ci in enumerate(cand_idx):
                c = vectors[ci]
                step_grad = coeff[row] * grad_c_rows[row]
                vectors[ci] = project_to_ball(c - lr * riemannian_rescale(c, step_grad))
        if on_epoch is not None:
            on_epoch(epoch, {t: vectors[index[t]] for t in titles})

    return HyperbolicEmbeddingTable(
        dim=m,
        seed=config.seed,
        vectors={t: vectors[index[t]].copy() for t in titles},
    )


def mean_parent_rank(table: HyperbolicEmbeddingTable, pairs: Sequence[ParentChildPair]) -> float:
    """Mean rank of each pair's parent among all other nodes by distance from the child."""
    if not pairs:
        raise DegenerateInputError("mean_parent_rank: empty pair list")
    titles = sorted(table.vectors)
    matrix = np.stack([table.vectors[t] for t in titles])
    index = {t: i for i, t in enumerate(titles)}
    ranks = []
    for pair in pairs:
        child = index[pair.child]
        parent = index[pair.parent]
        dist, _, _, _ = _distance_batch(matrix[child], matrix)
        target = dist[parent]
        closer = sum(
            1 for i in range(len(titles)) if i not in (child, parent) and dist[i] < target
        )
        ranks.append(closer + 1)
    return float(np.mean(ranks))
