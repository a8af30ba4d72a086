"""The downstream harnesses: link prediction on the career-move links of a
pairs file and next-job mobility. The ranking metrics of the mapping task
(hit@n, precision@n, NDCG@n) sit beside `rank_classes` in `model`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import numerics as nx
from .errors import ConfigError, DataError, EvaluationError, MissingTitleError, NumericError
from .formats import VectorTable
from .graph import ParentChildPair
from .numerics import Tensor


# ---------------------------------------------------------------------------
# Link prediction (removed-edge protocol)

EDGE_OPERATORS = ("average", "hadamard", "weighted_l1", "weighted_l2")
CLASSIFIER_LR = 0.05  # Adam's step size for each operator's logistic classifier


@dataclass
class LinkSplit:
    """Each part is an int array of (child, parent) rows of indices into
    `nodes`; `sampler` draws negatives from the ordered node pairs that are
    neither self-pairs nor links."""

    nodes: list
    train_edges: np.ndarray
    dev_pos: np.ndarray
    dev_neg: np.ndarray
    test_pos: np.ndarray
    test_neg: np.ndarray
    sampler: PairSampler


def make_link_split(pairs: Sequence[ParentChildPair], seed: int = 0) -> LinkSplit:
    """Split the distinct (child, parent) links of `pairs`, as `graph.load_pairs`
    reads them: hold out 20% for test, then 20% of the rest for dev; the
    remainder are the train links. The nodes are the links' titles, sorted,
    the titles `train_poincare` embeds from the same pairs. Test and dev get
    as many negatives as positives, drawn like the train negatives of
    `link_prediction_auc`: i.i.d. uniform over the ordered node pairs that
    are neither self-pairs nor links."""
    nodes = sorted({title for pair in pairs for title in pair})
    index = {title: i for i, title in enumerate(nodes)}
    links = sorted({(index[pair.child], index[pair.parent]) for pair in pairs})
    if len(links) < 10:
        raise DataError(f"link split needs >= 10 distinct links, got {len(links)}")
    links = np.array(links, dtype=np.int64)
    sampler = PairSampler(len(nodes), links)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(links))
    n_test = int(len(links) * 0.2)
    n_dev = int((len(links) - n_test) * 0.2)
    test_neg = np.stack(sampler.sample(n_test, rng), axis=1)
    dev_neg = np.stack(sampler.sample(n_dev, rng), axis=1)
    return LinkSplit(
        nodes=nodes,
        train_edges=links[np.sort(order[n_test + n_dev :])],
        dev_pos=links[order[n_test : n_test + n_dev]],
        dev_neg=dev_neg,
        test_pos=links[order[:n_test]],
        test_neg=test_neg,
        sampler=sampler,
    )


def edge_embed(
    u_vec: np.ndarray, v_vec: np.ndarray, operator: str, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The edge feature of each (u, v) row pair, written into `out` if given."""
    if operator == "average":
        return np.divide(np.add(u_vec, v_vec, out=out), 2.0, out=out)
    if operator == "hadamard":
        return np.multiply(u_vec, v_vec, out=out)
    if operator == "weighted_l1":
        return np.abs(np.subtract(u_vec, v_vec, out=out), out=out)
    if operator == "weighted_l2":
        return np.square(np.subtract(u_vec, v_vec, out=out), out=out)
    raise ConfigError(f"unknown edge operator {operator!r}")


def auc_score(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Rank-statistic AUC with average ranks for ties (equals the pairwise
    P(score+ > score-) + 0.5 P(=) count). Every score must be finite."""
    pos_scores = np.asarray(pos_scores, dtype=np.float64)
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    if pos_scores.size == 0 or neg_scores.size == 0:
        raise EvaluationError("AUC needs both positive and negative examples")
    scores = np.concatenate([pos_scores, neg_scores])
    bad = scores.size - np.count_nonzero(np.isfinite(scores))
    if bad:
        raise NumericError(f"AUC: {bad} of {scores.size} scores are not finite")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # each run of equal sorted scores [first, last] shares the average of its 1-based ranks
    first = np.flatnonzero(np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1])))
    last = np.append(first[1:], scores.size) - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    n_pos = pos_scores.size
    rank_sum = ranks[:n_pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * neg_scores.size))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_MAX_DRAW = 1 << 16  # pairs per rejection round, which bounds its memory


class PairSampler:
    """I.i.d. uniform ordered pairs (u, v) of node indices in range(n), with
    u != v and (u, v) not a forbidden pair; repeats allowed.

    Rejection sampling on pair ids u * n + v: the forbidden ids are sorted once
    and each round's draws are looked up with one `searchsorted`.
    """

    def __init__(self, n: int, forbidden: Sequence[tuple[int, int]]):
        u, v = np.asarray(forbidden, dtype=np.int64).reshape(-1, 2).T
        off_diagonal = u != v
        self.n = n
        self.forbidden = np.sort(u[off_diagonal] * n + v[off_diagonal])
        # counted without np.unique, which imports numpy.ma (about 1 MB) on first use
        distinct = np.count_nonzero(self.forbidden[1:] != self.forbidden[:-1]) + 1
        self.allowed = n * (n - 1) - (distinct if self.forbidden.size else 0)
        if self.allowed < 1:
            raise DataError(
                f"no ordered pair of the {n} node(s) is free to sample as a negative"
            )

    def sample(self, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """`count` pairs as two index arrays, taken in draw order from the
        accepted draws, so the result is a function of the rng state alone."""
        n, forbidden = self.n, self.forbidden
        rate = self.allowed / (n * n)
        out = np.empty((2, count), dtype=np.int64)
        filled = 0
        while filled < count:
            need = count - filled
            # acceptances are binomial(m, rate): aim 4 standard deviations
            # above `need` so that a second round is rare
            m = min(_MAX_DRAW, math.ceil((need + 4 * math.sqrt(need * (1 - rate)) + 1) / rate))
            uv = rng.integers(n, size=(2, m))
            ids = uv[0] * n + uv[1]
            keep = uv[0] != uv[1]
            if forbidden.size:
                at = np.minimum(np.searchsorted(forbidden, ids), forbidden.size - 1)
                keep &= forbidden[at] != ids
            kept = uv[:, keep][:, :need]
            out[:, filled : filled + kept.shape[1]] = kept
            filled += kept.shape[1]
        return out[0], out[1]


@dataclass
class LinkPredictionReport:
    per_operator: dict  # operator -> {"dev_auc": float, "test_auc": float}
    best_operator: str
    test_auc: float


def link_prediction_auc(
    split: LinkSplit, table: VectorTable, seed: int = 0, epochs: int = 100
) -> LinkPredictionReport:
    """Fit a logistic classifier on train edges per operator, select the
    operator on dev AUC, report test AUC. Train negatives are resampled 1:1
    each epoch from `split.sampler`. Every node needs a row in `table`."""
    matrix, missing = table.gather(split.nodes)
    if missing.size:
        raise MissingTitleError(
            f"no vector for {missing.size} node(s): {[split.nodes[i] for i in missing[:10]]}"
        )

    def features(part: np.ndarray, operator: str) -> np.ndarray:
        return edge_embed(matrix[part[:, 0]], matrix[part[:, 1]], operator)

    rng = np.random.default_rng(seed)
    n_pos, dim = len(split.train_edges), matrix.shape[1]
    # the train positives, then one epoch's sampled negatives
    feats = np.empty((2 * n_pos, dim))
    y = np.concatenate([np.ones(n_pos), np.zeros(n_pos)])
    neg_ends = (np.empty((n_pos, dim)), np.empty((n_pos, dim)))
    per_operator = {}
    for operator in EDGE_OPERATORS:
        feats[:n_pos] = features(split.train_edges, operator)
        w = Tensor(np.zeros(dim), requires_grad=True)
        b = Tensor(np.zeros(1), requires_grad=True)
        optimizer = nx.Adam([w, b], lr=CLASSIFIER_LR)
        for _ in range(epochs):
            for out, drawn in zip(neg_ends, split.sampler.sample(n_pos, rng)):
                np.take(matrix, drawn, axis=0, out=out, mode="clip")
            edge_embed(*neg_ends, operator, out=feats[n_pos:])
            p = _sigmoid(feats @ w.data + b.data[0])
            resid = (p - y) / len(y)
            w.grad = feats.T @ resid
            b.grad = np.array([resid.sum()])
            optimizer.step()

        def score(part):
            return features(part, operator) @ w.data + b.data[0]

        dev_auc = auc_score(score(split.dev_pos), score(split.dev_neg))
        test_auc = auc_score(score(split.test_pos), score(split.test_neg))
        per_operator[operator] = {"dev_auc": dev_auc, "test_auc": test_auc}

    best_operator = max(EDGE_OPERATORS, key=lambda op: per_operator[op]["dev_auc"])
    return LinkPredictionReport(
        per_operator=per_operator,
        best_operator=best_operator,
        test_auc=per_operator[best_operator]["test_auc"],
    )


# ---------------------------------------------------------------------------
# Job-mobility harness (first-order frequency predictor)

def map_at_10_mobility(
    trajectories: Sequence[Sequence[str]],
    mapper: Optional[Callable[[str], str]] = None,
) -> float:
    """MAP@10 for predicting each trajectory's final title from its predecessor.

    The predictor is a first-order transition-frequency model fit on all
    non-final transitions; `mapper` (e.g. a lookup of the trained model's
    top-1) is applied to every title occurrence first when given. The
    frequency model is a deliberate stand-in: the quantity of interest is how
    much the mapping preprocessing helps it.
    """
    usable = [list(t) for t in trajectories if len(t) >= 2]
    if not usable:
        raise DataError("mobility evaluation needs trajectories with >= 2 jobs")
    if mapper is not None:
        usable = [[mapper(t) for t in seq] for seq in usable]

    counts: dict = {}
    for seq in usable:
        for prev, nxt in zip(seq[:-2], seq[1:-1]):
            row = counts.setdefault(prev, {})
            row[nxt] = row.get(nxt, 0) + 1

    ap_values = []
    for seq in usable:
        prev, target = seq[-2], seq[-1]
        successors = counts.get(prev, {})
        ranking = sorted(successors, key=lambda t: (-successors[t], t))[:10]
        ap = 0.0
        for rank, title in enumerate(ranking, start=1):
            if title == target:
                ap = 1.0 / rank
                break
        ap_values.append(ap)
    return float(np.mean(ap_values))
