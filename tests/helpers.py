"""Shared oracles and builders for the test suite."""

from __future__ import annotations

import importlib
import itertools
import json
import pkgutil
from dataclasses import dataclass
from datetime import date

import numpy as np

import titlemap
from titlemap import formats
from titlemap import numerics as nx
from titlemap import poincare
from titlemap import reasoning as rs
from titlemap.config import TrainConfig
from titlemap.errors import (
    ConfigError, DataError, DegenerateInputError, DomainError, FormatError, TitlemapError,
)
from titlemap.graph import RECORD_FIELDS, JobRecord, ParentChildPair
from titlemap.model import FeaturePipeline, init_model
from titlemap.semantic import HashedNgramProvider, _token_feature, hashed_ngram_matrix
from titlemap.syntactic import Taxonomy, gram_set


_WORDS = ("data", "software", "sales", "senior", "junior", "lead", "chief", "staff",
          "cloud", "field", "retail", "network")
_ROLES = ("engineer", "analyst", "manager", "designer", "consultant", "officer")


def desk_serving_world(n_titles: int = 600, n_classes: int = 40):
    """A freshly initialized model at the README's desk widths (d_h 32, d_b
    128, d_r 16) over `n_classes` standard titles, its views (no title has a
    topological vector), and `n_titles` distinct keys: above 512, so
    `forward_probabilities` scores them in more than one chunk."""
    standard = [f"{w} {r}" for w, r in itertools.product(_WORDS, _ROLES)][:n_classes]
    raw = [f"{a} {b} {r}" for a, b, r in itertools.product(_WORDS, _WORDS, _ROLES)][:n_titles]
    taxonomy = Taxonomy(titles=standard)
    config = TrainConfig(d_h=32, d_b=128, d_r=16)
    pipeline = FeaturePipeline(
        poincare.HyperbolicEmbeddingTable(dim=config.d_h, seed=0),
        HashedNgramProvider(dimension=config.d_b), taxonomy,
    )
    return init_model(taxonomy, config), pipeline, raw


def record_canonicalize_calls(monkeypatch) -> list[str]:
    """Replace `canonicalize_title` by a recording wrapper in every package
    module that holds it, as the benchmark's tracer does; returns the list of
    raw titles it is then called with."""
    original, calls = formats.canonicalize_title, []

    def recording(raw):
        calls.append(raw)
        return original(raw)

    # Import every module first: then each one that holds the function is
    # patched, and none is first imported while the wrapper is installed,
    # which would leave it holding the wrapper once the patch is undone.
    modules = [titlemap] + [
        importlib.import_module(f"titlemap.{info.name}")
        for info in pkgutil.iter_modules(titlemap.__path__)
    ]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, recording)
    return calls


def line_by_line_load_records(path) -> list[JobRecord]:
    """Oracle of `graph.load_records`: the plain reader it replaced, with one
    `json.loads`, two field-name sets and a lone-surrogate check of every
    string per line. Both must load the same records from a valid file and
    raise the same error, naming the same `path:line`, for a malformed one."""
    records, key_of = [], formats.line_keys(path)
    for lineno, line in formats.read_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}:{lineno}: invalid JSON ({e.msg})") from None
        if not isinstance(obj, dict) or set(obj) != set(RECORD_FIELDS):
            raise FormatError(
                f"{path}:{lineno}: expected fields {list(RECORD_FIELDS)}, got {sorted(obj) if isinstance(obj, dict) else type(obj).__name__}"
            )
        for name in ("person_id", "title", "company_id"):
            if not isinstance(obj[name], str):
                raise FormatError(f"{path}:{lineno}: {name} must be a JSON string, "
                                  f"got {type(obj[name]).__name__}")
        if not all(formats.is_utf8(v) for v in obj.values() if isinstance(v, str)):
            raise FormatError(f"{path}:{lineno}: a field is not valid UTF-8 (lone surrogate)")
        try:
            start = date.fromisoformat(obj["start"])
            end = None if obj["end"] is None else date.fromisoformat(obj["end"])
        except (TypeError, ValueError) as e:
            raise FormatError(f"{path}:{lineno}: bad date ({e})") from None
        key = key_of(obj["title"], lineno)
        try:
            records.append(JobRecord(person_id=obj["person_id"], title=obj["title"],
                                     company_id=obj["company_id"], start=start, end=end,
                                     canonical_title=key))
        except DataError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
    return records


def load_outcome(reader, path):
    """The records `reader` loads from `path`, or the type and text of the
    error it raises."""
    try:
        return reader(path)
    except TitlemapError as e:
        return type(e), str(e)


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


def not_op(e, params):
    """The NOT module applied alone, tanh(e W_notᵀ + b_not): the oracle that
    the clause fold and the regularizer op are checked against."""
    return nx.tanh(nx.matmul(e, nx.transpose(params.not_w)) + params.not_b)


def _sim(a, b):
    # cosine mapped to [0, 1] so every regularizer term is non-negative
    return nx.mul(rs.row_cosine(a, b) + nx.Tensor(1.0), nx.Tensor(0.5))


def taped_regularizers(batch, params):
    """Tape-composed oracle of `logical_regularizers`: r1..r6 and `total`
    built from `not_op`, `or_op` and `row_cosine`, one tape node per op."""
    one = nx.Tensor(1.0)
    true_row = params.true_anchor
    false_row = not_op(true_row, params)
    not_x = not_op(batch, params)
    r1 = nx.tsum(_sim(batch, not_x))
    r2 = nx.tsum(one - _sim(batch, not_op(not_x, params)))
    r3 = nx.tsum(one - _sim(rs.or_op(batch, false_row, params), batch))
    r4 = nx.tsum(one - _sim(rs.or_op(batch, true_row, params), true_row))
    r5 = nx.tsum(one - _sim(rs.or_op(batch, batch, params), batch))
    r6 = nx.tsum(one - _sim(rs.or_op(batch, not_x, params), true_row))
    total = nx.mul(r1 + r2 + r3 + r4 + r5 + r6, nx.Tensor(1.0 / batch.data.shape[0]))
    return rs.RegularizerValues(r1, r2, r3, r4, r5, r6, total)


def broadcast_clause_fold(j_pre, v_pre, params, order, taped):
    """Oracle of `reasoning._clause_fold`: the same fold with each block's
    hidden layer built by one add that broadcasts both operands,
    `np.add(j, v[rows, None], out=h)`. IEEE addition commutes, so value and
    backward must agree bit for bit."""
    n_cand = v_pre.data.shape[0]
    if n_cand == 0:
        raise DegenerateInputError("clause_representation: empty candidate set")
    sequence = np.arange(n_cand) if order is None else np.asarray(order, dtype=np.intp)
    w2, b2, w_not, b_not, w_left, w_right, b_or = (t.data for t in rs._fold_weights(params))
    w_neg = w_not @ w2  # NOT after the event head's linear layer
    b_neg = b2 @ w_not.T + b_not
    # BLAS multiplies by a contiguous right operand faster than by a transposed view
    w_neg_t, w_left_t, w_right_t = (np.ascontiguousarray(w.T) for w in (w_neg, w_left, w_right))
    j, v = j_pre.data, v_pre.data
    steps, (batch, width), d_r = len(sequence), j.shape, w_not.shape[0]
    # the biases repeated per batch row: numpy adds a (batch, d_r) operand
    # to a block over batch·d_r-long runs, a (d_r,) one over d_r-long runs
    bias_neg, bias_or = np.tile(b_neg, (batch, 1)), np.tile(b_or, (batch, 1))
    block = min(steps, rs.fold_block_steps(batch, width))
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
        np.add(j, v[sequence[s : s + n], None], out=h)
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


def _check_inside(x: np.ndarray, name: str) -> float:
    sq = float(np.dot(x, x))
    if sq >= 1.0:
        raise DomainError(f"{name}: point with norm {np.sqrt(sq):.6f} is not inside the unit ball")
    return sq


def poincare_distance(a, b) -> float:
    """Scalar oracle of `poincare._distance_batch`: the hyperbolic distance
    between two points strictly inside the ball."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sq_a = _check_inside(a, "poincare_distance")
    sq_b = _check_inside(b, "poincare_distance")
    diff = a - b
    arg = 1.0 + 2.0 * float(np.dot(diff, diff)) / ((1.0 - sq_a) * (1.0 - sq_b))
    arg = max(arg, 1.0)
    return float(np.log(arg + np.sqrt(arg * arg - 1.0)))


def riemannian_rescale(x, euclid_grad) -> np.ndarray:
    """A Euclidean gradient rescaled by the inverse metric at x, as the
    trainer's step does; a stack of rows is rescaled row by row."""
    x = np.asarray(x, dtype=np.float64)
    return poincare._inverse_metric(x)[..., None] * np.asarray(euclid_grad, dtype=np.float64)


def mean_parent_rank(table, pairs) -> float:
    """Mean rank of each pair's parent among all other nodes by distance from
    the child, the distances computed by `poincare._distance_batch`."""
    titles = sorted(table.vectors)
    matrix = np.stack([table.vectors[t] for t in titles])
    index = {t: i for i, t in enumerate(titles)}
    parents_of: dict[int, list[int]] = {}
    for pair in pairs:
        parents_of.setdefault(index[pair.child], []).append(index[pair.parent])
    ranks = []
    for child, parents in parents_of.items():
        u = matrix[child]
        dist = poincare._distance_batch(u, matrix, u - matrix)[0]
        target = dist[parents]
        # the parent never counts itself (equal distance); the child must be left out
        closer = np.count_nonzero(dist < target[:, None], axis=1) - (dist[child] < target)
        ranks.extend(closer + 1)
    return float(np.mean(ranks))


def allocating_negative_draw(sampler, rng, children, negatives):
    """Oracle of one block's share of `_NegativeSampler.draw`: its own
    `rng.integers` call over the block's bounds, and the Floyd walk row by
    row over numpy scalars. Returns (title indices, validity mask), both
    (len(children), K) with K the block's width."""
    pool = sampler.pool_sizes[children]
    k = np.minimum(negatives, pool)
    width = int(k.max())
    valid = np.arange(width) < k[:, None]
    bounds = (pool - k)[:, None] + np.arange(width)
    picks = np.where(valid, rng.integers(0, bounds + 1), -1 - np.arange(width))
    ordered = np.sort(picks, axis=1)
    for r in np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1)):
        row = picks[r]
        for i in range(1, k[r]):
            if row[i] in row[:i]:
                row[i] = bounds[r, i]
    picks[~valid] = 0
    query = children[:, None] * sampler._stride + picks
    skipped = np.searchsorted(sampler._keys, query, side="right") - sampler._starts[children, None]
    return picks + skipped, valid


def allocating_rsgd_step(vectors, block, sampler, rng, negatives, lr):
    """Oracle of `poincare._rsgd_step`: the same Riemannian SGD step with every
    intermediate freshly allocated and broadcast, and its own negative draw.
    Updates `vectors` in place; returns (summed loss, rows clamped)."""
    children = block[:, 0]
    negs, valid = allocating_negative_draw(sampler, rng, children, negatives)
    cand_idx = np.concatenate((block[:, 1:], negs), axis=1)
    valid = np.concatenate((np.ones((len(block), 1), dtype=bool), valid), axis=1)
    u = vectors[children]
    cands = vectors[cand_idx]
    # distances
    alpha = 1.0 - np.einsum("...i,...i->...", u, u)
    beta = 1.0 - np.einsum("...i,...i->...", cands, cands)
    diff = u[..., None, :] - cands
    sq_diff = np.einsum("...i,...i->...", diff, diff)
    gamma = np.maximum(1.0 + 2.0 * sq_diff / (alpha[..., None] * beta), 1.0)
    dist = np.log(gamma + np.sqrt(gamma * gamma - 1.0))
    nearest = np.where(valid, dist, np.inf).min(axis=1, keepdims=True)
    e = np.where(valid, np.exp(nearest - dist), 0.0)
    total = e.sum(axis=1, keepdims=True)
    loss = float(np.sum(dist[:, :1] - nearest + np.log(total)))
    coeff = -e / total
    coeff[:, 0] += 1.0
    # gradients of the distances
    live = (gamma - 1.0) > 1e-12
    denom = np.sqrt(np.maximum(gamma * gamma - 1.0, poincare._ACOSH_GUARD))
    dot_uc = np.einsum("...ki,...i->...k", cands, u)
    u_sq = (1.0 - alpha)[..., None]
    c_sq = 1.0 - beta
    alpha = alpha[..., None]
    coeff_u = np.where(live, 4.0 / (beta * denom), 0.0) * coeff
    grad_u = (
        np.sum(coeff_u * (c_sq - 2.0 * dot_uc + 1.0), axis=-1)[..., None] / alpha**2 * u
        - np.einsum("...k,...ki->...i", coeff_u, cands) / alpha
    )
    coeff_c = np.where(live, 4.0 / (alpha * denom), 0.0) * coeff
    grad_c = (
        (coeff_c * (u_sq - 2.0 * dot_uc + 1.0) / beta**2)[..., None] * cands
        - (coeff_c / beta)[..., None] * u[..., None, :]
    )
    # scatter, rescale, project
    m = vectors.shape[1]
    rows, slot = np.unique(np.concatenate((children, cand_idx.ravel())), return_inverse=True)
    step = np.concatenate((grad_u, grad_c.reshape(-1, m)))
    grad = np.zeros(len(rows) * m)
    np.add.at(grad, (slot[:, None] * m + np.arange(m)).ravel(), step.ravel())
    x = vectors[rows]
    x -= lr * riemannian_rescale(x, grad.reshape(-1, m))
    clamped = 0
    for r in np.flatnonzero(np.einsum("ij,ij->i", x, x) >= poincare._NEAR_LIMIT_SQ):
        projected = poincare.project_to_ball(x[r])
        clamped += not np.array_equal(projected, x[r])
        x[r] = projected
    vectors[rows] = x
    return loss, clamped


def allocating_epoch(vectors, pair_idx, sampler, rng, negatives, lr, batch):
    """Oracle of `poincare._train_epoch`: shuffle the pairs, then one
    `allocating_rsgd_step` per block of `batch` of them, each drawing its own
    negatives. Returns (summed loss, rows clamped)."""
    order = rng.permutation(len(pair_idx))
    loss, clamped = 0.0, 0
    for start in range(0, len(order), batch):
        block_loss, block_clamped = allocating_rsgd_step(
            vectors, pair_idx[order[start : start + batch]], sampler, rng, negatives, lr
        )
        loss += block_loss
        clamped += block_clamped
    return loss, clamped


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


def dominates_own_group(variant: str, own: frozenset, others: list[frozenset]) -> bool:
    """Pairwise oracle of `datagen._dominates`: the variant's 3-grams
    intersected with its own standard's and with every other standard's."""
    grams = gram_set(variant)
    own_overlap = len(grams & own)
    return all(len(grams & other) < own_overlap for other in others)


def looped_auc_score(pos_scores, neg_scores):
    """Oracle of `evaluation.auc_score`: the same rank statistic with ties
    ranked by a per-score loop."""
    scores = np.concatenate([np.asarray(pos_scores, float), np.asarray(neg_scores, float)])
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # average of 1-based ranks
        i = j + 1
    n_pos, n_neg = len(pos_scores), len(neg_scores)
    rank_sum = ranks[:n_pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def hashed_ngram_embed(title, d_b, seed):
    """The unit vector of one canonical title: its row of
    `semantic.hashed_ngram_matrix`."""
    return hashed_ngram_matrix([title], d_b, seed)[0]


def per_title_hashed_embed(title, d_b, seed):
    """Oracle of `semantic.hashed_ngram_matrix` for one canonical title: its
    features summed by a bincount of their own, divided by `np.linalg.norm`."""
    padded = "^^" + title + "$$"
    grams = [padded[i : i + 3] for i in range(len(padded) - 2)]
    buckets, signs = zip(*(
        _token_feature(seed, d_b, token) for token in grams + title.split(" ")
    ))
    vec = np.bincount(buckets, weights=signs, minlength=d_b)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise DegenerateInputError(f"hashed embedding of {title!r} cancelled to the zero vector")
    return vec / norm


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


# ---------------------------------------------------------------------------
# Set-based ranking metrics: the oracle of `model.gold_rank` and the rank
# metrics beside it. Each query's ranking is a list of candidate indices,
# best first, scored against a set of relevant indices.

@dataclass
class RankingResult:
    """Per-query ranked candidate indices plus the relevant set."""

    rankings: list  # list of candidate-index lists, best first
    relevant: list  # list of sets of relevant indices

    def __post_init__(self):
        if len(self.rankings) != len(self.relevant):
            raise DataError("rankings and relevant lists must align")
        for ranking in self.rankings:
            if len(set(ranking)) != len(ranking):
                raise DataError("a query ranking contains duplicate candidates")


def precision_at_n(results: RankingResult, n: int) -> float:
    """Mean over queries of |relevant & top-n| / n."""
    if n < 1:
        raise ConfigError(f"precision_at_n: n must be >= 1, got {n}")
    if not results.rankings:
        return 0.0
    scores = [
        len(set(ranking[:n]) & rel) / n
        for ranking, rel in zip(results.rankings, results.relevant)
    ]
    return float(np.mean(scores))


def hit_rate_at_n(results: RankingResult, n: int) -> float:
    """Mean over queries of whether any relevant item appears in the top n."""
    if n < 1:
        raise ConfigError(f"hit_rate_at_n: n must be >= 1, got {n}")
    if not results.rankings:
        return 0.0
    scores = [
        1.0 if set(ranking[:n]) & rel else 0.0
        for ranking, rel in zip(results.rankings, results.relevant)
    ]
    return float(np.mean(scores))


def ndcg_at_n(results: RankingResult, n: int) -> float:
    """Binary-gain NDCG with the log2 discount, ranks starting at 1."""
    if n < 1:
        raise ConfigError(f"ndcg_at_n: n must be >= 1, got {n}")
    if not results.rankings:
        return 0.0
    scores = []
    for ranking, rel in zip(results.rankings, results.relevant):
        dcg = sum(
            1.0 / np.log2(rank + 1)
            for rank, cand in enumerate(ranking[:n], start=1)
            if cand in rel
        )
        ideal_hits = min(n, len(rel))
        idcg = sum(1.0 / np.log2(rank + 1) for rank in range(1, ideal_hits + 1))
        scores.append(dcg / idcg if idcg > 0 else 0.0)
    return float(np.mean(scores))
