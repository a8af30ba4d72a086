"""Shared oracles and builders for the test suite.

One spec oracle per function: the plainest definition of what it computes,
such as the scalar hyperbolic distance or the pairwise AUC count. A refactor
may keep its parent's code here as the oracle of the new code; that proves
once that the refactor kept the bits. The ancestor then goes, and pins of
its outputs, recorded while it still passed, carry its cases.
`test_helpers.py` fails when a public name here has no importer.
"""

from __future__ import annotations

import importlib
import itertools
import json
import pkgutil
from dataclasses import dataclass, fields, is_dataclass, replace
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
from titlemap.semantic import HashedNgramProvider, _token_feature
from titlemap.syntactic import Taxonomy, padded_grams


# How far a probability of the float32 pass may move from the float64 pass
# of the same model cast up (`test_model.py`'s serving gate)
FLOAT32_PROB_TOL = 1e-6

_WORDS = ("data", "software", "sales", "senior", "junior", "lead", "chief", "staff",
          "cloud", "field", "retail", "network")
_ROLES = ("engineer", "analyst", "manager", "designer", "consultant", "officer")


def empty_ball_table(dim: int) -> poincare.HyperbolicEmbeddingTable:
    """A hyperbolic table of width `dim` that holds no title."""
    return poincare.HyperbolicEmbeddingTable([], np.empty((0, dim)), seed=0)


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
        empty_ball_table(config.d_h),
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


def leaf_gradients(make_output, leaves, weight=None):
    """The value of `make_output()` and the gradient of every leaf in
    `leaves`, from the sum of the output weighted by `weight` (a scalar
    output is taken as the loss)."""
    for t in leaves:
        t.grad = None
    with nx.GradTape() as tape:
        out = make_output()
        loss = out if weight is None else nx.tsum(nx.mul(out, weight))
    tape.backward(loss)
    return out.data, [t.grad for t in leaves]


def event_oracle(params, j: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Plain-numpy event encoder over aligned (or broadcast) title rows `j`
    and candidate rows `v`: tanh(j W1jᵀ + v W1vᵀ + b1) W2ᵀ + b2."""
    hidden = np.tanh(
        j @ params.enc_w1_j.data.T + v @ params.enc_w1_v.data.T + params.enc_b1.data
    )
    return hidden @ params.enc_w2.data.T + params.enc_b2.data


# ---------------------------------------------------------------------------
# Generic tape ops that no `src/` code records: the building blocks of the
# fused ops' oracles, recorded through `nx.fused_op` as `numerics`' own ops.

def sub(a, b):
    return nx.fused_op(a.data - b.data, (a, b), lambda g: (
        nx._unbroadcast(g, a.data.shape), nx._unbroadcast(-g, b.data.shape)))


def div(a, b):
    return nx.fused_op(a.data / b.data, (a, b), lambda g: (
        nx._unbroadcast(g / b.data, a.data.shape),
        nx._unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
    ))


def tanh(a):
    out_data = np.tanh(a.data)
    return nx.fused_op(out_data, (a,), lambda g: (g * (1.0 - out_data * out_data),))


def sqrt(a):
    if np.any(a.data < 0):
        raise DomainError("sqrt: input must be non-negative")
    out_data = np.sqrt(a.data)
    return nx.fused_op(out_data, (a,), lambda g: (g * 0.5 / out_data,))


def clip(a, lo, hi):
    mask = (a.data > lo) & (a.data < hi)
    return nx.fused_op(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


def take_rows(a, indices):
    """Select rows `a[indices]`; the gradient scatter-adds back into `a`."""
    idx = np.asarray(indices, dtype=np.intp)

    def backward(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return (buf,)

    return nx.fused_op(a.data[idx], (a,), backward)


def event_head(pre, params):
    """Second encoder layer: event vectors from first-layer pre-activations;
    the oracle of `reasoning.event_rows`."""
    return nx.matmul(tanh(pre), nx.transpose(params.enc_w2)) + params.enc_b2


def not_op(e, params):
    """The NOT module applied alone, tanh(e W_notᵀ + b_not): the oracle that
    the clause fold and the regularizer op are checked against."""
    return tanh(nx.matmul(e, nx.transpose(params.not_w)) + params.not_b)


def cast_tensors(params, dtype):
    """A copy of the dataclass `params` (a parameter set, or a `MapperModel`
    and the parameter sets it holds) whose tensors hold their data cast to
    `dtype`, each a fresh tensor that requires a gradient as its original
    does; every other field is shared. Cast up to float64, a float32 model is
    the oracle of its own pass."""
    changes = {}
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, nx.Tensor):
            changes[f.name] = nx.Tensor(value.data.astype(dtype), value.requires_grad)
        elif is_dataclass(value) and nx.tensor_fields(value):
            changes[f.name] = cast_tensors(value, dtype)
    return replace(params, **changes)


def or_op(a, b, params):
    return tanh(
        nx.matmul(a, nx.transpose(params.or_w_left))
        + nx.matmul(b, nx.transpose(params.or_w_right))
        + params.or_b
    )


def row_cosine(a, b):
    """Row-wise cosine of two (n, d) tensors (broadcasting rows), clipped to [-1, 1]."""
    num = nx.tsum(nx.mul(a, b), axis=1, keepdims=True)
    na = sqrt(nx.tsum(nx.mul(a, a), axis=1, keepdims=True))
    nb = sqrt(nx.tsum(nx.mul(b, b), axis=1, keepdims=True))
    return clip(div(num, nx.mul(na, nb)), -1.0, 1.0)


def taped_correct_events(j_pre, v_pre, labels, params):
    """Tape-composed oracle of `reasoning.correct_events`."""
    return event_head(j_pre + take_rows(v_pre, labels), params)


def taped_truth_loss(x_prime, e_correct, params):
    """Tape-composed oracle of `reasoning.clause_truth_loss`."""
    cos = row_cosine(or_op(x_prime, e_correct, params), params.true_anchor)
    return nx.tmean(sub(nx.Tensor(cos.data.dtype.type(1.0)), cos))


def taped_reg_batch(j_pre, v_pre, params, reg_rng):
    """Tape-composed oracle of `model._reg_batch`, drawing from `reg_rng` as
    it does."""
    n_cand, batch_size = v_pre.data.shape[0], j_pre.data.shape[0]
    pre = [
        j_pre + take_rows(v_pre, [k])
        for k in reg_rng.choice(n_cand, size=min(2, n_cand), replace=False)
    ]
    sample = reg_rng.choice(n_cand, size=min(n_cand, batch_size), replace=False)
    pre += [j_pre, take_rows(v_pre, np.sort(sample)) + params.enc_b1]
    return event_head(nx.concat(pre, axis=0), params)


def _bilinear(x, w, y):
    return tanh(nx.tsum(nx.mul(nx.matmul(x, w), y), axis=1, keepdims=True))


def _attend(x, w_self, *cross):
    key = nx.matmul(x, nx.transpose(w_self))
    for a, y, w_cross in cross:
        key = key + nx.matmul(nx.mul(a, y), nx.transpose(w_cross))
    return nx.mul(nx.softmax(tanh(key), axis=-1), x)


def taped_co_attend(x_h, x_b, x_s, p):
    """Tape-composed oracle of `coattention.co_attend`, in 52 nodes: three
    affinities of 4 ops, three views of 13 (a key of 11, softmax, product)
    and the concatenation."""
    a_hb = _bilinear(x_h, p.w_aff_hb, x_b)
    a_hs = _bilinear(x_h, p.w_aff_hs, x_s)
    a_bs = _bilinear(x_b, p.w_aff_bs, x_s)
    return nx.concat([
        _attend(x_h, p.w_self_h, (a_hb, x_b, p.w_cross_bh), (a_hs, x_s, p.w_cross_sh)),
        _attend(x_b, p.w_self_b, (a_hb, x_h, p.w_cross_hb), (a_bs, x_s, p.w_cross_sb)),
        _attend(x_s, p.w_self_s, (a_hs, x_h, p.w_cross_hs), (a_bs, x_b, p.w_cross_bs)),
    ], axis=1)


def _sim(a, b):
    # cosine mapped to [0, 1] so every regularizer term is non-negative
    return nx.mul(row_cosine(a, b) + nx.Tensor(1.0), nx.Tensor(0.5))


def taped_regularizers(batch, params):
    """Tape-composed oracle of `logical_regularizers`: r1..r6 and `total`
    built from `not_op`, `or_op` and `row_cosine`, one tape node per op."""
    one = nx.Tensor(1.0)
    true_row = params.true_anchor
    false_row = not_op(true_row, params)
    not_x = not_op(batch, params)
    r1 = nx.tsum(_sim(batch, not_x))
    r2 = nx.tsum(sub(one, _sim(batch, not_op(not_x, params))))
    r3 = nx.tsum(sub(one, _sim(or_op(batch, false_row, params), batch)))
    r4 = nx.tsum(sub(one, _sim(or_op(batch, true_row, params), true_row)))
    r5 = nx.tsum(sub(one, _sim(or_op(batch, batch, params), batch)))
    r6 = nx.tsum(sub(one, _sim(or_op(batch, not_x, params), true_row)))
    total = nx.mul(r1 + r2 + r3 + r4 + r5 + r6, nx.Tensor(1.0 / batch.data.shape[0]))
    return rs.RegularizerValues(r1, r2, r3, r4, r5, r6, total)


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
    matrix, index = table.matrix, table.index
    parents_of: dict[int, list[int]] = {}
    for pair in pairs:
        parents_of.setdefault(index[pair.child], []).append(index[pair.parent])
    ranks = []
    for child, parents in parents_of.items():
        dist = poincare._distance_batch(matrix[child], matrix)[0]
        target = dist[parents]
        # the parent never counts itself (equal distance); the child must be left out
        closer = np.count_nonzero(dist < target[:, None], axis=1) - (dist[child] < target)
        ranks.extend(closer + 1)
    return float(np.mean(ranks))


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


def gram_set(text: str) -> frozenset:
    """Set of the padded character 3-grams of `text`."""
    return frozenset(padded_grams(text))


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
