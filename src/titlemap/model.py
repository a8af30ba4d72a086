"""The title mapper: views -> co-attention + reasoning -> fused classifier.

There is one model: every forward pass co-attends the three views and pools
the clauses of the semantic and syntactic reasoning views. Training fuses
the co-attended views with the two clause representations, projects onto
the taxonomy (relu then softmax), and minimizes cross-entropy
plus the six logical regularizers plus a small clause-truth term. The
hyperbolic and semantic view producers are frozen; only co-attention,
reasoning and fusion weights learn. The mapper has one precision, float32:
its tensors, the views it reads, every forward and backward pass, Adam's
moments and the artifact's values. Everything is deterministic for a fixed
config: data split, batch order, regularizer samples and initialization all
derive from the config seed.
"""

from __future__ import annotations

import base64
import json
import sys
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import coattention as ca
from . import numerics as nx
from . import reasoning as rs
from .config import TrainConfig
from .errors import ConfigError, DataError, DegenerateInputError, FormatError, NumericError
from .numerics import Tensor
from .poincare import HyperbolicEmbeddingTable
from .schema import build
from .semantic import SemanticProvider
from .syntactic import GramNumbering, Taxonomy, syntactic_matrix
from .formats import canonicalize_title, is_utf8

MODEL_FORMAT = "titlemap-model"
MODEL_VERSION = 5

# every tensor is stored as the base64 of these raw bytes
_TENSOR_DTYPE = np.dtype("<f4")

# inference rows per forward pass; bounds peak memory on long title lists
_CHUNK_ROWS = 512


@dataclass
class MapperModel:
    taxonomy: Taxonomy
    config: TrainConfig
    coatt: ca.CoAttentionParams
    reason_b: rs.ReasoningParams
    reason_s: rs.ReasoningParams
    fusion_w: Tensor  # |Y| x fused_dim
    fusion_b: Tensor  # 1 x |Y|

    @property
    def d_b(self) -> int:
        return self.config.d_b

    @property
    def taxonomy_hash(self) -> str:
        return self.taxonomy.version_id

    def trainable_tensors(self) -> list[Tensor]:
        return list(_tensor_registry(self).values())


# The parameter sets that feed the fusion head: artifact name prefix,
# MapperModel field, parameter class, and the dimensions (from the config's
# d_h, d_b, d_r and the taxonomy size d_s) its `shapes` and `init` take.
# Initialization, the tensor registry, the expected artifact shapes and
# loading all follow this table.
_PARAM_SETS = (
    ("coattention", "coatt", ca.CoAttentionParams, lambda c, d_s: (c.d_h, c.d_b, d_s)),
    ("reasoning_b", "reason_b", rs.ReasoningParams, lambda c, d_s: (c.d_b, c.d_r)),
    ("reasoning_s", "reason_s", rs.ReasoningParams, lambda c, d_s: (d_s, c.d_r)),
)


def init_model(taxonomy: Taxonomy, config: TrainConfig) -> MapperModel:
    seeds = np.random.SeedSequence(config.seed).spawn(1 + len(_PARAM_SETS))
    rng = np.random.default_rng(seeds[0])
    shapes = _tensor_shapes(config, len(taxonomy))
    # relu-softmax heads die when early logits are chaotic: collapsing every
    # logit below zero yields the uniform distribution, which beats a noisy
    # start on cross-entropy and is a gradient-free trap. Near-zero weights
    # plus a positive bias start the head uniform AND fully relu-active.
    fusion_w = Tensor(rng.uniform(-0.01, 0.01, size=shapes["fusion.w"]), requires_grad=True)
    fusion_b = Tensor(np.ones(shapes["fusion.b"]), requires_grad=True)
    params = {
        field: cls.init(*dims(config, len(taxonomy)), seed=seed.generate_state(1)[0])
        for (_, field, cls, dims), seed in zip(_PARAM_SETS, seeds[1:])
    }
    model = MapperModel(
        taxonomy=taxonomy, config=config, fusion_w=fusion_w, fusion_b=fusion_b, **params
    )
    # drawn in float64, so the random stream does not depend on the precision
    for t in model.trainable_tensors():
        t.data = t.data.astype(np.float32)
    return model


# ---------------------------------------------------------------------------
# Feature assembly

class FeaturePipeline:
    """Builds the frozen (X_h, X_b, X_s) views of canonical titles, each view
    in one pass over the batch; titles unseen in the transition graph receive
    the zero topological vector. The two string views of a batch read one
    numbering of its 3-grams; the standard titles' numbering is the
    taxonomy's own."""

    def __init__(
        self,
        hyperbolic: HyperbolicEmbeddingTable,
        semantic: SemanticProvider,
        taxonomy: Taxonomy,
    ):
        self.hyperbolic = hyperbolic
        self.semantic = semantic
        self.taxonomy = taxonomy
        self._standard_semantic: Optional[np.ndarray] = None
        self._standard_syntactic: Optional[np.ndarray] = None

    @property
    def d_h(self) -> int:
        return self.hyperbolic.dim

    @property
    def d_b(self) -> int:
        return self.semantic.dimension

    def title_views(self, keys: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three views of canonical keys, one row per key."""
        x_h, _ = self.hyperbolic.gather(keys)
        grams = GramNumbering(keys)
        x_b = self.semantic.embed_batch(keys, grams)
        x_s = syntactic_matrix(keys, self.taxonomy, grams)
        return x_h, x_b, x_s

    def standard_semantic(self) -> np.ndarray:
        if self._standard_semantic is None:
            self._standard_semantic = self.semantic.embed_batch(
                self.taxonomy.titles, self.taxonomy.gram_index.standards
            )
        return self._standard_semantic

    def standard_syntactic(self) -> np.ndarray:
        if self._standard_syntactic is None:
            self._standard_syntactic = syntactic_matrix(
                self.taxonomy.titles, self.taxonomy, self.taxonomy.gram_index.standards
            )
        return self._standard_syntactic


def check_view_widths(pipeline: FeaturePipeline, config: TrainConfig) -> None:
    """Raise `ConfigError` unless the pipeline's views have the widths the
    model of `config` takes. The syntactic view is |Y| wide by construction."""
    for view, width, name, expected in (
        ("hyperbolic table", pipeline.d_h, "d_h", config.d_h),
        ("semantic provider", pipeline.d_b, "d_b", config.d_b),
    ):
        if width != expected:
            raise ConfigError(f"{view} has width {width}, but the model's {name} is {expected}")


def _forward(
    model: MapperModel,
    x_h: np.ndarray,
    x_b: np.ndarray,
    x_s: np.ndarray,
    v_b: Tensor,
    v_s: Tensor,
) -> tuple[Tensor, dict, dict]:
    """Forward pass: the logits, then the two views' clauses and their
    (title, candidate) projections, each keyed by view ("b", "s"), which
    only the training loss reads.

    It computes in the dtype of the model's tensors and the views, float32
    in training and serving alike; the two clauses run in turn on the
    calling thread."""
    th, tb, ts = Tensor(x_h), Tensor(x_b), Tensor(x_s)
    pre_b = rs.encode_views(tb, v_b, model.reason_b)
    pre_s = rs.encode_views(ts, v_s, model.reason_s)
    attended = ca.co_attend(th, tb, ts, model.coatt)
    clause_b = rs.clause_representation(*pre_b, model.reason_b)
    clause_s = rs.clause_representation(*pre_s, model.reason_s)
    fused = nx.concat([*attended, clause_b, clause_s], axis=1)
    logits = nx.relu(nx.matmul(fused, nx.transpose(model.fusion_w)) + model.fusion_b)
    return logits, {"b": clause_b, "s": clause_s}, {"b": pre_b, "s": pre_s}


def _reg_batch(
    j_pre: Tensor,
    v_pre: Tensor,
    params: rs.ReasoningParams,
    reg_rng: np.random.Generator,
) -> Tensor:
    """Vectors fed to the logical regularizers for one view, encoded in one
    pass from the view's projections: the events of a couple of sampled
    candidates, then each batch title and each sampled standard title alone,
    with the other event slot zero. A sampled candidate's row is added to
    every title row by broadcasting, so its gradient is one row sum."""
    n_cand, batch_size = v_pre.data.shape[0], j_pre.data.shape[0]
    pre = [
        j_pre + nx.take_rows(v_pre, [k])
        for k in reg_rng.choice(n_cand, size=min(2, n_cand), replace=False)
    ]
    sample = reg_rng.choice(n_cand, size=min(n_cand, batch_size), replace=False)
    pre += [j_pre, nx.take_rows(v_pre, np.sort(sample)) + params.enc_b1]
    return rs.event_head(nx.concat(pre, axis=0), params)


def loss_on_batch(
    model: MapperModel,
    x_h: np.ndarray,
    x_b: np.ndarray,
    x_s: np.ndarray,
    labels: np.ndarray,
    v_b: Tensor,
    v_s: Tensor,
    reg_rng: np.random.Generator,
) -> tuple[Tensor, dict]:
    if labels.min() < 0 or labels.max() >= len(model.taxonomy):
        raise DataError("label index outside the taxonomy range")
    logits, clauses, projections = _forward(model, x_h, x_b, x_s, v_b, v_s)
    log_probs = nx.log_softmax(logits, axis=-1)
    ce = nx.neg(nx.tmean(nx.gather_rows(log_probs, labels)))
    total = ce
    detail = {"cross_entropy": ce}
    cfg = model.config
    for view, params in (("b", model.reason_b), ("s", model.reason_s)):
        j_pre, v_pre = projections[view]
        e_gold = rs.correct_events(j_pre, v_pre, labels, params)
        truth = rs.clause_truth_loss(clauses[view], e_gold, params)
        regs = rs.logical_regularizers(_reg_batch(j_pre, v_pre, params, reg_rng), params)
        detail[f"truth_{view}"] = truth
        detail[f"regs_{view}"] = regs
        dtype = truth.data.dtype.type
        total = total + nx.mul(regs.total, Tensor(dtype(cfg.logic_weight))) + nx.mul(
            truth, Tensor(dtype(cfg.clause_weight))
        )
    return total, detail


def _probs_from_views(
    model: MapperModel,
    x_h: np.ndarray,
    x_b: np.ndarray,
    x_s: np.ndarray,
    v_b: Tensor,
    v_s: Tensor,
) -> np.ndarray:
    """Class distribution per view row, `_CHUNK_ROWS` rows per forward pass,
    in the dtype of the model and the views."""
    rows = []
    for start in range(0, x_h.shape[0], _CHUNK_ROWS):
        sl = slice(start, start + _CHUNK_ROWS)
        logits = _forward(model, x_h[sl], x_b[sl], x_s[sl], v_b, v_s)[0]
        rows.append(nx.softmax(logits, axis=-1).data)
    return np.concatenate(rows, axis=0) if rows else np.zeros((0, len(model.taxonomy)), x_h.dtype)


def _float32_views(pipeline: FeaturePipeline, keys: Sequence[str]) -> tuple:
    """The mapper's inputs for `keys` in float32: the three title views, then
    the standard titles' semantic and syntactic views as tensors."""
    v_b, v_s = (Tensor(v.astype(np.float32))
                for v in (pipeline.standard_semantic(), pipeline.standard_syntactic()))
    x_h, x_b, x_s = (x.astype(np.float32) for x in pipeline.title_views(keys))
    return x_h, x_b, x_s, v_b, v_s


def forward_probabilities(
    model: MapperModel,
    pipeline: FeaturePipeline,
    keys: Sequence[str],
) -> np.ndarray:
    """Inference-mode class distribution per canonical key, shape (n, |Y|),
    in float32.

    Each distinct key is scored once and its row is copied to every equal
    key, so equal keys get identical rows. The pass runs the model's float32
    arrays as `train` left them, through the forward pass training runs, on
    the views cast to float32 once per call, so `train`'s validation and
    test scoring give the same probabilities bit for bit when they score
    the same keys in the same order. Each clause pools its candidates, so
    the taxonomy's row order moves a probability by float32 rounding only.
    Against that pass run all in float64, on the model cast up and the
    float64 views, a probability moves by less than 1e-6 on the tests' gate
    fixtures (a fresh desk-width model and a G=200 one with a sharpened
    head) and by less than 2e-6 on a trained fit-g50 model, where the top 10
    stays. Every step of the forward pass acts per row, but the BLAS
    products are not bitwise row-independent: a row can differ in its last
    bits from scoring that key alone or among other keys."""
    row_of = {key: row for row, key in enumerate(dict.fromkeys(keys))}
    inverse = np.array([row_of[key] for key in keys], dtype=np.intp)
    return _probs_from_views(model, *_float32_views(pipeline, list(row_of)))[inverse]


# The one ranking rule of every stage, and the metrics read off the gold
# class's rank under it (a mean over rows; no rows score 0).

def rank_classes(probs: np.ndarray, k: Optional[int] = None) -> np.ndarray:
    """Class indices of each row by descending probability; ties keep the
    lower taxonomy index. With `k`, only the first k columns of that order.

    k = 1 is each row's `argmax`. For 1 < k < |Y| one partition finds each
    row's k-th probability; where exactly k classes reach it, those k are
    the row's top k and only they are sorted. A row where that probability
    ties a class left out falls back to the full stable sort, which puts the
    tied classes in index order."""
    n_classes = probs.shape[1]
    if k == 1:
        return np.argmax(probs, axis=1)[:, None]
    neg = -probs
    if k is None or k >= n_classes:
        return np.argsort(neg, axis=1, kind="stable")[:, :k]
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1 : k]
    inside = neg <= kth
    clean = np.count_nonzero(inside, axis=1) == k
    top = np.empty((probs.shape[0], k), dtype=np.intp)
    # nonzero lists each row's k classes in index order, so a stable sort of
    # their values keeps ties at the lower index
    cols = np.nonzero(inside[clean])[1].reshape(-1, k)
    order = np.argsort(np.take_along_axis(neg[clean], cols, axis=1), axis=1, kind="stable")
    top[clean] = np.take_along_axis(cols, order, axis=1)
    tied = ~clean
    if tied.any():
        top[tied] = np.argsort(neg[tied], axis=1, kind="stable")[:, :k]
    return top


def gold_rank(probs: np.ndarray, labels) -> np.ndarray:
    """Each row's 1-based rank of its gold class `labels[i]` in the
    `rank_classes` order: 1 + the classes more probable than it + the equally
    probable classes at a lower taxonomy index."""
    labels = np.asarray(labels, dtype=np.intp)[:, None]
    gold = np.take_along_axis(probs, labels, axis=1)
    ahead = (probs > gold) | ((probs == gold) & (np.arange(probs.shape[1]) < labels))
    return 1 + np.count_nonzero(ahead, axis=1)


def _mean(values: np.ndarray) -> float:
    return float(np.mean(values)) if values.size else 0.0


def hit_at(ranks: np.ndarray, n: int) -> float:
    """Share of rows whose gold class is in the top n."""
    return _mean(ranks <= n)


def precision_at(ranks: np.ndarray, n: int) -> float:
    """Mean of |{gold} & top n| / n: 1/n for a row whose gold class is in the
    top n, else 0."""
    return _mean(np.where(ranks <= n, 1 / n, 0.0))


def ndcg_at(ranks: np.ndarray, n: int) -> float:
    """Binary-gain NDCG@n with the log2 discount. One class is relevant, so
    the ideal DCG is 1 and a row scores 1/log2(rank + 1) inside the top n."""
    return _mean(np.where(ranks <= n, 1 / np.log2(ranks + 1), 0.0))


def clamp_k(k: int, n_classes: int) -> int:
    """Check a top-k size; one above the taxonomy size is clamped with a warning."""
    if k < 1:
        raise ConfigError(f"top-k size must be >= 1, got k={k}")
    if k > n_classes:
        print(f"k={k} clamped to taxonomy size {n_classes}", file=sys.stderr)
    return min(k, n_classes)


# ---------------------------------------------------------------------------
# Training

@dataclass
class TrainResult:
    model: MapperModel
    history: list  # (epoch, train_loss, val_hit10)
    best_epoch: int
    split_indices: dict  # "train"/"val"/"test" -> np.ndarray of example rows
    metrics: dict


def _snapshot(model: MapperModel) -> list[np.ndarray]:
    return [t.data.copy() for t in model.trainable_tensors()]


def _restore(model: MapperModel, snap: list[np.ndarray]) -> None:
    for t, data in zip(model.trainable_tensors(), snap):
        t.data[...] = data


def train(
    examples: Sequence[tuple[str, str]],
    pipeline: FeaturePipeline,
    config: TrainConfig,
) -> TrainResult:
    """Split, fit with Adam, early-stop on validation hit@10, return the best
    checkpoint. `examples` are (title, standard title) pairs of canonical
    keys."""
    taxonomy = pipeline.taxonomy
    check_view_widths(pipeline, config)
    if not examples:
        raise DegenerateInputError("train: no labeled examples")
    labels_all = np.array([taxonomy.index(std) for _, std in examples], dtype=np.intp)
    titles_all = [raw for raw, _ in examples]

    # spawn index 2 stays unused, so the split, shuffle and regularizer
    # streams keep the indices, and so the draws, that seeded runs had
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    split_rng = np.random.default_rng(seeds[0])
    shuffle_rng = np.random.default_rng(seeds[1])
    reg_rng = np.random.default_rng(seeds[3])

    n = len(examples)
    perm = split_rng.permutation(n)
    n_train = int(n * config.split[0])
    n_val = int(n * config.split[1])
    idx_train = perm[:n_train]
    idx_val = perm[n_train : n_train + n_val]
    idx_test = perm[n_train + n_val :]
    if min(len(idx_train), len(idx_val), len(idx_test)) == 0:
        raise ConfigError(
            f"split {config.split} of {n} examples leaves an empty part "
            f"({len(idx_train)}/{len(idx_val)}/{len(idx_test)})"
        )
    if len(idx_train) < len(taxonomy):
        print(
            f"training set ({len(idx_train)}) smaller than taxonomy ({len(taxonomy)}); "
            "coverage will be partial",
            file=sys.stderr,
        )

    x_h, x_b, x_s, v_b, v_s = _float32_views(pipeline, titles_all)

    model = init_model(taxonomy, config)
    # the bias stays in the base-lr group: a fast per-class bias random-walks
    # across zero early in training, which permanently relu-kills the class
    rest = [t for t in model.trainable_tensors() if t is not model.fusion_w]
    optimizers = [
        nx.Adam([model.fusion_w], lr=config.lr * config.fusion_lr_multiplier),
        nx.Adam(rest, lr=config.lr),
    ]

    best_metric = -1.0
    best_epoch = -1
    best_snap = _snapshot(model)
    history = []
    # a diverging run overflows in this loop; the finiteness checks report it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.max_epochs):
            order = shuffle_rng.permutation(idx_train)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, len(order), config.batch_size):
                rows = order[start : start + config.batch_size]
                with nx.GradTape() as tape:
                    loss, _ = loss_on_batch(
                        model, x_h[rows], x_b[rows], x_s[rows], labels_all[rows], v_b, v_s, reg_rng
                    )
                loss_value = loss.item()
                if not np.isfinite(loss_value):
                    raise NumericError(f"training loss is {loss_value} at epoch {epoch}")
                tape.backward(loss)
                for optimizer in optimizers:
                    optimizer.step()
                model.reason_b.renormalize_anchor()
                model.reason_s.renormalize_anchor()
                epoch_loss += loss_value
                n_batches += 1
            val_probs = _probs_from_views(
                model, x_h[idx_val], x_b[idx_val], x_s[idx_val], v_b, v_s
            )
            if not np.isfinite(val_probs).all():
                raise NumericError(f"validation probabilities are not finite at epoch {epoch}")
            val_hit10 = hit_at(gold_rank(val_probs, labels_all[idx_val]), 10)
            train_loss = epoch_loss / max(n_batches, 1)
            history.append((epoch, train_loss, val_hit10))
            if val_hit10 > best_metric:
                best_metric = val_hit10
                best_epoch = epoch
                best_snap = _snapshot(model)
            elif epoch - best_epoch > config.patience:
                break
    _restore(model, best_snap)

    test_probs = _probs_from_views(
        model, x_h[idx_test], x_b[idx_test], x_s[idx_test], v_b, v_s
    )
    test_ranks = gold_rank(test_probs, labels_all[idx_test])
    metrics = {
        "best_val_hit_at_10": best_metric,
        **{f"test_hit_at_{n}": hit_at(test_ranks, n) for n in (1, 5, 10)},
    }
    return TrainResult(
        model=model,
        history=history,
        best_epoch=best_epoch,
        split_indices={"train": idx_train, "val": idx_val, "test": idx_test},
        metrics=metrics,
    )


# ---------------------------------------------------------------------------
# Artifact serialization: a single JSON file. Each tensor keeps its `shape`
# and stores `data` as the base64 of its little-endian float32 bytes, so
# every value, -0.0 and subnormals included, survives the round-trip exactly.

def _tensor_registry(model: MapperModel) -> dict[str, Tensor]:
    """Artifact name -> tensor for every trainable tensor, in optimizer order."""
    reg = {"fusion.w": model.fusion_w, "fusion.b": model.fusion_b}
    for prefix, field, _, _ in _PARAM_SETS:
        fields = nx.tensor_fields(getattr(model, field))
        reg.update({f"{prefix}.{name}": t for name, t in fields.items()})
    return reg


def _tensor_shapes(config: TrainConfig, d_s: int) -> dict[str, tuple[int, int]]:
    """Artifact name -> shape of every tensor `_tensor_registry` lists for the
    model of `config` over `d_s` classes, computed without building it."""
    # the fused row: three co-attended views, then two clause representations
    width = config.d_h + config.d_b + d_s + 2 * config.d_r
    shapes = {"fusion.w": (d_s, width), "fusion.b": (1, d_s)}
    for prefix, _, cls, dims in _PARAM_SETS:
        field_shapes = cls.shapes(*dims(config, d_s))
        shapes.update({f"{prefix}.{name}": shape for name, shape in field_shapes.items()})
    return shapes


def save_model(model: MapperModel, path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "taxonomy_hash": model.taxonomy_hash,
        "taxonomy_titles": model.taxonomy.titles,
        "taxonomy_groups": model.taxonomy.groups,
        "train_config": {**asdict(model.config), "split": list(model.config.split)},
        "tensors": {
            name: {
                "shape": list(t.data.shape),
                "data": base64.b64encode(t.data.astype(_TENSOR_DTYPE).tobytes()).decode("ascii"),
            }
            for name, t in sorted(_tensor_registry(model).items())
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, sort_keys=True))
        fh.write("\n")


def _str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) and is_utf8(v) for v in value)


# the artifact fields besides format, version and train_config, each with the
# check its value must pass; `save_model` writes exactly these
_ARTIFACT_FIELDS = {
    "taxonomy_titles": lambda v: _str_list(v) and len(v) > 0,
    "taxonomy_groups": lambda v: v is None or _str_list(v),
    "taxonomy_hash": lambda v: isinstance(v, str),
    "tensors": lambda v: isinstance(v, dict),
}


def load_model(path) -> MapperModel:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}: not valid JSON ({e.msg})") from None
        except UnicodeDecodeError:
            raise FormatError(f"{path}: not valid UTF-8") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: the JSON root is not an object")
    if doc.get("format") != MODEL_FORMAT:
        raise FormatError(f"{path}: not a {MODEL_FORMAT} artifact")
    if doc.get("version") != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported artifact version {doc.get('version')}")
    unknown = sorted(set(doc) - {"format", "version", "train_config", *_ARTIFACT_FIELDS})
    if unknown:
        raise FormatError(f"{path}: unknown field(s) {unknown}")
    try:
        config = build(TrainConfig, doc.get("train_config"))
    except ConfigError as e:
        raise FormatError(f"{path}: train_config: {e}") from None
    for key, valid in _ARTIFACT_FIELDS.items():
        if key not in doc or not valid(doc[key]):
            raise FormatError(f"{path}: field {key!r} is missing or ill-typed")
    for title in doc["taxonomy_titles"]:  # `train` stores the keys its reader made
        try:
            key = canonicalize_title(title)
        except DegenerateInputError:
            key = None
        if key != title:
            raise FormatError(f"{path}: taxonomy title {title!r} is not a canonical key")
    taxonomy = Taxonomy(titles=doc["taxonomy_titles"], groups=doc["taxonomy_groups"])
    if taxonomy.version_id != doc["taxonomy_hash"]:
        raise DataError(f"{path}: taxonomy hash mismatch; artifact is inconsistent")
    # every stored tensor is checked against the shape the config implies
    # before the model is built, so a false width cannot ask for memory
    expected = _tensor_shapes(config, len(taxonomy))
    stored = doc["tensors"]
    if set(stored) != set(expected):
        raise FormatError(f"{path}: tensor set does not match the model's")
    tensors: dict[str, dict[str, Tensor]] = {}  # prefix -> field -> tensor
    for name, shape in expected.items():
        entry = stored[name]
        if not isinstance(entry, dict) or entry.get("shape") != list(shape):
            raise FormatError(f"{path}: tensor {name} is not stored with shape {list(shape)}")
        try:
            payload = base64.b64decode(entry.get("data"), validate=True)
        except (TypeError, ValueError):
            raise FormatError(f"{path}: tensor {name} data is not base64") from None
        n_bytes = _TENSOR_DTYPE.itemsize * int(np.prod(shape))
        if len(payload) != n_bytes:
            raise FormatError(
                f"{path}: tensor {name} holds {len(payload)} bytes, expected {n_bytes}"
            )
        arr = np.frombuffer(payload, dtype=_TENSOR_DTYPE).reshape(shape)
        if not np.isfinite(arr).all():
            raise NumericError(f"{path}: tensor {name} has a non-finite value")
        prefix, field = name.split(".")
        copy = np.array(arr, dtype=np.float32)  # writable, unlike the payload
        tensors.setdefault(prefix, {})[field] = Tensor(copy, requires_grad=True)
    # built straight from the stored arrays: drawing an initialization only to
    # overwrite it would import numpy.random into every serving stage
    params = {field: cls(**tensors[prefix]) for prefix, field, cls, _ in _PARAM_SETS}
    return MapperModel(
        taxonomy=taxonomy,
        config=config,
        fusion_w=tensors["fusion"]["w"],
        fusion_b=tensors["fusion"]["b"],
        **params,
    )
