"""The full title mapper: views -> co-attention + reasoning -> fused classifier.

Training fuses the co-attended views with the two clause representations,
projects onto the taxonomy (relu then softmax), and minimizes cross-entropy
plus the six logical regularizers plus a small clause-truth term. The
hyperbolic and semantic view producers are frozen; only co-attention,
reasoning and fusion weights learn. Everything is deterministic for a fixed
config: data split, batch order, fold shuffles and initialization all derive
from the config seed.
"""

from __future__ import annotations

import base64
import json
import logging
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import coattention as ca
from . import numerics as nx
from . import reasoning as rs
from .errors import ConfigError, DataError, DegenerateInputError, FormatError, NumericError
from .numerics import Tensor
from .poincare import HyperbolicEmbeddingTable
from .schema import accepts, build
from .semantic import SemanticProvider
from .syntactic import Taxonomy, syntactic_matrix
from .formats import is_utf8
from .graph import canonicalize_title

logger = logging.getLogger(__name__)

VARIANTS = ("full", "concat", "semantic_only")

MODEL_FORMAT = "titlemap-model"
MODEL_VERSION = 2

# every tensor is stored as the base64 of these raw bytes
_TENSOR_DTYPE = np.dtype("<f8")

# inference rows per forward pass; bounds peak memory on long title lists
_CHUNK_ROWS = 512


@dataclass
class TrainConfig:
    d_h: int = 128
    d_b: int = 128
    d_r: int = 64
    lr: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 200
    patience: int = 20
    split: tuple = (0.64, 0.16, 0.20)
    seed: int = 0
    logic_weight: float = 1.0
    clause_weight: float = 0.1
    variant: str = "full"
    # the co-attended features carry a 1/d softmax factor, so the fusion
    # layer needs far larger weights than the rest of the model; a separate
    # Adam group with a scaled lr closes that gap at desk scale
    fusion_lr_multiplier: float = 1.0

    def __post_init__(self):
        if len(self.split) != 3 or not all(accepts(float, f) for f in self.split):
            raise ConfigError(f"split {self.split} must be three finite numbers")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions {self.split} must sum to 1")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown model variant {self.variant!r}")
        if min(self.d_h, self.d_b, self.d_r) < 1:
            raise ConfigError("dimensions must be positive")
        if min(self.batch_size, self.max_epochs) < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if self.patience < 0:
            raise ConfigError("patience must be >= 0")
        if not self.lr > 0:
            raise ConfigError("lr must be positive")
        if min(self.logic_weight, self.clause_weight) < 0:
            raise ConfigError("logic_weight and clause_weight must be >= 0")
        if self.fusion_lr_multiplier <= 0:
            raise ConfigError("fusion_lr_multiplier must be positive")
        if self.seed < 0:
            raise ConfigError(f"train seed must be >= 0, got {self.seed}")


@dataclass
class MapperModel:
    taxonomy: Taxonomy
    config: TrainConfig
    d_h: int
    d_b: int
    d_s: int
    coatt: Optional[ca.CoAttentionParams]
    reason_b: Optional[rs.ReasoningParams]
    reason_s: Optional[rs.ReasoningParams]
    fusion_w: Tensor  # |Y| x fused_dim
    fusion_b: Tensor  # 1 x |Y|

    @property
    def taxonomy_hash(self) -> str:
        return self.taxonomy.version_id

    def trainable_tensors(self) -> list[Tensor]:
        return list(_tensor_registry(self).values())


def fused_width(variant: str, d_h: int, d_b: int, d_s: int, d_r: int) -> int:
    if variant == "full":
        return d_h + d_b + d_s + 2 * d_r
    if variant == "concat":
        return d_h + d_b + d_s
    return d_b


def init_model(taxonomy: Taxonomy, config: TrainConfig, d_h: int, d_b: int) -> MapperModel:
    d_s = len(taxonomy)
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    rng = np.random.default_rng(seeds[0])
    width = fused_width(config.variant, d_h, d_b, d_s, config.d_r)
    # relu-softmax heads die when early logits are chaotic: collapsing every
    # logit below zero yields the uniform distribution, which beats a noisy
    # start on cross-entropy and is a gradient-free trap. Near-zero weights
    # plus a positive bias start the head uniform AND fully relu-active.
    fusion_w = Tensor(rng.uniform(-0.01, 0.01, size=(d_s, width)), requires_grad=True)
    fusion_b = Tensor(np.ones((1, d_s)), requires_grad=True)
    coatt = reason_b = reason_s = None
    if config.variant == "full":
        coatt = ca.CoAttentionParams.init(
            d_h, d_b, d_s, seed=seeds[1].generate_state(1)[0]
        )
        reason_b = rs.ReasoningParams.init(
            d_b, config.d_r, seed=seeds[2].generate_state(1)[0]
        )
        reason_s = rs.ReasoningParams.init(
            d_s, config.d_r, seed=seeds[3].generate_state(1)[0]
        )
    return MapperModel(
        taxonomy=taxonomy,
        config=config,
        d_h=d_h,
        d_b=d_b,
        d_s=d_s,
        coatt=coatt,
        reason_b=reason_b,
        reason_s=reason_s,
        fusion_w=fusion_w,
        fusion_b=fusion_b,
    )


# ---------------------------------------------------------------------------
# Feature assembly

class FeaturePipeline:
    """Builds the frozen (X_h, X_b, X_s) views; titles unseen in the transition
    graph receive the zero topological vector."""

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

    def title_views(self, titles: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        keys = [canonicalize_title(t) for t in titles]
        x_h = np.stack(
            [
                self.hyperbolic.vectors.get(k, np.zeros(self.d_h))
                for k in keys
            ]
        ) if keys else np.zeros((0, self.d_h))
        x_b = np.stack([self.semantic.embed(k) for k in keys]) if keys else np.zeros((0, self.d_b))
        x_s = syntactic_matrix(keys, self.taxonomy)
        return x_h, x_b, x_s

    def standard_semantic(self) -> np.ndarray:
        if self._standard_semantic is None:
            self._standard_semantic = np.stack(
                [self.semantic.embed(t) for t in self.taxonomy.titles]
            )
        return self._standard_semantic

    def standard_syntactic(self) -> np.ndarray:
        if self._standard_syntactic is None:
            self._standard_syntactic = syntactic_matrix(self.taxonomy.titles, self.taxonomy)
        return self._standard_syntactic


@dataclass
class _TrainContext:
    fold_rng: np.random.Generator
    reg_rng: np.random.Generator


def _forward(
    model: MapperModel,
    x_h: np.ndarray,
    x_b: np.ndarray,
    x_s: np.ndarray,
    v_b: Tensor,
    v_s: Tensor,
    ctx: Optional[_TrainContext] = None,
) -> dict:
    """Forward pass; with `ctx` also returns the training-only loss pieces."""
    th, tb, ts = Tensor(x_h), Tensor(x_b), Tensor(x_s)
    out: dict = {}
    training = ctx is not None
    if model.config.variant == "full":
        attended = ca.co_attend(th, tb, ts, model.coatt)
        n_cand = len(model.taxonomy)
        order_b = ctx.fold_rng.permutation(n_cand) if training else None
        order_s = ctx.fold_rng.permutation(n_cand) if training else None
        pre_b = rs.encode_views(tb, v_b, model.reason_b)
        pre_s = rs.encode_views(ts, v_s, model.reason_s)
        clause_b = rs.clause_representation(*pre_b, model.reason_b, order_b)
        clause_s = rs.clause_representation(*pre_s, model.reason_s, order_s)
        fused = nx.concat(
            [attended.x_hat_h, attended.x_hat_b, attended.x_hat_s, clause_b, clause_s],
            axis=1,
        )
        if training:
            out["clauses"] = {"b": clause_b, "s": clause_s}
            out["projections"] = {"b": pre_b, "s": pre_s}
    elif model.config.variant == "concat":
        fused = nx.concat([th, tb, ts], axis=1)
    else:  # semantic_only
        fused = tb
    logits = nx.relu(nx.matmul(fused, nx.transpose(model.fusion_w)) + model.fusion_b)
    out["logits"] = logits
    return out


def _reg_batch(
    j_pre: Tensor,
    v_pre: Tensor,
    params: rs.ReasoningParams,
    ctx: _TrainContext,
) -> Tensor:
    """Vectors fed to the logical regularizers for one view, encoded in one
    pass from the view's projections: the events of a couple of sampled
    candidates, then each batch title and each sampled standard title alone,
    with the other event slot zero."""
    n_cand, batch_size = v_pre.data.shape[0], j_pre.data.shape[0]
    pre = [
        j_pre + nx.take_rows(v_pre, np.full(batch_size, k))
        for k in ctx.reg_rng.choice(n_cand, size=min(2, n_cand), replace=False)
    ]
    sample = ctx.reg_rng.choice(n_cand, size=min(n_cand, batch_size), replace=False)
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
    ctx: _TrainContext,
) -> tuple[Tensor, dict]:
    if labels.min() < 0 or labels.max() >= len(model.taxonomy):
        raise DataError("label index outside the taxonomy range")
    parts = _forward(model, x_h, x_b, x_s, v_b, v_s, ctx)
    log_probs = nx.log_softmax(parts["logits"], axis=-1)
    ce = nx.neg(nx.tmean(nx.gather_rows(log_probs, labels)))
    total = ce
    detail = {"cross_entropy": ce}
    if model.config.variant == "full":
        cfg = model.config
        for view, params in (("b", model.reason_b), ("s", model.reason_s)):
            j_pre, v_pre = parts["projections"][view]
            e_gold = rs.correct_events(j_pre, v_pre, labels, params)
            truth = rs.clause_truth_loss(parts["clauses"][view], e_gold, params)
            regs = rs.logical_regularizers(_reg_batch(j_pre, v_pre, params, ctx), params)
            detail[f"truth_{view}"] = truth
            detail[f"regs_{view}"] = regs
            total = total + nx.mul(regs.total, Tensor(cfg.logic_weight)) + nx.mul(
                truth, Tensor(cfg.clause_weight)
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
    rows = []
    for start in range(0, x_h.shape[0], _CHUNK_ROWS):
        sl = slice(start, start + _CHUNK_ROWS)
        parts = _forward(model, x_h[sl], x_b[sl], x_s[sl], v_b, v_s)
        rows.append(nx.softmax(parts["logits"], axis=-1).data)
    return np.concatenate(rows, axis=0) if rows else np.zeros((0, len(model.taxonomy)))


def forward_probabilities(
    model: MapperModel,
    pipeline: FeaturePipeline,
    titles: Sequence[str],
) -> np.ndarray:
    """Inference-mode class distribution per title, shape (n, |Y|).

    Each distinct canonical title is scored once and its row is copied to
    every title that shares it, so titles with the same canonical form get
    identical rows. Every step of the forward pass acts per row, but the
    BLAS products are not bitwise row-independent: a row can differ in its
    last bits (up to about 1e-14 relative) from scoring that title alone or
    among other titles."""
    v_b = Tensor(pipeline.standard_semantic())
    v_s = Tensor(pipeline.standard_syntactic())
    key_of = {raw: canonicalize_title(raw) for raw in dict.fromkeys(titles)}
    keys = list(dict.fromkeys(key_of.values()))
    row_of = {key: row for row, key in enumerate(keys)}
    inverse = np.array([row_of[key_of[raw]] for raw in titles], dtype=np.intp)
    x_h, x_b, x_s = pipeline.title_views(keys)
    return _probs_from_views(model, x_h, x_b, x_s, v_b, v_s)[inverse]


def rank_classes(probs: np.ndarray) -> np.ndarray:
    """Class indices of each row by descending probability; ties keep the
    lower taxonomy index."""
    return np.argsort(-probs, axis=1, kind="stable")


def clamp_k(k: int, n_classes: int) -> int:
    """Check a top-k size; one above the taxonomy size is clamped with a warning."""
    if k < 1:
        raise ConfigError(f"top-k size must be >= 1, got k={k}")
    if k > n_classes:
        logger.warning("k=%d clamped to taxonomy size %d", k, n_classes)
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


def _hit_at(probs: np.ndarray, labels: np.ndarray, n: int) -> float:
    if probs.shape[0] == 0:
        return 0.0
    top = rank_classes(probs)[:, :n]
    return float(np.mean([labels[i] in top[i] for i in range(len(labels))]))


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
    checkpoint. `examples` are (raw title, standard title) pairs."""
    taxonomy = pipeline.taxonomy
    if pipeline.d_h != config.d_h:
        raise ConfigError(
            f"config d_h={config.d_h} but hyperbolic table has dim {pipeline.d_h}"
        )
    if pipeline.d_b != config.d_b:
        raise ConfigError(
            f"config d_b={config.d_b} but semantic provider has dim {pipeline.d_b}"
        )
    if not examples:
        raise DegenerateInputError("train: no labeled examples")
    labels_all = np.array([taxonomy.index(std) for _, std in examples], dtype=np.intp)
    titles_all = [raw for raw, _ in examples]

    seeds = np.random.SeedSequence(config.seed).spawn(4)
    split_rng = np.random.default_rng(seeds[0])
    shuffle_rng = np.random.default_rng(seeds[1])
    ctx = _TrainContext(
        fold_rng=np.random.default_rng(seeds[2]),
        reg_rng=np.random.default_rng(seeds[3]),
    )

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
        logger.warning(
            "training set (%d) smaller than taxonomy (%d); coverage will be partial",
            len(idx_train),
            len(taxonomy),
        )

    x_h, x_b, x_s = pipeline.title_views(titles_all)
    v_b = Tensor(pipeline.standard_semantic())
    v_s = Tensor(pipeline.standard_syntactic())

    model = init_model(taxonomy, config, d_h=pipeline.d_h, d_b=pipeline.d_b)
    # the bias stays in the base-lr group: a fast per-class bias random-walks
    # across zero early in training, which permanently relu-kills the class
    optimizers = [nx.Adam([model.fusion_w], lr=config.lr * config.fusion_lr_multiplier)]
    rest = [t for t in model.trainable_tensors() if t is not model.fusion_w]
    if rest:
        optimizers.append(nx.Adam(rest, lr=config.lr))

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
                        model, x_h[rows], x_b[rows], x_s[rows], labels_all[rows], v_b, v_s, ctx
                    )
                loss_value = loss.item()
                if not np.isfinite(loss_value):
                    raise NumericError(f"training loss is {loss_value} at epoch {epoch}")
                tape.backward(loss)
                for optimizer in optimizers:
                    optimizer.step()
                for params in (model.reason_b, model.reason_s):
                    if params is not None:
                        params.renormalize_anchor()
                epoch_loss += loss_value
                n_batches += 1
            val_probs = _probs_from_views(
                model, x_h[idx_val], x_b[idx_val], x_s[idx_val], v_b, v_s
            )
            if not np.isfinite(val_probs).all():
                raise NumericError(f"validation probabilities are not finite at epoch {epoch}")
            val_hit10 = _hit_at(val_probs, labels_all[idx_val], 10)
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
    metrics = {
        "best_val_hit_at_10": best_metric,
        "test_hit_at_1": _hit_at(test_probs, labels_all[idx_test], 1),
        "test_hit_at_5": _hit_at(test_probs, labels_all[idx_test], 5),
        "test_hit_at_10": _hit_at(test_probs, labels_all[idx_test], 10),
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
# and stores `data` as the base64 of its little-endian float64 bytes, so
# every value, -0.0 and subnormals included, survives the round-trip exactly.

def _tensor_registry(model: MapperModel) -> dict[str, Tensor]:
    """Artifact name -> tensor for every trainable tensor, in optimizer order."""
    reg = {"fusion.w": model.fusion_w, "fusion.b": model.fusion_b}
    for prefix, params in (
        ("coattention", model.coatt),
        ("reasoning_b", model.reason_b),
        ("reasoning_s", model.reason_s),
    ):
        if params is not None:
            reg.update({f"{prefix}.{name}": t for name, t in nx.tensor_fields(params).items()})
    return reg


def _tensor_shapes(config: TrainConfig, d_h: int, d_b: int, d_s: int) -> dict[str, tuple[int, int]]:
    """Artifact name -> shape of every tensor `_tensor_registry` lists for a
    model of these dimensions, computed without building the model."""
    width = fused_width(config.variant, d_h, d_b, d_s, config.d_r)
    shapes = {"fusion.w": (d_s, width), "fusion.b": (1, d_s)}
    if config.variant == "full":
        for prefix, params in (
            ("coattention", ca.CoAttentionParams.shapes(d_h, d_b, d_s)),
            ("reasoning_b", rs.ReasoningParams.shapes(d_b, config.d_r)),
            ("reasoning_s", rs.ReasoningParams.shapes(d_s, config.d_r)),
        ):
            shapes.update({f"{prefix}.{name}": shape for name, shape in params.items()})
    return shapes


def save_model(model: MapperModel, path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "variant": model.config.variant,
        "dims": {"d_h": model.d_h, "d_b": model.d_b, "d_s": model.d_s, "d_r": model.config.d_r},
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


def _positive_int(value) -> bool:
    return accepts(int, value) and value >= 1


# the artifact fields read besides train_config, each with the check its value must pass
_ARTIFACT_FIELDS = {
    "taxonomy_titles": lambda v: _str_list(v) and len(v) > 0,
    "taxonomy_groups": lambda v: v is None or _str_list(v),
    "taxonomy_hash": lambda v: isinstance(v, str),
    "dims": lambda v: isinstance(v, dict) and all(_positive_int(v.get(k)) for k in ("d_h", "d_b")),
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
    try:
        config = build(TrainConfig, doc.get("train_config"))
    except ConfigError as e:
        raise FormatError(f"{path}: train_config: {e}") from None
    for key, valid in _ARTIFACT_FIELDS.items():
        if key not in doc or not valid(doc[key]):
            raise FormatError(f"{path}: field {key!r} is missing or ill-typed")
    taxonomy = Taxonomy(titles=doc["taxonomy_titles"], groups=doc["taxonomy_groups"])
    if taxonomy.version_id != doc["taxonomy_hash"]:
        raise DataError(f"{path}: taxonomy hash mismatch; artifact is inconsistent")
    d_h, d_b = doc["dims"]["d_h"], doc["dims"]["d_b"]
    if (d_h, d_b) != (config.d_h, config.d_b):
        raise FormatError(
            f"{path}: dims d_h={d_h} d_b={d_b} differ from train_config "
            f"d_h={config.d_h} d_b={config.d_b}"
        )
    # every stored tensor is checked against the shape the dimensions imply
    # before the model is built, so a false dimension cannot ask for memory
    expected = _tensor_shapes(config, d_h, d_b, len(taxonomy))
    stored = doc["tensors"]
    if set(stored) != set(expected):
        raise FormatError(f"{path}: tensor set does not match the {config.variant} variant")
    arrays = {}
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
        arrays[name] = arr
    model = init_model(taxonomy, config, d_h=d_h, d_b=d_b)
    for name, t in _tensor_registry(model).items():
        t.data[...] = arrays[name]
    return model
