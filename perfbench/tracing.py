"""Span recorder for the traced benchmark pass.

The recorder sits outside the package: `install` swaps named public
functions of `titlemap` for timing wrappers, wherever a caller looks the name
up (the defining module, every module that imported it by name, or the class
for methods), and `restore` puts every original back. Spans stay in memory
and are written out by the stage runner when the stage ends.

A span record is `[id, name, stage, parent, start, end, dur, calls]`. Most
targets get one record per call. Targets called hundreds of thousands of times
(`canonicalize_title`, `semantic.embed`) are aggregated: all calls under the
same parent span share one record whose `dur` and `calls` are sums, so self
time stays exact while the span list stays small. `string_cosine` and
`project_to_ball` are only counted, because a timed wrapper would cost more
than the call it measures.

Elementwise tape operations (`numerics.add`, `matmul`, ...) are deliberately
not wrapped: their time is part of the self time of the layer that issues
them, which is the number a fused-kernel change moves.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

SPAN_FIELDS = ("id", "name", "stage", "parent", "start", "end", "dur", "calls")
_MARK = "__perfbench_original__"


class Recorder:
    """Spans, counters and distinct-argument sets for one CLI stage."""

    def __init__(self, stage: str):
        self.stage = stage
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list] = defaultdict(list)
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._merged: dict[tuple, int] = {}

    def open(self, name: str, aggregate: bool = False) -> tuple[int, float]:
        parent = self._stack[-1] if self._stack else None
        sid = self._merged.get((parent, name)) if aggregate else None
        if sid is None:
            sid = len(self.spans)
            self.spans.append([sid, name, self.stage, parent, None, None, 0.0, 0])
            if aggregate:
                self._merged[(parent, name)] = sid
        self._stack.append(sid)
        start = time.perf_counter()
        if self.spans[sid][4] is None:
            self.spans[sid][4] = start
        return sid, start

    def close(self, token: tuple[int, float]) -> None:
        end = time.perf_counter()
        sid, start = token
        record = self.spans[sid]
        record[5] = end
        record[6] += end - start
        record[7] += 1
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {record[1]!r} closed out of order")


def self_times(spans: list) -> dict[int, float]:
    """Self time of each span: its duration minus its direct children's."""
    child = defaultdict(float)
    for sid, _, _, parent, _, _, dur, _ in spans:
        if parent is not None:
            child[parent] += dur
    return {sid: dur - child[sid] for sid, _, _, _, _, _, dur, _ in spans}


def layer_totals(spans: list) -> dict[str, dict]:
    """Per span name: summed self time, call count and per-call durations.

    Per-call durations come only from spans that are not aggregated, since an
    aggregated record holds a sum over many calls.
    """
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for sid, name, _, _, _, _, dur, calls in spans:
        entry = out.setdefault(name, {"s": 0.0, "calls": 0, "durations": []})
        entry["s"] += selfs[sid]
        entry["calls"] += calls
        if calls == 1:
            entry["durations"].append(dur)
    return out


# ---------------------------------------------------------------------------
# Targets


class Target(NamedTuple):
    module: str  # defining module
    attr: str  # "function" or "Class.method"
    name: str  # span / metric prefix
    kind: str  # "span", "aggregate" or "count"
    observe: Optional[Callable] = None  # observe(recorder, args, kwargs, result)


def _rows_and_distinct(name: str, arg: int):
    def observe(rec, args, kwargs, result):
        titles = args[arg]
        rec.counts[f"{name}.rows"] += len(titles)
        rec.distinct[name].update(titles)
    return observe


def _embed_argument(rec, args, kwargs, result):
    rec.distinct["semantic.embed"].add(args[1])


def _fold_steps(rec, args, kwargs, result):
    rec.counts["reasoning.clause_representation.fold_steps"] += args[1].data.shape[0]


def _tape_nodes(rec, args, kwargs, result):
    rec.samples["numerics.tape_nodes"].append(len(args[0]._nodes))


def _clamped(rec, args, kwargs, result):
    point = args[0]
    # the function returns its (float64) input object unchanged for interior points
    if result is not point and not (
        getattr(point, "shape", None) == result.shape and (result == point).all()
    ):
        rec.counts["poincare.project_to_ball.clamped"] += 1


TARGETS = (
    Target("titlemap.datagen", "gen_taxonomy", "datagen.gen_taxonomy", "span"),
    Target("titlemap.datagen", "gen_resumes", "datagen.gen_resumes", "span"),
    Target("titlemap.graph", "canonicalize_title", "graph.canonicalize_title", "aggregate"),
    Target("titlemap.graph", "load_records", "graph.load_records", "span"),
    Target("titlemap.graph", "build_transition_graph", "graph.build_transition_graph", "span"),
    Target("titlemap.graph", "extract_parent_child_pairs", "graph.extract_parent_child_pairs", "span"),
    Target("titlemap.poincare", "train_poincare", "poincare.train_poincare", "span"),
    Target("titlemap.poincare", "project_to_ball", "poincare.project_to_ball", "count", _clamped),
    Target("titlemap.poincare", "HyperbolicEmbeddingTable.load_tsv", "poincare.load_tsv", "span"),
    Target("titlemap.semantic", "HashedNgramProvider.embed", "semantic.embed", "aggregate", _embed_argument),
    Target("titlemap.semantic", "PrecomputedProvider.embed", "semantic.embed", "aggregate", _embed_argument),
    Target("titlemap.syntactic", "syntactic_matrix", "syntactic.syntactic_matrix", "span",
           _rows_and_distinct("syntactic.syntactic_matrix", 0)),
    Target("titlemap.syntactic", "string_cosine", "syntactic.string_cosine", "count"),
    Target("titlemap.coattention", "co_attend", "coattention.co_attend", "span"),
    Target("titlemap.reasoning", "clause_representation", "reasoning.clause_representation", "span", _fold_steps),
    Target("titlemap.reasoning", "correct_events", "reasoning.correct_events", "span"),
    Target("titlemap.reasoning", "clause_truth_loss", "reasoning.clause_truth_loss", "span"),
    Target("titlemap.reasoning", "logical_regularizers", "reasoning.logical_regularizers", "span"),
    Target("titlemap.numerics", "GradTape.backward", "numerics.backward", "span", _tape_nodes),
    Target("titlemap.numerics", "Adam.step", "numerics.adam_step", "span"),
    Target("titlemap.model", "FeaturePipeline.title_views", "model.title_views", "span"),
    Target("titlemap.model", "loss_on_batch", "model.loss_on_batch", "span"),
    Target("titlemap.model", "forward_probabilities", "model.forward_probabilities", "span",
           _rows_and_distinct("model.forward_probabilities", 2)),
    Target("titlemap.model", "train", "model.train", "span"),
    Target("titlemap.model", "load_model", "model.load_model", "span"),
    Target("titlemap.model", "save_model", "model.save_model", "span"),
    Target("titlemap.evaluation", "make_link_split", "evaluation.make_link_split", "span"),
    Target("titlemap.evaluation", "link_prediction_auc", "evaluation.link_prediction_auc", "span"),
    Target("titlemap.evaluation", "map_at_10_mobility", "evaluation.map_at_10_mobility", "span"),
)


def _wrap(rec: Recorder, target: Target, fn: Callable) -> Callable:
    name, observe = target.name, target.observe
    if target.kind == "count":
        calls = f"{name}.calls"

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            rec.counts[calls] += 1
            if observe is not None:
                observe(rec, args, kwargs, result)
            return result

        wrapper = counted
    else:
        aggregate = target.kind == "aggregate"

        def timed(*args, **kwargs):
            token = rec.open(name, aggregate)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(token)
            if observe is not None:
                observe(rec, args, kwargs, result)
            return result

        wrapper = timed
    wrapper = functools.wraps(fn)(wrapper)
    setattr(wrapper, _MARK, fn)
    return wrapper


def _package_modules() -> list:
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == "titlemap" or key.startswith("titlemap."))
    ]


class Installed(NamedTuple):
    patches: list  # (owner, attribute, original object)


def install(rec: Recorder, targets=TARGETS) -> Installed:
    """Replace every target by a wrapper bound to `rec`, wherever it is looked up."""
    for target in targets:
        importlib.import_module(target.module)
    patches = []
    try:
        for target in targets:
            module = sys.modules[target.module]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(rec, target, raw.__func__))
                else:
                    new = _wrap(rec, target, raw)
                patches.append((owner, meth, raw))
                setattr(owner, meth, new)
                continue
            original = getattr(module, target.attr)
            if hasattr(original, _MARK):
                raise RuntimeError(f"{target.module}.{target.attr} is already wrapped")
            wrapper = _wrap(rec, target, original)
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
    except BaseException:
        restore(Installed(patches))
        raise
    return Installed(patches)


def restore(installed: Installed) -> None:
    for owner, attr, original in reversed(installed.patches):
        setattr(owner, attr, original)


def installed_wrappers() -> list[str]:
    """Names of package attributes that still hold a tracing wrapper."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, raw in vars(value).items():
                    inner = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if hasattr(inner, _MARK):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found
