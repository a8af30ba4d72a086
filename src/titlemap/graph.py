"""Resume ingestion, the directed job-transition graph, and parent/child pairs.

Resumes arrive as JSON-lines (one record per line). Per person, records are
ordered by start date and every consecutive move contributes one transition:
the earlier title is the child, the later title the parent. Edge weights are
globally normalized transition frequencies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date
from typing import Iterable, NamedTuple, Optional

from .errors import DataError, FormatError
from .formats import canonicalize_title, is_utf8, read_lines, read_rows, write_rows

RECORD_FIELDS = ("person_id", "title", "company_id", "start", "end")


@dataclass
class JobRecord:
    """One resume line: a person held a title at a company for a date range."""

    person_id: str
    title: str
    company_id: str
    start: date
    end: Optional[date]  # None = still employed
    canonical_title: str = field(init=False, repr=False, compare=False)  # derived from title

    def __post_init__(self):
        if self.end is not None and self.start > self.end:
            raise DataError(
                f"job record for person {self.person_id!r}: start {self.start} is after end {self.end}"
            )
        # raises on titles that normalize to nothing
        self.canonical_title = canonicalize_title(self.title)


class ParentChildPair(NamedTuple):
    parent: str  # the later job
    child: str  # the earlier job


@dataclass
class TransitionGraph:
    """Directed multigraph over canonical titles, with globally normalized weights."""

    nodes: set[str] = field(default_factory=set)
    edge_counts: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def total_transitions(self) -> int:
        return sum(self.edge_counts.values())

    @property
    def weights(self) -> dict[tuple[str, str], float]:
        total = self.total_transitions
        return {e: c / total for e, c in self.edge_counts.items()}

    def edges(self) -> list[tuple[str, str]]:
        """Edges in a deterministic (sorted) order."""
        return sorted(self.edge_counts)

    def summary(self) -> dict:
        return {
            "nodes": len(self.nodes),
            "edges": len(self.edge_counts),
            "transitions": self.total_transitions,
        }


def person_sequences(records: Iterable[JobRecord]) -> list[list[str]]:
    """Canonical title sequences per person, ordered by start date.

    Ties on start date break by end date (open-ended jobs last), then by
    input order.
    """
    by_person: dict[str, list[tuple[date, date, int, str]]] = {}
    for idx, rec in enumerate(records):
        end_key = rec.end if rec.end is not None else date.max
        by_person.setdefault(rec.person_id, []).append(
            (rec.start, end_key, idx, rec.canonical_title)
        )
    sequences = []
    for person in by_person.values():
        person.sort()
        sequences.append([title for _, _, _, title in person])
    return sequences


def build_transition_graph(records: Iterable[JobRecord]) -> TransitionGraph:
    """Count every consecutive per-person transition, including self-loops."""
    graph = TransitionGraph()
    for seq in person_sequences(records):
        graph.nodes.update(seq)
        for earlier, later in zip(seq, seq[1:]):
            key = (earlier, later)
            graph.edge_counts[key] = graph.edge_counts.get(key, 0) + 1
    return graph


def extract_parent_child_pairs(records: Iterable[JobRecord]) -> list[ParentChildPair]:
    """One pair per transition, parent = later title. Self-transitions drop out.

    Duplicates are preserved: pair frequency drives hyperbolic sampling.
    """
    pairs = []
    for seq in person_sequences(records):
        for earlier, later in zip(seq, seq[1:]):
            if earlier != later:
                pairs.append(ParentChildPair(parent=later, child=earlier))
    return pairs


# ---------------------------------------------------------------------------
# File formats

def load_records(path) -> list[JobRecord]:
    """Read resume JSONL. Field names must be exactly the documented five."""
    records = []
    for lineno, line in read_lines(path):
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
        if not all(is_utf8(v) for v in obj.values() if isinstance(v, str)):
            raise FormatError(f"{path}:{lineno}: a field is not valid UTF-8 (lone surrogate)")
        try:
            start = date.fromisoformat(obj["start"])
            end = None if obj["end"] is None else date.fromisoformat(obj["end"])
        except (TypeError, ValueError) as e:
            raise FormatError(f"{path}:{lineno}: bad date ({e})") from None
        try:
            records.append(
                JobRecord(
                    person_id=obj["person_id"],
                    title=obj["title"],
                    company_id=obj["company_id"],
                    start=start,
                    end=end,
                )
            )
        except DataError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
    return records


def write_records(path, records: Iterable[JobRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            row = {name: getattr(rec, name) for name in RECORD_FIELDS}
            row.update(start=rec.start.isoformat(), end=rec.end.isoformat() if rec.end else None)
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


PAIRS_HEADER = "#pairs\tchild\tparent"


def write_pairs(path, pairs: Iterable[ParentChildPair]) -> None:
    write_rows(path, ((pair.child, pair.parent) for pair in pairs), PAIRS_HEADER)


def load_pairs(path) -> list[ParentChildPair]:
    header, rows = read_rows(path, ("child", "parent"), header=True)
    if header != PAIRS_HEADER:
        raise FormatError(f"{path}:1: expected header {PAIRS_HEADER!r}")
    return [ParentChildPair(parent=parent, child=child) for _, (child, parent) in rows]
