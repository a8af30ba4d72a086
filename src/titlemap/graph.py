"""Resume ingestion, the directed job-transition graph, and parent/child pairs.

Resumes arrive as JSON-lines (one record per line). Per person, records are
ordered by start date and every consecutive move contributes one transition:
the earlier title is the child, the later title the parent. `build-graph`
reports the graph's node, edge and transition counts; its pairs feed the
hyperbolic embedding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date
from json.encoder import encode_basestring as _encode
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DataError, FormatError
# `canonicalize_title` is unused here: perfbench's tracer names it `graph.canonicalize_title`
from .formats import (
    canonicalize_title, is_utf8, line_keys, read_lines, read_rows, write_lines, write_rows,
)

RECORD_FIELDS = ("person_id", "title", "company_id", "start", "end")
_FIELD_SET = frozenset(RECORD_FIELDS)
_raw_decode = json.JSONDecoder().raw_decode


@dataclass
class JobRecord:
    """One resume line: a person held a title at a company for a date range."""

    person_id: str
    title: str
    company_id: str
    start: date
    end: Optional[date]  # None = still employed
    canonical_title: str = field(repr=False, compare=False)  # the key of `title`

    def __post_init__(self):
        if self.end is not None and self.start > self.end:
            raise DataError(
                f"job record for person {self.person_id!r}: start {self.start} is after end {self.end}"
            )


class ParentChildPair(NamedTuple):
    parent: str  # the later job
    child: str  # the earlier job


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


def build_transition_graph(sequences: Iterable[Sequence[str]]) -> dict[str, int]:
    """The node, distinct edge and transition counts of the directed
    multigraph with one edge per consecutive transition of each person's
    title sequence (as `person_sequences` gives them), self-loops included."""
    nodes, edges, transitions = set(), set(), 0
    for seq in sequences:
        nodes.update(seq)
        moves = list(zip(seq, seq[1:]))
        edges.update(moves)
        transitions += len(moves)
    return {"nodes": len(nodes), "edges": len(edges), "transitions": transitions}


def extract_parent_child_pairs(sequences: Iterable[Sequence[str]]) -> list[ParentChildPair]:
    """One pair per transition of each person's title sequence (as
    `person_sequences` gives them), parent = later title. Self-transitions
    drop out.

    Duplicates are preserved: pair frequency drives hyperbolic sampling.
    """
    pairs = []
    for seq in sequences:
        for earlier, later in zip(seq, seq[1:]):
            if earlier != later:
                pairs.append(ParentChildPair(parent=later, child=earlier))
    return pairs


# ---------------------------------------------------------------------------
# File formats

def _parse_line(path, lineno: int, line: str):
    """The one JSON value of `line`. `raw_decode` takes a bare value that
    fills the line; anything else (JSON whitespace around the value, extra
    data, a syntax error) goes through `json.loads`, which parses it or
    names the fault."""
    try:
        obj, end = _raw_decode(line)
        if end == len(line):
            return obj
    except json.JSONDecodeError:
        pass
    try:
        return json.loads(line)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}:{lineno}: invalid JSON ({e.msg})") from None


def load_records(path) -> list[JobRecord]:
    """Read resume JSONL. Field names must be exactly the documented five.
    Each distinct title is canonicalized once."""
    records, key_of = [], line_keys(path)
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        obj = _parse_line(path, lineno, line)
        if not isinstance(obj, dict) or obj.keys() != _FIELD_SET:
            raise FormatError(
                f"{path}:{lineno}: expected fields {list(RECORD_FIELDS)}, got {sorted(obj) if isinstance(obj, dict) else type(obj).__name__}"
            )
        for name in ("person_id", "title", "company_id"):
            if not isinstance(obj[name], str):
                raise FormatError(f"{path}:{lineno}: {name} must be a JSON string, "
                                  f"got {type(obj[name]).__name__}")
        # text decoded from UTF-8 holds no lone surrogate; only a \u escape makes one
        if "\\u" in line and not all(is_utf8(v) for v in obj.values() if isinstance(v, str)):
            raise FormatError(f"{path}:{lineno}: a field is not valid UTF-8 (lone surrogate)")
        try:
            start = date.fromisoformat(obj["start"])
            end = None if obj["end"] is None else date.fromisoformat(obj["end"])
        except (TypeError, ValueError) as e:
            raise FormatError(f"{path}:{lineno}: bad date ({e})") from None
        key = key_of(obj["title"], lineno)
        try:
            records.append(
                JobRecord(
                    person_id=obj["person_id"],
                    title=obj["title"],
                    company_id=obj["company_id"],
                    start=start,
                    end=end,
                    canonical_title=key,
                )
            )
        except DataError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
    return records


def _record_line(rec: JobRecord) -> str:
    end = "null" if rec.end is None else f'"{rec.end.isoformat()}"'
    return (f'{{"person_id": {_encode(rec.person_id)}, "title": {_encode(rec.title)}, '
            f'"company_id": {_encode(rec.company_id)}, "start": "{rec.start.isoformat()}", '
            f'"end": {end}}}\n')


def write_records(path, records: Iterable[JobRecord]) -> None:
    """One line per record: the bytes `json.dumps(row, ensure_ascii=False)`
    writes for the row of the five fields in `RECORD_FIELDS` order, each
    string escaped by the same `encode_basestring`."""
    write_lines(path, map(_record_line, records))


PAIRS_HEADER = "#pairs\tchild\tparent"


def write_pairs(path, pairs: Iterable[ParentChildPair]) -> None:
    write_rows(path, ((pair.child, pair.parent) for pair in pairs), PAIRS_HEADER)


def load_pairs(path) -> list[ParentChildPair]:
    """Read a pairs file. Both titles of every row are canonicalized, each
    distinct title once; one that normalizes to nothing names its line, and
    so does a row whose child and parent are the same title, which
    `extract_parent_child_pairs` never writes."""
    header, rows = read_rows(path, ("child", "parent"), header=True)
    if header != PAIRS_HEADER:
        raise FormatError(f"{path}:1: expected header {PAIRS_HEADER!r}")
    pairs, key_of = [], line_keys(path)
    for lineno, (child, parent) in rows:
        pair = ParentChildPair(parent=key_of(parent, lineno), child=key_of(child, lineno))
        if pair.parent == pair.child:
            raise FormatError(f"{path}:{lineno}: child and parent are the same title {pair.child!r}")
        pairs.append(pair)
    return pairs
