"""The canonical form of a title, and the line formats of titlemap's text files.

Every file is UTF-8. A tab-separated file is an optional header line, then
one row per non-blank line with a fixed number of tab-separated fields. A
vector file has a `<tag> <dim_key>=<int> <meta_key>=<value>` header and
`title<TAB>v1,v2,...` rows: the title is canonicalized on load (two rows with
the same canonical title are a duplicate) and every value must be finite. In
memory a vector file is a `VectorTable`: its titles, one matrix with a row
per title, and the title -> row index that consumers gather rows by.

Titles are canonicalized at the edge, and only there: the readers of titles
from files (`read_vectors` here, `graph.load_records`, `graph.load_pairs`,
`Taxonomy.load_tsv`, the CLI's label and title readers) turn each distinct
raw title into its canonical key once, through `line_keys`. Everything below
them takes canonical keys and never canonicalizes; `model.load_model` only
checks that each stored taxonomy title is its own key.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DegenerateInputError, FormatError, NumericError

_WS_RE = re.compile(r"\s+")


def canonicalize_title(raw: str) -> str:
    """Lowercase, strip control characters, collapse whitespace. Idempotent."""
    # a printable string holds no Cc or Cf character, so the filter would keep it whole
    cleaned = raw if raw.isprintable() else "".join(
        ch for ch in raw if unicodedata.category(ch) not in ("Cc", "Cf")
    )
    canonical = _WS_RE.sub(" ", cleaned).strip().lower()
    if not canonical:
        raise DegenerateInputError(f"title {raw!r} is empty after normalization")
    return canonical


def line_keys(path) -> Callable[[str, int], str]:
    """A function (raw title, line number) -> canonical key for the titles
    read from `path`. Each distinct raw title is canonicalized once; one that
    normalizes to nothing raises `FormatError` naming `path:line`."""
    keys: dict[str, str] = {}

    def key_of(raw: str, lineno: int) -> str:
        key = keys.get(raw)
        if key is None:
            try:
                key = keys[raw] = canonicalize_title(raw)
            except DegenerateInputError as e:
                raise FormatError(f"{path}:{lineno}: {e}") from None
        return key

    return key_of


def is_utf8(text: str) -> bool:
    """Whether `text` has a UTF-8 encoding. A JSON escape such as `\\ud800`
    decodes to a lone surrogate, which has none."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def read_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, text) of every line, without its `\\n` or `\\r\\n` ending.
    A line that is not UTF-8 raises `FormatError`."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield lineno, raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError:
                raise FormatError(f"{path}:{lineno}: not valid UTF-8") from None


def read_rows(
    path, fields: Sequence[str], header: bool = False
) -> tuple[Optional[str], Iterator[tuple[int, list[str]]]]:
    """The header line (None unless `header`; "" for an empty file) and an
    iterator over the (line number, fields) of every later non-blank line.
    The header is read first, so the caller can check it before any row. A
    row without exactly one field per name in `fields` raises `FormatError`."""
    lines = read_lines(path)
    head = next(lines, (1, ""))[1] if header else None

    def rows():
        for lineno, line in lines:
            if line.strip():
                parts = line.split("\t")
                if len(parts) != len(fields):
                    raise FormatError(
                        f"{path}:{lineno}: expected {'<TAB>'.join(fields)}, got {len(parts)} fields"
                    )
                yield lineno, parts

    return head, rows()


@dataclass(eq=False)
class VectorTable:
    """The vectors of canonical titles: row i of the float64 (n, dim)
    `matrix` belongs to `titles[i]`."""

    titles: list[str]
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def index(self) -> dict[str, int]:
        """title -> row"""
        return {title: i for i, title in enumerate(self.titles)}

    def rows(self, keys: Sequence[str]) -> np.ndarray:
        """Each key's row, or -1 for a title the table does not hold."""
        index = self.index
        return np.array([index.get(key, -1) for key in keys], dtype=np.intp)

    def gather(self, keys: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """The (len(keys), dim) rows of `keys`, zero for a title the table
        does not hold, and the positions in `keys` of those titles."""
        rows = self.rows(keys)
        held = rows >= 0
        out = np.zeros((len(rows), self.dim))
        out[held] = self.matrix[rows[held]]
        return out, np.flatnonzero(~held)


def read_vectors(
    path, tag: str, dim_key: str, meta_key: str, parse_meta: Callable[[str], object]
) -> tuple[VectorTable, object, list[int]]:
    """A vector file with the header `<tag> <dim_key>=<int> <meta_key>=<value>`,
    whose dimension is at least 1: its table, `parse_meta(value)`, and the
    line number of each row. Rows are checked in file order, so a fault
    names the first faulty line."""
    header, rows = read_rows(path, ("title", "values"), header=True)
    parts = header.split()
    if len(parts) != 3 or parts[0] != tag:
        raise FormatError(f"{path}:1: expected '{tag} {dim_key}=<dim> {meta_key}=...' header")
    try:
        dim = int(parts[1].removeprefix(dim_key + "="))
        meta = parse_meta(parts[2].removeprefix(meta_key + "="))
    except (KeyError, ValueError):
        raise FormatError(f"{path}:1: malformed header {header!r}") from None
    if dim < 1:
        raise FormatError(f"{path}:1: malformed header {header!r}: {dim_key} must be >= 1")
    titles, vectors, linenos, seen, key_of = [], [], [], set(), line_keys(path)
    for lineno, (title, values) in rows:
        try:
            vec = np.array(values.split(","), dtype=np.float64)
        except ValueError as e:
            raise FormatError(f"{path}:{lineno}: {e}") from None
        key = key_of(title, lineno)
        if vec.shape[0] != dim:
            raise FormatError(f"{path}:{lineno}: expected {dim} values, got {vec.shape[0]}")
        if not np.isfinite(vec).all():
            raise NumericError(f"{path}:{lineno}: non-finite value")
        if key in seen:
            raise FormatError(f"{path}:{lineno}: duplicate title {key!r}")
        seen.add(key)
        titles.append(key)
        vectors.append(vec)
        linenos.append(lineno)
    matrix = np.array(vectors).reshape(len(titles), dim)
    return VectorTable(titles, matrix), meta, linenos


def write_lines(path, chunks: Iterable[str], header: Optional[str] = None) -> None:
    """Write `header` (if any) as a line, then each chunk as it is; a chunk
    holds one or more whole `\n`-ended lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.writelines(chunks)


def write_rows(path, rows: Iterable[Sequence[str]], header: Optional[str] = None) -> None:
    """Write `header` (if any) and one tab-joined line per row."""
    write_lines(path, ("\t".join(row) + "\n" for row in rows), header)


def write_vectors(path, header: str, table: VectorTable) -> None:
    """A vector file: `header`, then one row per title in sorted order, each
    value written as the repr of a Python float, the shortest text that reads
    back exactly."""
    titles = table.titles
    order = sorted(range(len(titles)), key=titles.__getitem__)
    rows = zip((titles[i] for i in order), table.matrix[order].tolist())
    write_rows(path, ((title, ",".join(map(repr, values))) for title, values in rows), header)
