"""The canonical form of a title, and the line formats of titlemap's text files.

Every file is UTF-8. A tab-separated file is an optional header line, then
one row per non-blank line with a fixed number of tab-separated fields. A
vector file has a `<tag> <dim_key>=<int> <meta_key>=<value>` header and
`title<TAB>v1,v2,...` rows: the title is canonicalized on load (two rows with
the same canonical title are a duplicate) and every value must be finite.
"""

from __future__ import annotations

import re
import unicodedata
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DegenerateInputError, FormatError, NumericError

_WS_RE = re.compile(r"\s+")


def canonicalize_title(raw: str) -> str:
    """Lowercase, strip control characters, collapse whitespace. Idempotent."""
    cleaned = "".join(
        ch for ch in raw if unicodedata.category(ch) not in ("Cc", "Cf")
    )
    canonical = _WS_RE.sub(" ", cleaned).strip().lower()
    if not canonical:
        raise DegenerateInputError(f"title {raw!r} is empty after normalization")
    return canonical


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


def read_vectors(
    path, tag: str, dim_key: str, meta_key: str, parse_meta: Callable[[str], object]
) -> tuple[int, object, list[tuple[int, str, np.ndarray]]]:
    """A vector file with the header `<tag> <dim_key>=<int> <meta_key>=<value>`:
    its dimension, `parse_meta(value)`, and the (line number, canonical title,
    float64 vector) of each row."""
    header, rows = read_rows(path, ("title", "values"), header=True)
    parts = header.split()
    if len(parts) != 3 or parts[0] != tag:
        raise FormatError(f"{path}:1: expected '{tag} {dim_key}=<dim> {meta_key}=...' header")
    try:
        dim = int(parts[1].removeprefix(dim_key + "="))
        meta = parse_meta(parts[2].removeprefix(meta_key + "="))
    except (KeyError, ValueError):
        raise FormatError(f"{path}:1: malformed header {header!r}") from None
    vectors, seen = [], set()
    for lineno, (title, values) in rows:
        try:
            vec = np.array([float(tok) for tok in values.split(",")], dtype=np.float64)
            key = canonicalize_title(title)
        except (ValueError, DegenerateInputError) as e:
            raise FormatError(f"{path}:{lineno}: {e}") from None
        if vec.shape[0] != dim:
            raise FormatError(f"{path}:{lineno}: expected {dim} values, got {vec.shape[0]}")
        if not np.isfinite(vec).all():
            raise NumericError(f"{path}:{lineno}: non-finite value")
        if key in seen:
            raise FormatError(f"{path}:{lineno}: duplicate title {key!r}")
        seen.add(key)
        vectors.append((lineno, key, vec))
    return dim, meta, vectors


def write_rows(path, rows: Iterable[Sequence[str]], header: Optional[str] = None) -> None:
    """Write `header` (if any) and one tab-joined line per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.writelines("\t".join(row) + "\n" for row in rows)


def write_vectors(path, header: str, vectors: dict[str, np.ndarray]) -> None:
    """A vector file: `header`, then one row per title in sorted order, each
    value written so that it reads back exactly."""
    rows = ((t, ",".join(repr(float(v)) for v in vectors[t])) for t in sorted(vectors))
    write_rows(path, rows, header)
