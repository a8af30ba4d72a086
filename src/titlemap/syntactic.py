"""Character-level string similarity against the taxonomy.

The syntactic view of a title is a |Y|-vector: entry k is the set-cosine of
padded character 3-grams between the title and standard title k. Taxonomy
order is fixed and versioned because that index is meaningful everywhere
downstream (it is the class index of the mapper).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, DegenerateInputError
from .formats import read_rows, write_rows
from .graph import canonicalize_title


@lru_cache(maxsize=131072)
def gram_set(text: str) -> frozenset:
    """Set of character 3-grams of `text`, padded with '^^'/'$$'.

    "abcd" -> {^^a, ^ab, abc, bcd, cd$, d$$}.
    """
    text = "^^" + text + "$$"
    return frozenset(text[i : i + 3] for i in range(len(text) - 2))


def string_cosine(a: str, b: str) -> float:
    """|A & B| / sqrt(|A| * |B|) over 3-gram sets. Symmetric, in [0, 1]."""
    ga = gram_set(canonicalize_title(a))
    gb = gram_set(canonicalize_title(b))
    return len(ga & gb) / float(np.sqrt(len(ga) * len(gb)))


@dataclass
class Taxonomy:
    """Ordered standard titles; row order defines the class indices."""

    titles: list[str]
    groups: Optional[list[str]] = None

    def __post_init__(self):
        self.titles = [canonicalize_title(t) for t in self.titles]
        if len(set(self.titles)) != len(self.titles):
            raise DataError("taxonomy titles must be unique after canonicalization")
        if self.groups is not None and len(self.groups) != len(self.titles):
            raise DataError("taxonomy group list length must match title count")
        self._index = {t: i for i, t in enumerate(self.titles)}

    def __len__(self) -> int:
        return len(self.titles)

    def __contains__(self, title: str) -> bool:
        return canonicalize_title(title) in self._index

    def index(self, title: str) -> int:
        key = canonicalize_title(title)
        if key not in self._index:
            raise DataError(f"title {title!r} is not in the taxonomy")
        return self._index[key]

    @property
    def version_id(self) -> str:
        joined = "\x1f".join(self.titles)
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]

    def write_tsv(self, path) -> None:
        groups = self.groups or [""] * len(self.titles)
        write_rows(path, zip(self.titles, groups))

    @classmethod
    def load_tsv(cls, path) -> "Taxonomy":
        rows = [row for _, row in read_rows(path, ("standard_title", "group"))[1]]
        if not rows:
            raise DataError(f"{path}: taxonomy file is empty")
        return cls(titles=[t for t, _ in rows], groups=[g for _, g in rows])


def syntactic_matrix(titles: Sequence[str], taxonomy: Taxonomy) -> np.ndarray:
    """Similarity of each title against every standard title, shape
    (len(titles), |Y|), columns in taxonomy order. Equal, bit for bit, to
    `string_cosine` of every pair.

    Scored through an inverted index of the taxonomy's grams: a title's
    shared-gram count with every standard title is one bincount over the
    columns listed under each of its grams."""
    if len(taxonomy) == 0:
        raise DegenerateInputError("syntactic_matrix: empty taxonomy")
    # taxonomy titles are canonical already (`Taxonomy.__post_init__`)
    columns: dict[str, list[int]] = {}
    for col, standard in enumerate(taxonomy.titles):
        for gram in gram_set(standard):
            columns.setdefault(gram, []).append(col)
    postings = {gram: np.array(cols, dtype=np.intp) for gram, cols in columns.items()}
    sizes = np.array([len(gram_set(t)) for t in taxonomy.titles], dtype=np.int64)
    no_hits = [np.empty(0, dtype=np.intp)]
    matrix = np.empty((len(titles), len(taxonomy)), dtype=np.float64)
    for row, title in enumerate(titles):
        grams = gram_set(canonicalize_title(title))
        hits = [postings[g] for g in grams if g in postings] or no_hits
        shared = np.bincount(np.concatenate(hits), minlength=len(taxonomy))
        matrix[row] = shared / np.sqrt(len(grams) * sizes)
    return matrix
