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
from .formats import line_keys, read_rows, write_rows


@lru_cache(maxsize=131072)
def gram_set(text: str) -> frozenset:
    """Set of character 3-grams of `text`, padded with '^^'/'$$'.

    "abcd" -> {^^a, ^ab, abc, bcd, cd$, d$$}.
    """
    text = "^^" + text + "$$"
    return frozenset(text[i : i + 3] for i in range(len(text) - 2))


def string_cosine(a: str, b: str) -> float:
    """|A & B| / sqrt(|A| * |B|) over the 3-gram sets of two canonical keys.
    Symmetric, in [0, 1]."""
    ga, gb = gram_set(a), gram_set(b)
    return len(ga & gb) / float(np.sqrt(len(ga) * len(gb)))


@dataclass
class Taxonomy:
    """Ordered standard titles; row order defines the class indices.

    The titles are canonical keys, as `load_tsv` and `model.load_model` read
    them; the constructor checks only that they are unique. Membership and
    `index` take canonical keys."""

    titles: list[str]
    groups: Optional[list[str]] = None

    def __post_init__(self):
        if len(set(self.titles)) != len(self.titles):
            raise DataError("taxonomy titles must be unique after canonicalization")
        if self.groups is not None and len(self.groups) != len(self.titles):
            raise DataError("taxonomy group list length must match title count")
        self._index = {t: i for i, t in enumerate(self.titles)}

    def __len__(self) -> int:
        return len(self.titles)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def index(self, key: str) -> int:
        if key not in self._index:
            raise DataError(f"title {key!r} is not in the taxonomy")
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
        key_of, rows = line_keys(path), read_rows(path, ("standard_title", "group"))[1]
        rows = [(key_of(title, lineno), group) for lineno, (title, group) in rows]
        if not rows:
            raise DataError(f"{path}: taxonomy file is empty")
        return cls(titles=[t for t, _ in rows], groups=[g for _, g in rows])


class GramIndex:
    """Inverted index of the 3-grams of a list of standard titles: each gram
    lists the positions of the standards that hold it. Built once, it counts
    the grams any batch of titles shares with every standard."""

    def __init__(self, standards: Sequence[str]):
        columns: dict[str, list[int]] = {}
        for col, standard in enumerate(standards):
            for gram in gram_set(standard):
                columns.setdefault(gram, []).append(col)
        self._postings = {gram: np.array(cols, dtype=np.intp) for gram, cols in columns.items()}
        self.sizes = np.array([len(gram_set(s)) for s in standards], dtype=np.int64)

    def shared_counts(self, titles: Sequence[str]) -> np.ndarray:
        """|A & B| for the grams A of each title and B of each standard, shape
        (len(titles), len(standards)): one bincount over the positions listed
        under each title's grams, each offset by the title's row."""
        n_cols = len(self.sizes)
        hits, hit_rows = [], []
        for row, title in enumerate(titles):
            for gram in gram_set(title):
                cols = self._postings.get(gram)
                if cols is not None:
                    hits.append(cols)
                    hit_rows.append(row)
        lengths = np.array([len(cols) for cols in hits], dtype=np.intp)
        flat = np.repeat(np.array(hit_rows, dtype=np.intp) * n_cols, lengths)
        if hits:
            flat += np.concatenate(hits)
        return np.bincount(flat, minlength=len(titles) * n_cols).reshape(len(titles), n_cols)


def syntactic_matrix(titles: Sequence[str], taxonomy: Taxonomy) -> np.ndarray:
    """Similarity of each canonical title against every standard title, shape
    (len(titles), |Y|), columns in taxonomy order. Equal, bit for bit, to
    `string_cosine` of every pair: the shared-gram counts of the taxonomy's
    `GramIndex` over sqrt(|A| * |B|)."""
    if len(taxonomy) == 0:
        raise DegenerateInputError("syntactic_matrix: empty taxonomy")
    index = GramIndex(taxonomy.titles)
    title_sizes = np.array([len(gram_set(t)) for t in titles], dtype=np.int64)
    return index.shared_counts(titles) / np.sqrt(title_sizes[:, None] * index.sizes)
