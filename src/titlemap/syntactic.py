"""Character-level string similarity against the taxonomy.

The syntactic view of a title is a |Y|-vector: entry k is the set-cosine of
padded character 3-grams between the title and standard title k. Taxonomy
order is fixed and versioned because that index is meaningful everywhere
downstream (it is the class index of the mapper). A batch's padded 3-grams
are numbered once (`GramNumbering`), and both string views of the batch, this
one and the hashed semantic view, read that numbering.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, DegenerateInputError, FormatError
from .formats import line_keys, read_rows, write_rows


def padded_grams(text: str) -> list[str]:
    """The character 3-grams of `text` padded with '^^'/'$$', in order, repeats
    kept: "abcd" -> [^^a, ^ab, abc, bcd, cd$, d$$]."""
    text = "^^" + text + "$$"
    return [text[i : i + 3] for i in range(len(text) - 2)]


class GramNumbering:
    """The padded 3-grams of a batch of titles, numbered once.

    `number` maps each distinct gram to its number, in first-seen order;
    `ids` holds the numbers of each title's grams in order, repeats kept,
    title after title, and `rows` the title of each entry of `ids`. Both
    string views of a batch read one numbering: the hashed semantic view
    every gram occurrence, the syntactic view each title's distinct grams."""

    def __init__(self, titles: Sequence[str]):
        grams: list[str] = []
        for title in titles:
            grams += padded_grams(title)
        number = defaultdict(count().__next__)
        self.ids = np.array(list(map(number.__getitem__, grams)), dtype=np.intp)
        number.default_factory = None  # a lookup of an unnumbered gram is a KeyError
        self.number: dict[str, int] = number
        self.rows = np.repeat(
            np.arange(len(titles), dtype=np.intp), [len(title) + 2 for title in titles]
        )
        self.size = len(titles)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The (title row, gram number) pairs of the batch, each once, by
        row and then by number."""
        keys = self.rows * len(self.number) + self.ids
        keys.sort()
        keep = np.empty(keys.size, dtype=bool)
        keep[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        return np.divmod(keys[keep], max(1, len(self.number)))

    @cached_property
    def sizes(self) -> np.ndarray:
        """The number of distinct grams of each title."""
        return np.bincount(self.pairs[0], minlength=self.size)


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

    @cached_property
    def gram_index(self) -> GramIndex:
        """The inverted index of the standard titles' 3-grams, built once;
        its `standards` is their numbering."""
        return GramIndex(GramNumbering(self.titles))

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
        groups: dict[str, str] = {}  # key -> group, in line order
        for lineno, (title, group) in rows:
            key = key_of(title, lineno)
            if key in groups:
                raise FormatError(f"{path}:{lineno}: duplicate title {key!r}")
            groups[key] = group
        if not groups:
            raise DataError(f"{path}: taxonomy file is empty")
        return cls(titles=list(groups), groups=list(groups.values()))


# Positions per bincount in `GramIndex.shared_counts`: a chunk takes the
# (title, gram) pairs whose positions start in its 65,536, so its flat index
# holds about 512 KiB however large the batch
_HITS_PER_CHUNK = 1 << 16


class GramIndex:
    """Inverted index of the 3-grams of the standard titles, built from their
    numbering: the standards that hold gram g (numbered g there) are
    `cols[bounds[g] : bounds[g + 1]]`, and the last, empty slice stands for
    every gram no standard holds. `Taxonomy.gram_index` builds it once per
    taxonomy; it counts the grams any numbered batch of titles, or any one
    title, shares with every standard. It is the one place that counts them."""

    def __init__(self, standards: GramNumbering):
        self.standards = standards
        cols, grams = standards.pairs
        self.cols = cols[np.argsort(grams, kind="stable")]
        self.bounds = np.zeros(len(standards.number) + 2, dtype=np.intp)
        np.cumsum(np.bincount(grams, minlength=len(standards.number)), out=self.bounds[1:-1])
        self.bounds[-1] = self.bounds[-2]
        self.sizes = standards.sizes

    def title_counts(self, title: str) -> np.ndarray:
        """|A & B| for the grams A of one canonical key and B of each
        standard, shape (len(standards),): each distinct gram of the key
        looks up its standards once, and one bincount counts them."""
        find, absent, bounds = self.standards.number.get, len(self.bounds) - 2, self.bounds
        postings = {find(gram, absent) for gram in padded_grams(title)}
        hits = np.concatenate([self.cols[bounds[g] : bounds[g + 1]] for g in postings])
        return np.bincount(hits, minlength=len(self.sizes))

    def shared_counts(self, batch: GramNumbering) -> np.ndarray:
        """|A & B| for the grams A of each title of `batch` and B of each
        standard, shape (batch.size, len(standards)). Each distinct gram of
        the batch looks up its standards once; each title's distinct grams
        then list their standards' positions, offset by the title's row, and
        one bincount per `_HITS_PER_CHUNK` positions counts them."""
        n_cols = len(self.sizes)
        find, absent = self.standards.number.get, len(self.bounds) - 2
        posting = np.fromiter(
            (find(gram, absent) for gram in batch.number), dtype=np.intp, count=len(batch.number)
        )
        rows, grams = batch.pairs
        first = self.bounds[posting][grams]
        lengths = self.bounds[posting + 1][grams] - first
        starts = np.cumsum(lengths) - lengths  # each pair's first position
        total = int(lengths.sum())
        shift = first - starts  # position q of a pair lists standard cols[q + shift]
        counts = np.zeros((batch.size, n_cols), dtype=np.intp)
        cuts = np.searchsorted(starts, np.arange(0, total, _HITS_PER_CHUNK))
        for lo, hi in zip(cuts, [*cuts[1:], len(rows)]):
            if lo == hi:  # no pair starts here: the one before spans the chunk
                continue
            flat = np.repeat(shift[lo:hi], lengths[lo:hi])
            flat += np.arange(starts[lo], starts[lo] + flat.size)
            flat = self.cols[flat]
            top = rows[lo]
            flat += np.repeat((rows[lo:hi] - top) * n_cols, lengths[lo:hi])
            span = rows[hi - 1] + 1 - top
            counts[top : top + span] += np.bincount(flat, minlength=span * n_cols).reshape(
                span, n_cols
            )
        return counts


def syntactic_matrix(
    titles: Sequence[str], taxonomy: Taxonomy, grams: Optional[GramNumbering] = None
) -> np.ndarray:
    """Similarity of each canonical title against every standard title, shape
    (len(titles), |Y|), columns in taxonomy order: the set cosine
    |A & B| / sqrt(|A| * |B|) of the padded 3-grams A of each title and B of
    each standard, from the shared-gram counts of the taxonomy's `GramIndex`,
    the same bits whatever batch a title is scored in. `grams` is the batch's
    numbering, built here when not given."""
    if len(taxonomy) == 0:
        raise DegenerateInputError("syntactic_matrix: empty taxonomy")
    if grams is None:
        grams = GramNumbering(titles)
    index = taxonomy.gram_index
    # |A| * |B| is a small integer, so the float product is exact
    scores = np.multiply.outer(grams.sizes.astype(float), index.sizes.astype(float))
    np.sqrt(scores, out=scores)
    return np.divide(index.shared_counts(grams), scores, out=scores)


def string_cosine(a: str, b: str) -> float:
    """`syntactic_matrix` of one canonical key against one: symmetric, in [0, 1]."""
    return float(syntactic_matrix([a], Taxonomy([b]))[0, 0])
