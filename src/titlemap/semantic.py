"""Semantic title embeddings behind a pluggable provider.

A deployment would plug a transformer encoder in here; this package ships
two providers with the same contract (deterministic, unit-norm output):

* `HashedNgramProvider` — signed feature hashing of character 3-grams and
  word unigrams. No semantics beyond surface overlap, but deterministic and
  dependency-free.
* `PrecomputedProvider` — the rows of a table loaded from an embedding TSV,
  with an optional fallback encoder for titles missing from the file.

Providers take canonical keys (see `formats`) and never canonicalize.
`embed_batch` builds the whole batch in one pass; `embed` is its one-title
case.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from itertools import chain, count
from typing import TYPE_CHECKING, Optional, Protocol, Sequence

import numpy as np

from .errors import ConfigError, DegenerateInputError, FormatError, MissingTitleError, NumericError
from .formats import VectorTable, read_vectors, write_vectors

if TYPE_CHECKING:
    from .syntactic import GramNumbering


class SemanticProvider(Protocol):
    dimension: int

    def embed(self, title: str) -> np.ndarray: ...

    def embed_batch(
        self, titles: Sequence[str], grams: Optional[GramNumbering] = None
    ) -> np.ndarray: ...


def _token_feature(seed: int, d_b: int, token: str) -> tuple[int, float]:
    """(bucket, sign) of one hashed token."""
    digest = hashlib.blake2b(
        f"{seed}\x1f{token}".encode("utf-8"), digest_size=8
    ).digest()
    h = int.from_bytes(digest, "little")
    return h % d_b, 1.0 if (h >> 62) & 1 else -1.0


def hashed_ngram_matrix(
    titles: Sequence[str], d_b: int, seed: int, grams: Optional[GramNumbering] = None
) -> np.ndarray:
    """Deterministic unit vectors, shape (len(titles), d_b), from the signed
    hashed character 3-grams and words of each canonical title.

    Signed hashing keeps the expected inner product of token-disjoint titles
    at zero. `grams` is the batch's numbering of its 3-grams (see
    `syntactic.GramNumbering`), built here when not given; the words are
    numbered on top of it, and each distinct gram and word is hashed once.
    Every title's features are then gathered by number and summed by one
    bincount over row-offset buckets. The sums are integers, so they do not
    depend on the batch or on the order of the terms.
    """
    if d_b < 8:
        raise ConfigError(f"semantic dimension must be >= 8, got {d_b}")
    if grams is None:
        from .syntactic import GramNumbering

        grams = GramNumbering(titles)
    words = defaultdict(count(len(grams.number)).__next__)  # numbered after the grams
    # every title's `split(" ")`, in order: splitting the joined batch
    word_ids = list(map(words.__getitem__, " ".join(titles).split(" "))) if titles else []
    word_rows = np.repeat(
        np.arange(len(titles), dtype=np.intp), [title.count(" ") + 1 for title in titles]
    )
    features = [_token_feature(seed, d_b, token) for token in chain(grams.number, words)]
    buckets = np.array([bucket for bucket, _ in features], dtype=np.intp)
    signs = np.array([sign for _, sign in features])
    ids = np.concatenate((grams.ids, np.array(word_ids, dtype=np.intp)))
    rows = np.concatenate((grams.rows, word_rows))
    rows *= d_b
    rows += buckets[ids]
    sums = np.bincount(rows, weights=signs[ids], minlength=len(titles) * d_b).reshape(
        len(titles), d_b
    )
    norms = np.sqrt(np.einsum("ij,ij->i", sums, sums))
    cancelled = np.flatnonzero(norms == 0.0)
    if cancelled.size:
        raise DegenerateInputError(
            f"hashed embedding of {titles[cancelled[0]]!r} cancelled to the zero vector"
        )
    return sums / norms[:, None]


class HashedNgramProvider:
    def __init__(self, dimension: int = 128, seed: int = 0):
        if dimension < 8:
            raise ConfigError(f"semantic dimension must be >= 8, got {dimension}")
        self.dimension = dimension
        self.seed = seed

    def embed(self, title: str) -> np.ndarray:
        return self.embed_batch([title])[0]

    def embed_batch(
        self, titles: Sequence[str], grams: Optional[GramNumbering] = None
    ) -> np.ndarray:
        return hashed_ngram_matrix(titles, self.dimension, self.seed, grams)


class PrecomputedProvider:
    """Serve the rows of a vector table, optionally falling back to an encoder."""

    def __init__(self, table: VectorTable, fallback: Optional[SemanticProvider] = None):
        if fallback is not None and fallback.dimension != table.dim:
            raise ConfigError(
                f"fallback dimension {fallback.dimension} != table dimension {table.dim}"
            )
        self.table = table
        self.fallback = fallback
        self.dimension = table.dim

    def embed(self, title: str) -> np.ndarray:
        return self.embed_batch([title])[0]

    def embed_batch(
        self, titles: Sequence[str], grams: Optional[GramNumbering] = None
    ) -> np.ndarray:
        """The table's rows where it has the title, the fallback's batch for
        the rest; without a fallback every missing title is listed. The
        batch's numbering `grams` is not read: the fallback numbers the
        missing titles itself."""
        out, missing = self.table.gather(titles)
        if missing.size:
            unknown = [titles[i] for i in missing]
            if self.fallback is None:
                distinct = sorted(set(unknown))
                raise MissingTitleError(
                    f"no embedding available for {len(distinct)} title(s): {distinct}"
                )
            out[missing] = self.fallback.embed_batch(unknown)
        return out


def embed_titles(provider: SemanticProvider, titles: Sequence[str]) -> VectorTable:
    """Embed a set of canonical keys in one batch; missing titles are
    reported together, not one by one."""
    keys = list(dict.fromkeys(titles))
    return VectorTable(keys, provider.embed_batch(keys))


# ---------------------------------------------------------------------------
# Embedding TSV: "#embeddings d=<dim> normalize=<bool>" then title<TAB>v1,v2,...

def write_embeddings(path, table: VectorTable) -> None:
    write_vectors(path, f"#embeddings d={table.dim} normalize=false", table)


def load_precomputed(path) -> VectorTable:
    """The table of an embedding TSV; with `normalize=true` each row is
    scaled to unit norm in place."""
    bools = {"true": True, "false": False}
    table, normalize, linenos = read_vectors(
        path, "#embeddings", "d", "normalize", bools.__getitem__
    )
    if normalize:
        for lineno, row in zip(linenos, table.matrix):
            with np.errstate(over="ignore"):
                norm = float(np.linalg.norm(row))
            if norm == 0.0:
                raise FormatError(f"{path}:{lineno}: zero vector cannot be normalized")
            if norm == np.inf:
                raise NumericError(f"{path}:{lineno}: vector norm overflows to inf")
            row /= norm
    return table
