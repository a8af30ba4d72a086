"""Semantic title embeddings behind a pluggable provider.

A deployment would plug a transformer encoder in here; this package ships
two providers with the same contract (deterministic, unit-norm output):

* `HashedNgramProvider` — signed feature hashing of character 3-grams and
  word unigrams. No semantics beyond surface overlap, but deterministic and
  dependency-free.
* `PrecomputedProvider` — vectors loaded from an embedding TSV, with an
  optional fallback encoder for titles missing from the file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

import numpy as np

from .errors import ConfigError, DegenerateInputError, FormatError, MissingTitleError, NumericError
from .formats import read_vectors, write_vectors
from .graph import canonicalize_title

UNIT_NORM_TOL = 1e-9


class SemanticProvider(Protocol):
    dimension: int
    provider_id: str

    def embed(self, title: str) -> np.ndarray: ...

    def provenance(self, title: str) -> str: ...


def _token_hash(seed: int, token: str) -> int:
    digest = hashlib.blake2b(
        f"{seed}\x1f{token}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def hashed_ngram_embed(title: str, d_b: int, seed: int) -> np.ndarray:
    """Deterministic unit vector from signed hashed character/word features.

    Signed hashing keeps the expected inner product of token-disjoint titles
    at zero.
    """
    if d_b < 8:
        raise ConfigError(f"semantic dimension must be >= 8, got {d_b}")
    canonical = canonicalize_title(title)
    padded = "^^" + canonical + "$$"
    grams = [padded[i : i + 3] for i in range(len(padded) - 2)]
    tokens = grams + canonical.split(" ")
    vec = np.zeros(d_b, dtype=np.float64)
    for token in tokens:
        h = _token_hash(seed, token)
        bucket = h % d_b
        sign = 1.0 if (h >> 62) & 1 else -1.0
        vec[bucket] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise DegenerateInputError(
            f"hashed embedding of {title!r} cancelled to the zero vector"
        )
    return vec / norm


class HashedNgramProvider:
    def __init__(self, dimension: int = 128, seed: int = 0):
        if dimension < 8:
            raise ConfigError(f"semantic dimension must be >= 8, got {dimension}")
        self.dimension = dimension
        self.seed = seed
        self.provider_id = f"hashed:d={dimension},seed={seed}"

    def embed(self, title: str) -> np.ndarray:
        return hashed_ngram_embed(title, self.dimension, self.seed)

    def provenance(self, title: str) -> str:
        return self.provider_id


@dataclass
class EmbeddingCache:
    """Title -> vector map with per-entry provenance."""

    dimension: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.vectors)


class PrecomputedProvider:
    """Serve vectors from a cache, optionally falling back to an encoder."""

    def __init__(self, cache: EmbeddingCache, fallback: Optional[SemanticProvider] = None):
        if fallback is not None and fallback.dimension != cache.dimension:
            raise ConfigError(
                f"fallback dimension {fallback.dimension} != cache dimension {cache.dimension}"
            )
        self.cache = cache
        self.fallback = fallback
        self.dimension = cache.dimension
        self.provider_id = f"precomputed:entries={len(cache)}"

    def embed(self, title: str) -> np.ndarray:
        key = canonicalize_title(title)
        vec = self.cache.vectors.get(key)
        if vec is not None:
            return vec
        if self.fallback is None:
            raise MissingTitleError(f"no precomputed embedding for title {title!r}")
        return self.fallback.embed(key)

    def provenance(self, title: str) -> str:
        key = canonicalize_title(title)
        if key in self.cache.vectors:
            return self.cache.provenance.get(key, self.provider_id)
        if self.fallback is None:
            raise MissingTitleError(f"no precomputed embedding for title {title!r}")
        return self.fallback.provenance(key)


def embed_titles(provider: SemanticProvider, titles: Sequence[str]) -> EmbeddingCache:
    """Embed a title set; missing titles are reported together, not one by one."""
    cache = EmbeddingCache(dimension=provider.dimension)
    missing = []
    for title in titles:
        key = canonicalize_title(title)
        if key in cache.vectors:
            continue
        try:
            cache.vectors[key] = provider.embed(key)
            cache.provenance[key] = provider.provenance(key)
        except MissingTitleError:
            missing.append(key)
    if missing:
        raise MissingTitleError(
            f"no embedding available for {len(missing)} title(s): {sorted(missing)}"
        )
    return cache


# ---------------------------------------------------------------------------
# Embedding TSV: "#embeddings d=<dim> normalize=<bool>" then title<TAB>v1,v2,...

def write_embeddings(path, cache: EmbeddingCache) -> None:
    write_vectors(path, f"#embeddings d={cache.dimension} normalize=false", cache.vectors)


def load_precomputed(path) -> EmbeddingCache:
    bools = {"true": True, "false": False}
    dim, normalize, rows = read_vectors(path, "#embeddings", "d", "normalize", bools.__getitem__)
    cache = EmbeddingCache(dimension=dim)
    for lineno, title, vec in rows:
        if normalize:
            with np.errstate(over="ignore"):
                norm = float(np.linalg.norm(vec))
            if norm == 0.0:
                raise FormatError(f"{path}:{lineno}: zero vector cannot be normalized")
            if norm == np.inf:
                raise NumericError(f"{path}:{lineno}: vector norm overflows to inf")
            vec = vec / norm
        cache.vectors[title] = vec
        cache.provenance[title] = f"file:{path}"
    return cache
