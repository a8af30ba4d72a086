"""Titles are canonicalized at the edge: the file readers and the entry of
`forward_probabilities` make each distinct raw title a canonical key once.
Below the edge every function takes canonical keys and never canonicalizes;
`string_cosine` is the one exception."""

import numpy as np

from titlemap.poincare import HyperbolicEmbeddingTable
from titlemap.model import FeaturePipeline
from titlemap.semantic import (
    EmbeddingCache,
    HashedNgramProvider,
    PrecomputedProvider,
    embed_titles,
    hashed_ngram_matrix,
)
from titlemap.syntactic import Taxonomy, syntactic_matrix

from helpers import record_canonicalize_calls


def test_nothing_below_the_edge_canonicalizes(monkeypatch):
    taxonomy = Taxonomy(titles=["data analyst", "head chef", "pilot"])
    table = HyperbolicEmbeddingTable(dim=3, seed=0, vectors={"data analyst": np.full(3, 0.1)})
    hashed = HashedNgramProvider(dimension=8, seed=0)
    precomputed = PrecomputedProvider(
        EmbeddingCache(dimension=8, vectors={"pilot": np.full(8, 0.25)}), fallback=hashed
    )
    keys = ["data analyst", "sous chef", "pilot", "data analyst"]
    calls = record_canonicalize_calls(monkeypatch)
    for provider in (hashed, precomputed):
        pipeline = FeaturePipeline(table, provider, taxonomy)
        x_h, x_b, x_s = pipeline.title_views(keys)
        assert x_h.shape == (4, 3) and x_b.shape == (4, 8) and x_s.shape == (4, 3)
        pipeline.standard_semantic()
        pipeline.standard_syntactic()
        provider.embed("pilot")
        provider.embed_batch(keys)
        embed_titles(provider, keys)
    syntactic_matrix(keys, taxonomy)
    hashed_ngram_matrix(keys, 8, 0)
    assert taxonomy.index("pilot") == 2 and "head chef" in taxonomy
    assert calls == []
