"""Titles are canonicalized at the edge: the file readers (`formats.read_vectors`,
`graph.load_records`, `graph.load_pairs`, `Taxonomy.load_tsv` and the CLI's
label and title readers, all through `formats.line_keys`) make each distinct
raw title a canonical key once, and `model.load_model` checks that every
stored taxonomy title is its own key. Below the edge every function takes
canonical keys and never canonicalizes."""

import ast
from datetime import date
from pathlib import Path

import numpy as np

import titlemap
from titlemap.config import TrainConfig
from titlemap.formats import VectorTable
from titlemap.graph import JobRecord
from titlemap.poincare import HyperbolicEmbeddingTable
from titlemap.model import FeaturePipeline, forward_probabilities, init_model
from titlemap.semantic import (
    HashedNgramProvider,
    PrecomputedProvider,
    embed_titles,
    hashed_ngram_matrix,
)
from titlemap.syntactic import Taxonomy, string_cosine, syntactic_matrix

from helpers import record_canonicalize_calls


def test_nothing_below_the_edge_canonicalizes(monkeypatch):
    calls = record_canonicalize_calls(monkeypatch)
    taxonomy = Taxonomy(titles=["data analyst", "head chef", "pilot"])
    table = HyperbolicEmbeddingTable(["data analyst"], np.full((1, 3), 0.1), seed=0)
    hashed = HashedNgramProvider(dimension=8, seed=0)
    precomputed = PrecomputedProvider(VectorTable(["pilot"], np.full((1, 8), 0.25)), fallback=hashed)
    model = init_model(taxonomy, TrainConfig(d_h=3, d_b=8, d_r=2))
    keys = ["data analyst", "sous chef", "pilot", "data analyst"]
    for provider in (hashed, precomputed):
        pipeline = FeaturePipeline(table, provider, taxonomy)
        x_h, x_b, x_s = pipeline.title_views(keys)
        assert x_h.shape == (4, 3) and x_b.shape == (4, 8) and x_s.shape == (4, 3)
        pipeline.standard_semantic()
        pipeline.standard_syntactic()
        provider.embed("pilot")
        provider.embed_batch(keys)
        embed_titles(provider, keys)
        assert forward_probabilities(model, pipeline, keys).shape == (4, 3)
    syntactic_matrix(keys, taxonomy)
    hashed_ngram_matrix(keys, 8, 0)
    assert taxonomy.index("pilot") == 2 and "head chef" in taxonomy
    assert string_cosine("sous chef", "head chef") > 0
    JobRecord("p1", "Sous  Chef", "c1", date(2020, 1, 1), None, canonical_title="sous chef")
    assert calls == []


def _uses_canonicalize(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "canonicalize_title"
    if isinstance(node, ast.Attribute):
        return node.attr == "canonicalize_title"
    # an import under another name would hide the calls made through it
    return (isinstance(node, ast.alias) and node.name == "canonicalize_title"
            and node.asname not in (None, node.name))


def _canonicalizing_scopes(tree: ast.Module) -> list[str]:
    """The dotted name of the function around each use of `canonicalize_title`
    in a module, "<module>" outside any function."""
    scopes = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                continue
            if _uses_canonicalize(child):
                scopes.append(scope)
            visit(child, scope)

    visit(tree, "<module>")
    return scopes


def test_only_line_keys_and_the_model_key_check_canonicalize():
    # a static guard: a new call below the edge fails here even where no
    # test runs it
    package = Path(titlemap.__file__).parent
    uses = {
        f"{path.stem}.{scope}"
        for path in sorted(package.glob("*.py"))
        for scope in _canonicalizing_scopes(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert uses == {"formats.line_keys.key_of", "model.load_model"}
