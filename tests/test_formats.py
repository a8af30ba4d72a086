"""Fuzz tests over every on-disk input format.

Each loader gets valid files with random edits, random bytes and, for the JSON
formats, structurally valid documents with random field values. It must
either load the file or raise a `TitlemapError` whose exit code is one of the
format's documented codes; any other exception fails the test.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titlemap.cli import _read_labeled, _read_titles, load_config
from titlemap.errors import (
    ConfigError,
    DataError,
    EvaluationError,
    FormatError,
    NumericError,
    TitlemapError,
)
from titlemap.formats import VectorTable, read_rows, write_rows, write_vectors
from titlemap.graph import load_pairs, load_records
from titlemap.model import TrainConfig, init_model, load_model, save_model
from titlemap.poincare import HyperbolicEmbeddingTable
from titlemap.semantic import load_precomputed
from titlemap.syntactic import Taxonomy

from helpers import line_by_line_load_records, load_outcome

FUZZ = settings(max_examples=25, deadline=None, derandomize=True)

TAXONOMY = Taxonomy(titles=["data analyst", "chef", "pilot"], groups=["g0", "g1", "g1"])

VALID = {
    "taxonomy": b"data analyst\tg0\nchef\tg1\npilot\tg1\n",
    "labels": b"Data  Analyst\tdata analyst\nsous chef\tchef\n",
    "titles": b"data analyst\nHead Chef\n",
    "pairs": b"#pairs\tchild\tparent\nchef\thead chef\npilot\tcaptain\n",
    "hyperbolic": b"#poincare m=2 seed=0\nchef\t0.1,-0.2\npilot\t0.0,0.5\n",
    "embeddings": b"#embeddings d=2 normalize=true\nchef\t3.0,4.0\npilot\t-1e-3,2\n",
    "resumes": (
        b'{"person_id": "p1", "title": "chef", "company_id": "c1", '
        b'"start": "2010-01-01", "end": "2012-05-01"}\n'
        b'{"person_id": "p1", "title": "Head Chef", "company_id": "c2", '
        b'"start": "2012-06-01", "end": null}\n'
    ),
    "config": b'{"output_dir": "out", "train": {"lr": 0.01}, "map": {"k": 3}}',
}

# format -> (loader, the exit codes a malformed file may end in)
LOADERS = {
    "taxonomy": (Taxonomy.load_tsv, {3}),
    "labels": (lambda path: _read_labeled(path, TAXONOMY), {3}),
    "titles": (_read_titles, {3}),
    "pairs": (load_pairs, {3}),
    "hyperbolic": (HyperbolicEmbeddingTable.load_tsv, {3, 4}),
    "embeddings": (load_precomputed, {3, 4}),
    "resumes": (load_records, {3}),
    "model": (load_model, {3, 4}),
    "config": (load_config, {2}),
}

# fragments that sit on the edges of the formats
NASTY = [
    "", "\t", "\n", "\r\n", ",", " ", "  ", "#", "nan", "inf", "-inf", "1e999", "abc", "-0",
    "\x00", "\u200b", "\u2028", "Data  Engineer", "{", "}", "[", "]", '"', "null", "true",
    "1", "-5", "1.5", "\\ud800", "m=", "d=", "normalize=", "seed=",
]


def exit_code(exc: TitlemapError) -> int:
    """The CLI's exit code for an error (see `titlemap.cli.main`)."""
    if isinstance(exc, ConfigError):
        return 2
    if isinstance(exc, (DataError, EvaluationError)):
        return 3
    return 4


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


def load_code(fmt: str, blob: bytes, scratch: Path) -> int:
    """0 when `blob` loads as `fmt`, else the exit code of the error it raised."""
    path = scratch / f"input.{fmt}"
    path.write_bytes(blob)
    loader, codes = LOADERS[fmt]
    try:
        loader(path)
    except TitlemapError as e:
        assert exit_code(e) in codes, f"{type(e).__name__}: {e}"
        return exit_code(e)
    return 0


def edits(valid: bytes):
    """`valid` with up to four random splices of edge-case or random bytes."""
    splice = st.tuples(
        st.integers(0, len(valid)),
        st.integers(0, 6),
        st.one_of(st.sampled_from(NASTY).map(str.encode), st.binary(max_size=4)),
    )

    def apply(ops):
        blob = valid
        for pos, cut, payload in ops:
            pos = min(pos, len(blob))
            blob = blob[:pos] + payload + blob[pos + cut :]
        return blob

    return st.lists(splice, max_size=4).map(apply)


@pytest.mark.parametrize("fmt", LOADERS)
def test_valid_sample_loads(fmt, scratch):
    blob = MODEL_BLOB if fmt == "model" else VALID[fmt]
    assert load_code(fmt, blob, scratch) == 0


@pytest.mark.parametrize("fmt", sorted(VALID))
@FUZZ
@given(data=st.data())
def test_edited_file_loads_or_ends_in_its_exit_code(fmt, scratch, data):
    load_code(fmt, data.draw(edits(VALID[fmt])), scratch)


@FUZZ
@given(data=st.data())
def test_edited_resumes_load_as_the_line_by_line_oracle_loads_them(scratch, data):
    """Any edit of a valid resumes file loads to the same records under
    `load_records` and its oracle, or ends in the same error and message."""
    path = scratch / "input.resumes"
    path.write_bytes(data.draw(edits(VALID["resumes"])))
    assert load_outcome(load_records, path) == load_outcome(line_by_line_load_records, path)


@pytest.mark.parametrize("fmt", LOADERS)
@FUZZ
@given(blob=st.binary(max_size=64))
def test_random_bytes_load_or_end_in_its_exit_code(fmt, scratch, blob):
    load_code(fmt, blob, scratch)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@FUZZ
@given(
    fields=st.dictionaries(
        st.sampled_from(["person_id", "title", "company_id", "start", "end", "extra"]),
        json_values | st.sampled_from(["2011-02-03", "2011-13-01", "chef"]),
    )
)
def test_resume_record_with_random_fields(scratch, fields):
    load_code("resumes", json.dumps(fields).encode() + b"\n", scratch)


def model_blob() -> bytes:
    config = TrainConfig(d_h=2, d_b=8, d_r=2)
    model = init_model(TAXONOMY, config)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        return path.read_bytes()


MODEL_BLOB = model_blob()
MODEL_DOC = json.loads(MODEL_BLOB)


def paths(doc, prefix=()):
    """Every key path into nested dicts of `doc`."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from paths(value, prefix + (key,))


MODEL_PATHS = sorted(paths(MODEL_DOC))


@FUZZ
@given(
    changes=st.lists(
        st.tuples(st.sampled_from(MODEL_PATHS), st.one_of(st.just("<drop>"), json_values)),
        min_size=1,
        max_size=3,
    )
)
def test_model_with_random_field_values(scratch, changes):
    doc = json.loads(json.dumps(MODEL_DOC))
    for path, value in changes:
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue
        if value == "<drop>":
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
    load_code("model", json.dumps(doc).encode(), scratch)


# a field holds any text but the separators; a lone surrogate is not UTF-8
FIELD_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r")


@FUZZ
@given(
    rows=st.lists(
        st.tuples(st.text(FIELD_CHARS, min_size=1), st.text(FIELD_CHARS)),
        max_size=5,
    )
)
def test_rows_round_trip(scratch, rows):
    rows = [row for row in rows if "".join(row).strip()]
    path = scratch / "rows.tsv"
    write_rows(path, rows, header="#head\tx")
    head, read = read_rows(path, ("a", "b"), header=True)
    assert head == "#head\tx"
    assert [tuple(parts) for _, parts in read] == rows


@pytest.mark.parametrize(
    "fmt, text, error, where",
    [
        ("embeddings", "#embeddings d=1 normalize=false\nData  Engineer\t1\ndata engineer\t2\n",
         FormatError, ":3: duplicate title 'data engineer'"),
        ("hyperbolic", "#poincare m=1 seed=0\nchef\t0.5\n CHEF\t0.1\n", FormatError, ":3: duplicate"),
        ("taxonomy", "data engineer\tg0\nchef\tg1\nData  Engineer\tg2\n",
         FormatError, ":3: duplicate title 'data engineer'"),
        ("embeddings", "#embeddings d=2 normalize=false\nchef\t1,nan\n", NumericError, ":2:"),
        ("embeddings", "#embeddings d=2 normalize=true\nchef\tinf,1\n", NumericError, ":2:"),
        ("hyperbolic", "#poincare m=2 seed=0\nchef\t0.1,abc\n", FormatError, ":2:"),
        ("hyperbolic", "#poincare m=2 seed=0\n\u200b\t0.1,0.1\n", FormatError, ":2:"),
        # a value, a count or a whole row at fault is named by its own line,
        # and of two faulty lines the first is named
        ("hyperbolic", "#poincare m=2 seed=0\nchef\t0.1,0.2\npilot\t0.3,0.1\ncook\t0.1,x\n",
         FormatError, ":4: could not convert string to float: 'x'"),
        ("hyperbolic", "#poincare m=3 seed=0\nchef\t0.1,0.2\npilot\t0.3,0.1\n",
         FormatError, ":2: expected 3 values, got 2"),
        ("embeddings", "#embeddings d=2 normalize=false\nchef\t1,nan\npilot\t1\t2\n",
         NumericError, ":2: non-finite"),
        ("titles", "chef\npilot\tcaptain\n", FormatError, ":2:"),
        ("pairs", b"#pairs\tchild\tparent\n\xff\n", FormatError, ":2: not valid UTF-8"),
        ("hyperbolic", "#poincare m=0 seed=0\n", FormatError, ":1: malformed header"),
        ("hyperbolic", "#poincare m=-3 seed=0\nchef\t0.1\n", FormatError, ":1: malformed header"),
        ("embeddings", "#embeddings d=0 normalize=false\n", FormatError, ":1: malformed header"),
        ("embeddings", "#embeddings d=-3 normalize=false\nchef\t1\n", FormatError,
         ":1: malformed header"),
    ],
    ids=["embeddings-duplicate-after-canonicalization", "hyperbolic-duplicate",
         "taxonomy-duplicate-after-canonicalization",
         "embeddings-nan", "embeddings-inf-normalized", "hyperbolic-not-a-number",
         "hyperbolic-empty-title", "hyperbolic-not-a-number-later-row",
         "hyperbolic-every-row-short", "embeddings-nan-before-unreadable-row", "titles-tab",
         "pairs-not-utf8", "hyperbolic-dim-0", "hyperbolic-dim-negative", "embeddings-dim-0",
         "embeddings-dim-negative"],
)
def test_rule_violation_names_its_line(fmt, text, error, where, scratch):
    path = scratch / f"rule.{fmt}"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(error) as exc:
        LOADERS[fmt][0](path)
    assert where in str(exc.value)


def test_vector_titles_are_canonical_keys(scratch):
    path = scratch / "canonical.tsv"
    path.write_text("#embeddings d=2 normalize=false\n  Data  ENGINEER \t0.5,0.25\n")
    table = load_precomputed(path)
    assert table.titles == ["data engineer"]
    assert np.array_equal(table.matrix, [[0.5, 0.25]])


def test_vector_rows_are_written_like_the_per_element_writer(scratch):
    # signed zero, the smallest subnormal, values whose shortest repr switches
    # to exponent form, and one that is not exact in binary
    vectors = {
        "pilot": np.array([0.0, -1e-05, 1.5e-323, -1e16, 1 / 3]),
        "chef": np.array([-0.0, 5e-324, 1e-05, 1e16, 0.1]),
    }
    path = scratch / "vectors.tsv"
    write_vectors(path, "#embeddings d=5 normalize=false",
                  VectorTable(list(vectors), np.array(list(vectors.values()))))
    rows = "".join(f"{t}\t" + ",".join(repr(float(v)) for v in vectors[t]) + "\n"
                   for t in sorted(vectors))
    assert path.read_bytes() == ("#embeddings d=5 normalize=false\n" + rows).encode()
    loaded = load_precomputed(path)
    assert loaded.titles == sorted(vectors)
    assert loaded.matrix.tobytes() == np.array([vectors[t] for t in sorted(vectors)]).tobytes()
