import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from titlemap.datagen import SynthConfig, gen_taxonomy
from titlemap.errors import DataError, DegenerateInputError, FormatError
from titlemap.graph import canonicalize_title
from titlemap import syntactic
from titlemap.semantic import hashed_ngram_matrix
from titlemap.syntactic import (
    GramIndex,
    GramNumbering,
    Taxonomy,
    string_cosine,
    syntactic_matrix,
)

from helpers import brute_force_gram_cosine, gram_set, per_title_hashed_embed


def test_gram_set_matches_enumerated_example():
    assert gram_set("abcd") == {"^^a", "^ab", "abc", "bcd", "cd$", "d$$"}


def test_identical_strings_score_one():
    assert string_cosine("software engineer", "software engineer") == 1.0


def test_disjoint_strings_score_zero():
    assert string_cosine("aaa", "zzz") == 0.0


def test_worked_example_one_sixth():
    # A={^^a,^ab,abc,bcd,cd$,d$$}, B={^^b,^bc,bcd,cde,de$,e$$}, shared={bcd}
    assert string_cosine("abcd", "bcde") == pytest.approx(1 / 6, abs=1e-15)


def test_cosine_is_symmetric():
    rng = np.random.default_rng(0)
    words = ["data", "analyst", "chef", "pilot", "nurse", "clerk"]
    for _ in range(50):
        a = " ".join(rng.choice(words, size=rng.integers(1, 4)))
        b = " ".join(rng.choice(words, size=rng.integers(1, 4)))
        assert string_cosine(a, b) == string_cosine(b, a)


def test_cosine_bounded_and_one_iff_same_grams():
    rng = np.random.default_rng(1)
    words = ["red", "green", "blue", "cyan"]
    for _ in range(100):
        a = " ".join(rng.choice(words, size=rng.integers(1, 4)))
        b = " ".join(rng.choice(words, size=rng.integers(1, 4)))
        score = string_cosine(a, b)
        assert 0.0 <= score <= 1.0
        assert (score == 1.0) == (gram_set(a) == gram_set(b))


def test_cosine_matches_brute_force_oracle():
    rng = np.random.default_rng(2)
    words = ["account", "manager", "sales", "embedded", "nurse", "ops", "ai"]
    for _ in range(100):
        a = " ".join(rng.choice(words, size=rng.integers(1, 4)))
        b = " ".join(rng.choice(words, size=rng.integers(1, 4)))
        assert string_cosine(a, b) == brute_force_gram_cosine(a, b)


def test_taxonomy_tsv_names_a_title_empty_after_canonicalization(tmp_path):
    path = tmp_path / "taxonomy.tsv"
    path.write_text("chef\tg0\n\x07\tg1\n")
    with pytest.raises(FormatError) as excinfo:
        Taxonomy.load_tsv(path)
    assert str(excinfo.value).startswith(f"{path}:2: title ")


def test_taxonomy_rejects_duplicates_after_canonicalization(tmp_path):
    path = tmp_path / "taxonomy.tsv"
    path.write_text("Chef\tg0\n  chef \tg1\n")
    with pytest.raises(FormatError) as excinfo:
        Taxonomy.load_tsv(path)
    assert str(excinfo.value) == f"{path}:2: duplicate title 'chef'"
    # callers that build a taxonomy without a file keep the constructor's check
    with pytest.raises(DataError, match="unique after canonicalization"):
        Taxonomy(titles=["chef", "chef"])


def test_taxonomy_version_tracks_order():
    t1 = Taxonomy(titles=["a b", "c d"])
    t2 = Taxonomy(titles=["c d", "a b"])
    assert t1.version_id != t2.version_id
    assert t1.version_id == Taxonomy(titles=["a b", "c d"]).version_id


def test_vector_peaks_at_own_index():
    taxonomy = Taxonomy(titles=["data analyst", "chef", "pilot", "embedded engineer"])
    vec = syntactic_matrix([canonicalize_title("Embedded   Engineer")], taxonomy)
    assert vec.shape == (1, 4)
    assert vec[0, 3] == 1.0


def test_vector_matches_elementwise_brute_force():
    taxonomy = Taxonomy(titles=["data analyst", "chef de partie", "airline pilot", "sales manager"])
    rng = np.random.default_rng(3)
    words = ["data", "sales", "chef", "pilot", "manager", "junior"]
    for _ in range(50):
        title = " ".join(rng.choice(words, size=rng.integers(1, 4)))
        vec = syntactic_matrix([title], taxonomy)[0]
        oracle = [brute_force_gram_cosine(title, v) for v in taxonomy.titles]
        assert list(vec) == oracle


def test_index_counts_equal_brute_force_intersections():
    rng = np.random.default_rng(5)
    words = ["data", "sales", "chef", "pilot", "manager", "junior", "ai", "x"]

    def title():
        return " ".join(rng.choice(words, size=rng.integers(1, 4)))

    standards = list(dict.fromkeys(title() for _ in range(12)))
    titles = [title() for _ in range(40)] + [standards[0], "qqq"]
    index = GramIndex(GramNumbering(standards))
    counts = index.shared_counts(GramNumbering(titles))
    assert counts.shape == (len(titles), len(standards))
    assert counts.tolist() == [[len(gram_set(t) & gram_set(s)) for s in standards] for t in titles]
    assert index.sizes.tolist() == [len(gram_set(s)) for s in standards]
    assert index.shared_counts(GramNumbering([])).shape == (0, len(standards))


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_chunked_counts_equal_one_bincount(monkeypatch, chunk):
    # a chunk may end inside a title's grams, span titles that share no gram
    # with any standard, or be shorter than one gram's standards
    taxonomy, labeled = gen_taxonomy(SynthConfig(groups=30, synonyms=3, seed=4))
    titles = [t for t, _ in labeled[:20]] + ["xyz", "qqq qqq"] + [t for t, _ in labeled[20:40]]
    batch = GramNumbering(titles)
    whole = taxonomy.gram_index.shared_counts(batch)
    monkeypatch.setattr(syntactic, "_HITS_PER_CHUNK", chunk)
    assert np.array_equal(taxonomy.gram_index.shared_counts(batch), whole)
    assert whole.tolist() == [
        [len(gram_set(t) & gram_set(s)) for s in taxonomy.titles] for t in titles
    ]


def test_vector_is_pure_function_of_inputs():
    taxonomy = Taxonomy(titles=["a b", "c d"])
    v1 = syntactic_matrix(["a c"], taxonomy)
    v2 = syntactic_matrix(["a c"], taxonomy)
    assert np.array_equal(v1, v2)


def test_matrix_stacks_rows():
    taxonomy = Taxonomy(titles=["data analyst", "chef"])
    mat = syntactic_matrix(["chef", "data analyst"], taxonomy)
    assert mat.shape == (2, 2)
    assert mat[0, 1] == 1.0 and mat[1, 0] == 1.0


def test_taxonomy_tsv_round_trip(tmp_path):
    taxonomy = Taxonomy(titles=["data analyst", "chef"], groups=["g0", "g1"])
    path = tmp_path / "tax.tsv"
    taxonomy.write_tsv(path)
    loaded = Taxonomy.load_tsv(path)
    assert loaded.titles == taxonomy.titles
    assert loaded.groups == taxonomy.groups
    assert loaded.version_id == taxonomy.version_id


def test_taxonomy_tsv_rejects_malformed_rows(tmp_path):
    path = tmp_path / "tax.tsv"
    path.write_text("only one field\n")
    with pytest.raises(FormatError):
        Taxonomy.load_tsv(path)


def _canonical_or_none(raw):
    try:
        return canonicalize_title(raw)
    except DegenerateInputError:
        return None


# lowercase and uppercase letters, repeated spaces, control (Cc) and format
# (Cf) characters, and non-ASCII letters, one of which lowercases to two
# code points; `xyz` appears in no standard title
_RAW_TITLE = st.text(alphabet="abcde ABC  \t\n\x00\x07\u200b\u200eéßİ中", min_size=1, max_size=12)
_NO_SHARED_GRAM = st.text(alphabet="xyzXYZ \u200b", min_size=1, max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    standards=st.lists(_RAW_TITLE.filter(_canonical_or_none), min_size=1, max_size=6,
                       unique_by=_canonical_or_none),
    titles=st.lists(st.one_of(_RAW_TITLE, _NO_SHARED_GRAM).filter(_canonical_or_none), max_size=6),
    repeats=st.integers(0, 3),
)
@example(standards=["chef"], titles=["Chef", "CHEF  ", "sous chef", "xyz"], repeats=0)
@example(standards=["data analyst", "chef"], titles=[], repeats=0)
@example(standards=["data analyst", "chef"], titles=["X Y Z", "zzz"], repeats=2)
def test_matrix_is_bit_identical_to_pairwise_oracles(standards, titles, repeats):
    titles = titles + titles[:repeats]
    taxonomy = Taxonomy(titles=[canonicalize_title(standard) for standard in standards])
    keys = [canonicalize_title(title) for title in titles]
    matrix = syntactic_matrix(keys, taxonomy)
    assert matrix.shape == (len(keys), len(taxonomy))
    for key, row in zip(keys, matrix):
        oracle = np.array([brute_force_gram_cosine(key, v) for v in taxonomy.titles])
        pairwise = np.array([string_cosine(key, v) for v in taxonomy.titles])
        assert np.array_equal(row.view(np.int64), oracle.view(np.int64))
        assert np.array_equal(row.view(np.int64), pairwise.view(np.int64))
        if set(key) <= set("xyz "):
            assert not row.any()


def test_batch_equals_each_title_alone_and_the_oracle_bit_for_bit():
    # the counts are integers, so scoring a batch cannot move a bit: repeated
    # titles, a title that shares no gram with the taxonomy and the empty batch
    taxonomy, labeled = gen_taxonomy(SynthConfig(groups=30, synonyms=3, seed=4))
    titles = [t for t, _ in labeled] + [t for t, _ in labeled[:7]] + ["xyz", "qqq qqq"]
    matrix = syntactic_matrix(titles, taxonomy)
    assert matrix.shape == (len(titles), len(taxonomy))
    for title, row in zip(titles, matrix):
        alone = syntactic_matrix([title], taxonomy)[0]
        oracle = np.array([brute_force_gram_cosine(title, v) for v in taxonomy.titles])
        assert np.array_equal(row.view(np.int64), alone.view(np.int64))
        assert np.array_equal(row.view(np.int64), oracle.view(np.int64))
    assert not matrix[-2:].any()
    assert syntactic_matrix([], taxonomy).shape == (0, len(taxonomy))


# canonical keys: words of one to four characters, ASCII and not, one space
# between words
_KEY = st.lists(st.text(alphabet="abcé中ß", min_size=1, max_size=4), min_size=1, max_size=3).map(
    " ".join
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    standards=st.lists(_KEY, min_size=1, max_size=5, unique=True),
    titles=st.lists(_KEY, max_size=8),
    repeats=st.integers(0, 3),
)
@example(standards=["abc abcd", "aaaa"], titles=["aaaa aaaa", "abc abcd", "a", "中", "ß é"],
         repeats=2)
@example(standards=["chef"], titles=[], repeats=0)
def test_both_views_from_one_numbering_equal_the_per_title_oracles(standards, titles, repeats):
    # repeated titles, repeated grams ("aaaa aaaa"), a word equal to one of
    # its grams ("abc abcd"), one-character and non-ASCII titles, the empty batch
    titles = titles + titles[:repeats]
    taxonomy = Taxonomy(titles=standards)
    grams = GramNumbering(titles)
    x_s = syntactic_matrix(titles, taxonomy, grams)
    assert x_s.shape == (len(titles), len(taxonomy))
    for title, row in zip(titles, x_s):
        oracle = np.array([brute_force_gram_cosine(title, s) for s in taxonomy.titles])
        assert np.array_equal(row.view(np.int64), oracle.view(np.int64))
    try:
        oracles = [per_title_hashed_embed(title, 16, 0) for title in titles]
    except DegenerateInputError:  # a title whose signed features cancel
        with pytest.raises(DegenerateInputError):
            hashed_ngram_matrix(titles, 16, 0, grams)
        return
    x_b = hashed_ngram_matrix(titles, 16, 0, grams)
    assert x_b.shape == (len(titles), 16)
    for row, oracle in zip(x_b, oracles):
        assert np.array_equal(row.view(np.int64), oracle.view(np.int64))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(standards=st.lists(_KEY, min_size=1, max_size=5, unique=True), title=_KEY)
@example(standards=["abc abcd", "aaaa"], title="abc 中中")  # two grams no standard holds
@example(standards=["abc abcd", "aaaa"], title="ßß")  # shares no gram
@example(standards=["aaaa"], title="aaaa aaaa")  # one standard
@example(standards=["aaaa"], title="é")
def test_title_counts_equal_set_intersections_and_the_batch_count(standards, title):
    index = Taxonomy(titles=standards).gram_index
    counts = index.title_counts(title)
    assert counts.tolist() == [len(gram_set(title) & gram_set(s)) for s in standards]
    assert np.array_equal(counts, index.shared_counts(GramNumbering([title]))[0])


def test_only_syntactic_splits_titles_into_grams():
    # a static guard: every shared-gram count in the package goes through
    # `GramNumbering` and `GramIndex`, so no other module reads a title's
    # grams itself, even where no test runs it
    package = Path(syntactic.__file__).parent
    users = {
        path.stem
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id == "padded_grams")
        or (isinstance(node, ast.Attribute) and node.attr == "padded_grams")
        or (isinstance(node, ast.alias) and node.name == "padded_grams")
    }
    assert users == {"syntactic"}


def test_membership_and_index_take_canonical_keys(tmp_path):
    path = tmp_path / "taxonomy.tsv"
    path.write_text("Data  Analyst\tg0\nchef\tg1\n")
    taxonomy = Taxonomy.load_tsv(path)
    assert taxonomy.titles == ["data analyst", "chef"]
    assert "data analyst" in taxonomy and taxonomy.index("data analyst") == 0
    assert "Data  Analyst" not in taxonomy
    with pytest.raises(DataError):
        taxonomy.index("CHEF")
