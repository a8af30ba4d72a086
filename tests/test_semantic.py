import numpy as np
import pytest

from titlemap.errors import ConfigError, DegenerateInputError, FormatError, MissingTitleError
from titlemap.formats import VectorTable
from titlemap.semantic import (
    HashedNgramProvider,
    PrecomputedProvider,
    embed_titles,
    hashed_ngram_matrix,
    load_precomputed,
    write_embeddings,
)

from helpers import per_title_hashed_embed

# at d_b 8 and seed 0 the six signed features of "agy" cancel pairwise
CANCELLING_TITLE = "agy"


def test_embedding_is_bit_deterministic():
    a = HashedNgramProvider(dimension=64, seed=7).embed("software engineer")
    b = HashedNgramProvider(dimension=64, seed=7).embed("software engineer")
    assert np.array_equal(a, b)


def test_embedding_is_unit_norm():
    for title in ("chef", "senior ml engineer", "x"):
        vec = HashedNgramProvider(dimension=32, seed=0).embed(title)
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9


def test_seed_changes_embedding():
    a = HashedNgramProvider(dimension=64, seed=0).embed("chef")
    b = HashedNgramProvider(dimension=64, seed=1).embed("chef")
    assert not np.array_equal(a, b)


def test_shared_tokens_raise_similarity():
    e = HashedNgramProvider(dimension=128, seed=0).embed
    sim_related = float(e("software engineer") @ e("software developer"))
    sim_unrelated = float(e("software engineer") @ e("pastry chef"))
    assert sim_related > sim_unrelated


def test_similarity_monotone_in_shared_token_count():
    # words drawn from disjoint alphabets so token sets share nothing by accident
    shared = ["aaa", "bbb", "ccc"]
    fill_a = ["ddd", "eee", "fff"]
    fill_b = ["ggg", "hhh", "iii"]
    provider = HashedNgramProvider(dimension=256, seed=5)
    sims = []
    for k in range(4):
        left = " ".join(shared[:k] + fill_a[: 3 - k])
        right = " ".join(shared[:k] + fill_b[: 3 - k])
        sims.append(float(provider.embed(left) @ provider.embed(right)))
    assert all(b > a for a, b in zip(sims, sims[1:]))


def test_small_dimension_rejected():
    with pytest.raises(ConfigError):
        hashed_ngram_matrix(["chef"], 4, seed=0)
    with pytest.raises(ConfigError):
        HashedNgramProvider(dimension=7)


def test_embed_titles_counts():
    provider = HashedNgramProvider(dimension=32, seed=0)
    assert embed_titles(provider, []).matrix.shape == (0, 32)
    table = embed_titles(provider, ["a b", "c", "d e f", "c"])
    assert table.titles == ["a b", "c", "d e f"] and table.matrix.shape == (3, 32)
    assert all(abs(np.linalg.norm(v) - 1) <= 1e-9 for v in table.matrix)


def test_embeddings_tsv_round_trip(tmp_path):
    provider = HashedNgramProvider(dimension=16, seed=3)
    table = embed_titles(provider, ["pilot", "chef"])
    path = tmp_path / "emb.tsv"
    write_embeddings(path, table)
    loaded = load_precomputed(path)
    assert loaded.dim == 16 and loaded.titles == ["chef", "pilot"]  # written sorted
    assert np.array_equal(loaded.matrix, table.matrix[[1, 0]])


def test_load_rejects_row_with_wrong_dimension(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("#embeddings d=4 normalize=false\nchef\t0.1,0.2,0.3\n")
    with pytest.raises(FormatError, match=":2"):
        load_precomputed(path)


def test_load_rejects_duplicate_title(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text(
        "#embeddings d=2 normalize=false\nchef\t0.1,0.2\nchef\t0.3,0.4\n"
    )
    with pytest.raises(FormatError, match="duplicate"):
        load_precomputed(path)


def test_load_normalize_flag_renormalizes(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("#embeddings d=2 normalize=true\nchef\t3.0,4.0\n")
    assert np.allclose(load_precomputed(path).matrix, [[0.6, 0.8]])


def test_precomputed_provider_falls_back_for_missing_titles(tmp_path):
    provider = HashedNgramProvider(dimension=16, seed=3)
    path = tmp_path / "emb.tsv"
    path.write_text("#embeddings d=16 normalize=false\nchef\t" + ",".join(["0.25"] * 16) + "\n")
    mixed = PrecomputedProvider(load_precomputed(path), fallback=provider)
    out = embed_titles(mixed, ["chef", "pilot"])
    assert np.array_equal(out.matrix, [np.full(16, 0.25), provider.embed("pilot")])


def test_precomputed_provider_without_fallback_lists_missing():
    provider = PrecomputedProvider(VectorTable(["chef"], np.full((1, 8), 8 ** -0.5)))
    with pytest.raises(MissingTitleError) as exc:
        embed_titles(provider, ["chef", "pilot", "nurse"])
    message = str(exc.value)
    assert "pilot" in message and "nurse" in message


def test_fallback_dimension_must_match():
    with pytest.raises(ConfigError):
        PrecomputedProvider(VectorTable([], np.empty((0, 8))), fallback=HashedNgramProvider(16))


def test_hashed_batch_equals_the_per_title_oracle_bit_for_bit():
    # the bucket sums are integers, so the batch cannot move a bit: repeated
    # titles, titles of one character, titles whose grams and words repeat
    # inside the title (each occurrence counts) and the empty batch
    titles = ["software engineer", "chef", "x", "senior ml engineer", "chef",
              "data analyst", "software engineer", "zz top", "aaaa aaaa", "a a a",
              "abab abab ab"]
    for d_b, seed in ((8, 0), (64, 3), (128, 0)):
        matrix = hashed_ngram_matrix(titles, d_b, seed)
        assert matrix.shape == (len(titles), d_b)
        for title, row in zip(titles, matrix):
            oracle = per_title_hashed_embed(title, d_b, seed)
            assert np.array_equal(row.view(np.int64), oracle.view(np.int64))
            assert np.array_equal(HashedNgramProvider(d_b, seed).embed(title), oracle)
        assert hashed_ngram_matrix([], d_b, seed).shape == (0, d_b)
    provider = HashedNgramProvider(dimension=32, seed=1)
    assert np.array_equal(provider.embed_batch(titles)[1], provider.embed("chef"))


def test_cancelled_hashed_vector_names_its_title_in_a_batch():
    with pytest.raises(DegenerateInputError, match=CANCELLING_TITLE):
        per_title_hashed_embed(CANCELLING_TITLE, 8, 0)
    with pytest.raises(DegenerateInputError, match=f"'{CANCELLING_TITLE}'"):
        hashed_ngram_matrix(["chef", CANCELLING_TITLE, "pilot"], 8, 0)
    with pytest.raises(DegenerateInputError, match=f"'{CANCELLING_TITLE}'"):
        HashedNgramProvider(dimension=8, seed=0).embed(CANCELLING_TITLE)


def test_precomputed_batch_stacks_hits_and_sends_misses_to_the_fallback(monkeypatch):
    fallback = HashedNgramProvider(dimension=8, seed=0)
    sent, embed_batch = [], fallback.embed_batch
    monkeypatch.setattr(fallback, "embed_batch",
                        lambda titles: sent.append(titles) or embed_batch(titles))
    stored = {"chef": np.full(8, 0.25), "pilot": np.arange(8.0)}
    provider = PrecomputedProvider(VectorTable(list(stored), np.array(list(stored.values()))),
                                   fallback=fallback)
    titles = ["pilot", "nurse", "chef", "nurse", "clerk"]
    out = provider.embed_batch(titles)
    assert sent == [["nurse", "nurse", "clerk"]]
    for title, row in zip(titles, out):
        expected = stored.get(title)
        if expected is None:
            expected = per_title_hashed_embed(title, 8, 0)
        assert np.array_equal(row, expected)
        assert np.array_equal(provider.embed(title), expected)
    assert provider.embed_batch([]).shape == (0, 8)
