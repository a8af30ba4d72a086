import hashlib
import tracemalloc

import numpy as np
import pytest

from titlemap.errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    DomainError,
    FormatError,
    NumericError,
)
from titlemap import poincare
from titlemap.datagen import SynthConfig, gen_resumes, gen_taxonomy
from titlemap.graph import ParentChildPair, extract_parent_child_pairs, person_sequences
from titlemap.poincare import (
    BOUNDARY_EPS,
    HyperbolicEmbeddingTable,
    PoincareConfig,
    project_to_ball,
    train_poincare,
    _NegativeSampler,
    _distance_batch,
    _distinct_pairs,
)

from helpers import (
    balanced_tree_pairs,
    mean_parent_rank,
    poincare_distance,
    riemannian_rescale,
)


def oracle_distance(a, b, dps=50):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = dps
    a = [mp.mpf(float(x)) for x in a]
    b = [mp.mpf(float(x)) for x in b]
    sq_a = sum(x * x for x in a)
    sq_b = sum(x * x for x in b)
    diff = sum((x - y) ** 2 for x, y in zip(a, b))
    return float(mp.acosh(1 + 2 * diff / ((1 - sq_a) * (1 - sq_b))))


def trainer_distance(a, b):
    """The distance between two points as the trainer computes it."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(_distance_batch(a, b[None])[0][0])


def point(table, title):
    """The row of `title` in a table."""
    return table.matrix[table.index[title]]


def max_row_norm(table):
    return max(np.linalg.norm(x) for x in table.matrix)


def random_ball_point(rng, dim, max_norm=0.9):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v) * max_norm * rng.uniform(0, 1) ** (1 / dim)


def test_distance_of_coincident_points_is_zero():
    z = np.zeros(3)
    assert trainer_distance(z, z) == 0.0


def test_distance_is_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = random_ball_point(rng, 4)
        b = random_ball_point(rng, 4)
        assert trainer_distance(a, b) == pytest.approx(trainer_distance(b, a), abs=1e-14)


def test_distance_worked_example_against_oracle():
    a = np.array([0.5, 0.0])
    b = np.array([0.0, 0.5])
    expected = oracle_distance(a, b)
    assert trainer_distance(a, b) == pytest.approx(expected, abs=1e-6)
    # arcosh(1 + 2*0.5/0.5625), evaluated at 50 digits
    assert expected == pytest.approx(1.6806997724280036, abs=1e-12)


def test_distance_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = random_ball_point(rng, 5)
        b = random_ball_point(rng, 5)
        assert abs(trainer_distance(a, b) - oracle_distance(a, b)) <= 1e-10


def test_distance_rejects_boundary_points():
    with pytest.raises(DomainError):
        poincare_distance(np.array([1.0, 0.0]), np.zeros(2))


def test_rescale_at_origin_quarters_gradient():
    g = np.array([4.0, -8.0])
    assert np.array_equal(riemannian_rescale(np.zeros(2), g), [1.0, -2.0])


def test_rescale_of_zero_gradient_is_zero():
    assert np.array_equal(riemannian_rescale(np.array([0.3, 0.1]), np.zeros(2)), np.zeros(2))


def test_rescaled_step_decreases_distance():
    # moving against the rescaled distance gradient must shrink the distance
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = random_ball_point(rng, 3, max_norm=0.7)
        b = random_ball_point(rng, 3, max_norm=0.7)
        if poincare_distance(a, b) < 1e-3:
            continue
        h = 1e-6
        grad = np.array([
            (poincare_distance(a + h * e, b) - poincare_distance(a - h * e, b)) / (2 * h)
            for e in np.eye(3)
        ])
        step = project_to_ball(a - 1e-3 * riemannian_rescale(a, grad))
        assert poincare_distance(step, b) < poincare_distance(a, b)


def test_project_leaves_interior_points_alone():
    x = np.array([0.1, 0.1])
    assert np.array_equal(project_to_ball(x), x)


def test_project_clamps_to_boundary_epsilon():
    out = project_to_ball(np.array([2.0, 0.0]))
    assert out == pytest.approx([1.0 - BOUNDARY_EPS, 0.0])


def test_project_is_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-2, 2, 4)
        once = project_to_ball(x)
        assert np.array_equal(project_to_ball(once), once)


def test_project_rejects_non_finite():
    with pytest.raises(NumericError):
        project_to_ball(np.array([np.nan, 0.0]))


def test_train_requires_dimension_at_least_two():
    with pytest.raises(ConfigError):
        train_poincare([ParentChildPair("a", "b")], m=1)


def test_train_rejects_empty_pairs():
    with pytest.raises(DegenerateInputError):
        train_poincare([], m=4)


def test_single_pair_distance_decreases():
    dists = []
    train_poincare(
        [ParentChildPair(parent="p", child="c")],
        m=2,
        config=PoincareConfig(epochs=10, lr=2e-4, burn_in_epochs=0, seed=3),
        on_epoch=lambda e, t: dists.append(poincare_distance(point(t, "c"), point(t, "p"))),
    )
    assert len(dists) == 10
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_ball_invariant_holds_after_every_epoch():
    pairs = balanced_tree_pairs()
    max_norms = []
    train_poincare(
        pairs,
        m=5,
        config=PoincareConfig(epochs=8, lr=0.5, seed=0),
        on_epoch=lambda e, t: max_norms.append(max_row_norm(t)),
    )
    assert all(norm <= 1 - BOUNDARY_EPS + 1e-12 for norm in max_norms)


def test_training_is_deterministic():
    pairs = balanced_tree_pairs()
    t1 = train_poincare(pairs, m=6, config=PoincareConfig(epochs=15, seed=11))
    t2 = train_poincare(pairs, m=6, config=PoincareConfig(epochs=15, seed=11))
    assert t1.titles == t2.titles
    assert np.array_equal(t1.matrix, t2.matrix)


def test_tree_children_end_up_near_their_parents():
    pairs = balanced_tree_pairs()
    table = train_poincare(pairs, m=10, config=PoincareConfig(epochs=120, lr=0.5, seed=7))
    rng = np.random.default_rng(0)
    parent_of = {p.child: p.parent for p in pairs}
    child_parent, child_random = [], []
    for child, parent in parent_of.items():
        child_parent.append(poincare_distance(point(table, child), point(table, parent)))
        ancestors = {child, parent, "n"}
        others = [t for t in table.titles if t not in ancestors and not child.startswith(t)]
        pick = others[int(rng.integers(len(others)))]
        child_random.append(poincare_distance(point(table, child), point(table, pick)))
    assert np.mean(child_parent) < np.mean(child_random)


def test_mean_parent_rank_on_tree():
    pairs = balanced_tree_pairs()
    table = train_poincare(pairs, m=10, config=PoincareConfig(epochs=200, lr=0.5, seed=7))
    assert mean_parent_rank(table, pairs) <= 2.0


def test_table_tsv_round_trip_is_exact(tmp_path):
    pairs = balanced_tree_pairs()
    table = train_poincare(pairs, m=4, config=PoincareConfig(epochs=5, seed=2))
    path = tmp_path / "emb.tsv"
    table.export_tsv(path)
    loaded = HyperbolicEmbeddingTable.load_tsv(path)
    assert loaded.dim == 4 and loaded.seed == 2 and loaded.history == []
    assert loaded.titles == table.titles  # trained in sorted order, written sorted
    assert loaded.matrix.tobytes() == table.matrix.tobytes()


def test_table_tsv_header_required(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("a\t0.1,0.2\n")
    with pytest.raises(FormatError):
        HyperbolicEmbeddingTable.load_tsv(path)


def test_table_tsv_rejects_out_of_ball_rows(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("#poincare m=2 seed=0\na\t1.5,0.0\n")
    with pytest.raises(DataError):
        HyperbolicEmbeddingTable.load_tsv(path)


def test_table_tsv_names_the_first_row_outside_the_ball(tmp_path):
    # line 3 leaves the ball by its norm alone, line 4 by a coordinate
    path = tmp_path / "emb.tsv"
    path.write_text("#poincare m=2 seed=0\na\t0.6,0.0\nb\t0.8,0.6\nc\t1.0,0.0\n")
    with pytest.raises(DataError, match=r"emb\.tsv:3: point is not inside the unit ball"):
        HyperbolicEmbeddingTable.load_tsv(path)
    path.write_text("#poincare m=2 seed=0\na\t0.6,0.0\nb\t0.6,-0.79\n")
    assert HyperbolicEmbeddingTable.load_tsv(path).titles == ["a", "b"]


# ---------------------------------------------------------------------------
# Mini-batched trainer

def multi_parent_index_pairs():
    """(child, parent) index rows over 8 titles: child 0 has five parents,
    one of them listed twice; children 1, 6 and 7 have one parent each."""
    rows = [(0, 1), (0, 2), (0, 4), (0, 5), (0, 7), (0, 2), (1, 3), (7, 2), (6, 0)]
    return np.array(rows, dtype=np.intp)


def test_distinct_pairs_equal_numpy_unique_rows():
    rng = np.random.default_rng(4)
    pair_idx = np.concatenate(
        (multi_parent_index_pairs(), rng.integers(0, 9, size=(60, 2)).astype(np.intp))
    )
    rows = _distinct_pairs(pair_idx, 9)
    expected = np.unique(pair_idx, axis=0)
    assert len(expected) < len(pair_idx)  # the pairs repeat
    assert rows.dtype == expected.dtype and np.array_equal(rows, expected)


@pytest.mark.parametrize("negatives", [0, 1, 2, 3, 6, 7, 50])
def test_sampled_negatives_are_distinct_non_parents(negatives):
    pair_idx = multi_parent_index_pairs()
    n = 8
    parents = {}
    for child, parent in pair_idx:
        parents.setdefault(int(child), set()).add(int(parent))
    sampler = _NegativeSampler(pair_idx, n)
    rng = np.random.default_rng(0)
    # blocks of 3: (0, 1, 7), (6, 0, 1), (0,), each as wide as its widest row
    children = np.array([0, 1, 7, 6, 0, 1, 0], dtype=np.intp)
    pools = np.array([n - len(parents[int(c)]) for c in children])
    for _ in range(200):
        negs, valid, widths = sampler.draw(rng, children, negatives, 3)
        wanted = np.minimum(negatives, pools)
        assert widths.tolist() == [wanted[i : i + 3].max() for i in (0, 3, 6)]
        assert negs.shape == valid.shape == (len(children), max(widths))
        for child, row, ok in zip(children, negs, valid):
            drawn = row[ok]
            pool = n - len(parents[int(child)])
            assert len(drawn) == min(negatives, pool)
            assert len(set(drawn.tolist())) == len(drawn)
            assert not set(drawn.tolist()) & parents[int(child)]
            assert all(0 <= d < n for d in drawn)


def test_sampled_negatives_are_uniform_over_the_pool():
    # child 0's pool is {0, 3, 6}: each member is in a 2-subset 2/3 of the time
    sampler = _NegativeSampler(multi_parent_index_pairs(), 8)
    rng = np.random.default_rng(1)
    draws = 3000
    negs, valid, _ = sampler.draw(rng, np.zeros(draws, dtype=np.intp), 2, 32)
    counts = np.bincount(negs[valid], minlength=8)
    assert counts[[1, 2, 4, 5, 7]].sum() == 0
    assert counts[[0, 3, 6]] == pytest.approx(np.full(3, draws * 2 / 3), rel=0.05)


@pytest.mark.parametrize("batch", [5, 7])
def test_ball_invariant_and_determinism_when_batch_does_not_divide_pairs(monkeypatch, batch):
    pairs = balanced_tree_pairs()  # 12 pairs
    monkeypatch.setattr(poincare, "_BATCH_PAIRS", batch)
    max_norms = []
    config = PoincareConfig(epochs=8, lr=0.5, seed=4)
    t1 = train_poincare(
        pairs,
        m=5,
        config=config,
        on_epoch=lambda e, t: max_norms.append(max_row_norm(t)),
    )
    t2 = train_poincare(pairs, m=5, config=config)
    assert len(max_norms) == 8
    assert all(norm <= 1 - BOUNDARY_EPS + 1e-12 for norm in max_norms)
    assert np.array_equal(t1.matrix, t2.matrix)
    assert t1.history == t2.history


def test_history_records_loss_and_clamped_rows():
    pairs = balanced_tree_pairs()
    calm = train_poincare(pairs, m=4, config=PoincareConfig(epochs=6, seed=2))
    assert len(calm.history) == 6
    assert all(np.isfinite(h["loss"]) and h["loss"] > 0 for h in calm.history)
    assert all(h["clamped_rows"] == 0 for h in calm.history)
    # a step this large throws points past the boundary, where they are clamped
    wild = train_poincare(
        pairs, m=4, config=PoincareConfig(epochs=6, lr=500.0, burn_in_epochs=0, seed=2)
    )
    assert sum(h["clamped_rows"] for h in wild.history) > 0


def test_mean_parent_rank_matches_a_pairwise_count():
    pairs = balanced_tree_pairs()
    table = train_poincare(pairs, m=3, config=PoincareConfig(epochs=30, lr=0.5, seed=5))
    ranks = []
    for pair in pairs:
        child = point(table, pair.child)
        target = poincare_distance(child, point(table, pair.parent))
        closer = sum(
            1
            for title, vec in zip(table.titles, table.matrix)
            if title not in pair and poincare_distance(child, vec) < target
        )
        ranks.append(closer + 1)
    assert mean_parent_rank(table, pairs) == np.mean(ranks)


def random_index_pairs(n, count, seed):
    """`count` (child, parent) index rows over n titles, no self-pairs."""
    rng = np.random.default_rng(seed)
    child = rng.integers(0, n, count)
    parent = (child + rng.integers(1, n, count)) % n
    return np.stack([child, parent], axis=1).astype(np.intp)


def varied_pool_index_pairs():
    """(child, parent) index rows over 9 titles whose children's pools of
    non-parents are 2 (child 0), 5 (child 1) and 8 (children 2 and 3)."""
    rows = [(0, p) for p in range(1, 8)] + [(1, p) for p in (2, 4, 6, 8)] + [(2, 3), (3, 0)]
    return np.array(rows, dtype=np.intp)


# (pair rows, titles, m, negatives, lr, pairs per block)
STEP_CASES = {
    # the embed-g200 block: 32 pairs, 10 negatives, m 32
    "embed-block": (random_index_pairs(300, 192, 0), 300, 32, 10, 0.1, 32),
    "partial-last-block": (random_index_pairs(300, 39, 1), 300, 32, 10, 0.1, 32),
    # child 0's pool of non-parents (3) is narrower than 6 negatives
    "pools-narrower-than-negatives": (multi_parent_index_pairs(), 8, 5, 6, 0.1, 4),
    "no-negatives": (random_index_pairs(50, 80, 2), 50, 6, 0, 0.1, 32),
    "negatives-beyond-titles": (multi_parent_index_pairs(), 8, 5, 10**6, 0.1, 5),
    # a step this large throws points past the boundary, where they are clamped
    "clamps-rows": (random_index_pairs(30, 60, 3), 30, 4, 5, 500.0, 32),
    # 6 negatives: a block is 2, 5 or 6 wide, by which children it holds
    "block-widths-differ": (varied_pool_index_pairs(), 9, 4, 6, 0.1, 2),
}
EPOCHS = 4


# sha256 of each STEP_CASES run's vectors, (loss, rows moved) and generator
# state after every epoch, recorded from the allocating Riemannian SGD step,
# its own negative draw per block and numpy-scalar Floyd walk, that the
# planned epoch replaced. A change that moves these bits re-pins them and
# states its tolerance against `poincare_distance` and `riemannian_rescale`.
STEP_DIGESTS = {
    "embed-block": "a7c0d4e9da759027ff6f482cafd61674cc7bd48156e7e49f4d760a1d6849c7fc",
    "partial-last-block": "bd5eac144f5336497f739f6b6c48a8b4dc77719b0fa612f51153ab176f0d3420",
    "pools-narrower-than-negatives": "9ee9a2db91427e70e700edee8a3ef27fe531149f64989927ad7af83b68805b39",
    "no-negatives": "b191602216020e21c186fedd32776bab243d237ba02349af6d071a605168a4c7",
    "negatives-beyond-titles": "711b6079c18fd4407bd6e5288d4e7339f15fae70f3eb7c9b06ec58de2673ba15",
    "clamps-rows": "0d40ccaa17fd39a253123ec1b92d4596e239d4e7cb168b2bbf0b2ac07789437b",
    "block-widths-differ": "dbbac4a7e48e2dfde5e56c284ca063da8cc393219c7bd3b552f7bcc16e848368",
}


@pytest.mark.parametrize("case", STEP_CASES)
def test_planned_epochs_match_allocating_steps(case):
    pair_idx, n, m, negatives, lr, batch = STEP_CASES[case]
    sampler = _NegativeSampler(pair_idx, n)
    vectors = np.random.default_rng(4).uniform(-0.6, 0.6, (n, m)) / np.sqrt(m)
    rng = np.random.default_rng(5)
    digest, clamped = hashlib.sha256(), 0
    for _ in range(EPOCHS):
        loss, moved = poincare._train_epoch(vectors, pair_idx, sampler, rng, negatives, lr, batch)
        digest.update(vectors.tobytes())
        digest.update(repr((loss, moved)).encode())
        digest.update(repr(rng.bit_generator.state).encode())
        clamped += moved
    assert digest.hexdigest() == STEP_DIGESTS[case]
    assert (clamped > 0) == (case == "clamps-rows")


@pytest.mark.parametrize("case", STEP_CASES)
def test_plan_gives_each_block_its_width_rows_and_slots(case):
    pair_idx, n, m, negatives, lr, batch = STEP_CASES[case]
    sampler = _NegativeSampler(pair_idx, n)
    rng = np.random.default_rng(7)
    widths = set()
    for _ in range(EPOCHS):
        block_pairs = pair_idx[rng.permutation(len(pair_idx))]
        plan = poincare._plan_epoch(block_pairs, sampler, rng, negatives, batch, n)
        assert len(plan) == -(-len(pair_idx) // batch)
        for i, (children, cand_idx, valid, rows, slot) in enumerate(plan):
            block = block_pairs[i * batch : (i + 1) * batch]
            assert np.array_equal(children, block[:, 0])
            assert np.array_equal(cand_idx[:, 0], block[:, 1]) and valid[:, 0].all()
            k = np.minimum(negatives, sampler.pool_sizes[children])
            assert cand_idx.shape[1] == 1 + k.max()
            assert np.array_equal(valid.sum(axis=1), 1 + k)
            expected = np.unique(np.concatenate((children, cand_idx.ravel())), return_inverse=True)
            assert np.array_equal(rows, expected[0]) and np.array_equal(slot, expected[1])
            widths.add(cand_idx.shape[1])
    if case == "block-widths-differ":
        assert len(widths) > 1


def step_peak(vectors, step, lr):
    """The `tracemalloc` peak of one `_rsgd_step` on `vectors`, after a
    warm-up step on a copy."""
    poincare._rsgd_step(vectors.copy(), *step, lr)
    tracemalloc.start()
    try:
        poincare._rsgd_step(vectors, *step, lr)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rsgd_step_peak_does_not_grow_with_the_titles():
    # one 32-pair embed-g200 block over the first 300 titles, stepped on a
    # table of 300 titles and on one of 30,000: a step allocates by its
    # block (its peak is about 0.6 MB at both), and one (n, m) float64
    # array at n = 30,000 would add 7.7 MB
    pair_idx, n, m, negatives, lr, batch = STEP_CASES["embed-block"]
    pair_idx = pair_idx[:batch]
    rng = np.random.default_rng(1)
    step, = poincare._plan_epoch(pair_idx, _NegativeSampler(pair_idx, n), rng, negatives, batch, n)
    vectors = np.random.default_rng(0).uniform(-0.1, 0.1, (30_000, m))
    small = step_peak(vectors[:n].copy(), step, lr)
    large = step_peak(vectors, step, lr)
    assert large <= small + 16 * 1024


def test_epoch_plan_stays_small_at_the_embed_g200_shape():
    # 2,800 pairs over 972 titles, 10 negatives: the plan keeps about 0.8 MB
    # of index arrays and peaks near 1.4 MB; with `np.unique` over its keys
    # it peaked near 2.9 MB
    n, negatives, batch = 972, 10, 32
    pair_idx = random_index_pairs(n, 2800, 8)
    sampler = _NegativeSampler(pair_idx, n)
    rng = np.random.default_rng(9)
    poincare._plan_epoch(pair_idx, sampler, rng, negatives, batch, n)
    tracemalloc.start()
    try:
        plan = poincare._plan_epoch(pair_idx, sampler, rng, negatives, batch, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plan) == 88
    assert peak <= 2 * 1024 * 1024


# Mean parent rank of the per-pair trainer on this graph (G=50, S=5, 200
# persons, seed 1; m=10, 20 epochs), measured before the trainer was
# mini-batched. Over seeds 1-6 the per-pair trainer read 17.6-18.7 and the
# mini-batched one 16.7-20.1, at most 8 % apart on a seed; the gate allows 10 %.
PER_PAIR_MEAN_PARENT_RANK = 17.817
MEAN_PARENT_RANK_TOLERANCE = 0.10


def test_mean_parent_rank_on_generated_graph_matches_per_pair_trainer():
    synth = SynthConfig(groups=50, synonyms=5, persons=200, seed=1)
    taxonomy, labeled = gen_taxonomy(synth)
    pairs = extract_parent_child_pairs(person_sequences(gen_resumes(synth, taxonomy, labeled)))
    table = train_poincare(pairs, m=10, config=PoincareConfig(epochs=20, seed=1))
    assert len(table.titles) == 241  # a random table would rank parents near 120
    assert mean_parent_rank(table, pairs) == pytest.approx(
        PER_PAIR_MEAN_PARENT_RANK, rel=MEAN_PARENT_RANK_TOLERANCE
    )
