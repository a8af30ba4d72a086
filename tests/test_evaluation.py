import numpy as np
import pytest

from titlemap import evaluation as ev
from titlemap.errors import DataError, EvaluationError, MissingTitleError, NumericError
from titlemap.formats import VectorTable
from titlemap.graph import ParentChildPair
from titlemap.model import gold_rank, hit_at, ndcg_at, precision_at

from helpers import (
    RankingResult,
    hit_rate_at_n,
    ndcg_at_n,
    pairwise_auc_oracle,
    precision_at_n,
)


# ---------------------------------------------------------------------------
# Ranking metrics over the gold title's rank

def probs_ranked(order, n_classes):
    """A probability row whose classes rank in `order`; the rest share 0."""
    row = np.zeros(n_classes)
    row[list(order)] = np.linspace(0.9, 0.1, len(order))
    return row[None, :]


def test_precision_single_hit_at_rank_one():
    assert precision_at(np.array([1]), 1) == 1.0


def test_precision_no_hits():
    assert precision_at(np.array([4]), 3) == 0.0


def test_precision_two_queries_one_hit_each_in_top10():
    assert precision_at(np.array([5, 2]), 10) == pytest.approx(0.1)


def test_hit_rate_counts_presence():
    assert hit_at(np.array([5, 90]), 10) == 0.5


def test_ndcg_perfect_first_rank():
    assert ndcg_at(np.array([1]), 10) == 1.0


def test_ndcg_single_relevant_at_rank_three():
    # DCG = 1/log2(4) = 0.5, IDCG = 1
    assert ndcg_at(np.array([3]), 10) == pytest.approx(0.5)


def test_ndcg_ignores_irrelevant_tail_permutation():
    base = gold_rank(probs_ranked([1, 7, 2, 3, 4], 8), [7])
    permuted = gold_rank(probs_ranked([1, 7, 4, 3, 2], 8), [7])
    assert base.tolist() == permuted.tolist() == [2]
    assert ndcg_at(base, 5) == ndcg_at(permuted, 5)


def test_gold_rank_breaks_ties_on_lower_taxonomy_index():
    probs = np.array([[0.1, 0.3, 0.3, 0.2, 0.1], [0.2, 0.2, 0.2, 0.2, 0.2]])
    assert gold_rank(probs, [2, 0]).tolist() == [2, 1]
    assert gold_rank(probs, [0, 4]).tolist() == [4, 5]


def test_metrics_of_no_rows_are_zero():
    ranks = gold_rank(np.zeros((0, 3)), np.zeros(0, dtype=int))
    assert ranks.shape == (0,)
    assert hit_at(ranks, 1) == precision_at(ranks, 1) == ndcg_at(ranks, 10) == 0.0


def test_rank_metrics_equal_the_set_based_oracle():
    """On random probabilities, a third rounded to one decimal so that ties
    and exact zeros occur, each gold rank is the gold class's position in a
    lexsort (probability descending, index ascending), and every metric the
    stages report equals the set-based oracle under ==."""
    rng = np.random.default_rng(21)
    for case in range(150):
        rows, classes = int(rng.integers(1, 401)), int(rng.integers(1, 61))
        probs = rng.random((rows, classes))
        if case % 3 == 0:
            probs = np.round(probs, 1)
        elif case % 3 == 1:
            probs[rng.random(probs.shape) < 0.3] = 0.0
        labels = rng.integers(0, classes, size=rows)
        ranks = gold_rank(probs, labels)
        orders = [np.lexsort((np.arange(classes), -row)) for row in probs]
        assert ranks.tolist() == [
            int(np.flatnonzero(order == gold)[0]) + 1 for order, gold in zip(orders, labels)
        ]
        results = RankingResult(
            rankings=[order.tolist() for order in orders],
            relevant=[{gold} for gold in labels.tolist()],
        )
        for n in (1, 5, 10):
            assert hit_at(ranks, n) == hit_rate_at_n(results, n)
            assert precision_at(ranks, n) == precision_at_n(results, n)
        assert ndcg_at(ranks, 10) == ndcg_at_n(results, 10)


# ---------------------------------------------------------------------------
# Link split

def chain_pairs(n_links):
    """The career moves t0 -> t1 -> ... -> t{n_links}, each link twice: a
    split counts distinct links."""
    return [ParentChildPair(parent=f"t{i + 1}", child=f"t{i}") for i in range(n_links)] * 2


def titled(split, part):
    """The (child, parent) titles of a part of `split`, in its order."""
    return [(split.nodes[u], split.nodes[v]) for u, v in part.tolist()]


def test_link_split_cardinalities_follow_protocol():
    split = ev.make_link_split(chain_pairs(100), seed=0)
    parts = (split.test_pos, split.test_neg, split.dev_pos, split.dev_neg, split.train_edges)
    assert [len(part) for part in parts] == [20, 20, 16, 16, 64]
    assert split.nodes == sorted(f"t{i}" for i in range(101))


def test_link_split_negatives_avoid_real_edges():
    pairs = chain_pairs(60)
    split = ev.make_link_split(pairs, seed=1)
    edges = {(pair.child, pair.parent) for pair in pairs}
    positives = [titled(split, p) for p in (split.train_edges, split.dev_pos, split.test_pos)]
    assert sorted(sum(positives, [])) == sorted(edges)
    for neg in titled(split, split.test_neg) + titled(split, split.dev_neg):
        assert neg not in edges
        assert neg[0] != neg[1]


def test_link_split_is_deterministic():
    a = ev.make_link_split(chain_pairs(40), seed=7)
    b = ev.make_link_split(chain_pairs(40), seed=7)
    for part in ("train_edges", "dev_pos", "dev_neg", "test_pos", "test_neg"):
        assert titled(a, getattr(a, part)) == titled(b, getattr(b, part))


def test_link_split_needs_ten_edges():
    with pytest.raises(DataError):
        ev.make_link_split(chain_pairs(5), seed=0)


def test_link_split_negatives_come_from_the_free_pairs():
    # 5 nodes: 17 of the 20 ordered pairs are links, so 3 pairs are free;
    # the 3 test and 2 dev negatives are drawn from them, repeats allowed
    nodes = [f"n{i}" for i in range(5)]
    ordered = [(u, v) for u in nodes for v in nodes if u != v]
    free = set(ordered[::7])
    pairs = [ParentChildPair(parent=v, child=u) for u, v in ordered if (u, v) not in free]
    split = ev.make_link_split(pairs, seed=0)
    negatives = titled(split, split.test_neg) + titled(split, split.dev_neg)
    assert len(negatives) == 3 + 2 and set(negatives) <= free
    # with every ordered pair a link, no negative can be drawn
    complete = [ParentChildPair(parent=v, child=u) for u, v in ordered]
    with pytest.raises(DataError):
        ev.make_link_split(complete, seed=0)


def test_edge_operators():
    u = np.array([1.0, 2.0])
    v = np.array([3.0, 4.0])
    assert np.array_equal(ev.edge_embed(u, u, "average"), u)
    assert np.array_equal(ev.edge_embed(u, u, "weighted_l1"), np.zeros(2))
    assert np.array_equal(ev.edge_embed(u, v, "hadamard"), [3.0, 8.0])
    assert np.array_equal(ev.edge_embed(u, v, "weighted_l2"), [4.0, 4.0])


@pytest.mark.parametrize("operator", ev.EDGE_OPERATORS)
def test_edge_operator_written_into_out_is_bit_identical(operator):
    rng = np.random.default_rng(0)
    u, v = rng.uniform(-1, 1, (2, 7, 5))
    out = np.full((7, 5), np.nan)
    assert ev.edge_embed(u, v, operator, out=out) is out
    assert np.array_equal(out, ev.edge_embed(u, v, operator))
    # each operator as a plain numpy expression
    expected = {"average": (u + v) / 2.0, "hadamard": u * v,
                "weighted_l1": np.abs(u - v), "weighted_l2": (u - v) ** 2}[operator]
    assert np.array_equal(out, expected)


def test_auc_perfect_separation():
    assert ev.auc_score(np.array([3.0, 4.0, 5.0]), np.array([0.0, 1.0, 2.0])) == 1.0


def test_auc_random_scores_near_half():
    rng = np.random.default_rng(0)
    pos = rng.uniform(size=1000)
    neg = rng.uniform(size=1000)
    assert abs(ev.auc_score(pos, neg) - 0.5) <= 0.1


def test_auc_matches_pairwise_oracle_including_ties():
    rng = np.random.default_rng(1)
    # quantized scores force ties
    pos = np.round(rng.uniform(size=100), 1)
    neg = np.round(rng.uniform(size=100), 1)
    assert ev.auc_score(pos, neg) == pytest.approx(pairwise_auc_oracle(pos, neg), abs=1e-12)


# The exact AUC of each case, recorded from the tie ranking by a per-score
# loop that the run-length ranking replaced.
@pytest.mark.parametrize(
    "pos, neg, expected",
    [
        (np.round(np.random.default_rng(2).uniform(size=300), 1),
         np.round(np.random.default_rng(3).uniform(size=200), 1),
         0.4736666666666667),  # many ties
        (np.random.default_rng(4).normal(size=257), np.random.default_rng(5).normal(size=130),
         0.5868602214905717),
        (np.zeros(5), np.zeros(7), 0.5),  # one tie group
        (np.array([0.25]), np.array([0.75]), 0.0),
    ],
    ids=["many-ties", "no-ties", "all-tied", "one-each"],
)
def test_auc_equals_the_looped_tie_ranking_bit_for_bit(pos, neg, expected):
    assert ev.auc_score(pos, neg) == expected
    assert expected == pytest.approx(pairwise_auc_oracle(pos, neg), abs=1e-12)


def test_auc_rejects_non_finite_scores():
    with pytest.raises(NumericError, match="2 of 7 scores are not finite"):
        ev.auc_score(np.array([1.0, 2.0, np.nan]), np.array([np.nan, 0.5, 2.0, 2.0]))
    for bad in (np.inf, -np.inf):
        with pytest.raises(NumericError, match="1 of 2"):
            ev.auc_score(np.array([bad]), np.array([0.5]))


def test_auc_rejects_single_class():
    with pytest.raises(EvaluationError):
        ev.auc_score(np.array([]), np.array([1.0]))


def test_link_prediction_selects_operator_and_reports_auc():
    # two-block graph: links happen inside blocks, embeddings encode the block
    rng = np.random.default_rng(2)
    pairs = []
    for block in range(2):
        for _ in range(30):
            a, b = rng.integers(15, size=2)
            if a != b:  # a career move, as build-graph writes them
                pairs.append(ParentChildPair(parent=f"b{block}n{b}", child=f"b{block}n{a}"))
    # sorted, so the draw order does not depend on string hashing
    nodes = sorted({t for pair in pairs for t in pair})
    table = VectorTable(nodes, np.array([
        np.concatenate([np.full(4, 1.0 if node.startswith("b1") else -1.0), rng.normal(0, 0.05, 4)])
        for node in nodes
    ]))
    split = ev.make_link_split(pairs, seed=3)
    report = ev.link_prediction_auc(split, table, seed=3, epochs=60)
    assert set(report.per_operator) == set(ev.EDGE_OPERATORS)
    assert report.best_operator in ev.EDGE_OPERATORS
    best_dev = report.per_operator[report.best_operator]["dev_auc"]
    assert all(best_dev >= info["dev_auc"] for info in report.per_operator.values())
    assert report.test_auc > 0.65


def test_link_prediction_requires_vectors_for_all_nodes():
    split = ev.make_link_split(chain_pairs(20), seed=0)
    table = VectorTable(split.nodes[:-2], np.ones((len(split.nodes) - 2, 3)))
    with pytest.raises(MissingTitleError, match="no vector for 2 node"):
        ev.link_prediction_auc(split, table)


def test_link_prediction_is_deterministic_per_seed():
    split = ev.make_link_split(chain_pairs(40), seed=5)
    rng = np.random.default_rng(0)
    table = VectorTable(split.nodes, rng.normal(size=(len(split.nodes), 4)))
    first = ev.link_prediction_auc(split, table, seed=5, epochs=10)
    assert ev.link_prediction_auc(split, table, seed=5, epochs=10) == first


# ---------------------------------------------------------------------------
# Train-negative sampler

def test_pair_sampler_returns_count_allowed_pairs():
    forbidden = [(0, 1), (1, 2), (2, 0), (3, 3), (0, 1)]
    sampler = ev.PairSampler(5, forbidden)
    assert sampler.allowed == 5 * 4 - 3  # the self-pair and the repeat count once
    u, v = sampler.sample(1000, np.random.default_rng(0))
    assert u.shape == v.shape == (1000,)
    pairs = set(zip(u.tolist(), v.tolist()))
    assert all(a != b for a, b in pairs)
    assert not pairs & set(forbidden)


def test_pair_sampler_without_a_free_pair_raises():
    with pytest.raises(DataError, match="1 node"):
        ev.PairSampler(1, [])
    # every ordered pair of three nodes is forbidden
    with pytest.raises(DataError, match="3 node"):
        ev.PairSampler(3, [(u, v) for u in range(3) for v in range(3) if u != v])


def test_pair_sampler_is_deterministic_per_seed():
    sampler = ev.PairSampler(6, [(0, 1), (2, 3)])
    a = sampler.sample(300, np.random.default_rng(4))
    b = sampler.sample(300, np.random.default_rng(4))
    c = sampler.sample(300, np.random.default_rng(5))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_pair_sampler_terminates_with_one_allowed_pair():
    forbidden = [(u, v) for u in range(4) for v in range(4) if u != v and (u, v) != (2, 1)]
    u, v = ev.PairSampler(4, forbidden).sample(50, np.random.default_rng(0))
    assert u.tolist() == [2] * 50 and v.tolist() == [1] * 50


def test_pair_sampler_is_uniform_over_allowed_pairs():
    forbidden = [(0, 1), (1, 2), (2, 3), (3, 0)]
    allowed = [(u, v) for u in range(4) for v in range(4) if u != v and (u, v) not in forbidden]
    draws = 40_000
    u, v = ev.PairSampler(4, forbidden).sample(draws, np.random.default_rng(11))
    counts = np.zeros((4, 4), dtype=int)
    np.add.at(counts, (u, v), 1)
    expected = draws / len(allowed)  # 5,000; a binomial sd of about 66
    for a, b in allowed:
        assert abs(counts[a, b] - expected) <= 0.05 * expected  # about 3.8 sd
    assert counts.sum() == sum(counts[a, b] for a, b in allowed)


# ---------------------------------------------------------------------------
# Mobility

def test_mobility_deterministic_chain_is_perfect():
    trajectories = [["a", "b", "a", "b", "a", "b"] for _ in range(5)]
    assert ev.map_at_10_mobility(trajectories) == 1.0


def test_mobility_correct_at_rank_two_scores_half():
    # training transitions give successors(x) = {y: 2, z: 1}; the held-out
    # transition x->z therefore sits at rank 2 -> AP 1/2. The other three
    # held-out transitions start from titles with no observed successors.
    trajectories = [
        ["x", "y", "z"],
        ["x", "y", "z"],
        ["x", "z", "w"],
        ["q", "x", "z"],
    ]
    assert ev.map_at_10_mobility(trajectories) == pytest.approx((0 + 0 + 0 + 0.5) / 4)


def test_mobility_mapper_is_applied():
    trajectories = [["a1", "b2", "a3", "b1", "a2", "b3"] for _ in range(4)]
    mapper = lambda t: t[0]
    assert ev.map_at_10_mobility(trajectories, mapper=mapper) == 1.0
    assert ev.map_at_10_mobility(trajectories) < 1.0


def test_mobility_rejects_empty():
    with pytest.raises(DataError):
        ev.map_at_10_mobility([["only"]])
