import numpy as np
import pytest

from titlemap import datagen
from titlemap.datagen import (
    SynthConfig,
    build_transition_matrix,
    gen_resumes,
    gen_taxonomy,
)
from titlemap.errors import ConfigError
from titlemap.graph import build_transition_graph, person_sequences

from helpers import dominates_own_group, gram_set


def test_taxonomy_counts():
    taxonomy, labeled = gen_taxonomy(SynthConfig(groups=2, synonyms=1, seed=0))
    assert len(taxonomy) == 2
    assert len(labeled) == 2


def test_zero_noise_variants_equal_standards():
    taxonomy, labeled = gen_taxonomy(SynthConfig(groups=4, synonyms=2, max_noise_ops=0, seed=1))
    for variant, standard in labeled:
        assert variant == standard


def test_every_label_is_in_the_taxonomy():
    taxonomy, labeled = gen_taxonomy(SynthConfig(groups=6, synonyms=3, seed=2))
    for _, standard in labeled:
        assert standard in taxonomy


def test_variants_dominate_their_own_group_by_shared_grams():
    taxonomy, labeled = gen_taxonomy(SynthConfig(groups=30, synonyms=5, seed=3))
    standard_grams = [gram_set(t) for t in taxonomy.titles]
    for variant, standard in labeled:
        grams = gram_set(variant)
        own = len(grams & standard_grams[taxonomy.index(standard)])
        for k, other in enumerate(standard_grams):
            if k != taxonomy.index(standard):
                assert len(grams & other) < own


def _pairwise_run(monkeypatch, config):
    """`gen_taxonomy` with every dominance check made by the pairwise oracle
    over the taxonomy's standard titles."""
    taxonomy, _ = gen_taxonomy(config)
    grams = [gram_set(t) for t in taxonomy.titles]

    def pairwise(index, variant, own):
        return dominates_own_group(variant, grams[own], grams[:own] + grams[own + 1 :])

    monkeypatch.setattr(datagen, "_dominates", pairwise)
    return gen_taxonomy(config)


@pytest.mark.parametrize("max_noise_ops", [0, 3, 6])
@pytest.mark.parametrize("groups", [1, 2, 30, 200])
def test_index_checks_equal_the_pairwise_oracle(monkeypatch, groups, max_noise_ops):
    config = SynthConfig(groups=groups, synonyms=4, max_noise_ops=max_noise_ops, seed=groups)
    taxonomy, labeled = gen_taxonomy(config)
    oracle_taxonomy, oracle_labeled = _pairwise_run(monkeypatch, config)
    assert taxonomy == oracle_taxonomy
    assert labeled == oracle_labeled


def test_fallback_swap_checks_equal_the_pairwise_oracle(monkeypatch):
    # one noise draw per variant: every variant whose draw is not kept comes
    # from the fallback's adjacent swaps (or is the standard itself); with
    # seed 1 some of those swaps fail the check and are passed over
    monkeypatch.setattr(datagen, "_MAX_ATTEMPTS", 1)
    apply_noise, drawn = datagen._apply_noise, []

    def recording_noise(*args):
        drawn.append(apply_noise(*args))
        return drawn[-1]

    monkeypatch.setattr(datagen, "_apply_noise", recording_noise)
    config = SynthConfig(groups=200, synonyms=4, max_noise_ops=6, seed=1)
    taxonomy, labeled = gen_taxonomy(config)
    assert len(drawn) == len(labeled)
    fallback = [v for (v, standard), d in zip(labeled, drawn) if v != d and v != standard]
    assert len(fallback) >= 10
    grams = [gram_set(t) for t in taxonomy.titles]
    for variant, standard in labeled:
        own = taxonomy.index(standard)
        assert dominates_own_group(variant, grams[own], grams[:own] + grams[own + 1 :])
    assert (taxonomy, labeled) == _pairwise_run(monkeypatch, config)


def test_word_bank_exhaustion_is_config_error():
    with pytest.raises(ConfigError):
        gen_taxonomy(SynthConfig(groups=100000, seed=0))


def test_generation_is_bit_deterministic():
    config = SynthConfig(groups=8, synonyms=3, persons=40, seed=9)
    tax_a, lab_a = gen_taxonomy(config)
    tax_b, lab_b = gen_taxonomy(config)
    assert tax_a.titles == tax_b.titles and lab_a == lab_b
    rec_a = gen_resumes(config, tax_a, lab_a)
    rec_b = gen_resumes(config, tax_b, lab_b)
    assert rec_a == rec_b


def test_single_person_record_and_transition_counts():
    config = SynthConfig(groups=3, synonyms=2, persons=1, jobs_per_person=5, seed=4)
    taxonomy, labeled = gen_taxonomy(config)
    records = gen_resumes(config, taxonomy, labeled)
    assert len(records) == 5
    assert build_transition_graph(person_sequences(records))["transitions"] == 4


def test_identity_matrix_keeps_every_person_in_one_group():
    config = SynthConfig(
        groups=5, synonyms=2, persons=30, jobs_per_person=4,
        self_transition_bias=1.0, seed=5,
    )
    assert np.array_equal(build_transition_matrix(config), np.eye(5))
    taxonomy, labeled = gen_taxonomy(config)
    group_of = {v: taxonomy.index(s) for v, s in labeled}
    by_person: dict = {}
    for rec in gen_resumes(config, taxonomy, labeled):
        by_person.setdefault(rec.person_id, set()).add(group_of[rec.title])
    assert all(len(groups) == 1 for groups in by_person.values())


def test_transition_matrix_rows_are_stochastic():
    config = SynthConfig(groups=7, seed=6)
    matrix = build_transition_matrix(config)
    assert matrix.shape == (7, 7)
    assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(matrix >= 0)


@pytest.mark.parametrize("bias, concentration", [(0.6, 0.3), (1.0, 0.3), (0.0, 0.01)],
                         ids=["default", "identity-rows", "near-zero-mass"])
def test_cdf_draws_equal_generator_choice(bias, concentration):
    """The draw follows numpy's `Generator.choice(n, p=row)`: over every row
    of a 30-group matrix (rows with zero and with near-zero entries too), the
    CDF draw gives the same index as `choice` on an identically seeded
    generator, and both generators end in the same state. A numpy whose
    `choice` computes otherwise fails here instead of drifting the corpus."""
    config = SynthConfig(groups=30, self_transition_bias=bias,
                         transition_concentration=concentration, seed=12)
    matrix = build_transition_matrix(config)
    cdfs = datagen._transition_cdfs(matrix)
    ours, numpy_rng = np.random.default_rng(5), np.random.default_rng(5)
    for cdf, row in zip(cdfs, matrix):
        for _ in range(50):
            assert datagen._draw_next(cdf, ours) == int(numpy_rng.choice(30, p=row))
    assert ours.bit_generator.state == numpy_rng.bit_generator.state


def test_empirical_frequencies_converge_to_matrix():
    config = SynthConfig(
        groups=4, synonyms=2, persons=2000, jobs_per_person=6,
        self_transition_bias=0.5, seed=7,
    )
    taxonomy, labeled = gen_taxonomy(config)
    matrix = build_transition_matrix(config)
    group_of = {v: taxonomy.index(s) for v, s in labeled}
    counts = np.zeros((4, 4))
    by_person: dict = {}
    for rec in gen_resumes(config, taxonomy, labeled):
        by_person.setdefault(rec.person_id, []).append((rec.start, group_of[rec.title]))
    for rows in by_person.values():
        rows.sort()
        for (_, a), (_, b) in zip(rows, rows[1:]):
            counts[a, b] += 1
    empirical = counts / counts.sum(axis=1, keepdims=True)
    assert np.max(np.abs(empirical - matrix)) <= 0.05


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        SynthConfig(groups=0)
    with pytest.raises(ConfigError):
        SynthConfig(self_transition_bias=1.5)
    with pytest.raises(ConfigError):
        SynthConfig(transition_concentration=0.0)
    with pytest.raises(ConfigError):
        SynthConfig(max_noise_ops=-1)
