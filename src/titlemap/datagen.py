"""Synthetic taxonomies, noisy title variants, and career trajectories.

Ground truth is planted by construction: every noisy variant shares strictly
more character 3-grams with its own standard title than with any other
group's standard (noise draws are retried until that holds), and careers are
Markov walks over groups so the transition graph clusters by group. Noise is
calibrated to keep the abbreviation edit hard for pure string matching: the
first token collapses to a single letter, which guts its gram overlap.

Dominance is checked through the taxonomy's own inverted 3-gram index
(`Taxonomy.gram_index`), the one the syntactic view reads: a candidate's
shared-gram counts against all G standards are one lookup per distinct gram
and one bincount, rather than G set intersections.

Transitions are drawn through per-row CDFs of the group transition matrix,
built once: each draw searches one row's CDF for one `rng.random()`, the
computation `Generator.choice(n, p=row)` makes per call, so the random stream
is the one `choice` would consume.

Every title is a canonical key: lower-case words joined by single spaces.
Noise keeps it one, since it only swaps letters, drops words or cuts the
first word to its initial, so each record holds its variant as its own key.
"""

from __future__ import annotations

from datetime import date, timedelta
from typing import Sequence

import numpy as np

from .config import SynthConfig
from .errors import ConfigError
from .graph import JobRecord
from .syntactic import GramIndex, Taxonomy

DOMAINS = [
    "software", "data", "network", "security", "cloud", "product", "marketing",
    "finance", "sales", "research", "quality", "logistics", "operations",
    "payroll", "brand", "media", "content", "support", "infrastructure",
    "platform", "mobile", "frontend", "backend", "database", "hardware",
    "systems", "machine learning", "analytics", "customer", "supply chain",
    "procurement", "compliance", "risk", "audit", "treasury", "billing",
    "growth", "community", "partnerships", "talent",
]

ROLES = [
    "engineer", "developer", "analyst", "manager", "designer", "scientist",
    "technician", "consultant", "administrator", "architect", "specialist",
    "coordinator", "director", "officer", "assistant", "supervisor", "planner",
    "strategist", "auditor", "economist", "researcher", "operator", "lead",
    "advisor", "instructor",
]

_NOISE_OPS = ("swap", "drop", "abbrev")
_MAX_ATTEMPTS = 40


def _seed_streams(config: SynthConfig) -> list[np.random.Generator]:
    children = np.random.SeedSequence(config.seed).spawn(3)
    return [np.random.default_rng(c) for c in children]


def _apply_noise(title: str, ops: Sequence[str], rng: np.random.Generator) -> str:
    tokens = title.split(" ")
    for op in ops:
        if op == "drop" and len(tokens) >= 2:
            tokens.pop(int(rng.integers(len(tokens))))
        elif op == "abbrev" and len(tokens) >= 2 and len(tokens[0]) >= 2:
            tokens[0] = tokens[0][0]
        elif op == "swap":
            candidates = [i for i, t in enumerate(tokens) if len(t) >= 2]
            if not candidates:
                continue
            ti = candidates[int(rng.integers(len(candidates)))]
            t = tokens[ti]
            pos = int(rng.integers(len(t) - 1))
            tokens[ti] = t[:pos] + t[pos + 1] + t[pos] + t[pos + 2 :]
    return " ".join(tokens)


def _dominates(index: GramIndex, variant: str, own: int) -> bool:
    """Whether `variant` shares strictly more grams with standard `own` than
    with any other standard of `index`; always true for a lone standard."""
    counts = index.title_counts(variant)
    own_count = counts[own]
    counts[own] = -1
    return bool(own_count > counts.max())


def gen_taxonomy(config: SynthConfig) -> tuple[Taxonomy, list[tuple[str, str]]]:
    """Standard titles plus (variant, standard) ground-truth labels.

    Returns the taxonomy and G*S labeled variants. With max_noise_ops == 0
    variants are exact copies of their standards.
    """
    rng = _seed_streams(config)[0]
    combos = [(d, r) for d in DOMAINS for r in ROLES]
    if config.groups > len(combos):
        raise ConfigError(
            f"word bank supports at most {len(combos)} groups, asked for {config.groups}"
        )
    picks = rng.permutation(len(combos))[: config.groups]
    standards = [f"{combos[i][0]} {combos[i][1]}" for i in picks]
    groups = [combos[i][0] for i in picks]
    taxonomy = Taxonomy(titles=list(standards), groups=groups)

    index = taxonomy.gram_index
    checked: dict[tuple[str, int], bool] = {}  # retries draw the same candidates often

    def dominates(variant: str, own: int) -> bool:
        key = (variant, own)
        if key not in checked:
            checked[key] = _dominates(index, variant, own)
        return checked[key]

    taken = set(standards)
    labeled: list[tuple[str, str]] = []
    for gi, standard in enumerate(standards):
        for _ in range(config.synonyms):
            variant = standard
            if config.max_noise_ops > 0:
                variant = None
                for _attempt in range(_MAX_ATTEMPTS):
                    k = 1 + int(rng.integers(config.max_noise_ops))
                    ops = [_NOISE_OPS[int(rng.integers(len(_NOISE_OPS)))] for _ in range(k)]
                    cand = _apply_noise(standard, ops, rng)
                    if cand and cand not in taken and dominates(cand, gi):
                        variant = cand
                        break
                if variant is None:
                    # deterministic fallback: one adjacent swap in the longest token
                    tokens = standard.split(" ")
                    longest = max(range(len(tokens)), key=lambda i: len(tokens[i]))
                    t = tokens[longest]
                    for pos in range(len(t) - 1):
                        tokens[longest] = t[:pos] + t[pos + 1] + t[pos] + t[pos + 2 :]
                        cand = " ".join(tokens)
                        if cand not in taken and dominates(cand, gi):
                            variant = cand
                            break
                if variant is None:
                    variant = standard  # last resort: exact copy always dominates
                taken.add(variant)
            labeled.append((variant, standard))
    return taxonomy, labeled


def build_transition_matrix(config: SynthConfig) -> np.ndarray:
    """Row-stochastic group transition matrix: self mass plus Dirichlet rest."""
    rng = _seed_streams(config)[1]
    g = config.groups
    if g == 1:
        return np.ones((1, 1))
    matrix = np.zeros((g, g))
    alpha = np.full(g - 1, config.transition_concentration)
    for i in range(g):
        off = rng.dirichlet(alpha) * (1.0 - config.self_transition_bias)
        matrix[i, :i] = off[:i]
        matrix[i, i + 1 :] = off[i:]
    np.fill_diagonal(matrix, config.self_transition_bias)
    return matrix


def _transition_cdfs(matrix: np.ndarray) -> np.ndarray:
    """Each row's CDF as `Generator.choice(n, p=row)` builds it per call: the
    row's cumulative sum divided by its last entry."""
    cdfs = matrix.cumsum(axis=1)
    cdfs /= cdfs[:, -1:]
    return cdfs


def _draw_next(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """The index `rng.choice(len(cdf), p=row)` draws for the row whose CDF is
    `cdf`: one `rng.random()` searched on the right, the computation `choice`
    makes, so the generator's stream and end state are the same."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def gen_resumes(
    config: SynthConfig,
    taxonomy: Taxonomy,
    labeled_variants: Sequence[tuple[str, str]],
) -> list[JobRecord]:
    """P persons, each a J-step Markov walk over groups emitting noisy variants.
    The next group is drawn through the transition rows' CDFs, built once."""
    rng = _seed_streams(config)[2]
    cdfs = _transition_cdfs(build_transition_matrix(config))
    variants_by_group: list[list[str]] = [[] for _ in range(len(taxonomy))]
    for variant, standard in labeled_variants:
        variants_by_group[taxonomy.index(standard)].append(variant)

    records = []
    n_companies = max(10, config.persons // 2)
    last_job = config.jobs_per_person - 1
    for p in range(config.persons):
        person_id = f"p{p:06d}"
        group = int(rng.integers(len(taxonomy)))
        start = date(2000, 1, 1) + timedelta(days=int(rng.integers(0, 3650)))
        for j in range(config.jobs_per_person):
            pool = variants_by_group[group]
            title = pool[int(rng.integers(len(pool)))]
            end = start + timedelta(days=int(rng.integers(180, 1095)))
            records.append(
                JobRecord(
                    person_id=person_id,
                    title=title,
                    company_id=f"comp-{int(rng.integers(n_companies)):05d}",
                    start=start,
                    end=None if j == last_job else end,
                    canonical_title=title,
                )
            )
            start = end
            if len(taxonomy) > 1:
                group = _draw_next(cdfs[group], rng)
    return records
