"""Synthetic taxonomies, noisy title variants, and career trajectories.

Ground truth is planted by construction: every noisy variant shares strictly
more character 3-grams with its own standard title than with any other
group's standard (noise draws are retried until that holds), and careers are
Markov walks over groups so the transition graph clusters by group. Noise is
calibrated to keep the abbreviation edit hard for pure string matching: the
first token collapses to a single letter, which guts its gram overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .graph import JobRecord
from .syntactic import Taxonomy, gram_set

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


@dataclass
class SynthConfig:
    groups: int = 10  # G standard titles
    synonyms: int = 3  # S noisy variants per group
    max_noise_ops: int = 3  # edits per variant drawn from {1..max}; 0 = exact copies
    persons: int = 100
    jobs_per_person: int = 5
    self_transition_bias: float = 0.6
    transition_concentration: float = 0.3  # Dirichlet alpha over other groups
    seed: int = 0

    def __post_init__(self):
        if min(self.groups, self.synonyms, self.persons, self.jobs_per_person) < 1:
            raise ConfigError("groups, synonyms, persons and jobs_per_person must be >= 1")
        if not 0.0 <= self.self_transition_bias <= 1.0:
            raise ConfigError("self_transition_bias must lie in [0, 1]")
        if self.transition_concentration <= 0:
            raise ConfigError("transition_concentration must be positive")
        if self.max_noise_ops < 0:
            raise ConfigError("max_noise_ops must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"data seed must be >= 0, got {self.seed}")


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


def _dominates_own_group(variant: str, own: frozenset, others: list[frozenset]) -> bool:
    grams = gram_set(variant)
    own_overlap = len(grams & own)
    return all(len(grams & other) < own_overlap for other in others)


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

    gram_sets = [gram_set(s) for s in standards]
    taken = set(standards)
    labeled: list[tuple[str, str]] = []
    for gi, standard in enumerate(standards):
        others = gram_sets[:gi] + gram_sets[gi + 1 :]
        for _ in range(config.synonyms):
            variant = standard
            if config.max_noise_ops > 0:
                variant = None
                for _attempt in range(_MAX_ATTEMPTS):
                    k = 1 + int(rng.integers(config.max_noise_ops))
                    ops = [_NOISE_OPS[int(rng.integers(len(_NOISE_OPS)))] for _ in range(k)]
                    cand = _apply_noise(standard, ops, rng)
                    if cand and cand not in taken and _dominates_own_group(
                        cand, gram_sets[gi], others
                    ):
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
                        if cand not in taken and _dominates_own_group(
                            cand, gram_sets[gi], others
                        ):
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
    for i in range(g):
        off = rng.dirichlet(np.full(g - 1, config.transition_concentration))
        row = np.insert(off * (1.0 - config.self_transition_bias), i, config.self_transition_bias)
        matrix[i] = row
    return matrix


def gen_resumes(
    config: SynthConfig,
    taxonomy: Taxonomy,
    labeled_variants: Sequence[tuple[str, str]],
) -> list[JobRecord]:
    """P persons, each a J-step Markov walk over groups emitting noisy variants."""
    rng = _seed_streams(config)[2]
    matrix = build_transition_matrix(config)
    variants_by_group: list[list[str]] = [[] for _ in range(len(taxonomy))]
    for variant, standard in labeled_variants:
        variants_by_group[taxonomy.index(standard)].append(variant)

    records = []
    n_companies = max(10, config.persons // 2)
    for p in range(config.persons):
        group = int(rng.integers(len(taxonomy)))
        start = date(2000, 1, 1) + timedelta(days=int(rng.integers(0, 3650)))
        for j in range(config.jobs_per_person):
            pool = variants_by_group[group]
            title = pool[int(rng.integers(len(pool)))]
            duration = timedelta(days=int(rng.integers(180, 1095)))
            end = start + duration
            records.append(
                JobRecord(
                    person_id=f"p{p:06d}",
                    title=title,
                    company_id=f"comp-{int(rng.integers(n_companies)):05d}",
                    start=start,
                    end=None if j == config.jobs_per_person - 1 else end,
                )
            )
            start = end
            if len(taxonomy) > 1:
                group = int(rng.choice(len(taxonomy), p=matrix[group]))
    return records
