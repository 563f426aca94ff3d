"""Canonical correlation families and randomized nonsignaling generators.

The two-site, two-setting, binary-outcome scenario carries the standard
test corpus: the 16 local deterministic vertices, the 8 extremal boxes
with perfect setting-dependent (anti)correlation, their mixtures, and the
isotropic line between the maximally nonlocal box and white noise. A
one-setting signaling counterexample and generic-scenario mixture
generators round out the inputs the rest of the package is exercised on.
Each is built from integer numerators over one denominator, never parsed.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import reduce
from typing import Sequence

import numpy as np

from . import numeric
from .construct import product_expectation_family
from .errors import InputError
from .scenario import DistributionFamily, Scenario, interleaved_to_stacked

CHSH_SCENARIO = Scenario((2, 2), (2, 2))
# Local deterministic vertices mixed by `random_scenario_family`
RANDOM_COMPONENTS = 6


def uniform_family(scenario: Scenario, mode: str = numeric.RATIONAL) -> DistributionFamily:
    """White noise: every table uniform over the joint outcomes."""
    size = math.prod(scenario.outcomes_per_site)
    shape = scenario.settings_per_site + scenario.table_shape
    return DistributionFamily.from_numerators(scenario, np.ones(shape, dtype=int), size, mode)


def local_deterministic_vertex(scenario: Scenario, assignment: Sequence[Sequence[int]],
                               mode: str = numeric.RATIONAL) -> DistributionFamily:
    """Point-mass product family from per-(site, setting) fixed outcomes.

    `assignment[n-1][s-1]` is the outcome site n reports under setting s;
    each table is the product of the corresponding indicator vectors.
    """
    if len(assignment) != scenario.n_parties:
        raise InputError(f"assignment must cover {scenario.n_parties} sites")
    one_hot = []
    for n, site in enumerate(assignment, start=1):
        outcomes = tuple(int(a) for a in site)
        if len(outcomes) != scenario.settings_per_site[n - 1]:
            raise InputError(f"site {n} assignment must cover "
                             f"{scenario.settings_per_site[n - 1]} settings")
        k = scenario.outcomes_per_site[n - 1]
        for a in outcomes:
            if not 0 <= a < k:
                raise InputError(f"outcome {a} out of range for site {n}")
        one_hot.append(np.eye(k, dtype=int)[list(outcomes)])
    stacked = interleaved_to_stacked(reduce(np.multiply.outer, one_hot))
    return DistributionFamily.from_numerators(scenario, stacked, 1, mode)


def pr_type_vertex(alpha: int, beta: int, gamma: int,
                   mode: str = numeric.RATIONAL) -> DistributionFamily:
    """Extremal nonsignaling box with a XOR b = xy + ax + by + g (mod 2).

    Settings map to x = s1 - 1 and y = s2 - 1; the half weight sits on
    the outcome pairs satisfying the XOR relation.
    """
    if alpha not in (0, 1) or beta not in (0, 1) or gamma not in (0, 1):
        raise InputError("alpha, beta, gamma must be bits")
    x, y, a, b = np.indices((2, 2, 2, 2))
    target = (x * y + alpha * x + beta * y + gamma) % 2
    stacked = np.where((a + b) % 2 == target, 1, 0)
    return DistributionFamily.from_numerators(CHSH_SCENARIO, stacked, 2, mode)


def pr_box(mode: str = numeric.RATIONAL) -> DistributionFamily:
    """The maximally nonlocal box: a XOR b = (s1-1)(s2-1), uniform otherwise."""
    return pr_type_vertex(0, 0, 0, mode)


def mix_families(families: Sequence[DistributionFamily], weights) -> DistributionFamily:
    """Convex mixture of same-scenario, same-mode families with normalized
    weights, read in the families' mode."""
    if not families:
        raise InputError("nothing to mix")
    scenario, mode = families[0].scenario, families[0].mode
    for f in families[1:]:
        if f.scenario != scenario or f.mode != mode:
            raise InputError("mixture components must share scenario and mode")
    w = [numeric.coerce_scalar(v, mode) for v in weights]
    if any(v < 0 for v in w):
        raise InputError("weights must be nonnegative")
    total = sum(w)
    if total == 0:
        raise InputError("weights must not all be zero")
    if len(w) != len(families):
        raise InputError(f"need {len(families)} weights, got {len(w)}")
    # sum_i w_i F_i / D_i over the normalized weights' and the families' common denominators
    w, w_den = numeric.numerators([v / total for v in w], mode)
    den = math.lcm(*(f.denominator for f in families))
    acc = sum(weight * (den // f.denominator) * f.numerators for weight, f in zip(w, families))
    return DistributionFamily.from_numerators(scenario, acc, den * w_den, mode)


def isotropic_box(p, mode: str = numeric.RATIONAL) -> DistributionFamily:
    """p times the maximally nonlocal box plus (1-p) white noise."""
    weight = numeric.coerce_scalar(p, mode)
    if not 0 <= weight <= 1:
        raise InputError(f"mixing weight must lie in [0, 1], got {p}")
    return mix_families([pr_box(mode), uniform_family(CHSH_SCENARIO, mode)], [weight, 1 - weight])


def signaling_example(mode: str = numeric.RATIONAL) -> DistributionFamily:
    """Two sites, settings (2, 1): site 2 announces site 1's setting.

    Site 1 reports a fair coin; site 2 deterministically outputs s1 - 1,
    so its marginal flips from (1, 0) to (0, 1) with the remote setting.
    The consistency check fails with discrepancy 1 at site subset {2}.
    """
    scenario = Scenario((2, 1), (2, 2))
    s1, _, _, b = np.indices((2, 1, 2, 2))
    stacked = np.where(b == s1, 1, 0)
    return DistributionFamily.from_numerators(scenario, stacked, 2, mode)


def chsh_local_vertices(mode: str = numeric.RATIONAL) -> list[DistributionFamily]:
    """All 16 local deterministic vertices of the two-site binary scenario.

    Ordered by the assignment bits (a1, a2, b1, b2) read as a binary
    number, a1 most significant: index 0 answers 0 everywhere, index 15
    answers 1 everywhere.
    """
    out = []
    for a1, a2, b1, b2 in itertools.product(range(2), repeat=4):
        out.append(local_deterministic_vertex(CHSH_SCENARIO, [(a1, a2), (b1, b2)], mode))
    return out


def chsh_pr_vertices(mode: str = numeric.RATIONAL) -> list[DistributionFamily]:
    """The 8 extremal XOR boxes, ordered by (alpha, beta, gamma) bits."""
    return [pr_type_vertex(a, b, g, mode)
            for a, b, g in itertools.product(range(2), repeat=3)]


def random_nonsignaling_family(seed: int, weights=None,
                               mode: str = numeric.RATIONAL) -> DistributionFamily:
    """Random mixture over the 24 extremal two-site binary boxes.

    Components are the 16 local vertices of `chsh_local_vertices` followed
    by the 8 XOR boxes of `chsh_pr_vertices`. When `weights` is omitted, a
    seeded generator draws small integer weights (not all zero) that are
    then normalized; passing 24 nonnegative weights selects the mixture
    deterministically.
    """
    vertices = chsh_local_vertices(mode) + chsh_pr_vertices(mode)
    if weights is None:
        rng = random.Random(seed)
        raw = [rng.randrange(0, 10) for _ in vertices]
        if not any(raw):
            raw[rng.randrange(len(raw))] = 1
        weights = raw
    return mix_families(vertices, weights)


def random_local_assignment(scenario: Scenario, rng: random.Random) -> list[tuple[int, ...]]:
    return [tuple(rng.randrange(k) for _ in range(s))
            for s, k in zip(scenario.settings_per_site, scenario.outcomes_per_site)]


def tensor_family(left: DistributionFamily, right: DistributionFamily) -> DistributionFamily:
    """Side-by-side composition of two families on disjoint site blocks.

    The combined scenario concatenates the site lists; the table at a
    combined tuple is the outer product of the block tables, left sites
    first. Both blocks must share an arithmetic mode.
    """
    if left.mode != right.mode:
        raise InputError("blocks must share an arithmetic mode")
    scenario = Scenario(
        left.scenario.settings_per_site + right.scenario.settings_per_site,
        left.scenario.outcomes_per_site + right.scenario.outcomes_per_site,
    )
    n, m = left.scenario.n_parties, right.scenario.n_parties
    outer = np.multiply.outer(left.numerators, right.numerators)  # axes (sL, aL, sR, aR)
    stacked = outer.transpose([*range(n), *range(2 * n, 2 * n + m),
                               *range(n, 2 * n), *range(2 * n + m, 2 * (n + m))])
    return DistributionFamily.from_numerators(scenario, stacked, left.denominator * right.denominator,
                                              left.mode)


def random_scenario_family(scenario: Scenario, seed: int,
                           mode: str = numeric.RATIONAL) -> DistributionFamily:
    """Random nonsignaling family on an arbitrary scenario.

    Mixes `RANDOM_COMPONENTS` random local deterministic vertices; when the
    first two sites form a two-setting binary block, a random XOR box
    composed with a random vertex on the remaining sites joins the pool,
    so the mixture is not always locally reproducible. Weights are small
    seeded integers, normalized.
    """
    rng = random.Random(seed)
    pool: list[DistributionFamily] = []
    for _ in range(RANDOM_COMPONENTS):
        pool.append(local_deterministic_vertex(
            scenario, random_local_assignment(scenario, rng), mode))
    head = (scenario.settings_per_site[:2], scenario.outcomes_per_site[:2])
    if scenario.n_parties >= 2 and head == ((2, 2), (2, 2)):
        box = pr_type_vertex(rng.randrange(2), rng.randrange(2), rng.randrange(2), mode)
        if scenario.n_parties == 2:
            pool.append(box)
        else:
            rest = Scenario(scenario.settings_per_site[2:], scenario.outcomes_per_site[2:])
            tail = local_deterministic_vertex(rest, random_local_assignment(rest, rng), mode)
            pool.append(tensor_family(box, tail))
    weights = [rng.randrange(1, 10) for _ in pool]
    return mix_families(pool, weights)


def chsh_value(family: DistributionFamily) -> object:
    """E(1,1) + E(1,2) + E(2,1) - E(2,2) with the +-1 outcome encoding."""
    if family.scenario != CHSH_SCENARIO:
        raise InputError("CHSH combination needs the two-site, two-setting binary scenario")
    obs = [[1, -1], [1, -1]]
    e = {t: product_expectation_family(family, t, obs) for t in CHSH_SCENARIO.setting_tuples()}
    return e[(1, 1)] + e[(1, 2)] + e[(2, 1)] - e[(2, 2)]
