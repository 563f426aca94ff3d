"""Canonical correlation families and randomized nonsignaling generators.

The two-site, two-setting, binary-outcome scenario carries the standard
test corpus: the 16 local deterministic vertices, the 8 extremal boxes
with perfect setting-dependent (anti)correlation, their mixtures, and the
isotropic line between the maximally nonlocal box and white noise. A
one-setting signaling counterexample and generic-scenario mixture
generators round out the inputs the rest of the package is exercised on.

Every generator works on integer vertex tensors in the stacked layout,
each over its denominator: a point mass for an assignment (over 1), the
XOR table (over 2) and their block products. Their entries are 0 or 1,
held as int8, so the components of a large scenario's mixture stay
small. One mixing routine sums such (tensor, denominator) pairs, and the
family a generator returns is the only one it validates, through one
`DistributionFamily.from_numerators` call; nothing is parsed. The 24
extremal CHSH boxes are one cached read-only int8 stack, so a random
CHSH mixture builds no family per vertex. Outcomes, bits and seeds are
read by `numeric.read_ints`, so a float, a bool or text is refused.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Sequence

import numpy as np

from . import numeric
from .construct import product_expectation_family
from .errors import InputError
from .scenario import DistributionFamily, Scenario, read_int, read_ints

CHSH_SCENARIO = Scenario((2, 2), (2, 2))
# Local deterministic vertices mixed by `random_scenario_family`
RANDOM_COMPONENTS = 6


def uniform_family(scenario: Scenario, mode: str = numeric.RATIONAL) -> DistributionFamily:
    """White noise: every table uniform over the joint outcomes."""
    size = math.prod(scenario.outcomes_per_site)
    shape = scenario.settings_per_site + scenario.table_shape
    return DistributionFamily.from_numerators(scenario, np.ones(shape, dtype=int), size, mode)


def _point_mass(scenario: Scenario, assignment: Sequence[Sequence[int]]) -> np.ndarray:
    """Stacked 0/1 int8 tensor, over denominator 1, of the point-mass product
    family in which site n reports `assignment[n-1][s-1]` under setting s."""
    if not hasattr(assignment, "__len__") or len(assignment) != scenario.n_parties:
        raise InputError(f"assignment {assignment!r} must cover {scenario.n_parties} sites")
    points = []
    for n, (site, s, k) in enumerate(zip(assignment, scenario.settings_per_site,
                                         scenario.outcomes_per_site), start=1):
        outcomes = read_ints(site, f"site {n} assignment")
        if len(outcomes) != s:
            raise InputError(f"site {n} assignment must cover {s} settings")
        for a in outcomes:
            if not 0 <= a < k:
                raise InputError(f"outcome {a} out of range for site {n}")
        points.append(np.array(outcomes))
    grids = np.ix_(*map(np.arange, scenario.settings_per_site))
    out = np.zeros(scenario.settings_per_site + scenario.outcomes_per_site, dtype=np.int8)
    out[(*grids, *(point[g] for point, g in zip(points, grids)))] = 1
    return out


def _xor_table(alpha: int, beta: int, gamma: int) -> np.ndarray:
    """Stacked 0/1 int8 tensor, over denominator 2, of the box with
    a XOR b = xy + ax + by + g (mod 2), x = s1 - 1 and y = s2 - 1."""
    alpha, beta, gamma = read_ints((alpha, beta, gamma), "alpha, beta, gamma")
    if not {alpha, beta, gamma} <= {0, 1}:
        raise InputError("alpha, beta, gamma must be bits")
    x, y, a, b = np.indices((2, 2, 2, 2))
    target = (x * y + alpha * x + beta * y + gamma) % 2
    return ((a + b) % 2 == target).astype(np.int8)


def _block_product(left: np.ndarray, right: np.ndarray, n: int, m: int) -> np.ndarray:
    """Stacked tensor of the outer product of an n-site and an m-site
    stacked tensor, left sites first; the denominators multiply."""
    outer = np.multiply.outer(left, right)  # axes (sL, aL, sR, aR)
    return outer.transpose([*range(n), *range(2 * n, 2 * n + m),
                            *range(n, 2 * n), *range(2 * n + m, 2 * (n + m))])


def _mix(scenario: Scenario, tensors: Sequence[np.ndarray], denominators: Sequence[int],
         weights, mode: str) -> DistributionFamily:
    """Convex mixture of the stacked tensors `tensors[i]` over
    `denominators[i]`, with the weights read in `mode` and normalized.

    The weights are read by one `numeric.numerators` call; anything but a
    flat list of numbers raises InputError naming them. Float mode
    divides each weight by the weights' float total and adds
    weight_i * (tensors[i] / denominators[i]) in component order, from 0,
    one component's quotients at a time.
    Rational mode reads the weights as integers over one denominator,
    which normalizing cancels: divided by their gcd g, they are the
    normalized weights over their least common denominator, total / g.
    """
    mode = numeric.check_mode(mode)
    try:
        w = numeric.numerators(weights, mode)[0]
    except InputError as exc:
        raise InputError(f"weights {weights!r}: {exc}") from exc
    if w.ndim != 1:
        raise InputError(f"weights {weights!r} must be a flat list of numbers")
    w = w.tolist()
    if any(v < 0 for v in w):
        raise InputError("weights must be nonnegative")
    total = sum(w)
    if total == math.inf:  # finite float weights can still overflow their sum
        raise InputError(f"weights sum to {total}, past the float range")
    if total == 0:
        raise InputError("weights must not all be zero")
    if len(w) != len(tensors):
        raise InputError(f"need {len(tensors)} weights, got {len(w)}")
    if mode == numeric.FLOAT:
        acc = sum(v / total * (t / d) for v, t, d in zip(w, tensors, denominators))
        return DistributionFamily.from_numerators(scenario, acc, 1, mode)
    common, den = math.gcd(*w), math.lcm(*denominators)
    coefficients = np.array([v // common * (den // d) for v, d in zip(w, denominators)],
                            dtype=object)
    return DistributionFamily.from_numerators(scenario, np.tensordot(coefficients, tensors, 1),
                                              den * (total // common), mode)


def local_deterministic_vertex(scenario: Scenario, assignment: Sequence[Sequence[int]],
                               mode: str = numeric.RATIONAL) -> DistributionFamily:
    """Point-mass product family from per-(site, setting) fixed outcomes.

    `assignment[n-1][s-1]` is the outcome site n reports under setting s;
    each table is the product of the corresponding indicator vectors.
    """
    return DistributionFamily.from_numerators(scenario, _point_mass(scenario, assignment), 1, mode)


def pr_type_vertex(alpha: int, beta: int, gamma: int,
                   mode: str = numeric.RATIONAL) -> DistributionFamily:
    """Extremal nonsignaling box with a XOR b = xy + ax + by + g (mod 2).

    Settings map to x = s1 - 1 and y = s2 - 1; the half weight sits on
    the outcome pairs satisfying the XOR relation.
    """
    return DistributionFamily.from_numerators(CHSH_SCENARIO, _xor_table(alpha, beta, gamma), 2,
                                              mode)


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
    return _mix(scenario, [f.numerators for f in families], [f.denominator for f in families],
                weights, mode)


def isotropic_box(p, mode: str = numeric.RATIONAL) -> DistributionFamily:
    """p times the maximally nonlocal box plus (1-p) white noise."""
    weight = numeric.coerce_scalar(p, mode)
    if not 0 <= weight <= 1:
        raise InputError(f"mixing weight must lie in [0, 1], got {p}")
    box = _xor_table(0, 0, 0)
    noise = np.ones_like(box)  # over the 4 joint outcomes
    return _mix(CHSH_SCENARIO, [box, noise], (2, 4), [weight, 1 - weight], mode)


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


# Assignments (a1, a2), (b1, b2) of the 16 local CHSH vertices and bits
# (alpha, beta, gamma) of the 8 XOR boxes, each in binary order
_CHSH_LOCAL = [((a1, a2), (b1, b2)) for a1, a2, b1, b2 in itertools.product(range(2), repeat=4)]
_CHSH_XOR = list(itertools.product(range(2), repeat=3))
_CHSH_DENOMINATORS = (1,) * len(_CHSH_LOCAL) + (2,) * len(_CHSH_XOR)


def chsh_local_vertices(mode: str = numeric.RATIONAL) -> list[DistributionFamily]:
    """All 16 local deterministic vertices of the two-site binary scenario.

    Ordered by the assignment bits (a1, a2, b1, b2) read as a binary
    number, a1 most significant: index 0 answers 0 everywhere, index 15
    answers 1 everywhere.
    """
    return [local_deterministic_vertex(CHSH_SCENARIO, a, mode) for a in _CHSH_LOCAL]


def chsh_pr_vertices(mode: str = numeric.RATIONAL) -> list[DistributionFamily]:
    """The 8 extremal XOR boxes, ordered by (alpha, beta, gamma) bits."""
    return [pr_type_vertex(*bits, mode) for bits in _CHSH_XOR]


@functools.cache
def _chsh_vertex_stack() -> np.ndarray:
    """Read-only int8 stack of the 24 extremal CHSH boxes, in the order of
    `chsh_local_vertices` then `chsh_pr_vertices`, over `_CHSH_DENOMINATORS`."""
    stack = np.stack([_point_mass(CHSH_SCENARIO, a) for a in _CHSH_LOCAL]
                     + [_xor_table(*bits) for bits in _CHSH_XOR])
    stack.setflags(write=False)
    return stack


def random_nonsignaling_family(seed: int, weights=None,
                               mode: str = numeric.RATIONAL) -> DistributionFamily:
    """Random mixture over the 24 extremal two-site binary boxes.

    Components are the 16 local vertices of `chsh_local_vertices` followed
    by the 8 XOR boxes of `chsh_pr_vertices`. When `weights` is omitted, a
    seeded generator draws small integer weights (not all zero) that are
    then normalized; passing 24 nonnegative weights selects the mixture
    deterministically.
    """
    vertices = _chsh_vertex_stack()
    if weights is None:
        rng = random.Random(read_int(seed, "seed"))
        raw = [rng.randrange(0, 10) for _ in vertices]
        if not any(raw):
            raw[rng.randrange(len(raw))] = 1
        weights = raw
    return _mix(CHSH_SCENARIO, vertices, _CHSH_DENOMINATORS, weights, mode)


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
    stacked = _block_product(left.numerators, right.numerators,
                             left.scenario.n_parties, right.scenario.n_parties)
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
    rng = random.Random(read_int(seed, "seed"))
    parts = [_point_mass(scenario, random_local_assignment(scenario, rng))
             for _ in range(RANDOM_COMPONENTS)]
    denominators = [1] * RANDOM_COMPONENTS
    head = (scenario.settings_per_site[:2], scenario.outcomes_per_site[:2])
    if scenario.n_parties >= 2 and head == ((2, 2), (2, 2)):
        box = _xor_table(rng.randrange(2), rng.randrange(2), rng.randrange(2))
        if scenario.n_parties > 2:
            rest = Scenario(scenario.settings_per_site[2:], scenario.outcomes_per_site[2:])
            tail = _point_mass(rest, random_local_assignment(rest, rng))
            box = _block_product(box, tail, 2, rest.n_parties)
        parts.append(box)
        denominators.append(2)
    weights = [rng.randrange(1, 10) for _ in parts]
    return _mix(scenario, parts, denominators, weights, mode)


def chsh_value(family: DistributionFamily) -> object:
    """E(1,1) + E(1,2) + E(2,1) - E(2,2) with the +-1 outcome encoding."""
    if family.scenario != CHSH_SCENARIO:
        raise InputError("CHSH combination needs the two-site, two-setting binary scenario")
    obs = [[1, -1], [1, -1]]
    e = {t: product_expectation_family(family, t, obs) for t in CHSH_SCENARIO.setting_tuples()}
    return e[(1, 1)] + e[(1, 2)] + e[(2, 1)] - e[(2, 2)]
