"""Deterministic LqHV measures: construction, diagnostics, conversions.

The target object is a normalized bounded real-valued (possibly signed)
measure on the joint space Lambda_1^{S_1} x ... x Lambda_N^{S_N}, one axis
per (site, setting) coordinate, whose marginal onto the coordinates
{(n, s_n)}_n reproduces the joint table of every setting tuple. The
construction, an inclusion-exclusion sum over site subsets weighted by an
integer subset coefficient (whose defining identity is exposed for direct
integer verification), is multilinear and site-local: the builder applies
one linear map per site to the family's stacked tensor, and verification
gets every full-tuple marginal at once from per-site 0/1 projections,
whose transpose builds and prices the LHV constraint matrix in `lqhv.lp`.
Every comparison against a family is made within the family's own
tolerance `family.tol`, and a computed measure's mass within
`numeric.mass_tolerance` of its source's. Each site map allocates its
output once and fills it block by block, so a build holds one output
array (beside its input) plus one block of temporaries.

Also here: the Jordan split of a signed measure into positive and negative
parts, whose total variation is summed leaf by leaf through one small
buffer beside the measure, conversion of a stochastic one-measure-space
model into the deterministic coordinate form, and product expectations
evaluated on either side of the representation. All of it runs on integer numerators
over one denominator in rational mode (floats over 1 in float mode), so
no `Fraction` is formed until a result is read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

from . import numeric
from .errors import AtomBudgetError, InputError, RepresentationError
from .numeric import _BLOCK, Scalar
from .scenario import (
    DistributionFamily,
    MarginalFamily,
    Scenario,
    extract_marginal_family,
    interleaved_to_stacked,
    read_int,
    read_ints,
)

DEFAULT_ATOM_BUDGET = 10_000_000


def _check_atom_budget(scenario: Scenario, budget: int) -> int:
    """The budget read by `read_int`; a joint space of more atoms than it
    is refused before any is allocated."""
    budget = read_int(budget, "budget")
    if scenario.joint_size > budget:
        raise AtomBudgetError(
            f"joint space holds {scenario.joint_size} atoms, over the budget {budget}")
    return budget


class SignedMeasure:
    """Normalized real-valued measure on the joint coordinate space.

    Atoms form a tensor over the axes (1,1)..(1,S_1)..(N,1)..(N,S_N); the
    total mass must be 1 within `tol`, the mode's default tolerance unless
    `from_numerators` is given one (exactly in rational mode), and every
    atom finite. The tensor is held as `numerators` over `denominator`
    (Python ints over a positive int in rational mode, the floats over 1
    in float mode); `atoms` is its public form, read-only Fractions in
    rational mode, built on first access.
    """

    def __init__(self, scenario: Scenario, atoms, mode: str = numeric.RATIONAL):
        mode = numeric.check_mode(mode)
        self._adopt(scenario, *numeric.numerators(atoms, mode, shape=scenario.joint_shape), mode,
                    None)

    @classmethod
    def from_numerators(cls, scenario: Scenario, numerators: np.ndarray, denominator: int,
                        mode: str = numeric.RATIONAL,
                        tol: float | None = None) -> "SignedMeasure":
        """Measure from its atom numerators over one positive denominator, held
        by `numeric.held_numerators`, with the mass checked as for atoms."""
        measure = cls.__new__(cls)
        measure._adopt(scenario, numerators.reshape(scenario.joint_shape), denominator,
                       numeric.check_mode(mode), tol)
        return measure

    def _adopt(self, scenario: Scenario, numerators: np.ndarray, denominator: int, mode: str,
               tol: float | None) -> None:
        numerators, denominator = numeric.held_numerators(numerators, denominator, mode)
        self.scenario = scenario
        self.mode = mode
        self.tol = numeric.tolerance(mode, tol)
        numerators.setflags(write=False)
        self.numerators = numerators
        self.denominator = denominator
        self._mass = numerators.sum()
        if not numeric.is_close(self._mass, denominator, self.tol):
            raise InputError(f"measure mass is {self.total_mass}, not 1")

    @cached_property
    def atoms(self) -> np.ndarray:
        return numeric.ratio_array(self.numerators, self.denominator)

    @property
    def total_mass(self) -> Scalar:
        return numeric.ratio(self._mass, self.denominator, self.mode)

    @property
    def min_atom(self) -> Scalar:
        return numeric.ratio(self.numerators.min(), self.denominator, self.mode)

    def marginal(self, setting_tuple: Iterable[int]) -> np.ndarray:
        """Sum out all coordinates except {(n, s_n)}_n; axes in site order."""
        t = self.scenario.validate_setting_tuple(setting_tuple)
        keep = {self.scenario.axis_index(n, s) for n, s in enumerate(t, start=1)}
        drop = tuple(ax for ax in range(len(self.scenario.joint_shape)) if ax not in keep)
        return numeric.ratio_array(self.numerators.sum(axis=drop), self.denominator)


@dataclass(frozen=True)
class JordanPair:
    """Positive/negative parts of a signed measure, disjoint supports.

    The pair holds the measure's own numerators (not a copy), their
    denominator and the total variation, computed at construction.
    `positive_numerators` and `negative_numerators`, the parts as
    numerators over that denominator, are built on first access, and
    `positive_part` and `negative_part`, their public forms, from them.
    """

    numerators: np.ndarray
    denominator: int
    total_variation: Scalar

    @cached_property
    def positive_numerators(self) -> np.ndarray:
        return _read_only(np.maximum(self.numerators, 0))

    @cached_property
    def negative_numerators(self) -> np.ndarray:
        return _read_only(np.maximum(-self.numerators, 0))

    @cached_property
    def positive_part(self) -> np.ndarray:
        return numeric.ratio_array(self.positive_numerators, self.denominator)

    @cached_property
    def negative_part(self) -> np.ndarray:
        return numeric.ratio_array(self.negative_numerators, self.denominator)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _part_sums(x: np.ndarray, buf: np.ndarray) -> tuple:
    """Sums of max(x, 0) and max(-x, 0) over the 1-D `x`, each leaf
    computed in `buf`. Longer runs are halved where numpy's pairwise sum
    halves them, so float sums keep the bits of `np.maximum(x, 0).sum()`."""
    n = x.shape[0]
    if n > buf.shape[0]:
        half = n // 2 - n // 2 % 8
        (p1, n1), (p2, n2) = _part_sums(x[:half], buf), _part_sums(x[half:], buf)
        return p1 + p2, n1 + n2
    leaf = buf[:n]
    positive = np.maximum(x, 0, out=leaf).sum()
    np.negative(x, out=leaf)
    return positive, np.maximum(leaf, 0, out=leaf).sum()


def jordan_decompose(measure: SignedMeasure) -> JordanPair:
    """Atomwise Jordan split; total variation is the combined mass.

    The call holds the measure plus one leaf buffer of at most
    `numeric._BLOCK` atoms, through which both parts are summed; the parts
    themselves are built only when read from the pair."""
    x = measure.numerators.reshape(-1)
    # a leaf of numpy's pairwise block of 128 is summed as numpy sums it,
    # and `_part_sums` only halves runs longer than that
    leaf = min(x.size, max(_BLOCK, 128))
    positive, negative = _part_sums(x, np.empty(leaf, dtype=x.dtype))
    total = numeric.ratio(positive + negative, measure.denominator, measure.mode)
    return JordanPair(measure.numerators, measure.denominator, total)


@dataclass(frozen=True)
class DeterministicLqHVModel:
    """A signed measure together with its coordinate random variables.

    The variable attached to (site, setting) is the projection of a joint
    point onto its axis `scenario.axis_index(site, setting)`, so it
    depends only on its own site and setting; the measure of an
    intersection of variable preimages then reproduces the scenario
    probabilities.
    """

    measure: SignedMeasure

    @property
    def scenario(self) -> Scenario:
        return self.measure.scenario


def coefficient(scenario: Scenario, sites: Iterable[int]) -> int:
    """Integer weight of the site subset in the inclusion-exclusion sum.

    The full set gets 1; removing a site multiplies by -(S_n - 1). For two
    and three parties the sum collapses to the familiar closed forms after
    absorbing the size <= 1 subsets into the constant term.
    """
    subset = {scenario.validate_site(n) for n in read_ints(sites, "site subset")}
    return math.prod(-(s - 1) for n, s in zip(scenario.sites, scenario.settings_per_site)
                     if n not in subset)


def coefficient_table(scenario: Scenario) -> dict[tuple[int, ...], int]:
    """Coefficients for every site subset (the empty one included)."""
    return {subset: coefficient(scenario, subset)
            for subset in ((), *scenario.site_subsets(), scenario.sites)}


def coefficient_identity_sum(settings_per_site: Sequence[int], kept_sites: Iterable[int]) -> int:
    """Integer check that the coefficients reproduce kept-site marginals.

    Summing, over all supersets T of the kept set U, the coefficient of T
    times prod_{n in T\\U} (S_n - 1) counts how marginalization collapses
    the construction onto U. The sum must be 0 for every proper U and 1
    for the full set; this is exactly marginal correctness at the
    coefficient level.
    """
    settings = read_ints(settings_per_site, "settings_per_site")
    scenario = Scenario(settings, (1,) * len(settings))
    kept = frozenset(read_ints(kept_sites, "kept sites"))
    rest = [n for n in scenario.sites if n not in kept]
    return sum(coefficient(scenario, kept.union(extra))
               * math.prod(settings[n - 1] - 1 for n in extra)
               for size in range(len(rest) + 1) for extra in itertools.combinations(rest, size))


def _apply_site_map(atoms: np.ndarray, axis: int, p: np.ndarray, keep, shrink) -> np.ndarray:
    """Apply M_n to a site's setting (axis 0) and outcome (`axis`) axes and
    append its coordinate axes, last to first, setting s's coordinate term
    multiplied by `keep` p_n^{s+1} (x) ... (x) p_n^{S_n - 1}, built once in
    `prods`.

    The output is allocated once and filled in blocks of whole rows of
    the other axes, at most `numeric._BLOCK` entries unless one row is
    longer (a block is at least one whole row, whatever its length), so
    the call holds its input and output plus one block of temporaries.
    Each entry gets the same operations in the same order whatever the
    blocking, and the B_n 1^T term's outcome sums are taken once over the
    whole input.

    `keep` multiplies the coordinate terms and `shrink` the B_n 1^T term.
    On integer numerators p over d these are S_n d and S_n - 1, and the
    result is over the atoms' denominator times S_n d^{S_n}; on floats
    they are 1 and (S_n - 1)/S_n.
    """
    count, k = p.shape
    before, after = atoms.shape[1:axis], atoms.shape[axis + 1:]
    width = k ** count
    # rows are (a, b) pairs, a over the axes before the outcome and b after
    rows_a, rows_b = math.prod(before), math.prod(after)
    step = max(1, _BLOCK // width)
    step_b = min(step, rows_b)
    step_a = max(1, step // rows_b)
    prods = [keep * p[-1]]
    for s in range(count - 2, 0, -1):
        prods.append(np.multiply.outer(p[s], prods[-1]))
    grid = atoms.reshape(count, rows_a, k, rows_b)
    # one site sums to a scalar, kept in the atoms' dtype (no int64 overflow)
    totals = np.asarray(atoms.sum(axis=(0, axis)), atoms.dtype).reshape(rows_a, rows_b, 1)
    result = np.empty(before + after + (k,) * count, dtype=atoms.dtype)
    rows = result.reshape(rows_a, rows_b, width)
    for a in range(0, rows_a, step_a):
        for b in range(0, rows_b, step_b):
            ra, rb = slice(a, a + step_a), slice(b, b + step_b)
            lifted = np.moveaxis(grid[:, ra, :, rb], 2, -1)  # (setting, a, b, outcome)
            out = lifted[-1] * keep - shrink * totals[ra, rb] * p[-1]
            for s, prod in zip(range(count - 2, -1, -1), prods):
                block = tuple(range(-prod.ndim, 0))
                out = np.expand_dims(out, -prod.ndim - 1) * np.expand_dims(p[s], block)
                out += np.expand_dims(lifted[s], block) * prod
            rows[ra, rb] = out.reshape(out.shape[:2] + (width,))
    return result


def build_deterministic_measure(family: DistributionFamily, *,
                                budget: int = DEFAULT_ATOM_BUDGET) -> DeterministicLqHVModel:
    """Construct the deterministic LqHV measure of a nonsignaling family.

    The measure is mu = (M_1 (x) ... (x) M_N) F on the stacked family F, with
    M_n^s = A_n^s - ((S_n - 1)/S_n) B_n 1^T: A_n^s places the outcome at (n, s)
    and the averaged single-site marginal p_n^{s'} at each other (n, s'), and
    B_n = (x)_{s'} p_n^{s'}. Expanding the product, each site subset T gets
    `coefficient(T)` = prod_{n not in T} -(S_n - 1) times the average of its
    compatible tuples' T-marginals, equal after a passed check (exactly in rational mode).
    In rational mode the maps run on integer numerators: F over D and p_n
    over d_n give the measure over D prod_n S_n d_n^{S_n}, accumulated
    site by site.

    Parameters
    ----------
    family:
        The joint tables. A `MarginalFamily` has passed the nonsignaling
        consistency check and is built from as it is; any other family
        goes through `extract_marginal_family` first, which runs the check
        within `family.tol` and raises SignalingError on failure. Mode,
        tolerance and numerators all come from that one family.
    budget:
        Refuse joint spaces with more atoms than this instead of
        allocating them. It is read by `numeric.read_int`, so a bool, a
        float or text raises InputError.

    Returns
    -------
    DeterministicLqHVModel
        Measure plus coordinate variables whose full-tuple marginals
        reproduce every input table; mass exactly 1 in rational mode.
    """
    scenario = family.scenario
    _check_atom_budget(scenario, budget)
    if not isinstance(family, MarginalFamily):
        family = extract_marginal_family(family)

    exact = family.mode == numeric.RATIONAL
    atoms, denominator = family.numerators, family.denominator
    for site in scenario.sites:
        p, d = family.marginal_numerators((site,))
        count = p.shape[0]
        keep, shrink = (count * d, count - 1) if exact else (1, (count - 1) / count)
        denominator *= keep * d ** (count - 1)
        atoms = _apply_site_map(atoms, scenario.n_parties - site + 1, p, keep, shrink)
    measure = SignedMeasure.from_numerators(scenario, atoms, denominator, family.mode,
                                            tol=numeric.mass_tolerance(family.tol))
    return DeterministicLqHVModel(measure)


def _tuple_marginals(atoms: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Every full-tuple marginal of an atom tensor, laid out like a stacked family."""
    out = atoms
    for s in scenario.settings_per_site:
        rows = [out.sum(axis=tuple(t for t in range(s) if t != j)) for j in range(s)]
        out = np.moveaxis(np.stack(rows), [0, 1], [-2, -1])
    return interleaved_to_stacked(out)


def _tuple_marginals_adjoint(values: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Transpose of `_tuple_marginals`: the atom tensor whose entry at a
    joint point sums `values` at every setting tuple t and the point's
    outcomes on t's coordinates.

    `values` is laid out like a stacked family, axes (s_1..s_N, a_1..a_N),
    and any trailing axes it has lead in the result. Site by site, each
    setting's (outcome) slice is broadcast along its own coordinate axis
    and the S_n slices are added; nothing is multiplied.
    """
    n = scenario.n_parties
    lead = values.ndim - 2 * n
    out = values.transpose([*range(2 * n, values.ndim),
                            *(ax for m in range(n) for ax in (m, n + m))])
    for s in scenario.settings_per_site:
        # axes (trailing..., setting, later sites..., coordinates so far..., outcome)
        moved = np.moveaxis(out, lead + 1, -1)
        rest, k = moved.shape[:lead] + moved.shape[lead + 1:-1], moved.shape[-1]
        out = reduce(np.add, [moved[(slice(None),) * lead + (j,)]
                              .reshape(rest + (1,) * j + (k,) + (1,) * (s - 1 - j))
                              for j in range(s)])
    return out


@dataclass(frozen=True)
class VerificationReport:
    """Worst-case reproduction error of a measure against a family."""

    max_error: Scalar
    min_reproduced: Scalar


def verify_marginals(model: DeterministicLqHVModel | SignedMeasure,
                     family: DistributionFamily) -> VerificationReport:
    """Compare every full-tuple marginal of the measure with its table.

    Returns the largest absolute entrywise error over all tuples and
    raises RepresentationError if any reproduced entry drops below the
    nonnegativity floor -family.tol (0 in rational mode). In rational
    mode the marginals R over the measure's denominator Q are compared
    with the family F over D exactly, as R D against F Q.
    """
    measure = model.measure if isinstance(model, DeterministicLqHVModel) else model
    if measure.scenario != family.scenario:
        raise InputError("measure and family describe different scenario shapes")
    if measure.mode != family.mode:
        raise InputError("measure and family use different arithmetic modes")
    mode = family.mode
    reproduced = _tuple_marginals(measure.numerators, measure.scenario)
    error = abs(reproduced * family.denominator - family.numerators * measure.denominator).max()
    max_err = numeric.ratio(error, family.denominator * measure.denominator, mode)
    min_repro = numeric.ratio(reproduced.min(), measure.denominator, mode)
    if min_repro < -family.tol:
        raise RepresentationError(
            f"reproduced probability {min_repro} below the nonnegativity floor {-family.tol}")
    return VerificationReport(max_err, min_repro)


def induced_family(measure: SignedMeasure) -> DistributionFamily:
    """Read the joint tables off a measure's full-tuple marginals.

    Marginals of a single measure are automatically consistent, so the
    result always passes the nonsignaling check; if some marginal entry is
    negative the measure represents no probability family and a
    RepresentationError is raised. The family gets the default tolerance.
    """
    try:
        return DistributionFamily.from_numerators(
            measure.scenario, _tuple_marginals(measure.numerators, measure.scenario),
            measure.denominator, measure.mode)
    except InputError as exc:
        raise RepresentationError(f"measure does not induce a probability family: {exc}") from exc


class StochasticLqHVModel:
    """One-measure-space model with conditional outcome distributions.

    A signed weight vector nu over a finite hidden space (summing to 1)
    plus, for each (site, setting), a row-stochastic matrix mapping hidden
    points to outcome distributions. The conditionals must be genuine
    probabilities; only nu may go negative. Sums and floors are judged
    within the default tolerance (LQHV_TOL, else 1e-9; 0 in rational mode).

    nu is held as `nu_numerators` over `nu_denominator`, and each matrix
    as a (numerators, denominator) pair in `conditional_numerators[n-1][s-1]`;
    `nu` and `conditionals` are their public forms, built on first access.
    """

    def __init__(self, nu, conditionals: Sequence[Sequence[object]],
                 mode: str = numeric.RATIONAL):
        self.mode = numeric.check_mode(mode)
        self.tol = numeric.tolerance(self.mode)
        self.nu_numerators, self.nu_denominator = numeric.numerators(nu, self.mode)
        self.nu_numerators.setflags(write=False)
        if self.nu_numerators.ndim != 1 or self.nu_numerators.size == 0:
            raise InputError("nu must be a nonempty vector")
        total = self.nu_numerators.sum()
        if not numeric.is_close(total, self.nu_denominator, self.tol):
            raise InputError(f"nu sums to {numeric.ratio(total, self.nu_denominator, mode)}, not 1")
        rows = []
        for n, site_conds in enumerate(numeric.read_list(conditionals, "conditionals"), start=1):
            site_rows = []
            for s, matrix in enumerate(numeric.read_list(site_conds, f"site {n} conditionals"),
                                       start=1):
                arr, den = numeric.numerators(matrix, self.mode)
                arr.setflags(write=False)
                if arr.ndim != 2 or arr.shape[0] != self.omega_size or arr.size == 0:
                    raise InputError(
                        f"conditional for site {n}, setting {s} must be (|Omega|, K) shaped")
                if arr.min() < -self.tol:
                    raise InputError(f"negative conditional probability at site {n}, setting {s}")
                for row in arr.sum(axis=1):
                    if not numeric.is_close(row, den, self.tol):
                        raise InputError(f"conditional row sums to {numeric.ratio(row, den, mode)} "
                                         f"at site {n}, setting {s}")
                site_rows.append((arr, den))
            if not site_rows:
                raise InputError(f"site {n} has no conditionals")
            if len({arr.shape[1] for arr, _ in site_rows}) != 1:
                raise InputError(f"site {n} conditionals disagree on the outcome count")
            rows.append(site_rows)
        if not rows:
            raise InputError("model needs at least one site")
        self.conditional_numerators = rows

    @cached_property
    def nu(self) -> np.ndarray:
        return numeric.ratio_array(self.nu_numerators, self.nu_denominator)

    @cached_property
    def conditionals(self) -> list[list[np.ndarray]]:
        return [[numeric.ratio_array(*pair) for pair in site] for site in self.conditional_numerators]

    @property
    def omega_size(self) -> int:
        return self.nu_numerators.shape[0]

    def inferred_scenario(self) -> Scenario:
        return Scenario(
            tuple(len(site) for site in self.conditional_numerators),
            tuple(site[0][0].shape[1] for site in self.conditional_numerators),
        )

    def _integrate(self, coordinates: Iterable[tuple[int, int]]) -> tuple[np.ndarray, int]:
        """sum_omega nu(omega) prod_c q_c(omega) over the (site, setting)
        `coordinates` c, one axis per coordinate, as numerators over one
        denominator; the hidden points are added in order."""
        pairs = [self.conditional_numerators[n - 1][s - 1] for n, s in coordinates]
        out = sum(weight * reduce(np.multiply.outer, [arr[omega] for arr, _ in pairs])
                  for omega, weight in enumerate(self.nu_numerators))
        return out, self.nu_denominator * math.prod(den for _, den in pairs)

    def joint_table(self, setting_tuple: Iterable[int]) -> np.ndarray:
        """Joint outcome tensor of one tuple, integrated over the hidden space."""
        t = self.inferred_scenario().validate_setting_tuple(setting_tuple)
        return numeric.ratio_array(*self._integrate(enumerate(t, start=1)))


def determinize(model: StochasticLqHVModel, scenario: Scenario) -> DeterministicLqHVModel:
    """Convert a stochastic model into the deterministic coordinate form.

    The hidden space is traded for the joint coordinate space: each atom
    collects, over the hidden points, nu times the product of conditional
    probabilities of every (site, setting) coordinate. Joint tables of the
    result match the stochastic model's tables tuple by tuple. Joint
    spaces over `DEFAULT_ATOM_BUDGET` atoms are refused before any is
    allocated.
    """
    inferred = model.inferred_scenario()
    if inferred != scenario:
        raise InputError(
            f"conditionals cover {inferred.settings_per_site} settings / "
            f"{inferred.outcomes_per_site} outcomes, scenario wants "
            f"{scenario.settings_per_site} / {scenario.outcomes_per_site}")
    _check_atom_budget(scenario, DEFAULT_ATOM_BUDGET)
    atoms, denominator = model._integrate(scenario.coordinates)
    measure = SignedMeasure.from_numerators(scenario, atoms, denominator, model.mode,
                                            tol=numeric.mass_tolerance(model.tol))
    return DeterministicLqHVModel(measure)


def _coerce_observables(observables: Sequence[Sequence], scenario: Scenario,
                        mode: str) -> tuple[list[np.ndarray], int]:
    """Per-site observable vectors as numerators, over the product of
    their denominators."""
    if not isinstance(observables, (list, tuple)):
        raise InputError(f"observables must be a list of per-site value lists, "
                         f"got {observables!r}")
    if len(observables) != scenario.n_parties:
        raise InputError(f"expected {scenario.n_parties} observable vectors")
    out, denominator = [], 1
    for n, (phi, k) in enumerate(zip(observables, scenario.outcomes_per_site), start=1):
        vec, den = numeric.numerators(phi, mode)
        if vec.shape != (k,):
            raise InputError(f"observable for site {n} must have {k} values, got shape {vec.shape}")
        out.append(vec)
        denominator *= den
    return out, denominator


def _product_sum(numerators: np.ndarray, axes: Iterable[int], phis: list[np.ndarray]):
    """sum of `numerators` times phi_n read off axis n of `axes`, the
    products taken site by site. A float sum that leaves the float range
    raises InputError."""
    acc = numerators
    with np.errstate(over="ignore", invalid="ignore"):
        for axis, phi in zip(axes, phis):
            shape = [1] * numerators.ndim
            shape[axis] = phi.shape[0]
            acc = acc * phi.reshape(shape)
        total = acc.sum()
    if isinstance(total, float) and not math.isfinite(total):
        raise InputError("the product expectation leaves the float range")
    return total


def product_expectation_family(family: DistributionFamily, setting_tuple: Iterable[int],
                               observables: Sequence[Sequence]) -> Scalar:
    """Expectation of prod_n phi_n(lambda_n) under one joint table."""
    t = family.scenario.validate_setting_tuple(setting_tuple)
    phis, den = _coerce_observables(observables, family.scenario, family.mode)
    total = _product_sum(family.numerators[tuple(s - 1 for s in t)], range(len(t)), phis)
    return numeric.ratio(total, family.denominator * den, family.mode)


def product_expectation_model(model: DeterministicLqHVModel, setting_tuple: Iterable[int],
                              observables: Sequence[Sequence]) -> Scalar:
    """Same product expectation, evaluated over the measure's atoms.

    Each observable is composed with its coordinate variable, so the sum
    runs over the joint space with phi_n read off axis (n, s_n); on the
    generating family this agrees with the table-side expectation.
    """
    measure = model.measure
    t = measure.scenario.validate_setting_tuple(setting_tuple)
    phis, den = _coerce_observables(observables, measure.scenario, measure.mode)
    axes = [measure.scenario.axis_index(n, s) for n, s in enumerate(t, start=1)]
    return numeric.ratio(_product_sum(measure.numerators, axes, phis),
                         measure.denominator * den, measure.mode)
