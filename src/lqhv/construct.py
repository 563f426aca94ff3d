"""Deterministic LqHV measures: construction, diagnostics, conversions.

The target object is a normalized bounded real-valued (possibly signed)
measure on the joint space Lambda_1^{S_1} x ... x Lambda_N^{S_N}, one axis
per (site, setting) coordinate, whose marginal onto the coordinates
{(n, s_n)}_n reproduces the joint table of every setting tuple. The
construction, an inclusion-exclusion sum over site subsets weighted by an
integer subset coefficient (whose defining identity is exposed for direct
integer verification), is multilinear and site-local: the builder applies
one linear map per site to the family's stacked tensor, and verification
gets every full-tuple marginal at once from per-site 0/1 projections. In
rational mode both run on integer numerators over one denominator, so no
`Fraction` is formed until a result is read. Every comparison against a
family is made within the family's own tolerance `family.tol`.

Also here: the Jordan split of a signed measure into positive and negative
parts, conversion of a stochastic one-measure-space model into the
deterministic coordinate form, and product expectations evaluated on
either side of the representation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

from . import numeric
from .errors import AtomBudgetError, InputError, RepresentationError
from .numeric import Scalar
from .scenario import (
    DistributionFamily,
    MarginalFamily,
    Scenario,
    extract_marginal_family,
    interleaved_to_stacked,
)

DEFAULT_ATOM_BUDGET = 10_000_000


class SignedMeasure:
    """Normalized real-valued measure on the joint coordinate space.

    Atoms form a tensor over the axes (1,1)..(1,S_1)..(N,1)..(N,S_N); the
    total mass must be 1 within `tol` (exactly in rational mode) and every
    atom finite. The tensor is held as `numerators` over `denominator`
    (Python ints over a positive int in rational mode, the floats over 1
    in float mode); `atoms` is its public form, read-only Fractions in
    rational mode, built on first access.
    """

    def __init__(self, scenario: Scenario, atoms, mode: str = numeric.RATIONAL,
                 tol: float | None = None):
        mode = numeric.check_mode(mode)
        self._adopt(scenario, *numeric.numerators(atoms, mode, shape=scenario.joint_shape), mode, tol)

    @classmethod
    def from_numerators(cls, scenario: Scenario, numerators: np.ndarray, denominator: int,
                        mode: str = numeric.RATIONAL,
                        tol: float | None = None) -> "SignedMeasure":
        """Measure from its atom numerators over one denominator, with the
        mass checked as for atoms. The array is taken over, not copied."""
        measure = cls.__new__(cls)
        measure._adopt(scenario, numerators.reshape(scenario.joint_shape), denominator,
                       numeric.check_mode(mode), tol)
        return measure

    def _adopt(self, scenario: Scenario, numerators: np.ndarray, denominator: int, mode: str,
               tol: float | None) -> None:
        self.scenario = scenario
        self.mode = mode
        self.tol = numeric.tolerance(mode, tol)
        numerators.setflags(write=False)
        self.numerators = numerators
        self.denominator = denominator
        total = numerators.sum()
        if not numeric.is_close(total, denominator, self.tol):
            raise InputError(f"measure mass is {numeric.ratio(total, denominator, mode)}, not 1")

    @cached_property
    def atoms(self) -> np.ndarray:
        return numeric.ratio_array(self.numerators, self.denominator)

    @property
    def total_mass(self) -> Scalar:
        return numeric.ratio(self.numerators.sum(), self.denominator, self.mode)

    @property
    def min_atom(self) -> Scalar:
        return numeric.ratio(self.numerators.min(), self.denominator, self.mode)

    def marginal(self, setting_tuple: Iterable[int]) -> np.ndarray:
        """Sum out all coordinates except {(n, s_n)}_n; axes in site order."""
        t = self.scenario.validate_setting_tuple(setting_tuple)
        keep = {self.scenario.axis_index(n, s) for n, s in enumerate(t, start=1)}
        drop = tuple(ax for ax in range(len(self.scenario.joint_shape)) if ax not in keep)
        return self.atoms.sum(axis=drop) if drop else self.atoms


@dataclass(frozen=True)
class JordanPair:
    """Positive/negative parts of a signed measure, disjoint supports.

    The parts are held as numerators over the measure's denominator;
    `positive_part` and `negative_part` are their public forms, built on
    first access.
    """

    positive_numerators: np.ndarray
    negative_numerators: np.ndarray
    denominator: int
    total_variation: Scalar

    @cached_property
    def positive_part(self) -> np.ndarray:
        return numeric.ratio_array(self.positive_numerators, self.denominator)

    @cached_property
    def negative_part(self) -> np.ndarray:
        return numeric.ratio_array(self.negative_numerators, self.denominator)


def jordan_decompose(measure: SignedMeasure) -> JordanPair:
    """Atomwise Jordan split; total variation is the combined mass."""
    pos = np.maximum(measure.numerators, 0)
    neg = np.maximum(-measure.numerators, 0)
    pos.setflags(write=False)
    neg.setflags(write=False)
    total = numeric.ratio(pos.sum() + neg.sum(), measure.denominator, measure.mode)
    return JordanPair(pos, neg, measure.denominator, total)


@dataclass(frozen=True)
class DeterministicLqHVModel:
    """A signed measure together with its coordinate random variables.

    The variable attached to (site, setting) is the projection of a joint
    point onto that coordinate axis, so it depends only on its own site
    and setting; the measure of an intersection of variable preimages then
    reproduces the scenario probabilities.
    """

    measure: SignedMeasure

    @property
    def scenario(self) -> Scenario:
        return self.measure.scenario

    def variable_axis(self, site: int, setting: int) -> int:
        return self.scenario.axis_index(site, setting)

    def evaluate_variable(self, site: int, setting: int, point: Sequence[int]) -> int:
        """Value of the (site, setting) variable at a joint-space point."""
        if len(point) != len(self.scenario.joint_shape):
            raise InputError("point length does not match the joint space rank")
        return int(point[self.variable_axis(site, setting)])


def coefficient(scenario: Scenario, sites: Iterable[int]) -> int:
    """Integer weight of the site subset in the inclusion-exclusion sum.

    The full set gets 1; removing a site multiplies by -(S_n - 1). For two
    and three parties the sum collapses to the familiar closed forms after
    absorbing the size <= 1 subsets into the constant term.
    """
    subset = frozenset(int(n) for n in sites)
    for n in subset:
        scenario.validate_site(n)
    c = 1
    for n in scenario.sites:
        if n not in subset:
            c *= -(scenario.settings_per_site[n - 1] - 1)
    return c


def coefficient_table(scenario: Scenario) -> dict[tuple[int, ...], int]:
    """Coefficients for every site subset (the empty one included)."""
    out: dict[tuple[int, ...], int] = {}
    for size in range(scenario.n_parties + 1):
        for subset in itertools.combinations(scenario.sites, size):
            out[subset] = coefficient(scenario, subset)
    return out


def coefficient_identity_sum(settings_per_site: Sequence[int], kept_sites: Iterable[int]) -> int:
    """Integer check that the coefficients reproduce kept-site marginals.

    Summing, over all supersets T of the kept set U, the coefficient of T
    times prod_{n in T\\U} (S_n - 1) counts how marginalization collapses
    the construction onto U. The sum must be 0 for every proper U and 1
    for the full set; this is exactly marginal correctness at the
    coefficient level.
    """
    settings = tuple(int(s) for s in settings_per_site)
    n_parties = len(settings)
    scenario = Scenario(settings, (1,) * n_parties)
    kept = frozenset(int(n) for n in kept_sites)
    rest = [n for n in scenario.sites if n not in kept]
    total = 0
    for size in range(len(rest) + 1):
        for extra in itertools.combinations(rest, size):
            subset = kept | set(extra)
            weight = 1
            for n in extra:
                weight *= settings[n - 1] - 1
            total += coefficient(scenario, subset) * weight
    return total


def _apply_site_map(atoms: np.ndarray, axis: int, p: np.ndarray, keep, shrink) -> np.ndarray:
    """Apply M_n to a site's setting (axis 0) and outcome (`axis`) axes and
    append its coordinate axes, last to first, with `prod` holding
    `keep` p_n^s (x) ... (x) p_n^{S_n - 1}: no temporary exceeds the output.

    `keep` multiplies the coordinate terms and `shrink` the B_n 1^T term.
    On integer numerators p over d these are S_n d and S_n - 1, and the
    result is over the atoms' denominator times S_n d^{S_n}; on floats
    they are 1 and (S_n - 1)/S_n.
    """
    last = p.shape[0] - 1
    lifted = np.moveaxis(atoms, axis, -1)  # (setting, rest..., outcome)
    total = np.expand_dims(atoms.sum(axis=(0, axis)), -1)
    prod = keep * p[last]
    out = lifted[last] * keep - shrink * total * p[last]
    for s in range(last - 1, -1, -1):
        block = tuple(range(-prod.ndim, 0))
        out = np.expand_dims(out, -prod.ndim - 1) * np.expand_dims(p[s], block)
        out += np.expand_dims(lifted[s], block) * prod
        prod = np.multiply.outer(p[s], prod)
    return out


def build_deterministic_measure(family: DistributionFamily,
                                marginals: MarginalFamily | None = None,
                                *, budget: int = DEFAULT_ATOM_BUDGET) -> DeterministicLqHVModel:
    """Construct the deterministic LqHV measure of a nonsignaling family.

    The measure is mu = (M_1 (x) ... (x) M_N) F on the stacked family F, with
    M_n^s = A_n^s - ((S_n - 1)/S_n) B_n 1^T: A_n^s places the outcome at (n, s)
    and the averaged single-site marginal p_n^{s'} at each other (n, s'), and
    B_n = (x)_{s'} p_n^{s'}. Expanding the product, each site subset T gets
    `coefficient(T)` = prod_{n not in T} -(S_n - 1) times the average of its
    compatible tuples' T-marginals, equal after a passed check (exactly in rational mode).
    In rational mode the maps run on integer numerators: F over D and p_n
    over d_n give the measure over D prod_n S_n d_n^{S_n}, known before any
    atom is allocated.

    Parameters
    ----------
    family:
        The joint tables; must satisfy the nonsignaling consistency
        condition within `family.tol` (verified here via the marginal
        extraction when `marginals` is not supplied).
    marginals:
        Optionally the output of `extract_marginal_family(family)`; pass
        it to avoid re-running the consistency check.
    budget:
        Refuse joint spaces with more atoms than this instead of
        allocating them.

    Returns
    -------
    DeterministicLqHVModel
        Measure plus coordinate variables whose full-tuple marginals
        reproduce every input table; mass exactly 1 in rational mode.
    """
    scenario = family.scenario
    if scenario.joint_size > budget:
        raise AtomBudgetError(
            f"joint space holds {scenario.joint_size} atoms, over the budget {budget}")
    if marginals is None:
        marginals = extract_marginal_family(family)
    elif marginals.scenario != scenario or marginals.mode != family.mode:
        raise InputError("marginal family does not match the distribution family")

    exact = family.mode == numeric.RATIONAL
    maps = []
    denominator = marginals.denominator
    for site in scenario.sites:
        p, d = marginals.marginal_numerators((site,))
        count = p.shape[0]
        keep, shrink = (count * d, count - 1) if exact else (1, (count - 1) / count)
        denominator *= keep * d ** (count - 1)
        maps.append((p, keep, shrink))
    atoms = marginals.numerators
    for site, (p, keep, shrink) in enumerate(maps, start=1):
        atoms = _apply_site_map(atoms, scenario.n_parties - site + 1, p, keep, shrink)
    measure = SignedMeasure.from_numerators(scenario, atoms, denominator, family.mode, tol=1e-12)
    return DeterministicLqHVModel(measure)


def _tuple_marginals(atoms: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Every full-tuple marginal of an atom tensor, laid out like a stacked family."""
    out = atoms
    for s in scenario.settings_per_site:
        rows = [out.sum(axis=tuple(t for t in range(s) if t != j)) for j in range(s)]
        out = np.moveaxis(np.stack(rows), [0, 1], [-2, -1])
    return interleaved_to_stacked(out)


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
    error = numeric.max_abs(reproduced * family.denominator
                            - family.numerators * measure.denominator)
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
    """

    def __init__(self, nu, conditionals: Sequence[Sequence[object]],
                 mode: str = numeric.RATIONAL):
        self.mode = numeric.check_mode(mode)
        self.tol = numeric.tolerance(self.mode)
        self.nu = numeric.as_array(nu, self.mode)
        if self.nu.ndim != 1 or self.nu.size == 0:
            raise InputError("nu must be a nonempty vector")
        if not numeric.is_close(self.nu.sum(), 1, self.tol):
            raise InputError(f"nu sums to {self.nu.sum()}, not 1")
        rows: list[list[np.ndarray]] = []
        for n, site_conds in enumerate(conditionals, start=1):
            site_rows: list[np.ndarray] = []
            for s, matrix in enumerate(site_conds, start=1):
                arr = numeric.as_array(matrix, self.mode)
                if arr.ndim != 2 or arr.shape[0] != self.omega_size:
                    raise InputError(
                        f"conditional for site {n}, setting {s} must be (|Omega|, K) shaped")
                if arr.min() < -self.tol:
                    raise InputError(f"negative conditional probability at site {n}, setting {s}")
                for row in arr:
                    if not numeric.is_close(row.sum(), 1, self.tol):
                        raise InputError(
                            f"conditional row sums to {row.sum()} at site {n}, setting {s}")
                site_rows.append(arr)
            if not site_rows:
                raise InputError(f"site {n} has no conditionals")
            if len({m.shape[1] for m in site_rows}) != 1:
                raise InputError(f"site {n} conditionals disagree on the outcome count")
            rows.append(site_rows)
        if not rows:
            raise InputError("model needs at least one site")
        self.conditionals = rows

    @property
    def omega_size(self) -> int:
        return self.nu.shape[0]

    def inferred_scenario(self) -> Scenario:
        return Scenario(
            tuple(len(site) for site in self.conditionals),
            tuple(site[0].shape[1] for site in self.conditionals),
        )

    def joint_table(self, setting_tuple: Iterable[int]) -> np.ndarray:
        """Joint outcome tensor of one tuple, integrated over the hidden space."""
        t = self.inferred_scenario().validate_setting_tuple(setting_tuple)
        shape = tuple(site[0].shape[1] for site in self.conditionals)
        out = numeric.zeros(shape, self.mode)
        for omega in range(self.omega_size):
            rows = [self.conditionals[n - 1][s - 1][omega] for n, s in enumerate(t, start=1)]
            out = out + self.nu[omega] * reduce(np.multiply.outer, rows)
        return out


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
    if scenario.joint_size > DEFAULT_ATOM_BUDGET:
        raise AtomBudgetError(f"joint space holds {scenario.joint_size} atoms, "
                              f"over the budget {DEFAULT_ATOM_BUDGET}")
    atoms = numeric.zeros(scenario.joint_shape, model.mode)
    coords = [(n, s) for n in scenario.sites
              for s in range(1, scenario.settings_per_site[n - 1] + 1)]
    for omega in range(model.omega_size):
        rows = [model.conditionals[n - 1][s - 1][omega] for n, s in coords]
        atoms = atoms + model.nu[omega] * reduce(np.multiply.outer, rows)
    measure = SignedMeasure(scenario, atoms, model.mode, tol=1e-12)
    return DeterministicLqHVModel(measure)


def _coerce_observables(observables: Sequence[Sequence], scenario: Scenario,
                        mode: str) -> list[np.ndarray]:
    if not isinstance(observables, (list, tuple)):
        raise InputError(f"observables must be a list of per-site value lists, "
                         f"got {observables!r}")
    if len(observables) != scenario.n_parties:
        raise InputError(f"expected {scenario.n_parties} observable vectors")
    out = []
    for n, (phi, k) in enumerate(zip(observables, scenario.outcomes_per_site), start=1):
        vec = numeric.as_array(phi, mode)
        if vec.shape != (k,):
            raise InputError(f"observable for site {n} must have {k} values, got shape {vec.shape}")
        out.append(vec)
    return out


def product_expectation_family(family: DistributionFamily, setting_tuple: Iterable[int],
                               observables: Sequence[Sequence]) -> Scalar:
    """Expectation of prod_n phi_n(lambda_n) under one joint table."""
    table = family.table(setting_tuple)
    phis = _coerce_observables(observables, family.scenario, family.mode)
    acc = table
    n_sites = family.scenario.n_parties
    for axis, phi in enumerate(phis):
        shape = [1] * n_sites
        shape[axis] = phi.shape[0]
        acc = acc * phi.reshape(shape)
    return acc.sum()


def product_expectation_model(model: DeterministicLqHVModel, setting_tuple: Iterable[int],
                              observables: Sequence[Sequence]) -> Scalar:
    """Same product expectation, evaluated over the measure's atoms.

    Each observable is composed with its coordinate variable, so the sum
    runs over the joint space with phi_n read off axis (n, s_n); on the
    generating family this agrees with the table-side expectation.
    """
    scenario = model.scenario
    t = scenario.validate_setting_tuple(setting_tuple)
    phis = _coerce_observables(observables, scenario, model.measure.mode)
    rank = len(scenario.joint_shape)
    acc = model.measure.atoms
    for n, (s, phi) in enumerate(zip(t, phis), start=1):
        shape = [1] * rank
        shape[scenario.axis_index(n, s)] = phi.shape[0]
        acc = acc * phi.reshape(shape)
    return acc.sum()
