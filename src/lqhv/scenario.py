"""Finite multipartite correlation scenarios and their consistency checks.

A scenario has N sites; site n chooses one of S_n measurement settings and
observes one of K_n outcomes (encoded 0..K_n-1). A family holds one joint
probability table per full setting tuple (s_1,...,s_N), with s_n running
1..S_n, stacked into one tensor with axes (s_1..s_N, a_1..a_N). The
nonsignaling consistency condition requires the marginals on any
common-setting site subset to coincide across all compatible tuples, and
the check judges each subset's outcome sums by max - min over the other
sites' setting axes. Every family first takes the per-site ("drop one
site") test: for each site n, the family summed over a_n must not depend
on s_n. Every subset's sums follow from these by summing out further
sites, so one rule serves both modes: the table size times the sum of the
per-site spreads must fit under half the tolerance less a rounding
allowance, which the validated tables bound by their size, the site
count and the tolerance alone. Rational mode has tolerance and allowance
0, so a rational family passes exactly when every subset does; a float
family passes only where every spread the walk would compute is within
the tolerance. Any family that does not pass is walked over the subset
lattice depth first, which decides it and names the witness: each
subset's outcome-summed tensor is its parent's, which has one site more,
with that site's outcome axis summed, so only the chain to the current
subset is held. The walk's steps are computed once per scenario shape and
run as one flat loop.
A `MarginalFamily` is a family that passed that check:
each of its constructors runs it and raises SignalingError on failure.
Its marginal on a subset is the mean, over the other sites' settings, of
the very outcome sums the walk judges there: outcomes are only ever
summed out one axis at a time, along the walk's path.

A family is built from a {tuple: table} mapping (the file format) or,
by producers that compute all tables at once, from the tensor itself with
`DistributionFamily.from_stacked(scenario, stacked, mode, tol)` or from
its numerators with `DistributionFamily.from_numerators`; all run one
validation over the stacked tensor, which fixes the family's tolerance
`tol` (0 in rational mode) that every later comparison reads. A float
mapping whose tables are all flat lists of the table's size in plain
numbers, as a parsed float file holds them, is read in one pass; any
other is read entry by entry, so a refusal names the table and entry at
fault. The tensor
is held as numerators over one denominator (see `lqhv.numeric`); the
check, the marginal means and the cross-family comparison run on those
numerators. `extract_marginal_family` builds the `MarginalFamily` of a
family on its validated numerators, mode and tolerance.

Every integer a caller hands the library, here and in the other modules
(counts, sites, settings, outcomes, bits, seeds, denominators, budgets),
is read by one rule, `numeric.read_ints` or `numeric.read_int` for a
single value, which this module imports: any integer type, numpy's
included, never a bool, and an InputError naming the value otherwise.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from . import numeric
from .errors import InputError, SignalingError
from .numeric import Scalar, read_int, read_ints

SettingTuple = tuple[int, ...]


@dataclass(frozen=True)
class Scenario:
    """Shape of a correlation scenario: settings and outcomes per site."""

    settings_per_site: tuple[int, ...]
    outcomes_per_site: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "settings_per_site",
                           read_ints(self.settings_per_site, "settings_per_site"))
        object.__setattr__(self, "outcomes_per_site",
                           read_ints(self.outcomes_per_site, "outcomes_per_site"))
        if len(self.settings_per_site) != len(self.outcomes_per_site):
            raise InputError("settings_per_site and outcomes_per_site must have equal length")
        if self.n_parties < 1:
            raise InputError("a scenario needs at least one site")
        if any(s < 1 for s in self.settings_per_site):
            raise InputError("every site needs at least one setting")
        if any(k < 1 for k in self.outcomes_per_site):
            raise InputError("every site needs at least one outcome")

    @property
    def n_parties(self) -> int:
        return len(self.settings_per_site)

    @property
    def sites(self) -> tuple[int, ...]:
        """1-based site labels."""
        return tuple(range(1, self.n_parties + 1))

    @property
    def table_shape(self) -> tuple[int, ...]:
        return self.outcomes_per_site

    @property
    def n_tuples(self) -> int:
        return math.prod(self.settings_per_site)

    @property
    def coordinates(self) -> tuple[tuple[int, int], ...]:
        """The (site, setting) pairs, both 1-based, in joint-axis order
        (1,1)..(1,S_1)..(N,S_N): one random variable of the joint space each."""
        return tuple((n, s) for n, s_n in zip(self.sites, self.settings_per_site)
                     for s in range(1, s_n + 1))

    @property
    def joint_shape(self) -> tuple[int, ...]:
        """The outcome count of each coordinate, in `coordinates` order."""
        return tuple(self.outcomes_per_site[n - 1] for n, _ in self.coordinates)

    @property
    def joint_size(self) -> int:
        # Python ints are unbounded, so this never overflows; budget checks
        # against it happen where tensors are actually allocated.
        return math.prod(k**s for s, k in zip(self.settings_per_site, self.outcomes_per_site))

    def axis_index(self, site: int, setting: int) -> int:
        """Joint-space axis of coordinate (site, setting), both 1-based."""
        site, setting = self.validate_site(site), read_int(setting, "setting")
        if not 1 <= setting <= self.settings_per_site[site - 1]:
            raise InputError(f"setting {setting} out of range for site {site}")
        return self.coordinates.index((site, setting))

    def validate_site(self, site: int) -> int:
        """The 1-based site label `site`, read by `read_int`, if in range."""
        site = read_int(site, "site")
        if not 1 <= site <= self.n_parties:
            raise InputError(f"site {site} out of range 1..{self.n_parties}")
        return site

    def validate_setting_tuple(self, s: Iterable[int]) -> SettingTuple:
        """The tuple of 1-based settings `s`, read by `read_ints`, if each
        is in range; anything else raises InputError naming `s`."""
        st = read_ints(s, "setting tuple")
        if len(st) != self.n_parties:
            raise InputError(f"setting tuple {st} has {len(st)} entries, expected {self.n_parties}")
        for n, (v, s_max) in enumerate(zip(st, self.settings_per_site), start=1):
            if not 1 <= v <= s_max:
                raise InputError(f"setting {v} out of range 1..{s_max} at site {n}")
        return st

    def setting_tuples(self) -> list[SettingTuple]:
        """All full setting tuples in lexicographic order."""
        return list(itertools.product(*(range(1, s + 1) for s in self.settings_per_site)))

    def site_subsets(self) -> Iterator[tuple[int, ...]]:
        """Nonempty proper site subsets, smallest first, lexicographic within size."""
        for size in range(1, self.n_parties):
            yield from itertools.combinations(self.sites, size)


def interleaved_to_stacked(arr: np.ndarray) -> np.ndarray:
    """View of an array with axes (s_1, a_1, ..., s_N, a_N) in the stacked
    family layout (s_1..s_N, a_1..a_N)."""
    return arr.transpose(list(range(0, arr.ndim, 2)) + list(range(1, arr.ndim, 2)))


def validate_sites(scenario: Scenario, sites: Iterable[int]) -> tuple[int, ...]:
    out = read_ints(sites, "site subset")
    if len(out) == 0:
        raise InputError("site subset must be nonempty")
    if len(set(out)) != len(out):
        raise InputError(f"site subset {out} has repeats")
    for n in out:
        scenario.validate_site(n)
    return tuple(sorted(out))


@dataclass(frozen=True)
class Witness:
    """Certificate of a failed consistency check.

    Two full tuples `tuple_a` < `tuple_b` share the settings
    `common_settings` on `site_subset` yet their marginals there differ by
    `max_discrepancy` (the largest discrepancy found anywhere in the family).
    """

    site_subset: tuple[int, ...]
    common_settings: tuple[int, ...]
    tuple_a: SettingTuple
    tuple_b: SettingTuple
    max_discrepancy: Scalar


class DistributionFamily:
    """One joint probability table per full setting tuple.

    Tables are indexed by 1-based setting tuples and hold nonnegative
    tensors over the outcome axes (one axis per site) summing to 1. Tables
    are validated on construction and never renormalized; sums off by more
    than `tol` (any deviation in rational mode) are rejected.

    The family is held as `numerators` over `denominator`, axes
    (s_1..s_N, a_1..a_N) with 0-based settings: Python ints over one
    positive int in rational mode, the float64 tensor over 1 in float mode.
    `stacked` is the public form of that tensor (read-only Fractions in
    rational mode, built on first access) and each of `tables` is a view
    into it.
    """

    def __init__(self, scenario: Scenario, tables: Mapping[SettingTuple, object],
                 mode: str = numeric.RATIONAL, tol: float | None = None):
        mode = numeric.check_mode(mode)
        if len(tables) != scenario.n_tuples:
            problem = "missing tables" if len(tables) < scenario.n_tuples else "unexpected tuples"
            raise InputError(f"{problem}: {len(tables)} tables given for "
                             f"{scenario.n_tuples} setting tuples")
        order = scenario.setting_tuples()
        # keys such as (True, 1) or (1.0, 1) equal a setting tuple but are refused
        if tables.keys() != set(order) or set(map(type, itertools.chain(*tables))) != {int}:
            keyed = {scenario.validate_setting_tuple(k): v for k, v in tables.items()}
            if len(keyed) != len(tables):
                raise InputError("duplicate setting tuples in table map")
            tables = keyed  # n_tuples distinct valid keys: exactly the tuples of `order`
        size = math.prod(scenario.table_shape)
        rows = [tables[t] for t in order]
        # A well-formed float file, every table a flat list of `size` plain
        # numbers, is read in one pass: one type scan, one array, one
        # finiteness test. Anything else takes the path below, whose
        # messages name the table and entry at fault.
        if (mode == numeric.FLOAT and all(type(row) is list and len(row) == size for row in rows)
                and set(map(type, itertools.chain.from_iterable(rows))) <= numeric.PLAIN_NUMBERS):
            try:
                values = np.fromiter(itertools.chain.from_iterable(rows), float, size * len(rows))
                finite = np.isfinite(values).all()
            except OverflowError:  # an int past the float range, named below
                finite = False
            if finite:
                shape = scenario.settings_per_site + scenario.table_shape
                self._adopt(scenario, values.reshape(shape), 1, mode, tol)
                return
        # All entries are read at once, in tuple order, before any table's
        # size is checked, so a bad entry is reported ahead of a bad size.
        # Only on failure is each table read alone, as given, to name the one
        # at fault and the index path of a ragged entry within it.
        parts = [numeric.flat_entries(row)[0] for row in rows]
        try:
            numerators, denominator = numeric.numerators(list(itertools.chain.from_iterable(parts)),
                                                         mode)
        except InputError:
            for t in order:
                try:
                    numeric.numerators(tables[t], mode)
                except InputError as exc:
                    raise InputError(f"table {t}: {exc}") from exc
            raise
        for t, part in zip(order, parts):
            if len(part) != size:
                raise InputError(f"table {t}: expected {scenario.table_shape} = {size} entries, "
                                 f"got {len(part)}")
        self._adopt(scenario, numerators.reshape(scenario.settings_per_site + scenario.table_shape),
                    denominator, mode, tol)

    @classmethod
    def from_stacked(cls, scenario: Scenario, stacked, mode: str = numeric.RATIONAL,
                     tol: float | None = None) -> "DistributionFamily":
        """Family from all tables at once, axes (s_1..s_N, a_1..a_N); the
        array is copied into the mode's type and validated like a mapping."""
        mode = numeric.check_mode(mode)
        numerators, denominator = numeric.numerators(
            stacked, mode, shape=scenario.settings_per_site + scenario.table_shape)
        return cls.from_numerators(scenario, numerators, denominator, mode, tol)

    @classmethod
    def from_numerators(cls, scenario: Scenario, numerators: np.ndarray, denominator: int,
                        mode: str = numeric.RATIONAL,
                        tol: float | None = None) -> "DistributionFamily":
        """Family from its stacked numerators over one positive denominator,
        held by `numeric.held_numerators` and validated like a mapping."""
        mode = numeric.check_mode(mode)
        family = cls.__new__(cls)
        family._adopt(scenario, numerators.reshape(scenario.settings_per_site + scenario.table_shape),
                      denominator, mode, tol)
        return family

    def _adopt(self, scenario: Scenario, numerators: np.ndarray, denominator: int, mode: str,
               tol: float | None) -> None:
        numerators, denominator = numeric.held_numerators(numerators, denominator, mode)
        tol = numeric.tolerance(mode, tol)
        rows = numerators.reshape(scenario.n_tuples, -1)
        low, sums = rows.min(axis=1), rows.sum(axis=1)
        bad = (low < -tol) | ~numeric.is_close(sums, denominator, tol)
        if bad.any():
            i, order = int(np.argmax(bad)), scenario.setting_tuples()
            if low[i] < -tol:
                raise InputError(f"negative probability in table {order[i]}: "
                                 f"min entry {numeric.ratio(low[i], denominator, mode)}")
            raise InputError(f"table {order[i]} sums to {numeric.ratio(sums[i], denominator, mode)}, "
                             "not 1 (tables are never renormalized)")
        numerators.setflags(write=False)
        self._take(scenario, numerators, denominator, mode, tol)

    def _take(self, scenario: Scenario, numerators: np.ndarray, denominator: int, mode: str,
              tol: float) -> None:
        """Hold validated tables: read-only numerators, a resolved tolerance."""
        self.scenario, self.numerators, self.denominator = scenario, numerators, denominator
        self.mode, self.tol = mode, tol

    @cached_property
    def stacked(self) -> np.ndarray:
        return numeric.ratio_array(self.numerators, self.denominator)

    @cached_property
    def tables(self) -> dict[SettingTuple, np.ndarray]:
        return dict(zip(self.scenario.setting_tuples(),
                        self.stacked.reshape((-1,) + self.scenario.table_shape)))

    def table(self, setting_tuple: Iterable[int]) -> np.ndarray:
        t = self.scenario.validate_setting_tuple(setting_tuple)
        return self.tables[t]


def convert_family(family: DistributionFamily, mode: str,
                   tol: float | None = None) -> DistributionFamily:
    """Re-type a family's tables into the requested arithmetic mode.

    Float values become their shortest decimal literal when promoted to
    rationals, so a file holding 0.45 converts to 9/20 rather than the
    exact binary expansion; every other conversion holds the numerators.
    Decimals the tables refuse, say a table that no longer sums to
    exactly 1, raise InputError with its message prefixed by that cause.
    """
    mode = numeric.check_mode(mode)
    if mode == family.mode and tol is None:
        return family
    if family.mode == numeric.FLOAT and mode == numeric.RATIONAL:
        try:
            return DistributionFamily.from_stacked(family.scenario, family.numerators, mode, tol=tol)
        except InputError as exc:
            raise InputError(f"float entries read as their shortest decimals: {exc}") from exc
    return DistributionFamily.from_numerators(family.scenario, family.numerators, family.denominator,
                                              mode, tol)


@functools.lru_cache(maxsize=None)
def _slices(axis: int, k: int) -> tuple[tuple, ...]:
    """Indices of the `k` slices along `axis`, every earlier axis whole."""
    return tuple((slice(None),) * axis + (j,) for j in range(k))


def _drop_outcome(tensor: np.ndarray, n: int, pos: int) -> np.ndarray:
    """`tensor` with its `pos`-th outcome axis (after N setting axes) summed out, slice by slice."""
    # adding the axis' slices beats numpy's reduction over a short axis
    return functools.reduce(np.add, [tensor[i] for i in _slices(n + pos, tensor.shape[n + pos])])


class _Step(NamedTuple):
    """One subset of the walk. Its sums add the `slices` of the sums held
    at `depth` (the family at depth 0), and `order` puts the other sites'
    setting axes ahead of the subset's cells: its settings, then its
    outcomes."""

    depth: int
    slices: tuple[tuple, ...]
    sites: tuple[int, ...]
    order: tuple[int, ...]


@functools.lru_cache(maxsize=64)
def _walk_steps(scenario: Scenario) -> tuple[_Step, ...]:
    """The walk over every nonempty proper site subset, depth first.

    A subset is reached once, by dropping its complement's outcome axes in
    increasing site order, so the steps run in lexicographic order of the
    dropped sites, and a step's parent is the latest step one site up.
    """
    n, outcomes = scenario.n_parties, scenario.outcomes_per_site
    steps = []
    for dropped in sorted(itertools.chain.from_iterable(
            itertools.combinations(scenario.sites, size) for size in range(1, n))):
        # every site dropped before the last is smaller, so this is its outcome axis
        axis = n + dropped[-1] - len(dropped)
        sites = tuple(m for m in scenario.sites if m not in dropped)
        steps.append(_Step(
            len(dropped) - 1, _slices(axis, outcomes[dropped[-1] - 1]), sites,
            tuple(m - 1 for m in dropped + sites) + tuple(range(n, n + len(sites)))))
    return tuple(steps)


def _subset_sums(numerators: np.ndarray, n: int, sites: tuple[int, ...]) -> np.ndarray:
    """The walk's sums for increasing `sites`, bit for bit: its own path to them."""
    for i, site in enumerate(m for m in range(1, n + 1) if m not in sites):
        numerators = _drop_outcome(numerators, n, site - 1 - i)
    return numerators


def _check_by_walk(family: DistributionFamily) -> Witness | None:
    """`check_nonsignaling` by the depth-first walk: one subset at a time."""
    # the sums along the current path, the family first; only that path is held
    chain, worst, best = [family.numerators], family.tol, None
    for depth, slices, sites, order in _walk_steps(family.scenario):
        del chain[depth + 1:]
        sums = functools.reduce(np.add, [chain[depth][i] for i in slices])
        chain.append(sums)
        # one row per other sites' settings, so each reduction takes whole rows
        view = sums.transpose(order)
        cells = view.shape[-2 * len(sites):]
        rows = view.reshape(-1, math.prod(cells))
        spread = np.maximum.reduce(rows) - np.minimum.reduce(rows)
        top = np.maximum.reduce(spread)
        # a tie goes to the subset first in `site_subsets` order
        if top > worst or (best is not None and top == worst
                           and (len(sites), sites) < (len(best[0]), best[0])):
            worst = top
            best = sites, sums, np.unravel_index(int(np.argmax(spread)), cells)
    return None if best is None else _witness(family, *best, worst)


def _passes_per_site(family: DistributionFamily) -> bool:
    """Whether the per-site ("drop one site") test proves the family
    nonsignaling: for each site m, the family summed over a_m must not
    depend on s_m. It passes only when

        L sum_m e_m <= tol / 2 - 2 (L N + 1) g A',  A' = (1 + (2 L + 1) tol) / (1 - g),

    with L the table size, e_m site m's spread (the largest max - min over
    s_m of the sums over a_m), u = 2^-53, and g = 2 L u in float mode, 0 in
    rational mode. A rational family has tol = 0 and g = 0, so it passes
    when every per-site spread of its integer numerators is exactly 0; every
    subset's sums come from these by summing out further sites, so that is
    exactly when it passes the walk. In float mode the bound proves that
    every spread the walk would compute is at most tol:
    - no table's sum of |x| exceeds A': validation held every entry at
      -tol or above, so the sum of |x| is at most the exact table sum plus
      2 L tol, and it held the table's float sum within tol of 1, where that
      float sum is off the exact one by at most g times the sum of |x|
      (next step), so (1 - g) sum |x| <= 1 + (2 L + 1) tol;
    - every walk sum adds entries of one table, each through at most L - 1
      additions, so it is off its exact sum by at most g A' (Higham,
      Accuracy and Stability of Numerical Algorithms, ch. 4; g bounds
      gamma_{L-1} for any L below 2^52), and the walk's rounded difference
      of two such sums is at most tol whenever the exact one is, since
      rounding is monotone and tol is a float;
    - a subset's exact spread is at most L sum_m E_m, with E_m the exact
      per-site spread: two tuples of one group are joined by moving one
      other site's setting at a time, and a move at site m changes a
      subset sum, which adds at most L of site m's per-site sums, by at
      most L E_m;
    - the per-site sums are the walk's first sums, so E_m <= e_m (1 + 2u)
      + 2 g A', and the factor 2 on tol covers (1 + 2u) and the rounding of
      the bound's own arithmetic and of validation's, a relative error far
      below 1/2.
    The test stops at the first site where L times the spreads so far
    exceeds the room the right-hand side leaves.
    """
    numerators, n, tol, spread = family.numerators, family.scenario.n_parties, family.tol, 0
    size = math.prod(family.scenario.table_shape)
    gamma = 2 * size * 2.0**-53 * (family.mode == numeric.FLOAT)
    room = tol / 2 - 2 * (size * n + 1) * gamma * (1 + (2 * size + 1) * tol) / (1 - gamma)
    for site in range(n):
        sums = _drop_outcome(numerators, n, site)
        # np.max: a one-site rational family reduces to a Python int
        spread += np.max(sums.max(axis=site) - sums.min(axis=site))
        if size * spread > room:
            return False
    return True


def _witness(family: DistributionFamily, sites: tuple[int, ...], sums: np.ndarray,
             peak: tuple, worst) -> Witness:
    """The witness at cell `peak` (T's settings, then outcomes) of the
    subset `sites`, whose outcome sums are `sums`: the group's argmax and
    argmin tuples at that cell, in lexicographic order."""
    scenario = family.scenario
    group = tuple(peak[sites.index(m)] if m in sites else slice(None) for m in scenario.sites)
    column = sums[group + peak[len(sites):]].reshape(-1)
    others = [s for m, s in zip(scenario.sites, scenario.settings_per_site) if m not in sites]

    def member(g) -> SettingTuple:
        """The group's g-th tuple, row-major over the other sites' settings."""
        free = iter(np.unravel_index(g, others))
        return tuple(int(peak[sites.index(m)] if m in sites else next(free)) + 1
                     for m in scenario.sites)

    a, b = map(member, sorted((np.argmax(column), np.argmin(column))))
    return Witness(sites, tuple(int(s) + 1 for s in peak[:len(sites)]), a, b,
                   numeric.ratio(worst, family.denominator, family.mode))


def check_nonsignaling(family: DistributionFamily) -> Witness | None:
    """Test the consistency condition; None means pass.

    For every nonempty proper site subset and every pair of full setting
    tuples agreeing there, the subset marginals of the two tables must
    coincide (entrywise within `family.tol`; exactly in rational mode), so
    each group of compatible tuples is judged by its entrywise max - min.

    A family that passes the per-site test (`_passes_per_site`: for each
    site n, the family summed over a_n must not depend on s_n, by one rule
    whose rounding allowance, read off the validated tables' size and
    tolerance, is 0 in rational mode, where the comparison is exact)
    passes.
    Any other family is walked depth first over the subset lattice, each
    subset's outcome sums from its parent with one site more, so only the
    chain to the current subset is held; the walk decides it and names the
    witness. The witness is the first subset in `site_subsets` order whose
    spread reaches the largest, at its first such cell (the subset's
    settings, then its outcomes, row-major); its tuples are the argmax and
    argmin of the walk's sums over that cell's group, in lexicographic
    order. Rational families are judged on their integer numerators
    against their tolerance 0. Float sums run in lattice order, so where
    subsets or tuples tie within rounding the witness may name others than
    a per-subset reduction would; its discrepancy is equally maximal.
    Vacuously true for single-site scenarios or a single setting tuple.
    """
    return None if _passes_per_site(family) else _check_by_walk(family)


class MarginalFamily(DistributionFamily):
    """A family that passed the consistency check, read as its common
    sub-tuple marginals.

    Every constructor of `DistributionFamily` builds one, and each runs
    `check_nonsignaling` after the table validation and raises
    SignalingError on a signaling family, so no inconsistent
    `MarginalFamily` exists. A marginal is the mean of the walk's sums
    over all compatible full tuples (`_subset_sums`, the walk's own path
    to the subset, even where the per-site test passed the family without
    a walk), which the passed check makes equal to each of them (exactly
    in rational mode).
    """

    def _take(self, scenario: Scenario, numerators: np.ndarray, denominator: int, mode: str,
              tol: float) -> None:
        super()._take(scenario, numerators, denominator, mode, tol)
        witness = check_nonsignaling(self)
        if witness is not None:
            raise SignalingError(witness)
        self._public: dict[tuple[int, ...], np.ndarray] = {}

    def marginal_numerators(self, sites: tuple[int, ...]) -> tuple[np.ndarray, int]:
        """Averaged marginals on increasing `sites` as (numerators,
        denominator), a row per setting assignment (row-major).

        The group sum of G compatible tuples is divided by G exactly in
        rational mode: the passed check makes every entry a multiple of G.
        """
        sites = read_ints(sites, "site subset")
        if validate_sites(self.scenario, sites) != sites:
            raise InputError(f"site subset {sites} is not increasing")
        other = tuple(m - 1 for m in self.scenario.sites if m not in sites)
        total = _subset_sums(self.numerators, self.scenario.n_parties, sites).sum(axis=other)
        total = total.reshape(math.prod(total.shape[:len(sites)]), -1)
        count = math.prod(self.scenario.settings_per_site[m] for m in other)
        if self.mode == numeric.FLOAT:
            return total / count, 1
        return total // count, self.denominator

    def stacked_marginal(self, sites: tuple[int, ...]) -> np.ndarray:
        """Averaged marginals on increasing `sites`, a row per setting
        assignment (row-major); read-only, cached per subset."""
        sites = read_ints(sites, "site subset")
        if sites not in self._public:
            out = numeric.ratio_array(*self.marginal_numerators(sites))
            out.setflags(write=False)
            self._public[sites] = out
        return self._public[sites]

    def get(self, sites: Iterable[int], settings: Iterable[int]) -> np.ndarray:
        sites, settings = read_ints(sites, "site subset"), read_ints(settings, "settings")
        marginals = self.stacked_marginal(sites)
        bounds = [self.scenario.settings_per_site[n - 1] for n in sites]
        if len(settings) != len(sites) or not all(1 <= s <= b for s, b in zip(settings, bounds)):
            raise InputError(f"no marginal stored for sites {sites} at settings {settings}")
        row = np.ravel_multi_index([s - 1 for s in settings], bounds)
        return marginals[row].reshape([self.scenario.outcomes_per_site[n - 1] for n in sites])


def extract_marginal_family(family: DistributionFamily) -> MarginalFamily:
    """Collect the common marginals; raises SignalingError if inconsistent.
    The family's tables are already validated, so only the check runs."""
    marginals = MarginalFamily.__new__(MarginalFamily)
    marginals._take(family.scenario, family.numerators, family.denominator, family.mode, family.tol)
    return marginals


@dataclass(frozen=True)
class EprReport:
    """Outcome of the cross-family sub-tuple marginal comparison."""

    passed: bool
    max_discrepancy: Scalar
    site_subset: tuple[int, ...] | None = None
    settings: tuple[int, ...] | None = None


def compare_scenarios_epr(family_a: DistributionFamily, family_b: DistributionFamily) -> EprReport:
    """Check that two families share all their sub-tuple marginals.

    Both families must have the same shape and pass the consistency check,
    each within its own tolerance; the comparison, within `family_a.tol`,
    runs on numerators over the two families' denominators, over every
    proper site subset and setting assignment.
    """
    if family_a.scenario != family_b.scenario:
        raise InputError("families describe different scenario shapes")
    if family_a.mode != family_b.mode:
        raise InputError("families use different arithmetic modes")
    scenario = family_a.scenario
    marg_a = extract_marginal_family(family_a)
    marg_b = extract_marginal_family(family_b)
    den_a, den_b = family_a.denominator, family_b.denominator
    # from a zero of the numerators' type, so a float family reports a float
    top, key = family_a.numerators.dtype.type(0), None
    for sites in scenario.site_subsets():
        a, b = marg_a.marginal_numerators(sites)[0], marg_b.marginal_numerators(sites)[0]
        diff = abs(a * den_b - b * den_a).max(axis=1)
        i = int(np.argmax(diff))
        if diff[i] > top:
            settings = np.unravel_index(i, [scenario.settings_per_site[n - 1] for n in sites])
            top, key = diff[i], (sites, tuple(int(s) + 1 for s in settings))
    worst = numeric.ratio(top, den_a * den_b, family_a.mode)
    if worst > family_a.tol:
        return EprReport(False, worst, *key)
    return EprReport(True, worst)
