"""Finite multipartite correlation scenarios and their consistency checks.

A scenario has N sites; site n chooses one of S_n measurement settings and
observes one of K_n outcomes (encoded 0..K_n-1). A family holds one joint
probability table per full setting tuple (s_1,...,s_N), with s_n running
1..S_n, stacked into one tensor with axes (s_1..s_N, a_1..a_N). The
nonsignaling consistency condition requires the marginals on any
common-setting site subset to coincide across all compatible tuples. The
check walks the subset lattice depth first: each subset's outcome-summed
tensor is its parent's, which has one site more, with that site's
outcome axis summed, and the check takes max - min over the other sites'
setting axes. Marginal extraction reduces the tensor once per subset,
with the other sites' settings flattened into a group axis.

A family is built from a {tuple: table} mapping (the file format) or,
by producers that compute all tables at once, from the tensor itself with
`DistributionFamily.from_stacked(scenario, stacked, mode, tol)` or from
its numerators with `DistributionFamily.from_numerators`; all run one
validation over the stacked tensor, which fixes the family's tolerance
`tol` (0 in rational mode) that every later comparison reads. The tensor
is held as numerators over one denominator (see `lqhv.numeric`), and the
check and the marginal means run on those numerators.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import numeric
from .errors import InputError, SignalingError
from .numeric import Scalar

SettingTuple = tuple[int, ...]


@dataclass(frozen=True)
class Scenario:
    """Shape of a correlation scenario: settings and outcomes per site."""

    settings_per_site: tuple[int, ...]
    outcomes_per_site: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "settings_per_site", tuple(int(s) for s in self.settings_per_site))
        object.__setattr__(self, "outcomes_per_site", tuple(int(k) for k in self.outcomes_per_site))
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
    def joint_shape(self) -> tuple[int, ...]:
        """One axis per (site, setting) pair, ordered (1,1)..(1,S_1)..(N,S_N)."""
        shape: list[int] = []
        for s, k in zip(self.settings_per_site, self.outcomes_per_site):
            shape.extend([k] * s)
        return tuple(shape)

    @property
    def joint_size(self) -> int:
        # Python ints are unbounded, so this never overflows; budget checks
        # against it happen where tensors are actually allocated.
        n = 1
        for s, k in zip(self.settings_per_site, self.outcomes_per_site):
            n *= k**s
        return n

    def axis_index(self, site: int, setting: int) -> int:
        """Joint-space axis of coordinate (site, setting), both 1-based."""
        self.validate_site(site)
        if not 1 <= setting <= self.settings_per_site[site - 1]:
            raise InputError(f"setting {setting} out of range for site {site}")
        return sum(self.settings_per_site[: site - 1]) + setting - 1

    def validate_site(self, site: int) -> None:
        if not 1 <= site <= self.n_parties:
            raise InputError(f"site {site} out of range 1..{self.n_parties}")

    def validate_setting_tuple(self, s: Iterable[int]) -> SettingTuple:
        """The tuple of 1-based settings `s`, each entry an integer (not a
        bool) in range; anything else raises InputError naming `s`."""
        try:
            items = tuple(s)
            if any(isinstance(v, (bool, np.bool_)) for v in items):
                raise TypeError("a bool is not a setting")
            st = tuple(map(operator.index, items))
        except TypeError as exc:
            raise InputError(f"setting tuple {s!r} is not a sequence of integers") from exc
        if len(st) != self.n_parties:
            raise InputError(f"setting tuple {st} has {len(st)} entries, expected {self.n_parties}")
        for n, (v, s_max) in enumerate(zip(st, self.settings_per_site), start=1):
            if not 1 <= v <= s_max:
                raise InputError(f"setting {v} out of range 1..{s_max} at site {n}")
        return st

    def setting_tuples(self) -> list[SettingTuple]:
        """All full setting tuples in lexicographic order."""
        return list(itertools.product(*(range(1, s + 1) for s in self.settings_per_site)))

    def site_subsets(self, *, proper: bool = False) -> Iterator[tuple[int, ...]]:
        """Nonempty site subsets, smallest first, lexicographic within size."""
        top = self.n_parties - 1 if proper else self.n_parties
        for size in range(1, top + 1):
            yield from itertools.combinations(self.sites, size)


def interleaved_to_stacked(arr: np.ndarray) -> np.ndarray:
    """View of an array with axes (s_1, a_1, ..., s_N, a_N) in the stacked
    family layout (s_1..s_N, a_1..a_N)."""
    return arr.transpose(list(range(0, arr.ndim, 2)) + list(range(1, arr.ndim, 2)))


def validate_sites(scenario: Scenario, sites: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(n) for n in sites)
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
        # All entries are read at once, in tuple order, before any table's
        # size is checked, so a bad entry is reported ahead of a bad size.
        # Only on failure is each table read alone, to name the one at fault.
        parts = [numeric.flat_entries(tables[t])[0] for t in order]
        try:
            numerators, denominator = numeric.numerators(list(itertools.chain.from_iterable(parts)),
                                                         mode)
        except InputError:
            for t, part in zip(order, parts):
                try:
                    numeric.numerators(part, mode)
                except InputError as exc:
                    raise InputError(f"table {t}: {exc}") from exc
            raise
        size = math.prod(scenario.table_shape)
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
        """Family from its stacked numerators over one denominator (Python
        ints over a positive int in rational mode, floats over 1 in float
        mode), validated like a mapping. The array is taken over, not copied."""
        mode = numeric.check_mode(mode)
        family = cls.__new__(cls)
        family._adopt(scenario, numerators.reshape(scenario.settings_per_site + scenario.table_shape),
                      denominator, mode, tol)
        return family

    def _adopt(self, scenario: Scenario, numerators: np.ndarray, denominator: int, mode: str,
               tol: float | None) -> None:
        self.scenario = scenario
        self.mode = mode
        self.tol = numeric.tolerance(mode, tol)
        order = scenario.setting_tuples()
        rows = numerators.reshape(len(order), -1)
        low, sums = rows.min(axis=1), rows.sum(axis=1)
        bad = (low < -self.tol) | ~numeric.is_close(sums, denominator, self.tol)
        if bad.any():
            i = int(np.argmax(bad))
            if low[i] < -self.tol:
                raise InputError(f"negative probability in table {order[i]}: "
                                 f"min entry {numeric.ratio(low[i], denominator, mode)}")
            raise InputError(f"table {order[i]} sums to {numeric.ratio(sums[i], denominator, mode)}, "
                             "not 1 (tables are never renormalized)")
        numerators.setflags(write=False)
        self.numerators = numerators
        self.denominator = denominator

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
    exact binary expansion.
    """
    mode = numeric.check_mode(mode)
    if mode == family.mode and tol is None:
        return family
    return DistributionFamily.from_stacked(family.scenario, family.stacked, mode, tol=tol)


def marginalize(family: DistributionFamily, setting_tuple: Iterable[int],
                keep_sites: Iterable[int]) -> np.ndarray:
    """Marginal of one joint table onto `keep_sites` (axes in site order)."""
    table = family.table(setting_tuple)
    keep = validate_sites(family.scenario, keep_sites)
    drop = tuple(n - 1 for n in family.scenario.sites if n not in keep)
    return table.sum(axis=drop) if drop else table


def _subset_groups(stacked: np.ndarray, scenario: Scenario, sites: tuple[int, ...]) -> np.ndarray:
    """Every tuple's marginal on `sites`: entry [c, g] is that of the g-th full
    tuple with the c-th setting assignment on `sites` (all axes row-major)."""
    n = scenario.n_parties
    kept = [m - 1 for m in sites]
    rest = [m for m in range(n) if m + 1 not in sites]
    summed = stacked.sum(axis=tuple(n + m for m in rest))
    grid = summed.transpose(kept + rest + list(range(n, n + len(kept))))
    return grid.reshape(math.prod(grid.shape[:len(kept)]), math.prod(grid.shape[len(kept):n]), -1)


def _full_tuple(scenario: Scenario, sites: tuple[int, ...], index: int) -> SettingTuple:
    """Full tuple at a row-major index over (settings on `sites`, the others)."""
    order = list(sites) + [n for n in scenario.sites if n not in sites]
    values = np.unravel_index(index, [scenario.settings_per_site[n - 1] for n in order])
    return tuple(int(v) + 1 for _, v in sorted(zip(order, values)))


def _lattice_spreads(tensor: np.ndarray, n: int, kept: tuple[int, ...] | None = None,
                     last: int = 0) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """(sites, spread) for every nonempty proper site subset, depth first.

    `tensor` holds the numerators summed over the outcomes of every site
    not in `kept` (axes s_1..s_N, then the kept sites' outcomes). A child
    drops one kept site larger than `last`, the last site dropped on this
    path, so each subset is reached once, and its tensor is this one with
    that site's outcome axis summed. Only the chain from the family to the
    current subset is held. `spread` is flat, row-major over (setting
    assignment on `sites`, outcome cell), and holds the max - min over the
    other sites' settings.
    """
    kept = tuple(range(1, n + 1)) if kept is None else kept
    if len(kept) == 1:
        return
    for pos, site in enumerate(kept):
        if site <= last:
            continue
        # adding the axis' slices beats numpy's reduction over a short axis
        lead = (slice(None),) * (n + pos)
        child = functools.reduce(np.add, [tensor[lead + (k,)] for k in range(tensor.shape[n + pos])])
        sites = kept[:pos] + kept[pos + 1:]
        other = tuple(m - 1 for m in range(1, n + 1) if m not in sites)
        yield sites, (child.max(axis=other) - child.min(axis=other)).reshape(-1)
        yield from _lattice_spreads(child, n, sites, site)


def check_nonsignaling(family: DistributionFamily) -> Witness | None:
    """Test the consistency condition; None means pass.

    For every nonempty proper site subset and every pair of full setting
    tuples agreeing there, the subset marginals of the two tables must
    coincide (entrywise within `family.tol`; exactly in rational mode), so
    each group of compatible tuples is judged by its entrywise max - min. The
    subsets' outcome sums come from one depth-first walk over the subset
    lattice, each from its parent with one site more, not from the full
    tensor. The witness carries the largest spread at its first occurrence
    (subsets in `site_subsets` order, then common settings
    lexicographically); its tuples are the argmax and argmin at the
    group's first worst outcome cell, in lexicographic order. Rational
    families are judged on their integer numerators against their
    tolerance 0. Float sums run in lattice order, so where several subsets
    tie within rounding the witness may name a different one of them than
    a per-subset reduction would; its discrepancy is equally maximal.
    Vacuously true for single-site scenarios or a single setting tuple.
    """
    scenario = family.scenario
    peaks = {}
    for sites, spread in _lattice_spreads(family.numerators, scenario.n_parties):
        i = int(np.argmax(spread))
        peaks[sites] = (spread[i], i)
    worst = max((value for value, _ in peaks.values()), default=family.tol)
    if not worst > family.tol:
        return None
    sites = next(t for t in scenario.site_subsets(proper=True) if peaks[t][0] == worst)
    c, cell = np.unravel_index(peaks[sites][1], (
        math.prod(scenario.settings_per_site[m - 1] for m in sites),
        math.prod(scenario.outcomes_per_site[m - 1] for m in sites)))
    column = _subset_groups(family.numerators, scenario, sites)[c, :, cell]
    a, b = (_full_tuple(scenario, sites, c * column.size + g)
            for g in sorted((np.argmax(column), np.argmin(column))))
    return Witness(sites, tuple(a[n - 1] for n in sites), a, b,
                   numeric.ratio(worst, family.denominator, family.mode))


class MarginalFamily:
    """The common sub-tuple marginals of a nonsignaling family.

    Computed on demand from the stacked tensor as the average over all
    compatible full tuples, which a passed consistency check makes equal to
    each of them (exactly in rational mode). The tensor is held as
    numerators over one denominator, like `DistributionFamily`.
    """

    def __init__(self, scenario: Scenario, mode: str, stacked: np.ndarray):
        typed = np.asarray(stacked, dtype=object if mode == numeric.RATIONAL else float)
        self._hold(scenario, mode, *numeric.common_denominator(typed))

    @classmethod
    def from_numerators(cls, scenario: Scenario, mode: str, numerators: np.ndarray,
                        denominator: int) -> "MarginalFamily":
        """Marginals of a stacked tensor already held as numerators."""
        marginals = cls.__new__(cls)
        marginals._hold(scenario, mode, numerators, denominator)
        return marginals

    def _hold(self, scenario: Scenario, mode: str, numerators: np.ndarray,
              denominator: int) -> None:
        self.scenario = scenario
        self.mode = mode
        self.numerators = numerators
        self.denominator = denominator
        self._public: dict[tuple[int, ...], np.ndarray] = {}

    @cached_property
    def stacked(self) -> np.ndarray:
        return numeric.ratio_array(self.numerators, self.denominator)

    def marginal_numerators(self, sites: tuple[int, ...]) -> tuple[np.ndarray, int]:
        """Averaged marginals on increasing `sites` as (numerators,
        denominator), a row per setting assignment (row-major).

        The group sum of G compatible tuples is divided by G only when
        every entry is a multiple of G (always so after a passed check);
        otherwise the denominator carries G, so no mean is ever floored.
        """
        if validate_sites(self.scenario, sites) != tuple(sites):
            raise InputError(f"site subset {sites} is not increasing")
        grid = _subset_groups(self.numerators, self.scenario, sites)
        total, count = grid.sum(axis=1), grid.shape[1]
        if self.mode == numeric.FLOAT:
            return total / count, 1
        if not (total % count).any():
            return total // count, self.denominator
        return total, self.denominator * count

    def stacked_marginal(self, sites: tuple[int, ...]) -> np.ndarray:
        """Averaged marginals on increasing `sites`, a row per setting
        assignment (row-major); read-only, cached per subset."""
        sites = tuple(sites)
        if sites not in self._public:
            out = numeric.ratio_array(*self.marginal_numerators(sites))
            out.setflags(write=False)
            self._public[sites] = out
        return self._public[sites]

    def get(self, sites: Iterable[int], settings: Iterable[int]) -> np.ndarray:
        sites, settings = tuple(sites), tuple(settings)
        marginals = self.stacked_marginal(sites)
        bounds = [self.scenario.settings_per_site[n - 1] for n in sites]
        if len(settings) != len(sites) or not all(s in range(1, b + 1)
                                                  for s, b in zip(settings, bounds)):
            raise InputError(f"no marginal stored for sites {sites} at settings {settings}")
        row = np.ravel_multi_index([int(s) - 1 for s in settings], bounds)
        return marginals[row].reshape([self.scenario.outcomes_per_site[n - 1] for n in sites])


def extract_marginal_family(family: DistributionFamily) -> MarginalFamily:
    """Collect the common marginals; raises SignalingError if inconsistent."""
    witness = check_nonsignaling(family)
    if witness is not None:
        raise SignalingError(witness)
    return MarginalFamily.from_numerators(family.scenario, family.mode, family.numerators,
                                          family.denominator)


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
    runs over every proper site subset and setting assignment.
    """
    if family_a.scenario != family_b.scenario:
        raise InputError("families describe different scenario shapes")
    if family_a.mode != family_b.mode:
        raise InputError("families use different arithmetic modes")
    scenario = family_a.scenario
    mode = family_a.mode
    marg_a = extract_marginal_family(family_a)
    marg_b = extract_marginal_family(family_b)
    worst = numeric.zero(mode)
    worst_key: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for sites in scenario.site_subsets(proper=True):
        (a, den_a), (b, den_b) = marg_a.marginal_numerators(sites), marg_b.marginal_numerators(sites)
        diff = abs(a * den_b - b * den_a).max(axis=1)
        i = int(np.argmax(diff))
        value = numeric.ratio(diff[i], den_a * den_b, mode)
        if value > worst:
            settings = np.unravel_index(i, [scenario.settings_per_site[n - 1] for n in sites])
            worst, worst_key = value, (sites, tuple(int(s) + 1 for s in settings))
    if worst > family_a.tol:
        return EprReport(False, worst, worst_key[0], worst_key[1])
    return EprReport(True, worst)
