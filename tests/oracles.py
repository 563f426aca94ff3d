"""Independent oracles for the construction and quantum tests.

Everything here is written against the raw table data with plain Python
loops and its own index bookkeeping, deliberately sharing no tensor
machinery with the package: the literal two- and three-party measure
formulas in their printed collapsed forms, a brute-force marginalizer
over explicit joint points, the closed-form atoms of the maximally
nonlocal box, analytic singlet tables, and a direct evaluation of the
one-hidden-space joint tables, the all-pairs consistency check, the
per-subset reduction check on a family's numerators, the N-party
subset-sum measure, the Born rule by one Kronecker product and
trace per table cell, and the canonical boxes built tuple by tuple. Construction tests compare the package
output against these, atom by atom, in exact arithmetic. `fraction_build`
is the per-site tensor build and full-tuple marginal verification run
directly on `Fraction` arrays, as the package did before it moved to
integer numerators over one denominator. For the LHV
linear program there is a loop-built marginal matrix, a dense
`Fraction` phase-1 tableau that recomputes every reduced cost before each
pivot, and the package's former float pivot loop with its per-candidate
ratio test, which the float simplex must match bit for bit. `per_table_family` reads a family's tables one at a time into
`Fraction` (or float) arrays, stacks them and splits them over their
common denominator, as the package did before it read all entries in one
pass; it shares only the per-entry rule `coerce_scalar` and the tuple
validation with the package, and refuses a common denominator past the
interpreter's integer digit limit, per table and then for the family.

The `fraction_*` functions and `marginalize` are the package's own
formulas as they ran on public `Fraction` (or float) arrays before the
stochastic model, the expectations, `SignedMeasure.marginal` and the LP
verdicts moved onto numerators: the same operations in the same order,
so rational results must be equal and float results equal bit for bit.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from functools import reduce

import numpy as np

from lqhv.errors import InputError
from lqhv.numeric import FLOAT, RATIONAL, coerce_scalar
from lqhv.scenario import validate_sites


def axis_offsets(settings_per_site):
    """Start axis of each site's coordinate block, computed from scratch."""
    offsets = []
    total = 0
    for s in settings_per_site:
        offsets.append(total)
        total += s
    return offsets, total


def brute_tuple_marginal(atoms, settings_per_site, outcomes_per_site, setting_tuple):
    """Marginal of an atom tensor onto the coordinates of one setting tuple.

    Loops over every joint point and accumulates its mass into the outcome
    cell the tuple's coordinates project to; no axis-sum shortcuts.
    """
    offsets, _ = axis_offsets(settings_per_site)
    shape = tuple(outcomes_per_site)
    out = np.empty(shape, dtype=object)
    out[...] = Fraction(0)
    for point in np.ndindex(*atoms.shape):
        cell = tuple(point[offsets[n] + s - 1] for n, s in enumerate(setting_tuple))
        out[cell] = out[cell] + atoms[point]
    return out


def _single_marginals_2(tables, s_counts, k_counts):
    """Site marginals of a two-party family, summed from reference tables."""
    (s1_max, s2_max), (k1, k2) = s_counts, k_counts
    p1 = {s1: [sum(tables[(s1, 1)][a, b] for b in range(k2)) for a in range(k1)]
          for s1 in range(1, s1_max + 1)}
    p2 = {s2: [sum(tables[(1, s2)][a, b] for a in range(k1)) for b in range(k2)]
          for s2 in range(1, s2_max + 1)}
    return p1, p2


def literal_two_party_measure(family):
    """The printed two-party construction, transcribed term by term.

    Sum over all setting pairs of the joint table evaluated at the pair's
    coordinates times single-site marginals at every other coordinate,
    minus (S1*S2 - 1) times the product of all single-site marginals.
    Input tables must be exact rationals and nonsignaling, so marginals
    may be read off any reference tuple.
    """
    sc = family.scenario
    s1_max, s2_max = sc.settings_per_site
    k1, k2 = sc.outcomes_per_site
    p1, p2 = _single_marginals_2(family.tables, (s1_max, s2_max), (k1, k2))
    shape = (k1,) * s1_max + (k2,) * s2_max
    out = np.empty(shape, dtype=object)
    for point in np.ndindex(*shape):
        lam1 = point[:s1_max]
        lam2 = point[s1_max:]
        total = Fraction(0)
        for s1 in range(1, s1_max + 1):
            for s2 in range(1, s2_max + 1):
                term = family.tables[(s1, s2)][lam1[s1 - 1], lam2[s2 - 1]]
                for u in range(1, s1_max + 1):
                    if u != s1:
                        term = term * p1[u][lam1[u - 1]]
                for v in range(1, s2_max + 1):
                    if v != s2:
                        term = term * p2[v][lam2[v - 1]]
                total += term
        everything = Fraction(1)
        for u in range(1, s1_max + 1):
            everything *= p1[u][lam1[u - 1]]
        for v in range(1, s2_max + 1):
            everything *= p2[v][lam2[v - 1]]
        out[point] = total - (s1_max * s2_max - 1) * everything
    return out


def literal_three_party_measure(family):
    """The printed three-party construction, transcribed term by term.

    Triple-table terms, minus (S3-1), (S1-1), (S2-1) times the respective
    two-site marginal terms, plus the printed constant
    2*S1*S2*S3 - S1*S2 - S2*S3 - S1*S3 + 1 times the all-singles product.
    """
    sc = family.scenario
    s1m, s2m, s3m = sc.settings_per_site
    k1, k2, k3 = sc.outcomes_per_site
    tab = family.tables

    p1 = {s: [sum(tab[(s, 1, 1)][a, b, c] for b in range(k2) for c in range(k3))
              for a in range(k1)] for s in range(1, s1m + 1)}
    p2 = {s: [sum(tab[(1, s, 1)][a, b, c] for a in range(k1) for c in range(k3))
              for b in range(k2)] for s in range(1, s2m + 1)}
    p3 = {s: [sum(tab[(1, 1, s)][a, b, c] for a in range(k1) for b in range(k2))
              for c in range(k3)] for s in range(1, s3m + 1)}
    p12 = {(s1, s2): [[sum(tab[(s1, s2, 1)][a, b, c] for c in range(k3))
                       for b in range(k2)] for a in range(k1)]
           for s1 in range(1, s1m + 1) for s2 in range(1, s2m + 1)}
    p23 = {(s2, s3): [[sum(tab[(1, s2, s3)][a, b, c] for a in range(k1))
                       for c in range(k3)] for b in range(k2)]
           for s2 in range(1, s2m + 1) for s3 in range(1, s3m + 1)}
    p13 = {(s1, s3): [[sum(tab[(s1, 1, s3)][a, b, c] for b in range(k2))
                       for c in range(k3)] for a in range(k1)]
           for s1 in range(1, s1m + 1) for s3 in range(1, s3m + 1)}

    constant = 2 * s1m * s2m * s3m - s1m * s2m - s2m * s3m - s1m * s3m + 1
    shape = (k1,) * s1m + (k2,) * s2m + (k3,) * s3m
    out = np.empty(shape, dtype=object)
    for point in np.ndindex(*shape):
        lam1 = point[:s1m]
        lam2 = point[s1m:s1m + s2m]
        lam3 = point[s1m + s2m:]

        def singles(skip1=0, skip2=0, skip3=0):
            value = Fraction(1)
            for u in range(1, s1m + 1):
                if u != skip1:
                    value *= p1[u][lam1[u - 1]]
            for v in range(1, s2m + 1):
                if v != skip2:
                    value *= p2[v][lam2[v - 1]]
            for w in range(1, s3m + 1):
                if w != skip3:
                    value *= p3[w][lam3[w - 1]]
            return value

        triple = Fraction(0)
        for s1 in range(1, s1m + 1):
            for s2 in range(1, s2m + 1):
                for s3 in range(1, s3m + 1):
                    triple += (tab[(s1, s2, s3)][lam1[s1 - 1], lam2[s2 - 1], lam3[s3 - 1]]
                               * singles(s1, s2, s3))
        pair12 = Fraction(0)
        for s1 in range(1, s1m + 1):
            for s2 in range(1, s2m + 1):
                pair12 += p12[(s1, s2)][lam1[s1 - 1]][lam2[s2 - 1]] * singles(s1, s2, 0)
        pair23 = Fraction(0)
        for s2 in range(1, s2m + 1):
            for s3 in range(1, s3m + 1):
                pair23 += p23[(s2, s3)][lam2[s2 - 1]][lam3[s3 - 1]] * singles(0, s2, s3)
        pair13 = Fraction(0)
        for s1 in range(1, s1m + 1):
            for s3 in range(1, s3m + 1):
                pair13 += p13[(s1, s3)][lam1[s1 - 1]][lam3[s3 - 1]] * singles(s1, 0, s3)

        out[point] = (triple
                      - (s3m - 1) * pair12
                      - (s1m - 1) * pair23
                      - (s2m - 1) * pair13
                      + constant * singles())
    return out


def pr_box_atom(a1, a2, b1, b2):
    """Closed-form atom of the constructed maximally-nonlocal-box measure.

    Evaluating the two-party formula on the box gives (2k - 3)/16 where k
    counts the setting pairs (x, y) in {0,1}^2 whose XOR relation
    a_{x+1} + b_{y+1} = x*y (mod 2) the point satisfies. Frozen reference
    values: the all-zero point satisfies k=3 (all but x=y=1), so 3/16; the
    point (0,1,0,1) satisfies k=1 (only x=y=1), so -1/16.
    """
    outcomes = ((a1, a2), (b1, b2))
    k = sum(1 for x in range(2) for y in range(2)
            if (outcomes[0][x] + outcomes[1][y]) % 2 == (x * y) % 2)
    return Fraction(2 * k - 3, 16)


def singlet_projective_table(a_dir, b_dir):
    """Analytic joint table of the singlet under two Bloch directions.

    With the +-1 outcome encoding (index 0 is +1), the correlator is the
    negative dot product of the directions and both marginals are fair
    coins, so P(a, b) = (1 - (-1)^(a+b) a.b)/4.
    """
    dot = sum(float(x) * float(y) for x, y in zip(a_dir, b_dir))
    table = np.empty((2, 2), dtype=float)
    for a in range(2):
        for b in range(2):
            table[a, b] = (1.0 - (-1.0) ** (a + b) * dot) / 4.0
    return table


def brute_stochastic_table(nu, conditionals, setting_tuple):
    """Joint table of a one-hidden-space model by direct summation.

    conditionals[n][s-1][omega] is the outcome row of site n+1 under
    setting s at hidden point omega; the entry at an outcome combination
    is sum_omega nu[omega] * prod_n row_n[outcome_n].
    """
    shape = tuple(len(conditionals[n][0][0]) for n in range(len(conditionals)))
    out = np.empty(shape, dtype=object)
    out[...] = Fraction(0)
    for cell in np.ndindex(*shape):
        total = Fraction(0)
        for omega in range(len(nu)):
            term = nu[omega]
            for n, s in enumerate(setting_tuple):
                term = term * conditionals[n][s - 1][omega][cell[n]]
            total += term
        out[cell] = total
    return out


def all_rational_tables(rng, scenario_shape):
    """Random exact probability tables for every setting tuple.

    scenario_shape is (settings_per_site, outcomes_per_site). Entries are
    small random integers normalized per table; the result is generally
    signaling, which is fine for the callers that only need valid tables.
    """
    settings, outcomes = scenario_shape
    tables = {}
    cells = list(np.ndindex(*outcomes))
    for t in itertools.product(*(range(1, s + 1) for s in settings)):
        raw = [rng.randrange(1, 9) for _ in cells]
        total = sum(raw)
        table = np.empty(tuple(outcomes), dtype=object)
        for cell, w in zip(cells, raw):
            table[cell] = Fraction(w, total)
        tables[t] = table
    return tables


def brute_marginal_matrix(settings_per_site, outcomes_per_site):
    """0/1 constraint matrix of the LHV program, one joint point at a time.

    Rows are setting tuples in lexicographic order with the outcome cells
    row-major inside each; columns are joint points row-major. Entry
    (row, col) is 1 when the point's coordinates on the tuple's axes are
    the row's outcome cell.
    """
    offsets, _ = axis_offsets(settings_per_site)
    joint_shape = [k for s, k in zip(settings_per_site, outcomes_per_site) for _ in range(s)]
    table_size = 1
    for k in outcomes_per_site:
        table_size *= k
    tuples = list(itertools.product(*(range(1, s + 1) for s in settings_per_site)))
    points = list(itertools.product(*(range(k) for k in joint_shape)))
    matrix = [[0] * len(points) for _ in range(len(tuples) * table_size)]
    for ti, t in enumerate(tuples):
        for col, point in enumerate(points):
            cell = 0
            for n, s in enumerate(t):
                cell = cell * outcomes_per_site[n] + point[offsets[n] + s - 1]
            matrix[ti * table_size + cell][col] = 1
    return matrix


def dense_bland_phase1(a_rows, b):
    """Phase-1 simplex on a dense `Fraction` tableau by Bland's rule.

    Minimizes the artificial mass of Ax = b, x >= 0 on [A | I | b] with
    rows sign-flipped so that b >= 0. Before each pivot every reduced cost
    is recomputed from the rows whose basic variable is artificial; the
    entering column is the first negative one, the leaving row the
    smallest ratio with ties to the smallest basis index. Returns
    (objective, x, y): the artificial mass left, the structural basic
    solution, and the multipliers pulled back through the sign flips.
    """
    m, n = len(a_rows), len(a_rows[0])
    flip = [1 if Fraction(v) >= 0 else -1 for v in b]
    tableau = [[Fraction(flip[i] * int(a_rows[i][j])) for j in range(n)]
               + [Fraction(int(i == k)) for k in range(m)]
               + [flip[i] * Fraction(b[i])] for i in range(m)]
    basis = [n + i for i in range(m)]

    def reduced_cost(col):
        cost = Fraction(1 if col >= n else 0)
        for r in range(m):
            if basis[r] >= n:
                cost -= tableau[r][col]
        return cost

    while True:
        enter = next((j for j in range(n + m) if reduced_cost(j) < 0), -1)
        if enter < 0:
            break
        leave, best = -1, None
        for r in range(m):
            coeff = tableau[r][enter]
            if coeff > 0:
                ratio = tableau[r][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        pivot = tableau[leave][enter]
        tableau[leave] = [v / pivot for v in tableau[leave]]
        for r in range(m):
            factor = tableau[r][enter]
            if r != leave and factor != 0:
                tableau[r] = [v - factor * w for v, w in zip(tableau[r], tableau[leave])]
        basis[leave] = enter

    artificial = [r for r in range(m) if basis[r] >= n]
    objective = sum((tableau[r][-1] for r in artificial), Fraction(0))
    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tableau[r][-1]
    y = [flip[i] * sum((tableau[r][n + i] for r in artificial), Fraction(0)) for i in range(m)]
    return objective, x, y


def float_bland_phase1(a01, rhs, tol):
    """The package's float phase-1 loop as it ran before its ratio test was vectorized.

    The same tableau, the same pivot arithmetic and the same order of
    operations, with the leaving row chosen candidate by candidate by
    `min` on (ratio, basis index). Returns (mass, x, y) as float arrays,
    which the package must reproduce bit for bit, signed zeros included.
    """
    m, n = a01.shape
    flip = [1 if v >= 0 else -1 for v in rhs]
    tableau = np.zeros((m + 1, n + m + 1), dtype=float)
    tableau[:m, :n] = np.array(flip)[:, None] * a01
    tableau[np.arange(m), n + np.arange(m)] = 1
    tableau[:m, -1] = [f * v for f, v in zip(flip, rhs)]
    tableau[m, :n] = -tableau[:m, :n].sum(axis=0)
    tableau[m, -1] = -tableau[:m, -1].sum()
    basis = np.arange(n, n + m)
    while True:
        entering = np.flatnonzero(tableau[m, :-1] < -tol)
        if entering.size == 0:
            break
        e = entering[0]
        column = tableau[:m, e]
        candidates = np.flatnonzero(column > tol)
        leave = min(candidates, key=lambda r: (tableau[r, -1] / column[r], basis[r]))
        touched = np.flatnonzero(tableau[:, e])
        others = touched[touched != leave]
        pivot_row = tableau[leave] / tableau[leave, e]
        tableau[others] -= np.multiply.outer(tableau[others, e], pivot_row)
        tableau[leave] = pivot_row
        basis[leave] = e
    values, costs = tableau[:m, -1], tableau[m]
    mass = sum(values[basis >= n], values.dtype.type(0))
    x = np.zeros(n)
    x[basis[basis < n]] = values[basis < n]
    y = np.array(flip) * (1 - costs[n:n + m])
    return mass, x, y


def loop_marginal(table, outcomes_per_site, keep):
    """Marginal of one table onto the 0-based sites `keep`, cell by cell.

    Returns a dict from the kept outcome combination to its mass.
    """
    out = {}
    for cell in itertools.product(*(range(k) for k in outcomes_per_site)):
        key = tuple(cell[n] for n in keep)
        out[key] = out[key] + table[cell] if key in out else table[cell]
    return out


def all_pairs_check(tables, settings_per_site, outcomes_per_site, threshold):
    """The consistency check comparing every pair of compatible tuples.

    Site subsets run smallest first (lexicographic within a size), common
    settings lexicographically, and pairs (a, b) with a before b; a pair
    replaces the worst so far only when its largest entrywise marginal
    difference is strictly larger. Returns None when no difference
    exceeds `threshold`, else (site_subset, common_settings, tuple_a,
    tuple_b, discrepancy) with 1-based labels.
    """
    n = len(settings_per_site)
    tuples = list(itertools.product(*(range(1, s + 1) for s in settings_per_site)))
    worst = None
    for size in range(1, n):
        for subset in itertools.combinations(range(1, n + 1), size):
            keep = [m - 1 for m in subset]
            for common in itertools.product(*(range(1, settings_per_site[m] + 1) for m in keep)):
                members = [t for t in tuples if tuple(t[m] for m in keep) == common]
                margs = [loop_marginal(tables[t], outcomes_per_site, keep) for t in members]
                for i, j in itertools.combinations(range(len(members)), 2):
                    d = max(abs(margs[i][k] - margs[j][k]) for k in margs[i])
                    if d > threshold and (worst is None or d > worst[4]):
                        worst = (subset, common, members[i], members[j], d)
    return worst


def subset_reduction_check(family):
    """The consistency check by one full reduction of the stacked tensor
    per proper site subset, as the package ran it before its lattice walk.

    Subsets run in `site_subsets` order; each one's marginals are grouped
    by the setting assignment on the subset, and a group's spread is its
    entrywise max - min. The first strictly largest spread above the
    family's tolerance wins; its tuples are the argmax
    and argmin at the group's first worst outcome cell, in lexicographic
    order. Returns None or (site_subset, common_settings, tuple_a,
    tuple_b, discrepancy) with 1-based labels.
    """
    scenario = family.scenario
    settings = scenario.settings_per_site
    n = len(settings)
    numerators = family.numerators
    worst, best = None, family.tol
    for size in range(1, n):
        for subset in itertools.combinations(range(1, n + 1), size):
            kept = [m - 1 for m in subset]
            rest = [m for m in range(n) if m not in kept]
            summed = numerators.sum(axis=tuple(n + m for m in rest))
            grid = summed.transpose(kept + rest + list(range(n, n + len(kept))))
            common_shape = [settings[m] for m in kept]
            grid = grid.reshape(int(np.prod(common_shape)), int(np.prod([settings[m] for m in rest])), -1)
            spread = grid.max(axis=1) - grid.min(axis=1)
            per_common = spread.max(axis=1)
            c = int(np.argmax(per_common))
            if per_common[c] > best:
                column = grid[c, :, np.argmax(spread[c])]
                members = []
                for g in sorted((int(np.argmax(column)), int(np.argmin(column)))):
                    values = np.unravel_index(c * grid.shape[1] + g,
                                              common_shape + [settings[m] for m in rest])
                    members.append(tuple(int(v) + 1 for _, v in sorted(zip(kept + rest, values))))
                best = per_common[c]
                common = tuple(int(v) + 1 for v in np.unravel_index(c, common_shape))
                discrepancy = (Fraction(best, family.denominator) if numerators.dtype == object
                               else best)
                worst = (subset, common, members[0], members[1], discrepancy)
    return worst


def subset_sum_measure(tables, settings_per_site, outcomes_per_site, zero):
    """The N-party measure as a plain sum over subsets, settings and coordinates.

    mu(lambda) = sum over site subsets T (the empty one included) and
    setting assignments sigma on T of c_T * P_T^sigma(lambda at the
    coordinates (n, sigma_n), n in T) * prod over every other coordinate
    (m, s) of p_m^s(lambda at (m, s)), with c_T = prod_{n not in T}
    (1 - S_n), P_T^sigma the average of the compatible tuples'
    T-marginals and p_m^s the averaged single-site marginal. `zero` is
    the additive identity of the entries (Fraction(0) or 0.0).
    """
    n = len(settings_per_site)
    offsets, _ = axis_offsets(settings_per_site)
    tuples = list(itertools.product(*(range(1, s + 1) for s in settings_per_site)))

    def averaged(keep, common):
        members = [t for t in tuples if tuple(t[m] for m in keep) == common]
        total = {}
        for t in members:
            for key, value in loop_marginal(tables[t], outcomes_per_site, keep).items():
                total[key] = total.get(key, zero) + value
        return {key: value / len(members) for key, value in total.items()}

    singles = {(m, s): averaged([m], (s,))
               for m in range(n) for s in range(1, settings_per_site[m] + 1)}
    terms = []
    for size in range(n + 1):
        for keep in itertools.combinations(range(n), size):
            c = 1
            for m in range(n):
                if m not in keep:
                    c *= 1 - settings_per_site[m]
            for common in itertools.product(*(range(1, settings_per_site[m] + 1) for m in keep)):
                marg = averaged(list(keep), common) if keep else {(): zero + 1}
                terms.append((c, keep, common, marg))

    joint_shape = [k for s, k in zip(settings_per_site, outcomes_per_site) for _ in range(s)]
    out = np.empty(joint_shape, dtype=object)
    for point in itertools.product(*(range(k) for k in joint_shape)):
        total = zero
        for c, keep, common, marg in terms:
            value = marg[tuple(point[offsets[m] + s - 1] for m, s in zip(keep, common))]
            occupied = set(zip(keep, common))
            for m in range(n):
                for s in range(1, settings_per_site[m] + 1):
                    if (m, s) not in occupied:
                        value = value * singles[(m, s)][(point[offsets[m] + s - 1],)]
            total += c * value
        out[point] = total
    return out


def _tuples(settings_per_site):
    return itertools.product(*(range(1, s + 1) for s in settings_per_site))


def loop_born_family(rho, effects):
    """Born-rule tables {tuple: table}, one kron and one trace per cell.

    `effects[n][s][k]` is site n's effect matrix for outcome k under
    setting s (both 0-based); tuples in the result are 1-based.
    """
    tables = {}
    for t in _tuples([len(site) for site in effects]):
        povms = [effects[n][s - 1] for n, s in enumerate(t)]
        shape = tuple(len(p) for p in povms)
        table = np.empty(shape)
        for outcome in itertools.product(*(range(k) for k in shape)):
            effect = reduce(np.kron, (p[k] for p, k in zip(povms, outcome)))
            table[outcome] = np.trace(rho @ effect).real
        tables[t] = table
    return tables


def loop_local_vertex(settings_per_site, outcomes_per_site, assignment, zero, one):
    """Point-mass tables: site n reports assignment[n][s - 1] under setting s."""
    tables = {}
    for t in _tuples(settings_per_site):
        table = np.full(outcomes_per_site, zero, dtype=object)
        table[tuple(assignment[n][s - 1] for n, s in enumerate(t))] = one
        tables[t] = table
    return tables


def loop_pr_type_vertex(alpha, beta, gamma, zero, half):
    """XOR box a + b = xy + alpha x + beta y + gamma (mod 2), cell by cell."""
    tables = {}
    for x, y in itertools.product(range(2), repeat=2):
        table = np.full((2, 2), zero, dtype=object)
        for a in range(2):
            table[a, (x * y + alpha * x + beta * y + gamma + a) % 2] = half
        tables[(x + 1, y + 1)] = table
    return tables


def loop_signaling_example(zero, half):
    """Settings (2, 1): site 1 a fair coin, site 2 outputs s1 - 1."""
    tables = {}
    for s1 in (1, 2):
        table = np.full((2, 2), zero, dtype=object)
        table[0, s1 - 1] = table[1, s1 - 1] = half
        tables[(s1, 1)] = table
    return tables


def loop_tensor(left_tables, right_tables):
    """Outer product of every left table with every right table."""
    return {a + b: np.multiply.outer(ta, tb)
            for a, ta in left_tables.items() for b, tb in right_tables.items()}


def loop_mix(tables_list, weights, zero):
    """Weighted sum tuple by tuple; weights scaled to sum 1 first, in order."""
    total = sum(weights, zero)
    w = [v / total for v in weights]
    out = {}
    for t in tables_list[0]:
        acc = zero
        for weight, tables in zip(w, tables_list):
            acc = acc + weight * tables[t]
        out[t] = acc
    return out


def _site_marginal(stacked, site):
    """Averaged marginal of 0-based `site`, one row per setting, on Fractions."""
    n = stacked.ndim // 2
    summed = stacked.sum(axis=tuple(n + m for m in range(n) if m != site))
    grouped = np.moveaxis(summed, site, 0).reshape(summed.shape[site], -1, summed.shape[-1])
    return grouped.sum(axis=1) / grouped.shape[1]


def _fraction_site_map(atoms, axis, p):
    """One site's map M_n on a Fraction tensor, with the shrink (S_n - 1)/S_n."""
    last = p.shape[0] - 1
    shrink = Fraction(last, last + 1)
    lifted = np.moveaxis(atoms, axis, -1)
    total = np.expand_dims(atoms.sum(axis=(0, axis)), -1)
    out, prod = lifted[last] - shrink * total * p[last], p[last]
    for s in range(last - 1, -1, -1):
        block = tuple(range(-prod.ndim, 0))
        out = np.expand_dims(out, -prod.ndim - 1) * np.expand_dims(p[s], block)
        out += np.expand_dims(lifted[s], block) * prod
        prod = np.multiply.outer(p[s], prod)
    return out


def fraction_tuple_marginals(atoms, settings_per_site):
    """Every full-tuple marginal of a Fraction atom tensor, stacked-family layout."""
    out = atoms
    for s in settings_per_site:
        rows = [out.sum(axis=tuple(t for t in range(s) if t != j)) for j in range(s)]
        out = np.moveaxis(np.stack(rows), [0, 1], [-2, -1])
    return out.transpose(list(range(0, out.ndim, 2)) + list(range(1, out.ndim, 2)))


def fraction_build(stacked, settings_per_site):
    """Signed measure of a nonsignaling stacked Fraction family, and its
    full-tuple marginals, computed on `Fraction` arrays throughout.

    `stacked` has axes (s_1..s_N, a_1..a_N). Returns (atoms, reproduced)
    with atoms over the joint axes (1,1)..(N,S_N) and reproduced laid out
    like `stacked`.
    """
    n = len(settings_per_site)
    atoms = stacked
    for site in range(n):
        atoms = _fraction_site_map(atoms, n - site, _site_marginal(stacked, site))
    return atoms, fraction_tuple_marginals(atoms, settings_per_site)


def _holds_bool(data):
    if isinstance(data, (list, tuple)):
        return any(_holds_bool(v) for v in data)
    if isinstance(data, np.ndarray):
        if data.dtype == object:
            return any(isinstance(v, (bool, np.bool_)) for v in data.flat)
        return data.dtype == bool
    return isinstance(data, (bool, np.bool_))


def _check_denominator_digits(fractions):
    """Refuse Fractions whose common denominator has more decimal digits
    than the interpreter's integer string limit."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if math.lcm(*(v.denominator for v in fractions)) >= 10**limit:
        raise InputError(f"the entries' common denominator has more than {limit} digits")


def per_table_array(data, mode, shape=None):
    """One table coerced on its own: an array of Fractions, each entry
    through `coerce_scalar`, or a checked float64 copy; then the digits of
    its common denominator (rational), then its size."""
    if mode == FLOAT:
        if _holds_bool(data):
            raise InputError("true/false is not a number")
        try:
            arr = np.asarray(data, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"cannot interpret data as a float array: {exc}") from exc
        if not np.all(np.isfinite(arr)):
            raise InputError("non-finite entry in float array")
        arr = arr.copy()
    else:
        raw = np.asarray(data, dtype=object)
        coerce = np.frompyfunc(lambda v: coerce_scalar(v, RATIONAL), 1, 1)
        arr = np.asarray(coerce(raw), dtype=object)
        _check_denominator_digits(arr.reshape(-1).tolist())
    if shape is not None:
        size = int(np.prod(shape, dtype=object))
        if size != arr.size:
            raise InputError(f"expected {shape} = {size} entries, got {arr.size}")
        arr = arr.reshape(shape)
    return arr


def per_table_family(scenario, tables, mode, name_tables=False):
    """(numerators, denominator) of a {tuple: table} map, its tables read
    one at a time in tuple order and stacked, with axes (s_1..s_N,
    a_1..a_N); raises what a bad count, key, entry or size raised, with
    the faulty table's setting tuple in front when `name_tables` is set,
    then what a common denominator over the digit limit raises."""
    if len(tables) != scenario.n_tuples:
        problem = "missing tables" if len(tables) < scenario.n_tuples else "unexpected tuples"
        raise InputError(f"{problem}: {len(tables)} tables given for "
                         f"{scenario.n_tuples} setting tuples")
    keyed = {scenario.validate_setting_tuple(k): v for k, v in tables.items()}
    if len(keyed) != len(tables):
        raise InputError("duplicate setting tuples in table map")
    arrays = []
    for t in sorted(keyed):
        try:
            arrays.append(per_table_array(keyed[t], mode, scenario.table_shape))
        except InputError as exc:
            if not name_tables:
                raise
            raise InputError(f"table {t}: {exc}") from exc
    stacked = np.stack(arrays).reshape(scenario.settings_per_site + scenario.table_shape)
    if stacked.dtype != object:
        return stacked, 1
    flat = stacked.reshape(-1).tolist()
    _check_denominator_digits(flat)
    den = math.lcm(*(v.denominator for v in flat))
    nums = np.empty(len(flat), dtype=object)
    nums[:] = [v.numerator * (den // v.denominator) for v in flat]
    return nums.reshape(stacked.shape), den


def marginalize(family, setting_tuple, keep_sites):
    """Marginal of one joint table onto `keep_sites` (axes in site order)."""
    table = family.table(setting_tuple)
    keep = validate_sites(family.scenario, keep_sites)
    drop = tuple(n - 1 for n in family.scenario.sites if n not in keep)
    return table.sum(axis=drop) if drop else table


def _mode_zeros(shape, mode):
    if mode == FLOAT:
        return np.zeros(shape, dtype=float)
    out = np.empty(shape, dtype=object)
    out[...] = Fraction(0)
    return out


def fraction_array(data, mode):
    """Entries as a mode-typed array: Fractions through `coerce_scalar`,
    or float64."""
    if mode == FLOAT:
        return np.array(data, dtype=float)
    coerce = np.frompyfunc(lambda v: coerce_scalar(v, RATIONAL), 1, 1)
    return np.asarray(coerce(np.asarray(data, dtype=object)), dtype=object)


def fraction_stochastic(nu, conditionals, coords, mode):
    """sum over the hidden points of nu times the outer product of the
    conditional rows of the (site, setting) `coords`, accumulated onto a
    zero array one hidden point at a time."""
    nu = fraction_array(nu, mode)
    mats = [[fraction_array(m, mode) for m in site] for site in conditionals]
    shape = tuple(mats[n - 1][s - 1].shape[1] for n, s in coords)
    out = _mode_zeros(shape, mode)
    for omega in range(nu.shape[0]):
        rows = [mats[n - 1][s - 1][omega] for n, s in coords]
        out = out + nu[omega] * reduce(np.multiply.outer, rows)
    return out


def fraction_measure_marginal(atoms, axes):
    """Sum of an atom array over every axis not in `axes`."""
    drop = tuple(ax for ax in range(atoms.ndim) if ax not in axes)
    return atoms.sum(axis=drop) if drop else atoms


def fraction_expectation(array, axes, observables, mode):
    """sum of `array` times observable n read off axis `axes[n]`."""
    acc = array
    for axis, phi in zip(axes, observables):
        vec = fraction_array(phi, mode)
        shape = [1] * array.ndim
        shape[axis] = vec.shape[0]
        acc = acc * vec.reshape(shape)
    return acc.sum()


def fraction_certificate_gap(certificate, stacked):
    """y.b on the stacked tables in the documented row order."""
    return (certificate * stacked.reshape(-1)).sum()
