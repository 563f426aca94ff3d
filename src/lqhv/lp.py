"""LHV feasibility: does a positive simulating measure exist?

A family admits a local hidden variable model exactly when some
nonnegative joint-space measure reproduces every table as its full-tuple
marginal. That is a linear feasibility problem in the atoms, solved here
by a phase-1 simplex with Bland's anti-cycling rule: the entering column
is the first whose reduced cost is below -tol, the leaving row the
smallest ratio, ties going to the smallest basis index. Infeasibility
comes with a separating certificate: a vector y over the constraint rows
with y.A <= 0 on every atom column yet y.b > 0 on the family, so no
nonnegative atom vector can meet the tables.

The simplex runs on one numpy tableau with the reduced costs kept as an
extra row, and each pivot eliminates only the rows with a nonzero entry
in the entering column. In rational mode the right-hand side is the
family's integer numerators over its one denominator, and the tableau
holds integers, updated by fraction-free integer pivoting (Bareiss,
Math. Comp. 22 (1968) 565; Edmonds, J. Res. NBS 71B (1967) 241). Every
row r stores integers M_r and a denominator d_r with row = M_r / d_r.
A pivot in column e first brings the leaving row to the determinant D
of the current basis,
M_l <- M_l * D // d_l, then takes p = M_l[e] and sets
M_r <- (p * M_r - M_r[e] * M_l) // d_r and d_r <- p on every row with
M_r[e] != 0; p is the determinant of the next basis. Pivots are positive
and every division is exact, so the result is exactly that of a
`Fraction` tableau. The ratio test compares M_r[-1] / M_r[e] by cross
multiplication.

The integers are int64 for as long as every stored entry, every row
denominator and D are below 2^31 in magnitude. Each product a pivot
forms then has both operands below 2^31, so it stays below 2^62 and a
difference of two stays below 2^63. The bound is checked on the initial
tableau (cost row included), on each new leaving row M_l * D // d_l
before the elimination, and on the eliminated rows after it. When a
check fails, the tableau, the row denominators and D become Python-int
object arrays in place, still exact, and the same numpy expressions go
on; a right-hand side of 2^31 or more starts there. The coefficients and
basis determinants of the corpus families stay within a few bits, so
the object path is for wide numerators, not for everyday input.

The simplex returns the basic solution as Python-int numerators over D
times the family's denominator and the multipliers as numerators over
D, and the verdict checks read them as they are; a `Fraction` is formed
only for the public residual, witness and certificate. Float mode
divides the pivot row by its pivot instead, and its numerators are the
floats over 1. Its ratio test divides all candidate rows at once and
takes the first of a lexsort on (ratio, basis index), the same IEEE
quotients and tie-break as a candidate-by-candidate minimum. Every
verdict is checked before it is returned, exactly in rational mode and
within `family.tol` in float mode. A simplex that passes `PIVOT_BUDGET`
pivots per constraint row and atom raises AtomBudgetError.

Row order is fixed and documented: setting tuples in lexicographic order,
and within each tuple the outcome combinations in row-major order, i.e.
row = tuple_index * table_size + ravel(outcomes). Columns enumerate joint
points in row-major order over the joint shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numeric
from .construct import DEFAULT_ATOM_BUDGET, SignedMeasure, _tuple_marginals
from .errors import AtomBudgetError, InputError, RepresentationError, SignalingError
from .numeric import Scalar
from .scenario import DistributionFamily, Scenario, check_nonsignaling

# Rational tableaux are int64 while every entry is below this bound, so that
# the product of two entries stays below 2^62 and a difference of two below 2^63
_INT64_BOUND = 2**31
# The simplex gives up after this many pivots per constraint row and atom
PIVOT_BUDGET = 50

ROW_ORDER = ("rows: setting tuples lexicographic, outcomes row-major within each tuple; "
             "columns: joint points row-major")


def marginal_rows(scenario: Scenario) -> np.ndarray:
    """Constraint row that each atom feeds, one line per setting tuple.

    Entry (t, col) is the row of tuple t's outcome cell onto which the
    joint point behind `col` projects, so the marginal matrix holds a 1
    at (rows[t, col], col) for every t and nothing else.
    """
    offsets = np.cumsum((0,) + scenario.settings_per_site[:-1])
    axes = np.array(scenario.setting_tuples()) - 1 + offsets
    points = np.indices(scenario.joint_shape).reshape(len(scenario.joint_shape), -1)
    cells = np.ravel_multi_index(tuple(points[axes[:, n]] for n in range(scenario.n_parties)),
                                 scenario.table_shape)
    table_size = math.prod(scenario.table_shape)
    return cells + table_size * np.arange(scenario.n_tuples)[:, None]


def marginal_matrix(scenario: Scenario) -> np.ndarray:
    """0/1 matrix mapping atom vectors to stacked full-tuple marginals.

    Entry (row, col) is 1 when the joint point behind `col` projects, on
    the coordinates selected by the row's setting tuple, onto the row's
    outcome combination.
    """
    rows = marginal_rows(scenario)
    matrix = np.zeros((scenario.n_tuples * math.prod(scenario.table_shape),
                       scenario.joint_size), dtype=np.int8)
    matrix[rows, np.arange(scenario.joint_size)] = 1
    return matrix


@dataclass(frozen=True)
class LhvVerdict:
    """Outcome of the positive-measure feasibility test.

    Exactly one of `measure` (a nonnegative witness reproducing the
    tables) and `certificate` (the separating row functional) is set. The
    phase-1 objective remaining after optimization is reported either way;
    it is 0 for feasible instances.
    """

    feasible: bool
    measure: SignedMeasure | None
    certificate: np.ndarray | None
    residual: Scalar


def certificate_gap(certificate: np.ndarray, family: DistributionFamily) -> Scalar:
    """Value y.b of a certificate on a family; positive proves infeasibility.

    The certificate is read into the family's mode as numerators once."""
    rows = family.numerators.size
    if certificate.shape != (rows,):
        raise InputError(f"certificate has {certificate.shape[0]} rows, family needs {rows}")
    return _gap(*numeric.numerators(certificate, family.mode), family)


def _gap(y: np.ndarray, denominator: int, family: DistributionFamily) -> Scalar:
    """y.b for y = `y` / `denominator` in the documented row order."""
    return numeric.ratio((y * family.numerators.reshape(-1)).sum(),
                         denominator * family.denominator, family.mode)


def _fits(block: np.ndarray) -> bool:
    """True when every entry of an int64 block is below 2^31 in magnitude."""
    return -_INT64_BOUND < block.min() and block.max() < _INT64_BOUND


def _phase1_simplex(a01: np.ndarray, rhs: np.ndarray, scale: int, mode: str, tol: float):
    """Minimize the artificial mass of Ax = b, x >= 0, by Bland's rule.

    `a01` is the 0/1 constraint matrix and b = `rhs` / `scale` the
    right-hand side as numerators over one denominator: Python ints over
    a positive int in rational mode, floats over 1 in float mode. Scaling
    b changes no ratio test, so the pivots are those of b itself. Returns
    (objective, x, y, D): the artificial mass left as the mode's scalar,
    the structural basic solution x as Python-int numerators over
    D * `scale` (floats over 1 in float mode), and the simplex
    multipliers y, pulled back through the row sign flips, as numerators
    over D, the final basis determinant (1 in float mode). y is a
    separating certificate whenever the objective is positive.

    In rational mode the tableau, its row denominators and D are int64
    while every stored entry is below 2^31 in magnitude, so each product
    the pivot forms has both operands below 2^31 and fits. The bound is
    checked on the initial tableau (cost row included), on each new
    pivot row before the elimination and on the eliminated rows after
    it; the first failure turns the three into Python ints in place,
    still exact, and the same expressions go on. Float mode picks the
    leaving row by one vectorized division and a lexsort on (ratio,
    basis index). More than `PIVOT_BUDGET` * (rows + atoms) pivots
    raise AtomBudgetError.
    """
    m, n = a01.shape
    exact = mode == numeric.RATIONAL
    flip = np.where(rhs >= 0, 1, -1)
    b = flip * rhs
    if not exact:
        dtype = float
    elif max(m, b.sum()) < _INT64_BOUND:
        dtype, b = np.int64, b.astype(np.int64)
    else:
        dtype = object
    tableau = np.zeros((m + 1, n + m + 1), dtype=dtype)
    # rows 0..m-1 hold [flip*A | I | flip*rhs]; row m holds the reduced
    # costs of the artificial objective, which start at minus the column sums
    tableau[:m, :n] = flip[:, None] * a01
    tableau[np.arange(m), n + np.arange(m)] = 1
    tableau[:m, -1] = b
    tableau[m, :n] = -tableau[:m, :n].sum(axis=0)
    tableau[m, -1] = -tableau[:m, -1].sum()
    denom = np.ones(m + 1, dtype=dtype)
    basis_det = 1
    basis = np.arange(n, n + m)
    budget = PIVOT_BUDGET * (m + n)
    pivots = 0

    while True:
        entering = tableau[m, :-1] < -tol
        e = entering.argmax()
        if not entering[e]:
            break
        if pivots == budget:
            raise AtomBudgetError(f"simplex reached {budget} pivots on {m} rows and {n} atoms, "
                                  f"the budget of {PIVOT_BUDGET} per row and atom")
        pivots += 1
        column = tableau[:m, e]
        candidates = (column > tol).nonzero()[0]
        if candidates.size == 0:
            raise InputError("phase-1 objective unbounded; the constraint matrix is corrupt")
        if exact:
            # b_r / a_r < b_s / a_s on positive integers, without forming the ratios
            values, coeffs = tableau[candidates, -1].tolist(), column[candidates].tolist()
            order = basis[candidates].tolist()
            best = 0
            for k in range(1, candidates.size):
                lhs, rhs_k = values[k] * coeffs[best], values[best] * coeffs[k]
                if lhs < rhs_k or (lhs == rhs_k and order[k] < order[best]):
                    best = k
            leave = candidates[best]
        else:
            ratios = tableau[candidates, -1] / column[candidates]
            leave = candidates[np.lexsort((basis[candidates], ratios))[0]]
        touched = tableau[:, e].nonzero()[0]
        others = touched[touched != leave]
        if exact:
            pivot_row = tableau[leave] * basis_det // denom[leave]
            if tableau.dtype != object and not _fits(pivot_row):
                tableau, denom = tableau.astype(object), denom.astype(object)
                pivot_row = pivot_row.astype(object)
            basis_det = pivot_row[e]
            block = ((basis_det * tableau[others] - np.multiply.outer(tableau[others, e], pivot_row))
                     // denom[others, None])
            tableau[others] = block
            denom[touched] = basis_det
            if tableau.dtype != object and not _fits(block):
                tableau, denom, basis_det = tableau.astype(object), denom.astype(object), int(basis_det)
        else:
            pivot_row = tableau[leave] / tableau[leave, e]
            tableau[others] -= np.multiply.outer(tableau[others, e], pivot_row)
        tableau[leave] = pivot_row
        basis[leave] = e

    if exact:
        # bring every row to the final basis determinant; the divisions are exact
        # (Cramer's rule), and the values become numerators over basis_det * scale
        values = (tableau[:m, -1] * basis_det // denom[:m]).astype(object)
        costs = (tableau[m] * basis_det // denom[m]).astype(object)
        basis_det = int(basis_det)
    else:
        values, costs = tableau[:m, -1], tableau[m]
    # the artificial rows' values in row order, from a zero of their type
    mass = sum(values[basis >= n], values.dtype.type(0))
    structural = basis < n
    x = np.zeros(n, dtype=values.dtype)
    x[basis[structural]] = values[structural]
    y = flip * (basis_det - costs[n:n + m])
    return numeric.ratio(mass, basis_det * scale, mode), x, y, basis_det


def _checked_witness(x: np.ndarray, denominator: int, family: DistributionFamily) -> np.ndarray:
    """Witness atom numerators over `denominator`, checked nonnegative and
    reproducing every table of the family within its tolerance.

    Float atoms within tol below zero are clipped to zero first. A failed
    check raises RepresentationError.
    """
    tol = family.tol
    if x.min() < -tol:
        raise RepresentationError(f"simplex returned atom "
                                  f"{numeric.ratio(x.min(), denominator, family.mode)} below the floor")
    atoms = np.maximum(x, 0).reshape(family.scenario.joint_shape)
    reproduced = _tuple_marginals(atoms, family.scenario)
    missed = abs(reproduced * family.denominator - family.numerators * denominator) > tol
    if missed.any():
        raise RepresentationError(
            f"witness misses the table entry in constraint row {np.flatnonzero(missed)[0]}")
    return atoms


def _check_certificate(y: np.ndarray, denominator: int, residual: Scalar,
                       family: DistributionFamily, rows: np.ndarray) -> None:
    """Require y.A <= 0 on every atom column, y.b > 0 and y.b == residual,
    each within the family's tolerance, for y = `y` / `denominator`.

    y.A and y.b are taken on the numerators. A failed check raises
    RepresentationError.
    """
    tol = family.tol
    products = y[rows].sum(axis=0)
    if products.max() > tol:
        raise RepresentationError(
            f"certificate is positive on atom column {np.argmax(products > tol)}")
    gap = _gap(y, denominator, family)
    if not (gap > tol and numeric.is_close(gap, residual, tol)):
        raise RepresentationError(f"certificate gap y.b = {gap} does not match the residual {residual}")


def lhv_feasible(family: DistributionFamily, *, budget: int = DEFAULT_ATOM_BUDGET) -> LhvVerdict:
    """Search for a nonnegative joint-space measure matching every table.

    The family must pass the consistency check first (a signaling family
    has no simulating measure of any sign, so the question is not posed).
    Every comparison is made within the family's tolerance `family.tol`.
    `budget` caps both the atom count and the simplex tableau's cells,
    rows x (atoms + rows + 1), and is enforced before anything is built;
    the simplex itself stops with AtomBudgetError after `PIVOT_BUDGET`
    pivots per constraint row and atom.
    Feasible instances return the witness measure; infeasible ones return
    the separating certificate in the documented row order. Both are
    checked before they are returned, and a failed check raises
    RepresentationError.
    """
    scenario = family.scenario
    if scenario.joint_size > budget:
        raise AtomBudgetError(
            f"joint space holds {scenario.joint_size} atoms, over the budget {budget}")
    n_rows = scenario.n_tuples * math.prod(scenario.table_shape)
    cells = n_rows * (scenario.joint_size + n_rows + 1)
    if cells > budget:
        raise AtomBudgetError(f"LP tableau holds {cells} cells, over the budget {budget}")
    witness = check_nonsignaling(family)
    if witness is not None:
        raise SignalingError(witness)

    objective, x, y, basis_det = _phase1_simplex(
        marginal_matrix(scenario), family.numerators.reshape(-1), family.denominator,
        family.mode, family.tol)
    if objective <= family.tol:
        den = basis_det * family.denominator
        measure = SignedMeasure.from_numerators(scenario, _checked_witness(x, den, family), den,
                                                family.mode, tol=numeric.mass_tolerance(family.tol))
        return LhvVerdict(True, measure, None, objective)
    _check_certificate(y, basis_det, objective, family, marginal_rows(scenario))
    certificate = numeric.ratio_array(y, basis_det)
    certificate.setflags(write=False)
    return LhvVerdict(False, None, certificate, objective)
