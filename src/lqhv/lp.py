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
holds Python ints, updated by fraction-free integer pivoting (Bareiss,
Math. Comp. 22 (1968) 565; Edmonds, J. Res. NBS 71B (1967) 241). Every
row r stores integers M_r and a denominator d_r with row = M_r / d_r.
A pivot in column e first brings the leaving row to the determinant D
of the current basis,
M_l <- M_l * D // d_l, then takes p = M_l[e] and sets
M_r <- (p * M_r - M_r[e] * M_l) // d_r and d_r <- p on every row with
M_r[e] != 0; p is the determinant of the next basis. Pivots are positive
and every division is exact, so the result is exactly that of a
`Fraction` tableau. The ratio test compares M_r[-1] / M_r[e] by cross
multiplication, and `Fraction`s are formed only for the returned
witness, certificate and residual. Float mode divides the pivot
row by its pivot instead. Every verdict is checked before it is
returned, exactly in rational mode and within `family.tol` in float mode.

Row order is fixed and documented: setting tuples in lexicographic order,
and within each tuple the outcome combinations in row-major order, i.e.
row = tuple_index * table_size + ravel(outcomes). Columns enumerate joint
points in row-major order over the joint shape.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import numeric
from .construct import DEFAULT_ATOM_BUDGET, SignedMeasure, _tuple_marginals
from .errors import AtomBudgetError, InputError, RepresentationError, SignalingError
from .numeric import Scalar
from .scenario import DistributionFamily, Scenario, check_nonsignaling

ROW_ORDER = ("rows: setting tuples lexicographic, outcomes row-major within each tuple; "
             "columns: joint points row-major")


def stack_tables(family: DistributionFamily) -> np.ndarray:
    """Right-hand side vector b in the documented row order."""
    return family.stacked.reshape(-1)


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
    """Value y.b of a certificate on a family; positive proves infeasibility."""
    b = stack_tables(family)
    if certificate.shape != b.shape:
        raise InputError(f"certificate has {certificate.shape[0]} rows, family needs {b.shape[0]}")
    return (certificate * b).sum()


def _phase1_simplex(a01: np.ndarray, rhs: np.ndarray, scale: int, mode: str, tol: float):
    """Minimize the artificial mass of Ax = b, x >= 0, by Bland's rule.

    `a01` is the 0/1 constraint matrix and b = `rhs` / `scale` the
    right-hand side as numerators over one denominator: Python ints over
    a positive int in rational mode, floats over 1 in float mode. Scaling
    b changes no ratio test, so the pivots are those of b itself. Returns
    (objective, x, y) with x the structural basic solution and y the
    simplex multipliers pulled back through the row sign flips, which make
    y a separating certificate whenever the objective is positive.
    """
    m, n = a01.shape
    exact = mode == numeric.RATIONAL
    flip = [1 if v >= 0 else -1 for v in rhs]
    tableau = np.zeros((m + 1, n + m + 1), dtype=object if exact else float)
    # rows 0..m-1 hold [flip*A | I | flip*rhs]; row m holds the reduced
    # costs of the artificial objective, which start at minus the column sums
    tableau[:m, :n] = np.array(flip)[:, None] * a01
    tableau[np.arange(m), n + np.arange(m)] = 1
    tableau[:m, -1] = [f * v for f, v in zip(flip, rhs)]
    tableau[m, :n] = -tableau[:m, :n].sum(axis=0)
    tableau[m, -1] = -tableau[:m, -1].sum()
    denom = np.ones(m + 1, dtype=tableau.dtype)
    basis_det = 1
    basis = np.arange(n, n + m)
    divide = Fraction if exact else operator.truediv

    while True:
        entering = np.flatnonzero(tableau[m, :-1] < -tol)
        if entering.size == 0:
            break
        e = entering[0]
        column = tableau[:m, e]
        candidates = np.flatnonzero(column > tol)
        if candidates.size == 0:
            raise InputError("phase-1 objective unbounded; the constraint matrix is corrupt")
        if exact:
            # b_r / a_r < b_s / a_s on positive integers, without forming the ratios
            leave = candidates[0]
            for r in candidates[1:]:
                lhs, rhs_r = tableau[r, -1] * column[leave], tableau[leave, -1] * column[r]
                if lhs < rhs_r or (lhs == rhs_r and basis[r] < basis[leave]):
                    leave = r
        else:
            leave = min(candidates, key=lambda r: (tableau[r, -1] / column[r], basis[r]))
        touched = np.flatnonzero(tableau[:, e])
        others = touched[touched != leave]
        if exact:
            pivot_row = tableau[leave] * basis_det // denom[leave]
            basis_det = pivot_row[e]
            tableau[others] = ((basis_det * tableau[others]
                                - np.multiply.outer(tableau[others, e], pivot_row))
                               // denom[others, None])
            denom[touched] = basis_det
        else:
            pivot_row = tableau[leave] / tableau[leave, e]
            tableau[others] -= np.multiply.outer(tableau[others, e], pivot_row)
        tableau[leave] = pivot_row
        basis[leave] = e

    if exact:
        # bring every row to the final basis determinant; the divisions are exact
        # (Cramer's rule), and the values become numerators over basis_det * scale
        values = tableau[:m, -1] * basis_det // denom[:m]
        costs = tableau[m] * basis_det // denom[m]
    else:
        values, costs = tableau[:m, -1], tableau[m]
    den = basis_det * scale
    objective = divide(sum(values[r] for r in np.flatnonzero(basis >= n)), den)
    x = [numeric.zero(mode)] * n
    for r in np.flatnonzero(basis < n):
        x[basis[r]] = divide(values[r], den)
    y = [divide(f * (basis_det - costs[n + i]), basis_det) for i, f in enumerate(flip)]
    return objective, x, y


def _checked_witness(x: list, family: DistributionFamily) -> tuple[np.ndarray, int]:
    """Witness atoms as (numerators, denominator), checked nonnegative and
    reproducing every table of the family within its tolerance.

    Float atoms within tol below zero are clipped to zero first. A failed
    check raises RepresentationError.
    """
    tol = family.tol
    atoms = np.array(x, dtype=object if family.mode == numeric.RATIONAL else float)
    if atoms.min() < -tol:
        raise RepresentationError(f"simplex returned atom {atoms.min()} below the floor")
    values, den = numeric.common_denominator(np.maximum(atoms, 0))
    reproduced = _tuple_marginals(values.reshape(family.scenario.joint_shape), family.scenario)
    missed = abs(reproduced * family.denominator - family.numerators * den) > tol
    if missed.any():
        raise RepresentationError(
            f"witness misses the table entry in constraint row {np.flatnonzero(missed)[0]}")
    return values, den


def _check_certificate(y: np.ndarray, residual: Scalar, family: DistributionFamily,
                       rows: np.ndarray) -> None:
    """Require y.A <= 0 on every atom column, y.b > 0 and y.b == residual,
    each within the family's tolerance.

    y.A and y.b are taken on integer numerators in rational mode. A failed
    check raises RepresentationError.
    """
    tol = family.tol
    values, den = numeric.common_denominator(y)
    products = values[rows].sum(axis=0)
    if products.max() > tol:
        raise RepresentationError(
            f"certificate is positive on atom column {np.argmax(products > tol)}")
    gap = numeric.ratio((values * family.numerators.reshape(-1)).sum(),
                        den * family.denominator, family.mode)
    if not (gap > tol and numeric.is_close(gap, residual, tol)):
        raise RepresentationError(f"certificate gap y.b = {gap} does not match the residual {residual}")


def lhv_feasible(family: DistributionFamily, *, budget: int = DEFAULT_ATOM_BUDGET) -> LhvVerdict:
    """Search for a nonnegative joint-space measure matching every table.

    The family must pass the consistency check first (a signaling family
    has no simulating measure of any sign, so the question is not posed).
    Every comparison is made within the family's tolerance `family.tol`.
    `budget` caps both the atom count and the simplex tableau's cells,
    rows x (atoms + rows + 1), and is enforced before anything is built.
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

    objective, x, y = _phase1_simplex(marginal_matrix(scenario), family.numerators.reshape(-1),
                                      family.denominator, family.mode, family.tol)
    if objective <= family.tol:
        atoms, den = _checked_witness(x, family)
        measure = SignedMeasure.from_numerators(scenario, atoms, den, family.mode,
                                                tol=max(family.tol, 1e-12))
        return LhvVerdict(True, measure, None, objective)
    certificate = np.array(y, dtype=object if family.mode == numeric.RATIONAL else float)
    _check_certificate(certificate, objective, family, marginal_rows(scenario))
    certificate.setflags(write=False)
    return LhvVerdict(False, None, certificate, objective)
