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
extra row. The 0/1 constraint block is written into the tableau in
place, a row flipped to a nonnegative right-hand side from its negated
0/1 row. Each pivot eliminates only the rows with a nonzero entry in the
entering column, in blocks of at most `numeric._BLOCK` cells, so the
simplex holds about the tableau plus one block: 8 bytes a cell while the
entries are int64 or float. In rational mode the right-hand side is the
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
before the elimination, and on each eliminated block as it is stored.
Whichever check fails, the tableau, the row denominators and the pivot
row become Python-int object arrays at once, still exact, and the same
numpy expressions go on, so an int64 tableau's stored entries are below
2^31 after every block; a right-hand side of 2^31 or more starts on
Python ints. The coefficients and basis determinants of the corpus
families stay within a few bits, so the object path is for wide
numerators, not for everyday input.

The simplex returns the basic solution as Python-int numerators over D
times the family's denominator and the multipliers as numerators over
D, and the verdict checks read them as they are; a `Fraction` is formed
only for the public residual, witness and certificate. Float mode
divides the pivot row by its pivot instead, and its numerators are the
floats over 1. Its ratio test divides all candidate rows at once and
takes the first of a lexsort on (ratio, basis index), the same IEEE
quotients and tie-break as a candidate-by-candidate minimum.

A float pivot updates each touched row only on the pivot row's nonzero
columns and the right-hand side, by flat indices, with the bits of the
dense update of whole rows: where the pivot row holds a zero,
t - c*(+-0.0) is t unless t is -0.0. Neither t - c*p nor a division by
a positive pivot makes -0.0 from +0.0, so the A and identity columns,
which start at +0.0 and +-1, hold no -0.0 outside the cost row's atom
columns. The right-hand side can (a "-0.0" table entry), so it is always
updated. The cost row's atom columns start at minus the column sums,
-0.0 where a column sums to +0.0, and may keep a zero's sign the dense
update would flip; neither the entering test (< -tol) nor y, read from
the artificial columns, sees that sign.

Every verdict is checked before it is returned, exactly in rational
mode and within `family.tol` in float mode: a witness, the nonnegative
case of a deterministic LqHV measure, as a built measure is (its mass,
then `construct.verify_marginals`), a certificate by y.A and y.b. Any
failed check raises RepresentationError. A simplex that passes
`PIVOT_BUDGET` pivots per constraint row and atom raises
AtomBudgetError.

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
from .construct import (
    DEFAULT_ATOM_BUDGET,
    SignedMeasure,
    _check_atom_budget,
    _tuple_marginals_adjoint,
    verify_marginals,
)
from .errors import AtomBudgetError, InputError, RepresentationError, SignalingError
from .numeric import _BLOCK, Scalar
from .scenario import DistributionFamily, Scenario, check_nonsignaling

# Rational tableaux are int64 while every entry is below this bound, so that
# the product of two entries stays below 2^62 and a difference of two below 2^63
_INT64_BOUND = 2**31
# The simplex gives up after this many pivots per constraint row and atom
PIVOT_BUDGET = 50

ROW_ORDER = ("rows: setting tuples lexicographic, outcomes row-major within each tuple; "
             "columns: joint points row-major")


def marginal_matrix(scenario: Scenario) -> np.ndarray:
    """0/1 matrix mapping atom vectors to stacked full-tuple marginals.

    Entry (row, col) is 1 when the joint point behind `col` projects, on
    the coordinates selected by the row's setting tuple, onto the row's
    outcome combination. It is `_tuple_marginals_adjoint` of the int8
    identity over the rows, so row r is the adjoint of the r-th unit vector.
    """
    rows = scenario.n_tuples * math.prod(scenario.table_shape)
    identity = np.eye(rows, dtype=np.int8).reshape(
        scenario.settings_per_site + scenario.table_shape + (rows,))
    return _tuple_marginals_adjoint(identity, scenario).reshape(rows, scenario.joint_size)


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

    The certificate, an array or a list, is read into the family's mode as
    numerators once, before its length is compared."""
    y, denominator = numeric.numerators(certificate, family.mode)
    rows = family.numerators.size
    if y.shape != (rows,):
        raise InputError(f"certificate has {len(np.atleast_1d(y))} rows, family needs {rows}")
    return _gap(y, denominator, family)


def _gap(y: np.ndarray, denominator: int, family: DistributionFamily) -> Scalar:
    """y.b for y = `y` / `denominator` in the documented row order."""
    return numeric.ratio((y * family.numerators.reshape(-1)).sum(),
                         denominator * family.denominator, family.mode)


def _fits(block: np.ndarray) -> bool:
    """True when every entry of an int64 block is below 2^31 in magnitude."""
    return -_INT64_BOUND < block.min() and block.max() < _INT64_BOUND


def _widened(block: np.ndarray, *arrays: np.ndarray) -> tuple:
    """`arrays` as they are, or as Python-int object arrays when `block` is
    int64 and has an entry of 2^31 or more in magnitude."""
    if block.dtype == object or _fits(block):
        return arrays
    return tuple(a.astype(object) for a in arrays)


def _phase1_simplex(a01: np.ndarray, rhs: np.ndarray, scale: int, mode: str, tol: float):
    """Minimize the artificial mass of Ax = b, x >= 0, by Bland's rule, on
    the tableau the module docstring describes: in rational mode integers,
    int64 only while its stored entries are below 2^31 after every block.

    `a01` is the 0/1 constraint matrix and b = `rhs` / `scale` the
    right-hand side as numerators over one denominator: Python ints over
    a positive int in rational mode, floats over 1 in float mode. Scaling
    b changes no ratio test, so the pivots are those of b itself. `mode`
    picks the arithmetic and `tol` the entering and ratio-test threshold.

    Returns (objective, x, y, D): the artificial mass left as the mode's
    scalar, the structural basic solution x as Python-int numerators over
    D * `scale` (floats over 1 in float mode), and the simplex
    multipliers y, pulled back through the row sign flips, as numerators
    over D, the final basis determinant (1 in float mode). y is a
    separating certificate whenever the objective is positive. More than
    `PIVOT_BUDGET` * (rows + atoms) pivots raise AtomBudgetError.
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
    width = n + m + 1
    tableau = np.zeros((m + 1, width), dtype=dtype)
    # rows 0..m-1 hold [flip*A | I | flip*rhs], a flipped row written from its
    # negated 0/1 row so that its zeros stay +0.0; row m holds the reduced
    # costs of the artificial objective, which start at minus the column sums
    tableau[:m, :n] = a01
    for row in np.flatnonzero(flip < 0):
        tableau[row, :n] = -a01[row]
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
            tableau, denom, pivot_row = _widened(pivot_row, tableau, denom, pivot_row)
            step = max(1, _BLOCK // width)
            for start in range(0, others.size, step):
                rows = others[start:start + step]
                block = ((pivot_row[e] * tableau[rows] - np.multiply.outer(tableau[rows, e], pivot_row))
                         // denom[rows, None])
                tableau[rows] = block
                tableau, denom, pivot_row = _widened(block, tableau, denom, pivot_row)
            basis_det = pivot_row[e]
            denom[touched] = basis_det
            tableau[leave] = pivot_row
        else:
            # the leaving row's nonzero columns and the rhs column; elsewhere the
            # dense update t - c * 0.0 would leave t as it is (see the module docstring)
            nonzero = tableau[leave] != 0
            nonzero[-1] = True
            columns = nonzero.nonzero()[0]
            pivot_row = tableau[leave, columns] / tableau[leave, e]
            tableau[leave, columns] = pivot_row
            # one 1-D index into the flat view takes numpy's fast path; indexing by
            # np.ix_(rows, columns) made float simplex runs about 2x slower (numpy 2.4, x86-64)
            flat, step = tableau.reshape(-1), max(1, _BLOCK // columns.size)
            for start in range(0, others.size, step):
                rows = others[start:start + step]
                flat[(rows[:, None] * width + columns).reshape(-1)] -= np.multiply.outer(
                    tableau[rows, e], pivot_row).reshape(-1)
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


def _checked_witness(x: np.ndarray, denominator: int, family: DistributionFamily) -> SignedMeasure:
    """The witness measure of atom numerators `x` over `denominator`, its
    atoms checked against the floor and the measure as a built one is.

    Float atoms within tol below zero are clipped to zero first. A failed
    check raises RepresentationError.
    """
    tol = family.tol
    if x.min() < -tol:
        raise RepresentationError(f"simplex returned atom "
                                  f"{numeric.ratio(x.min(), denominator, family.mode)} below the floor")
    try:
        measure = SignedMeasure.from_numerators(family.scenario, np.maximum(x, 0), denominator,
                                                family.mode, tol=numeric.mass_tolerance(tol))
    except InputError as exc:
        raise RepresentationError(f"witness is no measure: {exc}") from exc
    error = verify_marginals(measure, family).max_error
    if error > tol:
        raise RepresentationError(f"witness misses a table entry by {error}")
    return measure


def _check_certificate(y: np.ndarray, denominator: int, residual: Scalar,
                       family: DistributionFamily) -> None:
    """Require y.A <= 0 on every atom column, y.b > 0 and y.b == residual,
    each within the family's tolerance, for y = `y` / `denominator`.

    y.A and y.b are taken on the numerators, y.A by the adjoint of the
    tuple marginals. A failed check raises RepresentationError.
    """
    tol = family.tol
    products = _tuple_marginals_adjoint(y.reshape(family.numerators.shape), family.scenario)
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
    `budget`, read by `numeric.read_int`, caps both the atom count and
    the simplex tableau's cells, rows x (atoms + rows + 1), and is
    enforced before anything is built;
    the simplex itself stops with AtomBudgetError after `PIVOT_BUDGET`
    pivots per constraint row and atom.
    Feasible instances return the witness measure; infeasible ones return
    the separating certificate in the documented row order. Both are
    checked before they are returned, the witness as a measure, and any
    failed check raises RepresentationError.
    """
    scenario = family.scenario
    budget = _check_atom_budget(scenario, budget)
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
        measure = _checked_witness(x, basis_det * family.denominator, family)
        return LhvVerdict(True, measure, None, objective)
    _check_certificate(y, basis_det, objective, family)
    certificate = numeric.ratio_array(y, basis_det)
    certificate.setflags(write=False)
    return LhvVerdict(False, None, certificate, objective)
