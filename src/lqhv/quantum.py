"""Quantum generators of correlation scenarios at small dimension.

A state plus per-site, per-setting POVMs determines one joint table per
setting tuple through the trace rule, and the resulting family is always
nonsignaling: dropping a site's effect sums its POVM to the identity,
which removes every trace of that site's setting. The module keeps the
linear algebra to plain dense complex matrices since everything here runs
at desk scale.

The canonical two-qubit material (singlet state, Bloch-direction
projective measurements, the setting choice maximizing the CHSH
combination) lives here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numeric
from .errors import InputError
from .scenario import DistributionFamily, Scenario, interleaved_to_stacked

TOL = 1e-9  # Hermitian asymmetry, trace, POVM closure and unit-direction checks
EIGENVALUE_FLOOR = -1e-10
IMAGINARY_RESIDUE = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _as_square_complex(matrix, what: str) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"{what} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise InputError(f"{what} has non-finite entries")
    return arr


def _check_hermitian(arr: np.ndarray, what: str) -> None:
    gap = np.abs(arr - arr.conj().T).max()
    if gap > TOL:
        raise InputError(f"{what} is not Hermitian (asymmetry {gap:.3e})")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite complex matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _as_square_complex(self.matrix, "density matrix")
        _check_hermitian(arr, "density matrix")
        trace = arr.trace()
        if abs(trace - 1.0) > TOL:
            raise InputError(f"density matrix trace is {trace:.6g}, not 1")
        low = np.linalg.eigvalsh(arr).min()
        if low < EIGENVALUE_FLOOR:
            raise InputError(f"density matrix has eigenvalue {low:.3e} below the floor")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class POVM:
    """Finite list of positive-semidefinite effects summing to the identity."""

    effects: tuple

    def __post_init__(self):
        if len(self.effects) == 0:
            raise InputError("POVM needs at least one effect")
        arrs = []
        for i, effect in enumerate(self.effects):
            arr = _as_square_complex(effect, f"effect {i}")
            _check_hermitian(arr, f"effect {i}")
            if arrs and arr.shape != arrs[0].shape:
                raise InputError("POVM effects have mismatched dimensions")
            low = np.linalg.eigvalsh(arr).min()
            if low < EIGENVALUE_FLOOR:
                raise InputError(f"effect {i} has eigenvalue {low:.3e} below the floor")
            arr.setflags(write=False)
            arrs.append(arr)
        closure = sum(arrs) - np.eye(arrs[0].shape[0], dtype=complex)
        gap = np.abs(closure).max()
        if gap > TOL:
            raise InputError(f"POVM effects sum misses the identity by {gap:.3e}")
        object.__setattr__(self, "effects", tuple(arrs))

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)


class QuantumScenario:
    """A joint state with one POVM per (site, setting).

    `povms[n-1][s-1]` measures site n under setting s; all settings at a
    site must act on the same local dimension and share an outcome count,
    and the state must live on the tensor product of the local spaces.
    """

    def __init__(self, rho: DensityMatrix, povms: Sequence[Sequence[POVM]]):
        if not povms or any(len(site) == 0 for site in povms):
            raise InputError("every site needs at least one POVM")
        for n, site in enumerate(povms, start=1):
            if len({p.dim for p in site}) != 1:
                raise InputError(f"site {n} POVMs act on different dimensions")
            if len({p.n_outcomes for p in site}) != 1:
                raise InputError(f"site {n} POVMs disagree on the outcome count")
        self.site_dims = tuple(site[0].dim for site in povms)
        total = 1
        for d in self.site_dims:
            total *= d
        if rho.dim != total:
            raise InputError(
                f"state dimension {rho.dim} does not match the product of site "
                f"dimensions {self.site_dims}")
        self.rho = rho
        self.povms = tuple(tuple(site) for site in povms)

    @property
    def scenario(self) -> Scenario:
        return Scenario(
            tuple(len(site) for site in self.povms),
            tuple(site[0].n_outcomes for site in self.povms),
        )


def born_family(q: QuantumScenario) -> DistributionFamily:
    """Joint tables from the trace rule, one site's effect stack at a time.

    Entry (k_1,...,k_N) of the table at (s_1,...,s_N) is the trace of the
    state against the tensor product of the chosen outcome effects. Any
    imaginary residue beyond 1e-12 is rejected; each table sums to 1
    within 1e-12 because the effects close to the identity.
    """
    scenario = q.scenario
    n = scenario.n_parties
    probs = q.rho.matrix.reshape(q.site_dims * 2)
    for site, povms in enumerate(q.povms):
        # Tr(rho E) sums rho[i, j] E[j, i]: contract the site's leading i and j
        # axes with the column and row axes of its (S_n, K_n, d_n, d_n) effects
        effects = np.array([p.effects for p in povms])
        probs = np.tensordot(probs, effects, axes=([0, n - site], [3, 2]))
    stacked = interleaved_to_stacked(probs)
    residue = np.abs(stacked.imag) > IMAGINARY_RESIDUE
    if residue.any():
        cell = [int(v) for v in np.unravel_index(np.argmax(residue), stacked.shape)]
        raise InputError(f"probability at {tuple(s + 1 for s in cell[:n])}{tuple(cell[n:])} "
                         f"has imaginary part {stacked.imag[tuple(cell)]:.3e}")
    return DistributionFamily.from_stacked(scenario, stacked.real, numeric.FLOAT, tol=1e-12)


def maximally_mixed(dim: int) -> DensityMatrix:
    if dim < 1:
        raise InputError("dimension must be positive")
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def singlet_state() -> DensityMatrix:
    """Two-qubit singlet; anticorrelated under equal spin directions."""
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / np.sqrt(2.0)
    psi[2] = -1.0 / np.sqrt(2.0)
    return DensityMatrix(np.outer(psi, psi.conj()))


def projective_qubit_povm(direction: Sequence[float]) -> POVM:
    """Two-outcome spin measurement along a unit Bloch vector.

    Outcome 0 is the +1 eigenvalue projector (I + n.sigma)/2, outcome 1
    the -1 projector, matching the sign convention of the +-1 outcome
    encoding used for correlators.
    """
    n = np.asarray(direction, dtype=float)
    if n.shape != (3,):
        raise InputError("direction must be a 3-vector")
    norm = float(np.linalg.norm(n))
    if abs(norm - 1.0) > TOL:
        raise InputError(f"direction must be unit length, got norm {norm:.6g}")
    spin = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    eye = np.eye(2, dtype=complex)
    return POVM(((eye + spin) / 2.0, (eye - spin) / 2.0))


def chsh_optimal_scenario() -> QuantumScenario:
    """Singlet with the setting pair maximizing the CHSH combination.

    Site 1 measures along z and x; site 2 along -(z+x)/sqrt2 and
    (-z+x)/sqrt2. With the +-1 outcome encoding the four correlators are
    (+,+,+,-)/sqrt2 and the CHSH combination E11+E12+E21-E22 reaches
    2*sqrt2.
    """
    r = 1.0 / np.sqrt(2.0)
    a_dirs = [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]
    b_dirs = [(-r, 0.0, -r), (r, 0.0, -r)]
    povms = [
        [projective_qubit_povm(d) for d in a_dirs],
        [projective_qubit_povm(d) for d in b_dirs],
    ]
    return QuantumScenario(singlet_state(), povms)
