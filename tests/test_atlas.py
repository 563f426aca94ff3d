"""Published LHV thresholds, reproduced by `lhv_feasible`.

Each row is a family of visibility v: a quantum correlation mixed with
white noise, v times the quantum tables plus (1 - v) times uniform ones.
Its published threshold v* is the largest v with a local hidden variable
model, so the family is feasible at v* (1 - 1e-4) and infeasible at
v* (1 + 1e-4):

- the singlet at the CHSH-optimal settings: v* = 1/sqrt(2), CHSH's
  local bound 2 over Tsirelson's 2 sqrt(2);
- maximally entangled qutrits at the settings of Collins, Gisin, Linden,
  Massar and Popescu (PRL 88, 040404 (2002)): v* = (6 sqrt(3) - 9) / 2;
- the N-party GHZ state with X or Y at every site (Mermin, PRL 65, 1838
  (1990)), N = 3 and 4: v* = 1/2, in float mode and exactly in rational
  mode.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import lqhv as L

MARGIN = Fraction(1, 10**4)


def bracket(v_star):
    """v* (1 - MARGIN) and v* (1 + MARGIN), in v*'s own type."""
    margin = MARGIN if isinstance(v_star, Fraction) else float(MARGIN)
    return v_star * (1 - margin), v_star * (1 + margin)


def noisy(family, v):
    """v times the float `family` plus (1 - v) times white noise."""
    return L.mix_families([family, L.uniform_family(family.scenario, L.FLOAT)], [v, 1 - v])


def singlet(v):
    return noisy(L.born_family(L.chsh_optimal_scenario()), v)


def cglmp_basis(alpha, conjugate):
    """Projectors onto |k> = sum_j w^(j (k + alpha)) |j> / sqrt(3), w = exp(2 pi i / 3),
    or onto their complex conjugates."""
    j = np.arange(3)
    vectors = [np.exp(2j * np.pi * j * (k + alpha) / 3) / math.sqrt(3) for k in range(3)]
    if conjugate:
        vectors = [v.conj() for v in vectors]
    return L.POVM([np.outer(v, v.conj()) for v in vectors])


def qutrits(v):
    psi = np.eye(3).reshape(-1) / math.sqrt(3)  # sum_j |jj> / sqrt(3)
    povms = [[cglmp_basis(alpha, False) for alpha in (0, 1 / 2)],
             [cglmp_basis(alpha, True) for alpha in (1 / 4, -1 / 4)]]
    state = L.DensityMatrix(np.outer(psi, psi))
    return noisy(L.born_family(L.QuantumScenario(state, povms)), v)


def ghz(n, v, mode):
    """Tables (1 + v (-1)^(a_1 + ... + a_N) cos(k pi / 2)) / 2^N, with k
    the number of sites measuring Y (setting 2); the cosine is taken
    exactly, as 1, 0, -1 or 0."""
    scenario = L.Scenario((2,) * n, (2,) * n)
    stacked = np.empty(scenario.n_tuples * 2**n, dtype=object if mode == L.RATIONAL else float)
    stacked[:] = [(1 + v * (-1) ** sum(a) * (1, 0, -1, 0)[sum(s) % 4]) / 2**n
                  for s in itertools.product((0, 1), repeat=n)
                  for a in itertools.product((0, 1), repeat=n)]
    return L.DistributionFamily.from_stacked(scenario, stacked.reshape((2,) * 2 * n), mode)


ROWS = {
    "singlet": (singlet, 2**-0.5),
    "cglmp-qutrits": (qutrits, (6 * math.sqrt(3) - 9) / 2),
    **{f"ghz{n}-{mode}": (lambda v, n=n, mode=mode: ghz(n, v, mode),
                          Fraction(1, 2) if mode == L.RATIONAL else 0.5)
       for n in (3, 4) for mode in (L.FLOAT, L.RATIONAL)},
}


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("name", sorted(ROWS))
def test_published_threshold_is_bracketed(name, side):
    family_at, v_star = ROWS[name]
    below, above = bracket(v_star)
    family = family_at(below if side == "below" else above)
    assert L.lhv_feasible(family).feasible == (side == "below")
