"""The paper's theorem as exact linear algebra on the marginal map.

A = `lqhv.marginal_matrix(scenario)` maps atom vectors to stacked tables.
C holds the per-site equalities, built here by loops of its own: for each
site n, each setting tuple t with t_n > 1 and each outcome cell of the
other sites, the sum over a_n of F(t, a) equals that at t with t_n = 1.
CA = 0 says that the tables of every signed measure are nonsignaling.
With rank A + rank C = rows, the image of A is exactly ker C: every table
vector that meets the per-site equalities is reproduced by some signed
atom vector, which is the theorem's linear core. rank A is
prod_n (1 + S_n (K_n - 1)), the dimension of the nonsignaling set's affine
hull plus one (Pironio, J. Math. Phys. 46, 062112 (2005)). CA is exact in
int64, and every rank is exact (`oracles.bareiss_rank`).
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqhv as L
from oracles import bareiss_rank


def per_site_equalities(settings_per_site, outcomes_per_site) -> np.ndarray:
    """C: one row per site n, tuple t with t_n > 1 and cell of the other
    sites' outcomes, reading sum_{a_n} F(t, a) - F(t|t_n=1, a) off the
    stacked table vector (tuples lexicographic, cells row-major inside)."""
    tuples = list(itertools.product(*(range(s) for s in settings_per_site)))
    cells = list(itertools.product(*(range(k) for k in outcomes_per_site)))
    index = {key: i for i, key in enumerate(itertools.product(tuples, cells))}
    rows = []
    for n, k in enumerate(outcomes_per_site):
        for t in tuples:
            if t[n] == 0:
                continue
            first = t[:n] + (0,) + t[n + 1:]
            for cell in cells:
                if cell[n] != 0:
                    continue
                row = [0] * len(index)
                for b in range(k):
                    a = cell[:n] + (b,) + cell[n + 1:]
                    row[index[t, a]] += 1
                    row[index[first, a]] -= 1
                rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(index))


def assert_theorem(settings_per_site, outcomes_per_site):
    a = L.marginal_matrix(L.Scenario(settings_per_site, outcomes_per_site)).astype(np.int64)
    c = per_site_equalities(settings_per_site, outcomes_per_site)
    assert not (c @ a).any()
    rank_a = bareiss_rank(a)
    assert rank_a == math.prod(1 + s * (k - 1)
                               for s, k in zip(settings_per_site, outcomes_per_site))
    assert rank_a + bareiss_rank(c) == a.shape[0]


@pytest.mark.parametrize("settings_per_site, outcomes_per_site", [
    ((2, 2), (2, 2)),
    ((3, 3), (2, 2)),
    ((2, 3), (3, 2)),
    ((2, 2), (3, 3)),
    ((2, 2, 2), (2, 2, 2)),
    ((3, 2, 2), (2, 2, 3)),
    ((2,) * 4, (2,) * 4),
])
def test_signed_measures_reproduce_exactly_the_nonsignaling_tables(settings_per_site,
                                                                   outcomes_per_site):
    assert_theorem(settings_per_site, outcomes_per_site)


@st.composite
def small_shapes(draw):
    n = draw(st.integers(1, 3))
    sites = st.lists(st.integers(1, 3), min_size=n, max_size=n)
    return tuple(draw(sites)), tuple(draw(sites))


@settings(max_examples=50, deadline=None)
@given(small_shapes().filter(lambda shape: math.prod(shape[0] + shape[1]) <= 300))
def test_the_theorem_holds_on_small_shapes(shape):
    assert_theorem(*shape)


def fraction_rank(matrix) -> int:
    """Rank by Gaussian elimination on Fractions."""
    rows, rank = [[Fraction(x) for x in row] for row in matrix], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            ratio = rows[i][col] / rows[rank][col]
            rows[i] = [x - ratio * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(st.sampled_from([0, 0, 1, -1, 3, 2**31, -2**61, 2**70]), min_size=cols,
             max_size=cols), max_size=7)))
def test_the_rank_oracle_is_exact_past_int64(matrix):
    # a dependent row, row 0 plus 3 times row 1, leaves the rank as it was
    if len(matrix) >= 2:
        matrix.append([a + 3 * b for a, b in zip(matrix[0], matrix[1])])
    assert bareiss_rank(matrix) == fraction_rank(matrix)
