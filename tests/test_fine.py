"""Fine's criterion as an oracle for the LHV linear program.

In the two-site, two-setting, two-outcome scenario a nonsignaling family
has a nonnegative joint measure exactly when the eight CHSH inequalities
hold (Fine, PRL 48, 291 (1982)): |E11 + E12 + E21 + E22 - 2 E_k| <= 2 for
each placement k of the minus sign, with E_xy the product expectation of
the +-1 outcomes at settings (x, y). Families are drawn as mixtures of the
24 extremal boxes, the 16 local vertices and the 8 XOR boxes, with small
integer weights. Rational mode is exact; float mode is asked only where
every CHSH value stays at least 1e-6 from the bound, beyond its rounding.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lqhv as L

SETTINGS = [(1, 1), (1, 2), (2, 1), (2, 2)]
MARGIN = 1e-6


def chsh_values(family) -> list:
    """E11 + E12 + E21 + E22 - 2 E_k for the four placements k."""
    e = [L.product_expectation_family(family, t, [[1, -1], [1, -1]]) for t in SETTINGS]
    return [sum(e) - 2 * e_k for e_k in e]


def far_from_the_bound(values) -> bool:
    return all(abs(abs(v) - 2) >= MARGIN for v in values)


def fine_local(values) -> bool:
    return all(abs(v) <= 2 for v in values)


mixtures = st.dictionaries(st.integers(0, 23), st.integers(1, 4), min_size=1, max_size=5)


@pytest.mark.parametrize("mode", [L.RATIONAL, L.FLOAT])
@settings(max_examples=60, deadline=None)
@given(weights=mixtures)
def test_lhv_feasible_is_fines_criterion_on_mixtures(mode, weights):
    boxes = L.chsh_local_vertices(mode) + L.chsh_pr_vertices(mode)
    family = L.mix_families([boxes[i] for i in weights], list(weights.values()))
    values = chsh_values(family)
    if mode == L.FLOAT:
        assume(far_from_the_bound(values))
    assert L.lhv_feasible(family).feasible == fine_local(values)


@pytest.mark.parametrize("mode, p", [
    (L.RATIONAL, Fraction(1, 2)),
    (L.RATIONAL, Fraction(1, 2) + Fraction(1, 10**6)),
    (L.FLOAT, 0.5 + 1e-6),
])
def test_lhv_feasible_is_fines_criterion_at_the_isotropic_threshold(mode, p):
    # CHSH value 4p meets the bound 2 at p = 1/2, exactly only in rational mode
    family = L.isotropic_box(p, mode)
    values = chsh_values(family)
    assert mode == L.RATIONAL or far_from_the_bound(values)
    assert L.lhv_feasible(family).feasible == fine_local(values) == (p <= Fraction(1, 2))
