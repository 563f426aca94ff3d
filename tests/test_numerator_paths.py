"""The stochastic model, the expectations, measure marginals and
certificate values, run on numerators, agree with their `Fraction`-array
formulas kept in `oracles`: exactly in rational mode, bit for bit in
float mode."""

import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import lqhv as L
from lqhv import numeric
from oracles import (
    fraction_certificate_gap,
    fraction_expectation,
    fraction_measure_marginal,
    fraction_stochastic,
)

MODES = st.sampled_from(numeric.MODES)
# one to three sites, at most two settings and three outcomes each: at most 729 atoms
SCENARIOS = st.lists(st.tuples(st.integers(1, 2), st.integers(2, 3)), min_size=1, max_size=3).map(
    lambda sites: L.Scenario(*zip(*sites)))
SEEDS = st.integers(0, 2**32 - 1)


def same(got, expected):
    """Equal Fractions in rational mode; equal dtype, shape and bytes in float mode."""
    got, expected = np.asarray(got), np.asarray(expected)
    if expected.dtype == object:
        return (got.shape == expected.shape and got.tolist() == expected.tolist()
                and all(type(v) is Fraction for v in got.reshape(-1).tolist()))
    return got.dtype == expected.dtype and got.shape == expected.shape \
        and got.tobytes() == expected.tobytes()


def weights(rng, count, mode, signed=False):
    """`count` random weights summing to 1, as Fractions or floats."""
    while True:
        raw = [rng.randrange(-3 if signed else 0, 7) for _ in range(count)]
        if sum(raw):
            break
    total = sum(raw)
    return [Fraction(v, total) if mode == L.RATIONAL else v / total for v in raw]


def model_inputs(rng, scenario, mode):
    omega = rng.randrange(1, 5)
    conditionals = [[[weights(rng, k, mode) for _ in range(omega)] for _ in range(s)]
                    for s, k in zip(scenario.settings_per_site, scenario.outcomes_per_site)]
    return weights(rng, omega, mode, signed=True), conditionals


def observables(rng, scenario, mode):
    draw = (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))) if mode == L.RATIONAL \
        else (lambda: rng.uniform(-2.0, 2.0))
    return [[draw() for _ in range(k)] for k in scenario.outcomes_per_site]


def tuple_axes(scenario, setting_tuple):
    return [scenario.axis_index(n, s) for n, s in enumerate(setting_tuple, start=1)]


@settings(max_examples=80, deadline=None)
@given(SCENARIOS, MODES, SEEDS)
def test_stochastic_model_and_determinize(scenario, mode, seed):
    nu, conditionals = model_inputs(random.Random(seed), scenario, mode)
    model = L.StochasticLqHVModel(nu, conditionals, mode)
    coords = [(n, s) for n in scenario.sites
              for s in range(1, scenario.settings_per_site[n - 1] + 1)]
    atoms = fraction_stochastic(nu, conditionals, coords, mode)
    measure = L.determinize(model, scenario).measure
    assert same(measure.atoms, atoms)
    for t in scenario.setting_tuples():
        assert same(model.joint_table(t), fraction_stochastic(nu, conditionals,
                                                              list(enumerate(t, start=1)), mode))
        assert same(measure.marginal(t), fraction_measure_marginal(atoms, tuple_axes(scenario, t)))


@settings(max_examples=60, deadline=None)
@given(SCENARIOS, MODES, SEEDS)
def test_expectations_and_measure_marginals(scenario, mode, seed):
    rng = random.Random(seed)
    family = L.random_scenario_family(scenario, seed, mode)
    model = L.build_deterministic_measure(family)
    atoms = model.measure.atoms
    for t in scenario.setting_tuples():
        obs = observables(rng, scenario, mode)
        axes = tuple_axes(scenario, t)
        assert same(L.product_expectation_family(family, t, obs),
                    fraction_expectation(family.table(t), range(len(t)), obs, mode))
        assert same(L.product_expectation_model(model, t, obs),
                    fraction_expectation(atoms, axes, obs, mode))
        assert same(model.measure.marginal(t), fraction_measure_marginal(atoms, axes))


@settings(max_examples=60, deadline=None)
@given(SCENARIOS, MODES, SEEDS)
def test_certificate_gap(scenario, mode, seed):
    rng = random.Random(seed)
    family = L.random_scenario_family(scenario, seed, mode)
    rows = family.numerators.size
    if mode == L.RATIONAL:
        certificate = np.array([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                for _ in range(rows)], dtype=object)
    else:
        certificate = np.array([rng.uniform(-2.0, 2.0) for _ in range(rows)])
    assert same(L.certificate_gap(certificate, family),
                fraction_certificate_gap(certificate, family.stacked))


def test_lhv_certificates_keep_their_value():
    for family in (L.pr_box(), L.isotropic_box(Fraction(7, 10)),
                   L.convert_family(L.isotropic_box(Fraction(3, 4)), L.FLOAT)):
        certificate = L.lhv_feasible(family).certificate
        assert same(L.certificate_gap(certificate, family),
                    fraction_certificate_gap(certificate, family.stacked))
