"""Acceptance gate: one test per shipped guarantee, one printed line each.

Every test emits a single [PASS]/[FAIL] line outside pytest's capture
so the gate's verdicts stay visible in recorded runs. Tolerances are
pinned here on purpose; loosening them is a contract change, not a
test fix.
"""

import contextlib
import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import lqhv as L
from lqhv import io
from lqhv.cli import main as cli_main

import oracles


@pytest.fixture()
def reported(capsys):
    @contextlib.contextmanager
    def report(number, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\n[FAIL] acceptance {number}: {label}", flush=True)
            raise
        with capsys.disabled():
            print(f"\n[PASS] acceptance {number}: {label}", flush=True)

    return report


def _atoms_equal(a, b):
    return a.shape == b.shape and bool((a == b).all())


TRIPARTITE = L.Scenario((2, 2, 2), (2, 2, 2))


def test_1_literal_forms_match_generic_construction(reported):
    # the generic subset-sum construction must coincide atom by atom with
    # independent line-by-line transcriptions of the printed two-site and
    # three-site closed forms, on random nonsignaling input
    with reported(1, "literal two/three-site closed forms match the generic build"):
        t0 = time.perf_counter()
        for seed in range(50):
            family = L.random_nonsignaling_family(seed)
            built = L.build_deterministic_measure(family).measure.atoms
            assert _atoms_equal(built, oracles.literal_two_party_measure(family))
        for seed in range(50):
            family = L.random_scenario_family(TRIPARTITE, seed)
            built = L.build_deterministic_measure(family).measure.atoms
            assert _atoms_equal(built, oracles.literal_three_party_measure(family))
        assert time.perf_counter() - t0 < 10.0


def test_2_construction_reproduces_every_joint_table(reported):
    # 100 random vertex mixtures: the constructed measure is normalized
    # and its marginals reproduce the input tables (exactly in rational
    # arithmetic, within 1e-9 in floating point)
    with reported(2, "random-family round trip: marginals reproduced, mass 1"):
        t0 = time.perf_counter()
        for seed in range(50):
            family = L.random_nonsignaling_family(seed)
            model = L.build_deterministic_measure(family)
            assert model.measure.total_mass == 1
            assert L.verify_marginals(model, family).max_error == 0
        for seed in range(50, 100):
            family = L.convert_family(L.random_nonsignaling_family(seed), L.FLOAT)
            model = L.build_deterministic_measure(family)
            assert abs(model.measure.total_mass - 1.0) <= 1e-9
            assert L.verify_marginals(model, family).max_error <= 1e-9
        assert time.perf_counter() - t0 < 30.0


def test_3_pr_box_quantities_are_exact(reported):
    with reported(3, "PR box: min atom -1/16, total variation 2, exact tables"):
        family = L.pr_box()
        model = L.build_deterministic_measure(family)
        measure = model.measure
        assert measure.total_mass == 1
        assert measure.min_atom == Fraction(-1, 16)
        assert L.jordan_decompose(measure).total_variation == 2
        assert L.verify_marginals(model, family).max_error == 0
        for point in np.ndindex(*measure.atoms.shape):
            assert measure.atoms[point] == oracles.pr_box_atom(*point)


def test_4_quantum_pipeline_hits_the_tsirelson_point(reported):
    with reported(4, "singlet pipeline: consistent family, CHSH 2*sqrt(2), rebuilt"):
        family = L.born_family(L.chsh_optimal_scenario())
        assert family.tol == 1e-12
        assert L.check_nonsignaling(family) is None
        assert abs(L.chsh_value(family) - 2 * np.sqrt(2)) <= 1e-9
        model = L.build_deterministic_measure(family)
        assert L.verify_marginals(model, family).max_error <= 1e-9


def test_5_coefficient_identity_over_the_subset_lattice(reported):
    # integer-only check that the construction's coefficients collapse
    # correctly under marginalization: the superset sum is 1 on the full
    # site set and 0 on every proper subset
    with reported(5, "coefficient identity exact for N <= 5, settings <= 4"):
        def check(settings):
            sites = range(1, len(settings) + 1)
            for r in range(len(settings) + 1):
                for kept in itertools.combinations(sites, r):
                    value = L.coefficient_identity_sum(settings, kept)
                    assert isinstance(value, int)
                    assert value == (1 if len(kept) == len(settings) else 0)

        for n_parties in range(1, 5):
            for settings in itertools.product(range(1, 5), repeat=n_parties):
                check(settings)
        # the identity only depends on the multiset of setting counts
        # relative to the kept set, and every kept set is tried, so
        # sorted tuples cover all five-site cases
        for settings in itertools.combinations_with_replacement(range(1, 5), 5):
            check(settings)


def test_6_signaling_input_is_witnessed_and_refused(reported, tmp_path, capsys):
    with reported(6, "signaling example: witness of discrepancy 1, build exits 2"):
        family = L.signaling_example()
        witness = L.check_nonsignaling(family)
        assert witness is not None
        assert witness.max_discrepancy == 1
        family_path = tmp_path / "signal.json"
        io.save_family(family, str(family_path))
        out_path = tmp_path / "measure.json"
        code = cli_main(["build", str(family_path), "-o", str(out_path)])
        capsys.readouterr()
        assert code == 2
        assert not out_path.exists()


def test_7_lhv_feasibility_separates_local_from_nonlocal(reported):
    with reported(7, "positive-measure test separates PR/iso(0.55) from local"):
        site = L.Scenario((2,), (2,))
        product_family = L.tensor_family(
            L.DistributionFamily(site, {
                (1,): [Fraction(1, 3), Fraction(2, 3)],
                (2,): [Fraction(1, 4), Fraction(3, 4)],
            }),
            L.DistributionFamily(site, {
                (1,): [Fraction(2, 5), Fraction(3, 5)],
                (2,): [Fraction(1, 2), Fraction(1, 2)],
            }),
        )
        vertices = L.chsh_local_vertices()

        for family in (L.uniform_family(L.CHSH_SCENARIO), product_family,
                       L.isotropic_box(Fraction(45, 100))):
            verdict = L.lhv_feasible(family)
            assert verdict.feasible
            assert verdict.measure.min_atom >= 0
            assert L.verify_marginals(verdict.measure, family).max_error == 0

        for family in (L.pr_box(), L.isotropic_box(Fraction(55, 100))):
            verdict = L.lhv_feasible(family)
            assert not verdict.feasible
            assert L.certificate_gap(verdict.certificate, family) > 0
            for vertex in vertices:
                assert L.certificate_gap(verdict.certificate, vertex) <= 0


def _random_stochastic_model(rng, scenario):
    n_omega = rng.randint(1, 8)
    raw = [0] * n_omega
    while sum(raw) == 0:
        raw = [rng.randint(-4, 9) for _ in range(n_omega)]
    total = sum(raw)
    nu = [Fraction(value, total) for value in raw]
    conditionals = []
    for n in scenario.sites:
        k = scenario.outcomes_per_site[n - 1]
        site = []
        for _ in range(scenario.settings_per_site[n - 1]):
            matrix = []
            for _ in range(n_omega):
                row = [rng.randint(0, 6) for _ in range(k)]
                if sum(row) == 0:
                    row[rng.randrange(k)] = 1
                matrix.append([Fraction(value, sum(row)) for value in row])
            site.append(matrix)
        conditionals.append(site)
    return L.StochasticLqHVModel(nu, conditionals)


def test_8_determinization_preserves_every_table(reported):
    with reported(8, "determinized models keep all joint tables exactly"):
        shapes = [
            L.Scenario((2, 2), (2, 2)),
            L.Scenario((2, 3), (3, 2)),
            L.Scenario((2, 1, 2), (2, 2, 2)),
            L.Scenario((1, 2), (4, 2)),
        ]
        rng = random.Random(20240917)
        for trial in range(20):
            scenario = shapes[trial % len(shapes)]
            model = _random_stochastic_model(rng, scenario)
            det = L.determinize(model, scenario)
            assert det.measure.total_mass == 1
            for setting_tuple in scenario.setting_tuples():
                expected = model.joint_table(setting_tuple)
                assert _atoms_equal(det.measure.marginal(setting_tuple), expected)


def test_9_expectations_agree_between_tables_and_measure(reported):
    # the same product observable evaluated on a joint table and on the
    # constructed one-measure representation must give the same number
    with reported(9, "table-side and measure-side expectations coincide"):
        rng = random.Random(77)

        def rational_obs(scenario):
            return [[Fraction(rng.randint(-3, 3)) for _ in range(k)]
                    for k in scenario.outcomes_per_site]

        cases = []
        for seed in range(20):
            cases.append(L.random_nonsignaling_family(seed + 100))
        for seed in range(10):
            cases.append(L.convert_family(
                L.random_nonsignaling_family(seed + 200), L.FLOAT))
        for seed in range(10):
            cases.append(L.random_scenario_family(L.Scenario((2, 2), (3, 2)), seed))
        for seed in range(10):
            cases.append(L.random_scenario_family(L.Scenario((2, 1, 2), (2, 2, 2)), seed))
        assert len(cases) == 50

        for family in cases:
            scenario = family.scenario
            model = L.build_deterministic_measure(family)
            for setting_tuple in scenario.setting_tuples():
                if family.mode == L.RATIONAL:
                    obs = rational_obs(scenario)
                else:
                    obs = [[rng.uniform(-1.0, 1.0) for _ in range(k)]
                           for k in scenario.outcomes_per_site]
                via_table = L.product_expectation_family(family, setting_tuple, obs)
                via_measure = L.product_expectation_model(model, setting_tuple, obs)
                if family.mode == L.RATIONAL:
                    assert via_table == via_measure
                else:
                    assert abs(via_table - via_measure) <= 1e-9
