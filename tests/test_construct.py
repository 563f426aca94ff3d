"""Signed-measure construction, diagnostics and conversions."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqhv as L
from lqhv import construct
from lqhv.errors import AtomBudgetError, InputError, RepresentationError
from lqhv.construct import _tuple_marginals_adjoint
from oracles import (
    brute_marginal_matrix,
    brute_stochastic_table,
    brute_tuple_marginal,
    literal_three_party_measure,
    literal_two_party_measure,
    pr_box_atom,
    subset_sum_measure,
)


def rational_rows(rng, count, width):
    rows = []
    for _ in range(count):
        raw = [rng.randrange(1, 7) for _ in range(width)]
        total = sum(raw)
        rows.append([Fraction(v, total) for v in raw])
    return rows


def random_float_measure(shape):
    """Float measure of mass 1 (within rounding) on a joint space of `shape`,
    its atoms of both signs and many magnitudes."""
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 1, shape)
    x += (1 - x.sum()) / x.size
    return L.SignedMeasure.from_numerators(L.Scenario((1,) * len(shape), shape), x, 1, L.FLOAT)


def random_stochastic_model(rng, settings_per_site, outcomes_per_site, omega):
    """Signed hidden weights with proper conditional rows."""
    while True:
        raw = [rng.randrange(-3, 7) for _ in range(omega)]
        if sum(raw) != 0:
            break
    nu = [Fraction(v, sum(raw)) for v in raw]
    conditionals = []
    for s_count, k in zip(settings_per_site, outcomes_per_site):
        site = []
        for _ in range(s_count):
            site.append(rational_rows(rng, omega, k))
        conditionals.append(site)
    return L.StochasticLqHVModel(nu, conditionals)


class TestCoefficient:
    def test_full_set_is_one(self):
        sc = L.Scenario((3, 4, 2), (2, 2, 2))
        assert L.coefficient(sc, (1, 2, 3)) == 1

    def test_two_party_collapsed_constant(self):
        # Absorbing the |T| <= 1 terms into the empty-set term leaves the
        # printed constant -(S1*S2 - 1): each single-site term is just the
        # all-singles product, so T={n} contributes S_n copies of it.
        for s1, s2 in itertools.product(range(1, 5), repeat=2):
            sc = L.Scenario((s1, s2), (2, 2))
            collapsed = (L.coefficient(sc, ()) + s1 * L.coefficient(sc, (1,))
                         + s2 * L.coefficient(sc, (2,)))
            assert collapsed == -(s1 * s2 - 1)

    def test_three_party_pair_prefactor(self):
        sc = L.Scenario((2, 3, 4), (2, 2, 2))
        assert L.coefficient(sc, (2, 3)) == -(2 - 1)
        assert L.coefficient(sc, (1, 3)) == -(3 - 1)
        assert L.coefficient(sc, (1, 2)) == -(4 - 1)

    def test_three_party_collapsed_constant(self):
        for s in itertools.product(range(1, 4), repeat=3):
            sc = L.Scenario(s, (2, 2, 2))
            collapsed = L.coefficient(sc, ())
            for n in (1, 2, 3):
                collapsed += s[n - 1] * L.coefficient(sc, (n,))
            s1, s2, s3 = s
            assert collapsed == 2 * s1 * s2 * s3 - s1 * s2 - s2 * s3 - s1 * s3 + 1
        sc = L.Scenario((2, 2, 2), (2, 2, 2))
        total = L.coefficient(sc, ()) + sum(2 * L.coefficient(sc, (n,)) for n in (1, 2, 3))
        assert total == 5

    def test_table_covers_all_subsets(self):
        sc = L.Scenario((2, 3), (2, 2))
        table = L.coefficient_table(sc)
        assert set(table) == {(), (1,), (2,), (1, 2)}
        assert table[(1, 2)] == 1
        assert table[()] == (2 - 1) * (3 - 1)

    def test_identity_sum_examples(self):
        assert L.coefficient_identity_sum((2, 2), (1, 2)) == 1
        assert L.coefficient_identity_sum((2, 2), (1,)) == 0
        assert L.coefficient_identity_sum((3, 2, 4), ()) == 0
        assert L.coefficient_identity_sum((3, 2, 4), (2,)) == 0

    def test_identity_small_sweep(self):
        for n_parties in range(1, 4):
            for s in itertools.product(range(1, 4), repeat=n_parties):
                sites = tuple(range(1, n_parties + 1))
                for size in range(n_parties + 1):
                    for kept in itertools.combinations(sites, size):
                        expected = 1 if kept == sites else 0
                        assert L.coefficient_identity_sum(s, kept) == expected


class TestBuild:
    def test_product_family_gives_product_measure(self):
        p = [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 4), Fraction(3, 4)]]
        q = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(2, 5), Fraction(3, 5)]]
        sc = L.Scenario((2, 2), (2, 2))
        tables = {}
        for s1 in (1, 2):
            for s2 in (1, 2):
                tables[(s1, s2)] = np.multiply.outer(
                    np.array(p[s1 - 1], dtype=object), np.array(q[s2 - 1], dtype=object))
        fam = L.DistributionFamily(sc, tables, L.RATIONAL)
        mu = L.build_deterministic_measure(fam).measure
        expected = np.multiply.outer(
            np.multiply.outer(np.array(p[0], dtype=object), np.array(p[1], dtype=object)),
            np.multiply.outer(np.array(q[0], dtype=object), np.array(q[1], dtype=object)))
        assert np.array_equal(mu.atoms, expected)
        assert mu.min_atom >= 0

    def test_uniform_family_gives_uniform_measure(self):
        fam = L.uniform_family(L.Scenario((2, 2), (2, 2)))
        mu = L.build_deterministic_measure(fam).measure
        assert set(mu.atoms.reshape(-1)) == {Fraction(1, 16)}
        fam3 = L.uniform_family(L.Scenario((2, 1, 3), (2, 2, 2)))
        mu3 = L.build_deterministic_measure(fam3).measure
        assert set(mu3.atoms.reshape(-1)) == {Fraction(1, 2**6)}

    def test_pr_box_atoms_frozen_oracle(self):
        mu = L.build_deterministic_measure(L.pr_box()).measure
        for point in np.ndindex(2, 2, 2, 2):
            assert mu.atoms[point] == pr_box_atom(*point)
        assert mu.atoms[0, 0, 0, 0] == Fraction(3, 16)
        assert mu.atoms[0, 1, 0, 1] == Fraction(-1, 16)
        assert mu.min_atom == Fraction(-1, 16)
        assert mu.total_mass == 1

    def test_signaling_family_refused(self):
        with pytest.raises(L.SignalingError):
            L.build_deterministic_measure(L.signaling_example())

    def test_budget_refusal(self):
        with pytest.raises(AtomBudgetError):
            L.build_deterministic_measure(L.pr_box(), budget=15)

    def test_literal_two_party_equivalence(self):
        for seed in range(8):
            fam = L.random_nonsignaling_family(seed)
            generic = L.build_deterministic_measure(fam).measure.atoms
            assert np.array_equal(generic, literal_two_party_measure(fam))

    def test_literal_three_party_equivalence(self):
        sc = L.Scenario((2, 2, 2), (2, 2, 2))
        for seed in range(6):
            fam = L.random_scenario_family(sc, seed)
            generic = L.build_deterministic_measure(fam).measure.atoms
            assert np.array_equal(generic, literal_three_party_measure(fam))

    def test_literal_equivalence_asymmetric_settings(self):
        for settings_per_site in [(3, 2), (1, 3), (2, 3)]:
            sc = L.Scenario(settings_per_site, (2, 3))
            for seed in range(3):
                fam = L.random_scenario_family(sc, seed)
                generic = L.build_deterministic_measure(fam).measure.atoms
                assert np.array_equal(generic, literal_two_party_measure(fam))

    def test_reproduction_sweep_small_scenarios(self):
        # Brute-force oracle behind the subset-coefficient formula: every
        # scenario with N <= 4 sites and S_n <= 3 settings (binary
        # outcomes, desk-scale joint spaces) must reproduce random
        # mixtures exactly, with marginals recomputed by explicit loops.
        rng = random.Random(424242)
        shapes = []
        for n_parties in (1, 2, 3, 4):
            for settings_per_site in itertools.product((1, 2, 3), repeat=n_parties):
                if sum(settings_per_site) <= 7:
                    shapes.append(settings_per_site)
        shapes = rng.sample(shapes, 25)
        for settings_per_site in shapes:
            sc = L.Scenario(settings_per_site, (2,) * len(settings_per_site))
            fam = L.random_scenario_family(sc, rng.randrange(10**6))
            mu = L.build_deterministic_measure(fam).measure
            assert mu.total_mass == 1
            for t in sc.setting_tuples():
                brute = brute_tuple_marginal(mu.atoms, sc.settings_per_site,
                                             sc.outcomes_per_site, t)
                assert np.array_equal(brute, fam.tables[t])

    @pytest.mark.parametrize("shape", [((2,) * 4, (2,) * 4), ((1, 2, 3), (2, 2, 2)),
                                       ((3, 2, 2), (2, 3, 2))], ids=str)
    def test_subset_sum_oracle(self, shape):
        fam = L.random_scenario_family(L.Scenario(*shape), seed=5)
        atoms = L.build_deterministic_measure(fam).measure.atoms
        assert np.array_equal(atoms, subset_sum_measure(fam.tables, *shape, Fraction(0)))
        as_float = L.convert_family(fam, L.FLOAT)
        float_atoms = L.build_deterministic_measure(as_float).measure.atoms
        expected = subset_sum_measure(as_float.tables, *shape, 0.0).astype(float)
        assert np.abs(float_atoms - expected).max() <= 1e-12

    def test_temporaries_stay_near_joint_size(self):
        # One site with many settings: a dense per-site operator or 0/1
        # selector would take S_n or S_n^2 times the joint space.
        sc = L.Scenario((1, 12), (2, 2))
        fam = L.convert_family(L.random_scenario_family(sc, seed=7), L.FLOAT)
        marginals = L.extract_marginal_family(fam)
        joint_bytes = sc.joint_size * 8
        tracemalloc.start()
        try:
            mu = L.build_deterministic_measure(marginals).measure
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            L.verify_marginals(mu, fam)
            verify_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert build_peak <= 8 * joint_bytes
        assert verify_peak <= 4 * joint_bytes

    @pytest.mark.parametrize("mode", [L.RATIONAL, L.FLOAT])
    @pytest.mark.parametrize("shape", [((2, 2), (2, 2)), ((1, 3), (3, 2)), ((3,), (4,)),
                                       ((2,) * 5, (2,) * 5), ((3, 2, 2), (2, 3, 2)),
                                       ((4, 1, 2), (2, 3, 5)), ((5, 4), (4, 4))], ids=str)
    def test_same_numerators_from_any_blocking(self, shape, mode, monkeypatch):
        family = L.extract_marginal_family(L.random_scenario_family(L.Scenario(*shape), 3, mode))
        default = L.build_deterministic_measure(family).measure
        monkeypatch.setattr(construct, "_BLOCK", 1)
        one_row = L.build_deterministic_measure(family).measure
        assert one_row.denominator == default.denominator
        assert one_row.numerators.dtype == default.numerators.dtype
        assert np.array_equal(one_row.numerators, default.numerators)

    def test_single_site_past_int64_builds(self):
        # one site sums to one Python int, which must not become an int64
        q = 2**61 + 1
        family = L.DistributionFamily(
            L.Scenario((3,), (2,)), {(s,): [Fraction(1, q), 1 - Fraction(1, q)] for s in (1, 2, 3)})
        mu = L.build_deterministic_measure(family).measure
        assert mu.total_mass == 1
        assert L.verify_marginals(mu, family).max_error == 0

    def test_rational_build_peaks_near_the_measure(self):
        # (5,4)/(4,4): 262,144 atoms, about 3 MiB held as Python ints, and
        # one block of temporaries beside them
        family = L.extract_marginal_family(
            L.random_scenario_family(L.Scenario((5, 4), (4, 4)), 3, L.RATIONAL))
        tracemalloc.start()
        try:
            mu = L.build_deterministic_measure(family).measure
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * held

    def test_float_mode_build(self):
        fam = L.convert_family(L.random_nonsignaling_family(11), L.FLOAT, tol=1e-9)
        mu = L.build_deterministic_measure(fam).measure
        assert abs(mu.total_mass - 1.0) <= 1e-12
        report = L.verify_marginals(L.DeterministicLqHVModel(mu), fam)
        assert report.max_error <= 1e-9
        assert L.verify_marginals(mu, fam) == report


class TestVerifyMarginals:
    def test_model_scenario_is_its_measures(self):
        model = L.build_deterministic_measure(L.pr_box())
        assert model.scenario is model.measure.scenario
        assert model.scenario == L.CHSH_SCENARIO

    def test_exact_on_pr_box(self):
        model = L.build_deterministic_measure(L.pr_box())
        report = L.verify_marginals(model, L.pr_box())
        assert report.max_error == 0
        assert report.min_reproduced == 0

    def test_detects_injected_perturbation(self):
        pr = L.pr_box()
        model = L.build_deterministic_measure(pr)
        shifted = {}
        eps = Fraction(1, 1000)
        for t, table in pr.tables.items():
            table = np.array(table, dtype=object)
            if t == (1, 1):
                table[0, 0] -= eps
                table[0, 1] += eps
            shifted[t] = table
        fam = L.DistributionFamily(pr.scenario, shifted, L.RATIONAL)
        report = L.verify_marginals(model, fam)
        assert report.max_error >= eps

    def test_negative_reproduction_raises(self):
        sc = L.Scenario((1,), (2,))
        atoms = np.array([Fraction(3, 2), Fraction(-1, 2)], dtype=object)
        mu = L.SignedMeasure(sc, atoms)
        fam = L.DistributionFamily(
            sc, {(1,): np.array([Fraction(1, 2), Fraction(1, 2)], dtype=object)})
        # a rational family's floor is exactly 0
        with pytest.raises(RepresentationError):
            L.verify_marginals(mu, fam)

    def test_shape_mismatch_rejected(self):
        model = L.build_deterministic_measure(L.pr_box())
        fam3 = L.uniform_family(L.Scenario((2, 2, 2), (2, 2, 2)))
        with pytest.raises(InputError):
            L.verify_marginals(model, fam3)


class TestInducedFamily:
    def test_round_trip(self):
        pr = L.pr_box()
        mu = L.build_deterministic_measure(pr).measure
        induced = L.induced_family(mu)
        for t in pr.scenario.setting_tuples():
            assert np.array_equal(induced.tables[t], pr.tables[t])

    def test_nonsignaling_by_construction(self):
        # Necessity direction: any single measure with nonnegative
        # full-tuple marginals induces a family that passes the check.
        rng = random.Random(99)
        sc = L.Scenario((2, 2), (2, 2))
        base = L.build_deterministic_measure(L.uniform_family(sc)).measure
        for _ in range(15):
            raw = [Fraction(rng.randrange(-5, 6)) for _ in range(base.atoms.size - 1)]
            raw.append(-sum(raw))
            bump = np.array(raw, dtype=object).reshape(base.atoms.shape)
            worst = Fraction(0)
            for t in sc.setting_tuples():
                m = brute_tuple_marginal(bump, sc.settings_per_site, sc.outcomes_per_site, t)
                worst = min(worst, min(m.reshape(-1)))
            scale = Fraction(1, 16) / (2 * (1 - worst))
            atoms = base.atoms + scale * bump
            mu = L.SignedMeasure(sc, atoms)
            fam = L.induced_family(mu)
            assert L.check_nonsignaling(fam) is None

    def test_negative_induced_table_raises(self):
        sc = L.Scenario((1, 1), (2, 2))
        atoms = np.array([[Fraction(3, 4), Fraction(1, 2)],
                          [Fraction(-1, 2), Fraction(1, 4)]], dtype=object)
        mu = L.SignedMeasure(sc, atoms)
        with pytest.raises(RepresentationError):
            L.induced_family(mu)


class TestJordan:
    def test_atomwise_split(self):
        sc = L.Scenario((1,), (3,))
        atoms = np.array([Fraction(1, 2), Fraction(3, 4), Fraction(-1, 4)], dtype=object)
        mu = L.SignedMeasure(sc, atoms)
        jd = L.jordan_decompose(mu)
        assert list(jd.positive_part) == [Fraction(1, 2), Fraction(3, 4), Fraction(0)]
        assert list(jd.negative_part) == [Fraction(0), Fraction(0), Fraction(1, 4)]
        assert jd.total_variation == Fraction(3, 2)

    def test_probability_measure(self):
        mu = L.build_deterministic_measure(L.uniform_family(L.CHSH_SCENARIO)).measure
        jd = L.jordan_decompose(mu)
        assert jd.total_variation == 1
        assert not jd.negative_part.any()

    def test_pr_box_total_variation(self):
        mu = L.build_deterministic_measure(L.pr_box()).measure
        jd = L.jordan_decompose(mu)
        assert jd.total_variation == 2
        flat = list(mu.atoms.reshape(-1))
        assert flat.count(Fraction(3, 16)) == 8
        assert flat.count(Fraction(-1, 16)) == 8

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.fractions(min_value=-3, max_value=3), min_size=2, max_size=9))
    def test_reconstruction_and_disjointness(self, values):
        total = sum(values)
        values = list(values) + [1 - total]
        sc = L.Scenario((1,), (len(values),))
        mu = L.SignedMeasure(sc, np.array(values, dtype=object))
        jd = L.jordan_decompose(mu)
        assert np.array_equal(jd.positive_part - jd.negative_part, mu.atoms)
        assert not (jd.positive_part * jd.negative_part).any()
        assert jd.total_variation >= 1


    def test_total_variation_peak_stays_near_the_measure(self):
        # 2^20 atoms, 64 leaves; the parts are not built for the sum
        mu = random_float_measure(L.Scenario((5, 5), (4, 4)).joint_shape)
        tracemalloc.start()
        try:
            L.jordan_decompose(mu).total_variation
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * mu.numerators.nbytes

    def test_rational_split_peak_stays_near_the_measure(self):
        family = L.extract_marginal_family(
            L.random_scenario_family(L.Scenario((5, 4), (4, 4)), 3, L.RATIONAL))
        tracemalloc.start()
        try:
            mu = L.build_deterministic_measure(family).measure
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            L.jordan_decompose(mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the measure, about 3 MiB of Python ints, plus one leaf
        assert peak <= 1.1 * held

    @pytest.mark.parametrize("leaf", [1, 8, 128, None], ids=["leaf1", "leaf8", "leaf128", "default"])
    @pytest.mark.parametrize("size", [1, 127, 128, 129, 2**14 + 1, 2**16 + 13, 1_000_003])
    def test_total_variation_has_the_bits_of_numpys_sum(self, size, leaf, monkeypatch):
        mu = random_float_measure((size,))
        x = mu.numerators
        if leaf is not None:
            monkeypatch.setattr(construct, "_BLOCK", leaf)
        total = L.jordan_decompose(mu).total_variation
        assert total == np.maximum(x, 0).sum() + np.maximum(-x, 0).sum()

    def test_parts_are_built_on_first_access(self):
        mu = L.build_deterministic_measure(L.pr_box(L.FLOAT)).measure
        jd = L.jordan_decompose(mu)
        assert jd.numerators is mu.numerators
        assert "positive_numerators" not in vars(jd)
        assert jd.positive_numerators is jd.positive_numerators
        assert not jd.positive_numerators.flags.writeable
        assert not jd.negative_numerators.flags.writeable
        assert jd.total_variation == jd.positive_numerators.sum() + jd.negative_numerators.sum()


class TestDeterminize:
    def test_single_point_hidden_space(self):
        q11 = [Fraction(1, 3), Fraction(2, 3)]
        q21 = [Fraction(1, 4), Fraction(3, 4)]
        q22 = [Fraction(1, 2), Fraction(1, 2)]
        model = L.StochasticLqHVModel([Fraction(1)], [[[q11]], [[q21], [q22]]])
        sc = L.Scenario((1, 2), (2, 2))
        det = L.determinize(model, sc)
        expected = np.multiply.outer(
            np.array(q11, dtype=object),
            np.multiply.outer(np.array(q21, dtype=object), np.array(q22, dtype=object)))
        assert np.array_equal(det.measure.atoms, expected)

    def test_two_point_deterministic_conditionals(self):
        one, zero = Fraction(1), Fraction(0)
        site1 = [[[one, zero], [zero, one]]]
        site2 = [[[zero, one], [one, zero]]]
        model = L.StochasticLqHVModel([Fraction(1, 2), Fraction(1, 2)], [site1, site2])
        sc = L.Scenario((1, 1), (2, 2))
        det = L.determinize(model, sc)
        expected = np.zeros((2, 2), dtype=object)
        expected[...] = Fraction(0)
        expected[0, 1] = Fraction(1, 2)
        expected[1, 0] = Fraction(1, 2)
        assert np.array_equal(det.measure.atoms, expected)

    def test_signed_weights_combine_products(self):
        t1 = ([Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)])
        t2 = ([Fraction(1, 4), Fraction(3, 4)], [Fraction(1), Fraction(0)])
        model = L.StochasticLqHVModel(
            [Fraction(2), Fraction(-1)],
            [[[t1[0], t2[0]]], [[t1[1], t2[1]]]])
        sc = L.Scenario((1, 1), (2, 2))
        det = L.determinize(model, sc)
        expected = (2 * np.multiply.outer(np.array(t1[0], dtype=object),
                                          np.array(t1[1], dtype=object))
                    - np.multiply.outer(np.array(t2[0], dtype=object),
                                        np.array(t2[1], dtype=object)))
        assert np.array_equal(det.measure.atoms, expected)

    def test_random_models_preserve_tables(self):
        rng = random.Random(2024)
        for _ in range(10):
            n_parties = rng.randrange(1, 4)
            settings_per_site = tuple(rng.randrange(1, 3) for _ in range(n_parties))
            outcomes_per_site = tuple(rng.randrange(2, 4) for _ in range(n_parties))
            omega = rng.randrange(1, 9)
            model = random_stochastic_model(rng, settings_per_site, outcomes_per_site, omega)
            sc = L.Scenario(settings_per_site, outcomes_per_site)
            det = L.determinize(model, sc)
            for t in sc.setting_tuples():
                oracle = brute_stochastic_table(model.nu, model.conditionals, t)
                assert np.array_equal(oracle, model.joint_table(t))
                assert np.array_equal(oracle, det.measure.marginal(t))

    def test_float_weights_passing_their_check_determinize(self, monkeypatch):
        # nu sums to 1 + 5e-10, inside the default 1e-9, and so does the measure
        monkeypatch.delenv("LQHV_TOL", raising=False)
        rows = [[[0.25, 0.75], [0.5, 0.5]]]
        model = L.StochasticLqHVModel([0.5, 0.5 + 5e-10], [rows, rows], L.FLOAT)
        measure = L.determinize(model, L.Scenario((1, 1), (2, 2))).measure
        assert measure.total_mass == pytest.approx(1 + 5e-10, abs=1e-15)

    def test_oversized_joint_space_refused_before_allocation(self):
        # 2^24 * 2 atoms, over the default budget; one hidden point
        half = [[Fraction(1, 2), Fraction(1, 2)]]
        model = L.StochasticLqHVModel([Fraction(1)], [[half] * 24, [half]])
        sc = L.Scenario((24, 1), (2, 2))
        assert sc.joint_size > L.DEFAULT_ATOM_BUDGET
        tracemalloc.start()
        try:
            with pytest.raises(AtomBudgetError, match="over the budget"):
                L.determinize(model, sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_scenario_mismatch_rejected(self):
        model = L.StochasticLqHVModel([Fraction(1)], [[[[Fraction(1, 2), Fraction(1, 2)]]]])
        with pytest.raises(InputError):
            L.determinize(model, L.Scenario((2,), (2,)))

    def test_conditional_rows_must_be_probabilities(self):
        with pytest.raises(InputError, match="negative conditional"):
            L.StochasticLqHVModel(
                [Fraction(1)], [[[[Fraction(3, 2), Fraction(-1, 2)]]]])
        with pytest.raises(InputError, match="sums to"):
            L.StochasticLqHVModel([Fraction(1)], [[[[Fraction(1, 2), Fraction(1, 3)]]]])
        with pytest.raises(InputError, match="shaped"):
            L.StochasticLqHVModel([Fraction(1)], [[[[]]]])

    def test_float_model_arrays_are_read_only(self):
        model = L.StochasticLqHVModel([0.5, 0.5], [[[[1.0], [1.0]]]], L.FLOAT)
        for arr in (model.nu, model.conditionals[0][0]):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 3

    def test_nu_must_normalize(self):
        with pytest.raises(InputError, match="nu sums"):
            L.StochasticLqHVModel(
                [Fraction(1), Fraction(1)],
                [[[[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]]])


class TestExpectations:
    def test_pr_box_correlators(self):
        pr = L.pr_box()
        pm = [Fraction(1), Fraction(-1)]
        obs = [pm, pm]
        for t in [(1, 1), (1, 2), (2, 1)]:
            assert L.product_expectation_family(pr, t, obs) == 1
        assert L.product_expectation_family(pr, (2, 2), obs) == -1

    def test_constant_observables_normalization(self):
        fam = L.random_nonsignaling_family(5)
        ones = [[Fraction(1)] * 2, [Fraction(1)] * 2]
        for t in fam.scenario.setting_tuples():
            assert L.product_expectation_family(fam, t, ones) == 1
        model = L.build_deterministic_measure(fam)
        for t in fam.scenario.setting_tuples():
            assert L.product_expectation_model(model, t, ones) == 1

    def test_uniform_family_odd_observables(self):
        fam = L.uniform_family(L.CHSH_SCENARIO)
        pm = [Fraction(1), Fraction(-1)]
        for t in fam.scenario.setting_tuples():
            assert L.product_expectation_family(fam, t, [pm, pm]) == 0

    def test_model_side_pr_box(self):
        model = L.build_deterministic_measure(L.pr_box())
        pm = [Fraction(1), Fraction(-1)]
        assert L.product_expectation_model(model, (2, 2), [pm, pm]) == -1

    def test_product_family_factorizes(self):
        p = [Fraction(1, 3), Fraction(2, 3)]
        q = [Fraction(1, 4), Fraction(3, 4)]
        sc = L.Scenario((1, 1), (2, 2))
        table = np.multiply.outer(np.array(p, dtype=object), np.array(q, dtype=object))
        fam = L.DistributionFamily(sc, {(1, 1): table})
        model = L.build_deterministic_measure(fam)
        phi = [Fraction(2), Fraction(-1)]
        psi = [Fraction(0), Fraction(5)]
        want = (sum(f * v for f, v in zip(p, phi))
                * sum(f * v for f, v in zip(q, psi)))
        assert L.product_expectation_family(fam, (1, 1), [phi, psi]) == want
        assert L.product_expectation_model(model, (1, 1), [phi, psi]) == want

    def test_two_routes_agree_randomized(self):
        rng = random.Random(31)
        for seed in range(6):
            fam = L.random_nonsignaling_family(seed)
            model = L.build_deterministic_measure(fam)
            obs = [[Fraction(rng.randrange(-4, 5)) for _ in range(2)] for _ in range(2)]
            for t in fam.scenario.setting_tuples():
                fam_side = L.product_expectation_family(fam, t, obs)
                model_side = L.product_expectation_model(model, t, obs)
                assert fam_side == model_side

    def test_size_mismatch_rejected(self):
        pr = L.pr_box()
        with pytest.raises(InputError):
            L.product_expectation_family(pr, (1, 1), [[1, -1, 0], [1, -1]])

    @pytest.mark.parametrize("obs", [[[1e308, 1e308], [1e308, 1e308]],
                                     [[1e308, -1e308], [1e308, 1e308]]],
                             ids=["overflow", "inf-minus-inf"])
    def test_float_values_past_the_float_range_are_refused(self, obs):
        pr = L.pr_box(L.FLOAT)
        model = L.build_deterministic_measure(pr)
        with pytest.raises(InputError, match="float range"):
            L.product_expectation_family(pr, (1, 1), obs)
        with pytest.raises(InputError, match="float range"):
            L.product_expectation_model(model, (1, 1), obs)


class TestTupleMarginalsAdjoint:
    """The adjoint prices y.A column by column: it is A^T y for the 0/1
    constraint matrix built one joint point at a time."""

    @pytest.mark.parametrize("settings,outcomes", [
        ((2, 2), (2, 2)), ((3, 1), (2, 3)), ((2, 1, 2), (2, 3, 2)), ((1, 1), (3, 2)),
        ((1,), (4,)), ((2, 3), (1, 2)), ((2, 2), (1, 1)), ((1, 2, 1), (2, 1, 3))], ids=str)
    def test_matches_brute_transpose(self, settings, outcomes):
        sc = L.Scenario(settings, outcomes)
        a = np.array(brute_marginal_matrix(settings, outcomes), dtype=object)
        stacked = sc.settings_per_site + sc.table_shape
        rng = random.Random(hash((settings, outcomes)))
        y = np.array([rng.randrange(-10**20, 10**20) for _ in range(a.shape[0])], dtype=object)
        got = _tuple_marginals_adjoint(y.reshape(stacked), sc)
        assert got.shape == sc.joint_shape
        assert np.array_equal(got.reshape(-1), a.T.dot(y))
        floats = np.array([rng.uniform(-1, 1) for _ in range(2 * a.shape[0])]).reshape(-1, 2)
        got = _tuple_marginals_adjoint(floats.reshape(stacked + (2,)), sc)
        assert got.shape == (2,) + sc.joint_shape
        expected = a.T.astype(float) @ floats
        assert np.abs(got.reshape(2, -1) - expected.T).max() <= 1e-12
