"""Scenario data model, marginalization and consistency checkers."""

import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqhv as L
from lqhv.errors import InputError, SignalingError
from oracles import all_pairs_check, loop_marginal, subset_reduction_check

# (settings per site, outcomes per site)
ORACLE_SHAPES = [((2, 2), (2, 2)), ((3, 3), (2, 2)), ((1, 3), (2, 3)), ((3, 2), (2, 3)),
                 ((2, 2, 2), (2, 2, 2)), ((2,) * 4, (2,) * 4)]


def _family_2x2(tables, mode=L.RATIONAL):
    return L.DistributionFamily(L.Scenario((2, 2), (2, 2)), tables, mode)


def dyadic_tables(scenario, rng):
    """Mixture of eight random local deterministic strategies, weight 1/8 each.

    Entries are dyadic, so float sums of them are exact and both modes
    give the same numbers.
    """
    strategies = [[[rng.randrange(k) for _ in range(s)]
                   for s, k in zip(scenario.settings_per_site, scenario.outcomes_per_site)]
                  for _ in range(8)]
    tables = {}
    for t in scenario.setting_tuples():
        table = np.full(scenario.table_shape, Fraction(0), dtype=object)
        for strategy in strategies:
            table[tuple(choice[s - 1] for choice, s in zip(strategy, t))] += Fraction(1, 8)
        tables[t] = table
    return tables


def perturbed(tables, rng):
    """Copy of the tables with half of some occupied cells' mass moved elsewhere."""
    out = {t: table.copy() for t, table in tables.items()}
    for _ in range(rng.randrange(1, 4)):
        table = out[rng.choice(sorted(out))]
        cells = list(np.ndindex(*table.shape))
        source = rng.choice([c for c in cells if table[c] > 0])
        target = rng.choice([c for c in cells if c != source])
        moved = table[source] / 2
        table[source] -= moved
        table[target] += moved
    return out


def product_family(p_rows, q_rows):
    """P_{(s1,s2)} = p_{s1} (x) q_{s2} from per-setting rational vectors."""
    scenario = L.Scenario((len(p_rows), len(q_rows)), (len(p_rows[0]), len(q_rows[0])))
    tables = {}
    for s1, p in enumerate(p_rows, start=1):
        for s2, q in enumerate(q_rows, start=1):
            tables[(s1, s2)] = np.multiply.outer(
                np.array([Fraction(v) for v in p], dtype=object),
                np.array([Fraction(v) for v in q], dtype=object))
    return L.DistributionFamily(scenario, tables, L.RATIONAL)


class TestScenario:
    def test_axis_layout(self):
        sc = L.Scenario((2, 3), (2, 4))
        assert sc.joint_shape == (2, 2, 4, 4, 4)
        assert sc.axis_index(1, 1) == 0
        assert sc.axis_index(1, 2) == 1
        assert sc.axis_index(2, 1) == 2
        assert sc.axis_index(2, 3) == 4
        assert sc.joint_size == 2 * 2 * 4 * 4 * 4

    def test_setting_tuples_lexicographic(self):
        sc = L.Scenario((2, 2), (2, 2))
        assert sc.setting_tuples() == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_degenerate_sizes_allowed(self):
        sc = L.Scenario((1,), (3,))
        assert sc.n_parties == 1
        assert sc.joint_shape == (3,)

    def test_bad_shapes_rejected(self):
        with pytest.raises(InputError):
            L.Scenario((), ())
        with pytest.raises(InputError):
            L.Scenario((0, 2), (2, 2))
        with pytest.raises(InputError):
            L.Scenario((2,), (2, 2))

    def test_huge_joint_size_is_exact(self):
        sc = L.Scenario((64, 64), (2, 2))
        assert sc.joint_size == 2**128


class TestDistributionFamily:
    def test_requires_every_tuple(self):
        half = Fraction(1, 2)
        table = np.array([[half, 0], [0, half]], dtype=object)
        with pytest.raises(InputError, match="missing tables"):
            _family_2x2({(1, 1): table})

    def test_rejects_denormalized_tables(self):
        bad = np.array([[Fraction(1, 2), 0], [0, Fraction(1, 3)]], dtype=object)
        tables = {t: bad for t in L.Scenario((2, 2), (2, 2)).setting_tuples()}
        with pytest.raises(InputError, match="never renormalized"):
            _family_2x2(tables)
        # a rational family's tolerance is 0 whatever is passed
        for tol in (0, 0.5):
            with pytest.raises(InputError, match="never renormalized"):
                L.DistributionFamily(L.CHSH_SCENARIO, tables, L.RATIONAL, tol=tol)
            assert L.DistributionFamily.from_stacked(L.CHSH_SCENARIO, L.pr_box().stacked,
                                                     tol=tol).tol == 0

    def test_rejects_negative_entries(self):
        bad = np.array([[Fraction(3, 2), 0], [0, Fraction(-1, 2)]], dtype=object)
        tables = {t: bad for t in L.Scenario((2, 2), (2, 2)).setting_tuples()}
        with pytest.raises(InputError, match="negative"):
            _family_2x2(tables)

    def test_table_count_checked_before_tuples(self, monkeypatch):
        def refuse(self):
            raise AssertionError("setting tuples were materialized")

        monkeypatch.setattr(L.Scenario, "setting_tuples", refuse)
        sc = L.Scenario((100, 100, 100), (2, 2, 2))
        with pytest.raises(InputError, match="0 tables given for 1000000 setting tuples"):
            L.DistributionFamily(sc, {})

    def test_stacked_layout_matches_tables(self):
        fam = L.random_scenario_family(L.Scenario((3, 2), (2, 3)), seed=3)
        assert fam.stacked.shape == (3, 2, 2, 3)
        assert not fam.stacked.flags.writeable
        for (s1, s2), table in fam.tables.items():
            assert np.array_equal(fam.stacked[s1 - 1, s2 - 1], table)

    @pytest.mark.parametrize("mode", [L.RATIONAL, L.FLOAT])
    def test_from_stacked_fails_like_the_mapping(self, mode):
        sc = L.Scenario((2, 2), (2, 2))
        half = Fraction(1, 2)
        good = np.array([[half, 0], [0, half]], dtype=object)
        for bad in (np.array([[Fraction(3, 2), 0], [0, Fraction(-1, 2)]], dtype=object),
                    np.array([[half, 0], [0, Fraction(1, 3)]], dtype=object)):
            tables = {t: good for t in sc.setting_tuples()}
            tables[(2, 1)] = bad
            with pytest.raises(InputError) as from_mapping:
                L.DistributionFamily(sc, tables, mode)
            stacked = np.stack([tables[t] for t in sc.setting_tuples()]).reshape(2, 2, 2, 2)
            with pytest.raises(InputError) as from_stacked:
                L.DistributionFamily.from_stacked(sc, stacked, mode)
            assert "table (2, 1)" in str(from_mapping.value)
            assert str(from_stacked.value) == str(from_mapping.value)
        # a wrong shape fails in the shared coercion, which names the shape it expected
        with pytest.raises(InputError, match=r"expected \(2, 2\) = 4 entries, got 3"):
            L.DistributionFamily(sc, {t: [half, half, 0] for t in sc.setting_tuples()}, mode)
        with pytest.raises(InputError, match=r"expected \(2, 2, 2, 2\) = 16 entries, got 12"):
            L.DistributionFamily.from_stacked(sc, np.full((2, 2, 3), half), mode)

    @pytest.mark.parametrize("mode", [L.RATIONAL, L.FLOAT])
    def test_from_stacked_copies_its_input(self, mode):
        sc = L.Scenario((2, 2), (2, 2))
        quarter = Fraction(1, 4) if mode == L.RATIONAL else 0.25
        source = np.full((2, 2, 2, 2), quarter)
        fam = L.DistributionFamily.from_stacked(sc, source, mode)
        source[0, 0, 0, 0] = 7
        assert fam.table((1, 1))[0, 0] == quarter
        assert not fam.stacked.flags.writeable
        assert all(not table.flags.writeable for table in fam.tables.values())
        mapped = L.DistributionFamily(sc, {t: np.full((2, 2), quarter) for t in sc.setting_tuples()},
                                      mode)
        assert np.array_equal(fam.stacked, mapped.stacked)
        assert fam.stacked.dtype == mapped.stacked.dtype

    def test_float_tolerance_on_sums(self):
        table = np.full((2, 2), 0.25) + 1e-12
        tables = {t: table for t in L.Scenario((2, 2), (2, 2)).setting_tuples()}
        fam = L.DistributionFamily(L.Scenario((2, 2), (2, 2)), tables, L.FLOAT)
        assert fam.mode == L.FLOAT


class TestMarginalize:
    def test_perfect_correlation_row_sums(self):
        half = Fraction(1, 2)
        table = np.array([[half, 0], [0, half]], dtype=object)
        fam = _family_2x2({t: table for t in L.CHSH_SCENARIO.setting_tuples()})
        marg = L.marginalize(fam, (1, 1), [1])
        assert list(marg) == [half, half]

    def test_product_table_recovers_factor(self):
        fam = product_family([[Fraction(1, 3), Fraction(2, 3)]],
                             [[Fraction(1, 4), Fraction(3, 4)]])
        assert list(L.marginalize(fam, (1, 1), [1])) == [Fraction(1, 3), Fraction(2, 3)]
        assert list(L.marginalize(fam, (1, 1), [2])) == [Fraction(1, 4), Fraction(3, 4)]

    def test_pr_box_site_marginals_uniform(self):
        # Enumerating the 4 entries of each xor-constrained table: each
        # outcome of either site keeps exactly half of the mass.
        pr = L.pr_box()
        for t in pr.scenario.setting_tuples():
            for site in (1, 2):
                assert list(L.marginalize(pr, t, [site])) == [Fraction(1, 2), Fraction(1, 2)]

    def test_full_set_is_identity(self):
        pr = L.pr_box()
        assert np.array_equal(L.marginalize(pr, (1, 2), [1, 2]), pr.table((1, 2)))

    def test_composition_consistency(self):
        sc = L.Scenario((2, 2, 2), (2, 2, 2))
        fam = L.random_scenario_family(sc, seed=7)
        via_pair = L.marginalize(fam, (1, 2, 1), [1, 3])
        direct = fam.table((1, 2, 1)).sum(axis=1)
        assert np.array_equal(via_pair, direct)
        # T -> T' chains agree with the direct jump
        onto_pair = L.marginalize(fam, (2, 1, 2), [2, 3])
        onto_single = onto_pair.sum(axis=1)
        assert np.array_equal(onto_single, L.marginalize(fam, (2, 1, 2), [2]))

    def test_unknown_tuple_rejected(self):
        pr = L.pr_box()
        with pytest.raises(InputError):
            L.marginalize(pr, (3, 1), [1])


class TestCheckNonsignaling:
    def test_pr_box_passes(self):
        assert L.check_nonsignaling(L.pr_box()) is None

    def test_product_family_passes(self):
        fam = product_family(
            [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 5), Fraction(4, 5)]],
            [[Fraction(1, 2), Fraction(1, 2)], [Fraction(3, 7), Fraction(4, 7)]])
        assert L.check_nonsignaling(fam) is None

    def test_signaling_example_witnessed(self):
        witness = L.check_nonsignaling(L.signaling_example())
        assert witness is not None
        assert witness.site_subset == (2,)
        assert witness.max_discrepancy == Fraction(1)
        assert witness.tuple_a != witness.tuple_b

    def test_single_site_vacuous(self):
        sc = L.Scenario((3,), (2,))
        half = Fraction(1, 2)
        tables = {t: np.array([half, half], dtype=object) for t in sc.setting_tuples()}
        fam = L.DistributionFamily(sc, tables, L.RATIONAL)
        assert L.check_nonsignaling(fam) is None

    def test_single_tuple_vacuous(self):
        sc = L.Scenario((1, 1), (2, 2))
        table = np.full((2, 2), Fraction(1, 4), dtype=object)
        fam = L.DistributionFamily(sc, {(1, 1): table}, L.RATIONAL)
        assert L.check_nonsignaling(fam) is None

    def test_float_tolerance_respected(self):
        eps = 1e-12
        tables = {}
        for t in L.CHSH_SCENARIO.setting_tuples():
            table = np.full((2, 2), 0.25)
            if t == (2, 2):
                table = np.array([[0.25 + eps, 0.25 - eps], [0.25, 0.25]])
            tables[t] = table
        loose = L.DistributionFamily(L.CHSH_SCENARIO, tables, L.FLOAT, tol=1e-9)
        tight = L.DistributionFamily(L.CHSH_SCENARIO, tables, L.FLOAT, tol=1e-15)
        assert L.check_nonsignaling(loose) is None
        assert L.check_nonsignaling(tight) is not None

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 8), min_size=24, max_size=24).filter(any))
    def test_vertex_mixtures_always_pass(self, weights):
        fam = L.random_nonsignaling_family(0, weights=weights)
        assert L.check_nonsignaling(fam) is None


class TestCheckAgainstAllPairsOracle:
    @pytest.mark.parametrize("mode", [L.RATIONAL, L.FLOAT])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=str)
    def test_witness_matches_oracle(self, shape, mode):
        scenario = L.Scenario(*shape)
        rng = random.Random(str(shape))
        as_mode = (lambda tables: tables) if mode == L.RATIONAL else (
            lambda tables: {t: table.astype(float) for t, table in tables.items()})
        threshold = 0 if mode == L.RATIONAL else 1e-9
        signaling = 0
        for _ in range(6):
            tables = dyadic_tables(scenario, rng)
            assert L.check_nonsignaling(L.DistributionFamily(scenario, as_mode(tables), mode)) is None
            assert all_pairs_check(as_mode(tables), *shape, threshold) is None

            bent = as_mode(perturbed(tables, rng))
            family = L.DistributionFamily(scenario, bent, mode)
            witness = L.check_nonsignaling(family)
            expected = all_pairs_check(bent, *shape, threshold)
            if expected is None:
                assert witness is None
                continue
            signaling += 1
            subset, common, _, _, discrepancy = expected
            assert (witness.site_subset, witness.common_settings) == (subset, common)
            assert witness.max_discrepancy == discrepancy
            assert witness.tuple_a < witness.tuple_b
            keep = [n - 1 for n in subset]
            for t in (witness.tuple_a, witness.tuple_b):
                assert tuple(t[m] for m in keep) == common
            ma = loop_marginal(bent[witness.tuple_a], shape[1], keep)
            mb = loop_marginal(bent[witness.tuple_b], shape[1], keep)
            assert max(abs(ma[k] - mb[k]) for k in ma) == discrepancy
        assert signaling > 0


def _fields(witness):
    return None if witness is None else (witness.site_subset, witness.common_settings,
                                         witness.tuple_a, witness.tuple_b, witness.max_discrepancy)


def float_signaling(family, rng):
    """Float copy of a family in which one table moves mass between two
    cells that differ in one site's outcome; sums stay 1."""
    stacked = np.array(family.stacked, dtype=float)
    scenario = family.scenario
    table = stacked[tuple(rng.randrange(s) for s in scenario.settings_per_site)]
    site = rng.choice([m for m, k in enumerate(scenario.outcomes_per_site) if k > 1])
    src = np.unravel_index(int(np.argmax(table)), table.shape)
    dst = list(src)
    dst[site] = (src[site] + 1) % table.shape[site]
    delta = table[src] * rng.uniform(0.2, 0.8)
    table[src] -= delta
    table[tuple(dst)] += delta
    return L.DistributionFamily.from_stacked(scenario, stacked, L.FLOAT)


# up to four sites, each with 1-3 settings and 1-3 outcomes
SMALL_SHAPES = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=4)


class TestLatticeCheckAgainstSubsetReduction:
    @settings(max_examples=100, deadline=None)
    @given(SMALL_SHAPES, st.integers(0, 2**32 - 1))
    def test_rational_witness_matches_in_every_field(self, shape, seed):
        scenario = L.Scenario(*zip(*shape))
        rng = random.Random(seed)
        tables = dyadic_tables(scenario, rng)
        if len(list(np.ndindex(*scenario.table_shape))) > 1:
            tables = perturbed(tables, rng)
        family = L.DistributionFamily(scenario, tables, L.RATIONAL)
        assert _fields(L.check_nonsignaling(family)) == subset_reduction_check(family)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_float_verdict_and_discrepancy_match(self, n):
        scenario = L.Scenario((2,) * n, (2,) * n)
        rng = random.Random(n)
        for i in range(4):
            family = L.random_scenario_family(scenario, 100 * n + i, L.FLOAT)
            assert L.check_nonsignaling(family) is None
            assert subset_reduction_check(family) is None
            bent = float_signaling(family, rng)
            witness, expected = L.check_nonsignaling(bent), subset_reduction_check(bent)
            assert witness is not None and expected is not None
            assert abs(witness.max_discrepancy - expected[4]) <= 1e-12
            keep = [m - 1 for m in witness.site_subset]
            ma, mb = (loop_marginal(bent.tables[t], scenario.outcomes_per_site, keep)
                      for t in (witness.tuple_a, witness.tuple_b))
            assert abs(max(abs(ma[k] - mb[k]) for k in ma) - witness.max_discrepancy) <= 1e-12

    def test_peak_memory_stays_near_the_family(self):
        scenario = L.Scenario((2,) * 8, (2,) * 8)
        family = L.random_scenario_family(scenario, 8, L.FLOAT)
        bent = float_signaling(family, random.Random(8))
        for fam, passes in ((family, True), (bent, False)):
            tracemalloc.start()
            try:
                witness = L.check_nonsignaling(fam)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (witness is None) == passes
            assert peak <= 3 * fam.numerators.nbytes


class TestExtractMarginalFamily:
    def test_pr_box_marginals(self):
        marg = L.extract_marginal_family(L.pr_box())
        half = Fraction(1, 2)
        for site in (1, 2):
            for s in (1, 2):
                assert list(marg.get((site,), (s,))) == [half, half]
        for t in L.CHSH_SCENARIO.setting_tuples():
            assert np.array_equal(marg.get((1, 2), t), L.pr_box().tables[t])

    def test_product_family_factors(self):
        p = [[Fraction(1, 3), Fraction(2, 3)], [Fraction(2, 5), Fraction(3, 5)]]
        q = [[Fraction(1, 2), Fraction(1, 2)]]
        fam = product_family(p, q)
        marg = L.extract_marginal_family(fam)
        assert list(marg.get((1,), (2,))) == [Fraction(2, 5), Fraction(3, 5)]
        assert list(marg.get((2,), (1,))) == [Fraction(1, 2), Fraction(1, 2)]

    def test_single_tuple_scenario(self):
        sc = L.Scenario((1, 1), (2, 2))
        table = np.array([[Fraction(1, 2), Fraction(1, 4)],
                          [Fraction(1, 8), Fraction(1, 8)]], dtype=object)
        fam = L.DistributionFamily(sc, {(1, 1): table}, L.RATIONAL)
        marg = L.extract_marginal_family(fam)
        assert list(marg.get((1,), (1,))) == [Fraction(3, 4), Fraction(1, 4)]
        assert np.array_equal(marg.get((1, 2), (1, 1)), table)

    @pytest.mark.parametrize("sites, settings", [
        ((2, 1), (1, 1)), ((1, 1), (1, 1)), ((), ()), ((3,), (1,)),
        ((1,), (0,)), ((1,), (3,)), ((1, 2), (1,)), ((1,), (1, 2)),
    ])
    def test_get_rejects_bad_keys(self, sites, settings):
        marg = L.extract_marginal_family(L.pr_box())
        with pytest.raises(InputError):
            marg.get(sites, settings)

    @pytest.mark.parametrize("sites", [(2, 1), (1, 1), (), (3,)])
    def test_stacked_marginal_rejects_bad_sites(self, sites):
        marg = L.extract_marginal_family(L.pr_box())
        with pytest.raises(InputError):
            marg.stacked_marginal(sites)

    def test_signaling_raises_with_witness(self):
        with pytest.raises(SignalingError) as err:
            L.extract_marginal_family(L.signaling_example())
        assert err.value.witness.site_subset == (2,)
        # site 1's marginal moves by 2 eps with site 2's setting; a rational
        # family compares exactly
        eps = Fraction(1, 10**11)
        quarter = Fraction(1, 4)
        tables = {t: np.array([[quarter + (eps if t[1] == 2 else -eps), quarter],
                               [quarter - (eps if t[1] == 2 else -eps), quarter]], dtype=object)
                  for t in L.CHSH_SCENARIO.setting_tuples()}
        fam = L.DistributionFamily(L.CHSH_SCENARIO, tables, L.RATIONAL)
        with pytest.raises(SignalingError) as err:
            L.extract_marginal_family(fam)
        assert err.value.witness.max_discrepancy == 2 * eps

    def test_float_mode_averages(self):
        eps = 1e-11
        tables = {}
        for t in L.CHSH_SCENARIO.setting_tuples():
            shift = eps if t[1] == 2 else -eps
            tables[t] = np.array([[0.25 + shift, 0.25 - shift], [0.25, 0.25]])
        fam = L.DistributionFamily(L.CHSH_SCENARIO, tables, L.FLOAT, tol=1e-9)
        marg = L.extract_marginal_family(fam)
        # site-1 marginal at s1=1 averages the two compatible tuples
        assert marg.get((1,), (1,))[0] == pytest.approx(0.5, abs=1e-15)


class TestConvertFamily:
    def test_round_trip_decimalwise(self):
        fam = L.isotropic_box(Fraction(9, 20))
        as_float = L.convert_family(fam, L.FLOAT)
        back = L.convert_family(as_float, L.RATIONAL)
        for t in fam.scenario.setting_tuples():
            assert np.array_equal(back.tables[t], fam.tables[t])

    def test_same_mode_is_identity(self):
        fam = L.pr_box()
        assert L.convert_family(fam, L.RATIONAL) is fam


class TestCompareScenariosEpr:
    def test_reflexive(self):
        fam = L.isotropic_box(Fraction(1, 4))
        report = L.compare_scenarios_epr(fam, fam)
        assert report.passed
        assert report.max_discrepancy == 0

    def test_same_factors_different_correlations_pass(self):
        half = Fraction(1, 2)
        correlated = np.array([[half, 0], [0, half]], dtype=object)
        anti = np.array([[0, half], [half, 0]], dtype=object)
        sc = L.Scenario((2, 2), (2, 2))
        fam_a = L.DistributionFamily(sc, {t: correlated for t in sc.setting_tuples()})
        fam_b = L.DistributionFamily(sc, {t: anti for t in sc.setting_tuples()})
        report = L.compare_scenarios_epr(fam_a, fam_b)
        assert report.passed

    def test_detects_marginal_shift(self):
        p_a = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
        p_shift = [[Fraction(7, 10), Fraction(3, 10)], [Fraction(1, 2), Fraction(1, 2)]]
        q = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
        report = L.compare_scenarios_epr(product_family(p_a, q), product_family(p_shift, q))
        assert not report.passed
        assert report.max_discrepancy == Fraction(1, 5)
        assert report.site_subset == (1,)
        assert report.settings == (1,)

    @pytest.mark.parametrize("shape", ORACLE_SHAPES[2:], ids=str)
    def test_matches_loop_comparison(self, shape):
        scenario = L.Scenario(*shape)
        rng = random.Random(str(shape))
        tables_a, tables_b = dyadic_tables(scenario, rng), dyadic_tables(scenario, rng)
        report = L.compare_scenarios_epr(L.DistributionFamily(scenario, tables_a),
                                         L.DistributionFamily(scenario, tables_b))
        # both families are nonsignaling, so any compatible tuple's marginal will do
        worst, key = Fraction(0), (None, None)
        for size in range(1, scenario.n_parties):
            for sites in itertools.combinations(scenario.sites, size):
                keep = [n - 1 for n in sites]
                for common in itertools.product(*(range(1, shape[0][m] + 1) for m in keep)):
                    t = next(t for t in tables_a if tuple(t[m] for m in keep) == common)
                    ma = loop_marginal(tables_a[t], shape[1], keep)
                    mb = loop_marginal(tables_b[t], shape[1], keep)
                    d = max(abs(ma[k] - mb[k]) for k in ma)
                    if d > worst:
                        worst, key = d, (sites, common)
        assert report.max_discrepancy == worst
        assert (report.site_subset, report.settings) == key
        assert report.passed == (worst == 0)

    def test_structure_mismatch_rejected(self):
        with pytest.raises(InputError):
            L.compare_scenarios_epr(L.pr_box(), L.signaling_example())

    def test_each_family_is_checked_at_its_own_tolerance(self):
        # site 1's marginal moves by 2e-12 with site 2's setting
        tables = {t: np.array([[0.25 + (1e-12 if t[1] == 2 else -1e-12), 0.25],
                               [0.25 - (1e-12 if t[1] == 2 else -1e-12), 0.25]])
                  for t in L.CHSH_SCENARIO.setting_tuples()}
        loose = L.DistributionFamily(L.CHSH_SCENARIO, tables, L.FLOAT, tol=1e-9)
        tight = L.DistributionFamily(L.CHSH_SCENARIO, tables, L.FLOAT, tol=1e-15)
        assert L.compare_scenarios_epr(loose, loose).passed
        for a, b in ((loose, tight), (tight, loose)):
            with pytest.raises(SignalingError):
                L.compare_scenarios_epr(a, b)


@pytest.mark.parametrize("key", ["1,1", None, "12", (1.5, 1), (True, 1)], ids=repr)
def test_malformed_setting_tuple_keys_are_refused(key):
    message = re.escape(f"setting tuple {key!r} is not a sequence of integers")
    with pytest.raises(InputError, match=message):
        L.CHSH_SCENARIO.validate_setting_tuple(key)
    quarter = [Fraction(1, 4)] * 4
    tables = {t: quarter for t in L.CHSH_SCENARIO.setting_tuples() if t != (1, 1)}
    tables[key] = quarter
    with pytest.raises(InputError, match=message):
        L.DistributionFamily(L.CHSH_SCENARIO, tables)
