"""Scenario data model, marginalization and consistency checkers."""

import functools
import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lqhv as L
from lqhv import io
from lqhv import scenario as S
from lqhv.errors import InputError, SignalingError
from oracles import all_pairs_check, loop_marginal, marginalize, subset_reduction_check

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
        assert sc.coordinates == ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3))
        assert sc.joint_shape == (2, 2, 4, 4, 4)
        assert sc.axis_index(1, 1) == 0
        assert sc.axis_index(1, 2) == 1
        assert sc.axis_index(2, 1) == 2
        assert sc.axis_index(2, 3) == 4
        assert sc.joint_size == 2 * 2 * 4 * 4 * 4
        # the joint axes, their indices and the exported axes all follow `coordinates`
        assert sc.joint_shape == tuple(sc.outcomes_per_site[n - 1] for n, _ in sc.coordinates)
        assert [sc.axis_index(n, s) for n, s in sc.coordinates] == list(range(5))
        measure = L.SignedMeasure(sc, np.full(sc.joint_shape, 1 / sc.joint_size), L.FLOAT)
        axes = io.measure_to_json(measure)["axes"]
        assert [(ax["site"], ax["setting"]) for ax in axes] == list(sc.coordinates)
        assert [ax["outcomes"] for ax in axes] == list(sc.joint_shape)

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
        marg = marginalize(fam, (1, 1), [1])
        assert list(marg) == [half, half]

    def test_product_table_recovers_factor(self):
        fam = product_family([[Fraction(1, 3), Fraction(2, 3)]],
                             [[Fraction(1, 4), Fraction(3, 4)]])
        assert list(marginalize(fam, (1, 1), [1])) == [Fraction(1, 3), Fraction(2, 3)]
        assert list(marginalize(fam, (1, 1), [2])) == [Fraction(1, 4), Fraction(3, 4)]

    def test_pr_box_site_marginals_uniform(self):
        # Enumerating the 4 entries of each xor-constrained table: each
        # outcome of either site keeps exactly half of the mass.
        pr = L.pr_box()
        for t in pr.scenario.setting_tuples():
            for site in (1, 2):
                assert list(marginalize(pr, t, [site])) == [Fraction(1, 2), Fraction(1, 2)]

    def test_full_set_is_identity(self):
        pr = L.pr_box()
        assert np.array_equal(marginalize(pr, (1, 2), [1, 2]), pr.table((1, 2)))

    def test_composition_consistency(self):
        sc = L.Scenario((2, 2, 2), (2, 2, 2))
        fam = L.random_scenario_family(sc, seed=7)
        via_pair = marginalize(fam, (1, 2, 1), [1, 3])
        direct = fam.table((1, 2, 1)).sum(axis=1)
        assert np.array_equal(via_pair, direct)
        # T -> T' chains agree with the direct jump
        onto_pair = marginalize(fam, (2, 1, 2), [2, 3])
        onto_single = onto_pair.sum(axis=1)
        assert np.array_equal(onto_single, marginalize(fam, (2, 1, 2), [2]))

    def test_unknown_tuple_rejected(self):
        pr = L.pr_box()
        with pytest.raises(InputError):
            marginalize(pr, (3, 1), [1])


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


def _exact_fields(witness):
    """Every witness field, the discrepancy by repr so its type counts too."""
    return None if witness is None else (*_fields(witness)[:4], repr(witness.max_discrepancy))


class TestCheckAgainstTheWalk:
    """`check_nonsignaling` gives the walk's witness, bit for bit, whether
    the per-site test or the walk decides the family."""

    @settings(max_examples=150, deadline=None)
    @given(SMALL_SHAPES, st.integers(0, 2**32 - 1), st.sampled_from([L.RATIONAL, L.FLOAT]),
           st.booleans())
    def test_equal_witness_in_every_field(self, shape, seed, mode, bend):
        scenario = L.Scenario(*zip(*shape))
        rng = random.Random(seed)
        family = L.random_scenario_family(scenario, seed, mode)
        if bend and max(scenario.outcomes_per_site) > 1:
            if mode == L.FLOAT:
                family = float_signaling(family, rng)
            else:  # dyadic tables tie in many cells
                family = L.DistributionFamily(scenario, perturbed(dyadic_tables(scenario, rng), rng))
        assert (_exact_fields(L.check_nonsignaling(family))
                == _exact_fields(S._check_by_walk(family)))

    def test_a_tie_across_outcomes_goes_to_the_first_cell(self):
        # site 1's tables are the three tuples' own; outcomes 0, 1 and 2 all
        # spread by 1/2, and only outcome 0's extremes are tuples 1 and 3
        half = Fraction(1, 2)
        rows = [[half, half, 0], [half, 0, half], [0, half, half]]
        family = L.DistributionFamily(L.Scenario((1, 3), (3, 1)),
                                      {(1, s): [[v] for v in row] for s, row in enumerate(rows, 1)})
        expected = ((1,), (1,), (1, 1), (1, 3), repr(half))
        assert _exact_fields(L.check_nonsignaling(family)) == expected
        assert _exact_fields(S._check_by_walk(family)) == expected

    def test_a_tie_across_subsets_goes_to_the_first_in_order(self):
        # (1,), (3,) and (1,3) all spread by 1/2 as site 2's setting moves
        # (a_1, a_3) from (0,0) or (1,1) to (0,0); the walk meets (3,) first
        half = Fraction(1, 2)
        tables = {(1, 1, 1): [[[half, 0]], [[0, half]]], (1, 2, 1): [[[1, 0]], [[0, 0]]]}
        family = L.DistributionFamily(L.Scenario((1, 2, 1), (2, 1, 2)), tables)
        expected = ((1,), (1,), (1, 1, 1), (1, 2, 1), repr(half))
        assert _exact_fields(L.check_nonsignaling(family)) == expected
        assert _exact_fields(S._check_by_walk(family)) == expected

    def test_the_tables_sums_are_not_a_subset(self):
        # the sums 1 +- 8e-7 pass a 1e-6 tolerance and spread by 1.6e-6,
        # but the empty subset is not judged, and every marginal agrees
        tables = {t: np.full((2, 2), 0.25) for t in L.CHSH_SCENARIO.setting_tuples()}
        tables[(1, 1)] = tables[(1, 1)] * (1 + 8e-7)
        tables[(2, 2)] = tables[(2, 2)] * (1 - 8e-7)
        family = L.DistributionFamily(L.CHSH_SCENARIO, tables, L.FLOAT, tol=1e-6)
        assert not S._passes_per_site(family)
        assert L.check_nonsignaling(family) is None and S._check_by_walk(family) is None


class TestPerSiteTest:
    """The per-site test decides every family it passes, exactly in
    rational mode and under its rounding bound in float mode; only a
    family that fails it is walked, so its witness is the walk's."""

    @settings(max_examples=150, deadline=None)
    @given(SMALL_SHAPES, st.integers(0, 2**32 - 1), st.sampled_from([L.RATIONAL, L.FLOAT]),
           st.booleans())
    def test_agrees_with_both_paths(self, shape, seed, mode, bend):
        scenario = L.Scenario(*zip(*shape))
        rng = random.Random(seed)
        if bend and max(scenario.outcomes_per_site) > 1:
            tables = perturbed(dyadic_tables(scenario, rng), rng)
            family = L.DistributionFamily(scenario, tables, mode)
        else:
            family = L.random_scenario_family(scenario, seed, mode)
        walked = _exact_fields(S._check_by_walk(family))
        if mode == L.RATIONAL:
            assert S._passes_per_site(family) == (walked is None)
        elif S._passes_per_site(family):
            assert walked is None
        assert _exact_fields(L.check_nonsignaling(family)) == walked

    @settings(max_examples=150, deadline=None)
    @given(SMALL_SHAPES, st.integers(0, 2**32 - 1), st.booleans())
    @example([(3, 2)], 1, False).via("one site")
    @example([(3, 2)], 1, True).via("one site")
    @example([(1, 2), (1, 3)], 2, True).via("one setting tuple")
    @example([(2, 1), (3, 1)], 3, False).via("one-cell tables")
    def test_rational_rule_is_the_exact_comparison(self, shape, seed, bend):
        scenario = L.Scenario(*zip(*shape))
        rng = random.Random(seed)
        family = L.random_scenario_family(scenario, seed)
        if bend:
            family = L.DistributionFamily(scenario, moved_once(family, rng))
        assert S._passes_per_site(family) == exactly_per_site(family)

    def test_a_passing_float_check_peaks_near_the_family(self):
        family = L.random_scenario_family(L.Scenario((2,) * 8, (2,) * 8), 8, L.FLOAT)
        tracemalloc.start()
        try:
            witness = L.check_nonsignaling(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the first site's sums, half the family, and their reductions
        assert witness is None and peak <= 1.3 * family.numerators.nbytes

    @pytest.mark.parametrize("shape", [((2, 2), (2, 2)), ((2, 2, 2), (2, 2, 2)), ((2,) * 6, (2,) * 6)],
                             ids=["chsh", "2x2x2", "2^6"])
    def test_rational_families_are_decided_per_site(self, shape, monkeypatch):
        scenario = L.Scenario(*shape)
        rng = random.Random(scenario.n_parties)
        family = L.random_scenario_family(scenario, scenario.n_parties)
        bent = L.DistributionFamily(scenario, perturbed(dyadic_tables(scenario, rng), rng))
        walked_only_when_the_test_fails(family, bent, monkeypatch)

    @pytest.mark.parametrize("shape", [((2, 2), (2, 2)), ((2, 2, 2), (2, 2, 2)), ((5, 5), (4, 4)),
                                       ((2,) * 5, (2,) * 5), ((2,) * 6, (2,) * 6)],
                             ids=["chsh", "2x2x2", "5x5-4x4", "2^5", "2^6"])
    def test_float_families_are_decided_per_site(self, shape, monkeypatch):
        scenario = L.Scenario(*shape)
        family = L.random_scenario_family(scenario, scenario.n_parties, L.FLOAT)
        bent = float_signaling(family, random.Random(scenario.n_parties))
        walked_only_when_the_test_fails(family, bent, monkeypatch)


def exactly_per_site(family):
    """The per-site test by exact comparison: for each site, the family's
    sums over that site's outcome, taken by numpy, are equal (`!=`) across
    its settings."""
    n = family.scenario.n_parties
    sums = (np.moveaxis(family.numerators.sum(axis=n + m), m, 0) for m in range(n))
    return not any((s[1:] != s[:1]).any() for s in sums)


def moved_once(family, rng):
    """Tables of a rational family with a random share of one occupied
    cell's mass moved to another cell of the same table."""
    tables = {t: table.copy() for t, table in family.tables.items()}
    table = tables[rng.choice(sorted(tables))]
    cells = list(np.ndindex(*table.shape))
    if len(cells) > 1:
        source = rng.choice([c for c in cells if table[c] > 0])
        target = rng.choice([c for c in cells if c != source])
        moved = table[source] * Fraction(rng.randrange(1, 8), 8)
        table[source] -= moved
        table[target] += moved
    return tables


def walked_only_when_the_test_fails(family, bent, monkeypatch):
    """`check_nonsignaling` runs the per-site test on both families and
    walks only `bent`, which signals, to the walk's witness."""
    expected = [_exact_fields(S._check_by_walk(f)) for f in (family, bent)]
    assert expected[0] is None and expected[1] is not None
    tested, walked = [], []
    monkeypatch.setattr(S, "_passes_per_site",
                        lambda f, run=S._passes_per_site: tested.append(f) or run(f))
    monkeypatch.setattr(S, "_check_by_walk",
                        lambda f, run=S._check_by_walk: walked.append(f) or run(f))
    assert [_exact_fields(L.check_nonsignaling(f)) for f in (family, bent)] == expected
    assert tested == [family, bent] and walked == [bent]


def on_the_grid(tables, rng, delta):
    """Float copy of dyadic tables with mass of about `delta` moved between
    two cells of up to three tables, rounded to a multiple of 2^-53: every
    entry, and every sum of one table's entries, is then a multiple of
    2^-53 in [0, 1], so all float sums are exact and any summation order
    gives the same bits."""
    stacked = {t: np.array(table, dtype=float) for t, table in tables.items()}
    moves = rng.randrange(1, 4) if next(iter(stacked.values())).size > 1 else 0
    for _ in range(moves):
        table = stacked[rng.choice(sorted(stacked))]
        cells = list(np.ndindex(*table.shape))
        source = rng.choice([c for c in cells if table[c] >= 1 / 8])
        target = rng.choice([c for c in cells if c != source])
        moved = round(delta * rng.uniform(0.5, 1.5) * 2.0**53) * 2.0**-53
        table[source] -= moved
        table[target] += moved
    return stacked


PERTURBATIONS = [0, 1e-16, 1e-13, 1e-10, 1e-9, 2e-9, 1e-6]
# at 1e-3 and 0.25 the bound's table-sum allowance, 1 + (2 L + 1) tol, is
# furthest from any table's measured sum of |x|
TOLERANCES = [1e-16, 1e-12, 1e-9, 1e-6, 1e-3, 0.25]


class TestFloatNearTheTolerance:
    """Float families whose spreads sit near the tolerance, where the
    per-site bound may not pass a family the walk passes."""

    @settings(max_examples=200, deadline=None)
    @given(SMALL_SHAPES, st.integers(0, 2**32 - 1), st.sampled_from(PERTURBATIONS),
           st.sampled_from(TOLERANCES + [0.0]))
    def test_exact_sums_match_the_walk_and_the_oracle(self, shape, seed, delta, tol):
        scenario = L.Scenario(*zip(*shape))
        rng = random.Random(seed)
        tables = on_the_grid(dyadic_tables(scenario, rng), rng, delta)
        family = L.DistributionFamily(scenario, tables, L.FLOAT, tol=tol)
        witness = L.check_nonsignaling(family)
        assert _exact_fields(witness) == _exact_fields(S._check_by_walk(family))
        assert _fields(witness) == subset_reduction_check(family)

    @settings(max_examples=200, deadline=None)
    @given(SMALL_SHAPES, st.integers(0, 2**32 - 1), st.sampled_from(PERTURBATIONS),
           st.sampled_from(TOLERANCES))
    def test_rounded_sums_match_the_walk(self, shape, seed, delta, tol):
        scenario = L.Scenario(*zip(*shape))
        assume(max(scenario.outcomes_per_site) > 1)
        rng = random.Random(seed)
        stacked = np.array(L.random_scenario_family(scenario, seed, L.FLOAT).numerators)
        for _ in range(rng.randrange(1, 4)):
            table = stacked[tuple(rng.randrange(s) for s in scenario.settings_per_site)]
            source = np.unravel_index(int(np.argmax(table)), table.shape)
            target = tuple(rng.randrange(k) for k in scenario.outcomes_per_site)
            moved = min(delta * rng.uniform(0.5, 1.5), table[source])
            table[source] -= moved
            table[target] += moved
        # validated at 1e-6, then judged at `tol`, which rounded sums may miss
        family = L.DistributionFamily.from_stacked(scenario, stacked, L.FLOAT, tol=1e-6)
        family._take(scenario, family.numerators, 1, L.FLOAT, tol)
        assert (_exact_fields(L.check_nonsignaling(family))
                == _exact_fields(S._check_by_walk(family)))

    def test_the_walk_passes_what_the_bound_does_not(self):
        # a spread of 2^-30 < 1e-9 at site 1's outcome, which the per-site
        # bound, 2 L = 8 times the per-site spreads, cannot pass
        tables = {t: np.full((2, 2), 0.25) for t in L.CHSH_SCENARIO.setting_tuples()}
        tables[(1, 1)][0, 0] += 2.0**-30
        tables[(1, 1)][1, 0] -= 2.0**-30
        family = L.DistributionFamily(L.CHSH_SCENARIO, tables, L.FLOAT, tol=1e-9)
        assert not S._passes_per_site(family)
        assert S._check_by_walk(family) is None and L.check_nonsignaling(family) is None
        assert subset_reduction_check(family) is None


def mean_marginals(family, sites):
    """Per setting assignment on `sites` (row-major), the mean of the
    `marginalize` oracle over the compatible full tuples, flattened."""
    scenario = family.scenario
    rows = []
    for common in itertools.product(*(range(1, scenario.settings_per_site[m - 1] + 1)
                                      for m in sites)):
        group = [t for t in scenario.setting_tuples() if tuple(t[m - 1] for m in sites) == common]
        rows.append(sum(marginalize(family, t, sites) for t in group).reshape(-1) / len(group))
    return np.array(rows)


class TestOneSummationPath:
    """The check, its witness and the marginals all sum outcomes along the walk."""

    @settings(max_examples=60, deadline=None)
    @given(SMALL_SHAPES, st.integers(0, 2**32 - 1), st.sampled_from([L.RATIONAL, L.FLOAT]))
    def test_marginal_numerators_match_the_oracle(self, shape, seed, mode):
        scenario = L.Scenario(*zip(*shape))
        family = L.extract_marginal_family(L.random_scenario_family(scenario, seed, mode))
        for sites in scenario.site_subsets():
            numerators, denominator = family.marginal_numerators(sites)
            expected = mean_marginals(family, sites)
            if mode == L.RATIONAL:
                got = [[Fraction(v, denominator) for v in row] for row in numerators.tolist()]
                assert got == expected.tolist()
            else:
                assert denominator == 1 and numerators.shape == expected.shape
                assert np.abs(numerators - expected).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(SMALL_SHAPES, st.integers(0, 2**32 - 1))
    def test_subset_sums_are_the_walks_bit_for_bit(self, shape, seed):
        scenario = L.Scenario(*zip(*shape))
        numerators = L.random_scenario_family(scenario, seed, L.FLOAT).numerators
        n = scenario.n_parties
        chain, reached = [numerators], []
        for step in S._walk_steps(scenario):
            # the walk's own loop: each step adds its slices of the sums at its depth
            del chain[step.depth + 1:]
            sums = functools.reduce(np.add, [chain[step.depth][i] for i in step.slices])
            chain.append(sums)
            reached.append(step.sites)
            cells = tuple(scenario.settings_per_site[m - 1] for m in step.sites) + tuple(
                scenario.outcomes_per_site[m - 1] for m in step.sites)
            assert sums.transpose(step.order).shape[n - len(step.sites):] == cells
            direct = S._subset_sums(numerators, n, step.sites)
            assert direct.shape == sums.shape and direct.tobytes() == sums.tobytes()
        assert sorted(reached) == sorted(scenario.site_subsets())

    @settings(max_examples=60, deadline=None)
    @given(SMALL_SHAPES, st.integers(0, 2**32 - 1))
    def test_float_witness_tuples_differ_by_the_discrepancy(self, shape, seed):
        scenario = L.Scenario(*zip(*shape))
        assume(max(scenario.outcomes_per_site) > 1)
        bent = float_signaling(L.random_scenario_family(scenario, seed, L.FLOAT),
                               random.Random(seed))
        witness = L.check_nonsignaling(bent)
        assume(witness is not None)
        sites = witness.site_subset
        assert witness.tuple_a < witness.tuple_b
        for t in (witness.tuple_a, witness.tuple_b):
            assert tuple(t[m - 1] for m in sites) == witness.common_settings
        sums = S._subset_sums(bent.numerators, scenario.n_parties, sites)
        a, b = (sums[tuple(s - 1 for s in t)].reshape(-1) for t in (witness.tuple_a, witness.tuple_b))
        assert np.abs(a - b).max() == witness.max_discrepancy


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

    def test_rational_to_float_reads_the_numerators(self):
        # weights over the prime 2^61 - 1 put the mixture over 4 (2^61 - 1)
        source = L.mix_families([L.pr_box(), L.uniform_family(L.CHSH_SCENARIO)], [1, 2**61 - 2])
        assert source.denominator == 4 * (2**61 - 1)
        as_float = L.convert_family(source, L.FLOAT)
        assert "stacked" not in vars(source)
        assert as_float.numerators.tobytes() == np.array(source.stacked, dtype=float).tobytes()


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
