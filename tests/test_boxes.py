"""Canonical boxes, mixtures and the randomized family generators."""

import itertools
import random
from fractions import Fraction
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqhv as L
from lqhv import boxes, io, numeric
from lqhv.errors import InputError
from oracles import (
    family_isotropic_box,
    family_mix,
    family_random_nonsignaling,
    family_random_scenario,
    loop_local_vertex,
    loop_mix,
    loop_pr_type_vertex,
    loop_signaling_example,
    loop_tensor,
    marginalize,
)

# (mode, zero, one, one half) in each mode's scalar type
MODE_SCALARS = [(L.RATIONAL, Fraction(0), Fraction(1), Fraction(1, 2)), (L.FLOAT, 0.0, 1.0, 0.5)]


class TestPrBox:
    def test_table_support(self):
        pr = L.pr_box()
        for (s1, s2), table in pr.tables.items():
            x, y = s1 - 1, s2 - 1
            for a, b in itertools.product(range(2), repeat=2):
                want = Fraction(1, 2) if (a + b) % 2 == x * y else Fraction(0)
                assert table[a, b] == want

    def test_passes_consistency(self):
        assert L.check_nonsignaling(L.pr_box()) is None

    def test_chsh_value_is_four(self):
        assert L.chsh_value(L.pr_box()) == 4


class TestIsotropic:
    def test_zero_weight_is_uniform(self):
        iso = L.isotropic_box(0)
        uni = L.uniform_family(L.CHSH_SCENARIO)
        for t in iso.scenario.setting_tuples():
            assert np.array_equal(iso.tables[t], uni.tables[t])

    def test_full_weight_is_pr(self):
        iso = L.isotropic_box(1)
        pr = L.pr_box()
        for t in iso.scenario.setting_tuples():
            assert np.array_equal(iso.tables[t], pr.tables[t])

    def test_chsh_is_linear_in_weight(self):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)):
            assert L.chsh_value(L.isotropic_box(p)) == 4 * p

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            L.isotropic_box(Fraction(3, 2))
        with pytest.raises(InputError):
            L.isotropic_box(-0.1)


class TestVertices:
    def test_local_vertex_is_point_mass(self):
        vtx = L.local_deterministic_vertex(L.CHSH_SCENARIO, [(0, 1), (1, 0)])
        for (s1, s2), table in vtx.tables.items():
            point = ((0, 1)[s1 - 1], (1, 0)[s2 - 1])
            assert table[point] == 1
            assert table.sum() == 1

    def test_sixteen_local_vertices_average_to_uniform(self):
        vertices = L.chsh_local_vertices()
        mixed = L.mix_families(vertices, [1] * 16)
        uni = L.uniform_family(L.CHSH_SCENARIO)
        for t in mixed.scenario.setting_tuples():
            assert np.array_equal(mixed.tables[t], uni.tables[t])

    def test_xor_boxes_all_nonsignaling(self):
        for fam in L.chsh_pr_vertices():
            assert L.check_nonsignaling(fam) is None

    def test_assignment_shape_checked(self):
        with pytest.raises(InputError):
            L.local_deterministic_vertex(L.CHSH_SCENARIO, [(0,), (1, 0)])
        with pytest.raises(InputError):
            L.local_deterministic_vertex(L.CHSH_SCENARIO, [(0, 2), (1, 0)])


class TestSignalingExample:
    def test_marginal_flip(self):
        sig = L.signaling_example()
        m1 = marginalize(sig, (1, 1), [2])
        m2 = marginalize(sig, (2, 1), [2])
        assert list(m1) == [Fraction(1), Fraction(0)]
        assert list(m2) == [Fraction(0), Fraction(1)]

    def test_witness_discrepancy_one(self):
        witness = L.check_nonsignaling(L.signaling_example())
        assert witness.max_discrepancy == 1
        assert witness.site_subset == (2,)


class TestMixing:
    def test_weights_normalized(self):
        mix = L.mix_families([L.pr_box(), L.uniform_family(L.CHSH_SCENARIO)], [3, 1])
        expected = L.isotropic_box(Fraction(3, 4))
        for t in mix.scenario.setting_tuples():
            assert np.array_equal(mix.tables[t], expected.tables[t])

    def test_weight_count_checked(self):
        with pytest.raises(InputError):
            L.mix_families([L.pr_box()], [1, 2])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(InputError):
            L.mix_families([L.pr_box(), L.pr_box()], [0, 0])

    def test_mode_is_the_components_own(self):
        with pytest.raises(TypeError):
            L.mix_families([L.pr_box()], [1], mode=L.FLOAT)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=2, max_size=2).filter(any),
           st.integers(0, 2**16))
    def test_mixing_preserves_nonsignaling(self, weights, seed):
        # convex combinations of passing families pass
        components = [L.random_nonsignaling_family(seed), L.random_nonsignaling_family(seed + 1)]
        mixed = L.mix_families(components, weights)
        assert L.check_nonsignaling(mixed) is None


class TestRandomFamilies:
    def test_seed_determinism(self):
        a = L.random_nonsignaling_family(123)
        b = L.random_nonsignaling_family(123)
        for t in a.scenario.setting_tuples():
            assert np.array_equal(a.tables[t], b.tables[t])

    def test_single_vertex_weight(self):
        weights = [0] * 24
        weights[3] = 1
        fam = L.random_nonsignaling_family(0, weights=weights)
        vtx = L.chsh_local_vertices()[3]
        for t in fam.scenario.setting_tuples():
            assert np.array_equal(fam.tables[t], vtx.tables[t])

    def test_all_zero_draws_redraw_one_vertex(self, monkeypatch):
        # every weight draws 0, so one index is redrawn and gets weight 1
        draws = []

        def randrange(self, start, stop=None):
            draws.append((start, stop))
            return 0 if stop is not None else 17
        monkeypatch.setattr(random.Random, "randrange", randrange)
        fam = L.random_nonsignaling_family(0)
        assert draws == [(0, 10)] * 24 + [(24, None)]
        pr = L.chsh_pr_vertices()[1]
        assert fam.mode == pr.mode
        for t in fam.scenario.setting_tuples():
            assert np.array_equal(fam.tables[t], pr.tables[t])

    def test_equal_local_weights_uniform(self):
        weights = [1] * 16 + [0] * 8
        fam = L.random_nonsignaling_family(0, weights=weights)
        uni = L.uniform_family(L.CHSH_SCENARIO)
        for t in fam.scenario.setting_tuples():
            assert np.array_equal(fam.tables[t], uni.tables[t])

    def test_pipeline_on_pr_plus_vertex(self):
        weights = [0] * 24
        weights[2] = 7    # a local vertex
        weights[16] = 3   # the plain xor box
        fam = L.random_nonsignaling_family(0, weights=weights)
        assert L.check_nonsignaling(fam) is None
        model = L.build_deterministic_measure(fam)
        assert L.verify_marginals(model, fam).max_error == 0

    def test_general_scenario_families_pass(self):
        for settings_per_site, outcomes_per_site in [
            ((2, 2), (2, 2)),
            ((2, 2, 2), (2, 2, 2)),
            ((3, 2), (2, 3)),
            ((2, 2, 1, 2), (2, 2, 2, 2)),
        ]:
            sc = L.Scenario(settings_per_site, outcomes_per_site)
            for seed in range(3):
                fam = L.random_scenario_family(sc, seed)
                assert L.check_nonsignaling(fam) is None

    def test_tensor_family_blocks(self):
        sc1 = L.Scenario((1,), (2,))
        rest = L.local_deterministic_vertex(sc1, [(1,)])
        combined = L.tensor_family(L.pr_box(), rest)
        assert combined.scenario.settings_per_site == (2, 2, 1)
        assert L.check_nonsignaling(combined) is None
        table = combined.table((1, 2, 1))
        assert table[0, 0, 1] == Fraction(1, 2)
        assert table[0, 0, 0] == 0


def assert_same_tables(fam, tables):
    assert sorted(tables) == fam.scenario.setting_tuples()
    for t, table in tables.items():
        assert fam.table(t).dtype == (object if fam.mode == L.RATIONAL else float)
        assert np.array_equal(fam.table(t), table)


def assert_held_as_parsed(fam):
    """The generator holds what parsing its public tables holds."""
    parsed = L.DistributionFamily.from_stacked(fam.scenario, fam.stacked, fam.mode)
    assert (fam.numerators.dtype, fam.denominator) == (parsed.numerators.dtype, parsed.denominator)
    assert fam.numerators.tolist() == parsed.numerators.tolist()


@pytest.mark.parametrize("mode,zero,one,half", MODE_SCALARS)
class TestStackedProducersMatchLoops:
    """Each generator equals its tuple-by-tuple loop exactly, in both modes,
    and holds what parsing its tables would."""

    def test_uniform_family(self, mode, zero, one, half):
        sc = L.Scenario((2, 3, 1), (3, 2, 2))
        fam = L.uniform_family(sc, mode)
        assert_same_tables(fam, {t: np.full(sc.table_shape, one / 12) for t in sc.setting_tuples()})
        assert_held_as_parsed(fam)

    def test_local_vertex(self, mode, zero, one, half):
        sc = L.Scenario((2, 3, 1), (3, 2, 2))
        assignment = [(2, 0), (1, 1, 0), (1,)]
        fam = L.local_deterministic_vertex(sc, assignment, mode)
        assert_same_tables(fam, loop_local_vertex((2, 3, 1), (3, 2, 2), assignment, zero, one))
        assert_held_as_parsed(fam)

    def test_pr_type_vertices(self, mode, zero, one, half):
        for bits in itertools.product(range(2), repeat=3):
            fam = L.pr_type_vertex(*bits, mode)
            assert_same_tables(fam, loop_pr_type_vertex(*bits, zero, half))
            assert_held_as_parsed(fam)

    def test_signaling_example(self, mode, zero, one, half):
        fam = L.signaling_example(mode)
        assert_same_tables(fam, loop_signaling_example(zero, half))
        assert_held_as_parsed(fam)

    def test_tensor_family(self, mode, zero, one, half):
        right = L.local_deterministic_vertex(L.Scenario((3, 1), (2, 3)), [(1, 0, 1), (2,)], mode)
        fam = L.tensor_family(L.pr_type_vertex(1, 0, 1, mode), right)
        oracle = loop_tensor(loop_pr_type_vertex(1, 0, 1, zero, half),
                             loop_local_vertex((3, 1), (2, 3), [(1, 0, 1), (2,)], zero, one))
        assert_same_tables(fam, oracle)

    def test_mix_families(self, mode, zero, one, half):
        rng = random.Random(17)
        tail = L.Scenario((2,), (3,))
        parts, oracles = [], []
        for bits in itertools.product(range(2), repeat=2):
            assignment = L.boxes.random_local_assignment(tail, rng)
            parts.append(L.tensor_family(L.pr_type_vertex(*bits, 1, mode),
                                         L.local_deterministic_vertex(tail, assignment, mode)))
            oracles.append(loop_tensor(loop_pr_type_vertex(*bits, 1, zero, half),
                                       loop_local_vertex((2,), (3,), assignment, zero, one)))
        weights = [3, 1, 4, 7]
        fam = L.mix_families(parts, weights)
        assert_same_tables(fam, loop_mix(oracles, [zero + w for w in weights], zero))


@pytest.mark.parametrize("mode", numeric.MODES)
def test_generators_parse_no_entries(mode, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a generator parsed its own tables")

    monkeypatch.setattr(numeric, "numerators", refuse)
    sc = L.Scenario((2, 1), (3, 2))
    families = [L.uniform_family(sc, mode), L.local_deterministic_vertex(sc, [(2, 0), (1,)], mode),
                L.pr_type_vertex(1, 0, 1, mode), L.signaling_example(mode)]
    assert [f.mode for f in families] == [mode] * 4


def file_text(family):
    buf = StringIO()
    io.write_json(io.family_to_json(family), buf)
    return buf.getvalue()


def assert_same_family(fam, ref):
    """Equal scenario, mode and tolerance, numerators of one dtype whose
    entries have equal types and reprs (so float signs and bits agree), one
    denominator of one type, and the same family file."""
    assert (fam.scenario, fam.mode, fam.tol) == (ref.scenario, ref.mode, ref.tol)
    assert (fam.numerators.dtype, fam.numerators.shape) == (ref.numerators.dtype,
                                                             ref.numerators.shape)
    held = [(type(v), repr(v)) for v in fam.numerators.reshape(-1).tolist()]
    assert held == [(type(v), repr(v)) for v in ref.numerators.reshape(-1).tolist()]
    assert (type(fam.denominator), fam.denominator) == (type(ref.denominator), ref.denominator)
    assert file_text(fam) == file_text(ref)


MODE = st.sampled_from(numeric.MODES)
SEED = st.integers(0, 2**48)
# (settings, outcomes) per site: any small scenario, or a (2,2)/(2,2) head
# with one or two more sites, where a XOR box times a tail vertex joins
SITES = st.one_of(
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=2)
    .map(lambda tail: [(2, 2), (2, 2)] + tail),
)


def scenario_of(sites):
    return L.Scenario(*zip(*sites))


def weights_in(mode, size):
    """`size` weights, not all zero: floats, or exact text with up to
    40-digit numerators and denominators."""
    if mode == L.FLOAT:
        entry = st.floats(0, 1e300)
    else:
        entry = st.fractions(0, 10**40, max_denominator=10**40).map(str)
    return st.lists(entry, min_size=size, max_size=size).filter(
        lambda w: any(numeric.coerce_scalar(v, mode) for v in w))


class TestGeneratorsMatchFamilyConstruction:
    """Each generator equals its construction from validated vertex
    families (`tests/oracles.py`) bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(SEED, MODE)
    def test_random_nonsignaling_family(self, seed, mode):
        assert_same_family(L.random_nonsignaling_family(seed, mode=mode),
                           family_random_nonsignaling(seed, mode))

    @settings(max_examples=30, deadline=None)
    @given(MODE.flatmap(lambda mode: st.tuples(st.just(mode), weights_in(mode, 24))))
    def test_random_nonsignaling_family_with_weights(self, mode_weights):
        mode, weights = mode_weights
        assert_same_family(L.random_nonsignaling_family(0, weights=weights, mode=mode),
                           family_random_nonsignaling(0, mode, weights))

    @settings(max_examples=60, deadline=None)
    @given(SITES, SEED, MODE)
    def test_random_scenario_family(self, sites, seed, mode):
        scenario = scenario_of(sites)
        assert_same_family(L.random_scenario_family(scenario, seed, mode),
                           family_random_scenario(scenario, seed, mode))

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(st.fractions(0, 1, max_denominator=10**40), st.floats(0, 1)), MODE)
    def test_isotropic_box(self, p, mode):
        if mode == L.RATIONAL:
            p = Fraction(p)
        assert_same_family(L.isotropic_box(p, mode), family_isotropic_box(p, mode))

    @settings(max_examples=30, deadline=None)
    @given(SITES, SEED, MODE.flatmap(lambda mode: st.tuples(st.just(mode), weights_in(mode, 3))))
    def test_mix_families(self, sites, seed, mode_weights):
        mode, weights = mode_weights
        families = [L.random_scenario_family(scenario_of(sites), seed + i, mode) for i in range(3)]
        assert_same_family(L.mix_families(families, weights), family_mix(families, weights))


def test_chsh_stack_is_the_vertex_list_read_only():
    stack = boxes._chsh_vertex_stack()
    assert stack is boxes._chsh_vertex_stack()
    assert (stack.shape, stack.dtype.kind) == ((24, 2, 2, 2, 2), "i")
    vertices = L.chsh_local_vertices() + L.chsh_pr_vertices()
    for tensor, den, vertex in zip(stack, boxes._CHSH_DENOMINATORS, vertices, strict=True):
        assert (tensor.tolist(), den) == (vertex.numerators.tolist(), vertex.denominator)
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0, 0, 0] = 1


@pytest.mark.parametrize("mode", numeric.MODES)
def test_each_generator_validates_one_family(mode, monkeypatch):
    adopted = []
    adopt = L.DistributionFamily._adopt

    def counted(self, *args):
        adopted.append(self)
        return adopt(self, *args)

    monkeypatch.setattr(L.DistributionFamily, "_adopt", counted)
    for make in (lambda: L.random_nonsignaling_family(5, mode=mode),
                 lambda: L.random_scenario_family(L.Scenario((2, 2), (2, 2)), 5, mode),
                 lambda: L.random_scenario_family(L.Scenario((2, 2, 3), (2, 2, 2)), 5, mode),
                 lambda: L.random_scenario_family(L.Scenario((3, 1), (2, 3)), 5, mode),
                 lambda: L.isotropic_box(Fraction(1, 3), mode)):
        adopted.clear()
        family = make()
        assert adopted == [family]


class TestWeightTotal:
    def test_float_weights_whose_sum_overflows_are_refused(self):
        with pytest.raises(InputError, match="weights sum to inf"):
            L.random_nonsignaling_family(1, weights=[1e308] * 24, mode=L.FLOAT)
        with pytest.raises(InputError, match="weights sum to inf"):
            L.mix_families([L.pr_box(L.FLOAT), L.uniform_family(L.CHSH_SCENARIO, L.FLOAT)],
                           ["1.7e308", 1.7e308])

    def test_large_finite_float_total_is_normalized(self):
        weights = [1e307] * 16 + [0] * 8  # total 1.6e308, below the float maximum
        fam = L.random_nonsignaling_family(1, weights=weights, mode=L.FLOAT)
        assert_same_family(fam, family_random_nonsignaling(1, L.FLOAT, weights))
        assert L.check_nonsignaling(fam) is None

    def test_rational_weights_past_the_float_range_mix_exactly(self):
        fam = L.mix_families([L.pr_box(), L.uniform_family(L.CHSH_SCENARIO)], ["3e400", "1e400"])
        assert_same_family(fam, L.isotropic_box(Fraction(3, 4)))
