"""Rational mode on integer numerators: agreement with the Fraction-array
build, exactness at the edges, and the public Fraction arrays."""

import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqhv as L
from lqhv import io, numeric
from lqhv.boxes import random_local_assignment
from lqhv.errors import InputError
from oracles import fraction_build

DENOMINATORS = (1, 2, 3, 5, 7, 9, 11, 13)


def mixed_family(scenario, vertices, weights):
    """Mixture of local deterministic vertices with the given Fraction
    weights, summed on Fraction arrays and normalized here."""
    total = sum(weights)
    stacked = sum(w / total * L.local_deterministic_vertex(scenario, v).stacked
                  for w, v in zip(weights, vertices))
    return L.DistributionFamily.from_stacked(scenario, stacked)


@st.composite
def rational_families(draw):
    shape = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1,
                          max_size=3).filter(lambda sk: np.prod([k ** s for s, k in sk]) <= 729))
    scenario = L.Scenario(tuple(s for s, _ in shape), tuple(k for _, k in shape))
    count = draw(st.integers(1, 4))
    vertices = [[[draw(st.integers(0, k - 1)) for _ in range(s)] for s, k in shape]
                for _ in range(count)]
    weights = [Fraction(draw(st.integers(1, 12)), draw(st.sampled_from(DENOMINATORS)))
               for _ in range(count)]
    return mixed_family(scenario, vertices, weights)


def assert_matches_fraction_build(family):
    oracle, reproduced = fraction_build(family.stacked, family.scenario.settings_per_site)
    model = L.build_deterministic_measure(family)
    measure = model.measure
    assert np.array_equal(measure.atoms, oracle)
    assert measure.total_mass == oracle.sum() == 1
    assert measure.min_atom == oracle.min()
    assert L.jordan_decompose(measure).total_variation == abs(oracle).sum()
    report = L.verify_marginals(model, family)
    assert report.max_error == abs(reproduced - family.stacked).max() == 0
    assert report.min_reproduced == reproduced.min()
    assert io.measure_to_json(measure)["atoms"] == [str(v) for v in oracle.reshape(-1)]
    return measure


class TestFractionOracle:
    @settings(max_examples=60, deadline=None)
    @given(rational_families())
    def test_integer_build_matches_fraction_build(self, family):
        assert_matches_fraction_build(family)

    def test_denominator_beyond_64_bits(self):
        # Mersenne primes: the family's common denominator is their product.
        p, q = 2**61 - 1, 2**89 - 1
        scenario = L.Scenario((2, 3), (2, 2))
        rng = random.Random(5)
        vertices = [random_local_assignment(scenario, rng) for _ in range(3)]
        family = mixed_family(scenario, vertices,
                              [Fraction(1, p), Fraction(1, q), 1 - Fraction(1, p) - Fraction(1, q)])
        assert family.denominator == p * q > 2**64
        measure = assert_matches_fraction_build(family)
        assert measure.denominator > 2**64
        assert L.verify_marginals(measure, family).max_error == 0
        assert L.check_nonsignaling(family) is None


def signaling_family(shape, seed):
    """A mixture with weights of mixed denominators, one table bent."""
    scenario = L.Scenario(*shape)
    rng = random.Random(seed)
    vertices = [random_local_assignment(scenario, rng) for _ in range(3)]
    family = mixed_family(scenario, vertices,
                          [Fraction(rng.randint(1, 9), rng.choice((3, 7, 11))) for _ in range(3)])
    tables = {t: np.array(table) for t, table in family.tables.items()}
    table = tables[rng.choice(sorted(tables))].reshape(-1)
    source = int(np.argmax(table))
    moved = table[source] * Fraction(rng.randint(1, 4), 5)
    table[source] -= moved
    table[(source + 1) % table.size] += moved
    return L.DistributionFamily(scenario, tables)


class TestExactEdges:
    def test_marginal_means_are_never_floored(self):
        # Site 2 reports 0, 0, 1 under site 1's three settings: its group of
        # three compatible tuples sums to (4, 2) halves, which 3 does not divide.
        scenario = L.Scenario((3, 1), (2, 2))
        s1, _, _, b = np.indices((3, 1, 2, 2))
        stacked = np.where(b == (s1 == 2), Fraction(1, 2), Fraction(0))
        family = L.DistributionFamily.from_stacked(scenario, stacked)
        assert L.check_nonsignaling(family) is not None
        marginals = L.MarginalFamily(scenario, L.RATIONAL, family.stacked)
        assert list(marginals.get((2,), (1,))) == [Fraction(2, 3), Fraction(1, 3)]
        assert list(marginals.stacked_marginal((1,)).reshape(-1)) == [Fraction(1, 2)] * 6
        numerators, denominator = marginals.marginal_numerators((2,))
        assert [Fraction(v, denominator) for v in numerators[0]] == [Fraction(2, 3), Fraction(1, 3)]

    # Witnesses as the Fraction-array check reported them.
    @pytest.mark.parametrize("shape,seed,expected", [
        (((3, 3), (2, 2)), 1, ((2,), (3,), (1, 3), (3, 3), "49/410")),
        (((3, 3), (2, 2)), 2, ((1,), (3,), (3, 1), (3, 3), "7/30")),
        (((2, 2, 2), (2, 2, 2)), 3, ((3,), (2,), (1, 1, 2), (2, 2, 2), "14/25")),
        (((3, 2), (2, 3)), 4, ((2,), (2,), (1, 2), (2, 2), "7/68")),
        (((1, 3, 2), (3, 2, 2)), 5, ((3,), (2,), (1, 1, 2), (1, 2, 2), "28/85")),
        (((2, 2), (3, 3)), 6, ((2,), (2,), (1, 2), (2, 2), "154/1185")),
    ], ids=str)
    def test_rational_witnesses_are_unchanged(self, shape, seed, expected):
        witness = L.check_nonsignaling(signaling_family(shape, seed))
        got = (witness.site_subset, witness.common_settings, witness.tuple_a, witness.tuple_b,
               str(witness.max_discrepancy))
        assert got == expected
        assert type(witness.max_discrepancy) is Fraction

    def test_public_arrays_are_read_only_fractions(self):
        family = L.random_scenario_family(L.Scenario((2, 3), (2, 2)), 4)
        measure = L.build_deterministic_measure(family).measure
        jordan = L.jordan_decompose(measure)
        marginals = L.extract_marginal_family(family)
        arrays = [family.stacked, *family.tables.values(), measure.atoms,
                  jordan.positive_part, jordan.negative_part, marginals.stacked_marginal((1, 2))]
        for arr in arrays:
            assert arr.dtype == object and not arr.flags.writeable
            assert all(type(v) is Fraction for v in arr.reshape(-1))
        assert family.stacked is family.stacked
        assert measure.atoms is measure.atoms
        assert marginals.stacked_marginal((1, 2)) is marginals.stacked_marginal((1, 2))
        for value in (measure.total_mass, measure.min_atom, jordan.total_variation):
            assert type(value) is Fraction


class TestBooleansAreNotNumbers:
    @pytest.mark.parametrize("mode", [L.RATIONAL, L.FLOAT])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True)])
    def test_scalar(self, mode, value):
        with pytest.raises(InputError):
            numeric.coerce_scalar(value, mode)

    @pytest.mark.parametrize("mode", [L.RATIONAL, L.FLOAT])
    @pytest.mark.parametrize("data", [[True, False], [0.5, True], [[0.5, 0.5], [False, 1]],
                                      np.array([True, False])], ids=str)
    def test_array(self, mode, data):
        with pytest.raises(InputError):
            numeric.as_array(data, mode)

    @pytest.mark.parametrize("mode", [L.RATIONAL, L.FLOAT])
    def test_weights(self, mode):
        with pytest.raises(InputError):
            L.mix_families([L.pr_box(mode), L.uniform_family(L.CHSH_SCENARIO, mode)], [True, 1])


# the interpreter's limit on the digits of an integer literal
DIGIT_LIMIT = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


class TestExponentLimit:
    """Decimal text is read while its exponent magnitude plus its digits
    stay within the integer digit limit, and refused beyond it."""

    @pytest.mark.parametrize("sign", ["", "+", "-"])
    @pytest.mark.parametrize("mantissa", ["1", "1.5", "0_1"])
    def test_at_the_limit_is_read(self, sign, mantissa):
        digits = sum(c.isdigit() for c in mantissa)
        exponent = DIGIT_LIMIT - digits
        value = numeric.coerce_scalar(f"{mantissa}e{sign}{exponent}", L.RATIONAL)
        scale = Fraction(10) ** (-exponent if sign == "-" else exponent)
        assert value == Fraction(mantissa.replace("_", "")) * scale

    @pytest.mark.parametrize("sign", ["", "+", "-"])
    @pytest.mark.parametrize("mantissa", ["1", "1.5", "0_1", "  -1.", ".5"])
    def test_one_past_the_limit_is_refused(self, sign, mantissa):
        digits = sum(c.isdigit() for c in mantissa)
        text = f"{mantissa}E{sign}{DIGIT_LIMIT - digits + 1}"
        with pytest.raises(InputError, match="exponent and digits exceed"):
            numeric.coerce_scalar(text, L.RATIONAL)

    @pytest.mark.parametrize("text", ["1e400000000", "1e-3000000", "1e" + "9" * 5000])
    def test_far_past_the_limit_is_refused(self, text):
        with pytest.raises(InputError):
            numeric.coerce_scalar(text, L.RATIONAL)

    def test_float_mode_reads_such_text_as_a_float(self):
        assert numeric.coerce_scalar("1e-400", L.FLOAT) == 0.0
        with pytest.raises(InputError, match="non-finite"):
            numeric.coerce_scalar("1e400", L.FLOAT)

    def test_measure_atoms_and_weights_are_refused(self):
        doc = io.measure_to_json(L.build_deterministic_measure(L.pr_box()).measure)
        doc["atoms"][0] = f"1e-{DIGIT_LIMIT}"
        with pytest.raises(InputError, match="exponent and digits exceed"):
            io.measure_from_json(doc)
        with pytest.raises(InputError, match="exponent and digits exceed"):
            numeric.normalize_weights(["1", f"1e{DIGIT_LIMIT}"], L.RATIONAL)


class TestDenominatorLimit:
    """The entries' common denominator is built one denominator at a time
    and refused once it has more decimal digits than the limit."""

    def test_at_the_limit_loads(self):
        # 1/2^e and 1/5^e are coprime; with the rest of the mass over 10^e
        # (e + 1 digits) the lcm is 10^e
        e = DIGIT_LIMIT - 1
        two, five, ten = 2**e, 5**e, 10**e
        table = [f"1/{two}", f"1/{five}", f"{ten - two - five}/{ten}"]
        family = L.DistributionFamily(L.Scenario((1,), (3,)), {(1,): table})
        assert family.denominator == ten

    def test_one_digit_past_the_limit_is_refused(self):
        e = DIGIT_LIMIT
        with pytest.raises(InputError, match=f"common denominator has more than {e} digits"):
            numeric.numerators([f"1/{2**e}", f"1/{5**e}"], L.RATIONAL)
