"""Table entries read in one pass agree with the per-table oracle.

`numeric.numerators` and the mapping constructor of `DistributionFamily`
read every entry once, strict "p/q" text with two `int` calls, a Python
or numpy integer as its own numerator and the rest through
`coerce_scalar`. Each example compares them with
`oracles.per_table_family`, which coerces one table at a time into
`Fraction` or float arrays: the numerators and the denominator must be
equal, or the error type and message must be the same. Integer entries
are also compared with every entry read as a `Fraction`.
"""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqhv as L
from lqhv import io, numeric
from lqhv.errors import InputError
from lqhv.scenario import DistributionFamily, Scenario
from oracles import per_table_family
from test_loader_fuzz import FAMILIES, JSON_VALUES, PICK, mutate

TRICKY_TEXT = ["1/2", "+1/2", " 1/2 ", "1_0/3", "007/014", "1/0", "0/00", "-0", "0.5", "1e-3",
               "١/٢", "-3/6", "1 /2", "1/-2", "1/+2", "-", "/2", "1/", "", "1e5000",
               "9e4299", "1e-4300", "1.5E+3", "１/2", "1/2\n", "0x10", "1/02"]
ENTRIES = st.one_of(
    st.sampled_from(TRICKY_TEXT),
    st.from_regex(r"-?[0-9]{1,5}(/[0-9]{1,5})?", fullmatch=True),
    st.text(alphabet="0123456789-+/._eE ١٢", max_size=7),
    st.floats(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.booleans(),
    st.none(),
)
MODES = st.sampled_from(numeric.MODES)


# numpy's text for nested lists of unequal lengths, which goes on to give
# the shape of the whole array it was building; that shape is all it says
RAGGED = "setting an array element with a sequence."


def outcome(read, *args):
    """Numerators and denominator of a reader, or its error type and message."""
    try:
        values, denominator = read(*args)
    except Exception as exc:  # the error itself is what is compared
        message = str(exc)
        return type(exc), message[:message.find(RAGGED) + len(RAGGED)] if RAGGED in message else message
    return values.dtype, values.shape, values.tolist(), denominator


def family_numerators(family):
    return family.numerators, family.denominator


def oracle_family(scenario, tables, mode, tol=None):
    """The oracle's family, its errors naming the table at fault as the
    mapping constructor's do."""
    return DistributionFamily.from_numerators(
        scenario, *per_table_family(scenario, tables, mode, name_tables=True), mode, tol)


@settings(max_examples=400, deadline=None)
@given(st.lists(ENTRIES, min_size=1, max_size=8), MODES)
def test_entries_match_the_per_table_oracle(entries, mode):
    scenario = Scenario((1,), (len(entries),))
    assert (outcome(numeric.numerators, entries, mode, (1, len(entries)))
            == outcome(per_table_family, scenario, {(1,): entries}, mode))


@settings(max_examples=300, deadline=None)
@given(st.lists(ENTRIES, min_size=1, max_size=4), st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=3), MODES)
def test_tables_match_the_per_table_oracle(entries, tuple_with_entries, size_change, mode):
    # one table holds the drawn entries, the other a valid table of one size
    # more or less, so at most one table is at fault; which fault wins
    # between two faulty tables is not part of the contract
    k = max(1, len(entries) + (-1, 0, 0, 1)[size_change])
    other = (3 - tuple_with_entries,)
    valid = [f"1/{k}" if mode == L.RATIONAL else 1 / k] * k
    tables = {(tuple_with_entries,): entries, other: valid}
    scenario = Scenario((2,), (k,))
    assert (outcome(lambda: family_numerators(DistributionFamily(scenario, tables, mode)))
            == outcome(lambda: family_numerators(oracle_family(scenario, tables, mode))))


@pytest.mark.parametrize("mode", numeric.MODES)
def test_valid_family_matches_the_oracle(mode):
    family = L.random_scenario_family(Scenario((2, 3), (3, 2)), 3, mode)
    doc_tables = io.family_to_json(family)["tables"]
    tables = {io.parse_tuple_key(k): v for k, v in doc_tables.items()}
    got = DistributionFamily(family.scenario, tables, mode)
    nums, den = per_table_family(family.scenario, tables, mode)
    assert got.numerators.tolist() == nums.tolist() and got.denominator == den


RATIONAL_DOC = io.family_to_json(L.random_scenario_family(Scenario((2, 1, 2), (2, 3, 2)), 5,
                                                          L.RATIONAL))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FAMILIES + [RATIONAL_DOC]), PICK, JSON_VALUES)
def test_mutated_documents_match_the_oracle(doc, pick, value):
    doc = mutate(doc, pick, value)
    got = outcome(lambda: family_numerators(io.family_from_json(doc)))
    # io builds the family through its module name, which the oracle replaces here
    with mock.patch.object(io, "DistributionFamily", oracle_family):
        expected = outcome(lambda: family_numerators(io.family_from_json(doc)))
    assert got == expected


INTEGERS = st.one_of(st.integers(min_value=-10**30, max_value=10**30),
                     st.integers(min_value=-128, max_value=127).map(np.int8),
                     st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64))


def fraction_numerators(entries):
    """Numerators over one denominator with every entry read as a Fraction."""
    exact = [numeric.coerce_scalar(v, L.RATIONAL) for v in entries]
    denominator = math.lcm(*(v.denominator for v in exact))
    values = np.empty(len(exact), dtype=object)
    values[:] = [v.numerator * (denominator // v.denominator) for v in exact]
    return values, denominator


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(INTEGERS, st.booleans(), st.sampled_from(["1/2", "-3/6", "7", "0.25"])),
                min_size=1, max_size=8))
def test_integer_entries_match_the_fraction_path(entries):
    got = outcome(numeric.numerators, entries, L.RATIONAL)
    assert got == outcome(fraction_numerators, entries)
    if got[0] == object:
        assert all(type(v) is int for v in got[2])


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint32, object])
def test_integer_arrays_match_the_fraction_path(dtype):
    data = np.array([[3, 0], [7, 1]], dtype=dtype)
    assert outcome(numeric.numerators, data, L.RATIONAL) == outcome(
        lambda d: (fraction_numerators(d.reshape(-1).tolist())[0].reshape(d.shape), 1), data)


@pytest.mark.parametrize("flag", [True, np.False_], ids=repr)
def test_bools_are_refused_with_the_same_message(flag):
    with pytest.raises(InputError, match=re.escape(f"{flag!r} is not a number")):
        numeric.numerators([1, flag], L.RATIONAL)
