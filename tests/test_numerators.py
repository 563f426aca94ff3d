"""Table entries read in one pass agree with the per-table oracle.

`numeric.numerators` and the mapping constructor of `DistributionFamily`
read every entry once, strict "p/q" text with two `int` calls and the
rest through `coerce_scalar`. Each example compares them with
`oracles.per_table_family`, which coerces one table at a time into
`Fraction` or float arrays: the numerators and the denominator must be
equal, or the error type and message must be the same.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqhv as L
from lqhv import io, numeric
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
