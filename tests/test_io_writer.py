"""The chunked JSON writer against `json.dump(indent=2, sort_keys=True)`."""

import io
import json
import math
import random
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqhv as L
from lqhv import io as lio
from lqhv import numeric
from lqhv.errors import AtomBudgetError

DIGIT_LIMIT = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits

SPECIAL_FLOATS = [-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-10**80, max_value=10**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(),
    st.sampled_from(["é", "☃", "\n\t\"\\", "\x00\x1f", "\U0001f600", ""]),
)

# lists of one scalar type, the shape of every table, atom and certificate list
UNIFORM_LISTS = st.one_of(
    st.lists(st.floats(allow_nan=True, allow_infinity=True)),
    st.lists(st.integers()),
    st.lists(st.text()),
    st.lists(st.booleans()),
    st.lists(st.none()),
)

VALUES = st.recursive(
    st.one_of(SCALARS, UNIFORM_LISTS),
    lambda children: st.one_of(st.lists(children, max_size=6),
                               st.dictionaries(st.text(), children, max_size=6)),
    max_leaves=40,
)


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def written(value) -> str:
    buf = io.StringIO()
    lio.write_json(value, buf)
    return buf.getvalue()


class TestWriteJsonBytes:
    @settings(max_examples=200, deadline=None)
    @given(VALUES)
    def test_matches_json_dump(self, value):
        assert written(value) == reference(value)

    @settings(max_examples=100, deadline=None)
    @given(VALUES)
    def test_matches_json_dump_across_chunks(self, value):
        # every nonempty scalar list streamed, and a 3-entry chunk makes
        # most generated lists span several chunks
        with mock.patch.object(lio, "_CHUNK", 3), mock.patch.object(lio, "_LONG", 1):
            assert written(value) == reference(value)

    @pytest.mark.parametrize("value", [
        {}, [], {"a": {}, "b": []}, [[]], [{}],
        [True, 1, 1.0], [1, True, 1.0, None, "1"], [False, 0, 0.0, -0.0],
        SPECIAL_FLOATS, {"x": SPECIAL_FLOATS},
        [10**100, -10**100], ["é", "☃", "\n\"\\", "\U0001f600"],
        {"é": 1, "a\n": [None]}, ("tuple", 1), [(1, 2), [3]],
        "top", 1.5, None, True,
    ], ids=repr)
    def test_edge_values(self, value):
        assert written(value) == reference(value)

    def test_lists_longer_than_a_chunk(self):
        rng = random.Random(0)
        size = 2 * lio._CHUNK + 17
        value = {"floats": [rng.random() for _ in range(size)],
                 "text": [f"{rng.randrange(10**6)}/7" for _ in range(size)],
                 "nested": [[rng.random()] * 3 for _ in range(size // 100)],
                 "exact": [lio._CHUNK * [1.0], (lio._CHUNK + 1) * [2]]}
        assert written(value) == reference(value)

    def test_dump_json_file_bytes(self, tmp_path):
        value = {"mode": "float", "atoms": [0.1, 0.2, -0.0], "axes": [{"site": 1}]}
        path = tmp_path / "out.json"
        lio.dump_json(value, str(path))
        assert path.read_bytes() == reference(value).encode("utf-8")

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            written({1: 2})

    def test_unserializable_value_rejected(self):
        with pytest.raises(TypeError):
            written({"a": object()})


def test_peak_memory_stays_below_the_text(tmp_path):
    rng = random.Random(1)
    value = {"atoms": [rng.random() for _ in range(2**20)]}
    path = tmp_path / "big.json"
    tracemalloc.start()
    try:
        lio.dump_json(value, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 2**20 * 18
    assert peak < size / 10


def line_measure(numerators, denominator, mode):
    """A one-site, one-setting measure with the given atoms; the writer
    does not read the mass, so a float line is held to a wide tolerance."""
    scenario = L.Scenario((1,), (numerators.size,))
    return L.SignedMeasure.from_numerators(scenario, numerators, denominator, mode,
                                           tol=None if mode == L.RATIONAL else 1e17)


def float_line(size, rng):
    values = np.array([rng.uniform(-1, 1) for _ in range(size)])
    values[:8] = [-0.0, 5e-324, 1e16, -1e16, 1e-7, -1e-7, 0.1, 1.0]
    values[size // 2] = 1e16
    values[-1] = 1 - values[:-1].sum()
    return line_measure(values, 1, L.FLOAT)


def rational_line(size, rng, huge_at=None):
    # over 12, entries like 6/12 reduce to "1/2" and 24/12 to "2"; `huge_at`
    # puts a numerator past the digit limit there, its negative right after
    values = np.array([rng.randrange(-30, 31) for _ in range(size)], dtype=object)
    if huge_at is not None:
        values[huge_at], values[huge_at + 1] = 10**(DIGIT_LIMIT + 2), -(10**(DIGIT_LIMIT + 2))
    values[-1] = 12 - values[:-1].sum()
    return line_measure(values, 12, L.RATIONAL)


class TestStreamedAtoms:
    """A measure document's atoms are formatted as they are written."""

    @pytest.mark.parametrize("make", [float_line, rational_line], ids=["float", "rational"])
    def test_written_as_the_list_form(self, make):
        measure = make(2 * lio._CHUNK + 17, random.Random(2))
        doc = lio.measure_to_json(measure)
        listed = lio.numeric.format_entries(measure.numerators, measure.denominator)
        assert list(doc["atoms"]) == listed
        assert written(doc) == reference({**doc, "atoms": listed})

    def test_rational_entries_take_both_forms(self):
        atoms = list(lio.measure_to_json(rational_line(2 * lio._CHUNK + 17,
                                                       random.Random(2)))["atoms"])
        assert any("/" in a for a in atoms) and any("/" not in a for a in atoms)

    def test_length_indexing_and_slices(self):
        measure = rational_line(lio._CHUNK + 5, random.Random(3))
        atoms = lio.measure_to_json(measure)["atoms"]
        listed = list(atoms)
        assert len(atoms) == len(listed) == lio._CHUNK + 5
        assert atoms[0] == listed[0] and atoms[-1] == listed[-1]
        assert atoms[lio._CHUNK - 2:lio._CHUNK + 2] == listed[lio._CHUNK - 2:lio._CHUNK + 2]
        with pytest.raises(IndexError):
            atoms[len(listed)]


class TestChunkBounds:
    """Scalar lists and measure atoms split across chunks of every size."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
                     st.lists(st.integers(), max_size=40),
                     st.lists(st.text(), max_size=40)),
           st.integers(1, 4))
    def test_generated_lists(self, value, chunk):
        with mock.patch.object(lio, "_CHUNK", chunk):
            assert written({"x": value, "y": [value]}) == reference({"x": value, "y": [value]})

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.0, 0.0, 0.0, -0.0, 5e-324, 0.1, -2.5, 1e16]), min_size=1,
                    max_size=40),
           st.integers(1, 4))
    def test_generated_sparse_float_measures(self, values, chunk):
        measure = line_measure(np.array(values), 1, L.FLOAT)
        doc = lio.measure_to_json(measure)
        with mock.patch.object(lio, "_CHUNK", chunk):
            listed = list(doc["atoms"])
            assert listed == numeric.format_entries(measure.numerators, measure.denominator)
            assert written(doc) == reference({**doc, "atoms": listed})


class TestFailedDump:
    """dump_json removes the file it opened when the write fails."""

    def test_entry_past_the_digit_limit_mid_list_leaves_no_file(self, tmp_path):
        # the entry is found in the third of four chunks, after two are written
        chunk = lio._CHUNK
        measure = rational_line(4 * chunk, random.Random(4), huge_at=2 * chunk + 5)
        path = tmp_path / "measure.json"
        path.write_text("an older file")
        with pytest.raises(AtomBudgetError, match=f"more than {DIGIT_LIMIT} digits"):
            lio.save_measure(measure, str(path))
        assert not path.exists()

    def test_unserializable_value_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            lio.dump_json({"a": [1.0] * 10, "b": object()}, str(path))
        assert not path.exists()

    def test_interrupt_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.json"

        def interrupted(indent):
            raise KeyboardInterrupt

        with mock.patch.object(lio, "_list_encoder", interrupted):
            with pytest.raises(KeyboardInterrupt):
                lio.dump_json({"atoms": [1.0, 2.0] * lio._LONG}, str(path))
        assert not path.exists()


def test_save_measure_peak_stays_near_the_measure(tmp_path):
    # (4,4)/(4,4): 65,536 atoms; no list of every atom is built
    family = L.random_scenario_family(L.Scenario((4, 4), (4, 4)), 3, L.FLOAT)
    measure = L.build_deterministic_measure(family).measure
    tracemalloc.start()
    try:
        lio.save_measure(measure, str(tmp_path / "measure.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * measure.numerators.nbytes
