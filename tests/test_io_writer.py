"""The chunked JSON writer against `json.dump(indent=2, sort_keys=True)`."""

import io
import json
import math
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqhv import io as lio

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
        # a 3-entry chunk makes most generated lists span several chunks
        with mock.patch.object(lio, "_CHUNK", 3):
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
