"""Measure atoms split into `_CHUNK`-entry pieces as they are written: the
same bytes as `json.dump(indent=2, sort_keys=True)` wherever a chunk or
the short last piece of a list begins and ends."""

import random
from unittest import mock

import numpy as np
import pytest

import lqhv as L
from lqhv import io as lio
from lqhv import numeric

from test_io_writer import float_line, line_measure, rational_line, reference, written


def zero_run_line(chunk, count, rng):
    """`count` copies, back to back, of a float measure line of
    `chunk`-entry chunks that are mostly +0.0: all-zero chunks, one whose
    only nonzero is its first entry and one whose only nonzero is its
    last, -0.0 and 5e-324 inside a zero run, a run across one chunk
    boundary and one across several, a mostly nonzero chunk with a zero
    in it, and a short last chunk. A copy is 11 * chunk + 3 entries long,
    so the later copies sit off the chunk bounds, and the zeros that end
    one copy run on into those that begin the next."""
    def nonzero():
        return rng.uniform(-1, 1) or 0.5

    values = []
    for _ in range(count):
        zero, full = [0.0] * chunk, [nonzero() for _ in range(chunk)]
        first, last = list(zero), list(zero)
        first[0], last[-1] = nonzero(), nonzero()
        signed = list(zero)
        signed[1], signed[-2] = -0.0, 5e-324
        half = chunk // 2
        across = [nonzero() for _ in range(half)] + [0.0] * chunk + [nonzero() for _ in range(chunk - half)]
        holed = list(full)
        holed[half] = 0.0
        values += zero + first + last + signed + across + holed + full + zero * 3 + [0.0, -0.0, 0.0]
    return line_measure(np.array(values), 1, L.FLOAT)


class TestSameBytes:
    @pytest.mark.parametrize("make", [float_line, rational_line], ids=["float", "rational"])
    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_measure_documents_around_chunk_and_piece_bounds(self, make, count):
        # lists around one and `count` whole chunks, and one that ends in a
        # short last piece of 7 entries
        chunk = lio._CHUNK
        rng = random.Random(count)
        for size in (chunk - 1, chunk, chunk + 1, count * chunk - 1, count * chunk,
                     count * chunk + 1, (2 * count + 1) * chunk + 7):
            doc = lio.measure_to_json(make(size, rng))
            assert written(doc) == reference({**doc, "atoms": list(doc["atoms"])})

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    @pytest.mark.parametrize("chunk", [2, 5, 8])
    def test_zero_runs_in_a_float_measure(self, count, chunk):
        measure = zero_run_line(chunk, count, random.Random(chunk))
        doc = lio.measure_to_json(measure)
        with mock.patch.object(lio, "_CHUNK", chunk):
            listed = list(doc["atoms"])
            assert listed == numeric.format_entries(measure.numerators, measure.denominator)
            assert written(doc) == reference({**doc, "atoms": listed})
