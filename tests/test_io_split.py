"""A large scalar list formatted by forked workers, its chunks dealt out
in turn: the same bytes as `json.dump(indent=2, sort_keys=True)`, the
serial path's errors, and no child process left behind."""

import contextlib
import io
import json
import os
import random
import sys
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


@contextlib.contextmanager
def cpus(count, piece=None, chunk=None):
    """Run as if on `count` CPUs, with `_PIECE` and `_CHUNK` as given."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(os, "sched_getaffinity",
                                              lambda pid: set(range(count))))
        if piece is not None:
            stack.enter_context(mock.patch.object(lio, "_PIECE", piece))
        if chunk is not None:
            stack.enter_context(mock.patch.object(lio, "_CHUNK", chunk))
        yield


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def written(value) -> str:
    buf = io.StringIO()
    lio.write_json(value, buf)
    return buf.getvalue()


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def line_measure(numerators, denominator, mode):
    scenario = L.Scenario((1,), (numerators.size,))
    return L.SignedMeasure.from_numerators(scenario, numerators, denominator, mode,
                                           tol=None if mode == L.RATIONAL else 1e17)


def float_line(size, rng):
    values = np.array([rng.uniform(-1, 1) for _ in range(size)])
    values[: min(size, 6)] = [-0.0, 5e-324, 1e16, 1e-7, 0.1, 1.0][:size]
    values[-1] = 1 - values[:-1].sum()
    return line_measure(values, 1, L.FLOAT)


def zero_run_line(chunk, rng):
    """A float measure line of `chunk`-entry chunks that are mostly +0.0:
    all-zero chunks, one whose only nonzero is its first entry and one
    whose only nonzero is its last, -0.0 and 5e-324 inside a zero run, a
    run across one chunk boundary and one across several, a mostly
    nonzero chunk with a zero in it, and a short last chunk."""
    def nonzero():
        return rng.uniform(-1, 1) or 0.5

    zero, full = [0.0] * chunk, [nonzero() for _ in range(chunk)]
    first, last = list(zero), list(zero)
    first[0], last[-1] = nonzero(), nonzero()
    signed = list(zero)
    signed[1], signed[-2] = -0.0, 5e-324
    half = chunk // 2
    across = [nonzero() for _ in range(half)] + [0.0] * chunk + [nonzero() for _ in range(chunk - half)]
    holed = list(full)
    holed[half] = 0.0
    values = zero + first + last + signed + across + holed + full + zero * 3 + [0.0, -0.0, 0.0]
    return line_measure(np.array(values), 1, L.FLOAT)


def rational_line(size, rng, huge_at=None):
    # over 12, entries like 6/12 reduce to "1/2" and 24/12 to "2"; `huge_at`
    # puts a numerator past the digit limit there, its negative right after
    values = np.array([rng.randrange(-30, 31) for _ in range(size)], dtype=object)
    if huge_at is not None:
        values[huge_at], values[huge_at + 1] = 10**(DIGIT_LIMIT + 2), -(10**(DIGIT_LIMIT + 2))
    values[-1] = 12 - values[:-1].sum()
    return line_measure(values, 12, L.RATIONAL)


def test_one_process_per_cpu_with_a_piece_each():
    piece = lio._PIECE
    with cpus(2):
        assert lio._processes(2 * piece - 1) == 1
        assert lio._processes(2 * piece) == 2
        assert lio._processes(2**20) == 2
    with cpus(4):
        assert lio._processes(3 * piece - 1) == 2
        assert lio._processes(2**20) == 4
    with cpus(1):
        assert lio._processes(2**20) == 1


def test_a_chunk_sent_in_part_is_not_received():
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as pipe:
        with os.fdopen(write_end, "wb") as out:
            out.write((9).to_bytes(8, "little") + b",1.5")
        assert lio._receive(pipe) is None
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as pipe:
        with os.fdopen(write_end, "wb") as out:
            out.write((4).to_bytes(8, "little") + b",1.5")
        assert lio._receive(pipe) == ",1.5"
        assert lio._receive(pipe) is None


class TestSameBytes:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
                     st.lists(st.integers(), max_size=40),
                     st.lists(st.text(), max_size=40)),
           st.integers(2, 4), st.integers(1, 5), st.integers(1, 4))
    def test_generated_lists(self, value, count, piece, chunk):
        with cpus(count, piece, chunk):
            assert written({"x": value, "y": [value]}) == reference({"x": value, "y": [value]})
        assert_no_child()

    @pytest.mark.parametrize("make", [float_line, rational_line], ids=["float", "rational"])
    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_measure_documents_around_chunk_and_piece_bounds(self, make, count):
        chunk = lio._CHUNK
        rng = random.Random(count)
        for size in (2 * chunk - 1, 2 * chunk, 2 * chunk + 1, 5 * chunk - 1, 5 * chunk,
                     5 * chunk + 1, 8 * chunk + 7):
            measure = make(size, rng)
            doc = lio.measure_to_json(measure)
            listed = {**doc, "atoms": list(doc["atoms"])}
            with cpus(count, piece=chunk):
                assert lio._processes(size) == (1 if size < 2 * chunk
                                                else min(count, size // chunk))
                assert written(doc) == reference(listed)
        assert_no_child()

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    @pytest.mark.parametrize("chunk", [2, 5, 8])
    def test_zero_runs_in_a_float_measure(self, count, chunk):
        measure = zero_run_line(chunk, random.Random(chunk))
        doc = lio.measure_to_json(measure)
        with cpus(count, piece=chunk, chunk=chunk):
            listed = list(doc["atoms"])
            assert listed == numeric.format_entries(measure.numerators, measure.denominator)
            assert lio._processes(len(listed)) == count
            assert written(doc) == reference({**doc, "atoms": listed})
        assert_no_child()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.0, 0.0, 0.0, -0.0, 5e-324, 0.1, -2.5, 1e16]), min_size=1,
                    max_size=40),
           st.integers(1, 4), st.integers(1, 5), st.integers(1, 4))
    def test_generated_sparse_float_measures(self, values, count, piece, chunk):
        measure = line_measure(np.array(values), 1, L.FLOAT)
        doc = lio.measure_to_json(measure)
        with cpus(count, piece, chunk):
            listed = list(doc["atoms"])
            assert listed == numeric.format_entries(measure.numerators, measure.denominator)
            assert written(doc) == reference({**doc, "atoms": listed})
        assert_no_child()

    def test_serial_without_fork(self, monkeypatch):
        value = [random.Random(0).random() for _ in range(50)]
        monkeypatch.delattr(os, "fork")
        with cpus(4, piece=3, chunk=4):
            assert lio._processes(len(value)) == 1
            assert written(value) == reference(value)

    def test_serial_when_fork_fails(self, monkeypatch):
        def no_fork():
            raise BlockingIOError("no process to spare")

        value = [random.Random(1).random() for _ in range(50)]
        monkeypatch.setattr(os, "fork", no_fork)
        with cpus(4, piece=3, chunk=4):
            assert written(value) == reference(value)

    def test_big_float_measure_file_matches_one_cpu(self, tmp_path):
        # (5,5)/(4,4): 1,048,576 atoms in 256 chunks, dealt to four processes
        family = L.random_scenario_family(L.Scenario((5, 5), (4, 4)), 3, L.FLOAT)
        measure = L.build_deterministic_measure(family).measure
        one, four = tmp_path / "one.json", tmp_path / "four.json"
        with cpus(1):
            lio.save_measure(measure, str(one))
        with cpus(4):
            assert lio._processes(measure.numerators.size) == 4
            lio.save_measure(measure, str(four))
        assert one.read_bytes() == four.read_bytes()
        assert_no_child()


class TestFailures:
    """A rational entry past the digit limit, in a worker's chunk or the writer's."""

    def write_error(self, measure, path, count):
        with cpus(count, piece=lio._CHUNK):
            with pytest.raises(AtomBudgetError) as info:
                lio.save_measure(measure, str(path))
        return str(info.value)

    def test_worker_chunk_raises_the_serial_error(self, tmp_path):
        # four chunks, one per process: chunk 2 is the second worker's
        chunk = lio._CHUNK
        measure = rational_line(4 * chunk, random.Random(4), huge_at=2 * chunk + 5)
        path = tmp_path / "measure.json"
        path.write_text("an older file")
        with cpus(4, piece=chunk):
            assert lio._processes(4 * chunk) == 4
        message = self.write_error(measure, path, 4)
        assert message == self.write_error(measure, path, 1)
        assert f"more than {DIGIT_LIMIT} digits" in message
        assert not path.exists()
        assert_no_child()

    def test_writer_chunk_error_kills_the_workers(self, tmp_path):
        # eight chunks over four processes: chunk 4 is the writer's own
        chunk = lio._CHUNK
        measure = rational_line(8 * chunk, random.Random(5), huge_at=4 * chunk + 5)
        path = tmp_path / "measure.json"
        assert f"more than {DIGIT_LIMIT} digits" in self.write_error(measure, path, 4)
        assert not path.exists()
        assert_no_child()

    def test_chunks_a_worker_never_sent_are_formatted_here(self):
        # the worker dealt chunks 1, 4, 7, ... exits at chunk 7; the writer
        # formats 7, 10, 13, ... itself and the text stays the same
        writer = os.getpid()

        class ExitsInWorker(list):
            def __getitem__(self, index):
                if isinstance(index, slice) and index.start == 7 * 4 and os.getpid() != writer:
                    os._exit(3)
                return super().__getitem__(index)

        value = ExitsInWorker(random.Random(6).random() for _ in range(4 * 20))
        with cpus(3, piece=4, chunk=4):
            assert lio._processes(len(value)) == 3
            assert written(value) == reference(value)
        assert_no_child()
