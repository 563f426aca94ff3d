"""JSON file formats for families, measures, verdicts and quantum inputs.

Family files:
    {"parties": [{"settings": S_n, "outcomes": K_n}, ...],
     "mode": "rational" | "float",
     "tables": {"s1,s2,...,sN": [row-major entries], ...}}
Setting keys are 1-based and comma-joined, one key per tuple: keys that
read as one tuple, such as "1,1" and "01,1", are refused, as is a key
repeated in any object of any file. Rational entries are "p/q" strings,
float entries JSON numbers.

Accepted entries, in tables and in measure atoms alike: in rational mode,
"p" or "p/q" text in ASCII digits with an optional leading minus (read
directly), and any other text `fractions.Fraction` reads (a sign or
spaces around the number, underscores between digits, decimals and
exponents such as "0.5" or "1e-3"), JSON integers, and JSON floats,
read as their shortest decimal ("0.45" is 9/20). Decimal text is refused
when its exponent's magnitude plus its mantissa's digits exceed Python's
integer digit limit (`sys.get_int_max_str_digits()`, 4300 by default),
the limit `int` already puts on a literal, so "1e4299" reads and
"1e4300" does not. In float mode, JSON numbers and text `float` reads.
Both modes refuse true/false, null, zero denominators and non-finite
values. Files are read as UTF-8; any other bytes are malformed input, and
so is a JSON integer with more digits than the digit limit.

Measure files:
    {"axes": [{"site": n, "setting": s, "outcomes": K_n}, ...],
     "mode": "rational" | "float",
     "atoms": [row-major entries in the axis order shown]}
The scenario read has sites 1..N, N the number of distinct site labels;
site n has one setting per axis labelled n and the outcome count of its
first such axis. The axes must equal that scenario's `coordinates` with
their `joint_shape`: each (site, setting) once, in the order
(1,1)..(1,S_1)..(N,S_N). Import revalidates normalization, within
LQHV_TOL or 1e-9 in float mode.

Verdict files:
    {"row_order": <description>, "feasible": bool,
     "witness": measure object | null, "certificate": [entries] | null,
     "residual": entry}

Quantum scenario files:
    {"site_dims": [d_n, ...], "rho": [[[re, im], ...], ...],
     "povms": [[[effect, ...] per setting] per site]}
with every complex entry a two-element [re, im] array and every effect a
nested matrix. `DensityMatrix`, `POVM` and `QuantumScenario` hold every
other rule, within `lqhv.quantum.TOL`, and "site_dims" must equal the
`site_dims` that `QuantumScenario` computes from the POVMs. A family's
tolerance is fixed when it is read: the `tol` given to `load_family` (the
CLI's `--tol`), else LQHV_TOL, else 1e-9; a rational family's is 0.

Every file and every `--json` report goes through one writer,
`write_json`. Its output is byte for byte what
`json.dump(data, fh, indent=2, sort_keys=True)` followed by a line break
writes, for any JSON value of dicts with str keys, lists, tuples and
scalars, where an `Entries` sequence stands for the list it holds. It
walks dicts and lists as that encoder does, but a list of plain scalars
(str, int, float, bool, None) goes through the C encoder in pieces of
`_CHUNK` entries, so the text of a large list is never held whole and
never formatted entry by entry in Python.

A scalar list of at least 2·`_PIECE` entries is formatted by one process
per CPU (`os.sched_getaffinity`), each with at least `_PIECE` entries:
the writer forks the others and deals the `_CHUNK`-entry chunks out in
turn, so every process gets a share of each part of the list, however
its cost is spread. The writer formats its own chunks straight to the
stream and copies each worker's chunk, sent whole down a pipe, in its
place. Every chunk is formatted by the same code as in the serial write,
so the bytes do not change, and without `os.fork` the list is written
serially. A chunk that no worker sent whole is formatted by the writer,
so an error is the one a serial write raises, and every worker is
killed and reaped before the writer returns.

A measure document's "atoms" is such an `Entries` sequence: a read-only
view of the measure's numerators that formats its entries only when
they are read. The writer streams it `_CHUNK` entries at a time, so no
list of the whole measure is ever built. A rational entry past the digit
limit is then found mid-write, and `dump_json` removes the file it was
writing on any failure, so a failed write leaves no file at the path.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import signal
import stat
import warnings
from collections.abc import Sequence
from typing import Any

import numpy as np

from . import numeric
from .construct import SignedMeasure
from .errors import InputError
from .lp import ROW_ORDER, LhvVerdict
from .quantum import POVM, DensityMatrix, QuantumScenario
from .scenario import DistributionFamily, Scenario


def _require(data: Any, key: str, what: str):
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object, got {type(data).__name__}")
    if key not in data:
        raise InputError(f"{what} is missing the {key!r} field")
    return data[key]


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InputError(f"{where} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where} must be an integer, got {value!r}") from exc


def _require_int(data: Any, key: str, what: str) -> int:
    return _as_int(_require(data, key, what), f"{what} field {key!r}")


def tuple_key(setting_tuple) -> str:
    return ",".join(str(s) for s in setting_tuple)


def parse_tuple_key(key: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, key.split(",")))
    except ValueError as exc:
        raise InputError(f"malformed setting-tuple key {key!r}") from exc


def family_to_json(family: DistributionFamily) -> dict:
    parties = [{"settings": s, "outcomes": k}
               for s, k in zip(family.scenario.settings_per_site,
                               family.scenario.outcomes_per_site)]
    entries = numeric.format_entries(family.numerators, family.denominator)
    size = len(entries) // family.scenario.n_tuples
    tables = {tuple_key(t): entries[i * size:(i + 1) * size]
              for i, t in enumerate(family.scenario.setting_tuples())}
    return {"parties": parties, "mode": family.mode, "tables": tables}


def family_from_json(data: Any, tol: float | None = None) -> DistributionFamily:
    parties = _require(data, "parties", "family file")
    if not isinstance(parties, list):
        raise InputError("'parties' must be a list")
    shape = [(_require_int(p, "settings", f"party {i}"), _require_int(p, "outcomes", f"party {i}"))
             for i, p in enumerate(parties, start=1)]
    scenario = Scenario(tuple(s for s, _ in shape), tuple(k for _, k in shape))
    mode = _require(data, "mode", "family file")
    raw_tables = _require(data, "tables", "family file")
    if not isinstance(raw_tables, dict):
        raise InputError("'tables' must map setting tuples to entry lists")
    tables = {parse_tuple_key(k): v for k, v in raw_tables.items()}
    if len(tables) != len(raw_tables):
        keys = sorted(raw_tables, key=parse_tuple_key)  # stable: colliding keys in file order
        a, b = next(pair for pair in zip(keys, keys[1:])
                    if parse_tuple_key(pair[0]) == parse_tuple_key(pair[1]))
        raise InputError(f"table keys {a!r} and {b!r} name one setting tuple")
    return DistributionFamily(scenario, tables, mode, tol=tol)


class Entries(Sequence):
    """The JSON entries of a numerator array over its denominator,
    flattened row-major, as a read-only sequence that formats them on
    access: a slice is `numeric.format_entries` of that slice, and
    iteration formats `_CHUNK` entries at a time. A contiguous array is
    viewed, not copied."""

    __slots__ = ("_flat", "_denominator")

    def __init__(self, numerators: np.ndarray, denominator: int):
        self._flat = numerators.reshape(-1)
        self._denominator = denominator

    def __len__(self) -> int:
        return self._flat.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return numeric.format_entries(self._flat[index], self._denominator)
        index = range(len(self))[index]
        return self[index:index + 1][0]

    def __iter__(self):
        for start in range(0, len(self), _CHUNK):
            yield from self[start:start + _CHUNK]


_AXIS_KEYS = ("site", "setting", "outcomes")


def _axes(scenario: Scenario) -> list[tuple[int, int, int]]:
    """The (site, setting, outcomes) of each joint axis, in axis order."""
    return [(n, s, k) for (n, s), k in zip(scenario.coordinates, scenario.joint_shape)]


def measure_to_json(measure: SignedMeasure) -> dict:
    return {
        "axes": [dict(zip(_AXIS_KEYS, axis)) for axis in _axes(measure.scenario)],
        "mode": measure.mode,
        "atoms": Entries(measure.numerators, measure.denominator),
    }


def measure_from_json(data: Any) -> SignedMeasure:
    raw_axes = _require(data, "axes", "measure file")
    if not isinstance(raw_axes, list):
        raise InputError("'axes' must be a list")
    axes = [tuple(_require_int(ax, key, f"axis {i}") for key in _AXIS_KEYS)
            for i, ax in enumerate(raw_axes)]
    # sites 1..(distinct labels), each with its axis count and first outcome count
    counts = collections.Counter(n for n, _, _ in axes)
    first = {n: k for n, _, k in reversed(axes)}
    sites = range(1, len(counts) + 1)
    scenario = Scenario(tuple(counts[n] for n in sites), tuple(first.get(n, 0) for n in sites))
    if axes != _axes(scenario):
        raise InputError("axes must list each (site, setting) in the fixed order (1,1).."
                         "(1,S_1)..(N,S_N), with no duplicates and one outcome count per site")
    mode = _require(data, "mode", "measure file")
    return SignedMeasure(scenario, _require(data, "atoms", "measure file"), mode)


def verdict_to_json(verdict: LhvVerdict) -> dict:
    return {
        "row_order": ROW_ORDER,
        "feasible": verdict.feasible,
        "witness": None if verdict.measure is None else measure_to_json(verdict.measure),
        "certificate": (None if verdict.certificate is None
                        else [numeric.format_scalar(v) for v in verdict.certificate.tolist()]),
        "residual": numeric.format_scalar(verdict.residual),
    }


def _complex_entry(value: Any, where: str) -> complex:
    if (not isinstance(value, (list, tuple))) or len(value) != 2:
        raise InputError(f"{where}: complex entries must be [re, im] pairs")
    try:
        return complex(float(value[0]), float(value[1]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{where}: bad complex entry {value!r}") from exc


def _complex_matrix(rows: Any, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == len(rows[0]) for row in rows):
        raise InputError(f"{where}: expected a matrix of equal-length rows")
    return np.array([[_complex_entry(v, where) for v in row] for row in rows], dtype=complex)


def _matrix_json(matrix: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]


def quantum_to_json(q: QuantumScenario) -> dict:
    return {
        "site_dims": list(q.site_dims),
        "rho": _matrix_json(q.rho.matrix),
        "povms": [[[_matrix_json(e) for e in povm.effects] for povm in site]
                  for site in q.povms],
    }


def quantum_from_json(data: Any) -> QuantumScenario:
    dims = _require(data, "site_dims", "quantum file")
    if not isinstance(dims, list):
        raise InputError("'site_dims' must be a list")
    dims = tuple(_as_int(d, f"site_dims entry {n}") for n, d in enumerate(dims, start=1))
    rho = DensityMatrix(_complex_matrix(_require(data, "rho", "quantum file"), "rho"))
    raw_povms = _require(data, "povms", "quantum file")
    if not isinstance(raw_povms, list):
        raise InputError("'povms' must hold one setting list per site")
    povms = []
    for n, site in enumerate(raw_povms, start=1):
        if not isinstance(site, list):
            raise InputError(f"site {n} needs a list of POVMs")
        site_povms = []
        for s, effects in enumerate(site, start=1):
            if not isinstance(effects, list):
                raise InputError(f"site {n} setting {s}: expected a list of effects")
            site_povms.append(POVM(tuple(_complex_matrix(e, f"site {n} setting {s} effect {i}")
                                         for i, e in enumerate(effects))))
        povms.append(site_povms)
    q = QuantumScenario(rho, povms)
    if q.site_dims != dims:
        raise InputError(f"declared site_dims {list(dims)} do not match the POVMs' "
                         f"dimensions {list(q.site_dims)}")
    return q


def _unique_keys(pairs: list) -> dict:
    """A decoded JSON object; one that names a key twice is refused, since
    the decoder would keep only the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"key {key!r} appears twice in one JSON object")
        obj[key] = value
    return obj


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not valid UTF-8 JSON: {exc}") from exc
    except InputError:  # a repeated key, refused by `_unique_keys`
        raise
    except ValueError as exc:  # a JSON integer past the interpreter's digit limit
        raise InputError(f"{path} holds a number too long to read: {exc}") from exc


# Entries per C-encoded piece of a scalar list: large enough that the
# per-call cost vanishes, small enough that a piece's text stays small.
_CHUNK = 4096


@functools.cache
def _list_encoder(indent: str):
    """C-encoder of a scalar list whose items sit on lines at `indent`;
    one is cached per nesting depth."""
    return json.JSONEncoder(separators=("," + indent, ": ")).encode


# Fewest entries a process formats once a scalar list is split, so a list
# of twice as many is the shortest split: a fork's few milliseconds stay
# small beside the ~0.1 s that formatting 2^17 floats takes.
_PIECE = 2**17

# Bytes a worker's pipe holds where the OS lets it be widened (Linux's
# limit for an unprivileged process), so a worker can run many chunks
# ahead of the writer rather than one.
_PIPE_BYTES = 2**20


def _chunk_text(value, start: int, inner: str) -> str:
    """The text of the `_CHUNK` entries of a scalar list from `start`, led
    by the list's "[" or by the "," that ends the entries before them."""
    entries = _list_encoder(inner)(value[start:start + _CHUNK])[1:-1]
    return ("," if start else "[") + inner + entries


def _processes(n: int) -> int:
    """How many processes format an n-entry scalar list: one per CPU, each
    with at least `_PIECE` entries, and one alone without `os.fork`."""
    if n < 2 * _PIECE or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n // _PIECE)


def _fork_worker(value, first: int, step: int, inner: str):
    """Fork a worker that formats chunks first, first + step, ... of a
    scalar list and sends each whole down a pipe, its byte length first;
    its pid and the pipe's read end as a file, or None when no process
    can be forked."""
    read_end, write_end = os.pipe()
    with contextlib.suppress(ImportError, AttributeError, OSError):
        import fcntl
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns on forking beside other threads (numpy's
            # BLAS pool); the worker only formats text, writes and exits.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:  # the worker: a chunk it fails on is formatted by the parent
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                for start in range(first * _CHUNK, len(value), step * _CHUNK):
                    text = _chunk_text(value, start, inner).encode("ascii")
                    pipe.write(len(text).to_bytes(8, "little"))
                    pipe.write(text)
        finally:
            os._exit(0)
    os.close(write_end)
    return pid, os.fdopen(read_end, "rb")


def _receive(pipe) -> str | None:
    """The next chunk text a worker sent whole, or None if it sent no more."""
    size = int.from_bytes(pipe.read(8), "little")
    text = pipe.read(size)
    return text.decode("ascii") if text and len(text) == size else None


def _write_scalars(value, fh, inner: str) -> None:
    """Write a scalar list from its "[" to its last entry, `_CHUNK` entries
    at a time. With p `_processes`, the writer forks p - 1 workers and
    deals the chunks out in turn: it formats chunks 0, p, 2p, ... itself
    and takes worker i's chunks i, p + i, ... from its pipe, so each
    process gets a share of every part of the list. A chunk no worker sent
    whole is formatted here, so an error is the one the serial write
    raises. Every worker is killed and reaped before this returns."""
    count = _processes(len(value))
    senders = [None]  # (pid, pipe) of each process's worker; None for this one and once it stops
    try:
        for first in range(1, count):
            senders.append(_fork_worker(value, first, count, inner))
        for index, start in enumerate(range(0, len(value), _CHUNK)):
            sender = senders[index % count]
            text = _receive(sender[1]) if sender else None
            if sender and text is None:
                _reap(*sender)
                senders[index % count] = None
            fh.write(_chunk_text(value, start, inner) if text is None else text)
    finally:
        for sender in filter(None, senders):
            _reap(*sender)


def _reap(pid: int, pipe) -> None:
    """Stop a worker, whether or not it is done, and wait for it."""
    pipe.close()
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _write(value: Any, fh, newline: str) -> None:
    """Write one value the way json's indent=2, sort_keys=True encoder
    does, `newline` being the line break plus the value's indentation."""
    if isinstance(value, dict):
        if not value:
            fh.write("{}")
            return
        inner, sep = newline + "  ", "{"
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
            fh.write(sep + inner + json.dumps(key) + ": ")
            _write(value[key], fh, inner)
            sep = ","
        fh.write(newline + "}")
    elif isinstance(value, (list, tuple, Entries)):
        if not value:
            fh.write("[]")
            return
        inner, sep = newline + "  ", "["
        if isinstance(value, Entries) or set(map(type, value)) <= numeric.JSON_SCALARS:
            _write_scalars(value, fh, inner)
        else:
            for item in value:
                fh.write(sep + inner)
                _write(item, fh, inner)
                sep = ","
        fh.write(newline + "]")
    else:
        fh.write(json.dumps(value))


def write_json(data: Any, fh) -> None:
    """Write `data` and a line break to the text stream `fh`, byte for byte
    as `json.dump(data, fh, indent=2, sort_keys=True)` and "\\n" would."""
    _write(data, fh, "\n")
    fh.write("\n")


def dump_json(data: Any, path: str) -> None:
    """Write `data` to the file at `path`. On any failure once the file is
    open, a regular file is removed again, so no partial file is left."""
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    try:
        with fh:
            write_json(data, fh)
    except BaseException as exc:
        if regular:
            with contextlib.suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError):
            raise InputError(f"cannot write {path}: {exc}") from exc
        raise


def load_family(path: str, tol: float | None = None) -> DistributionFamily:
    return family_from_json(load_json(path), tol=tol)


def save_family(family: DistributionFamily, path: str) -> None:
    dump_json(family_to_json(family), path)


def load_measure(path: str) -> SignedMeasure:
    return measure_from_json(load_json(path))


def save_measure(measure: SignedMeasure, path: str) -> None:
    dump_json(measure_to_json(measure), path)


def load_quantum(path: str) -> QuantumScenario:
    return quantum_from_json(load_json(path))


def save_quantum(q: QuantumScenario, path: str) -> None:
    dump_json(quantum_to_json(q), path)


def save_verdict(verdict: LhvVerdict, path: str) -> None:
    dump_json(verdict_to_json(verdict), path)
