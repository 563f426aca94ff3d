"""JSON file formats for families, measures, verdicts and quantum inputs.

Family files:
    {"parties": [{"settings": S_n, "outcomes": K_n}, ...],
     "mode": "rational" | "float",
     "tables": {"s1,s2,...,sN": [row-major entries], ...}}
Setting keys are 1-based and comma-joined: a key (and the CLI's --tuple)
is comma-separated ASCII digits, leading zeros allowed, so "+1,1",
" 1,1" and "1_0" are malformed. One key per tuple: keys that read as one
tuple, such as "1,1" and "01,1", are refused, as is a key repeated in
any object of any file. Rational entries are "p/q" strings, float
entries JSON numbers.

Every count and label in a file (a party's "settings" and "outcomes", a
measure axis' "site", "setting" and "outcomes", the "site_dims" of a
quantum file) is a JSON integer or an integral number such as 2.0, which
reads as 2; text such as "2", true/false and any other number are
refused. Past that one leniency it is read by `lqhv.numeric.read_int`,
the rule every integer a caller hands the library is read by.

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
so is a JSON integer with more digits than the digit limit. A file's
bytes are read once: the digest a CLI report carries is the SHA-256 of
the very bytes parsed.

Measure files:
    {"axes": [{"site": n, "setting": s, "outcomes": K_n}, ...],
     "mode": "rational" | "float",
     "atoms": [row-major entries in the axis order shown]}
The scenario read has sites 1..N, N the number of distinct site labels;
site n has one setting per axis labelled n and the outcome count of its
first such axis. The axes must equal that scenario's `coordinates` with
their `joint_shape`: each (site, setting) once, in the order
(1,1)..(1,S_1)..(N,S_N). Import revalidates normalization, within
LQHV_TOL or 1e-9 in float mode. A measure file carries no tolerance, so
a measure built from a family read at a looser one may be refused on
reload: a float family read with tol=1e-6 whose table sums to 1 + 5e-7
builds a measure of mass 1.0000001249999375, which `load_measure`
refuses unless LQHV_TOL is set.

Verdict files:
    {"row_order": <description>, "feasible": bool,
     "witness": measure object | null, "certificate": [entries] | null,
     "residual": entry}

Quantum scenario files:
    {"site_dims": [d_n, ...], "rho": [[[re, im], ...], ...],
     "povms": [[[effect, ...] per setting] per site]}
with every complex entry a two-element [re, im] array and every effect a
nested matrix of them. A matrix's pairs are read at once by the rule of
float table entries (`numeric.numerators` in float mode): JSON numbers
or text `float` reads, never true/false, null or a non-finite value; a
ragged matrix is refused naming the entry that breaks its shape, as an
index path such as [0][0].
`DensityMatrix`, `POVM` and `QuantumScenario` hold every other rule,
within `lqhv.quantum.TOL`, and "site_dims" must equal the `site_dims`
that `QuantumScenario` computes from the POVMs. A family's
tolerance is fixed when it is read: the `tol` given to `load_family` (the
CLI's `--tol`), else LQHV_TOL, else 1e-9; a rational family's is 0.

Every file and every `--json` report goes through one writer,
`write_json`. Its output is byte for byte what
`json.dump(data, fh, indent=2, sort_keys=True)` followed by a line break
writes, for any JSON value of dicts with str keys, lists, tuples and
scalars, where an `Entries` sequence stands for the list it holds. `json`
lays out each document with one `json.dumps` call, in which every list
of plain scalars (str, int, float, bool, None) with at least `_LONG`
entries and every `Entries` stands as one marker string, a NUL and random
hex fresh for each call; json lays out a shorter list itself, faster
than a streamed one. The writer then writes the text up to each marker
and streams that list in its place, two spaces deeper than the marker's
line, through the C encoder in pieces of `_CHUNK` entries, so the text
of a large list is never held whole and never formatted entry by entry
in Python. No text the CLI writes holds a NUL, since no path can.

A measure document's "atoms" is such an `Entries` sequence: a read-only
view of the measure's numerators that formats its entries only when
they are read. The writer streams it `_CHUNK` entries at a time, so no
list of the whole measure is ever built. A rational entry past the digit
limit is then found mid-write, and `dump_json` removes the file it was
writing on any failure, so a failed write leaves no file at the path.
Most atoms of a deterministic measure are zeros, so in a float chunk
that is at least half +0.0 only the other atoms go through the encoder,
and each zero is written as the constant text "0.0" that the encoder
would give it: the same bytes, without `float.__repr__` on the zeros.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import re
import stat
from collections.abc import Sequence
from typing import Any

import numpy as np

from . import numeric
from .construct import SignedMeasure
from .errors import InputError
from .lp import ROW_ORDER, LhvVerdict
from .quantum import POVM, DensityMatrix, QuantumScenario
from .scenario import DistributionFamily, Scenario, read_int


def _require(data: Any, key: str, what: str):
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object, got {type(data).__name__}")
    if key not in data:
        raise InputError(f"{what} is missing the {key!r} field")
    return data[key]


def _as_int(value: Any, where: str) -> int:
    """A count or label read from a file by `read_int`, with one JSON
    leniency: an integral number such as 2.0 reads as 2."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return read_int(value, where)


def _require_int(data: Any, key: str, what: str) -> int:
    return _as_int(_require(data, key, what), f"{what} field {key!r}")


def tuple_key(setting_tuple) -> str:
    return ",".join(str(s) for s in setting_tuple)


# a setting-tuple key: comma-separated ASCII digits, leading zeros allowed
_TUPLE_KEY = re.compile(r"[0-9]+(?:,[0-9]+)*")


def parse_tuple_key(key: str) -> tuple[int, ...]:
    """The setting tuple a table key or the CLI's --tuple names; a key that
    is not `_TUPLE_KEY` text, or has a field past the interpreter's digit
    limit, raises InputError."""
    if _TUPLE_KEY.fullmatch(key):
        try:
            return tuple(map(int, key.split(",")))
        except ValueError:  # a field past the digit limit
            pass
    raise InputError(f"malformed setting-tuple key {key!r}")


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


def _complex_matrix(rows: Any, where: str) -> np.ndarray:
    """A matrix of [re, im] pairs, all read at once by the float-table
    reader `numeric.numerators`, as a complex array."""
    try:
        pairs = numeric.numerators(rows, numeric.FLOAT)[0]
    except InputError as exc:
        raise InputError(f"{where}: expected a matrix of [re, im] pairs: {exc}") from exc
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise InputError(f"{where}: expected a matrix of [re, im] pairs, got shape {pairs.shape}")
    return pairs.view(complex)[..., 0]  # each C-ordered (re, im) pair is one complex


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


def _read_text(path: str, digest) -> str:
    """The text of the file at `path`, whose bytes are read once and, when
    `digest` (a hashlib object) is given, fed to it, so the hash names the
    very bytes parsed. They are decoded as a text-mode `open` decodes them,
    UTF-8 with universal newlines, so an error's position is the one a text
    read gives; the bytes are dropped before the text is parsed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if digest is not None:
        digest.update(raw)
    return raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def load_json(path: str, digest=None) -> Any:
    """The JSON document in the file at `path` (see `_read_text`)."""
    try:
        return json.loads(_read_text(path, digest), object_pairs_hook=_unique_keys)
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


def _chunk_text(value, start: int, inner: str) -> str:
    """The text of the `_CHUNK` entries of a scalar list from `start`, led
    by the list's "[" or by the "," that ends the entries before them. A
    chunk of a float `Entries` goes through `_float_text`."""
    encode, stop = _list_encoder(inner), start + _CHUNK
    if type(value) is Entries and value._flat.dtype == float:
        entries = _float_text(value._flat[start:stop], encode, "," + inner)
    else:
        entries = encode(value[start:stop])[1:-1]
    return ("," if start else "[") + inner + entries


# json's text of 0.0, which `_float_text` writes without formatting it
_ZERO = json.dumps(0.0)


def _float_text(values: np.ndarray, encode, separator: str) -> str:
    """`encode(values.tolist())` without its brackets, `separator` its item
    separator. When at least half the entries are +0.0, only the others
    are encoded and each +0.0 is the constant `_ZERO`; -0.0 keeps its sign.
    Formatting a float is the writer's cost, and most atoms of a
    deterministic measure are zeros; but placing each encoded entry costs
    about as much as a zero's formatting saves, so a chunk that is mostly
    nonzero is encoded whole."""
    support = np.flatnonzero((values != 0) | np.signbit(values))
    if 2 * len(support) > len(values):
        return encode(values.tolist())[1:-1]
    texts = [_ZERO] * len(values)
    for i, text in zip(support.tolist(), encode(values[support].tolist())[1:-1].split(separator)):
        texts[i] = text
    return separator.join(texts)


# Fewest entries of a scalar list that `write_json` streams: json's own
# layout, one entry at a time in Python, is faster on a shorter one.
_LONG = 12


def _marked(value: Any, marker: str, lists: list, newline: str = "\n") -> Any:
    """`value` with each scalar list of at least `_LONG` entries and each
    `Entries` replaced by `marker`, in the order json lays them out; each
    goes to `lists` with `newline`, the line break plus the indentation of
    the marker's line. A shorter scalar list is left for json to lay out."""
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be str")
        return {key: _marked(value[key], marker, lists, newline + "  ") for key in sorted(value)}
    # `type(...) is Entries`: isinstance on a Sequence subclass is far slower
    if type(value) is Entries:
        lists.append((value, newline))
        return marker
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) <= numeric.JSON_SCALARS:
            if len(value) < _LONG:
                return value
            lists.append((value, newline))
            return marker
        return [_marked(item, marker, lists, newline + "  ") for item in value]
    return value


def write_json(data: Any, fh) -> None:
    """Write `data` and a line break to the text stream `fh`, byte for byte
    as `json.dump(data, fh, indent=2, sort_keys=True)` and "\\n" would:
    json lays out the document with a marker in place of each scalar list,
    and each list is streamed `_CHUNK` entries at a time where its marker
    stands."""
    marker, lists = "\0" + os.urandom(16).hex(), []
    # `_marked` builds a fresh tree, which holds no cycle for json to look for
    text = json.dumps(_marked(data, marker, lists), indent=2, sort_keys=True,
                      check_circular=False)
    *heads, tail = text.split(json.dumps(marker))
    for head, (value, newline) in zip(heads, lists):
        fh.write(head)
        for start in range(0, len(value), _CHUNK):
            fh.write(_chunk_text(value, start, newline + "  "))
        fh.write(newline + "]")
    fh.write(tail + "\n")


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


def load_family(path: str, tol: float | None = None, digest=None) -> DistributionFamily:
    return family_from_json(load_json(path, digest), tol=tol)


def save_family(family: DistributionFamily, path: str) -> None:
    dump_json(family_to_json(family), path)


def load_measure(path: str) -> SignedMeasure:
    return measure_from_json(load_json(path))


def save_measure(measure: SignedMeasure, path: str) -> None:
    dump_json(measure_to_json(measure), path)


def load_quantum(path: str, digest=None) -> QuantumScenario:
    return quantum_from_json(load_json(path, digest))


def save_quantum(q: QuantumScenario, path: str) -> None:
    dump_json(quantum_to_json(q), path)


def save_verdict(verdict: LhvVerdict, path: str) -> None:
    dump_json(verdict_to_json(verdict), path)
