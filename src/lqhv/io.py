"""JSON file formats for families, measures, verdicts and quantum inputs.

Family files:
    {"parties": [{"settings": S_n, "outcomes": K_n}, ...],
     "mode": "rational" | "float",
     "tables": {"s1,s2,...,sN": [row-major entries], ...}}
Setting keys are 1-based and comma-joined; rational entries are "p/q"
strings, float entries JSON numbers.

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
values. Files are read as UTF-8; any other bytes are malformed input.

Measure files:
    {"axes": [{"site": n, "setting": s, "outcomes": K_n}, ...],
     "mode": "rational" | "float",
     "atoms": [row-major entries in the axis order shown]}
Axes follow the fixed coordinate order (1,1)..(1,S_1)..(N,S_N); import
revalidates normalization, within LQHV_TOL or 1e-9 in float mode.

Verdict files:
    {"row_order": <description>, "feasible": bool,
     "witness": measure object | null, "certificate": [entries] | null,
     "residual": entry}

Quantum scenario files:
    {"site_dims": [d_n, ...], "rho": [[[re, im], ...], ...],
     "povms": [[[effect, ...] per setting] per site]}
with every complex entry a two-element [re, im] array and every effect a
d_n x d_n nested matrix, checked within `lqhv.quantum.TOL`. A family's
tolerance is fixed when it is read: the `tol` given to `load_family` (the
CLI's `--tol`), else LQHV_TOL, else 1e-9; a rational family's is 0.

Every file and every `--json` report goes through one writer,
`write_json`. Its output is byte for byte what
`json.dump(data, fh, indent=2, sort_keys=True)` followed by a line break
writes, for any JSON value of dicts with str keys, lists, tuples and
scalars. It walks dicts and lists as that encoder does, but a list of
plain scalars (str, int, float, bool, None) goes through the C encoder
in pieces of `_CHUNK` entries, so the text of a large list is never held
whole and never formatted entry by entry in Python.
"""

from __future__ import annotations

import functools
import json
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


def _read_mode(data: dict, what: str) -> str:
    mode = _require(data, "mode", what)
    if mode not in numeric.MODES:
        raise InputError(f"{what} mode must be 'rational' or 'float', got {mode!r}")
    return mode


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
    if not isinstance(parties, list) or not parties:
        raise InputError("'parties' must be a nonempty list")
    settings = []
    outcomes = []
    for i, p in enumerate(parties, start=1):
        settings.append(_require_int(p, "settings", f"party {i}"))
        outcomes.append(_require_int(p, "outcomes", f"party {i}"))
    scenario = Scenario(tuple(settings), tuple(outcomes))
    mode = _read_mode(data, "family file")
    raw_tables = _require(data, "tables", "family file")
    if not isinstance(raw_tables, dict):
        raise InputError("'tables' must map setting tuples to entry lists")
    tables = {parse_tuple_key(k): v for k, v in raw_tables.items()}
    return DistributionFamily(scenario, tables, mode, tol=tol)


def measure_to_json(measure: SignedMeasure) -> dict:
    scenario = measure.scenario
    axes = [{"site": n, "setting": s, "outcomes": scenario.outcomes_per_site[n - 1]}
            for n in scenario.sites
            for s in range(1, scenario.settings_per_site[n - 1] + 1)]
    return {
        "axes": axes,
        "mode": measure.mode,
        "atoms": numeric.format_entries(measure.numerators, measure.denominator),
    }


def measure_from_json(data: Any) -> SignedMeasure:
    axes = _require(data, "axes", "measure file")
    if not isinstance(axes, list) or not axes:
        raise InputError("'axes' must be a nonempty list")
    per_site: dict[int, dict[int, int]] = {}
    given_order = []
    for i, ax in enumerate(axes):
        site = _require_int(ax, "site", f"axis {i}")
        setting = _require_int(ax, "setting", f"axis {i}")
        k = _require_int(ax, "outcomes", f"axis {i}")
        given_order.append((site, setting))
        per_site.setdefault(site, {})
        if setting in per_site[site]:
            raise InputError(f"duplicate axis for site {site}, setting {setting}")
        per_site[site][setting] = k
    sites = sorted(per_site)
    if sites != list(range(1, len(sites) + 1)):
        raise InputError(f"axis sites must be 1..N, got {sites}")
    settings = []
    outcomes = []
    for n in sites:
        ss = sorted(per_site[n])
        if ss != list(range(1, len(ss) + 1)):
            raise InputError(f"site {n} axis settings must be 1..S_n, got {ss}")
        ks = {per_site[n][s] for s in ss}
        if len(ks) != 1:
            raise InputError(f"site {n} axes disagree on the outcome count")
        settings.append(len(ss))
        outcomes.append(ks.pop())
    scenario = Scenario(tuple(settings), tuple(outcomes))
    expected_order = [(n, s) for n in scenario.sites
                      for s in range(1, scenario.settings_per_site[n - 1] + 1)]
    if given_order != expected_order:
        raise InputError("axes must appear in the fixed order (1,1)..(1,S_1)..(N,S_N)")
    mode = _read_mode(data, "measure file")
    atoms = _require(data, "atoms", "measure file")
    return SignedMeasure(scenario, atoms, mode)


def verdict_to_json(verdict: LhvVerdict) -> dict:
    witness = None if verdict.measure is None else measure_to_json(verdict.measure)
    certificate = None
    mode = None if verdict.measure is None else verdict.measure.mode
    if verdict.certificate is not None:
        mode = numeric.RATIONAL if verdict.certificate.dtype == object else numeric.FLOAT
        certificate = numeric.format_array(verdict.certificate, mode)
    return {
        "row_order": ROW_ORDER,
        "feasible": verdict.feasible,
        "witness": witness,
        "certificate": certificate,
        "residual": numeric.format_scalar(verdict.residual, mode) if mode else verdict.residual,
    }


def _complex_entry(value: Any, where: str) -> complex:
    if (not isinstance(value, (list, tuple))) or len(value) != 2:
        raise InputError(f"{where}: complex entries must be [re, im] pairs")
    try:
        return complex(float(value[0]), float(value[1]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{where}: bad complex entry {value!r}") from exc


def _complex_matrix(rows: Any, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(
            isinstance(row, list) and len(row) == len(rows[0]) for row in rows):
        raise InputError(f"{where}: expected a nonempty matrix of equal-length rows")
    out = [[_complex_entry(v, where) for v in row] for row in rows]
    return np.array(out, dtype=complex)


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
    if not isinstance(dims, list) or not dims:
        raise InputError("'site_dims' must be a nonempty list")
    dims = [_as_int(d, f"site_dims entry {n}") for n, d in enumerate(dims, start=1)]
    rho = DensityMatrix(_complex_matrix(_require(data, "rho", "quantum file"), "rho"))
    raw_povms = _require(data, "povms", "quantum file")
    if not isinstance(raw_povms, list) or len(raw_povms) != len(dims):
        raise InputError("'povms' must hold one setting list per site")
    povms = []
    for n, site in enumerate(raw_povms, start=1):
        if not isinstance(site, list) or not site:
            raise InputError(f"site {n} needs a nonempty list of POVMs")
        site_povms = []
        for s, effects in enumerate(site, start=1):
            if not isinstance(effects, list) or not effects:
                raise InputError(f"site {n} setting {s}: expected a list of effects")
            mats = [_complex_matrix(e, f"site {n} setting {s} effect {i}")
                    for i, e in enumerate(effects)]
            site_povms.append(POVM(tuple(mats)))
        for p in site_povms:
            if p.dim != dims[n - 1]:
                raise InputError(f"site {n} POVM dimension {p.dim} does not match "
                                 f"declared d_n = {dims[n - 1]}")
        povms.append(site_povms)
    return QuantumScenario(rho, povms)


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not valid UTF-8 JSON: {exc}") from exc


# Entries per C-encoded piece of a scalar list: large enough that the
# per-call cost vanishes, small enough that a piece's text stays small.
_CHUNK = 4096
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _list_encoder(indent: str):
    """C-encoder of a scalar list whose items sit on lines at `indent`;
    one is cached per nesting depth."""
    return json.JSONEncoder(separators=("," + indent, ": ")).encode


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
    elif isinstance(value, (list, tuple)):
        if not value:
            fh.write("[]")
            return
        inner, sep = newline + "  ", "["
        if set(map(type, value)) <= _SCALARS:
            encode = _list_encoder(inner)
            for start in range(0, len(value), _CHUNK):
                fh.write(sep + inner)
                fh.write(encode(value[start:start + _CHUNK])[1:-1])
                sep = ","
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
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write_json(data, fh)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


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
