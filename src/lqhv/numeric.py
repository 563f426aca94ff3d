"""Arithmetic-mode plumbing: exact rationals vs binary floats.

Every probability table, marginal and measure in this package carries a
``mode`` tag, either ``"rational"`` (exact, all comparisons exact) or
``"float"`` (float64, comparisons within a tolerance). Internally both
are held as a numerator array over one denominator:

- rational: an object-dtype array of Python ints over one positive
  Python int, so sums, products and comparisons run on unbounded
  integers and never overflow;
- float: the float64 array itself over the denominator 1.

``fractions.Fraction`` appears only at the boundary: when input is
parsed, for returned scalars and for the public rational arrays, which
`ratio_array` builds from the numerators. `common_denominator` splits
Fractions into numerators, `format_entries` writes numerators as
reduced "p/q" text. Helpers here also coerce scalars and nested data
into the right representation.

There is one comparison rule for both modes: two values agree when they
differ by at most the tolerance, and a value clears a floor when it is
not below minus the tolerance. `tolerance` resolves that tolerance, and
in rational mode it is 0, so the same rule is exact equality there.
"""

from __future__ import annotations

import math
import os
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .errors import InputError

Scalar = Union[float, Fraction]

RATIONAL = "rational"
FLOAT = "float"
MODES = (RATIONAL, FLOAT)

DEFAULT_TOL = 1e-9


def tolerance(mode: str, tol: float | None = None) -> float:
    """Comparison tolerance of a mode: `tol`, else the LQHV_TOL env var,
    else 1e-9, and always 0 in rational mode, where comparisons are exact.

    The value must be a finite nonnegative number in either mode.
    """
    source = "tolerance"
    if tol is None:
        tol = os.environ.get("LQHV_TOL", DEFAULT_TOL)
        source = "LQHV_TOL"
    try:
        value = float(tol)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{source} is not a number: {tol!r}") from exc
    if not (math.isfinite(value) and value >= 0):
        raise InputError(f"{source} must be finite and nonnegative, got {tol!r}")
    return 0 if mode == RATIONAL else value


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise InputError(f"unknown arithmetic mode {mode!r}; expected 'rational' or 'float'")
    return mode


def coerce_scalar(value, mode: str) -> Scalar:
    """Coerce one number into the mode's scalar type.

    In rational mode, floats are read as their shortest decimal literal
    (so 0.45 becomes 9/20, not the exact binary expansion); strings accept
    the "p/q" and decimal forms.
    """
    if isinstance(value, (bool, np.bool_)):
        raise InputError(f"{value!r} is not a number")
    if mode == FLOAT:
        try:
            out = float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"cannot interpret {value!r} as a float") from exc
        if not math.isfinite(out):
            raise InputError(f"non-finite entry {value!r}")
        return out
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational entry {value!r}") from exc
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(float(value)):
            raise InputError(f"non-finite entry {value!r}")
        try:
            return Fraction(Decimal(repr(float(value))))
        except InvalidOperation as exc:  # pragma: no cover - repr is always decimal
            raise InputError(f"cannot interpret {value!r} as a rational") from exc
    raise InputError(f"cannot interpret {value!r} as a rational")


def as_array(data, mode: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Coerce nested data into a mode-typed numpy array (read-only)."""
    if mode == FLOAT:
        if _holds_bool(data):
            raise InputError("true/false is not a number")
        try:
            arr = np.asarray(data, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"cannot interpret data as a float array: {exc}") from exc
        if not np.all(np.isfinite(arr)):
            raise InputError("non-finite entry in float array")
        arr = arr.copy()
    else:
        raw = np.asarray(data, dtype=object)
        coerce = np.frompyfunc(lambda v: coerce_scalar(v, RATIONAL), 1, 1)
        arr = np.asarray(coerce(raw), dtype=object)  # a 0-d input comes back as a bare scalar
    if shape is not None:
        if int(np.prod(shape, dtype=object)) != arr.size:
            raise InputError(f"expected {shape} = {int(np.prod(shape, dtype=object))} entries, got {arr.size}")
        arr = arr.reshape(shape)
    arr.setflags(write=False)
    return arr


def _holds_bool(data) -> bool:
    """Whether nested lists or an array hold a boolean anywhere.

    A list of plain numbers, the shape of a parsed table row, is settled
    by one C-level pass over its element types; anything else recurses.
    """
    if isinstance(data, (list, tuple)):
        return not set(map(type, data)) <= _PLAIN_NUMBERS and any(map(_holds_bool, data))
    if isinstance(data, np.ndarray):
        if data.dtype == object:
            return any(isinstance(v, (bool, np.bool_)) for v in data.flat)
        return data.dtype == bool
    return isinstance(data, (bool, np.bool_))


_PLAIN_NUMBERS = frozenset((int, float))


def common_denominator(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Numerators over one denominator, the array's shape kept.

    An object array of Fractions (or ints) gives Python-int numerators
    over the lcm of its denominators; a float array is its own numerators
    over 1.
    """
    if values.dtype != object:
        return values, 1
    flat = values.reshape(-1).tolist()
    den = math.lcm(*(v.denominator for v in flat))
    nums = np.empty(len(flat), dtype=object)
    nums[:] = [v.numerator * (den // v.denominator) for v in flat]
    return nums.reshape(values.shape), den


def ratio(numerator, denominator: int, mode: str) -> Scalar:
    """One numerator over its denominator as the mode's scalar."""
    return Fraction(numerator, denominator) if mode == RATIONAL else numerator


def ratio_array(numerators: np.ndarray, denominator: int) -> np.ndarray:
    """The public form of a numerator array: a read-only array of reduced
    Fractions for Python-int numerators; a float array is returned as is."""
    if numerators.dtype != object:
        return numerators
    out = np.empty(numerators.size, dtype=object)
    out[:] = [Fraction(v, denominator) for v in numerators.reshape(-1).tolist()]
    out = out.reshape(numerators.shape)
    out.setflags(write=False)
    return out


def format_entries(numerators: np.ndarray, denominator: int) -> list:
    """JSON entries of a numerator array, flattened row-major.

    Python-int numerators become reduced "p/q" text, byte for byte what
    `str(Fraction(p, q))` gives ("p" when q is 1, the sign on p); a float
    array gives its floats.
    """
    if numerators.dtype != object:
        return numerators.reshape(-1).tolist()
    flat = numerators.reshape(-1)
    common = np.gcd(flat, denominator)
    return [f"{p}/{q}" if q != 1 else str(p)
            for p, q in zip((flat // common).tolist(), (denominator // common).tolist())]


def zeros(shape: tuple[int, ...], mode: str) -> np.ndarray:
    if mode == FLOAT:
        return np.zeros(shape, dtype=float)
    out = np.empty(shape, dtype=object)
    out[...] = Fraction(0)
    return out


def zero(mode: str) -> Scalar:
    return 0.0 if mode == FLOAT else Fraction(0)


def is_close(a: Scalar, b: Scalar, tol: float) -> bool:
    """|a - b| <= tol; exact equality at the rational tolerance 0."""
    return abs(a - b) <= tol


def max_abs(arr: np.ndarray) -> Scalar:
    """Largest absolute entry; Fraction(0)/0.0 for empty input."""
    if arr.size == 0:
        return Fraction(0) if arr.dtype == object else 0.0
    return abs(arr).max()


def format_scalar(value: Scalar, mode: str):
    """JSON-ready form of one entry: "p/q" strings in rational mode."""
    if mode == RATIONAL:
        return str(value)
    return float(value)


def format_array(arr: np.ndarray, mode: str) -> list:
    typed = np.asarray(arr, dtype=float if mode == FLOAT else object)
    return format_entries(*common_denominator(typed))


def normalize_weights(weights: Iterable, mode: str) -> list[Scalar]:
    """Coerce nonnegative weights and scale them to sum 1."""
    ws = [coerce_scalar(w, mode) for w in weights]
    if any(w < 0 for w in ws):
        raise InputError("weights must be nonnegative")
    total = sum(ws, zero(mode))
    if total == 0:
        raise InputError("weights must not all be zero")
    return [w / total for w in ws]
