"""Arithmetic-mode plumbing: exact rationals vs binary floats.

Every probability table, marginal and measure in this package carries a
``mode`` tag, either ``"rational"`` (exact, all comparisons exact) or
``"float"`` (float64, comparisons within a tolerance). Internally both
are held as a numerator array over one denominator:

- rational: an object-dtype array of Python ints over one positive
  Python int, so sums, products and comparisons run on unbounded
  integers and never overflow;
- float: the float64 array itself over the denominator 1.

`numerators` is the one input coercion: it reads nested table or atom
data in one pass into numerators over one denominator. Strict "p" or
"p/q" text, the form every rational file this package writes holds, is
read with two `int` calls; ``fractions.Fraction`` is built only for an
entry outside that form (through `coerce_scalar`, which also reads a
single number), for returned scalars and for the public rational
arrays, which `ratio_array` builds from the numerators. `as_array` is
that public form of `numerators`. `common_denominator` splits computed
Fractions into numerators, `format_entries` writes numerators as
reduced "p/q" text.

There is one comparison rule for both modes: two values agree when they
differ by at most the tolerance, and a value clears a floor when it is
not below minus the tolerance. `tolerance` resolves that tolerance, and
in rational mode it is 0, so the same rule is exact equality there.
"""

from __future__ import annotations

import functools
import math
import os
import re
import sys
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
        _refuse_long_exponent(value)
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


# Decimal text with an exponent, for which Fraction computes 10**|exponent|
_EXPONENT_TEXT = re.compile(r"\s*[-+]?([\d_.]*)[eE]([-+]?\d+(?:_\d+)*)\s*")


def _refuse_long_exponent(text: str) -> None:
    """Refuse decimal text whose exponent magnitude plus mantissa digits
    exceed the interpreter's integer string limit (4300 by default), the
    limit `int` already sets on a literal's digits, before Fraction spends
    time and memory on a power of ten of that size."""
    match = _EXPONENT_TEXT.fullmatch(text)
    if match is None:
        return
    limit = _digit_limit()
    mantissa = match[1]
    digits = len(mantissa) - mantissa.count("_") - mantissa.count(".")
    try:
        size = abs(int(match[2])) + digits
    except ValueError:  # the exponent alone has more digits than the limit
        size = math.inf
    if size > limit:
        raise InputError(f"cannot parse rational entry {text!r}: "
                         f"its exponent and digits exceed {limit}")


def numerators(data, mode: str, shape: tuple[int, ...] | None = None) -> tuple[np.ndarray, int]:
    """Coerce nested table or atom data into numerators over one denominator.

    This is the one input coercion. Rational mode gives an object array
    of Python ints over the lcm of the entries' reduced denominators,
    exactly what `coerce_scalar` on each entry and `common_denominator`
    give. A string in the strict form "p" or "p/q" (ASCII digits, an
    optional leading minus, q nonzero) is read with two `int` calls and
    reduced by `math.gcd`; every other entry goes through `coerce_scalar`, so it is accepted or
    refused as there. The lcm is refused once it has more decimal digits
    than Python's integer string limit (4300 by default), the limit the
    entries' own text is held to. Float mode gives a float64 copy over 1,
    typed and checked for booleans and non-finite values in one pass each.

    Entries are read in row-major order, so the first bad one is the one
    reported; `shape`, when given, is checked after they are read.
    """
    if mode == FLOAT:
        if _holds_bool(data):
            raise InputError("true/false is not a number")
        try:
            values = np.array(data, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"cannot interpret data as a float array: {exc}") from exc
        if not np.isfinite(values).all():
            raise InputError("non-finite entry in float array")
        denominator = 1
    else:
        entries, data_shape = flat_entries(data)
        tops, bottoms = zip(*map(_rational_pair, entries)) if entries else ((), ())
        denominator = _bounded_lcm(bottoms)
        values = np.empty(len(tops), dtype=object)
        values[:] = [p * (denominator // q) for p, q in zip(tops, bottoms)]
        values = values.reshape(data_shape)
    if shape is not None:
        size = math.prod(shape)
        if values.size != size:
            raise InputError(f"expected {shape} = {size} entries, got {values.size}")
        values = values.reshape(shape)
    return values, denominator


def _digit_limit() -> int:
    """The interpreter's limit on the decimal digits of an int read from
    or written as text (4300 by default; the default where it is off)."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


@functools.cache
def _power_of_ten(exponent: int) -> int:
    return 10**exponent


def _bounded_lcm(denominators) -> int:
    """lcm of the distinct denominators, built one at a time and refused
    with InputError as soon as it has more decimal digits than
    `_digit_limit()`, before the numerators are scaled to it."""
    limit = _digit_limit()
    bound = _power_of_ten(limit)
    out = 1
    for q in set(denominators):
        out = math.lcm(out, q)
        if out >= bound:
            raise InputError(f"the entries' common denominator has more than {limit} digits")
    return out


# "p" or "p/q" with ASCII digits, an optional minus on p and q nonzero
_STRICT_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def _rational_pair(value) -> tuple[int, int]:
    """Reduced numerator and positive denominator of one rational entry."""
    if type(value) is str:
        match = _STRICT_RATIONAL.fullmatch(value)
        if match is not None:
            try:
                p, q = int(match[1]), int(match[2] or 1)
            except ValueError:  # more digits than int() reads; coerce_scalar refuses it
                pass
            else:
                common = math.gcd(p, q)
                return p // common, q // common
    exact = coerce_scalar(value, RATIONAL)
    return exact.numerator, exact.denominator


_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


def flat_entries(data) -> tuple[list, tuple[int, ...]]:
    """The entries of nested data in row-major order, and its shape, as
    `np.asarray(data, dtype=object)` holds them; a flat list of JSON
    scalars, the form of a parsed table, is taken as it is."""
    if type(data) is list and set(map(type, data)) <= _JSON_SCALARS:
        return data, (len(data),)
    arr = np.asarray(data, dtype=object)
    return arr.reshape(-1).tolist(), arr.shape


def as_array(data, mode: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Coerce nested data into a read-only mode-typed array: reduced
    Fractions in rational mode, float64 in float mode."""
    out = ratio_array(*numerators(data, mode, shape))
    out.setflags(write=False)
    return out


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
