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
data in one pass into numerators over one denominator. In rational mode
each entry is read by `_rational_pair`, the one rational reader: strict
"p" or "p/q" text, the form every rational file this package writes
holds, with two `int` calls, a Python or numpy integer as its own
numerator over 1, and ``fractions.Fraction`` only for other text, a
Fraction or a float. `coerce_scalar` reads a single number, in rational
mode as the Fraction of `_rational_pair`. Fractions are otherwise built
only for returned scalars (`ratio`) and for the public rational arrays,
which `ratio_array` builds from the numerators. In both modes, nested
lists numpy cannot stack are refused naming the entry that breaks their
shape, as an index path such as [0][0]. Every computation in between
runs on the numerators, which enter a family or a measure through
`held_numerators`. `format_entries` writes a numerator array and
`format_scalar` one result by its type; both refuse, with
AtomBudgetError, an integer past the interpreter's digit limit.

Every integer a caller hands the library (counts, sites, settings,
outcomes, bits, seeds, denominators, budgets) is read by `read_ints`, or
`read_int` for one value, and every tolerance by `coerce_scalar` in
float mode, the float-table rule: never a bool, and always finite. A
container the library iterates (a model's conditionals, a POVM's
effects, a scenario's POVMs) is read by `read_list`.

There is one comparison rule for both modes: two values agree when they
differ by at most the tolerance, and a value clears a floor when it is
not below minus the tolerance. `tolerance` resolves that tolerance, and
in rational mode it is 0, so the same rule is exact equality there. A
measure computed from a family or model is held to `mass_tolerance` of
its source's tolerance.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import re
import sys
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .errors import AtomBudgetError, InputError

Scalar = Union[float, Fraction]

RATIONAL = "rational"
FLOAT = "float"
MODES = (RATIONAL, FLOAT)

DEFAULT_TOL = 1e-9

# Most entries one block of array work holds at a time: the output rows
# a site map fills at once and the atoms `jordan_decompose` reads into its
# buffer at once (`construct`), and the cells a simplex pivot eliminates at
# once (`lp`). `jordan_decompose` keeps its buffer at least numpy's
# pairwise block of 128 whatever this is, so each leaf is summed as numpy
# sums it.
_BLOCK = 2**14


def tolerance(mode: str, tol: float | None = None) -> float:
    """Comparison tolerance of a mode: `tol`, else the LQHV_TOL env var,
    else 1e-9, and always 0 in rational mode, where comparisons are exact.

    The value, read by `coerce_scalar` in float mode (so LQHV_TOL's text
    parses and a bool is refused), must be finite and nonnegative in
    either mode; the InputError otherwise names its source.
    """
    source = "tolerance"
    if tol is None:
        tol = os.environ.get("LQHV_TOL", DEFAULT_TOL)
        source = "LQHV_TOL"
    try:
        value = coerce_scalar(tol, FLOAT)
    except InputError as exc:
        raise InputError(f"{source} must be a finite nonnegative number, got {tol!r}") from exc
    if value < 0:
        raise InputError(f"{source} must be a finite nonnegative number, got {tol!r}")
    return 0 if mode == RATIONAL else value


def mass_tolerance(tol: float) -> float:
    """Tolerance of the mass check on a measure computed from a family or
    model held to `tol`: `tol`, but at least 1e-12, since a float build
    rounds. A rational measure's tolerance is 0 all the same."""
    return max(tol, 1e-12)


def read_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """The one reader of the integers a caller hands the library: counts,
    sites, settings, outcomes, bits, seeds, denominators and budgets. The
    entries of `values`, each of any integer type (numpy's too) but never
    a bool, as Python ints; anything else, or a `values` that is not
    iterable, raises InputError "{what} {values!r} is not a sequence of
    integers"."""
    try:
        items = tuple(values)
        if any(isinstance(v, (bool, np.bool_)) for v in items):
            raise TypeError("a bool is not an integer")
        return tuple(map(operator.index, items))
    except TypeError as exc:
        raise InputError(f"{what} {values!r} is not a sequence of integers") from exc


def read_int(value, what: str) -> int:
    """One integer read by `read_ints`; anything else raises InputError
    "{what} must be an integer, got {value!r}"."""
    try:
        return read_ints((value,), what)[0]
    except InputError:
        raise InputError(f"{what} must be an integer, got {value!r}") from None


def read_list(values, what: str) -> list:
    """The items of a container a caller hands the library (a model's
    conditionals, a POVM's effects, a scenario's POVMs) as a list; one that
    is not iterable raises InputError "{what} must be a list, got {values!r}"."""
    try:
        return list(values)
    except TypeError as exc:
        raise InputError(f"{what} must be a list, got {values!r}") from exc


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise InputError(f"unknown arithmetic mode {mode!r}; expected 'rational' or 'float'")
    return mode


def coerce_scalar(value, mode: str) -> Scalar:
    """Coerce one number into the mode's scalar type: in rational mode the
    Fraction of `_rational_pair`, in float mode a finite float that is not
    a bool."""
    if mode != FLOAT:
        return Fraction(*_rational_pair(value))
    if isinstance(value, (bool, np.bool_)):
        raise InputError(f"{value!r} is not a number")
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"cannot interpret {value!r} as a float") from exc
    if not math.isfinite(out):
        raise InputError(f"non-finite entry {value!r}")
    return out


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
    of Python ints over the lcm of the entries' reduced denominators, each
    entry read by `_rational_pair`, so it is accepted or refused as there.
    The lcm is refused once it has more decimal digits than Python's
    integer string limit (4300 by default), the limit the entries' own
    text is held to. Float mode gives a float64 copy over 1, typed and
    checked for booleans and non-finite values in one pass each. In both
    modes, nested lists numpy cannot stack are refused naming the entry
    that breaks their shape (`_ragged_entry`).

    Entries are read in row-major order, so the first bad one is the one
    reported; `shape`, when given, is checked after they are read.
    """
    if mode == FLOAT:
        if holds_bool(data):
            raise InputError("true/false is not a number")
        try:
            values = np.array(data, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"cannot interpret data as a float array: "
                             f"{_ragged_entry(data) or exc}") from exc
        if not np.isfinite(values).all():
            raise InputError("non-finite entry in float array")
        denominator = 1
    else:
        entries, data_shape = flat_entries(data)
        try:
            tops, bottoms = zip(*map(_rational_pair, entries)) if entries else ((), ())
        except InputError as exc:
            ragged = _ragged_entry(data)
            if not ragged:
                raise
            raise InputError(f"cannot interpret data as a rational array: {ragged}") from exc
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


def _ragged_entry(data) -> str:
    """For nested lists numpy cannot stack, the first entry whose shape is
    the rarest at the depth where the nesting stops being regular, named
    by its index path such as [0][0]; "" for regular data."""
    entries, shape = flat_entries(data)  # the entries at the depth numpy stops at
    _, kinds, counts = np.unique([str(flat_entries(entry)[1]) for entry in entries],
                                 return_inverse=True, return_counts=True)
    path = "".join(f"[{i}]" for i in np.unravel_index(np.argmin(counts[kinds]), shape))
    return (f"ragged lists, entry {path} has the rarest shape at its depth"
            if len(counts) > 1 else "")


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
    """The one rational reader: reduced numerator and positive denominator
    of one entry. Strict "p" or "p/q" text is read with two `int` calls;
    any other text is read by `Fraction` once `_refuse_long_exponent`
    allows it (signs, spaces, underscores, decimals, exponents); an integer
    of any type but bool is itself over 1, a Fraction is taken as it is,
    and a finite float is read as its shortest decimal (0.45 is 9/20)."""
    if isinstance(value, str):
        match = _STRICT_RATIONAL.fullmatch(value)
        # int() reads any text this short, whatever the digit limit is set to
        if match is not None and len(value) <= sys.int_info.str_digits_check_threshold:
            p, q = int(match[1]), int(match[2] or 1)
            common = math.gcd(p, q)
            return p // common, q // common
        _refuse_long_exponent(value)
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational entry {value!r}") from exc
    elif isinstance(value, (bool, np.bool_)):
        raise InputError(f"{value!r} is not a number")
    elif isinstance(value, (int, np.integer)):
        return int(value), 1
    elif isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise InputError(f"non-finite entry {value!r}")
        return _rational_pair(repr(float(value)))
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise InputError(f"cannot interpret {value!r} as a rational")


JSON_SCALARS = frozenset((str, int, float, bool, type(None)))
# the JSON numbers a float table holds: never bool, whose type is not int
PLAIN_NUMBERS = frozenset((int, float))


def flat_entries(data) -> tuple[list, tuple[int, ...]]:
    """The entries of nested data in row-major order, and its shape, as
    `np.asarray(data, dtype=object)` holds them; a flat list of JSON
    scalars, the form of a parsed table, is taken as it is."""
    if type(data) is list and set(map(type, data)) <= JSON_SCALARS:
        return data, (len(data),)
    arr = np.asarray(data, dtype=object)
    return arr.reshape(-1).tolist(), arr.shape


def holds_bool(data) -> bool:
    """Whether nested lists or an array hold a boolean anywhere.

    A list of plain numbers, the shape of a parsed table row, is settled
    by one C-level pass over its element types; anything else recurses.
    """
    if isinstance(data, (list, tuple)):
        return not set(map(type, data)) <= PLAIN_NUMBERS and any(map(holds_bool, data))
    if isinstance(data, np.ndarray):
        if data.dtype == object:
            return any(isinstance(v, (bool, np.bool_)) for v in data.flat)
        return data.dtype == bool
    return isinstance(data, (bool, np.bool_))


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


def held_numerators(numerators: np.ndarray, denominator: int, mode: str) -> tuple[np.ndarray, int]:
    """Numerators over a positive denominator as a family or measure holds
    them, the inverse of `ratio_array`. The denominator is read by
    `read_int` and must be at least 1. Rational mode holds integers of any
    dtype as Python ints (an object array is taken over) and refuses other
    dtypes with InputError. Float mode takes over a float array over 1 and
    divides anything else entry by entry as Python numbers, so the quotients
    of integers are correctly rounded."""
    denominator = read_int(denominator, "denominator")
    if denominator < 1:
        raise InputError(f"denominator must be positive, got {denominator}")
    kind = numerators.dtype.kind
    if mode == RATIONAL:
        if kind not in "iuO":
            raise InputError(f"rational numerators must be integers, not {numerators.dtype}")
        return (numerators if kind == "O" else numerators.astype(object)), denominator
    if kind == "f" and denominator == 1:
        return numerators.astype(float, copy=False), 1
    quotients = [p / denominator for p in numerators.reshape(-1).tolist()]
    return np.array(quotients, dtype=float).reshape(numerators.shape), 1


def format_entries(numerators: np.ndarray, denominator: int) -> list:
    """JSON entries of a numerator array, flattened row-major.

    Python-int numerators become reduced "p/q" text, byte for byte what
    `str(Fraction(p, q))` gives ("p" when q is 1, the sign on p); a float
    array gives its floats. A reduced numerator or denominator with more
    digits than `_digit_limit()` raises AtomBudgetError.
    """
    if numerators.dtype != object:
        return numerators.reshape(-1).tolist()
    try:
        return [str(p // g) if (g := math.gcd(p, denominator)) == denominator
                else f"{p // g}/{denominator // g}"
                for p in numerators.reshape(-1).tolist()]
    except ValueError as exc:  # an int past the digit limit
        raise _too_long_to_write() from exc


def _too_long_to_write() -> AtomBudgetError:
    return AtomBudgetError(f"an entry to write has more than {_digit_limit()} digits")


def is_close(a: Scalar, b: Scalar, tol: float) -> bool:
    """|a - b| <= tol; exact equality at the rational tolerance 0."""
    return abs(a - b) <= tol


def format_scalar(value: Scalar):
    """JSON-ready form of one result, which carries its mode: "p/q" text
    for a Fraction, where a numerator or denominator past the digit limit
    raises AtomBudgetError, and a float otherwise."""
    if isinstance(value, Fraction):
        try:
            return str(value)
        except ValueError as exc:  # an int past the digit limit
            raise _too_long_to_write() from exc
    return float(value)
