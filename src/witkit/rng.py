"""Deterministic random streams, and the package's number, array and sequence rules.

:func:`whole_number` admits every integer argument, :func:`real_number`
every real one, :func:`real_array` every array of real numbers
(:func:`complex_array` of numbers) and :func:`sequence` every sequence,
each one way: a value that is not exactly of its kind, or lies outside
the caller's bounds, raises ``ValueError`` naming the argument, and is
never coerced.  An array is read by numpy without a dtype, so strings,
bytes, Python objects (``None``, an int beyond int64) and ragged nestings
are refused, not parsed.

All randomness in the package flows through Philox, a counter-based
generator keyed by two 64-bit words: substream ``index`` of ``seed`` is
the key (seed, index), so any run is reproducible from an explicit
integer seed.  Both words must lie in [0, 2**64); a value outside is
rejected, not wrapped, so two different seeds never share draws.
Substreams are statistically independent, which lets callers simulate
in parallel and still match a sequential run bit for bit.  A Philox
draw depends only on its key and counter, so :func:`rekey` turns one
generator into any substream at a fraction of the cost of building a
new one, with the same draws.

:func:`stream` builds a generator for a caller that keeps it.  Every
draw the package makes and drops within one call goes through
:func:`borrow` instead: each thread holds one generator, built by
``stream`` at its first borrow, and ``borrow(seed, index)`` re-keys it to
substream (seed, index), so its draws are those of ``stream(seed,
index)`` and threads never share one.
"""

from __future__ import annotations

import math
import threading

import numpy as np

KEY_BITS = 64  # width of each Philox key word
_WORDS = 4  # 64-bit words of a Philox counter and of one output block
# a cleared counter and output buffer; Philox's state setter reads the
# words one at a time, and a tuple of ints reads in half the time an array does
_ZERO_WORDS = (0,) * _WORDS
_THREAD = threading.local()  # .gen: the thread's generator, once it borrows
_REAL_KINDS = "biuf"  # numpy's dtype kinds of real numbers: bool, int, uint, float


def whole_number(value, name: str, minimum: int = 0,
                 bits: int | None = None) -> int:
    """``value`` as an int; ``ValueError`` unless it is a finite integer
    of at least ``minimum`` and, when ``bits`` is given, below
    ``2**bits``.  Integral values of any type (``np.int64(7)``, ``7.0``)
    pass; fractions, infinities, NaN and strings do not."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value:
        raise ValueError(f"{name} must be a finite integer, got {value!r}")
    if number < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    if bits is not None and number >= 1 << bits:
        raise ValueError(f"{name} must be below 2**{bits}, got {value!r}")
    return number


def real_number(value, name: str, minimum: float = -math.inf,
                maximum: float = math.inf, positive: bool = False) -> float:
    """``value`` as a float; ``ValueError`` unless ``float(value)`` succeeds,
    equals ``value``, is finite and lies in [``minimum``, ``maximum``], and
    above 0 when ``positive``.  Real values of any type (``7``,
    ``np.float32(0.5)``, a 0-d float array) pass as ``float(value)``;
    strings, bytes, complex values, sequences and arrays with an axis do not."""
    dtype = getattr(value, "dtype", None)  # a numpy scalar or array
    try:
        if isinstance(value, complex) or (
                dtype is not None and (dtype.kind not in _REAL_KINDS or value.shape)):
            raise TypeError  # float() would warn and drop an imaginary part
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not (number == value and math.isfinite(number) and minimum <= number <= maximum
            and (number > 0.0 or not positive)):
        bounds = (" above 0" if positive else
                  f" in [{minimum:g}, {maximum:g}]" if maximum < math.inf else
                  f" of at least {minimum:g}" if minimum > -math.inf else "")
        raise ValueError(f"{name} must be a finite real number{bounds}, got {value!r}")
    return number


def _numbers(value, name: str, kinds: str, what: str) -> np.ndarray:
    """``np.asarray(value)``, read with no dtype, if its kind is in ``kinds``, else ValueError."""
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged nesting
        a = None
    if a is None or a.dtype.kind not in kinds:
        got = "a ragged nesting" if a is None else f"{type(value).__name__} of dtype {a.dtype}"
        raise ValueError(f"expected {what} {name}, got {got}")
    return a


def real_array(value, name: str) -> np.ndarray:
    """``value`` as a float64 array, a float64 ndarray as is; ``ValueError``
    unless numpy reads it as booleans, integers or floats, all finite."""
    a = _numbers(value, name, _REAL_KINDS, "real").astype(np.float64, copy=False)
    if np.count_nonzero(np.isfinite(a)) < a.size:  # a C count, cheaper than .all()
        raise ValueError(f"{name} must be finite")
    return a


def complex_array(value, name: str) -> np.ndarray:
    """``value`` as a complex128 array, a complex128 ndarray as is, read as
    :func:`real_array` reads it but with complex entries allowed and
    finiteness left to the consumer."""
    return _numbers(value, name, _REAL_KINDS + "c", "numeric").astype(np.complex128, copy=False)


def sequence(items, what: str) -> tuple:
    """``items`` as a tuple, else ``ValueError`` naming the type met."""
    try:
        return tuple(items)
    except TypeError:
        raise ValueError(f"{what} must be a sequence, got {type(items).__name__}") from None


def _key(seed, index) -> tuple:
    """The Philox key words of substream ``index`` of ``seed``."""
    return (whole_number(seed, "seed", bits=KEY_BITS),
            whole_number(index, "index", bits=KEY_BITS))


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """A new generator for substream ``index`` of ``seed``.

    ``seed`` and ``index`` must be integers in [0, 2**64) (see
    :func:`whole_number`); a fractional or out-of-range value raises
    ``ValueError`` instead of being truncated or wrapped.
    """
    key = np.array(_key(seed, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rekey(gen: np.random.Generator, seed: int, index: int) -> np.random.Generator:
    """Reset ``gen``, a generator made by :func:`stream`, to the start of
    substream ``index`` of ``seed`` and return it.

    Its draws from then on are those of a fresh ``stream(seed, index)``,
    bit for bit: the key is replaced, and the counter and the buffered
    output are cleared as in a new Philox.  The arguments are checked as
    :func:`stream` checks them.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": _key(seed, index)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": _WORDS,  # the buffer is used up
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def borrow(seed: int, index: int = 0) -> np.random.Generator:
    """The calling thread's generator, reset to substream ``index`` of
    ``seed``: its draws are those of a fresh ``stream(seed, index)``, bit
    for bit.

    It stays valid until the same thread borrows again, so a caller draws
    from it and drops it, and calls nothing that borrows in between.  The
    arguments are checked as :func:`stream` checks them.
    """
    if not hasattr(_THREAD, "gen"):
        _THREAD.gen = stream(0)
    return rekey(_THREAD.gen, seed, index)
