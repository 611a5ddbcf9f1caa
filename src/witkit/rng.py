"""Deterministic random streams.

All randomness in the package flows through Philox, a counter-based
generator with a 64-bit key, so any run is reproducible from an explicit
integer seed.  Substreams keyed by (seed, index) are statistically
independent, which lets callers simulate in parallel and still match a
sequential run bit for bit.
"""

from __future__ import annotations

import numpy as np


def whole_number(value, name: str, minimum: int = 0) -> int:
    """``value`` as an int; ``ValueError`` unless it is a finite integer
    of at least ``minimum``.  Integral values of any type (``np.int64(7)``,
    ``7.0``) pass; fractions, infinities, NaN and strings do not."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value:
        raise ValueError(f"{name} must be a finite integer, got {value!r}")
    if number < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return number


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for substream ``index`` of the given 64-bit seed.

    ``seed`` must be a nonnegative integer (see :func:`whole_number`); a
    fractional seed raises ``ValueError`` instead of being truncated.
    """
    seed = whole_number(seed, "seed")
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, int(index) & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
