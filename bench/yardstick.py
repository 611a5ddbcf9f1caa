"""How fast the machine runs right now, from a fixed reference computation.

On a shared host the same witkit call takes 1.3-1.9 times longer in some
spells than in others, and the spells last from seconds to minutes, so
raw wall times of two runs of the same code differ by up to 40%.  The
benchmark interleaves short units of a fixed computation that does not
touch witkit (a Python arithmetic loop and a small symmetric eigensolve,
the two kinds of work witkit does) with the timed calls, and scales each
call by REF_MS / the mean unit time over the same pass.  Scaled times
are what the calls would take at the reference speed; a change to
witkit moves them, a busier machine hardly does.
"""

from __future__ import annotations

import time

import numpy as np

# one unit's time on the reference machine (2-CPU x86-64 VM, Python 3.11,
# numpy 2.4 with OpenBLAS) when nothing else competes for the CPU
REF_MS = 0.5

_SYM = np.random.default_rng(0).standard_normal((16, 16))
_SYM = _SYM + _SYM.T


def unit():
    """Run one unit and return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i
    for _ in range(20):
        np.linalg.eigvalsh(_SYM)
    return time.perf_counter() - t0


def slowdown(units):
    """Mean unit time over ``units`` units, as a multiple of REF_MS."""
    return sum(unit() for _ in range(units)) / units * 1e3 / REF_MS
