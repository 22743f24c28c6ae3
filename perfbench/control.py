"""A fixed control program that measures the host's speed beside the requests.

The machines this benchmark runs on are shared: the same request can take
a third longer for a few seconds or minutes while other tenants are busy.
So every timed request sits between two runs of this control, and the
benchmark reports each request's time scaled to a host on which the
control takes its reference time (``COLD_MS`` or ``WARM_MS``).  The
control shares no code with convpow, so no change to the program moves it.

It does what a convpow request does, without convpow: a fresh interpreter
imports numpy, scipy.integrate and mpmath, then runs Fraction, big-integer
and mpmath arithmetic.  The products of large integers matter: without
them the control slowed less than ``f_eval`` when the host slowed, and
scaled ``warm-grid`` times still spread by half as much as unscaled ones.

    python3 perfbench/control.py     # one cold control, as run.py times it
"""

from __future__ import annotations

import time
from fractions import Fraction

#: Work units of a cold control, after its imports.
COLD_UNITS = 400
#: Work units of a warm control, run in-process between slices of requests.
WARM_UNITS = 150
#: One product of two integers of about 170 000 and 130 000 bits per this many units.
UNITS_PER_PRODUCT = 50
_A, _B = 7**60000, 3**80000
#: Wall time of one cold control (spawn, imports and COLD_UNITS), in ms, and
#: of one warm control, on the host the reference speed is set to: a
#: 2-vCPU VM with Python 3.11, mpmath's pure-Python backend.
COLD_MS = 700.0
WARM_MS = 28.0


def work(units: int) -> int:
    """Fixed arithmetic of the kinds convpow does; the result is only a checksum."""
    import mpmath

    total = Fraction(0)
    x, modulus = 3**999, 7**1300
    product = 0
    with mpmath.workdps(40):
        acc = mpmath.mpf(0)
        for k in range(1, units + 1):
            acc += mpmath.log1p(mpmath.mpf(k) / 7) / (k + 3)
            total += Fraction(1, k * k + 1)
            x = x * x % modulus
            if k % UNITS_PER_PRODUCT == 0:
                product ^= _A * _B
    return (int(acc * 10**30) ^ total.denominator ^ x ^ product) & 0xFFFF


def warm_ms() -> float:
    """Wall time of one warm control, in ms."""
    start = time.perf_counter()
    work(WARM_UNITS)
    return (time.perf_counter() - start) * 1e3


if __name__ == "__main__":
    import mpmath  # noqa: F401
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401

    print(work(COLD_UNITS))
