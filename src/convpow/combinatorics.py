"""The unsigned Stirling numbers of the first kind, the one exact
combinatorial primitive the coefficient recurrences need that the standard
library lacks (binomials, falling factorials and factorial products come
from ``math.comb``, ``math.perm`` and ``math.prod``).

The triangle holds plain Python ints, so results stay exact at any size.
It is memoized process-wide and grown on demand; completed rows are
stored as immutable tuples.
"""

from __future__ import annotations

import threading

# Row k holds s(k, 0), ..., s(k, k).
_STIRLING_ROWS: list[tuple[int, ...]] = [(1,)]
_STIRLING_LOCK = threading.Lock()


def stirling1_unsigned(k: int, n: int) -> int:
    """Unsigned Stirling number of the first kind.

    s(k, n) counts the permutations of k elements having exactly n cycles
    and satisfies s(k+1, n) = s(k, n-1) + k*s(k, n).  Equivalently, the
    rising factorial x(x+1)...(x+k-1) expands as sum_n s(k, n) x^n, which
    is the oracle the test suite checks this table against.  Out-of-range
    n yields 0.
    """
    if k < 0:
        raise ValueError(f"stirling1_unsigned requires k >= 0, got k={k}")
    if n < 0 or n > k:
        return 0
    if k >= len(_STIRLING_ROWS):
        with _STIRLING_LOCK:
            while len(_STIRLING_ROWS) <= k:
                j = len(_STIRLING_ROWS) - 1
                prev = _STIRLING_ROWS[j]
                row = tuple(
                    (prev[m - 1] if m >= 1 else 0) + j * (prev[m] if m <= j else 0)
                    for m in range(j + 2)
                )
                _STIRLING_ROWS.append(row)
    return _STIRLING_ROWS[k][n]
