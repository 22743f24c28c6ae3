"""Lower-triangular integer matrices underlying the closed-form coefficient
formula, plus checks of their special-value identities.

The matrices belong to the verification paths: ``q_closed_form`` uses
them as the independent check on the short Q recurrence.

For each size parameter s the matrix A^s is built row by row:

    A[0][0] = 1,  A[m][0] = 0 for m >= 1,
    A[m][j] = sum_{mu=0}^{m-j} A[m-mu-1][j-1] * C(m, mu+1) * (s-m+1)^(rising mu)

where ^(rising mu) is the rising factorial (s-m+1)(s-m+2)...(s-m+mu), the
falling factorial ``math.perm(s-m+mu, mu)``; the weights depend on m and
mu only, so each row computes them once.  The matrices genuinely depend
on s entry-by-entry (they are not nested truncations of one infinite
matrix), which `check_special_values` exercises indirectly and the test
suite asserts directly.
"""

from __future__ import annotations

import math
from functools import lru_cache


@lru_cache(maxsize=None)
def compute_a_matrix(s: int) -> tuple[tuple[int, ...], ...]:
    """The rows of A^s, ``rows[m][j]`` with j <= m <= s, from the two-index
    recurrence (a verification path)."""
    if s < 0:
        raise ValueError(f"matrix size must be >= 0, got s={s}")
    rows: list[tuple[int, ...]] = [(1,)]
    for m in range(1, s + 1):
        weights = [math.comb(m, mu + 1) * math.perm(s - m + mu, mu) for mu in range(m)]
        row = [0]
        for j in range(1, m + 1):
            row.append(sum(rows[m - mu - 1][j - 1] * weights[mu] for mu in range(m - j + 1)))
        rows.append(tuple(row))
    return tuple(rows)


def a_determinant(rows: tuple[tuple[int, ...], ...]) -> int:
    """Determinant of the lower-triangular matrix: the diagonal product."""
    return math.prod(row[m] for m, row in enumerate(rows))


def check_special_values(rows: tuple[tuple[int, ...], ...]) -> dict:
    """Verify the three closed-form slices of A^s.

    * column 0 is the Kronecker delta at row 0,
    * column 1 holds falling factorials (s-1)(s-2)...(s-m+1) for m >= 1,
    * the diagonal holds m!.

    Returns ``{"ok": bool, "identities": {...}, "failures": [...]}`` where
    each failure names the entry, the computed value and the expected one.
    """
    s = len(rows) - 1
    slices = {
        "column0_kronecker": [((m, 0), int(m == 0)) for m in range(s + 1)],
        "column1_falling_factorial": [((m, 1), math.perm(s - 1, m - 1)) for m in range(1, s + 1)],
        "diagonal_factorial": [((m, m), math.factorial(m)) for m in range(s + 1)],
    }
    identities, failures = {}, []
    for name, entries in slices.items():
        bad = [
            {"entry": (m, j), "got": rows[m][j], "want": want} for (m, j), want in entries if rows[m][j] != want
        ]
        identities[name] = not bad
        failures += bad
    return {"ok": not failures, "identities": identities, "failures": failures}
