"""Lower-triangular integer matrices underlying the closed-form coefficient
formula, plus checks of their special-value identities.

The matrices belong to the verification paths: ``q_closed_form`` uses
them as the independent check on the short Q recurrence.

For each size parameter s the matrix A^s is built row by row:

    A[0][0] = 1,  A[m][0] = 0 for m >= 1,
    A[m][j] = sum_{mu=0}^{m-j} A[m-mu-1][j-1] * C(m, mu+1) * (s-m+1)^(rising mu)

where ^(rising mu) is the rising factorial.  The matrices genuinely depend
on s entry-by-entry (they are not nested truncations of one infinite
matrix), which `check_special_values` exercises indirectly and the test
suite asserts directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .combinatorics import binomial, falling_factorial, rising_factorial


@dataclass(frozen=True)
class AMatrix:
    """Rows of the size-s triangular matrix; ``rows[m][j]`` with j <= m <= s."""

    s: int
    rows: tuple[tuple[int, ...], ...]

    def entry(self, m: int, j: int) -> int:
        """A^s_{m,j}, with entries above the diagonal defined as 0."""
        if not (0 <= m <= self.s):
            raise IndexError(f"row {m} outside 0..{self.s}")
        if not (0 <= j <= self.s):
            raise IndexError(f"column {j} outside 0..{self.s}")
        return self.rows[m][j] if j <= m else 0


@lru_cache(maxsize=None)
def compute_a_matrix(s: int) -> AMatrix:
    """Build A^s from the two-index recurrence (a verification path)."""
    if s < 0:
        raise ValueError(f"matrix size must be >= 0, got s={s}")
    rows: list[tuple[int, ...]] = [(1,)]
    for m in range(1, s + 1):
        row = [0]
        for j in range(1, m + 1):
            acc = 0
            for mu in range(m - j + 1):
                below = rows[m - mu - 1][j - 1] if j - 1 <= m - mu - 1 else 0
                if below:
                    acc += below * binomial(m, mu + 1) * rising_factorial(s - m + 1, mu)
            row.append(acc)
        rows.append(tuple(row))
    return AMatrix(s, tuple(rows))


def a_determinant(a: AMatrix) -> int:
    """Determinant of the lower-triangular matrix: the diagonal product."""
    det = 1
    for m in range(a.s + 1):
        det *= a.rows[m][m]
    return det


def check_special_values(a: AMatrix) -> dict:
    """Verify the three closed-form slices of A^s.

    * column 0 is the Kronecker delta at row 0,
    * column 1 holds falling factorials (s-1)(s-2)...(s-m+1) for m >= 1,
    * the diagonal holds m!.

    Returns ``{"ok": bool, "identities": {...}, "failures": [...]}`` where
    each failure names the entry, the computed value and the expected one.
    """
    failures = []
    col0_ok = True
    for m in range(a.s + 1):
        want = 1 if m == 0 else 0
        got = a.rows[m][0]
        if got != want:
            col0_ok = False
            failures.append({"entry": (m, 0), "got": got, "want": want})
    col1_ok = True
    for m in range(1, a.s + 1):
        want = falling_factorial(a.s - 1, m - 1)
        got = a.rows[m][1]
        if got != want:
            col1_ok = False
            failures.append({"entry": (m, 1), "got": got, "want": want})
    diag_ok = True
    fact = 1
    for m in range(a.s + 1):
        if m:
            fact *= m
        got = a.rows[m][m]
        if got != fact:
            diag_ok = False
            failures.append({"entry": (m, m), "got": got, "want": fact})
    identities = {
        "column0_kronecker": col0_ok,
        "column1_falling_factorial": col1_ok,
        "diagonal_factorial": diag_ok,
    }
    return {"ok": not failures, "identities": identities, "failures": failures}
