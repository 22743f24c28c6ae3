import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from convpow.amatrix import a_determinant, compute_a_matrix
from convpow.combinatorics import stirling1_unsigned
from convpow.verify import suite_specials


def expand_rising(k):
    """Coefficients of x(x+1)...(x+k-1), lowest power first.

    Brute-force polynomial multiplication; this is the independent oracle
    for the Stirling triangle.
    """
    coeffs = [1]
    for i in range(k):
        # multiply by (x + i)
        shifted = [0] + coeffs
        coeffs = [i * c for c in coeffs] + [0]
        coeffs = [a + b for a, b in zip(coeffs, shifted)]
    return coeffs


class TestBinomial:
    """math.comb, which q_closed_form and the A^s weights use in place of a
    hand-rolled binomial, on the arguments they pass it (0 <= k)."""

    def test_small_values(self):
        assert math.comb(4, 2) == 6
        assert math.comb(3, 0) == 1

    def test_out_of_range_is_zero(self):
        assert math.comb(2, 3) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            math.comb(-1, 0)

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=43))
    def test_symmetry(self, n, k):
        assert math.comb(n, k) == (math.comb(n, n - k) if k <= n else 0)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
    def test_pascal_recurrence(self, n, k):
        assert math.comb(n, k) == math.comb(n - 1, k - 1) + math.comb(n - 1, k)


class TestStirlingFirstKind:
    def test_diagonal_is_one(self):
        assert stirling1_unsigned(2, 2) == 1
        assert all(stirling1_unsigned(k, k) == 1 for k in range(12))

    def test_rising_factorial_coefficient(self):
        # x(x+1)(x+2) = x^3 + 3x^2 + 2x, coefficient of x^2 is 3
        assert stirling1_unsigned(3, 2) == 3

    def test_single_cycle_column(self):
        # s(k, 1) = (k-1)!
        assert stirling1_unsigned(4, 1) == 6
        for k in range(1, 10):
            assert stirling1_unsigned(k, 1) == math.factorial(k - 1)

    def test_out_of_range_is_zero(self):
        assert stirling1_unsigned(3, 4) == 0
        assert stirling1_unsigned(3, -1) == 0
        assert stirling1_unsigned(0, 0) == 1

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            stirling1_unsigned(-1, 0)

    def test_matches_expansion_oracle(self):
        for k in range(31):
            want = expand_rising(k)
            got = [stirling1_unsigned(k, n) for n in range(k + 1)]
            assert got == want, f"row {k} diverges from the expansion oracle"

    def test_row_sum_counts_permutations(self):
        for k in range(16):
            assert sum(stirling1_unsigned(k, n) for n in range(k + 1)) == math.factorial(k)

    @given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=61))
    def test_triangle_recurrence(self, k, n):
        assert stirling1_unsigned(k + 1, n) == stirling1_unsigned(k, n - 1) + k * stirling1_unsigned(k, n)


def product(lo, hi):
    """lo * (lo+1) * ... * hi by plain multiplication, 1 when empty: the
    oracle for the math.perm forms of the rising and falling factorials."""
    out = 1
    for i in range(lo, hi + 1):
        out *= i
    return out


class TestFactorialProducts:
    """The standard-library forms the A^s code and its checks use for rising,
    falling and superfactorials: the rising factorial x^(rising m) in each
    row weight is math.perm(x+m-1, m), the falling factorial of column 1 is
    math.perm, and the determinants are products of factorials."""

    def test_rising_examples(self):
        assert math.perm(3 + 0 - 1, 0) == product(3, 2) == 1
        assert math.perm(3 + 2 - 1, 2) == product(3, 4) == 12
        assert math.perm(1 + 4 - 1, 4) == product(1, 4) == 24

    def test_falling_examples(self):
        assert math.perm(3, 0) == 1
        assert math.perm(3, 2) == product(2, 3) == 6
        assert math.perm(3, 4) == 0  # past the zero factor

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=10))
    def test_falling_is_shifted_rising(self, x, m):
        assert math.perm(x + m - 1, m) == product(x, x + m - 1)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            math.perm(3, -1)

    def test_superfactorial_values(self):
        want = [1, 1, 2, 12, 288, 34560]
        assert [math.prod(map(math.factorial, range(s + 1))) for s in range(6)] == want
        assert [a_determinant(compute_a_matrix(s)) for s in range(6)] == want

    def test_superfactorial_negative_rejected(self):
        with pytest.raises(ValueError, match="s_max >= 0"):
            suite_specials(-1)
