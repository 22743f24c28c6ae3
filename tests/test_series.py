import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import to_rational

from convpow import series
from convpow.fdecomp import f_eval, make_f_evaluator
from convpow.qcoeff import log_expansion_q_list
from convpow.series import (
    EvalResult,
    PowerSeriesInvX,
    backward_diff,
    harmonic_h,
    li1_power,
    logseries_eval,
    series_eval,
    shift_s,
)

F = Fraction


def li2_series(order):
    """Dilogarithm of 1/x: coefficients 1/k^2."""
    return PowerSeriesInvX([F(0)] + [F(1, k * k) for k in range(1, order + 1)])


def cauchy_brute(a, b):
    """Reference Cauchy product, no cleverness."""
    n = len(a) - 1
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12)


# ---------------------------------------------------------------------------
# construction, and what a series does not combine with


@pytest.mark.parametrize(
    "coeffs, abscissa, match",
    [([], 1, "constant coefficient"), ([1, 2], F(1, 2), "conv_abscissa must be >= 1")],
)
def test_constructor_validation(coeffs, abscissa, match):
    with pytest.raises(ValueError, match=match):
        PowerSeriesInvX(coeffs, abscissa)


@pytest.mark.parametrize(
    "combine",
    [lambda g: g + 1, lambda g: g - 1, lambda g: g * 1.5, lambda g: 1.5 * g],
    ids=["g+1", "g-1", "g*1.5", "1.5*g"],
)
def test_arithmetic_with_a_non_series_is_refused(combine):
    # + and - take series only, * takes series, ints and Fractions
    with pytest.raises(TypeError):
        combine(li1_power(1, 4))


def test_equality_with_a_non_series_is_false():
    assert PowerSeriesInvX.constant(1, 4) != 1
    assert not PowerSeriesInvX.constant(1, 4) == "1"


def test_repr_shows_four_coefficients_order_and_abscissa():
    assert repr(li1_power(1, 5)) == "PowerSeriesInvX([0, 1, 1/2, 1/3, ...], order=5, abscissa=1)"
    assert repr(PowerSeriesInvX([F(1, 3), 2], 3)) == "PowerSeriesInvX([1/3, 2], order=1, abscissa=3)"


# ---------------------------------------------------------------------------
# multiplication


def test_mul_identity_on_constants():
    one = PowerSeriesInvX.constant(1, 8)
    assert one * one == one


def test_mul_li1_squared_matches_brute_force():
    li1 = li1_power(1, 4)
    got = li1 * li1
    assert got.coeffs == tuple(cauchy_brute(list(li1.coeffs), list(li1.coeffs)))
    # 2 * s(k,2)/k!: a_2 = 1, a_3 = 1, a_4 = 11/12
    assert got.coeffs[2:] == (F(1), F(1), F(11, 12))


def test_mul_truncates_cross_terms():
    n = 6
    e1 = PowerSeriesInvX([F(1) if k == 1 else F(0) for k in range(n + 1)])
    en = PowerSeriesInvX([F(1) if k == n else F(0) for k in range(n + 1)])
    assert e1 * en == PowerSeriesInvX.zero(n)


def test_mul_order_mismatch_rejected():
    with pytest.raises(ValueError):
        PowerSeriesInvX.zero(4) * PowerSeriesInvX.zero(5)
    with pytest.raises(ValueError):
        PowerSeriesInvX.zero(4) + PowerSeriesInvX.zero(5)


@given(
    st.lists(small_fractions, min_size=7, max_size=7),
    st.lists(small_fractions, min_size=7, max_size=7),
)
def test_mul_matches_brute_force(a, b):
    f = PowerSeriesInvX(a)
    g = PowerSeriesInvX(b)
    assert list((f * g).coeffs) == cauchy_brute(a, b)


# ---------------------------------------------------------------------------
# the H operator


def test_h_of_one_is_ln():
    # H[1] = ln(x) is no series in 1/x, so harmonic_h raises on it; it is
    # the ln-polynomial (0, 1), which logseries_eval reads as ln(x)
    n = 6
    with pytest.raises(ArithmeticError):
        harmonic_h(PowerSeriesInvX.constant(1, 4))
    ln_x = (PowerSeriesInvX.zero(n), PowerSeriesInvX.constant(1, n))
    for x in (F(2), F(13, 2), F(10**6)):
        got = logseries_eval(ln_x, x, 80)
        with mpmath.workprec(80):
            assert got.value == mpmath.log(mpmath.mpf(x.numerator) / x.denominator)


def test_h_rejects_constant_term():
    # a nonzero constant term raises, whatever follows it, and the same
    # series without it integrates
    n = 6
    for a0 in (F(1), F(-2, 3)):
        with pytest.raises(ArithmeticError, match="constant term"):
            harmonic_h(PowerSeriesInvX([a0, F(1)] + [F(0)] * (n - 1)))
    assert harmonic_h(PowerSeriesInvX([F(0), F(1)] + [F(0)] * (n - 1))).coeff(1) == -1


def test_h_of_inverse_x():
    n = 5
    g = PowerSeriesInvX([F(0), F(1)] + [F(0)] * (n - 1))
    assert harmonic_h(g) == PowerSeriesInvX([F(0), F(-1)] + [F(0)] * (n - 1))


def test_h_of_li1_is_minus_li2():
    n = 12
    assert harmonic_h(li1_power(1, n)) == -li2_series(n)


@given(
    st.lists(small_fractions, min_size=6, max_size=6),
    st.lists(small_fractions, min_size=6, max_size=6),
    small_fractions,
    small_fractions,
)
def test_h_linearity(a, b, alpha, beta):
    # H acts on series without a constant term
    f = PowerSeriesInvX([F(0)] + a[1:])
    g = PowerSeriesInvX([F(0)] + b[1:])
    assert harmonic_h(f * alpha + g * beta) == harmonic_h(f) * alpha + harmonic_h(g) * beta


# ---------------------------------------------------------------------------
# backward difference


def test_nabla_kills_constants():
    assert backward_diff(PowerSeriesInvX.constant(F(7, 3), 8)) == PowerSeriesInvX.zero(8)


def test_nabla_of_inverse_x_is_geometric():
    n = 7
    g = PowerSeriesInvX([F(0), F(1)] + [F(0)] * (n - 1))
    # 1/x - 1/(x-1) = -sum_{k>=2} x^{-k}
    assert list(backward_diff(g).coeffs) == [F(0), F(0)] + [F(-1)] * (n - 1)


def test_nabla_of_li2_frozen_oracle_values():
    """Coefficients of Li_2(1/x) - Li_2(1/(x-1)) at k = 2, 3, 4.

    Two independent derivations agree:

      * the defining sum  -sum_{r=1}^{k-1} C(k-1,r)/(k-r)^2, and
      * re-expanding Li_2(1/(x-1)) via (x-1)^{-j} = sum_m C(m-1,j-1) x^{-m},
        giving 1/m^2 - sum_j C(m-1,j-1)/j^2.

    Both yield -1, -3/2, -25/12.
    """
    got = backward_diff(li2_series(4))
    direct = [
        -sum(math.comb(k - 1, r) * F(1, (k - r) ** 2) for r in range(1, k))
        for k in (2, 3, 4)
    ]
    composed = [
        F(1, m * m) - sum(math.comb(m - 1, j - 1) * F(1, j * j) for j in range(1, m + 1))
        for m in (2, 3, 4)
    ]
    assert direct == composed == [F(-1), F(-3, 2), F(-25, 12)]
    assert list(got.coeffs) == [F(0), F(0), F(-1), F(-3, 2), F(-25, 12)]


def test_nabla_of_li2_numeric_cross_check():
    # partial sums of the series against mpmath's polylog at a point far
    # inside the convergence region
    got = backward_diff(li2_series(40))
    x = 10.0
    want = mpmath.polylog(2, 1 / x) - mpmath.polylog(2, 1 / (x - 1))
    have = sum(float(c) * x**-k for k, c in enumerate(got.coeffs))
    assert abs(have - float(want)) < 1e-14


@given(st.lists(small_fractions, min_size=8, max_size=8))
def test_nabla_leading_coefficients_vanish(a):
    d = backward_diff(PowerSeriesInvX(a))
    assert d.coeffs[0] == 0
    assert d.coeffs[1] == 0


def test_nabla_shifts_abscissa():
    g = PowerSeriesInvX([F(0), F(1), F(1)], conv_abscissa=1)
    assert backward_diff(g).conv_abscissa == 2


# ---------------------------------------------------------------------------
# the integer kernels against plain Fraction arithmetic

# zero, negative and mixed-denominator coefficients
kernel_coeffs = st.one_of(st.just(F(0)), st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4))
abscissas = st.fractions(min_value=1, max_value=20, max_denominator=7)


@st.composite
def series_pairs(draw):
    order = draw(st.integers(0, 20))
    coeff_lists = st.lists(kernel_coeffs, min_size=order + 1, max_size=order + 1)
    return [PowerSeriesInvX(draw(coeff_lists), draw(abscissas)) for _ in range(2)]


def nabla_brute(a):
    """Reference backward difference on Fractions, straight from the formula."""
    return [-sum((math.comb(k - 1, r) * a[k - r] for r in range(1, k)), F(0)) for k in range(len(a))]


def assert_exact(got, coeffs, abscissa):
    assert got.coeffs == tuple(coeffs)
    assert all(type(c) is Fraction for c in got.coeffs)
    assert got.conv_abscissa == abscissa
    # the stored form a kernel builds is the one a fresh series computes
    fresh = PowerSeriesInvX(got.coeffs)
    assert (got.den, got.ints) == (fresh.den, fresh.ints)


@given(series_pairs(), st.one_of(kernel_coeffs, st.integers(-50, 50)))
def test_integer_kernels_match_fraction_reference(pair, c):
    f, g = pair
    a, b = list(f.coeffs), list(g.coeffs)
    both = max(f.conv_abscissa, g.conv_abscissa)
    assert_exact(f * g, cauchy_brute(a, b), both)
    assert_exact(backward_diff(f), nabla_brute(a), f.conv_abscissa + 1)
    assert_exact(f + g, [x + y for x, y in zip(a, b)], both)
    assert_exact(f - g, [x - y for x, y in zip(a, b)], both)
    assert_exact(-f, [-x for x in a], f.conv_abscissa)
    assert_exact(f * c, [Fraction(c) * x for x in a], f.conv_abscissa)
    assert_exact(c * f, [Fraction(c) * x for x in a], f.conv_abscissa)
    pure = PowerSeriesInvX([F(0)] + a[1:], f.conv_abscissa)
    assert_exact(harmonic_h(pure), [F(0)] + [-x / k for k, x in enumerate(a) if k], f.conv_abscissa)
    if a[0]:
        with pytest.raises(ArithmeticError):
            harmonic_h(f)
    assert_exact(shift_s(f), [x - y for x, y in zip(a, nabla_brute(a))], f.conv_abscissa + 1)
    # the stored form is unique, so == is coefficient equality whatever
    # route built the two sides
    assert (f + g) - g == f
    assert f == PowerSeriesInvX(f.coeffs)
    assert (f * F(1, 2) == f) == (not any(a))


def test_a_point_serves_one_precision():
    f = PowerSeriesInvX([0, 1, Fraction(1, 2)])
    at = series._Point(Fraction(5, 2), 96)
    assert series_eval(f, at, 96) == series_eval(f, Fraction(5, 2), 96)
    with pytest.raises(ValueError, match="prepared at 96 bits"):
        series_eval(f, at, 128)
    with pytest.raises(ValueError, match="prepared at 96 bits"):
        logseries_eval((f, f), at, 128)
    # one point serves series of several orders at an odd denominator, in either order
    x, short, long = Fraction(29, 7), PowerSeriesInvX([0, 1, F(1, 2), F(1, 3)]), log_expansion_q_list(4, 40)[4]
    for pair in ((short, long), (long, short)):
        shared = series._Point(x, 96)
        for g in pair:
            assert series_eval(g, shared, 96) == series_eval(g, x, 96)


# The contract of the fixed-point kernel, against the exact partial sum
# S = sum_k a_k x^-k and |g|(x) = sum_k |a_k| x^-k: the value is off by at
# most 2^-prec |S| + 2^-(prec+32) |g|(x); the tail lies between the formula
# |a_N| x^-N / (1 - min(rho, 255/256)) and that times 1 + 2^(4-prec), plus
# 2^-(prec+32) |g|(x); the flag is rho < 1, exactly.


def _exact_sums(g, x):
    """S and |g|(x) as Fractions, on integers: a_k x^-k = ints[k] q^k p^(N-k) / (den p^N)."""
    p, q, n = x.numerator, x.denominator, g.order
    terms = [c * q**k * p ** (n - k) for k, c in enumerate(g.ints)]
    whole = g.den * p**n
    return F(sum(terms), whole), F(sum(map(abs, terms)), whole)


def _tail_formula(g, x):
    last, prev = g.coeff(g.order), g.coeff(g.order - 1)
    if not last:
        return F(0), True
    rho = max(abs(last / prev) if prev else F(1), F(1)) / x
    return abs(last) / x**g.order / (1 - min(rho, F(255, 256))), rho < 1


def _check_contract(g, x, prec, sums=None):
    r = series_eval(g, x, prec)
    exact, size = sums or _exact_sums(g, x)
    slack = size / 2 ** (prec + 32)
    value, tail = F(*to_rational(r.value._mpf_)), F(*to_rational(r.tail_estimate._mpf_))
    assert abs(value - exact) <= abs(exact) / 2**prec + slack
    formula, reliable = _tail_formula(g, x)
    assert formula <= tail <= formula * (1 + F(2) ** (4 - prec)) + slack
    assert r.tail_reliable is reliable


@st.composite
def contract_cases(draw):
    order = draw(st.sampled_from((8, 64, 256)))
    small = st.fractions(min_value=-5, max_value=5, max_denominator=45)
    coeffs = draw(st.lists(st.one_of(st.just(F(0)), small), min_size=order + 1, max_size=order + 1))
    if draw(st.booleans()):  # growth like Q_9's, 9^k a polynomial in k
        coeffs = [c * 9**k * (k + 1) ** 3 for k, c in enumerate(coeffs)]
    coeffs[draw(st.integers(1, order))] = draw(small.filter(bool))  # not constant
    scale = draw(st.sampled_from((F(1), F(1, 3**60), F(7**50))))  # tiny and huge coefficients
    coeffs = [c * scale for c in coeffs]
    floats = st.floats(1, 1e300).map(F)
    odd = st.builds(lambda p, h: F(p, 2 * h + 1), st.integers(1, 10**40), st.integers(1, 10**6))
    x = draw(st.one_of(floats, odd.filter(lambda v: v >= 1), st.sampled_from((F(1), F(9), F(22, 7)))))
    return PowerSeriesInvX(coeffs), x, draw(st.sampled_from((24, 53, 128, 256)))


@settings(max_examples=60, deadline=None)
@given(contract_cases())
def test_fixed_point_kernel_keeps_its_contract(case):
    _check_contract(*case)


@pytest.mark.parametrize("order", [8, 64, 256])
def test_fixed_point_kernel_on_q9(order):
    # Q_9 itself and its leading zeros (k0 = 5), at and far above its abscissa
    q9 = log_expansion_q_list(9, order)[9]
    for x in (F(9), F(47, 5), F(12.3), F(1e17), F(1e300)):
        sums = _exact_sums(q9, x)
        for prec in (24, 53, 128, 256):
            _check_contract(q9, x, prec, sums)


def test_series_cache_is_bounded_whatever_the_points():
    # one entry per precision, built once: 500 points over [0, 1e300] add nothing
    parts = make_f_evaluator(9)._g
    f_eval(9, 0.5)
    before = [dict(part._fixed_cache) for part in parts]
    ys = [0.0] + [10.0 ** (300 * (k / 499) ** 2) - 1 for k in range(1, 500)]
    for y in ys:
        f_eval(9, y)
    after = [dict(part._fixed_cache) for part in parts]
    assert [list(c) for c in after] == [list(c) for c in before]
    assert all(a[k] is b[k] for a, b in zip(after, before) for k in a)


# ---------------------------------------------------------------------------
# Li_1 and its powers


def test_nabla_ln_coefficients():
    assert list(li1_power(1, 3).coeffs) == [F(0), F(1), F(1, 2), F(1, 3)]


def test_li1_power_basics():
    assert li1_power(0, 5) == PowerSeriesInvX.constant(1, 5)
    assert li1_power(2, 5).coeffs[3] == F(1, 2)
    with pytest.raises(ValueError):
        li1_power(-1, 5)
    with pytest.raises(ValueError, match="order must be >= 0"):
        li1_power(2, -1)


def test_li1_power_leading_zeros():
    for n in range(6):
        s = li1_power(n, 12)
        assert all(s.coeffs[k] == 0 for k in range(n)), f"nonzero below k={n}"


def test_li1_power_two_matches_cauchy_square():
    n = 14
    li1 = li1_power(1, n)
    assert li1_power(2, n) == li1 * li1 * F(1, 2)


# ---------------------------------------------------------------------------
# the shift S


def test_shift_of_constant():
    one = PowerSeriesInvX.constant(1, 6)
    assert shift_s(one) == one


def test_shift_of_inverse_x_is_geometric():
    n = 7
    g = PowerSeriesInvX([F(0), F(1)] + [F(0)] * (n - 1))
    # 1/(x-1) = sum_{k>=1} x^{-k}
    assert list(shift_s(g).coeffs) == [F(0)] + [F(1)] * n


def test_shift_rejects_high_log_degree():
    # S acts on pure series only; a log-polynomial is rejected whatever its degree
    n = 4
    quadratic = (PowerSeriesInvX.zero(n),) * 3
    with pytest.raises(TypeError):
        shift_s(quadratic)
    with pytest.raises(TypeError):
        shift_s("not a series")


# ---------------------------------------------------------------------------
# evaluation


def test_eval_constant():
    r = series_eval(PowerSeriesInvX.constant(1, 16), 5)
    assert float(r) == 1.0
    assert float(r.tail_estimate) == 0.0
    assert r.tail_reliable


def test_eval_li2_at_two():
    # Li_2(1/2) = pi^2/12 - ln(2)^2 / 2
    r = series_eval(li2_series(64), 2)
    with mpmath.workprec(128):
        want = mpmath.pi**2 / 12 - mpmath.log(2) ** 2 / 2
        assert abs(r.value - want) < 1e-15


def test_eval_li1_at_two():
    r = series_eval(li1_power(1, 64), 2)
    with mpmath.workprec(128):
        assert abs(r.value - mpmath.log(2)) < 1e-15


def test_eval_below_abscissa_rejected():
    with pytest.raises(ValueError):
        series_eval(li1_power(1, 16), F(1, 2))
    with pytest.raises(ValueError):
        series_eval(backward_diff(li2_series(16)), F(3, 2))  # abscissa moved to 2


def test_eval_tail_unreliable_on_boundary():
    r = series_eval(li1_power(1, 32), 1)
    assert not r.tail_reliable
    assert math.isfinite(float(r))


@pytest.mark.parametrize(
    "coeffs, x, reliable",
    [
        ([1, 2, F(-3, 7), 0], F(5, 2), True),  # a_N = 0: no tail
        ([1, 2, F(-3, 7), 0], 1, True),  # ... and no model to flag, even at x = 1
        ([1, 2, 0, F(3, 5)], F(5, 2), True),  # a_{N-1} = 0: the ratio is 1
        ([0, 1, F(2, 3), F(-6, 5)], 10, True),  # rho = 9/50 < 1
        ([0, 1, F(1, 3), F(-4, 3)], 3, False),  # rho = 4/3, capped at 255/256
        ([0, 1, F(7, 2), F(7, 2)], 1, False),  # rho = 1, capped at 255/256
    ],
)
def test_tail_model_branch_by_branch(coeffs, x, reliable):
    # tail = |a_N| x^-N / (1 - min(max(|a_N / a_{N-1}|, 1) / x, 255/256))
    r = series_eval(PowerSeriesInvX(coeffs), x)
    assert r.tail_reliable is reliable
    with mpmath.workprec(256):
        mpf = lambda q: mpmath.mpf(F(q).numerator) / F(q).denominator
        last, prev = abs(mpf(coeffs[-1])), abs(mpf(coeffs[-2]))
        ratio = last / prev if prev else mpmath.mpf(1)
        rho = min(max(ratio, 1) / mpf(x), mpmath.mpf(255) / 256)
        want = last * mpf(x) ** -(len(coeffs) - 1) / (1 - rho)
        assert abs(r.tail_estimate - want) <= abs(want) * mpmath.mpf(10) ** -30


@given(
    st.fractions(min_value=F(1, 2**20), max_value=64, max_denominator=2**20),
    st.one_of(
        st.fractions(min_value=1, max_value=64, max_denominator=2**20),
        st.floats(1, 64).map(F),
    ),
    st.sampled_from((24, 64, 128)),
    st.booleans(),
)
@example(F(255, 128), F(2), 24, False)  # rho = 255/256: 256 u = 255 v, the cap itself
@example(F(255, 128) + F(1, 2**20), F(2), 64, False)  # just above the cap
@example(F(3, 2), F(3, 2), 128, False)  # u = v: rho = 1
@example(F(1, 3), F(5, 2), 64, True)  # ratio < 1: rho = 1 / x
@example(F(97, 40), F(23851993, 810670), 24, False)  # u, v share a factor 10
def test_tail_model_encloses_the_fraction_formula(ratio, x, prec, negative):
    # series_eval's integer tail model against rho = max(ratio, 1) / x on
    # Fractions: |a_N| x^-N / (1 - min(rho, 255/256)), enclosed from above
    # within the contract; the flag is rho < 1 exactly
    _check_contract(PowerSeriesInvX([0, 1, 1, -ratio if negative else ratio]), x, prec)


@pytest.mark.parametrize("order", [16, 32, 64])
def test_eval_tail_bounds_doubling_error(order):
    at_n = series_eval(li2_series(order), 3)
    at_2n = series_eval(li2_series(2 * order), 3)
    assert abs(at_n.value - at_2n.value) <= at_n.tail_estimate


@given(
    st.lists(small_fractions, min_size=9, max_size=9),
    st.fractions(min_value=F(3, 2), max_value=9, max_denominator=16),
)
def test_eval_matches_exact_rational_sum(a, x):
    g = PowerSeriesInvX(a)
    exact = sum(c * x**-k for k, c in enumerate(a))
    r = series_eval(g, x)
    with mpmath.workprec(128):
        want = mpmath.mpf(exact.numerator) / mpmath.mpf(exact.denominator)
        assert abs(r.value - want) <= abs(want) * mpmath.mpf(2) ** -100 + mpmath.mpf(2) ** -100


def test_logseries_eval_degree_zero_is_plain():
    g = (PowerSeriesInvX.constant(1, 8),)
    assert float(logseries_eval(g, 17.5)) == 1.0


def test_logseries_eval_ln_vanishes_at_one():
    n = 8
    j1 = (PowerSeriesInvX.zero(n), PowerSeriesInvX.constant(1, n))
    assert float(logseries_eval(j1, 1)) == 0.0


def test_logseries_eval_dilog_identity():
    # ln(2)^2/2 + Li_2(1/2) = pi^2/12
    n = 64
    g = (li2_series(n), PowerSeriesInvX.zero(n), PowerSeriesInvX.constant(F(1, 2), n))
    r = logseries_eval(g, 2)
    with mpmath.workprec(128):
        assert abs(r.value - mpmath.pi**2 / 12) < 1e-15


def test_logseries_eval_rejects_nonpositive():
    n = 4
    g = (PowerSeriesInvX.zero(n), PowerSeriesInvX.constant(1, n))
    with pytest.raises(ValueError):
        logseries_eval(g, 0)


def test_logseries_eval_rejects_empty():
    with pytest.raises(ValueError, match="ln-degree-0 part"):
        logseries_eval((), 2)


def test_eval_result_equality_and_float():
    g = PowerSeriesInvX.constant(1, 8)
    a, b = series_eval(g, 3), series_eval(g, 3)
    assert a == b and float(a) == 1.0
    assert a != EvalResult(a.value, a.tail_estimate, False)
    assert a != (a.value, a.tail_estimate, a.tail_reliable)
