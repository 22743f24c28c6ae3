import math
from fractions import Fraction

import mpmath
import pytest

from convpow.fdecomp import (
    BetaTable,
    FEvaluator,
    _eval_j,
    beta_table,
    build_j_iterate,
    derivative_residual,
    f_eval,
    make_f_evaluator,
    reflection_residual,
)
from convpow.series import LogSeries, PowerSeriesInvX

F = Fraction


# ---------------------------------------------------------------------------
# J-iterates


def test_j0_is_one():
    j = build_j_iterate(0, 8)
    assert j == LogSeries([PowerSeriesInvX.constant(1, 8)])
    assert float(_eval_j(0, 0.5, 8, 64)) == 1.0


def test_j1_is_ln():
    j = build_j_iterate(1, 8)
    assert j.part(0) == PowerSeriesInvX.zero(8)
    assert j.part(1) == PowerSeriesInvX.constant(1, 8)


def test_j2_is_dilog_plus_half_log_squared():
    j = build_j_iterate(2, 8)
    assert j.part(2) == PowerSeriesInvX.constant(F(1, 2), 8)
    assert j.part(1) == PowerSeriesInvX.zero(8)
    li2 = PowerSeriesInvX([F(0)] + [F(1, k * k) for k in range(1, 9)])
    assert j.part(0) == li2


def test_j2_at_two_is_pi_squared_over_twelve():
    r = _eval_j(2, 2, 64, 128)
    with mpmath.workprec(128):
        assert abs(r.value - mpmath.pi**2 / 12) < 1e-18


def test_j_iterate_part_signs():
    # part at ln^j carries (-1)^(n-j) Q_(n-j) / j!
    from convpow.qcoeff import log_expansion_q_list

    n = 5
    qs = log_expansion_q_list(n, 10)
    j = build_j_iterate(n, 10)
    for i in range(n + 1):
        want = qs[n - i] * F((-1) ** (n - i), math.factorial(i))
        assert j.part(i) == want


def test_j_eval_domain():
    assert float(_eval_j(1, 1, 16, 64)) == 0.0  # the one allowed x=1 case
    with pytest.raises(ValueError):
        _eval_j(1, F(1, 2), 16, 64)
    with pytest.raises(ValueError):
        _eval_j(2, 1, 16, 64)
    with pytest.raises(ValueError):
        build_j_iterate(-1, 8)


# ---------------------------------------------------------------------------
# beta coefficients


def test_beta_first_two_are_exact():
    t = beta_table(1)
    assert t.values[0] == 1
    assert t.values[1] == 0
    assert t.tails[0] == 0
    assert t.tails[1] == 0


def test_beta_two_is_minus_pi_squared_over_twelve():
    t = beta_table(2)
    with mpmath.workprec(128):
        target = -(mpmath.pi**2) / 12
        assert abs(t.values[2] - target) < 1e-20
        assert abs(t.values[2] - target) < 1e-10  # the headline tolerance


def test_beta_unrolled_combinations():
    """Unroll the triangular recurrence by hand for beta_3 and beta_4.

    beta_3 = -J^3(3) + J^2(2) J(3)
    beta_4 = -J^4(4) + J^2(2) J^2(4) + (J^3(3) - J^2(2) J(3)) J(4)
    """
    order, prec = 64, 128
    t = beta_table(4, order, prec)

    def j(m, x):
        return _eval_j(m, x, order, prec).value

    with mpmath.workprec(prec):
        b3 = -j(3, 3) + j(2, 2) * j(1, 3)
        b4 = -j(4, 4) + j(2, 2) * j(2, 4) + (j(3, 3) - j(2, 2) * j(1, 3)) * j(1, 4)
        assert abs(t.values[3] - b3) < 1e-30
        assert abs(t.values[4] - b4) < 1e-30


def test_beta_level_four_value():
    # frozen from two independent quadrature routes (see convolution tests)
    t = beta_table(4)
    assert abs(float(t.values[4]) - 0.06764520210695307) < 1e-12


def test_beta_independent_of_truncation():
    lo = beta_table(6, 64, 128)
    hi = beta_table(6, 96, 128)
    for n in range(7):
        budget = float(lo.tails[n] + hi.tails[n]) + 1e-30
        assert abs(float(lo.values[n] - hi.values[n])) <= budget, n


def test_beta_table_shape_and_validation():
    t = beta_table(3)
    assert len(t) == 4
    assert t[0] == t.values[0]
    assert isinstance(t, BetaTable)
    with pytest.raises(ValueError):
        beta_table(-1)


# ---------------------------------------------------------------------------
# f_n evaluation


def test_f0_is_one_everywhere():
    for y in (0, 0.5, 1, 7, 123.25):
        r = f_eval(0, y)
        assert float(r) == 1.0
        assert float(r.tail_estimate) == 0.0


def test_f1_is_log1p():
    for y in (0, 0.5, 1, 2, 5, 10):
        r = f_eval(1, y)
        with mpmath.workprec(128):
            assert abs(r.value - mpmath.log(y + 1)) < 1e-20


def test_fn_vanishes_at_zero():
    # the beta recurrence is exactly the statement f_n(0) = 0, and the
    # evaluation replays the same float operations, so this is exact
    for n in (1, 2, 3, 4):
        assert float(f_eval(n, 0)) == 0.0


def test_f2_closed_form():
    # f_2(y) = ln(x)^2/2 + Li_2(1/x) - pi^2/12 with x = y + 2
    for y in (0.5, 1, 5):
        r = f_eval(2, y)
        with mpmath.workprec(128):
            x = mpmath.mpf(y) + 2
            want = mpmath.log(x) ** 2 / 2 + mpmath.polylog(2, 1 / x) - mpmath.pi**2 / 12
            assert abs(r.value - want) <= float(r.tail_estimate) + 1e-25


def test_f_eval_validation():
    with pytest.raises(ValueError):
        f_eval(2, -0.5)
    with pytest.raises(ValueError):
        make_f_evaluator(-1)


def test_evaluator_is_reusable():
    ev = make_f_evaluator(3)
    assert isinstance(ev, FEvaluator)
    a = ev.eval(1.5)
    b = ev.eval(1.5)
    assert a.value == b.value


# ---------------------------------------------------------------------------
# defining identities


def test_derivative_identity_examples():
    assert derivative_residual(1, 1, 1e-4) <= 1e-7
    assert derivative_residual(2, 2, 1e-4) <= 1e-6
    assert derivative_residual(3, 0.5, 1e-4) <= 1e-6


def test_derivative_residual_scales_quadratically():
    r1 = derivative_residual(2, 1, 1e-3)
    r2 = derivative_residual(2, 1, 5e-4)
    assert 3.0 < r1 / r2 < 5.0


def test_derivative_residual_validation():
    with pytest.raises(ValueError):
        derivative_residual(0, 1, 1e-4)
    with pytest.raises(ValueError):
        derivative_residual(2, 1, 2)  # h >= y
    with pytest.raises(ValueError):
        derivative_residual(2, 1, 0)


def test_reflection_identity_examples():
    assert reflection_residual(0, 2) <= 1e-9
    assert reflection_residual(1, 2) <= 1e-8
    assert reflection_residual(3, 5) <= 1e-7


def test_reflection_trivial_at_y_zero():
    assert reflection_residual(2, 0) == 0.0


def test_reflection_residual_validation():
    with pytest.raises(ValueError):
        reflection_residual(-1, 1)
    with pytest.raises(ValueError):
        reflection_residual(1, -1)
