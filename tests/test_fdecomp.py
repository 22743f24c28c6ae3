import hashlib
import math
from fractions import Fraction

import mpmath
import pytest

from convpow import fdecomp, qcoeff, series
from convpow.fdecomp import (
    BetaTable,
    _eval_j,
    beta_table,
    build_j_iterate,
    derivative_residual,
    f_eval,
    make_f_evaluator,
    reflection_residual,
)
from convpow.series import LogSeries, PowerSeriesInvX, logseries_eval

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


def test_iterates_at_a_shared_point_match_each_part_on_its_own():
    # J^6..J^1 through one point (each Q_i summed once, every part rescaled
    # from it) give the floats of every part running its own Horner
    for order, prec in ((64, 128), (24, 80)):
        for x in (F(13, 2), 10.1, 1e6):
            at = series._Point(F(x))
            for m in range(6, 0, -1):
                got = _eval_j(m, at, order, prec)
                parts = [PowerSeriesInvX(p.coeffs, p.conv_abscissa) for p in build_j_iterate(m, order).parts]
                want = logseries_eval(LogSeries(parts), F(x), prec)
                assert got.value._mpf_ == want.value._mpf_, (order, m, x)
                assert got.tail_estimate._mpf_ == want.tail_estimate._mpf_, (order, m, x)
                assert got.tail_reliable == want.tail_reliable


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
    assert isinstance(ev, BetaTable)
    a = ev.eval(1.5)
    b = ev.eval(1.5)
    assert a.value == b.value


# f_n(y) for n = 0..10 at two (order, prec) settings, each line the exact
# mantissa and exponent (mpf._mpf_) of value and tail plus the flag; repr at
# mpmath's default 53 bits would hide the low bits.  Frozen from the
# evaluator that ran every J-iterate part as its own series_eval.
FROZEN_YS = (0, 0.25, 0.1, 1, 7.5, 19.75)
FROZEN_F_SHA256 = "1a7c5b3c4f9c3bffa093112743c08cefd9c158e5e98f1e61af94c8230343a55a"
FROZEN_F_SAMPLES = {
    (64, 128, 10, 0.25): "(0, 99552587312978949220067, -134, 77) (0, 65785207586156964175948883212074181145, -161, 126) True",
    (40, 96, 7, 0.1): "(1, 221537316256818857, -97, 58) (0, 30032898156488870749250952393, -123, 95) True",
}


def test_f_values_frozen():
    lines = {}
    for order, prec in ((64, 128), (40, 96)):
        for n in range(11):
            for y in FROZEN_YS:
                r = f_eval(n, y, order, prec)
                lines[order, prec, n, y] = f"{r.value._mpf_!r} {r.tail_estimate._mpf_!r} {r.tail_reliable}"
    for key, want in FROZEN_F_SAMPLES.items():
        assert lines[key] == want, key
    text = "\n".join(f"{o} {p} {n} {y!r} {line}" for (o, p, n, y), line in lines.items())
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_F_SHA256


# The same record at points whose x = y + n has a denominator with an odd
# part (3 or 7), which no float reaches: the Horner sums there multiply by
# powers of that odd part.  Frozen from the evaluator whose Horner ran in
# descending powers of 1/x, adding ints[k] * p^(N-k) at each step.
FROZEN_ODD_YS = (F(1, 3), F(22, 7), F(10, 3))
FROZEN_ODD_SHA256 = "b78f360de52c02a9e918a75ff84cb90684148c21807e87749fe746e269c0d03a"
FROZEN_ODD_SAMPLES = {
    (64, 128, 10, F(1, 3)): "(0, 61082514438096929093847, -133, 76) (0, 2060667517216686117447316141822995177, -156, 121) True",
    (40, 96, 7, F(22, 7)): "(0, 579654137684077422113277, -95, 79) (0, 8449344916318634725461564129, -121, 93) True",
}


def test_f_values_frozen_at_odd_denominators():
    lines = {}
    for order, prec in ((64, 128), (40, 96)):
        for n in range(1, 11):
            for y in FROZEN_ODD_YS:
                r = f_eval(n, y, order, prec)
                lines[order, prec, n, y] = f"{r.value._mpf_!r} {r.tail_estimate._mpf_!r} {r.tail_reliable}"
    for key, want in FROZEN_ODD_SAMPLES.items():
        assert lines[key] == want, key
    text = "\n".join(f"{o} {p} {n} {y} {line}" for (o, p, n, y), line in lines.items())
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_ODD_SHA256


def _clear_table_caches():
    for module in (series, qcoeff, fdecomp):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


@pytest.mark.parametrize("caller_prec", [20, 400])
def test_caller_precision_changes_no_bit(caller_prec):
    # beta and f_n work at their own prec, cold or warm, and leave mp.prec as the caller set it
    def bits(want_prec):
        _clear_table_caches()
        table = beta_table(9)
        assert mpmath.mp.prec == want_prec
        values = [f_eval(9, y) for y in (0.1, 7.5, F(22, 7))]
        assert mpmath.mp.prec == want_prec
        return [v._mpf_ for v in table.values + table.tails] + [
            (r.value._mpf_, r.tail_estimate._mpf_, r.tail_reliable) for r in values
        ]

    want = bits(mpmath.mp.prec)
    with mpmath.workprec(caller_prec):
        assert bits(caller_prec) == want


def test_each_q_series_is_evaluated_once_per_point(monkeypatch):
    make_f_evaluator(9)  # warm: J-iterates and betas built
    calls = []
    horner = series._horner
    monkeypatch.setattr(series, "_horner", lambda *args: calls.append(args) or horner(*args))
    f_eval(9, 2.5)
    assert len(calls) == 8  # Q_2..Q_9; Q_0 = 1 and Q_1 = 0 are constants


def test_each_beta_level_is_built_once(monkeypatch):
    # level n extends the cached level n - 1, so filling f_1..f_9 evaluates
    # J^m at x = n once for each 1 <= m <= n <= 9: 45 evaluations, not 165
    beta_table.cache_clear()
    calls = []
    eval_j = fdecomp._eval_j
    monkeypatch.setattr(fdecomp, "_eval_j", lambda *args: calls.append(args) or eval_j(*args))
    for n in range(1, 10):
        make_f_evaluator(n)
    assert len(calls) == 45


def test_pipeline_never_builds_the_fraction_view(monkeypatch):
    # every pipeline step reads a series' integers over its denominator;
    # the Fraction tuple is built only for callers that ask for it
    for module in (series, qcoeff, fdecomp):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()

    def refuse(self):
        raise AssertionError("the pipeline built a series' Fraction view")

    monkeypatch.setattr(PowerSeriesInvX, "coeffs", property(refuse))
    r = f_eval(8, 1.5, 24, 96)
    assert r.value > 0 and r.tail_estimate >= 0
    table = beta_table(9, 24, 96)
    assert len(table) == 10 and table.values[1] == 0


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


def test_reflection_evaluates_each_node_once(monkeypatch):
    nodes = []
    quad = fdecomp.adaptive_quad

    def recording_quad(f, a, b, tol):
        return quad(lambda s: nodes.append(s) or f(s), a, b, tol)

    evals = []
    real_eval = BetaTable.eval
    monkeypatch.setattr(fdecomp, "adaptive_quad", recording_quad)
    monkeypatch.setattr(BetaTable, "eval", lambda self, y: evals.append(y) or real_eval(self, y))
    reflection_residual(3, 5.0)
    assert len(nodes) > len(set(nodes))  # the two quadratures share their nodes
    assert len(evals) == len(set(nodes))


def test_reflection_trivial_at_y_zero():
    assert reflection_residual(2, 0) == 0.0


def test_reflection_residual_validation():
    with pytest.raises(ValueError):
        reflection_residual(-1, 1)
    with pytest.raises(ValueError):
        reflection_residual(1, -1)
