import functools
import hashlib
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import fone, fzero, mpf_abs, mpf_add, mpf_mul, mpf_neg, round_nearest, to_rational

from convpow import fdecomp, qcoeff, series
from convpow.fdecomp import (
    BetaTable,
    beta_table,
    build_j_iterate,
    derivative_residual,
    f_eval,
    make_f_evaluator,
    reflection_residual,
)
from convpow.series import DEFAULT_ORDER, DEFAULT_PREC, PowerSeriesInvX, logseries_eval

F = Fraction


# ---------------------------------------------------------------------------
# J-iterates


def test_j0_is_one():
    j = build_j_iterate(0, 8)
    assert j == (PowerSeriesInvX.constant(1, 8),)
    assert float(logseries_eval(j, 0.5, 64)) == 1.0


def test_j1_is_ln():
    j = build_j_iterate(1, 8)
    assert j == (PowerSeriesInvX.zero(8), PowerSeriesInvX.constant(1, 8))


def test_j2_is_dilog_plus_half_log_squared():
    j = build_j_iterate(2, 8)
    assert len(j) == 3
    assert j[2] == PowerSeriesInvX.constant(F(1, 2), 8)
    assert j[1] == PowerSeriesInvX.zero(8)
    li2 = PowerSeriesInvX([F(0)] + [F(1, k * k) for k in range(1, 9)])
    assert j[0] == li2


def test_j2_at_two_is_pi_squared_over_twelve():
    r = logseries_eval(build_j_iterate(2, 64), 2, 128)
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
        assert j[i] == want


def test_j_eval_domain():
    assert float(logseries_eval(build_j_iterate(1, 16), 1, 64)) == 0.0
    r = logseries_eval(build_j_iterate(1, 16), F(1, 2), 64)  # J^1[1] = ln x, defined below 1 too
    with mpmath.workprec(64):
        assert (r.value, r.tail_estimate, r.tail_reliable) == (mpmath.log(mpmath.mpf(1) / 2), 0, True)
    with pytest.raises(ValueError, match="below the convergence abscissa"):
        logseries_eval(build_j_iterate(2, 16), 1, 64)
    with pytest.raises(ValueError):
        build_j_iterate(-1, 8)


# ---------------------------------------------------------------------------
# beta coefficients


def test_beta_first_two_are_exact():
    t = beta_table(1, 64, 128)
    assert t.values[0] == 1
    assert t.values[1] == 0
    assert t.tails[0] == 0
    assert t.tails[1] == 0


def test_beta_two_is_minus_pi_squared_over_twelve():
    t = beta_table(2, 64, 128)
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
        return logseries_eval(build_j_iterate(m, order), x, prec).value

    with mpmath.workprec(prec):
        b3 = -j(3, 3) + j(2, 2) * j(1, 3)
        b4 = -j(4, 4) + j(2, 2) * j(2, 4) + (j(3, 3) - j(2, 2) * j(1, 3)) * j(1, 4)
        assert abs(t.values[3] - b3) < 1e-30
        assert abs(t.values[4] - b4) < 1e-30


def test_beta_level_four_value():
    # frozen from two independent quadrature routes (see convolution tests)
    t = beta_table(4, 64, 128)
    assert abs(float(t.values[4]) - 0.06764520210695307) < 1e-12


def test_beta_independent_of_truncation():
    lo = beta_table(6, 64, 128)
    hi = beta_table(6, 96, 128)
    for n in range(7):
        budget = float(lo.tails[n] + hi.tails[n]) + 1e-30
        assert abs(float(lo.values[n] - hi.values[n])) <= budget, n


def test_beta_tails_cover_the_zeta_route():
    # k beta_k = sum_{j=2}^{k} (-1)^(j+1) zeta(j) beta_(k-j), from
    # B(eps) = exp(-gamma eps) / Gamma(1 + eps), a route that shares no
    # series with the table: each beta_k within its own tail estimate
    table = beta_table(12, 64, 128)
    with mpmath.workdps(60):
        want = [mpmath.mpf(1), mpmath.mpf(0)]
        for k in range(2, 13):
            want.append(sum((-1) ** (j + 1) * mpmath.zeta(j) * want[k - j] for j in range(2, k + 1)) / k)
        for k in range(13):
            assert abs(table.values[k] - want[k]) <= table.tails[k], k


def test_beta_table_shape_and_validation():
    t = beta_table(3, 64, 128)
    assert len(t) == 4
    assert t[0] == t.values[0]
    assert isinstance(t, BetaTable)
    with pytest.raises(ValueError):
        beta_table(-1, 64, 128)


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
    # beta_n is read off the level's own f_n(0), so the zero is exact at every level and setting
    for order, prec in ((64, 128), (40, 96), (24, 53)):
        for n in range(1, 13):
            assert make_f_evaluator(n, order, prec).eval(0).value._mpf_ == fzero, (n, order, prec)


def test_f2_closed_form():
    # f_2(y) = ln(x)^2/2 + Li_2(1/x) - pi^2/12 with x = y + 2
    for y in (0.5, 1, 5):
        r = f_eval(2, y)
        with mpmath.workprec(128):
            x = mpmath.mpf(y) + 2
            want = mpmath.log(x) ** 2 / 2 + mpmath.polylog(2, 1 / x) - mpmath.pi**2 / 12
            assert abs(r.value - want) <= float(r.tail_estimate) + 1e-25


def test_f_independent_of_truncation():
    # a longer truncation at a higher precision moves f_n by no more than
    # the two tail estimates together
    for n in (2, 5, 9, 12):
        for y in (0.25, 1, 5, 20):
            lo, hi = f_eval(n, y, 64, 128), f_eval(n, y, 96, 192)
            with mpmath.workprec(256):
                assert abs(lo.value - hi.value) <= lo.tail_estimate + hi.tail_estimate, (n, y)


def test_f_eval_validation():
    with pytest.raises(ValueError):
        f_eval(2, -0.5)
    with pytest.raises(TypeError, match="int, float or Fraction, got str"):
        f_eval(1, "1")
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
# evaluator that sums G_n's exact ln-parts, f_n(y) = G_n(y + n) + beta_n,
# with the beta_k's tail term sum_j |ln x|^j b_j, each part one fixed-point
# dot product, the parts' products with ln(x)^j summed exactly and rounded once.
FROZEN_YS = (0, 0.25, 0.1, 1, 7.5, 19.75)
FROZEN_F_SHA256 = "b5da1c0a19ae353d87738b28ffcaaf0a82a26d0e4a8a9314f59893d4783b3f18"
FROZEN_F_SAMPLES = {
    (64, 128, 10, 0.25): "(0, 3185682794015326375042201, -139, 82) (0, 66061248016965979245662888930573440223, -161, 126) True",
    (40, 96, 7, 0.1): "(1, 113427105923491254989, -106, 67) (0, 15059416960120971873019652693, -122, 94) True",
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
# part (3 or 7), which no float reaches: there 1/x = q/p has no finite
# binary expansion.  Frozen from the same G_n evaluator as above.
FROZEN_ODD_YS = (F(1, 3), F(22, 7), F(10, 3))
FROZEN_ODD_SHA256 = "a04f8809858bc6f21220dd580d6aa568359935f2c1eecca6e913f4c35a99dc36"
FROZEN_ODD_SAMPLES = {
    (64, 128, 10, F(1, 3)): "(0, 1954640462019101731003083, -138, 81) (0, 132445831338611749238294700967214479881, -162, 127) True",
    (40, 96, 7, F(22, 7)): "(0, 1187131673976990560487990769, -106, 90) (0, 2128227599430072639207757637, -119, 91) True",
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


# The exact layer under those values: G_n's parts as (den, ints), and every
# beta value and tail, for n <= 12, frozen before the Q family was built
# from its generating function.  A change meant to keep every bit shows
# it here without re-deriving a reference.
FROZEN_TABLES_SHA256 = "6fd9338dd8679f65eaff3ac01a866481da37f1a8e44ed944473466c89d4cfdab"


def test_g_parts_and_betas_frozen():
    lines = []
    for order, prec in ((64, 128), (32, 96)):
        for n in range(13):
            t = beta_table(n, order, prec)
            parts = [(p.den, p.ints) for p in t._g]
            lines.append(f"{order} {prec} {n} {parts!r} {[v._mpf_ for v in t.values]!r} {[v._mpf_ for v in t.tails]!r}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == FROZEN_TABLES_SHA256


# Reference for the evaluator: f_n and the beta recurrence with every
# J^(n-k) evaluated and multiplied in, beta_1 = 0 included, in libmp
# operations at the table's precision.  The evaluator sums the same exact
# series in another order (G_n's parts, each a sum over k before it is
# rounded), so the two agree to rounding, not bit for bit.
SKIP_SETTINGS = ((64, 128), (40, 96), (24, 53))


def _every_term_f(values, tails, n, y, order, prec):
    at = series._Point(series._exact(y) + n, prec)
    value = tail = fzero
    reliable = True
    for k in range(n + 1):
        r = logseries_eval(build_j_iterate(n - k, order), at, prec)
        beta, rv = values[k], r.value._mpf_
        value = mpf_add(value, mpf_mul(beta, rv, prec, round_nearest), prec, round_nearest)
        spread = mpf_mul(mpf_abs(beta, prec, round_nearest), r.tail_estimate._mpf_, prec, round_nearest)
        tail = mpf_add(tail, spread, prec, round_nearest)
        spread = mpf_mul(tails[k], mpf_abs(rv, prec, round_nearest), prec, round_nearest)
        tail = mpf_add(tail, spread, prec, round_nearest)
        reliable = reliable and r.tail_reliable
    return value, tail, reliable


@functools.lru_cache(maxsize=None)
def _every_term_betas(n_max, order, prec):
    values, tails = [fone], [fzero]
    for n in range(1, n_max + 1):
        at = series._Point(F(n), prec)
        acc = acc_tail = fzero
        for k in range(n):
            r = logseries_eval(build_j_iterate(n - k, order), at, prec)
            beta, rv = values[k], r.value._mpf_
            acc = mpf_add(acc, mpf_mul(beta, rv, prec, round_nearest), prec, round_nearest)
            spread = mpf_mul(mpf_abs(beta, prec, round_nearest), r.tail_estimate._mpf_, prec, round_nearest)
            beta_spread = mpf_mul(tails[k], mpf_abs(rv, prec, round_nearest), prec, round_nearest)
            acc_tail = mpf_add(acc_tail, mpf_add(spread, beta_spread, prec, round_nearest), prec, round_nearest)
        values.append(mpf_neg(acc, prec, round_nearest))
        tails.append(acc_tail)
    return tuple(values), tuple(tails)


def _exact_abs_j(n, x, order, prec):
    """|J^0(x)|..|J^n(x)| as Fractions of the floats the reference sums."""
    return [abs(_q(logseries_eval(build_j_iterate(m, order), x, prec).value._mpf_)) for m in range(n + 1)]


def _q(v):
    return F(*to_rational(v))


_ODD_DENOMINATOR_YS = st.integers(1, 25).flatmap(
    lambda h: st.integers(0, 50 * (2 * h + 1)).map(lambda p: F(p, 2 * h + 1))
)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 12),
    y=st.floats(0, 50) | _ODD_DENOMINATOR_YS,
    setting=st.sampled_from(SKIP_SETTINGS),
)
def test_f_and_beta_agree_with_every_term_to_rounding(n, y, setting):
    order, prec = setting
    ulps = F(2) ** (8 - prec)
    table = beta_table(n, order, prec)
    values, tails = _every_term_betas(12, order, prec)
    assert (values[0], tails[0], values[1], tails[1]) == (fone, fzero, fzero, fzero)
    assert [v._mpf_ for v in table.values[:2]] == [fone, fzero][: n + 1]  # exact
    for m in range(2, n + 1):  # beta_m = -sum_{k<m} beta_k J^(m-k)(m), rounded in two orders
        j = _exact_abs_j(m, m, order, prec)
        budget = ulps * sum(abs(_q(values[k])) * j[m - k] for k in range(m))
        assert abs(_q(table.values[m]._mpf_) - _q(values[m])) <= budget, m
    r = f_eval(n, y, order, prec)
    want_value, want_tail, want_reliable = _every_term_f(values, tails, n, y, order, prec)
    j = _exact_abs_j(n, series._exact(y) + n, order, prec)
    moved = [abs(_q(table.values[k]._mpf_) - _q(values[k])) for k in range(n + 1)]
    budget = sum((ulps * abs(_q(values[k])) + moved[k]) * j[n - k] for k in range(n + 1))
    assert abs(_q(r.value._mpf_) - _q(want_value)) <= budget
    assert want_reliable or not r.tail_reliable
    assert 2 * _q(r.tail_estimate._mpf_) >= _q(want_tail)
    # sum_j |ln x|^j b_j covers sum_{k<n} tail(beta_k) |J^(n-k)(x)|, J^(n-k)(x) as the reference rounds it
    carried = sum(_q(table.tails[k]._mpf_) * j[n - k] for k in range(n))
    with mpmath.workprec(2 * prec):
        x = series._exact(y) + n
        ln_x = abs(mpmath.log(mpmath.mpf(x.numerator) / x.denominator))
        covered = sum(ln_x**i * mpmath.mp.make_mpf(b) for i, b in enumerate(table._b))
        assert covered * (1 + mpmath.mpf(2) ** (8 - prec)) >= mpmath.mpf(carried.numerator) / carried.denominator


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
        table = beta_table(9, DEFAULT_ORDER, DEFAULT_PREC)
        assert mpmath.mp.prec == want_prec
        values = [f_eval(9, y) for y in (0.1, 7.5, F(22, 7))]
        assert mpmath.mp.prec == want_prec
        return [v._mpf_ for v in table.values + table.tails] + [
            (r.value._mpf_, r.tail_estimate._mpf_, r.tail_reliable) for r in values
        ]

    want = bits(mpmath.mp.prec)
    with mpmath.workprec(caller_prec):
        assert bits(caller_prec) == want


def test_one_beta_table_per_key():
    # order and prec are positional and required, so the default setting
    # has one spelling and one cached table per level
    _clear_table_caches()
    f_eval(5, 1.0)
    table = make_f_evaluator(5)
    assert beta_table(5, DEFAULT_ORDER, DEFAULT_PREC) is table
    assert beta_table.cache_info().misses == 6  # levels 0..5, each built once
    with pytest.raises(TypeError):
        beta_table(5)
    with pytest.raises(TypeError):
        beta_table(5, order=DEFAULT_ORDER, prec=DEFAULT_PREC)


@pytest.mark.parametrize("order, prec", [(64, 128), (16, 24)])
def test_part_one_is_the_two_term_combination(order, prec):
    # G_n's part 1 changes only the constant of G_{n-1}'s part 0, and lands in lowest terms
    for n in range(1, 11):
        lower, beta = beta_table(n - 1, order, prec), _q(beta_table(n, order, prec).values[n - 1]._mpf_)
        want = PowerSeriesInvX._combination([(lower._g[0], 1), (qcoeff.log_expansion_q_list(n, order)[0], beta)])
        got = beta_table(n, order, prec)._g[1]
        assert (got.den, got.ints) == (want.den, want.ints), n


def test_each_q_series_is_evaluated_once_per_point(monkeypatch):
    make_f_evaluator(9)  # warm: J-iterates and betas built
    calls = []
    dot = series._dot
    monkeypatch.setattr(series, "_dot", lambda *args: calls.append(args) or dot(*args))
    f_eval(9, 2.5)
    assert len(calls) == 8  # one per non-constant part of G_9: parts 0..7; part 8 is 0, part 9 is 1/9!


def test_one_power_table_per_point_and_order(monkeypatch):
    # every part of G_9 takes its powers of 1/x from the one table its point builds
    make_f_evaluator(9)
    tables = []
    powers = series._Point.powers

    def spy(point, n, bits):
        got = powers(point, n, bits)
        tables.append((id(point), n, id(got[1])))
        return got

    monkeypatch.setattr(series._Point, "powers", spy)
    f_eval(9, 2.5)
    assert len(tables) == 9  # sized once for all parts, then one lookup per non-constant part
    assert len(set(tables)) == 1


def test_f_eval_goes_through_logseries_eval_to_series_eval(monkeypatch):
    # BetaTable.eval -> logseries_eval(G_n) -> series_eval, one series_eval
    # per nonzero part of G_n: parts 0..n-2 hold Q_2..Q_n, part n - 1 is
    # P_1 = beta_1 - Q_1 = 0 and costs none, part n is the constant 1/n!.
    # So an n = 9 point makes 8 + 1 = 9 calls, and one logseries_eval
    make_f_evaluator(9)
    calls = []
    for module, name in ((series, "series_eval"), (fdecomp, "logseries_eval")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, fn=fn: calls.append(name) or fn(*args))
    f_eval(9, 2.5)
    assert (calls.count("series_eval"), calls.count("logseries_eval")) == (9, 1)
    calls.clear()
    f_eval(2, 1.5)  # G_2 = J^2 = (Q_2, 0, 1/2)
    assert (calls.count("series_eval"), calls.count("logseries_eval")) == (2, 1)


def test_each_beta_level_is_built_once(monkeypatch):
    # level n extends the cached level n - 1 by G_n and evaluates it once,
    # at x = n: filling f_1..f_9 makes 9 evaluations of a G_n
    beta_table.cache_clear()
    calls = []
    logseries = fdecomp.logseries_eval
    monkeypatch.setattr(fdecomp, "logseries_eval", lambda *args: calls.append(args) or logseries(*args))
    for n in range(1, 10):
        make_f_evaluator(n)
    assert len(calls) == 9


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
