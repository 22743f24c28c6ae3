"""The verify module's own rules: the bound-check builder, the failure
branches of the dual-path suite, and the resolution limits of the
reflection and derivative suites."""

import math
from fractions import Fraction

from convpow import verify
from convpow.series import PowerSeriesInvX


def test_within_is_observed_at_most_bound():
    at_bound = verify.within("eq", "residual", 1e-6, 1e-6, " at h=0.0001")
    assert (at_bound.name, at_bound.ok, at_bound.detail) == ("eq", True, "residual = 1e-06 at h=0.0001")
    assert not verify.within("over", "spread", 2.5e-7, 2e-7).ok
    nan = verify.within("nan", "max pairwise diff", math.nan, 1.0)
    assert (nan.ok, nan.detail) == (False, "max pairwise diff = nan")
    assert verify.within("fmt", "|quad - closed|", 1.23456e-12, 1e-9).detail == "|quad - closed| = 1.23e-12"


def test_dualpath_names_a_mismatched_coefficient(monkeypatch):
    closed = verify.q_closed_form
    monkeypatch.setattr(verify, "q_closed_form", lambda n, s: closed(n, s) + ((n, s) == (4, 7)))
    checks = {c.name: c for c in verify.suite_dualpath(n_max=5, s_max=10)}
    assert [name for name, c in checks.items() if not c.ok] == ["dualpath n=4"]
    rec = verify.q_via_recurrence(4, 10)[4].coeffs[7]
    assert checks["dualpath n=4"].detail == f"mismatches (s, recurrence, closed): [(7, '{rec}', '{rec + 1}')]"


def test_dualpath_flags_a_coefficient_below_the_support(monkeypatch):
    ladder = verify.q_via_recurrence(3, 10)
    coeffs = list(ladder[3].coeffs)
    coeffs[1] = Fraction(1, 5)  # Q_3 starts at s = n - 1 = 2
    bad = ladder[:3] + (PowerSeriesInvX(coeffs),)
    monkeypatch.setattr(verify, "q_via_recurrence", lambda n_max, order: bad)
    checks = verify.suite_dualpath(n_max=3, s_max=10)
    assert [c.ok for c in checks] == [True, False]
    assert "(1, '1/5', '0 (support)')" in checks[1].detail


# derivative residual details as they read before the rounding-floor rule, for
# every point of the sweep below that passed then; each must pass unchanged
DERIVATIVE_PASSING = {
    (1, 1e18): "residual = 7.04e-16 at h=0.0001",
    (1, 1e20): "residual = 6.32e-14 at h=0.0001",
    (1, 1e22): "residual = 1.94e-12 at h=0.0001",
    (1, 1e24): "residual = 3.5e-10 at h=0.0001",
    (1, 1e26): "residual = 3.17e-09 at h=0.0001",
    (2, 1e18): "residual = 2.02e-14 at h=0.0001",
    (2, 1e20): "residual = 4.52e-12 at h=0.0001",
    (2, 1e22): "residual = 4.99e-10 at h=0.0001",
    (2, 1e24): "residual = 8.78e-10 at h=0.0001",
    (2, 1e26): "residual = 9.21e-07 at h=0.0001",
    (4, 1e18): "residual = 8.83e-12 at h=0.0001",
    (4, 1e20): "residual = 1.76e-10 at h=0.0001",
    (4, 1e22): "residual = 6.05e-08 at h=0.0001",
}


def test_derivative_rounding_floor_changes_no_passing_point():
    ns, ys = (1, 2, 4), tuple(10.0**e for e in range(18, 29, 2))
    checks = verify.suite_derivative(ns, ys)[:-1]  # the halving check last
    for (n, y), c in zip([(n, y) for n in ns for y in ys], checks):
        assert c.name == f"derivative n={n} y={y}"
        if (n, y) in DERIVATIVE_PASSING:
            assert (c.ok, c.detail) == (True, DERIVATIVE_PASSING[n, y])
        else:  # failed before the rule too, by a residual at the rounding floor
            assert not c.ok and c.detail.startswith("rounding floor (y + n)|f_n(y)|/(2^128 h) = "), c.detail
