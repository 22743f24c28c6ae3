"""The acceptance gate: every headline claim of the package, one test per
criterion, run at the stated tolerances.  Each test pushes a one-line
PASS/FAIL summary into the terminal report (see conftest).

These deliberately re-run the verification suites rather than asserting on
frozen numbers: the suites recompute both sides of every comparison."""

import time

from convpow import verify


def _run(suite_fn, **kwargs):
    t0 = time.perf_counter()
    checks = suite_fn(**kwargs)
    elapsed = time.perf_counter() - t0
    bad = [c for c in checks if not c.ok]
    return checks, bad, elapsed


def test_criterion_01_reference_triangles(acceptance_report):
    checks, bad, elapsed = _run(verify.suite_triangles)
    ok = not bad and elapsed < 1.0
    acceptance_report(
        "criterion 01: triangles s=0..6 equal frozen reference, byte-exact",
        ok,
        elapsed,
        f"{len(checks)} matrices compared",
    )
    assert not bad, [c.detail for c in bad]
    assert elapsed < 1.0


def test_criterion_02_special_values_and_determinants(acceptance_report):
    checks, bad, elapsed = _run(verify.suite_specials, s_max=12)
    ok = not bad and elapsed < 5.0
    acceptance_report(
        "criterion 02: special-value identities s<=12, determinants s<=8, exact",
        ok,
        elapsed,
        f"{len(checks)} checks",
    )
    assert not bad, [c.detail for c in bad]
    assert elapsed < 5.0


def test_criterion_03_dual_path_coefficients(acceptance_report):
    checks, bad, elapsed = _run(verify.suite_dualpath, n_max=8, s_max=40)
    ok = not bad and elapsed < 60.0
    acceptance_report(
        "criterion 03: recurrence == closed form for 2<=n<=8, s<=40, exact + zero pattern",
        ok,
        elapsed,
        f"{len(checks)} levels",
    )
    assert not bad, [c.detail for c in bad]
    assert elapsed < 60.0


def test_criterion_04_polylog_power_identity(acceptance_report):
    checks, bad, elapsed = _run(verify.suite_stirling, n_max=6)
    ok = not bad and elapsed < 5.0
    acceptance_report(
        "criterion 04: li1_power(n) == Cauchy power / n! for n<=6, order 30, exact",
        ok,
        elapsed,
        f"{len(checks)} powers",
    )
    assert not bad, [c.detail for c in bad]
    assert elapsed < 5.0


def test_criterion_05_closed_forms(acceptance_report):
    checks, bad, elapsed = _run(verify.suite_closedforms)
    acceptance_report(
        "criterion 05: f_1 = ln(y+1) to 1e-12; second conv power = 2ln(x+1)/(x+2) to 1e-9",
        not bad,
        elapsed,
        f"{len(checks)} points",
    )
    assert not bad, [c.detail for c in bad]


def test_criterion_06_beta_constants(acceptance_report):
    checks, bad, elapsed = _run(verify.suite_beta, n_max=2)
    acceptance_report(
        "criterion 06: beta_1 = 0 exactly; beta_2 = -pi^2/12 within 1e-10",
        not bad,
        elapsed,
        f"{len(checks)} constants",
    )
    assert not bad, [c.detail for c in bad]


def test_criterion_07_oracle_triangle(acceptance_report):
    checks, bad, elapsed = _run(verify.suite_oracle)
    ok = not bad and elapsed < 120.0
    acceptance_report(
        "criterion 07: series vs integral oracle (n<=4) and vs conv quadrature "
        "(n<=3, 3 kernel pairs incl. negative cutoff) within 1e-6",
        ok,
        elapsed,
        f"{len(checks)} comparisons",
    )
    assert not bad, [c.detail for c in bad]
    assert elapsed < 120.0


def test_criterion_08_reflection_identity(acceptance_report):
    checks, bad, elapsed = _run(verify.suite_reflection)
    acceptance_report(
        "criterion 08: reflection residual <= 1e-7 for n<=4, y in {0.5,1,2,5}",
        not bad,
        elapsed,
        f"{len(checks)} residuals",
    )
    assert not bad, [c.detail for c in bad]


def test_criterion_09_derivative_identity(acceptance_report):
    checks, bad, elapsed = _run(verify.suite_derivative)
    acceptance_report(
        "criterion 09: derivative residual <= 1e-6 at h=1e-4, O(h^2) under halving, n<=4",
        not bad,
        elapsed,
        f"{len(checks)} residuals",
    )
    assert not bad, [c.detail for c in bad]


def test_criterion_10_parameter_elimination(acceptance_report):
    checks, bad, elapsed = _run(verify.suite_elimination)
    acceptance_report(
        "criterion 10: f from raw conv quadrature agrees across 4 kernel pairs within 2e-7",
        not bad,
        elapsed,
        f"{len(checks)} grid points",
    )
    assert not bad, [c.detail for c in bad]
