"""Named verification suites cross-checking every computation path.

Each suite returns a list of :class:`Check` records; the command line
renders them and the acceptance tests assert on them.  Suites recompute
everything they compare on the spot -- the only stored data is the frozen
reference block below, which captures the small triangular matrices as
independently tabulated.  Regenerating the code must never change it.

A check of a measured quantity against a bound comes from :func:`within`:
it passes when ``observed <= bound``, so a NaN fails, and its detail reads
``what = observed`` to 3 digits.  The tolerances live once each:
``quadrature.TOL`` for every quadrature, and ``AGREEMENT_TOL`` for two
float paths to one value (also ``eval --compare-tol``'s default).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import mpmath

from .amatrix import a_determinant, check_special_values, compute_a_matrix
from .convolution import ConvParams, _f_oracle_levels, conv_power_quadrature, f_from_conv, reconstruct_from_f
from .fdecomp import beta_table, derivative_residual, f_eval, reflection_residual
from .qcoeff import q_closed_form, q_via_recurrence
from .quadrature import TOL, QuadratureError
from .series import DEFAULT_ORDER, DEFAULT_PREC, li1_power

# Frozen reference triangles for sizes 0..6.  Do not regenerate from the
# recurrence; the whole point is that these bytes were written down once,
# checked against external tabulations, and the code must keep matching them.
REFERENCE_TRIANGLES: dict[int, tuple[tuple[int, ...], ...]] = {
    0: ((1,),),
    1: ((1,), (0, 1)),
    2: ((1,), (0, 1), (0, 1, 2)),
    3: ((1,), (0, 1), (0, 2, 2), (0, 2, 9, 6)),
    4: ((1,), (0, 1), (0, 3, 2), (0, 6, 15, 6), (0, 6, 50, 72, 24)),
    5: (
        (1,),
        (0, 1),
        (0, 4, 2),
        (0, 12, 21, 6),
        (0, 24, 120, 108, 24),
        (0, 24, 350, 850, 600, 120),
    ),
    6: (
        (1,),
        (0, 1),
        (0, 5, 2),
        (0, 20, 27, 6),
        (0, 60, 218, 144, 24),
        (0, 120, 1120, 1750, 840, 120),
        (0, 120, 3014, 11250, 12900, 5400, 720),
    ),
}

#: Kernel parameter sets used by the consistency suites; includes a
#: negative cutoff and a negative shift (only lam + a > 0 is required).
ORACLE_PAIRS: tuple[tuple[float, float], ...] = ((0.0, 1.0), (1.0, 0.5), (-0.25, 1.0))
ELIMINATION_PAIRS = ORACLE_PAIRS + ((2.0, -1.5),)

#: How far two float paths to one value may differ: suite_oracle's bound, ``eval --compare-tol``'s default.
AGREEMENT_TOL = 1e-6


class Check(NamedTuple):
    """Outcome of a single named verification; ``_asdict()`` is its JSON and CSV row."""

    name: str
    ok: bool
    detail: str = ""


def within(name: str, what: str, observed: float, bound: float, suffix: str = "") -> Check:
    """The check ``observed <= bound`` (a NaN fails), detailed ``what = observed`` to 3 digits, then ``suffix``."""
    return Check(name, observed <= bound, f"{what} = {observed:.3g}{suffix}")


def suite_triangles() -> list[Check]:
    """Recurrence output equals the frozen reference triangles exactly."""
    checks = []
    for s, want in sorted(REFERENCE_TRIANGLES.items()):
        got = compute_a_matrix(s)
        checks.append(
            Check(
                f"triangle s={s}",
                got == want,
                "matches reference" if got == want else f"got {got!r}, want {want!r}",
            )
        )
    return checks


def suite_specials(s_max: int = 12) -> list[Check]:
    """Closed-form slices (columns, diagonal) for s <= s_max, and
    determinants for s <= 8."""
    if s_max < 0:
        raise ValueError(f"suite specials checks s = 0..s_max, so it needs s_max >= 0, got {s_max}")
    checks = []
    for s in range(s_max + 1):
        report = check_special_values(compute_a_matrix(s))
        detail = "all identities hold" if report["ok"] else f"failures: {report['failures']}"
        checks.append(Check(f"special-values s={s}", report["ok"], detail))
    for s in range(9):
        det = a_determinant(compute_a_matrix(s))
        want = math.prod(map(math.factorial, range(s + 1)))  # the superfactorial 0! 1! ... s!
        checks.append(
            Check(
                f"determinant s={s}",
                det == want,
                f"det={det}, superfactorial={want}",
            )
        )
    return checks


def suite_stirling(n_max: int = 6) -> list[Check]:
    """li1_power matches the n-fold Cauchy product divided by n!, exactly,
    to order 30."""
    checks = []
    li1 = li1_power(1, 30)
    power = li1_power(0, 30)  # constant 1
    for n in range(n_max + 1):
        if n:
            power = power * li1
        want = power * Fraction(1, math.factorial(n))
        got = li1_power(n, 30)
        checks.append(
            Check(
                f"stirling-product n={n}",
                got == want,
                "exact match" if got == want else "coefficient mismatch",
            )
        )
    return checks


def suite_dualpath(n_max: int = 8, s_max: int = 40) -> list[Check]:
    """Recurrence and closed-form coefficients agree exactly; zero pattern holds."""
    if s_max < 1:
        raise ValueError(f"suite dualpath truncates the Q series at order s_max, so it needs s_max >= 1, got {s_max}")
    checks = []
    ladder = q_via_recurrence(max(n_max, 0), s_max)  # n_max < 2 makes no check
    for n in range(2, n_max + 1):
        rec = ladder[n].coeffs
        bad = []
        for s in range(s_max + 1):
            cf = q_closed_form(n, s)
            if cf != rec[s]:
                bad.append((s, str(rec[s]), str(cf)))
            if s < n - 1 and rec[s] != 0:
                bad.append((s, str(rec[s]), "0 (support)"))
        checks.append(
            Check(
                f"dualpath n={n}",
                not bad,
                f"all s<={s_max} agree" if not bad else f"mismatches (s, recurrence, closed): {bad[:4]}",
            )
        )
    return checks


def suite_closedforms() -> list[Check]:
    """Spot checks against hand closed forms: f_1 = ln(y+1), and the second
    convolution power of the plain truncated kernel, 2 ln(x+1)/(x+2)."""
    checks = []
    with mpmath.workprec(DEFAULT_PREC):
        for y in (0, 0.5, 1, 2, 5, 10):
            got = f_eval(1, Fraction(y)).value
            want = mpmath.log(1 + mpmath.mpf(y))
            err = abs(got - want)
            checks.append(
                Check(f"f1-log y={y}", err <= mpmath.mpf("1e-12"), f"|f_1 - ln(y+1)| = {mpmath.nstr(err, 3)}")
            )
    params = ConvParams(0.0, 1.0)
    for x in (0.5, 1.0, 2.0, 10.0):
        got = conv_power_quadrature(params, 2, x)
        want = 2.0 * math.log(x + 1.0) / (x + 2.0)
        err = abs(got - want)
        checks.append(within(f"conv2-closed x={x}", "|quad - closed|", err, 1e-9))
    return checks


def suite_beta(n_max: int = 6) -> list[Check]:
    """Exactness of the first constants and the dilogarithm value of the second."""
    if n_max < 1:
        raise ValueError(f"suite beta checks beta_0 and beta_1, so it needs n_max >= 1, got {n_max}")
    table = beta_table(n_max, DEFAULT_ORDER, DEFAULT_PREC)
    checks = [
        Check("beta0-exact", table.values[0] == 1, f"beta_0 = {mpmath.nstr(table.values[0], 20)}"),
        Check("beta1-exact", table.values[1] == 0, f"beta_1 = {mpmath.nstr(table.values[1], 20)}"),
    ]
    if n_max >= 2:
        with mpmath.workprec(DEFAULT_PREC):
            target = -(mpmath.pi ** 2) / 12
            err = abs(table.values[2] - target)
        checks.append(
            Check(
                "beta2-dilog",
                err <= mpmath.mpf("1e-10"),
                f"beta_2 = {mpmath.nstr(table.values[2], 20)}, -pi^2/12 = {mpmath.nstr(target, 20)}, |diff| = {mpmath.nstr(err, 3)}",
            )
        )
    return checks


def suite_oracle() -> list[Check]:
    """Triangle consistency, within AGREEMENT_TOL: series evaluation vs the
    single-variable iterated-integral oracle for n <= 4, and series-based
    reconstruction vs raw nested-quadrature convolution powers for n <= 3
    and several kernel parameters."""
    checks = []
    ys = (0.5, 1.0, 2.0, 5.0)
    # f_1..f_4 from one refinement loop per y, each level as f_quadrature_oracle gives it
    oracle = {y: _f_oracle_levels(4, y, TOL, 1) for y in ys}
    for n in range(1, 5):
        worst = 0.0
        for y in ys:
            a = float(f_eval(n, Fraction(y)).value)
            worst = max(worst, abs(a - oracle[y][n]))
        checks.append(within(f"f-oracle n={n}", "max |series - oracle|", worst, AGREEMENT_TOL, f" over y={list(ys)}"))
    for lam, a_shift in ORACLE_PAIRS:
        params = ConvParams(lam, a_shift)
        for n in range(1, 4):
            worst = 0.0
            for y in ys:
                x = (lam + a_shift) * y + n * lam
                via_series = reconstruct_from_f(params, n, x)
                via_quad = conv_power_quadrature(params, n, x)
                worst = max(worst, abs(via_series - via_quad))
            name = f"conv-consistency lam={lam} a={a_shift} n={n}"
            checks.append(within(name, "max |reconstruction - quadrature|", worst, AGREEMENT_TOL, f" over y={list(ys)}"))
    return checks


def suite_reflection(
    ns: tuple[int, ...] = (0, 1, 2, 3, 4),
    ys: tuple[float, ...] = (0.5, 1.0, 2.0, 5.0),
) -> list[Check]:
    """Reflection identity residuals for the evaluated f_n, within 1e-7; a
    point whose quadrature does not converge fails its check."""
    checks = []
    for n in ns:
        for y in ys:
            name = f"reflection n={n} y={y}"
            try:
                checks.append(within(name, "residual", reflection_residual(n, y), 1e-7))
            except QuadratureError as exc:  # a stalled quadrature fails this point's check, with why
                checks.append(Check(name, False, str(exc)))
    return checks


def suite_derivative(
    ns: tuple[int, ...] = (1, 2, 3, 4),
    ys: tuple[float, ...] = (0.5, 1.0, 2.0),
) -> list[Check]:
    """Differential identity residuals at step h = 1e-4, within 1e-6, plus
    the O(h^2) halving ratio.  A point whose rounding floor, f_n's rounding
    at DEFAULT_PREC bits through the stencil, exceeds 10x that bound fails
    naming the floor: its residual would measure rounding, not the identity."""
    checks = []
    h, bound = 1e-4, 1e-6
    for n in ns:
        for y in ys:
            name, res = f"derivative n={n} y={y}", derivative_residual(n, y, Fraction(h))
            floor = math.ldexp((y + n) * abs(float(f_eval(n, y).value)) / h, -DEFAULT_PREC)
            if floor > 10 * bound:
                detail = f"rounding floor (y + n)|f_n(y)|/(2^{DEFAULT_PREC} h) = {floor:.3g} at h={h:g}, over 10x the bound {bound:g}"
                checks.append(Check(name, False, detail))
            else:
                checks.append(within(name, "residual", res, bound, f" at h={h:g}"))
    r1 = derivative_residual(2, 1, Fraction(h))
    r2 = derivative_residual(2, 1, Fraction(h) / 2)
    ratio = r1 / r2 if r2 else float("inf")
    checks.append(
        Check(
            "derivative-halving n=2 y=1",
            3.0 <= ratio <= 5.0,
            f"residual({h:g})/residual({h / 2:g}) = {ratio:.3f}, expected near 4",
        )
    )
    return checks


def suite_elimination(
    ns: tuple[int, ...] = (1, 2, 3),
    ys: tuple[float, ...] = (0.5, 1.0, 2.0),
) -> list[Check]:
    """Parameter elimination: f extracted from raw convolution quadrature
    must not depend on (lam, a); the spread must stay within 2e-7."""
    checks = []
    for n in ns:
        for y in ys:
            vals = [f_from_conv(ConvParams(lam, a), n, y) for lam, a in ELIMINATION_PAIRS]
            spread = max(vals) - min(vals)
            checks.append(within(f"elimination n={n} y={y}", f"spread over {len(vals)} parameter pairs", spread, 2e-7))
    return checks


SUITES = {
    "table1": suite_triangles,
    "specials": suite_specials,
    "stirling": suite_stirling,
    "dualpath": suite_dualpath,
    "closedforms": suite_closedforms,
    "beta": suite_beta,
    "oracle": suite_oracle,
    "reflection": suite_reflection,
    "derivative": suite_derivative,
    "elimination": suite_elimination,
}


def run_suite(name: str, **kwargs) -> list[Check]:
    """Run one suite by name, or every suite with ``all``."""
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite())
        return out
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'") from None
    return suite(**kwargs)
