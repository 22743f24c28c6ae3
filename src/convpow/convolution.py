"""Direct numerical convolution powers of the truncated 1/x kernel, and
the bridges between those and the exact series evaluator.

The kernel is phi(x) = 0 for x < lam, 1/(x + a) for x >= lam, with
lam + a > 0.  Its n-fold self-convolution phi*n vanishes below n*lam and
is computed here by recursive adaptive quadrature -- deliberately naive,
so it shares nothing with the series path it cross-checks, and so costly
that it stops at the fixed depth limit ``DEFAULT_MAX_DEPTH``.

The parameter-free normal form f_{n-1} connects the two worlds:

    phi*n(x) = n! / (x + n*a) * f_{n-1}((x - n*lam) / (lam + a)),

so ``reconstruct_from_f`` maps series evaluations to convolution values
and ``f_from_conv`` inverts that to extract f from raw quadrature; the
CLI maps the oracle's f through the same ``_normal_form``.  A
separate single-variable oracle ``f_quadrature_oracle`` iterates the
integral recurrence f_k(y) = int_0^y f_{k-1}(s)/(s+k) ds on refining
Simpson grids of plain floats, giving a third, independent route to f.
Its first and largest grids are the module constants ``_ORACLE_PANELS``
and ``_ORACLE_MAX_PANELS``.
"""

from __future__ import annotations

import math

from .fdecomp import f_eval
from .quadrature import TOL, QuadratureError, adaptive_quad, cumulative_simpson_uniform
from .series import DEFAULT_ORDER, DEFAULT_PREC

#: Cost of the recursive quadrature grows exponentially with depth; it
#: computes no power above this one.
DEFAULT_MAX_DEPTH = 4

#: The f oracle's first grid, in Simpson panels, and the grid it gives up at.
_ORACLE_PANELS = 4096
_ORACLE_MAX_PANELS = 1 << 16


class ConvParams:
    """Kernel parameters: finite cutoff ``lam`` and shift ``a``, with lam + a > 0."""

    __slots__ = ("lam", "a")

    def __init__(self, lam: float, a: float):
        if not (math.isfinite(lam) and math.isfinite(a) and lam + a > 0):
            raise ValueError(f"need finite lam and a with lam + a > 0, got lam={lam}, a={a}")
        self.lam = lam
        self.a = a


def varphi(params: ConvParams, x: float) -> float:
    """The kernel itself: 0 below the cutoff, 1/(x + a) at and above it."""
    if x < params.lam:
        return 0.0
    return 1.0 / (x + params.a)


def conv_power_quadrature(params: ConvParams, n: int, x: float, tol: float = TOL) -> float:
    """phi*n(x) by recursive adaptive quadrature, for n <= DEFAULT_MAX_DEPTH.

    Each level integrates the previous power against the kernel over the
    support-respecting interval [(n-1)*lam, x - lam].  Inner values are
    memoized per call on the exact float argument, which collapses the
    repeated corner evaluations the outer adaptive rule requests.
    """
    if n < 1:
        raise ValueError(f"convolution power requires n >= 1, got n={n}")
    if n > DEFAULT_MAX_DEPTH:
        raise ValueError(
            f"n={n} exceeds the nested-quadrature depth limit {DEFAULT_MAX_DEPTH}; "
            "its cost is exponential in n"
        )
    memo: dict[tuple[int, float], float] = {}

    def power(k: int, t: float) -> float:
        if k == 1:
            return varphi(params, t)
        key = (k, t)
        if key in memo:
            return memo[key]
        lo = (k - 1) * params.lam
        hi = t - params.lam
        val = adaptive_quad(lambda u: varphi(params, t - u) * power(k - 1, u), lo, hi, tol)
        memo[key] = val
        return val

    return power(n, x)


def _normal_form(params: ConvParams, n: int, x: float) -> tuple[float, float]:
    """(y, n! / (x + n*a)), so that phi*n(x) = n! / (x + n*a) * f_{n-1}(y), for x >= n*lam."""
    if n < 1:
        raise ValueError(f"convolution power requires n >= 1, got n={n}")
    if x < n * params.lam:
        raise ValueError(
            f"x={x} is below the support cutoff {n * params.lam}; the value there is 0 "
            "and the normal form does not apply"
        )
    return (x - n * params.lam) / (params.lam + params.a), math.factorial(n) / (x + n * params.a)


def reconstruct_from_f(
    params: ConvParams,
    n: int,
    x: float,
    order: int = DEFAULT_ORDER,
    prec: int = DEFAULT_PREC,
) -> float:
    """phi*n(x) for x >= n*lam, from the exact series evaluation of f_{n-1}."""
    y, factor = _normal_form(params, n, x)
    return factor * float(f_eval(n - 1, y, order, prec).value)


def f_from_conv(params: ConvParams, n: int, y: float, tol: float = TOL) -> float:
    """f_{n-1}(y) extracted from a raw quadrature value of phi*n.

    The result must not depend on the kernel parameters; running this for
    several (lam, a) pairs and comparing is the parameter-elimination
    check the verify suites perform.
    """
    if not 0 <= y < math.inf:
        raise ValueError(f"normal-form argument must be finite and >= 0, got y={y}")
    scale = params.lam + params.a
    x = scale * y + n * params.lam
    conv = conv_power_quadrature(params, n, x, tol)
    return (y + n) / math.factorial(n) * scale * conv


def _f_oracle_on_grid(n: int, y: float, panels: int) -> list[float]:
    """One fixed-grid pass of the iterated-integral recurrence: f_0(y)..f_n(y)."""
    h = y / panels
    s = [i * h for i in range(panels)] + [y]
    f = [1.0] * (panels + 1)
    levels = [1.0]
    for k in range(1, n + 1):
        f = cumulative_simpson_uniform([v / (t + k) for v, t in zip(f, s)], h)
        levels.append(f[-1])
    return levels


def _f_oracle_levels(n: int, y: float, tol: float, lowest: int) -> dict[int, float]:
    """f_k(y) for lowest <= k <= n, each from the first grid refinement that
    changes it by less than tol; one refinement loop serves every level."""
    m = _ORACLE_PANELS
    cur = _f_oracle_on_grid(n, y, m)
    found: dict[int, float] = {}
    changes: dict = {n: None}
    while m < _ORACLE_MAX_PANELS:
        m *= 2
        prev, cur = cur, _f_oracle_on_grid(n, y, m)
        changes = {k: abs(cur[k] - prev[k]) for k in range(lowest, n + 1) if k not in found}
        found.update((k, cur[k]) for k, change in changes.items() if change < tol)
        if len(found) == n + 1 - lowest:
            return found
    k = min(k for k in changes if k not in found)
    raise QuadratureError(
        f"f oracle at n={k}, y={y}: grid refinement stalled above tol={tol:g} "
        f"(last change {changes[k]} at {m} panels)"
    )


def f_quadrature_oracle(n: int, y: float, tol: float = TOL) -> float:
    """f_n(y) by iterating f_k(y) = int_0^y f_{k-1}(s)/(s+k) ds numerically.

    Starts from f_0 = 1 on a uniform grid of ``_ORACLE_PANELS`` panels over
    [0, y], integrating with the cumulative Simpson rule, and doubles the
    grid until two consecutive refinements agree to ``tol``; past
    ``_ORACLE_MAX_PANELS`` it raises QuadratureError.  Completely
    independent of the series machinery (and of the kernel parameters).
    """
    if n < 0:
        raise ValueError(f"f index must be >= 0, got n={n}")
    if y < 0:
        raise ValueError(f"f is only defined for y >= 0, got y={y}")
    if n == 0:
        return 1.0
    if y == 0:
        return 0.0
    return _f_oracle_levels(n, y, tol, n)[n]

