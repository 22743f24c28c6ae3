"""Direct numerical convolution powers of the truncated 1/x kernel, and
the bridges between those and the exact series evaluator.

The kernel is phi(x) = 0 for x < lam, 1/(x + a) for x >= lam, with
lam + a > 0.  Its n-fold self-convolution phi*n vanishes below n*lam and
is computed here by recursive adaptive quadrature -- deliberately naive,
so it shares nothing with the series path it cross-checks.

The parameter-free normal form f_{n-1} connects the two worlds:

    phi*n(x) = n! / (x + n*a) * f_{n-1}((x - n*lam) / (lam + a)),

so ``reconstruct_from_f`` maps series evaluations to convolution values
and ``f_from_conv`` inverts that to extract f from raw quadrature.  A
separate single-variable oracle ``f_quadrature_oracle`` iterates the
integral recurrence f_k(y) = int_0^y f_{k-1}(s)/(s+k) ds on refining
Simpson grids, giving a third, independent route to f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .fdecomp import f_eval
from .quadrature import QuadratureError, adaptive_quad, cumulative_simpson_uniform
from .series import DEFAULT_ORDER, DEFAULT_PREC

#: Cost of the recursive quadrature grows exponentially with depth; powers
#: beyond this need an explicit opt-in.
DEFAULT_MAX_DEPTH = 4


@dataclass(frozen=True)
class ConvParams:
    """Kernel parameters: cutoff ``lam`` and shift ``a``, with lam + a > 0."""

    lam: float
    a: float

    def __post_init__(self):
        if not self.lam + self.a > 0:
            raise ValueError(f"need lam + a > 0, got lam={self.lam}, a={self.a}")


def varphi(params: ConvParams, x: float) -> float:
    """The kernel itself: 0 below the cutoff, 1/(x + a) at and above it."""
    if x < params.lam:
        return 0.0
    return 1.0 / (x + params.a)


def conv_power_quadrature(
    params: ConvParams,
    n: int,
    x: float,
    tol: float = 1e-10,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> float:
    """phi*n(x) by recursive adaptive quadrature.

    Each level integrates the previous power against the kernel over the
    support-respecting interval [(n-1)*lam, x - lam].  Inner values are
    memoized per call on the exact float argument, which collapses the
    repeated corner evaluations the outer adaptive rule requests.
    """
    if n < 1:
        raise ValueError(f"convolution power requires n >= 1, got n={n}")
    if n > max_depth:
        raise ValueError(
            f"n={n} exceeds max_depth={max_depth}; nested quadrature cost is "
            "exponential in n -- raise max_depth explicitly if you mean it"
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


def reconstruct_from_f(
    params: ConvParams,
    n: int,
    x: float,
    order: int = DEFAULT_ORDER,
    prec: int = DEFAULT_PREC,
) -> float:
    """phi*n(x) for x >= n*lam, from the exact series evaluation of f_{n-1}."""
    if n < 1:
        raise ValueError(f"convolution power requires n >= 1, got n={n}")
    if x < n * params.lam:
        raise ValueError(
            f"x={x} is below the support cutoff {n * params.lam}; the value there is 0 "
            "and the normal form does not apply"
        )
    scale = params.lam + params.a
    y = (x - n * params.lam) / scale
    return math.factorial(n) / (x + n * params.a) * float(f_eval(n - 1, y, order, prec).value)


def f_from_conv(
    params: ConvParams,
    n: int,
    y: float,
    tol: float = 1e-10,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> float:
    """f_{n-1}(y) extracted from a raw quadrature value of phi*n.

    The result must not depend on the kernel parameters; running this for
    several (lam, a) pairs and comparing is the parameter-elimination
    check the verify suites perform.
    """
    if n < 1:
        raise ValueError(f"convolution power requires n >= 1, got n={n}")
    if y < 0:
        raise ValueError(f"normal-form argument must be >= 0, got y={y}")
    scale = params.lam + params.a
    x = scale * y + n * params.lam
    conv = conv_power_quadrature(params, n, x, tol, max_depth)
    return (y + n) / math.factorial(n) * scale * conv


def _f_oracle_on_grid(n: int, y: float, panels: int) -> float:
    """One fixed-grid pass of the iterated-integral recurrence for f_n(y)."""
    import numpy as np

    s = np.linspace(0.0, y, panels + 1)
    h = y / panels
    f = np.ones(panels + 1)
    for k in range(1, n + 1):
        f = cumulative_simpson_uniform(f / (s + k), h)
    return float(f[-1])


def f_quadrature_oracle(
    n: int,
    y: float,
    tol: float = 1e-10,
    panels: int = 4096,
    max_panels: int = 1 << 16,
) -> float:
    """f_n(y) by iterating f_k(y) = int_0^y f_{k-1}(s)/(s+k) ds numerically.

    Starts from f_0 = 1 on a uniform grid over [0, y], integrating with the
    cumulative Simpson rule, and doubles the grid until two consecutive
    refinements agree to ``tol``.  Completely independent of the series
    machinery (and of the kernel parameters).
    """
    if n < 0:
        raise ValueError(f"f index must be >= 0, got n={n}")
    if y < 0:
        raise ValueError(f"f is only defined for y >= 0, got y={y}")
    if n == 0:
        return 1.0
    if y == 0:
        return 0.0
    prev = _f_oracle_on_grid(n, y, panels)
    m = panels
    change = None
    while m < max_panels:
        m *= 2
        cur = _f_oracle_on_grid(n, y, m)
        change = abs(cur - prev)
        if change < tol:
            return cur
        prev = cur
    raise QuadratureError(
        f"f oracle at n={n}, y={y}: grid refinement stalled above tol={tol:g} "
        f"(last change {change} at {m} panels)"
    )


def j_iterate_from_f_oracle(
    n: int,
    x: float,
    betas: Sequence[float],
    tol: float = 1e-10,
    panels: int = 4096,
) -> float:
    """Numerical value of the n-th J-iterate at x, from the f oracle alone.

    A verification path: the reference the tests hold ``build_j_iterate``
    against, sharing no code with the series side.

    The decomposition f_m(y) = sum_k beta_k * J^{m-k}[1](y + m) is lower
    triangular in the J-iterates with unit diagonal, so given the beta
    constants it inverts forward:

        J^m[1](x) = f_m(x - m) - sum_{k=1}^{m} beta_k * J^{m-k}[1](x).

    Needs x >= n so every f_m is evaluated at a nonnegative argument.
    ``betas`` must cover indices 0..n (index 0 is unused but keeps the
    natural alignment).
    """
    if n < 0:
        raise ValueError(f"iterate index must be >= 0, got n={n}")
    if x < n:
        raise ValueError(f"need x >= n for the triangular inversion, got x={x}, n={n}")
    if len(betas) < n + 1:
        raise ValueError(f"need beta_0..beta_{n}, got {len(betas)} values")
    j_vals = [1.0]
    for m in range(1, n + 1):
        fm = f_quadrature_oracle(m, x - m, tol, panels)
        j_vals.append(fm - sum(float(betas[k]) * j_vals[m - k] for k in range(1, m + 1)))
    return j_vals[n]
