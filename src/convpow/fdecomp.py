"""The normal-form functions f_n and their decomposition over J-iterates.

Each f_n (the parameter-free profile of the n+1-st convolution power; see
`convolution`) is a fixed linear combination of iterates of the operator
J = H o S applied to the constant 1:

    f_n(y) = sum_{k=0}^{n} beta_k * J^{n-k}[1](y + n).

The J-iterate at level n is a polynomial in ln(x):

    J^n[1](x) = sum_{j=0}^{n} (-1)^j Q_j(x) * ln(x)^{n-j} / (n-j)!

with the pure series Q_j taken from the log-expansion family in `qcoeff`
(the one satisfying the operator's derivative identity at every level;
the short-recurrence family over there agrees with it only up to level
3).  The beta constants are forced by
f_n(0) = 0 for n >= 1, which triangularly determines

    beta_n = -sum_{k=0}^{n-1} beta_k * J^{n-k}[1](n),

starting from beta_0 = 1.  beta_1 = 0 falls out exactly since
J[1](1) = ln(1) = 0 (the only evaluation at x = 1 the recurrence ever
needs, special-cased below; everything else requires x > 1).

How a point is evaluated.  Every part of every J-iterate is one of the
same few series: part j of J^m is the scalar multiple (-1)^i Q_i / j! of
Q_i, with i = m - j, and remembers that it is.  ``beta_table`` and
``FEvaluator.eval`` evaluate J^0..J^n at one point x = p/q through one
``series._Point``: each non-constant Q_i runs one exact integer Horner
there, and every part's Horner sum is Q_i's, multiplied and divided
exactly by the integers of its scale.  The powers of p, x^(-N), ln x and
its powers and each tail model are also computed once per point.  The
float operations that follow are those of evaluating each part and
iterate on its own, in the same order, so every value, tail estimate and
reliability flag is what it was when every part ran its own Horner, at
n - 1 Horners per point instead of n(n+3)/2.

Everything here is evaluated, not symbolic: beta values are mpmath floats
carrying accumulated truncation-tail estimates, and the residual helpers
(`derivative_residual`, `reflection_residual`) quantify how well the
evaluated f_n satisfy the defining integral/differential identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from .qcoeff import log_expansion_q_list
from .quadrature import adaptive_quad
from .series import (
    DEFAULT_ORDER,
    DEFAULT_PREC,
    EvalResult,
    LogSeries,
    _exact,
    _point,
    _Point,
    _to_mpf,
    logseries_eval,
)


@lru_cache(maxsize=None)
def build_j_iterate(n: int, order: int = DEFAULT_ORDER) -> LogSeries:
    """Assemble J^n[1] from the log-expansion Q-series: part j of the
    ln-polynomial is (-1)^{n-j} Q_{n-j} / j!.

    Each part is a scalar multiple of its Q-series, so the parts of all
    iterates evaluated at one point share that series' Horner sum.  Uses
    :func:`convpow.qcoeff.log_expansion_q_list` (the full-recurrence
    family), which is the one consistent with the operator's derivative
    identity at every level; see the `qcoeff` module docstring.
    """
    if n < 0:
        raise ValueError(f"iterate index must be >= 0, got n={n}")
    qs = log_expansion_q_list(n, order)
    parts = []
    for j in range(n + 1):
        q = qs[n - j]
        sign = -1 if (n - j) % 2 else 1
        parts.append(q * Fraction(sign, math.factorial(j)))
    return LogSeries(parts)


def _eval_j(m: int, x, order: int, prec: int) -> EvalResult:
    """Evaluate J^m[1] at x, a number or the ``_Point`` the other iterates at
    that point share.  Exact shortcut for the x = 1, m = 1 case."""
    if m == 0:
        return EvalResult(mpmath.mpf(1), mpmath.mpf(0), True)
    at = _point(x)
    if m == 1 and at.x == 1:
        return EvalResult(mpmath.mpf(0), mpmath.mpf(0), True)
    if at.x <= 1:
        raise ValueError(f"J-iterates with m >= 1 need x > 1, got x={at.x}")
    return logseries_eval(build_j_iterate(m, order), at, prec)


@dataclass(frozen=True)
class BetaTable:
    """beta_0..beta_n as high-precision floats with tail estimates.

    ``tails[k]`` accumulates, linearly, the truncation-tail estimates of
    every series evaluation that entered beta_k; beta_0 and beta_1 are
    exact (1 and 0).
    """

    values: tuple[mpmath.mpf, ...]
    tails: tuple[mpmath.mpf, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> mpmath.mpf:
        return self.values[k]


@lru_cache(maxsize=None)
def beta_table(n_max: int, order: int = DEFAULT_ORDER, prec: int = DEFAULT_PREC) -> BetaTable:
    """Compute beta_0..beta_{n_max} by the triangular recurrence.

    Level n_max extends the cached table of level n_max - 1 by one row, so
    filling levels 1..n evaluates each J-iterate at each integer point once.
    """
    if n_max < 0:
        raise ValueError(f"beta index must be >= 0, got {n_max}")
    if n_max == 0:
        return BetaTable((mpmath.mpf(1),), (mpmath.mpf(0),))
    # positional, as make_f_evaluator passes them: lru_cache keys on the arguments as given
    lower = beta_table(n_max - 1, order, prec)
    at = _Point(Fraction(n_max))
    with mpmath.workprec(prec):
        acc = mpmath.mpf(0)
        acc_tail = mpmath.mpf(0)
        for k in range(n_max):
            r = _eval_j(n_max - k, at, order, prec)
            acc += lower.values[k] * r.value
            acc_tail += abs(lower.values[k]) * r.tail_estimate + lower.tails[k] * abs(r.value)
        value = -acc
    return BetaTable(lower.values + (value,), lower.tails + (acc_tail,))


@dataclass(frozen=True)
class FEvaluator:
    """Evaluator for one f_n: beta constants plus the J-iterates it combines."""

    n: int
    order: int
    prec: int
    betas: BetaTable

    def eval(self, y) -> EvalResult:
        """f_n(y) for y >= 0; f_0 is exactly 1 and f_n(0) = 0 by construction."""
        yf = _exact(y)
        if yf < 0:
            raise ValueError(f"f is only defined for y >= 0, got y={yf}")
        if self.n == 0:
            return EvalResult(mpmath.mpf(1), mpmath.mpf(0), True)
        at = _Point(yf + self.n)
        with mpmath.workprec(self.prec):
            value = mpmath.mpf(0)
            tail = mpmath.mpf(0)
            reliable = True
            for k in range(self.n + 1):
                r = _eval_j(self.n - k, at, self.order, self.prec)
                value += self.betas.values[k] * r.value
                tail += abs(self.betas.values[k]) * r.tail_estimate
                tail += self.betas.tails[k] * abs(r.value)
                reliable = reliable and r.tail_reliable
        return EvalResult(value, tail, reliable)


@lru_cache(maxsize=None)
def make_f_evaluator(n: int, order: int = DEFAULT_ORDER, prec: int = DEFAULT_PREC) -> FEvaluator:
    if n < 0:
        raise ValueError(f"f index must be >= 0, got n={n}")
    return FEvaluator(n, order, prec, beta_table(n, order, prec))


def f_eval(n: int, y, order: int = DEFAULT_ORDER, prec: int = DEFAULT_PREC) -> EvalResult:
    """Convenience wrapper: evaluate f_n(y) with cached tables."""
    return make_f_evaluator(n, order, prec).eval(y)


def derivative_residual(
    n: int,
    y,
    h,
    order: int = DEFAULT_ORDER,
    prec: int = DEFAULT_PREC,
) -> float:
    """|(y + n) * central-difference f_n'(y) - f_{n-1}(y)|.

    The defining differential identity is f_n'(y) = f_{n-1}(y) / (y + n);
    with exact arithmetic at the stencil points the residual is pure
    O(h^2) discretization error and should quarter when h is halved.
    """
    if n < 1:
        raise ValueError(f"the derivative identity needs n >= 1, got n={n}")
    yf = _exact(y)
    hf = _exact(h)
    if not 0 < hf < yf:
        raise ValueError(f"need 0 < h < y, got h={hf}, y={yf}")
    ev = make_f_evaluator(n, order, prec)
    ev_prev = make_f_evaluator(n - 1, order, prec)
    with mpmath.workprec(prec):
        fd = (ev.eval(yf + hf).value - ev.eval(yf - hf).value) / (2 * _to_mpf(hf))
        residual = abs((_to_mpf(yf) + n) * fd - ev_prev.eval(yf).value)
    return float(residual)


def reflection_residual(
    n: int,
    y: float,
    order: int = DEFAULT_ORDER,
    prec: int = DEFAULT_PREC,
    tol: float = 1e-10,
) -> float:
    """Residual of the reflection identity

        int_0^y f_n(s)/(y - s + 1) ds = (n + 1) * int_0^y f_n(s)/(s + n + 1) ds,

    with both sides computed by adaptive quadrature over the evaluated f_n.
    Both quadratures sample the same nodes, so f_n is evaluated once per
    node for the duration of the call.
    """
    if n < 0:
        raise ValueError(f"f index must be >= 0, got n={n}")
    if y < 0:
        raise ValueError(f"upper limit must be >= 0, got y={y}")
    ev = make_f_evaluator(n, order, prec)
    seen: dict[float, float] = {}

    def f_of(s: float) -> float:
        if s not in seen:
            seen[s] = float(ev.eval(s).value)
        return seen[s]

    lhs = adaptive_quad(lambda s: f_of(s) / (y - s + 1.0), 0.0, y, tol)
    rhs = adaptive_quad(lambda s: f_of(s) / (s + n + 1.0), 0.0, y, tol)
    return abs(lhs - (n + 1) * rhs)
