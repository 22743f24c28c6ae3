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
3).  ``build_j_iterate(n)`` returns it as the tuple of its parts, part j
the series (-1)^{n-j} Q_{n-j} / j! that multiplies ln(x)^j.  The beta
constants are forced by f_n(0) = 0 for n >= 1, which triangularly determines

    beta_n = -sum_{k=0}^{n-1} beta_k * J^{n-k}[1](n),

starting from beta_0 = 1.  beta_1 = 0 falls out exactly since
J[1](1) = ln(1) = 0 (the only evaluation at x = 1 the recurrence ever
needs; everything else requires x > 1).  So the table of beta_0..beta_n
is all that f_n's evaluator holds: ``make_f_evaluator(n)`` returns it,
and ``BetaTable.eval`` sums the J-iterates at a point.  Both skip a term
whose beta_k and tail are exact zeros, so neither f_n nor beta_n
evaluates J^{n-1}.  No bit moves: the term adds exact zeros to sums
already rounded, and every series of J^{n-1} is one of J^n, evaluated
first.

How a point is evaluated.  Every part of every J-iterate is one of the
same few series: part j of J^m is the scalar multiple (-1)^i Q_i / j! of
Q_i, with i = m - j, and remembers that it is.  ``beta_table`` and
``BetaTable.eval`` evaluate J^0..J^n at one point x = p/q through one
``series._Point`` prepared at their precision: each non-constant Q_i runs
one exact integer Horner there, and every part's Horner sum is Q_i's,
multiplied and divided exactly by the integers of its scale.  The powers
of q's odd part, p^N, x^(-N), ln x and its powers and each tail model are
also computed once per point.  The float operations that follow are
those of evaluating each part and iterate on its own, in the same order,
so every value, tail estimate and reliability flag is what it was when
every part ran its own Horner, at n - 1 Horners per point instead of
n(n+3)/2.  With the parts that are exactly zero (part m - 1 of J^m is
-Q_1/(m-1)! = 0) and J^{n-1} left out, a point at level n >= 2 makes
n(n+1)/2 - (n-1) ``series_eval`` calls: 37 at n = 9.  They run on
``mpmath.libmp`` tuples at the evaluator's precision, rounding to nearest
as ``mpf`` arithmetic does, so the caller's ``mpmath.mp.prec`` changes no
bit; only the returned ``EvalResult`` and ``BetaTable`` hold ``mpf``.

Everything here is evaluated, not symbolic: beta values are mpmath floats
carrying accumulated truncation-tail estimates, and the residual helpers
(`derivative_residual`, `reflection_residual`) quantify how well the
evaluated f_n satisfy the defining integral/differential identities.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath.libmp import fone, fzero, mpf_abs, mpf_add, mpf_mul, mpf_neg, round_nearest

from .qcoeff import log_expansion_q_list
from .quadrature import adaptive_quad
from .series import (
    DEFAULT_ORDER,
    DEFAULT_PREC,
    EvalResult,
    PowerSeriesInvX,
    _exact,
    _make_mpf,
    _point,
    _Point,
    _to_mpf,
    logseries_eval,
)

#: Quadrature tolerance of both sides of the reflection identity.
_REFLECTION_TOL = 1e-10


@lru_cache(maxsize=None)
def build_j_iterate(n: int, order: int = DEFAULT_ORDER) -> tuple[PowerSeriesInvX, ...]:
    """Assemble J^n[1] from the log-expansion Q-series as the tuple of its
    ln-polynomial's parts: part j, the coefficient of ln(x)^j, is
    (-1)^{n-j} Q_{n-j} / j!.

    Each part is a scalar multiple of its Q-series, so the parts of all
    iterates evaluated at one point share that series' Horner sum.  Uses
    :func:`convpow.qcoeff.log_expansion_q_list` (the full-recurrence
    family), which is the one consistent with the operator's derivative
    identity at every level; see the `qcoeff` module docstring.
    """
    if n < 0:
        raise ValueError(f"iterate index must be >= 0, got n={n}")
    qs = log_expansion_q_list(n, order)
    return tuple(qs[n - j] * Fraction(-1 if (n - j) % 2 else 1, math.factorial(j)) for j in range(n + 1))


def _eval_j(m: int, x, order: int, prec: int) -> EvalResult:
    """Evaluate J^m[1] at x, a number or the ``_Point`` the other iterates at
    that point share.  J^1 also takes x = 1, where it is exactly ln 1 = 0."""
    if m == 0:
        return EvalResult(_make_mpf(fone), _make_mpf(fzero), True)
    at = _point(x, prec)
    if not at.above_one and not (m == 1 and at.x == 1):
        raise ValueError(f"J-iterates with m >= 1 need x > 1, got x={at.x}")
    return logseries_eval(build_j_iterate(m, order), at, prec)


class BetaTable:
    """beta_0..beta_n as high-precision floats with tail estimates, and the
    evaluator of f_n they define at the order and precision they were
    built with.

    ``tails[k]`` accumulates, linearly, the truncation-tail estimates of
    every series evaluation that entered beta_k; beta_0 and beta_1 are
    exact (1 and 0).
    """

    __slots__ = ("values", "tails", "order", "prec")

    def __init__(self, values: tuple[mpmath.mpf, ...], tails: tuple[mpmath.mpf, ...], order: int, prec: int):
        self.values = values
        self.tails = tails
        self.order = order
        self.prec = prec

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> mpmath.mpf:
        return self.values[k]

    def eval(self, y) -> EvalResult:
        """f_n(y) for y >= 0, n = len(self) - 1; f_n(0) = 0 for n >= 1 by construction."""
        yf = _exact(y)
        if yf < 0:
            raise ValueError(f"f is only defined for y >= 0, got y={yf}")
        n = len(self.values) - 1
        at = _Point(yf + n, self.prec)
        prec = self.prec
        value = tail = fzero
        reliable = True
        for k in range(n + 1):
            beta, beta_tail = self.values[k]._mpf_, self.tails[k]._mpf_
            if beta == fzero and beta_tail == fzero:
                continue  # beta_1 = 0: no bit moves (see the module docstring)
            r = _eval_j(n - k, at, self.order, prec)
            rv = r.value._mpf_
            value = mpf_add(value, mpf_mul(beta, rv, prec, round_nearest), prec, round_nearest)
            spread = mpf_mul(mpf_abs(beta, prec, round_nearest), r.tail_estimate._mpf_, prec, round_nearest)
            tail = mpf_add(tail, spread, prec, round_nearest)
            spread = mpf_mul(beta_tail, mpf_abs(rv, prec, round_nearest), prec, round_nearest)
            tail = mpf_add(tail, spread, prec, round_nearest)
            reliable = reliable and r.tail_reliable
        return EvalResult(_make_mpf(value), _make_mpf(tail), reliable)


@lru_cache(maxsize=None)
def beta_table(n_max: int, order: int = DEFAULT_ORDER, prec: int = DEFAULT_PREC) -> BetaTable:
    """Compute beta_0..beta_{n_max} by the triangular recurrence.

    Level n_max extends the cached table of level n_max - 1 by one row, so
    filling levels 1..n evaluates each J-iterate at each integer point once.
    The lower levels are requested bottom-up, so a cold call recurses one
    level at most.  Its tails sum as acc + (spread + beta spread), and
    ``BetaTable.eval``'s as (acc + spread) + beta spread: each keeps its bits.
    """
    if n_max < 0:
        raise ValueError(f"beta index must be >= 0, got {n_max}")
    if n_max == 0:
        return BetaTable((mpmath.mpf(1),), (mpmath.mpf(0),), order, prec)
    # positional, as make_f_evaluator passes them: lru_cache keys on the arguments as given
    for k in range(n_max):
        lower = beta_table(k, order, prec)
    at = _Point(Fraction(n_max), prec)
    acc = acc_tail = fzero
    for k in range(n_max):
        beta, beta_tail = lower.values[k]._mpf_, lower.tails[k]._mpf_
        if beta == fzero and beta_tail == fzero:
            continue  # beta_1 = 0: no bit moves (see the module docstring)
        r = _eval_j(n_max - k, at, order, prec)
        rv = r.value._mpf_
        acc = mpf_add(acc, mpf_mul(beta, rv, prec, round_nearest), prec, round_nearest)
        spread = mpf_mul(mpf_abs(beta, prec, round_nearest), r.tail_estimate._mpf_, prec, round_nearest)
        beta_spread = mpf_mul(beta_tail, mpf_abs(rv, prec, round_nearest), prec, round_nearest)
        acc_tail = mpf_add(acc_tail, mpf_add(spread, beta_spread, prec, round_nearest), prec, round_nearest)
    value = _make_mpf(mpf_neg(acc, prec, round_nearest))
    return BetaTable(lower.values + (value,), lower.tails + (_make_mpf(acc_tail),), order, prec)


def make_f_evaluator(n: int, order: int = DEFAULT_ORDER, prec: int = DEFAULT_PREC) -> BetaTable:
    """f_n's evaluator: its cached beta table, whose ``eval`` sums the J-iterates."""
    if n < 0:
        raise ValueError(f"f index must be >= 0, got n={n}")
    return beta_table(n, order, prec)


def f_eval(n: int, y, order: int = DEFAULT_ORDER, prec: int = DEFAULT_PREC) -> EvalResult:
    """Convenience wrapper: evaluate f_n(y) with cached tables."""
    return make_f_evaluator(n, order, prec).eval(y)


def derivative_residual(n: int, y, h) -> float:
    """|(y + n) * central-difference f_n'(y) - f_{n-1}(y)|, at the default
    order and precision.

    The defining differential identity is f_n'(y) = f_{n-1}(y) / (y + n);
    with exact arithmetic at the stencil points the residual is pure
    O(h^2) discretization error and should quarter when h is halved.
    """
    if n < 1:
        raise ValueError(f"the derivative identity needs n >= 1, got n={n}")
    yf = _exact(y)
    hf = _exact(h)
    if not 0 < hf < yf:
        raise ValueError(f"need 0 < h < y, got h={float(hf)}, y={float(yf)}")
    ev = make_f_evaluator(n, DEFAULT_ORDER, DEFAULT_PREC)
    ev_prev = make_f_evaluator(n - 1, DEFAULT_ORDER, DEFAULT_PREC)
    with mpmath.workprec(DEFAULT_PREC):
        fd = (ev.eval(yf + hf).value - ev.eval(yf - hf).value) / (2 * _make_mpf(_to_mpf(hf, DEFAULT_PREC)))
        residual = abs((_make_mpf(_to_mpf(yf, DEFAULT_PREC)) + n) * fd - ev_prev.eval(yf).value)
    return float(residual)


def reflection_residual(n: int, y: float) -> float:
    """Residual of the reflection identity

        int_0^y f_n(s)/(y - s + 1) ds = (n + 1) * int_0^y f_n(s)/(s + n + 1) ds,

    with both sides computed by adaptive quadrature, to ``_REFLECTION_TOL``,
    over f_n evaluated at the default order and precision.
    Both quadratures sample the same nodes, so f_n is evaluated once per
    node for the duration of the call.
    """
    if n < 0:
        raise ValueError(f"f index must be >= 0, got n={n}")
    if y < 0:
        raise ValueError(f"upper limit must be >= 0, got y={y}")
    ev = make_f_evaluator(n, DEFAULT_ORDER, DEFAULT_PREC)
    seen: dict[float, float] = {}

    def f_of(s: float) -> float:
        if s not in seen:
            seen[s] = float(ev.eval(s).value)
        return seen[s]

    lhs = adaptive_quad(lambda s: f_of(s) / (y - s + 1.0), 0.0, y, _REFLECTION_TOL)
    rhs = adaptive_quad(lambda s: f_of(s) / (s + n + 1.0), 0.0, y, _REFLECTION_TOL)
    return abs(lhs - (n + 1) * rhs)
