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
3).  ``build_j_iterate(n, order)`` is the tuple of its parts, part j the
series (-1)^{n-j} Q_{n-j} / j! of ln(x)^j; ``logseries_eval`` over it is
the iterate-by-iterate reference the tests hold f_n to.

The evaluator sums the iterates before it evaluates them:
G_n = sum_{k<n} beta_k * J^{n-k}[1] is one polynomial in ln(x) whose parts
are exact rational series, each beta_k entering as the dyadic rational its
float is.  Part j >= 1 is P_{n-j} / j!, with P_m = sum_{i=0}^{m} (-1)^i
beta_{m-i} Q_i, and part 0 is P_n without its term beta_n.  The beta
constants are forced by f_n(0) = 0 for n >= 1:

    f_n(y) = G_n(y + n) + beta_n,    so    beta_n = -G_n(n),

from beta_0 = 1.  ``BetaTable.eval`` is the one evaluation of G_n: beta_n
and its tail are read off f_n(0) of the level built with beta_n = 0, so
the condition is written once and f_n(0) = G_n(n) - G_n(n) is exactly 0.
beta_1 = 0 exactly, as G_1 = ln(x) vanishes at x = 1 (the one evaluation
at x = 1; everything else requires x > 1).  ``beta_table(n)``
forms G_n from G_{n-1}: part 0, sum_{i=2}^{n} (-1)^i beta_{n-i} Q_i
(Q_1 = 0), in one integer pass (``PowerSeriesInvX._combination``); part 1,
G_{n-1}'s part 0 with beta_{n-1} added to its constant; part j >= 2,
G_{n-1}'s part j - 1 over j.  Its table is f_n's evaluator
(``make_f_evaluator``).  A point at level n >= 2 makes one
``logseries_eval`` of G_n: one table of powers of 1/x, n - 1 fixed-point
dot products (parts 0..n-2 hold Q_2..Q_n; part n - 1, P_1 = beta_1 - Q_1,
is 0) and n ``series_eval`` calls, 9 at n = 9.  The floats are ``mpmath.libmp``
tuples at the evaluator's precision, rounded to nearest as ``mpf``
arithmetic does, so the caller's ``mpmath.mp.prec`` changes no bit.

Tails: each part of G_n carries its geometric tail model (see `series`),
and what the tails of beta_0..beta_{n-1} carry into f_n at x >= n is
bounded by sum_j |ln x|^j b_j, b_j = (1/j!) sum_{k<n} tail(beta_k)
|Q_{n-k-j}|(n), since |Q|(x), Q with absolute coefficients, falls as x
grows.  tail(beta_n) is the tail of f_n(0) with beta_n = 0, G_n's at
x = n with that term; f_n's adds tail(beta_n).

Everything here is evaluated, not symbolic: beta values are mpmath floats
carrying accumulated truncation-tail estimates, and the residual helpers
(`derivative_residual`, `reflection_residual`) quantify how well the
evaluated f_n satisfy the defining integral/differential identities.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce

import mpmath
from mpmath.libmp import fone, from_int, fzero, mpf_add, mpf_div, mpf_mul, mpf_neg, mpf_sum, round_nearest, to_rational

from .qcoeff import log_expansion_q_list
from .quadrature import TOL, QuadratureError, adaptive_quad
from .series import (
    DEFAULT_ORDER,
    DEFAULT_PREC,
    EvalResult,
    PowerSeriesInvX,
    _exact,
    _make_mpf,
    _Point,
    _to_mpf,
    logseries_eval,
)


def build_j_iterate(n: int, order: int, /) -> tuple[PowerSeriesInvX, ...]:
    """Assemble J^n[1] from the log-expansion Q-series as the tuple of its
    ln-polynomial's parts: part j, the coefficient of ln(x)^j, is
    (-1)^{n-j} Q_{n-j} / j!.

    Uses :func:`convpow.qcoeff.log_expansion_q_list` (the full-recurrence
    family), which is the one consistent with the operator's derivative
    identity at every level; see the `qcoeff` module docstring.  A
    reference path: each call forms its n + 1 scalar products afresh.
    """
    if n < 0:
        raise ValueError(f"iterate index must be >= 0, got n={n}")
    qs = log_expansion_q_list(n, order)
    return tuple(qs[n - j] * Fraction(-1 if (n - j) % 2 else 1, math.factorial(j)) for j in range(n + 1))


class BetaTable:
    """beta_0..beta_n as high-precision floats with tail estimates, and the
    evaluator of f_n they define at the precision they were built with.

    ``tails[k]`` accumulates, linearly, the truncation-tail estimates of
    every series evaluation that entered beta_k; beta_0 and beta_1 are
    exact (1 and 0).  The table also holds G_n as the tuple of its exact
    ln-parts and the weights b_j of the tail the beta_k carry into f_n
    (see the module docstring).
    """

    __slots__ = ("values", "tails", "prec", "_g", "_b")

    def __init__(self, values: tuple, tails: tuple, prec: int, g: tuple, b: tuple):
        self.values = values
        self.tails = tails
        self.prec = prec
        self._g = g
        self._b = b

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> mpmath.mpf:
        return self.values[k]

    def eval(self, y) -> EvalResult:
        """f_n(y) = G_n(y + n) + beta_n for y >= 0, n = len(self) - 1, its tail
        with sum_j |ln x|^j b_j; f_n(0) = 0 for n >= 1 by construction."""
        yf = _exact(y)
        if yf < 0:
            raise ValueError(f"y must be >= 0, got {y}")
        n, prec = len(self.values) - 1, self.prec
        at = _Point(yf + n, prec)
        r = logseries_eval(self._g, at, prec)
        tail = r.tail_estimate._mpf_
        for weight, bj in zip(at.ln_weights(len(self._b) - 1)[1], self._b):  # f_0, f_1: no b_j, no ln x (f_0's x may be 0)
            tail = mpf_add(tail, mpf_mul(weight, bj, prec, round_nearest), prec, round_nearest)
        value = mpf_add(r.value._mpf_, self.values[n]._mpf_, prec, round_nearest)
        tail = mpf_add(tail, self.tails[n]._mpf_, prec, round_nearest)
        return EvalResult(_make_mpf(value), _make_mpf(tail), r.tail_reliable)


def _abs_sum(q: PowerSeriesInvX, n: int, prec: int) -> tuple:
    """|Q|(n), the series with absolute coefficients at the integer n, as an ``_mpf_``."""
    num = reduce(lambda acc, c: acc * n + abs(c), q.ints, 0)  # Horner, exact
    return mpf_div(from_int(num), from_int(q.den * n**q.order), prec, round_nearest)


@lru_cache(maxsize=None)
def beta_table(n_max: int, order: int, prec: int, /) -> BetaTable:
    """Compute beta_0..beta_{n_max} by the triangular recurrence
    beta_n = -G_n(n).

    Level n_max extends the cached table of level n_max - 1 by one row: it
    forms G_{n_max} from G_{n_max - 1} and one new part 0 (see the module
    docstring), and reads beta_{n_max} off f_{n_max}(0) with beta_{n_max} = 0,
    G_{n_max} at x = n_max.  The lower levels are requested bottom-up, so a
    cold call recurses one level at most.  order < 8 or prec < 24 bits is
    refused: below that floor the series kernel's rounding is untested.
    """
    if order < 8 or prec < 24:
        raise ValueError(f"order must be >= 8 and prec >= 24 bits, got order={order}, prec={prec}")
    if n_max < 0:
        raise ValueError(f"n must be >= 0, got {n_max}")
    if n_max == 0:
        return BetaTable((mpmath.mpf(1),), (mpmath.mpf(0),), prec, (PowerSeriesInvX.zero(order),), ())
    for k in range(n_max):
        lower = beta_table(k, order, prec)
    n, qs, betas, tails = n_max, log_expansion_q_list(n_max, order), lower.values, lower.tails
    exact = [Fraction(*to_rational(beta._mpf_)) for beta in betas]
    # part 0: sum_{i=2}^{n} (-1)^i beta_{n-i} Q_i (Q_1 = 0); part 1: part 0 of G_{n-1}
    # plus beta_{n-1} Q_0 = beta_{n-1}, its constant alone changed over the common
    # denominator.  That part 0 has no constant term and beta's denominator is a power
    # of two, so the sum is in lowest terms as it stands
    leading = [(qs[i], exact[n - i] * (-1) ** i) for i in range(2, n + 1) if exact[n - i]]
    low, beta = lower._g[0], exact[n - 1]
    den = math.lcm(low.den, beta.denominator)
    ints = [c * (den // low.den) for c in low.ints]
    ints[0] += beta.numerator * (den // beta.denominator)
    g = (
        PowerSeriesInvX._combination(leading) if leading else PowerSeriesInvX.zero(order),
        PowerSeriesInvX._from_scaled(den, ints, low.conv_abscissa, 1),
    ) + tuple(part * Fraction(1, j) for j, part in enumerate(lower._g[1:], 2))
    # b_j = (1/j!) sum_{2 <= k < n} tail(beta_k) |Q_{n-k-j}|(n) for j <= n - 2, each product exact
    abs_q = [fone, fzero] + [_abs_sum(q, n, prec) for q in qs[2 : n - 1]]  # |Q_0| = 1, |Q_1| = 0
    sums = [mpf_sum([mpf_mul(tails[k]._mpf_, abs_q[n - k - j]) for k in range(2, min(n, n - j + 1))]) for j in range(n - 1)]
    b = tuple(mpf_div(acc, from_int(math.factorial(j)), prec, round_nearest) for j, acc in enumerate(sums))
    # with beta_n = 0 the level's f_n(0) is G_n(n) and its tail; beta_n makes f_n(0) = 0
    zero = mpmath.mpf(0)
    at_zero = BetaTable(betas + (zero,), tails + (zero,), prec, g, b).eval(0)
    return BetaTable(betas + (_make_mpf(mpf_neg(at_zero.value._mpf_)),), tails + (at_zero.tail_estimate,), prec, g, b)


def make_f_evaluator(n: int, order: int = DEFAULT_ORDER, prec: int = DEFAULT_PREC) -> BetaTable:
    """f_n's evaluator: its cached beta table, whose ``eval`` evaluates G_n."""
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

    with both sides computed by adaptive quadrature, to ``TOL``,
    over f_n evaluated at the default order and precision.
    Both quadratures sample the same nodes, so f_n is evaluated once per
    node for the duration of the call.  From y = 2^52 on, floats near y lie
    1 or more apart, so no node resolves the left kernel's width-1 peak at
    s = y: QuadratureError, before any evaluation.
    """
    if n < 0:
        raise ValueError(f"f index must be >= 0, got n={n}")
    if not 0 <= y < math.inf:
        raise ValueError(f"upper limit must be finite and >= 0, got y={y}")
    if math.ulp(y) >= 1.0:
        raise QuadratureError(
            f"float resolution near y={y} is {math.ulp(y):g}, too coarse for the width-1 peak of 1/(y - s + 1) at s = y"
        )
    ev = make_f_evaluator(n, DEFAULT_ORDER, DEFAULT_PREC)
    seen: dict[float, float] = {}

    def f_of(s: float) -> float:
        if s not in seen:
            seen[s] = float(ev.eval(s).value)
        return seen[s]

    lhs = adaptive_quad(lambda s: f_of(s) / (y - s + 1.0), 0.0, y, TOL)
    rhs = adaptive_quad(lambda s: f_of(s) / (s + n + 1.0), 0.0, y, TOL)
    return abs(lhs - (n + 1) * rhs)
