"""The log-free coefficient series Q_n and their computation paths.

Iterating J = H o S on the constant 1 produces, at each level n, a
polynomial in ln(x) whose coefficients involve a family of pure
1/x-series Q_n (Q_0 = 1, Q_1 = 0).  This module computes coefficient
series by three routes:

* ``q_via_recurrence`` (a verification path) pushes the short operator
  recurrence
      Q_{n+1} = -H[ li1_power(n) - backward_diff(Q_n) ]       (n >= 1)
  through the exact series layer.  Q_1 = 0 is initial data: the n = 0
  instance of the recurrence is excluded by construction, since it would
  produce a stray ln(x) (a nonzero constant term under H).
* ``q_closed_form`` (a verification path) evaluates each coefficient
  directly from a double sum over Stirling numbers, binomials and
  triangular-matrix entries.  It is the exact solution of the short
  recurrence: agreement of these two paths over a rectangle of (n, s) is
  one of the main correctness gates for the package.
* ``log_expansion_q_list`` generates the series that actually appear as
  ln-power coefficients of the iterated operator (see below); it is the
  family the evaluation pipeline uses.  These coincide with the other two
  paths up to level 3 and diverge from level 4 on.

Why two families?  Matching powers of ln(x) in the derivative identity
(J^{n+1}[1])'(x) = J^n[1](x-1)/x forces the full recurrence

    Q_{k+1} = -H[ sum_{j=0}^{k-1} S[Q_j] * li1_power(k-j)  -  nabla[Q_k] ],

whose j >= 1 cross terms the short recurrence drops.  Because Q_1 = 0,
the first surviving cross term is S[Q_2] * Li_1 inside Q_4, so the two
families agree exactly for n <= 3 and nothing smaller can expose the
difference.  The short pair is kept (it is internally consistent and
cross-validates exactly); the full family is what the decomposition
layer consumes, since only it satisfies the defining differential,
reflection and convolution identities from level 4 upward.  The
``log-expansion-consistency`` tests pin both facts down symbolically.

Both recurrences build one level at a time: level n is cached per
truncation order and computed from the cached level n - 1, so every
level is built once however many callers ask for it.  A level requests
the ones below it bottom-up, each of which then finds its own lower
levels cached, so no call recurses more than one level deep and deep
levels need no deep stack.  The full recurrence also builds each
S[Q_k] = Q_k - nabla[Q_k] (``shift_s``) once per (level, order) and
reuses it at every higher level.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .amatrix import compute_a_matrix
from .combinatorics import stirling1_unsigned
from .series import DEFAULT_ORDER, PowerSeriesInvX, backward_diff, harmonic_h, li1_power, shift_s


def _neg_h_pure(arg: PowerSeriesInvX) -> PowerSeriesInvX:
    """-H[arg] for a series with no constant term (so no ln appears).

    A nonzero constant term would integrate to a logarithm, which cannot
    be represented in the pure-series return type; that happening means
    the recurrence invariants were violated upstream.  The argument is
    negated before H, so the result is a series of its own, not the
    negative of another one that would have to stay alive with it.
    """
    if arg.ints[0]:
        raise ArithmeticError(
            f"nonzero constant term {arg.coeff(0)} would put a ln(x) into a pure series"
        )
    return harmonic_h(-arg).part(0)


@lru_cache(maxsize=None)
def q_via_recurrence(n: int, order: int = DEFAULT_ORDER) -> PowerSeriesInvX:
    """Q_n of the short family as a truncated series, via the operator
    recurrence on the cached Q_{n-1}.

    A verification path: together with ``q_closed_form`` it forms the
    mutually checking pair; the pipeline uses ``log_expansion_q_list``.
    """
    if n < 0:
        raise ValueError(f"q_via_recurrence requires n >= 0, got n={n}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if n == 0:
        return PowerSeriesInvX.constant(1, order)
    if n == 1:
        return PowerSeriesInvX.zero(order)  # initial data, see module docstring
    for k in range(1, n):  # bottom-up, so a cold call recurses one level at most
        prev = q_via_recurrence(k, order)
    return _neg_h_pure(li1_power(n - 1, order) - backward_diff(prev))


def q_closed_form(n_plus_1: int, s: int) -> Fraction:
    """Single coefficient q_{n+1, s} from the closed-form double sum.

    A verification path for ``q_via_recurrence``.  For s < n the value is
    0 (the series for Q_{n+1} starts at x^{-n}); otherwise

        q_{n+1,s} = (1/s) (1/s!) sum_{nu=0}^{n-1} sum_{sigma=nu}^{nu+s-n}
                    s1(s - sigma, n - nu) C(s, sigma) A^s_{sigma, nu}.

    The closed form covers levels n+1 >= 2; Q_0 and Q_1 are known data,
    not instances of this formula.
    """
    if n_plus_1 < 2:
        raise ValueError(f"closed form applies to levels >= 2, got {n_plus_1}")
    if s < 0:
        raise ValueError(f"coefficient index must be >= 0, got s={s}")
    n = n_plus_1 - 1
    if s < n:
        return Fraction(0)
    rows = compute_a_matrix(s)
    total = sum(
        stirling1_unsigned(s - sigma, n - nu) * math.comb(s, sigma) * rows[sigma][nu]
        for nu in range(n)
        for sigma in range(nu, nu + s - n + 1)  # sigma >= nu: on or below the diagonal
    )
    return Fraction(total, s * math.factorial(s))


@lru_cache(maxsize=None)
def log_expansion_q_list(n_max: int, order: int = DEFAULT_ORDER) -> tuple[PowerSeriesInvX, ...]:
    """Q_0..Q_{n_max} of the *log expansion*, via the full recurrence.

    This is the family satisfying the derivative identity of the iterated
    operator (see the module docstring): each level adds the shifted
    lower series against Li_1 powers before integrating,

        Q_{k+1} = -H[ sum_{j=0}^{k-1} S[Q_j] * li1_power(k-j) - nabla[Q_k] ].

    The j = 0 term is just li1_power(k) (S[1] = 1), which is the whole
    bracket of the short recurrence; the series therefore match
    ``q_via_recurrence`` exactly for levels <= 3.  From level 4 on the
    cross terms contribute and the leading coefficient moves down to
    x^{-2} (e.g. the level-4 series starts 1/2 * x^{-2} where the short
    family starts 5/9 * x^{-3}).

    Only level n_max is built here; the lower levels are the cached
    ``log_expansion_q_list(n_max - 1, order)``, requested bottom-up and
    shared element by element, and S[Q_j] comes from ``_shifted``.  The bracket is assembled as
    S[Q_k] - Q_k + sum_{j<k} S[Q_j] * li1_power(k-j), which is the one
    above since S[Q_k] - Q_k = -nabla[Q_k].
    """
    if n_max < 0:
        raise ValueError(f"log_expansion_q_list requires n_max >= 0, got {n_max}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if n_max == 0:
        return (PowerSeriesInvX.constant(1, order),)
    for k in range(n_max):  # bottom-up, so a cold call recurses one level at most
        qs = log_expansion_q_list(k, order)
    if n_max == 1:
        return qs + (PowerSeriesInvX.zero(order),)  # Q_1 = 0 is initial data
    k = n_max - 1
    bracket = _shifted(k, order) - qs[k]
    for j in range(k):
        bracket = bracket + _shifted(j, order) * li1_power(k - j, order)
    return qs + (_neg_h_pure(bracket),)


@lru_cache(maxsize=None)
def _shifted(k: int, order: int) -> PowerSeriesInvX:
    """S[Q_k] of the log expansion, built once per (level, order) for every
    higher level to reuse."""
    return shift_s(log_expansion_q_list(k, order)[k])
