"""The log-free coefficient series Q_n and their computation paths.

Iterating J = H o S on the constant 1 produces, at each level n, a
polynomial in ln(x) whose coefficients involve a family of pure
1/x-series Q_n (Q_0 = 1, Q_1 = 0).  This module computes coefficient
series by three routes:

* ``q_via_recurrence`` (a verification path) pushes the short operator
  recurrence
      Q_{n+1} = -H[ li1_power(n) - backward_diff(Q_n) ]       (n >= 1)
  through the exact series layer.  Q_1 = 0 is initial data: the n = 0
  instance would hand H the constant li1_power(0) = 1, which
  ``harmonic_h`` rejects, since it would integrate to a ln(x).
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

The short recurrence is one forward loop that returns the whole ladder
Q_0..Q_{n_max} and keeps nothing.  The full family is a pipeline table
built from its generating function instead of the recurrence above.
With Ein(t) = sum_{m>=1} (-1)^(m+1) t^m / (m m!) (DLMF section 6.6) and
c(k, a) = ``stirling1_unsigned(k, a)``, (-1)^n q_{n,k} is the coefficient
of eps^n in eps (eps - 1) ... (eps - k + 1) [t^k] exp(eps Ein(t)), that is

    q_{n,k} = sum_{b=1}^{n-1} (-1)^(k+b) c(k, n-b) e_{b,k},
    e_{b,k} = [t^k] Ein(t)^b / b!.

The layers Ein^b / b! are cached per (b, order) (``_ein_power``), each the
one below it times Ein, over b: one Cauchy product per new level, where
the recurrence took n - 3 products, a nabla, an S and an H.  The
identity is verified, not proved: ``tests/test_qcoeff.py`` holds the
closed form to the literal recurrence (``_literal_ladder``) in den, ints
and abscissa through level 12 at orders 16 and 64, level 14 at orders 1,
2, 3 and 8 and level 50 at order 8, pins the coefficients frozen from the
recurrence at (level, order) = (12, 64), (30, 64) and (50, 8), and checks
the derivative identity itself (the chain-rule tests).

Each level's abscissa is n, the one the recurrence assigns: Q_n passes
through the n - 1 nested backward differences from Q_1 to Q_n, and each
re-expands 1/(x-1)^j, which moves the abscissa up by one.  The closed
form keeps that value, so every series, and every range check that reads
it, is as before.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .amatrix import compute_a_matrix
from .combinatorics import stirling1_unsigned
from .series import PowerSeriesInvX, backward_diff, harmonic_h, li1_power


def q_via_recurrence(n_max: int, order: int, /) -> tuple[PowerSeriesInvX, ...]:
    """Q_0..Q_{n_max} of the short family as truncated series, via the
    operator recurrence, one forward pass with nothing kept between calls.

    A verification path: together with ``q_closed_form`` it forms the
    mutually checking pair; the pipeline uses ``log_expansion_q_list``.
    """
    if n_max < 0:
        raise ValueError(f"q_via_recurrence requires n >= 0, got n={n_max}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    qs = [PowerSeriesInvX.constant(1, order), PowerSeriesInvX.zero(order)]  # Q_1 = 0 is initial data
    for k in range(1, n_max):
        qs.append(harmonic_h(backward_diff(qs[k]) - li1_power(k, order)))
    return tuple(qs[: n_max + 1])


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
    binomials = [math.comb(s, sigma) for sigma in range(s + 1)]
    total = sum(
        stirling1_unsigned(s - sigma, n - nu) * binomials[sigma] * rows[sigma][nu]
        for nu in range(n)
        for sigma in range(nu, nu + s - n + 1)  # sigma >= nu: on or below the diagonal
    )
    return Fraction(total, s * math.factorial(s))


@lru_cache(maxsize=None)
def log_expansion_q_list(n_max: int, order: int, /) -> tuple[PowerSeriesInvX, ...]:
    """Q_0..Q_{n_max} of the *log expansion*, the full-recurrence family.

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
    shared element by element.  Level n >= 1 is the closed form of the
    module docstring, sum_b (-1)^(k+b) c(k, n-b) e_{b,k}, in one integer
    pass over the common denominator of the layers Ein^b / b!, reduced
    once to lowest terms, which are unique; Q_1 = 0 is its empty sum.  Its
    abscissa is n, as the recurrence assigns it.
    """
    if n_max < 0:
        raise ValueError(f"log_expansion_q_list requires n_max >= 0, got {n_max}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if n_max == 0:
        return (PowerSeriesInvX.constant(1, order),)
    for k in range(n_max):  # bottom-up, so a cold call recurses one level at most
        qs = log_expansion_q_list(k, order)
    layers = [_ein_power(b, order) for b in range(1, n_max)]
    den = math.lcm(*(e.den for e in layers))
    terms = [(n_max - b, (-1) ** b * (den // e.den), e.ints) for b, e in enumerate(layers, 1)]
    ints = [(-1) ** k * sum(stirling1_unsigned(k, a) * w * e[k] for a, w, e in terms) for k in range(order + 1)]
    return qs + (PowerSeriesInvX._from_scaled(den, ints, Fraction(n_max)),)


@lru_cache(maxsize=None)
def _ein_power(b: int, order: int) -> PowerSeriesInvX:
    """Ein(t)^b / b! as a series in t, b >= 1: Ein itself, or the layer
    below times Ein over b, built once per (b, order) for every higher
    level to reuse."""
    if b == 1:
        return PowerSeriesInvX([0] + [Fraction((-1) ** (m + 1), m * math.factorial(m)) for m in range(1, order + 1)])
    return _ein_power(b - 1, order) * _ein_power(1, order) * Fraction(1, b)
