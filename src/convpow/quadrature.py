"""Numerical-integration plumbing shared by the oracle modules.

Nothing in here knows about the exact series layer; these are the plain
numerical building blocks the cross-checks are built from, kept separate
so the oracles do not share code with what they validate.

``adaptive_quad`` is QUADPACK's 21-point Gauss-Kronrod rule ``qk21`` with
global adaptive bisection (Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, *QUADPACK*, Springer 1983), in plain Python; the tests hold it
against scipy's QUADPACK.  ``cumulative_simpson_uniform`` is plain Python
too, so the module needs nothing beyond the standard library.
"""

from __future__ import annotations

import heapq
import math
import sys
from itertools import accumulate
from typing import Sequence


class QuadratureError(RuntimeError):
    """Raised when a quadrature fails to converge to the requested tolerance."""


#: Most subintervals the adaptive integrator may split [a, b] into.
_SUBINTERVAL_LIMIT = 200

# qk21's nodes on [-1, 1] (x > 0 half, outermost first): the odd-indexed
# ones are the 10-point Gauss nodes, the rest the Kronrod extension; the
# centre node is last.  Weights as in QUADPACK's qk21.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077600525478926,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
)
_WGK_CENTRE = 0.149445554002916905664936468389821
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min


def _qk21(f, a: float, b: float) -> tuple[float, float]:
    """QUADPACK's qk21 on [a, b]: the 21-point Kronrod value and its error
    estimate, scaled from the Gauss-Kronrod difference as QUADPACK does."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(centre)
    resk = _WGK_CENTRE * fc
    resg = 0.0
    resabs = abs(resk)
    pairs = []
    for j, x in enumerate(_XGK):
        absc = half * x
        f1 = f(centre - absc)
        f2 = f(centre + absc)
        pairs.append((f1, f2))
        w = _WGK[j]
        resk += w * (f1 + f2)
        resabs += w * (abs(f1) + abs(f2))
        if j % 2:
            resg += _WG[j // 2] * (f1 + f2)
    reskh = 0.5 * resk
    resasc = _WGK_CENTRE * abs(fc - reskh)
    for w, (f1, f2) in zip(_WGK, pairs):
        resasc += w * (abs(f1 - reskh) + abs(f2 - reskh))
    dhalf = abs(half)
    resabs *= dhalf
    resasc *= dhalf
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        err = max(50.0 * _EPMACH * resabs, err)
    return resk * half, err


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Gauss-Kronrod 10/21 integral of f over [a, b].

    Applies ``_qk21`` to [a, b], then bisects the piece with the largest
    error estimate until the summed estimate is at most
    max(tol, tol * |integral|).  Raises QuadratureError when that needs
    more than ``_SUBINTERVAL_LIMIT`` pieces.  Empty or inverted intervals
    integrate to 0 (the recursive convolution integrals shrink their
    interval to nothing at the lower cutoff).
    """
    if b <= a:
        return 0.0
    value, err = _qk21(f, a, b)
    heap = [(-err, a, b, value)]
    total, errsum = value, err
    # not <=, so that a NaN estimate never passes for convergence
    while not errsum <= max(tol, tol * abs(total)):
        if len(heap) >= _SUBINTERVAL_LIMIT:
            raise QuadratureError(
                f"integral on [{a}, {b}] did not converge in {_SUBINTERVAL_LIMIT} subintervals "
                f"(estimate {total!r}, error estimate {errsum:g}, tolerance {tol:g})"
            )
        neg_err, lo, hi, piece = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        left, left_err = _qk21(f, lo, mid)
        right, right_err = _qk21(f, mid, hi)
        heapq.heappush(heap, (-left_err, lo, mid, left))
        heapq.heappush(heap, (-right_err, mid, hi, right))
        total += left + right - piece
        errsum += left_err + right_err + neg_err
    return math.fsum(piece[3] for piece in heap)


def cumulative_simpson_uniform(values: Sequence[float], h: float) -> list[float]:
    """Cumulative integral of uniformly sampled values, Simpson-based.

    Even-index prefixes use composite Simpson; odd-index prefixes add the
    standard three-point half-panel correction, keeping O(h^4) accuracy at
    every node rather than only at even ones.  Needs at least 3 samples.
    """
    g = list(map(float, values))
    m = len(g)
    if m < 3:
        raise ValueError(f"need at least 3 samples for Simpson, got {m}")
    h3 = float(h) / 3.0
    h12 = float(h) / 12.0
    out = [0.0] * m
    out[2::2] = accumulate([h3 * (a + 4.0 * b + c) for a, b, c in zip(g[0:-2:2], g[1:-1:2], g[2::2])])
    out[1] = h12 * (5.0 * g[0] + 8.0 * g[1] - g[2])
    out[3::2] = [e + h12 * (-a + 8.0 * b + 5.0 * c) for e, a, b, c in zip(out[2::2], g[1::2], g[2::2], g[3::2])]
    return out
