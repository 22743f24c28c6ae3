"""Numerical-integration plumbing shared by the oracle modules.

Nothing in here knows about the exact series layer; these are the plain
numerical building blocks the cross-checks are built from, kept separate
so the oracles do not share code with what they validate.

scipy and numpy are imported inside the functions that use them, so the
series path never loads either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class QuadratureError(RuntimeError):
    """Raised when a quadrature fails to converge to the requested tolerance."""


#: Most subintervals the adaptive integrator may split [a, b] into.
_SUBINTERVAL_LIMIT = 200


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Gauss-Kronrod integral of f over [a, b].

    Empty or inverted intervals integrate to 0 (the recursive convolution
    integrals shrink their interval to nothing at the lower cutoff).
    Raises QuadratureError when the integrator reports trouble or its own
    error estimate is far above the tolerance.
    """
    if b <= a:
        return 0.0
    from scipy import integrate as _integrate

    result = _integrate.quad(f, a, b, epsabs=tol, epsrel=tol, limit=_SUBINTERVAL_LIMIT, full_output=1)
    value, abserr = result[0], result[1]
    if len(result) > 3:
        # full_output=1 appends an explanation string only on failure
        raise QuadratureError(
            f"integral on [{a}, {b}] did not converge: {result[3]} "
            f"(estimate {value!r}, abserr {abserr!r})"
        )
    if abserr > max(1e3 * tol, 1e3 * tol * abs(value)):
        raise QuadratureError(
            f"integral on [{a}, {b}]: error estimate {abserr:g} far above tolerance {tol:g}"
        )
    return value


def cumulative_simpson_uniform(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled values, Simpson-based.

    Even-index prefixes use composite Simpson; odd-index prefixes add the
    standard three-point half-panel correction, keeping O(h^4) accuracy at
    every node rather than only at even ones.  Needs at least 3 samples.
    """
    import numpy as np

    g = np.asarray(values, dtype=float)
    m = g.shape[0]
    if m < 3:
        raise ValueError(f"need at least 3 samples for Simpson, got {m}")
    out = np.zeros(m)
    pair = (h / 3.0) * (g[0:-2:2] + 4.0 * g[1:-1:2] + g[2::2])
    out[2::2] = np.cumsum(pair)
    out[1] = (h / 12.0) * (5.0 * g[0] + 8.0 * g[1] - g[2])
    if m > 3:
        odd = np.arange(3, m, 2)
        out[odd] = out[odd - 1] + (h / 12.0) * (-g[odd - 2] + 8.0 * g[odd - 1] + 5.0 * g[odd])
    return out
