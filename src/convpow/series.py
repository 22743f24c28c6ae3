"""Truncated power series in 1/x over exact rationals, and the operator
calculus acting on them.

A :class:`PowerSeriesInvX` is sum_{k=0}^{N} a_k x^{-k} with Fraction
coefficients and a fixed truncation order N.  A :class:`LogSeries` is a
polynomial in ln(x) whose coefficients are such series; it is what the
harmonic integration operator H produces, since H picks up a ln(x) from
the constant term.

The operators implemented here:

* ``harmonic_h``       H[g](x) = integral of g(x)/x, constant pinned so
                       that the 1/x-part vanishes at infinity,
* ``backward_diff``    the difference g(x) - g(x-1) re-expanded in 1/x,
* ``shift_s``          the shift g(x) -> g(x-1) on log-degree <= 1,
* ``li1_power``        (1/n!) * Li_1(1/x)^n, whose 1/x-coefficients are
                       unsigned Stirling numbers over factorials; n = 1 is
                       Li_1(1/x) = ln(x) - ln(x-1), the backward difference
                       of ln(x) itself.

The Cauchy product is ``PowerSeriesInvX.__mul__``.

The Cauchy product, the backward difference and evaluation all run on a
series' integer coefficients over one common denominator (the layout of
FLINT's ``fmpq_poly``): the product and the difference reduce each output
coefficient to lowest terms once, and evaluation keeps partial sums as
exact integers (Horner) and converts to an mpmath float once, at the end.
Each evaluation carries a geometric-ratio tail estimate for the truncated
remainder, flagged unreliable when the last coefficient ratio does not
support a geometric model at the requested point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

import mpmath

from .combinatorics import stirling1_unsigned

#: Default truncation order (highest retained power of 1/x).
DEFAULT_ORDER = 64
#: Default evaluation precision, in bits of mantissa.
DEFAULT_PREC = 128

Rational = Union[int, Fraction]

# Stand-in ratio when the geometric model fails; keeps the tail estimate
# finite (and visibly large) rather than dividing by ~0.
_TAIL_RATIO_CAP = Fraction(255, 256)


def _exact(x) -> Fraction:
    """Coerce an int/float/Fraction evaluation point to an exact Fraction.

    A non-finite float has no exact value and raises ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"evaluation point must be finite, got {x}")
    if isinstance(x, (int, float)):
        return Fraction(x)
    raise TypeError(f"evaluation point must be int, float or Fraction, got {type(x).__name__}")


def _to_mpf(q: Fraction) -> mpmath.mpf:
    """Fraction -> mpf at the *current* mpmath working precision."""
    return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)


class PowerSeriesInvX:
    """Truncated series sum_{k=0}^{N} a_k x^{-k} with rational coefficients.

    Instances are treated as immutable.  ``conv_abscissa`` records the
    smallest evaluation point the series is trusted at (propagated by the
    operators: the backward difference shifts it up by one, products and
    sums take the max).  Equality compares coefficients only.
    """

    __slots__ = ("coeffs", "conv_abscissa", "_scaled")

    def __init__(self, coeffs: Iterable[Rational], conv_abscissa: Rational = 1):
        self.coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        self.conv_abscissa = Fraction(conv_abscissa)
        if self.conv_abscissa < 1:
            raise ValueError(f"conv_abscissa must be >= 1, got {self.conv_abscissa}")
        self._scaled = None  # lazy (common_denominator, scaled_int_coeffs)

    @classmethod
    def _from_scaled(cls, den: int, ints, conv_abscissa: Fraction) -> "PowerSeriesInvX":
        """The series with coefficients ints[k] / den, each reduced once.

        Dividing out the gcd of den and every ints[k] leaves the least
        common denominator, so the cached scaled form is the one
        ``_scaled_coeffs`` would compute.
        """
        g = math.gcd(den, *ints)
        if g > 1:
            den //= g
            ints = [c // g for c in ints]
        self = cls.__new__(cls)
        self.coeffs = tuple(Fraction(c, den) for c in ints)
        self.conv_abscissa = conv_abscissa
        self._scaled = (den, tuple(ints))
        return self

    @classmethod
    def zero(cls, order: int, conv_abscissa: Rational = 1) -> "PowerSeriesInvX":
        return cls([0] * (order + 1), conv_abscissa)

    @classmethod
    def constant(cls, value: Rational, order: int, conv_abscissa: Rational = 1) -> "PowerSeriesInvX":
        return cls([value] + [0] * order, conv_abscissa)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_constant(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k]

    def _require_same_order(self, other: "PowerSeriesInvX") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}; "
                "re-expand to a common order first"
            )

    def _scaled_coeffs(self) -> tuple[int, tuple[int, ...]]:
        """Common denominator D and integer coefficients D*a_k, cached."""
        if self._scaled is None:
            den = 1
            for c in self.coeffs:
                den = den * c.denominator // math.gcd(den, c.denominator)
            self._scaled = (den, tuple(c.numerator * (den // c.denominator) for c in self.coeffs))
        return self._scaled

    def __add__(self, other: "PowerSeriesInvX") -> "PowerSeriesInvX":
        if not isinstance(other, PowerSeriesInvX):
            return NotImplemented
        self._require_same_order(other)
        return PowerSeriesInvX(
            (a + b for a, b in zip(self.coeffs, other.coeffs)),
            max(self.conv_abscissa, other.conv_abscissa),
        )

    def __sub__(self, other: "PowerSeriesInvX") -> "PowerSeriesInvX":
        if not isinstance(other, PowerSeriesInvX):
            return NotImplemented
        self._require_same_order(other)
        return PowerSeriesInvX(
            (a - b for a, b in zip(self.coeffs, other.coeffs)),
            max(self.conv_abscissa, other.conv_abscissa),
        )

    def __neg__(self) -> "PowerSeriesInvX":
        return PowerSeriesInvX((-c for c in self.coeffs), self.conv_abscissa)

    def __mul__(self, other) -> "PowerSeriesInvX":
        if isinstance(other, PowerSeriesInvX):
            self._require_same_order(other)
            da, a = self._scaled_coeffs()
            db, b = other._scaled_coeffs()
            rb = b[::-1]
            n = self.order
            prod = [sum(map(operator.mul, a[: k + 1], rb[n - k :])) for k in range(n + 1)]
            return PowerSeriesInvX._from_scaled(da * db, prod, max(self.conv_abscissa, other.conv_abscissa))
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return PowerSeriesInvX((c * a for a in self.coeffs), self.conv_abscissa)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeriesInvX):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None  # mutable-looking cache slot; not meant for dict keys

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"PowerSeriesInvX([{head}{tail}], order={self.order}, abscissa={self.conv_abscissa})"


class LogSeries:
    """Polynomial in ln(x) with PowerSeriesInvX coefficients.

    ``parts[j]`` multiplies ln(x)**j.  All parts share one truncation
    order.  Equality compares the parts tuples.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[PowerSeriesInvX]):
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("a LogSeries needs at least the ln-degree-0 part")
        if len({p.order for p in self.parts}) != 1:
            raise ValueError("all parts of a LogSeries must share one truncation order")

    @property
    def degree(self) -> int:
        return len(self.parts) - 1

    @property
    def order(self) -> int:
        return self.parts[0].order

    def part(self, j: int) -> PowerSeriesInvX:
        return self.parts[j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogSeries):
            return NotImplemented
        return self.parts == other.parts

    __hash__ = None

    def __repr__(self) -> str:
        return f"LogSeries(degree={self.degree}, order={self.order})"


@dataclass(frozen=True)
class EvalResult:
    """A float evaluation plus a heuristic bound on the truncation tail.

    The tail model is geometric: the dropped terms are assumed to decay
    at least as fast as the last retained coefficient ratio suggests.
    ``tail_reliable`` is False when that ratio does not decay at the
    evaluation point, in which case ``tail_estimate`` is a floor, not a
    bound.
    """

    value: mpmath.mpf
    tail_estimate: mpmath.mpf
    tail_reliable: bool = True

    def __float__(self) -> float:
        return float(self.value)


def harmonic_h(g: PowerSeriesInvX) -> LogSeries:
    """Antiderivative of g(x)/x, re-expanded around infinity.

    The constant term of g integrates to a_0 * ln(x); every other term
    integrates to -(a_k/k) x^{-k}, with the integration constant pinned
    so the 1/x-part vanishes at infinity.
    """
    n = g.order
    pure = [Fraction(0)]
    pure.extend(-g.coeffs[k] / k for k in range(1, n + 1))
    return LogSeries([
        PowerSeriesInvX(pure, g.conv_abscissa),
        PowerSeriesInvX.constant(g.coeffs[0], n, g.conv_abscissa),
    ])


def backward_diff(g: PowerSeriesInvX) -> PowerSeriesInvX:
    """g(x) - g(x-1), re-expanded as a series in 1/x.

    Constants are annihilated and the x^{-1} coefficient is always 0; the
    coefficient at x^{-k} for k >= 2 is -sum_{r=1}^{k-1} C(k-1, r) a_{k-r},
    i.e. -sum_{i=1}^{k-1} C(k-1, i-1) a_i, summed on the scaled integers
    against one Pascal row per k.
    The expansion of 1/(x-1)^j around infinity converges only for x > 1
    over what g needed, hence the abscissa shift.
    """
    den, a = g._scaled_coeffs()
    n = g.order
    out = [0] * (n + 1)
    row = [1]  # C(k-1, 0..k-1)
    for k in range(2, n + 1):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        out[k] = -sum(map(operator.mul, row, a[1:k]))
    return PowerSeriesInvX._from_scaled(den, out, g.conv_abscissa + 1)


@lru_cache(maxsize=None)
def li1_power(n: int, order: int = DEFAULT_ORDER) -> PowerSeriesInvX:
    """(1/n!) * Li_1(1/x)^n, exactly: the x^{-k} coefficient is s(k, n)/k!.

    s(k, n) is the unsigned Stirling number of the first kind; the n = 0
    case is the constant series 1 and the n = 1 case is Li_1 itself.
    Cached per (n, order): the log expansion multiplies by the same powers
    at every level.
    """
    if n < 0:
        raise ValueError(f"li1_power requires n >= 0, got n={n}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    coeffs = []
    kfact = 1
    for k in range(order + 1):
        if k:
            kfact *= k
        coeffs.append(Fraction(stirling1_unsigned(k, n), kfact))
    return PowerSeriesInvX(coeffs, 1)


def shift_s(g):
    """The shift g(x) -> g(x-1), i.e. identity minus backward difference.

    Accepts a plain series or a LogSeries of degree <= 1.  On degree 1
    the shifted logarithm contributes ln(x-1) = ln(x) - Li_1(1/x), which
    folds into the pure part; higher degrees would need powers of Li_1
    mixed across parts and are not supported here.
    """
    if isinstance(g, PowerSeriesInvX):
        return g - backward_diff(g)
    if not isinstance(g, LogSeries):
        raise TypeError(f"shift_s expects PowerSeriesInvX or LogSeries, got {type(g).__name__}")
    if g.degree == 0:
        return LogSeries([shift_s(g.parts[0])])
    if g.degree > 1:
        raise ValueError(f"shift_s supports log-degree <= 1, got degree {g.degree}")
    s0, s1 = (shift_s(p) for p in g.parts)
    return LogSeries([s0 - s1 * li1_power(1, g.order), s1])


def series_eval(g: PowerSeriesInvX, x, prec: int = DEFAULT_PREC) -> EvalResult:
    """Evaluate g at x >= conv_abscissa.

    The partial sum is accumulated exactly: with D the common denominator
    of the coefficients and x = p/q in lowest terms, Horner's rule runs on
    integers and the single division happens at float precision ``prec``.
    Constant series evaluate anywhere (the point is not even range-checked,
    matching the convention that degree-0 data has no singularity).
    """
    xf = _exact(x)
    if g.is_constant:
        with mpmath.workprec(prec):
            return EvalResult(_to_mpf(g.coeffs[0]), mpmath.mpf(0), True)
    if xf < g.conv_abscissa:
        raise ValueError(
            f"evaluation point {xf} is below the convergence abscissa {g.conv_abscissa}"
        )
    den, ints = g._scaled_coeffs()
    p, q = xf.numerator, xf.denominator
    n = g.order
    ppow = [1] * (n + 1)
    for i in range(1, n + 1):
        ppow[i] = ppow[i - 1] * p
    acc = ints[n]
    for k in range(n - 1, -1, -1):
        acc = acc * q + ints[k] * ppow[n - k]
    a_last = g.coeffs[n]
    a_prev = g.coeffs[n - 1]
    with mpmath.workprec(prec):
        value = mpmath.mpf(acc) / (mpmath.mpf(den) * mpmath.mpf(ppow[n]))
        if a_last == 0:
            tail = mpmath.mpf(0)
            reliable = True
        else:
            ratio = abs(a_last / a_prev) if a_prev else Fraction(1)
            rho = max(ratio, Fraction(1)) / xf
            reliable = rho < 1
            rho = min(rho, _TAIL_RATIO_CAP)
            tail = _to_mpf(abs(a_last)) * _to_mpf(xf) ** (-n) / _to_mpf(1 - rho)
    return EvalResult(value, tail, reliable)


def logseries_eval(g: LogSeries, x, prec: int = DEFAULT_PREC) -> EvalResult:
    """Evaluate a LogSeries; tails of the parts combine with |ln x|^j weights."""
    xf = _exact(x)
    if g.degree >= 1 and xf <= 0:
        raise ValueError(f"ln(x) requires x > 0, got {xf}")
    with mpmath.workprec(prec):
        value = mpmath.mpf(0)
        tail = mpmath.mpf(0)
        reliable = True
        lnx = mpmath.log(_to_mpf(xf)) if g.degree >= 1 else mpmath.mpf(0)
        weight = mpmath.mpf(1)
        for part in g.parts:
            r = series_eval(part, xf, prec)
            value += r.value * weight
            tail += r.tail_estimate * abs(weight)
            reliable = reliable and r.tail_reliable
            weight *= lnx
    return EvalResult(value, tail, reliable)
