"""Truncated power series in 1/x over exact rationals, and the operator
calculus acting on them.

A :class:`PowerSeriesInvX` is sum_{k=0}^{N} a_k x^{-k} with rational
coefficients and a fixed truncation order N, stored once, as integers over
one common denominator (the layout of FLINT's ``fmpq_poly``).  A
:class:`LogSeries` is a polynomial in ln(x) whose coefficients are such
series; it is what the harmonic integration operator H produces, since H
picks up a ln(x) from the constant term.

The operators implemented here:

* ``harmonic_h``       H[g](x) = integral of g(x)/x, constant pinned so
                       that the 1/x-part vanishes at infinity,
* ``backward_diff``    the difference g(x) - g(x-1) re-expanded in 1/x,
* ``shift_s``          the shift g(x) -> g(x-1),
* ``li1_power``        (1/n!) * Li_1(1/x)^n, whose 1/x-coefficients are
                       unsigned Stirling numbers over factorials; n = 1 is
                       Li_1(1/x) = ln(x) - ln(x-1), the backward difference
                       of ln(x) itself.

The Cauchy product is ``PowerSeriesInvX.__mul__``.

Every operator and evaluation runs on those integers: each operator
reduces its output to lowest terms once, and evaluation keeps partial sums
as exact integers (Horner) and converts to an mpmath float once, at the
end.  Fractions are built only when a caller asks for ``coeffs``.  Each
evaluation carries a geometric-ratio tail estimate for the truncated
remainder, flagged unreliable when the last coefficient ratio does not
support a geometric model at the requested point.

``series_eval`` and ``logseries_eval`` take a number or a prepared point
(``_Point``) that several evaluations share.  A series made by negation or
a scalar product remembers the series it multiplies (its root), and at a
shared point all multiples of one root cost one exact Horner (``_horner``):
a multiple's sum is the root's times an exact integer ratio, so the float
that follows is the one its own Horner would give.  The f_n evaluator in
`fdecomp` evaluates all J-iterates at a point this way, since every part of
every iterate is a multiple of one Q-series.
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

    The one stored form is a_k = ints[k] / den in lowest terms, so den is
    the least common denominator of the a_k.  That form is unique, so
    equality compares den and ints; ``coeffs`` builds the Fractions on
    request.  Instances are treated as immutable.  ``conv_abscissa``
    records the smallest evaluation point the series is trusted at
    (propagated by the operators: the backward difference shifts it up by
    one, products and sums take the max); equality ignores it.
    """

    __slots__ = ("den", "ints", "conv_abscissa", "_multiple", "_floats")

    def __init__(self, coeffs: Iterable[Rational], conv_abscissa: Rational = 1):
        fracs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if not fracs:
            raise ValueError("a series needs at least its constant coefficient")
        self.conv_abscissa = Fraction(conv_abscissa)
        if self.conv_abscissa < 1:
            raise ValueError(f"conv_abscissa must be >= 1, got {self.conv_abscissa}")
        self.den = math.lcm(*(c.denominator for c in fracs))
        self.ints = tuple(c.numerator * (self.den // c.denominator) for c in fracs)
        self._multiple = None  # (root, num, div): ints are root's * num / div
        self._floats = None  # lazy {prec: what evaluation needs at prec}

    @classmethod
    def _from_scaled(cls, den: int, ints, conv_abscissa: Fraction, multiple=None) -> "PowerSeriesInvX":
        """The series with coefficients ints[k] / den, brought to lowest
        terms by dividing out the gcd of den and every ints[k].

        ``multiple`` = (root, num, div) says that ints are root's integers
        times num / div.
        """
        g = math.gcd(den, *ints)
        self = cls.__new__(cls)
        self.den = den // g
        self.ints = tuple(c // g for c in ints) if g > 1 else tuple(ints)
        self.conv_abscissa = conv_abscissa
        self._multiple = None if multiple is None else (multiple[0], multiple[1], multiple[2] * g)
        self._floats = None
        return self

    @classmethod
    def zero(cls, order: int, conv_abscissa: Rational = 1) -> "PowerSeriesInvX":
        return cls([0] * (order + 1), conv_abscissa)

    @classmethod
    def constant(cls, value: Rational, order: int, conv_abscissa: Rational = 1) -> "PowerSeriesInvX":
        return cls([value] + [0] * order, conv_abscissa)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients a_0..a_N as Fractions, built on each call."""
        return tuple(Fraction(c, self.den) for c in self.ints)

    def coeff(self, k: int) -> Fraction:
        """The one coefficient a_k as a Fraction."""
        return Fraction(self.ints[k], self.den)

    @property
    def order(self) -> int:
        return len(self.ints) - 1

    @property
    def is_constant(self) -> bool:
        return not any(self.ints[1:])

    def _require_same_order(self, other: "PowerSeriesInvX") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}; "
                "re-expand to a common order first"
            )

    def _eval_floats(self, prec: int):
        """(value of a constant series or None, mpf(den), mpf(|a_N|), tail
        ratio) at precision prec: what evaluation needs besides the integers
        and the point, cached per precision.

        The tail ratio is |a_N / a_{N-1}| of the geometric tail model (1
        when a_{N-1} = 0), or None when a_N = 0 and the model puts no tail
        at all.
        """
        if self._floats is None:
            self._floats = {}
        got = self._floats.get(prec)
        if got is None:
            with mpmath.workprec(prec):
                if self.is_constant:
                    got = (_to_mpf(self.coeff(0)), None, None, None)
                else:
                    last, prev = abs(self.ints[-1]), abs(self.ints[-2])
                    ratio = None if not last else Fraction(last, prev) if prev else Fraction(1)
                    got = (None, mpmath.mpf(self.den), _to_mpf(Fraction(last, self.den)), ratio)
            self._floats[prec] = got
        return got

    def _combine(self, other: "PowerSeriesInvX", sign: int) -> "PowerSeriesInvX":
        """self + sign * other, over the lcm of both denominators."""
        if not isinstance(other, PowerSeriesInvX):
            return NotImplemented
        self._require_same_order(other)
        den = math.lcm(self.den, other.den)
        ua, ub = den // self.den, sign * (den // other.den)
        return PowerSeriesInvX._from_scaled(
            den, [x * ua + y * ub for x, y in zip(self.ints, other.ints)], max(self.conv_abscissa, other.conv_abscissa)
        )

    def __add__(self, other: "PowerSeriesInvX") -> "PowerSeriesInvX":
        return self._combine(other, 1)

    def __sub__(self, other: "PowerSeriesInvX") -> "PowerSeriesInvX":
        return self._combine(other, -1)

    def __neg__(self) -> "PowerSeriesInvX":
        return self * -1

    def __mul__(self, other) -> "PowerSeriesInvX":
        if isinstance(other, PowerSeriesInvX):
            self._require_same_order(other)
            a, rb = self.ints, other.ints[::-1]
            n = self.order
            prod = [sum(map(operator.mul, a[: k + 1], rb[n - k :])) for k in range(n + 1)]
            abscissa = max(self.conv_abscissa, other.conv_abscissa)
            return PowerSeriesInvX._from_scaled(self.den * other.den, prod, abscissa)
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            root, root_num, div = self._multiple or (self, 1, 1)
            ints = [x * num for x in self.ints]
            return PowerSeriesInvX._from_scaled(
                self.den * other.denominator, ints, self.conv_abscissa, (root, root_num * num, div)
            )
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeriesInvX):
            return NotImplemented
        return self.den == other.den and self.ints == other.ints

    __hash__ = None  # mutable-looking cache slot; not meant for dict keys

    def __repr__(self) -> str:
        head = ", ".join(str(Fraction(c, self.den)) for c in self.ints[:4])
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
    so the 1/x-part vanishes at infinity.  On the integers, with
    L = lcm(1..N), -a_k/k is -ints[k] * (L/k) over den * L.
    """
    n = g.order
    lcm = math.lcm(*range(1, n + 1))
    pure = [0] + [-g.ints[k] * (lcm // k) for k in range(1, n + 1)]
    return LogSeries([
        PowerSeriesInvX._from_scaled(g.den * lcm, pure, g.conv_abscissa),
        PowerSeriesInvX._from_scaled(g.den, [g.ints[0]] + [0] * n, g.conv_abscissa),
    ])


def backward_diff(g: PowerSeriesInvX) -> PowerSeriesInvX:
    """g(x) - g(x-1), re-expanded as a series in 1/x.

    Constants are annihilated and the x^{-1} coefficient is always 0; the
    coefficient at x^{-k} for k >= 2 is -sum_{r=1}^{k-1} C(k-1, r) a_{k-r},
    i.e. -sum_{i=1}^{k-1} C(k-1, i-1) a_i, summed on the integers
    against one Pascal row per k.
    The expansion of 1/(x-1)^j around infinity converges only for x > 1
    over what g needed, hence the abscissa shift.
    """
    a = g.ints
    n = g.order
    out = [0] * (n + 1)
    row = [1]  # C(k-1, 0..k-1)
    for k in range(2, n + 1):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        out[k] = -sum(map(operator.mul, row, a[1:k]))
    return PowerSeriesInvX._from_scaled(g.den, out, g.conv_abscissa + 1)


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
    top = math.factorial(order)
    ints = [stirling1_unsigned(k, n) * (top // math.factorial(k)) for k in range(order + 1)]
    return PowerSeriesInvX._from_scaled(top, ints, Fraction(1))


def shift_s(g: PowerSeriesInvX) -> PowerSeriesInvX:
    """The shift g(x) -> g(x-1), i.e. identity minus backward difference."""
    if not isinstance(g, PowerSeriesInvX):
        raise TypeError(f"shift_s expects PowerSeriesInvX, got {type(g).__name__}")
    return g - backward_diff(g)


def _int_powers(p: int, n: int) -> list[int]:
    """p^0, p^1, ..., p^n."""
    powers = [1] * (n + 1)
    for k in range(1, n + 1):
        powers[k] = powers[k - 1] * p
    return powers


def _horner(ints, q: int, ppow) -> int:
    """Exact Horner sum of ints[k] * p^(N-k) * q^k, k = 0..N, from ppow = p^0..p^N.

    With ints = den * a_k of a series and x = p/q, the series' partial sum
    at x is this integer over den * p^N.
    """
    n = len(ints) - 1
    acc = ints[n]
    for k in range(n - 1, -1, -1):
        acc = acc * q + ints[k] * ppow[n - k]
    return acc


class _Point:
    """An evaluation point x = p/q, prepared once for every series evaluated
    at it.

    It keeps the powers of p and, per precision, p^N, x^(-N) and the powers
    of ln x.  It also keeps each series' exact Horner sum and tail model
    under the series it is a scalar multiple of (its root), so all scalar
    multiples of one series cost one Horner: a multiple's sum is the root's
    times num / div, exactly, and its tail ratio is the root's.  A point
    lives for one evaluation; nothing is kept beyond it.
    """

    __slots__ = ("x", "_powers", "_floats", "_weights", "_sums", "_terms")

    def __init__(self, xf: Fraction):
        self.x = xf
        self._powers = {}  # N -> p^0..p^N
        self._floats = {}  # (N, prec) -> (mpf(p^N), x^(-N))
        self._weights = {}  # prec -> ([ln(x)^j], [|ln(x)|^j], ln(x))
        self._sums = {}  # id(root) -> (root, exact Horner sum)
        self._terms = {}  # (id(root), num, div, prec) -> terms(), shared by equal scales

    def powers(self, n: int) -> list[int]:
        ppow = self._powers.get(n)
        if ppow is None:
            ppow = self._powers[n] = _int_powers(self.x.numerator, n)
        return ppow

    def floats(self, n: int, prec: int):
        got = self._floats.get((n, prec))
        if got is None:
            with mpmath.workprec(prec):
                got = self._floats[n, prec] = (mpmath.mpf(self.powers(n)[n]), _to_mpf(self.x) ** (-n))
        return got

    def ln_weights(self, degree: int, prec: int):
        """ln(x)^0..ln(x)^degree by repeated products, and their absolute values."""
        got = self._weights.get(prec)
        if got is None:
            with mpmath.workprec(prec):
                got = self._weights[prec] = ([mpmath.mpf(1)], [mpmath.mpf(1)], mpmath.log(_to_mpf(self.x)))
        weights, abs_weights, lnx = got
        if len(weights) <= degree:
            with mpmath.workprec(prec):
                while len(weights) <= degree:
                    weights.append(weights[-1] * lnx)
                    abs_weights.append(abs(weights[-1]))
        return weights, abs_weights

    def terms(self, g: PowerSeriesInvX, ratio: Fraction | None, prec: int):
        """(mpf of g's exact Horner sum, reliable, 1 - rho) at precision prec.

        The root is range-checked against its convergence abscissa, which
        its scalar multiples share.  The tail model: rho = max(ratio, 1) / x
        decays when rho < 1 (the reliability flag), and rho is capped below
        1 before 1 - rho is converted; the tail estimate is then
        |a_N| * x^(-N) / (1 - rho).  With no ratio (a_N = 0) there is no
        tail, and 1 - rho is None.
        """
        root, num, div = g._multiple or (g, 1, 1)
        key = (id(root), num, div, prec)
        got = self._terms.get(key)
        if got is None:
            summed = self._sums.get(id(root))
            if summed is None:
                if self.x < root.conv_abscissa:
                    raise ValueError(
                        f"evaluation point {self.x} is below the convergence abscissa {root.conv_abscissa}"
                    )
                summed = self._sums[id(root)] = (root, _horner(root.ints, self.x.denominator, self.powers(root.order)))
            reliable, one_minus_rho = True, None
            if ratio is not None:
                rho = max(ratio, Fraction(1)) / self.x
                reliable = rho < 1
                rho = min(rho, _TAIL_RATIO_CAP)
            with mpmath.workprec(prec):
                if ratio is not None:
                    one_minus_rho = _to_mpf(1 - rho)
                got = self._terms[key] = (mpmath.mpf(summed[1] * num // div), reliable, one_minus_rho)
        return got


def _point(x) -> _Point:
    return x if isinstance(x, _Point) else _Point(_exact(x))


def series_eval(g: PowerSeriesInvX, x, prec: int = DEFAULT_PREC) -> EvalResult:
    """Evaluate g at x >= conv_abscissa.

    The partial sum is accumulated exactly: with D the common denominator
    of the coefficients and x = p/q in lowest terms, Horner's rule runs on
    integers (``_horner``) and the single division happens at float
    precision ``prec``.  Constant series evaluate anywhere (the point is not
    even range-checked, matching the convention that degree-0 data has no
    singularity).  Inside the package x may also be a ``_Point`` shared by
    several evaluations, which then share its powers, Horner sums and tail
    models.
    """
    at = _point(x)
    constant, den, abs_last, ratio = g._eval_floats(prec)
    if constant is not None:
        return EvalResult(constant, mpmath.mpf(0), True)
    numerator, reliable, one_minus_rho = at.terms(g, ratio, prec)
    p_n, x_pow = at.floats(g.order, prec)
    with mpmath.workprec(prec):
        value = numerator / (den * p_n)
        tail = mpmath.mpf(0) if one_minus_rho is None else abs_last * x_pow / one_minus_rho
    return EvalResult(value, tail, reliable)


def logseries_eval(g: LogSeries, x, prec: int = DEFAULT_PREC) -> EvalResult:
    """Evaluate a LogSeries; tails of the parts combine with |ln x|^j weights.

    x may be a ``_Point`` as in ``series_eval``; the J-iterates of one f_n
    value share one, so each Q-series is summed once per point.
    """
    at = _point(x)
    if g.degree >= 1 and at.x <= 0:
        raise ValueError(f"ln(x) requires x > 0, got {at.x}")
    if g.degree >= 1:
        weights, abs_weights = at.ln_weights(g.degree, prec)
    else:
        weights = abs_weights = (mpmath.mpf(1),)
    with mpmath.workprec(prec):
        value = mpmath.mpf(0)
        tail = mpmath.mpf(0)
        reliable = True
        for part, weight, abs_weight in zip(g.parts, weights, abs_weights):
            r = series_eval(part, at, prec)
            value += r.value * weight
            tail += r.tail_estimate * abs_weight
            reliable = reliable and r.tail_reliable
    return EvalResult(value, tail, reliable)
