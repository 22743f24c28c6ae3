"""Truncated power series in 1/x over exact rationals, and the operator
calculus acting on them.

A :class:`PowerSeriesInvX` is sum_{k=0}^{N} a_k x^{-k} with rational
coefficients and a fixed truncation order N, stored once, as integers over
one common denominator (the layout of FLINT's ``fmpq_poly``).  A
polynomial in ln(x) with such series as coefficients is the tuple of its
parts, part j multiplying ln(x)^j; ``logseries_eval`` evaluates one.

The operators implemented here:

* ``harmonic_h``       H[g](x) = integral of g(x)/x, constant pinned so
                       that it vanishes at infinity; g must have no
                       constant term, which would integrate to a ln(x),
* ``backward_diff``    the difference g(x) - g(x-1) re-expanded in 1/x,
* ``shift_s``          the shift g(x) -> g(x-1),
* ``li1_power``        (1/n!) * Li_1(1/x)^n, whose 1/x-coefficients are
                       unsigned Stirling numbers over factorials; n = 1 is
                       Li_1(1/x) = ln(x) - ln(x-1), the backward difference
                       of ln(x) itself.

The Cauchy product is ``PowerSeriesInvX.__mul__``; every linear
combination (``+``, ``-`` and so ``shift_s``, and the sums ``qcoeff`` and
``fdecomp`` form) is ``PowerSeriesInvX._combination``, one integer pass
over the common denominator of its terms.

Every operator and evaluation runs on those integers: each operator
reduces its output to lowest terms once, and evaluation keeps partial sums
as exact integers (Horner) and converts to an mpmath float once, at the
end.  Fractions are built only when a caller asks for ``coeffs``.  Each
evaluation carries a geometric-ratio tail estimate for the truncated
remainder, flagged unreliable when the last coefficient ratio does not
support a geometric model at the requested point; ``series_eval`` runs
that model, on integers too.

The Horner sum at x = p/q runs in ascending powers of 1/x, multiplying by
p at each step; q = odd * 2^s enters each coefficient as odd^k shifted
left by s*k bits.  A float point is dyadic (odd = 1), so each step is a
product by a word-sized p and a shift, with no power of odd at all.  A
part of a polynomial in ln(x) that is exactly zero costs no evaluation:
adding its 0 would not change a sum already rounded.  The float work after
the Horner sum runs on ``mpmath.libmp`` tuples (``_mpf_``) at the requested
precision with round-to-nearest, the operations mpmath's own ``mpf``
arithmetic does at that working precision, without an ``mpf`` object per
step or a context switch; the caller's ``mpmath.mp.prec`` is neither read
nor changed.  Only the ``EvalResult`` fields are ``mpf``.

``series_eval`` and ``logseries_eval`` take a number or a point prepared
at their precision (``_Point``): the parts of one polynomial in ln(x)
share the point's memo per order N (odd^0..odd^N, p^N, x^(-N)) and its
ln(x), which is taken once, and only for a part of ln-degree >= 1.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

import mpmath
from mpmath.libmp import fone, from_int, fzero, mpf_abs, mpf_add, mpf_div, mpf_log, mpf_mul, mpf_pow_int, round_nearest

from .combinatorics import stirling1_unsigned

#: Default truncation order (highest retained power of 1/x).
DEFAULT_ORDER = 64
#: Default evaluation precision, in bits of mantissa.
DEFAULT_PREC = 128

Rational = Union[int, Fraction]

# 1 - rho when the geometric model fails and rho is capped at 255/256: 2^-8,
# exact at every precision, keeps the tail estimate finite (and visibly
# large) rather than dividing by ~0.
_ONE_MINUS_CAPPED_RHO = (0, 1, -8, 1)


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


def _to_mpf(q: Fraction, prec: int) -> tuple:
    """Fraction -> ``_mpf_`` tuple at precision prec: numerator and
    denominator each rounded to prec, then divided, as mpf(num) / mpf(den)."""
    num, den = from_int(q.numerator, prec, round_nearest), from_int(q.denominator, prec, round_nearest)
    return mpf_div(num, den, prec, round_nearest)


_make_mpf = mpmath.mp.make_mpf


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

    __slots__ = ("den", "ints", "conv_abscissa", "_floats")

    def __init__(self, coeffs: Iterable[Rational], conv_abscissa: Rational = 1):
        fracs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if not fracs:
            raise ValueError("a series needs at least its constant coefficient")
        self.conv_abscissa = Fraction(conv_abscissa)
        if self.conv_abscissa < 1:
            raise ValueError(f"conv_abscissa must be >= 1, got {self.conv_abscissa}")
        self.den = math.lcm(*(c.denominator for c in fracs))
        self.ints = tuple(c.numerator * (self.den // c.denominator) for c in fracs)
        self._floats = {}  # {prec: what evaluation needs at prec}, filled on use

    @classmethod
    def _from_scaled(cls, den: int, ints, conv_abscissa: Fraction, g: int | None = None) -> "PowerSeriesInvX":
        """The series with coefficients ints[k] / den, brought to lowest
        terms by dividing out g, the gcd of den and every ints[k], which is
        computed unless the caller knows it."""
        g = math.gcd(den, *ints) if g is None else g
        self = cls.__new__(cls)
        self.den = den // g
        self.ints = tuple(c // g for c in ints) if g > 1 else tuple(ints)
        self.conv_abscissa = conv_abscissa
        self._floats = {}
        return self

    @classmethod
    def zero(cls, order: int) -> "PowerSeriesInvX":
        return cls([0] * (order + 1))

    @classmethod
    def constant(cls, value: Rational, order: int) -> "PowerSeriesInvX":
        return cls([value] + [0] * order)

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

    def _require_same_order(self, other: "PowerSeriesInvX") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}; "
                "re-expand to a common order first"
            )

    def _eval_floats(self, prec: int):
        """(value of a constant series or None, den, |a_N|, tail ratio), the
        floats as ``_mpf_`` tuples at precision prec: what evaluation needs
        besides the integers and the point, cached per precision.

        The tail ratio is the pair of integers (a, b) with a / b =
        max(|a_N / a_{N-1}|, 1) of the geometric tail model (1 when
        a_{N-1} = 0), or None when a_N = 0 and the model puts no tail at all.
        """
        got = self._floats.get(prec)
        if got is None:
            if not any(self.ints[1:]):
                got = (_to_mpf(self.coeff(0), prec), None, None, None)
            else:
                last, prev = abs(self.ints[-1]), abs(self.ints[-2])
                ratio = None if not last else (last, prev) if last > prev > 0 else (1, 1)
                got = (None, from_int(self.den, prec, round_nearest), _to_mpf(Fraction(last, self.den), prec), ratio)
            self._floats[prec] = got
        return got

    @staticmethod
    def _combination(terms) -> "PowerSeriesInvX":
        """sum c * g over the pairs (g, c) of series of one order and
        rational factors, in one integer pass over the common denominator
        of the terms; the abscissa is the largest of theirs."""
        for g, _ in terms:
            terms[0][0]._require_same_order(g)
        den = math.lcm(*(g.den * c.denominator for g, c in terms))
        weights = [c.numerator * (den // (g.den * c.denominator)) for g, c in terms]
        ints = [sum(map(operator.mul, weights, column)) for column in zip(*(g.ints for g, _ in terms))]
        return PowerSeriesInvX._from_scaled(den, ints, max(g.conv_abscissa for g, _ in terms))

    def __add__(self, other: "PowerSeriesInvX") -> "PowerSeriesInvX":
        if not isinstance(other, PowerSeriesInvX):
            return NotImplemented
        return self._combination(((self, 1), (other, 1)))

    def __sub__(self, other: "PowerSeriesInvX") -> "PowerSeriesInvX":
        if not isinstance(other, PowerSeriesInvX):
            return NotImplemented
        return self._combination(((self, 1), (other, -1)))

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
            # self is in lowest terms, so the factor common to den * div and
            # every ints[k] * num is gcd(den, num) * gcd(div, ints[0], ...)
            g, h = math.gcd(self.den, other.numerator), math.gcd(other.denominator, *self.ints)
            num, div = other.numerator // g, other.denominator // h
            ints = [x // h * num for x in self.ints] if h > 1 or num != 1 else self.ints
            return PowerSeriesInvX._from_scaled(self.den // g * div, ints, self.conv_abscissa, 1)
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


class EvalResult:
    """A float evaluation plus a heuristic bound on the truncation tail.

    The tail model is geometric: the dropped terms are assumed to decay
    at least as fast as the last retained coefficient ratio suggests.
    ``tail_reliable`` is False when that ratio does not decay at the
    evaluation point, in which case ``tail_estimate`` is a floor, not a
    bound.
    """

    __slots__ = ("value", "tail_estimate", "tail_reliable")

    def __init__(self, value: mpmath.mpf, tail_estimate: mpmath.mpf, tail_reliable: bool = True):
        self.value = value
        self.tail_estimate = tail_estimate
        self.tail_reliable = tail_reliable

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvalResult):
            return NotImplemented
        return (self.value, self.tail_estimate, self.tail_reliable) == (
            other.value, other.tail_estimate, other.tail_reliable
        )

    __hash__ = None

    def __float__(self) -> float:
        return float(self.value)


def harmonic_h(g: PowerSeriesInvX) -> PowerSeriesInvX:
    """Antiderivative of g(x)/x, re-expanded around infinity.

    Each term a_k x^{-k} integrates to -(a_k/k) x^{-k}, with the
    integration constant pinned so the result vanishes at infinity.  A
    nonzero a_0 would integrate to a_0 * ln(x), which no recurrence here
    produces, so it raises ArithmeticError.  On the integers, with
    L = lcm(1..N), -a_k/k is -ints[k] * (L/k) over den * L.
    """
    if g.ints[0]:
        raise ArithmeticError(f"nonzero constant term {g.coeff(0)} would put a ln(x) into H[g]")
    n = g.order
    lcm = math.lcm(*range(1, n + 1))
    pure = [0] + [-g.ints[k] * (lcm // k) for k in range(1, n + 1)]
    return PowerSeriesInvX._from_scaled(g.den * lcm, pure, g.conv_abscissa)


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
def li1_power(n: int, order: int, /) -> PowerSeriesInvX:
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


def _horner(ints, p: int, shift: int, opow) -> int:
    """Exact Horner sum of ints[k] * p^(N-k) * q^k, k = 0..N, where
    q = odd * 2^shift and opow = odd^0..odd^N, or None when odd = 1.

    With ints = den * a_k of a series and x = p/q, the series' partial sum
    at x is this integer over den * p^N.  After scaling ints[k] by odd^k
    (skipped at a float point, where odd = 1) it runs in ascending k,
    acc * p + (ints[k] << shift*k): one product by p per step.
    """
    if opow is not None:
        ints = list(map(operator.mul, ints, opow))
    acc = ints[0]
    for k in range(1, len(ints)):
        acc = acc * p + (ints[k] << (shift * k))
    return acc


class _Point:
    """An evaluation point x = p/q, prepared once at one precision for every
    series evaluated at it.

    It keeps q = odd * 2^shift, x itself as an ``_mpf_`` tuple at its
    precision, one memo per order N (``floats``) and the powers of ln x,
    whose ln x is taken once, when a part of ln-degree >= 1 first asks.  A
    point lives for one evaluation; nothing is kept beyond it.
    """

    __slots__ = ("x", "prec", "_shift", "_odd", "_mpf", "_floats", "_weights")

    def __init__(self, xf: Fraction, prec: int):
        self.x = xf
        self.prec = prec
        q = xf.denominator
        self._shift = (q & -q).bit_length() - 1
        self._odd = q >> self._shift
        self._mpf = _to_mpf(xf, prec)
        self._floats = {}  # N -> floats(N)
        self._weights = ([fone], [fone])  # ln(x)^j and |ln(x)|^j, j = 0.., grown on request

    def floats(self, n: int):
        """(odd^0..odd^n or None when odd = 1, p^n, x^(-n)), the floats as ``_mpf_``."""
        got = self._floats.get(n)
        if got is None:
            opow = None if self._odd == 1 else list(itertools.accumulate([self._odd] * n, operator.mul, initial=1))
            x_pow = mpf_pow_int(self._mpf, -n, self.prec, round_nearest)
            got = self._floats[n] = (opow, from_int(self.x.numerator**n, self.prec, round_nearest), x_pow)
        return got

    def ln_weights(self, degree: int):
        """ln(x)^0..ln(x)^degree by repeated products, and their absolute values."""
        weights, abs_weights = self._weights
        while len(weights) <= degree:  # weights[1] is ln(x) itself, taken on the first pass
            lnx = weights[1] if len(weights) > 1 else mpf_log(self._mpf, self.prec, round_nearest)
            weights.append(mpf_mul(weights[-1], lnx, self.prec, round_nearest))
            abs_weights.append(mpf_abs(weights[-1], self.prec, round_nearest))
        return weights, abs_weights


def _point(x, prec: int) -> _Point:
    at = x if isinstance(x, _Point) else _Point(_exact(x), prec)
    if at.prec != prec:  # a shared point serves one precision
        raise ValueError(f"a point prepared at {at.prec} bits is evaluated at {prec}")
    return at


def series_eval(g: PowerSeriesInvX, x, prec: int = DEFAULT_PREC) -> EvalResult:
    """Evaluate g at x >= conv_abscissa.

    The partial sum is accumulated exactly: with D the common denominator
    of the coefficients and x = p/q in lowest terms, Horner's rule runs on
    integers (``_horner``) and the single division happens at float
    precision ``prec``.  Constant series evaluate anywhere (the point is not
    even range-checked: degree-0 data has no singularity).  Inside the
    package x may also be a ``_Point`` prepared at ``prec``.

    The tail model: rho = (a/b) / x, with a/b = max(|a_N / a_{N-1}|, 1),
    decays when rho < 1 (the reliability flag) and is capped at 255/256;
    the tail is |a_N| * x^(-N) / (1 - rho), none when a_N = 0.  On
    integers, rho = u/v with u = a*q and v = b*p, compared by
    cross-multiplying, and uncapped 1 - rho = (v - u)/v is reduced by
    gcd(u, v) and converted as ``_to_mpf`` converts the Fraction.
    """
    at = _point(x, prec)
    constant, den, abs_last, ratio = g._eval_floats(prec)
    if constant is not None:
        return EvalResult(_make_mpf(constant), _make_mpf(fzero), True)
    p, q, abscissa = at.x.numerator, at.x.denominator, g.conv_abscissa
    if p * abscissa.denominator < abscissa.numerator * q:
        raise ValueError(f"evaluation point {at.x} is below the convergence abscissa {abscissa}")
    opow, p_n, x_pow = at.floats(g.order)
    reliable, tail = True, fzero
    if ratio is not None:
        u, v = ratio[0] * q, ratio[1] * p
        reliable, one_minus_rho = u < v, _ONE_MINUS_CAPPED_RHO
        if 256 * u < 255 * v:  # rho below the cap
            r = math.gcd(u, v)
            gap, whole = from_int((v - u) // r, prec, round_nearest), from_int(v // r, prec, round_nearest)
            one_minus_rho = mpf_div(gap, whole, prec, round_nearest)
        tail = mpf_div(mpf_mul(abs_last, x_pow, prec, round_nearest), one_minus_rho, prec, round_nearest)
    numerator = from_int(_horner(g.ints, p, at._shift, opow), prec, round_nearest)
    value = mpf_div(numerator, mpf_mul(den, p_n, prec, round_nearest), prec, round_nearest)
    return EvalResult(_make_mpf(value), _make_mpf(tail), reliable)


def logseries_eval(parts: tuple[PowerSeriesInvX, ...], x, prec: int = DEFAULT_PREC) -> EvalResult:
    """Evaluate sum_j parts[j] * ln(x)^j; tails of the parts combine with |ln x|^j weights.

    Every part takes its weight, part 0 the exact ln(x)^0 = 1.  x may be a
    ``_Point`` as in ``series_eval``, whose memo per order and ln(x) the
    caller shares.
    """
    if not parts:
        raise ValueError("a polynomial in ln(x) needs at least its ln-degree-0 part")
    at = _point(x, prec)
    if len(parts) > 1 and at.x.numerator <= 0:
        raise ValueError(f"ln(x) requires x > 0, got {at.x}")
    weights, abs_weights = at.ln_weights(len(parts) - 1)
    value, tail, reliable = fzero, fzero, True
    for j, part in enumerate(parts):
        if not any(part.ints):
            continue  # adding an exact 0 to a sum already rounded to prec changes no bit
        r = series_eval(part, at, prec)
        value = mpf_add(value, mpf_mul(r.value._mpf_, weights[j], prec, round_nearest), prec, round_nearest)
        tail = mpf_add(tail, mpf_mul(r.tail_estimate._mpf_, abs_weights[j], prec, round_nearest), prec, round_nearest)
        reliable = reliable and r.tail_reliable
    return EvalResult(_make_mpf(value), _make_mpf(tail), reliable)
