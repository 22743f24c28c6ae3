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

Every operator runs on those integers and reduces its output to lowest
terms once; Fractions are built only when a caller asks for ``coeffs``.
Each evaluation carries a geometric-ratio tail estimate for the truncated
remainder, flagged unreliable when the last coefficient ratio does not
support a geometric model at the requested point; ``series_eval`` runs
that model on integers too.

Evaluation is fixed point (Brent and Zimmermann, *Modern Computer
Arithmetic*, 2010, section 4.4).  At x = p/q >= 1 a point holds, per order
N, one table of T[k], x^-k scaled by 2^F and at most 2k units low; a series
holds, per precision, C[i] = a_{k0+i} scaled by 2^E, off by less than 2
units, k0 its first nonzero index.  The partial sum is x^-k0 times the dot
product sum_i C[i] T[i] over 2^(E+F), with x^-k0 = q^k0 / p^k0 entering
exactly before the one rounding to prec.  E and F depend on the series
alone, F on sum_{k>k0} |a_k| / |a_k0|, and keep each rounding below
2^-(prec+48) |a_k0| x^-k0, a part of |g|(x) = sum_k |a_k| x^-k.  So at
every x >= 1, however large, the value is off from the exact partial sum S
by at most 2^-prec |S| + 2^-(prec+32) |g|(x), and the tail, the same
integers' upper bound on |a_N| x^-N over 1 - rho, rounded up, lies between
the model's exact value and that times 1 + 2^(4-prec), plus
2^-(prec+32) |g|(x).  The tests hold this contract for order N >= 8 and
prec >= 24 bits; ``fdecomp.beta_table``, through which every f_n and β
is built, refuses a setting below that floor.

The float work runs on ``mpmath.libmp`` tuples (``_mpf_``) at the
requested precision, without an ``mpf`` object per step or a context
switch; the caller's ``mpmath.mp.prec`` is neither read nor changed.  Only
the ``EvalResult`` fields are ``mpf``.  ``logseries_eval`` forms each
part's product with ln(x)^j exactly and rounds each sum once, and a part
that is exactly zero costs no evaluation.  ``series_eval`` and
``logseries_eval`` take a number or a point prepared at their precision
(``_Point``): the parts of one polynomial in ln(x) share the point's one
power table, at the finest F any part needs, and its ln(x), which is taken
once, and only for a part of ln-degree >= 1.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Union

import mpmath
from mpmath.libmp import fone, from_int, from_man_exp, from_rational, fzero, mpf_abs, mpf_div, mpf_log, mpf_mul, mpf_sum, round_nearest, round_up

from .combinatorics import stirling1_unsigned

#: Default truncation order (highest retained power of 1/x).
DEFAULT_ORDER = 64
#: Default evaluation precision, in bits of mantissa.
DEFAULT_PREC = 128

Rational = Union[int, Fraction]

# Guard bits of the fixed-point evaluation: the rounding of the coefficients
# and of the powers of 1/x each stays below 2^-(prec+_GUARD) of the leading
# term, so the partial sum is off by less than 2^-(prec+32) |g|(x) even when
# a capped tail model multiplies the error by 256.
_GUARD = 48


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
    """Fraction -> ``_mpf_`` tuple at precision prec, the exact quotient of
    numerator and denominator rounded once to nearest."""
    return from_rational(q.numerator, q.denominator, prec, round_nearest)


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

    __slots__ = ("den", "ints", "conv_abscissa", "_fixed_cache")

    def __init__(self, coeffs: Iterable[Rational], conv_abscissa: Rational = 1):
        fracs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if not fracs:
            raise ValueError("a series needs at least its constant coefficient")
        self.conv_abscissa = Fraction(conv_abscissa)
        if self.conv_abscissa < 1:
            raise ValueError(f"conv_abscissa must be >= 1, got {self.conv_abscissa}")
        self.den = math.lcm(*(c.denominator for c in fracs))
        self.ints = tuple(c.numerator * (self.den // c.denominator) for c in fracs)
        self._fixed_cache = {}  # {prec: what evaluation needs at prec}, filled on use

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
        self._fixed_cache = {}
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

    def _fixed(self, prec: int):
        """(value of a constant series or None, F, k0, E, C, top, ratio):
        what evaluation at prec needs besides the point, cached per precision.

        k0 is the first k with a_k != 0, and C[i] is a_{k0+i} 2^E in fixed
        point, off by less than 2: one reciprocal of den, then a product and
        a shift per coefficient.  E, and F, the bits a point's powers need,
        put the rounding of C and of the powers each below
        2^-(prec+_GUARD) |a_k0|.  top = |C[-1]| + 2 exceeds |a_N| 2^E.  The
        tail ratio is the pair of integers (a, b) with a / b =
        max(|a_N / a_{N-1}|, 1) of the geometric tail model (1 when
        a_{N-1} = 0), or None when a_N = 0 and the model puts no tail at all.
        """
        got = self._fixed_cache.get(prec)
        if got is None:
            ints, n = self.ints, self.order
            if not any(ints[1:]):
                got = (_to_mpf(self.coeff(0), prec), 0, 0, 0, None, 0, None)
            else:
                k0 = next(k for k, c in enumerate(ints) if c)
                lead = abs(ints[k0]).bit_length()
                scale = prec + _GUARD + (2 * n + 2).bit_length() + self.den.bit_length() - lead + 1
                bits = max(0, prec + _GUARD + (2 * n * sum(map(abs, ints[k0 + 1 :]))).bit_length() - lead + 1)
                shift = max(max(map(abs, ints)).bit_length(), -scale)
                recip = (1 << (scale + shift)) // self.den
                coeffs = [c * recip >> shift for c in ints[k0:]]
                last, prev = abs(ints[-1]), abs(ints[-2])
                ratio = None if not last else (last, prev) if last > prev > 0 else (1, 1)
                got = (None, bits, k0, scale, coeffs, abs(coeffs[-1]) + 2, ratio)
            self._fixed_cache[prec] = got
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


def li1_power(n: int, order: int, /) -> PowerSeriesInvX:
    """(1/n!) * Li_1(1/x)^n, exactly: the x^{-k} coefficient is s(k, n)/k!.

    s(k, n) is the unsigned Stirling number of the first kind; the n = 0
    case is the constant series 1 and the n = 1 case is Li_1 itself.
    Not cached: the pipeline's Q build uses no Li_1 power, and the short
    recurrence asks for each power once per call.
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


class _Point:
    """An evaluation point x = p/q, prepared once at one precision for every
    series evaluated at it.

    It keeps x itself as an ``_mpf_`` tuple at its precision, one table of
    fixed-point powers of 1/x per order N (``powers``) and the powers of
    ln x, whose ln x is taken once, when a part of ln-degree >= 1 first
    asks.  A point lives for one evaluation; nothing is kept beyond it.
    """

    __slots__ = ("x", "prec", "_mpf", "_powers", "_weights")

    def __init__(self, xf: Fraction, prec: int):
        self.x = xf
        self.prec = prec
        self._mpf = _to_mpf(xf, prec)
        self._powers = {}  # N -> (F, T)
        self._weights = ([fone], [fone])  # ln(x)^j and |ln(x)|^j, j = 0.., grown on request

    def powers(self, n: int, bits: int):
        """(F, T) with F >= bits and x^-k 2^F - 2k < T[k] <= x^-k 2^F for
        k = 0..n, x >= 1: T[1] = floor(2^F q / p), each further power the
        product by T[1] shifted down F bits.  Every series of order n at
        this point shares the table; a finer one replaces it."""
        got = self._powers.get(n)
        if got is None or got[0] < bits:
            step = (self.x.denominator << bits) // self.x.numerator
            table = list(itertools.accumulate(itertools.repeat(step, n), lambda acc, s: acc * s >> bits, initial=1 << bits))
            got = self._powers[n] = (bits, table)
        return got

    def ln_weights(self, degree: int):
        """ln(x)^0..ln(x)^degree by repeated products, and their absolute values."""
        weights, abs_weights = self._weights
        while len(weights) <= degree:  # weights[1] is ln(x) itself, taken on the first pass
            lnx = weights[1] if len(weights) > 1 else mpf_log(self._mpf, self.prec, round_nearest)
            weights.append(mpf_mul(weights[-1], lnx, self.prec, round_nearest))
            abs_weights.append(mpf_abs(weights[-1], self.prec, round_nearest))
        return weights, abs_weights


def _dot(coeffs, powers) -> int:
    """sum_i C[i] T[i]: a series' fixed-point coefficients against a point's powers."""
    return sum(map(operator.mul, coeffs, powers))


def _point(x, prec: int) -> _Point:
    at = x if isinstance(x, _Point) else _Point(_exact(x), prec)
    if at.prec != prec:  # a shared point serves one precision
        raise ValueError(f"a point prepared at {at.prec} bits is evaluated at {prec}")
    return at


def series_eval(g: PowerSeriesInvX, x, prec: int = DEFAULT_PREC) -> EvalResult:
    """Evaluate g at x >= conv_abscissa.

    The partial sum is one fixed-point dot product: the coefficients
    a_{k0}..a_N scaled by 2^E (``PowerSeriesInvX._fixed``) against the
    point's powers x^0..x^-(N-k0) scaled by 2^F (``_Point.powers``), times
    x^-k0 = q^k0 / p^k0 at x = p/q, rounded once to ``prec``.  Constant
    series evaluate anywhere (the point is not even range-checked: degree-0
    data has no singularity).  Inside the package x may also be a
    ``_Point`` prepared at ``prec``.

    The tail model: rho = (a/b) / x, with a/b = max(|a_N / a_{N-1}|, 1),
    decays when rho < 1 (the reliability flag) and is capped at 255/256,
    which keeps the tail finite, and visibly large, where the model fails;
    the tail is |a_N| * x^(-N) / (1 - rho), none when a_N = 0.  On
    integers, rho = u/v with u = a*q and v = b*p, compared by
    cross-multiplying; the tail is the same integers' upper bound on
    |a_N| x^-N times v / (v - u), or 256 when capped, rounded up.
    """
    at = _point(x, prec)
    constant, bits, k0, scale, coeffs, top, ratio = g._fixed(prec)
    if constant is not None:
        return EvalResult(_make_mpf(constant), _make_mpf(fzero), True)
    p, q, abscissa = at.x.numerator, at.x.denominator, g.conv_abscissa
    if p * abscissa.denominator < abscissa.numerator * q:
        raise ValueError(f"evaluation point {at.x} is below the convergence abscissa {abscissa}")
    bits, powers = at.powers(g.order, bits)
    exp, last = -(scale + bits), g.order - k0
    total = _dot(coeffs, powers)
    if k0:  # x^-k0 = q^k0 / p^k0 enters exactly, before the one rounding
        value = mpf_div(from_man_exp(total * q**k0, exp), from_int(p**k0), prec, round_nearest)
    else:
        value = from_man_exp(total, exp, prec, round_nearest)
    reliable, tail = True, fzero
    if ratio is not None:
        u, v = ratio[0] * q, ratio[1] * p
        reliable = u < v
        over, under = (v, v - u) if 256 * u < 255 * v else (256, 1)  # 1 / (1 - min(rho, 255/256))
        bound = top * (powers[last] + 2 * last) * over * q**k0
        tail = mpf_div(from_man_exp(bound, exp), from_int(under * p**k0), prec, round_up)
    return EvalResult(_make_mpf(value), _make_mpf(tail), reliable)


def logseries_eval(parts: tuple[PowerSeriesInvX, ...], x, prec: int = DEFAULT_PREC) -> EvalResult:
    """Evaluate sum_j parts[j] * ln(x)^j; tails of the parts combine with |ln x|^j weights.

    Every part takes its weight, part 0 the exact ln(x)^0 = 1; the products
    are exact and each sum is rounded once.  x may be a ``_Point`` as in
    ``series_eval``, whose powers and ln(x) the caller shares.
    """
    if not parts:
        raise ValueError("a polynomial in ln(x) needs at least its ln-degree-0 part")
    at = _point(x, prec)
    if len(parts) > 1 and at.x.numerator <= 0:
        raise ValueError(f"ln(x) requires x > 0, got {at.x}")
    weights, abs_weights = at.ln_weights(len(parts) - 1)
    live = [(j, part) for j, part in enumerate(parts) if any(part.ints)]  # an exact 0 adds nothing
    need = max((part._fixed(prec)[1] for _, part in live), default=0)
    if need and at.x >= 1:  # one table of powers for every part, at the finest any part needs
        at.powers(parts[0].order, need)
    values, tails, reliable = [], [], True
    for j, part in live:
        r = series_eval(part, at, prec)
        values.append(mpf_mul(r.value._mpf_, weights[j]))
        tails.append(mpf_mul(r.tail_estimate._mpf_, abs_weights[j]))
        reliable = reliable and r.tail_reliable
    value, tail = mpf_sum(values, prec, round_nearest), mpf_sum(tails, prec, round_nearest)
    return EvalResult(_make_mpf(value), _make_mpf(tail), reliable)
