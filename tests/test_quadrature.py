import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convpow import quadrature
from convpow.convolution import ConvParams, varphi
from convpow.fdecomp import make_f_evaluator
from convpow.quadrature import QuadratureError, adaptive_quad, cumulative_simpson_uniform
from convpow.verify import ELIMINATION_PAIRS


def test_adaptive_quad_smooth():
    assert abs(adaptive_quad(math.exp, 0.0, 1.0) - (math.e - 1)) < 1e-12


def test_adaptive_quad_empty_interval():
    assert adaptive_quad(math.exp, 1.0, 1.0) == 0.0
    assert adaptive_quad(math.exp, 2.0, 1.0) == 0.0


def test_adaptive_quad_reports_failure(monkeypatch):
    # highly oscillatory with a tiny subdivision limit
    monkeypatch.setattr(quadrature, "_SUBINTERVAL_LIMIT", 3)
    with pytest.raises(QuadratureError):
        adaptive_quad(lambda x: math.sin(1.0 / x) / x, 1e-8, 1.0, tol=1e-12)


def test_adaptive_quad_nan_is_an_error():
    with pytest.raises(QuadratureError):
        adaptive_quad(lambda x: math.nan, 0.0, 1.0)


def _integrand(kind: str, args: tuple):
    """(f, a, b) for one QUADPACK comparison case."""
    if kind == "exp":
        return math.exp, 0.0, 1.0
    if kind == "peaked":
        return (lambda x: 1.0 / (1e-3 + (x - 0.3) ** 2)), 0.0, 1.0
    if kind == "log-endpoint":
        return math.log, 0.0, 1.0
    if kind == "reflection":
        # the left-hand side of fdecomp.reflection_residual
        n, y = args
        ev = make_f_evaluator(n)
        return (lambda s: float(ev.eval(s).value) / (y - s + 1.0)), 0.0, y
    # the innermost integrand of conv_power_quadrature(params, 2, x)
    lam, a, x = args
    params = ConvParams(lam, a)
    return (lambda u: varphi(params, x - u) * varphi(params, u)), lam, x - lam


QUADPACK_CASES = [
    ("exp", ()),
    ("peaked", ()),
    ("log-endpoint", ()),
    *(("reflection", (n, y)) for n in range(5) for y in (0.5, 2.0, 5.0)),
    *(("conv-inner", (lam, a, (lam + a) * y + 2 * lam)) for lam, a in ELIMINATION_PAIRS for y in (0.5, 2.0, 5.0)),
]


@pytest.mark.parametrize("kind, args", QUADPACK_CASES, ids=[f"{k}{list(a)}" for k, a in QUADPACK_CASES])
def test_adaptive_quad_against_quadpack(kind, args):
    # scipy's QUADPACK (qagse) at the same tolerance is the reference; the
    # in-package rule may give up, but must not return a value further off
    integrate = pytest.importorskip("scipy.integrate")
    tol = 1e-10
    f, a, b = _integrand(kind, args)
    want = integrate.quad(f, a, b, epsabs=tol, epsrel=tol, limit=quadrature._SUBINTERVAL_LIMIT)[0]
    try:
        got = adaptive_quad(f, a, b, tol)
    except QuadratureError:
        return
    assert abs(got - want) <= 10 * tol * max(1.0, abs(want))


def test_cumulative_simpson_exact_on_quadratics():
    # both the Simpson pairs and the half-panel correction integrate
    # quadratics exactly, so every prefix is exact
    x = np.linspace(0.0, 2.0, 9)
    h = x[1] - x[0]
    got = cumulative_simpson_uniform(3.0 * x**2, h)
    np.testing.assert_allclose(got, x**3, rtol=0, atol=1e-13)


def test_cumulative_simpson_even_nodes_exact_on_cubics():
    # plain composite Simpson is exact on cubics by symmetry; the odd-node
    # correction is not symmetric, so only claim the even prefixes
    x = np.linspace(0.0, 2.0, 9)
    h = x[1] - x[0]
    got = cumulative_simpson_uniform(x**3, h)
    np.testing.assert_allclose(got[::2], (x**4 / 4.0)[::2], rtol=0, atol=1e-13)


def test_cumulative_simpson_every_node_is_good():
    n = 512
    x = np.linspace(0.0, math.pi, n + 1)
    h = x[1] - x[0]
    got = cumulative_simpson_uniform(np.sin(x), h)
    want = 1.0 - np.cos(x)
    # O(h^4) at even AND odd nodes
    assert np.max(np.abs(got - want)) < 1e-9
    assert np.max(np.abs(got[1::2] - want[1::2])) < 1e-9


def test_cumulative_simpson_needs_three_samples():
    with pytest.raises(ValueError):
        cumulative_simpson_uniform(np.ones(2), 0.5)


def test_cumulative_simpson_starts_at_zero():
    out = cumulative_simpson_uniform(np.ones(5), 0.25)
    assert out[0] == 0.0
    np.testing.assert_allclose(out, np.linspace(0.0, 1.0, 5), atol=1e-15)


def _numpy_cumulative_simpson(values, h):
    """The rule as it ran on numpy: the reference for the plain-float one."""
    g = np.asarray(values, dtype=float)
    m = g.shape[0]
    out = np.zeros(m)
    pair = (h / 3.0) * (g[0:-2:2] + 4.0 * g[1:-1:2] + g[2::2])
    out[2::2] = np.cumsum(pair)
    out[1] = (h / 12.0) * (5.0 * g[0] + 8.0 * g[1] - g[2])
    if m > 3:
        odd = np.arange(3, m, 2)
        out[odd] = out[odd - 1] + (h / 12.0) * (-g[odd - 2] + 8.0 * g[odd - 1] + 5.0 * g[odd])
    return out


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(3, 400),
    seed=st.integers(0, 2**32 - 1),
    h=st.floats(1e-6, 10.0),
    as_array=st.booleans(),
)
@example(m=300, seed=0, h=0.25, as_array=False)
@example(m=301, seed=1, h=0.25, as_array=True)
def test_cumulative_simpson_bit_identical_to_numpy_rule(m, seed, h, as_array):
    rng = random.Random(seed)
    values = [rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.uniform(-30.0, 30.0) for _ in range(m)]
    got = cumulative_simpson_uniform(np.array(values) if as_array else values, h)
    want = _numpy_cumulative_simpson(values, h)
    assert type(got) is list and all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [float(v).hex() for v in want]
