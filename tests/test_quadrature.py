import math

import numpy as np
import pytest

from convpow import quadrature
from convpow.quadrature import QuadratureError, adaptive_quad, cumulative_simpson_uniform


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
