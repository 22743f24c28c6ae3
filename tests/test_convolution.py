import math

import mpmath
import numpy as np
import pytest

from convpow import convolution, verify
from convpow.convolution import (
    DEFAULT_MAX_DEPTH,
    ConvParams,
    conv_power_quadrature,
    f_from_conv,
    f_quadrature_oracle,
    j_iterate_from_f_oracle,
    reconstruct_from_f,
    varphi,
)
from convpow.fdecomp import beta_table, build_j_iterate, f_eval
from convpow.quadrature import QuadratureError
from convpow.series import logseries_eval


def test_params_validation():
    ConvParams(-0.25, 1.0)  # fine: sum is positive
    with pytest.raises(ValueError):
        ConvParams(1.0, -1.0)
    with pytest.raises(ValueError):
        ConvParams(0.0, 0.0)


def test_varphi():
    p = ConvParams(0.0, 1.0)
    assert varphi(p, -1.0) == 0.0
    assert varphi(p, 1.0) == 0.5
    assert varphi(ConvParams(1.0, 0.0), 1.0) == 1.0  # boundary included


# ---------------------------------------------------------------------------
# direct convolution quadrature


def test_conv_square_closed_form():
    # for lam=0, a=1: phi*2(x) = 2 ln(x+1) / (x+2)
    p = ConvParams(0.0, 1.0)
    got = conv_power_quadrature(p, 2, 1.0)
    assert abs(got - 2 * math.log(2) / 3) < 1e-9
    for x in (0.5, 2.0, 10.0):
        want = 2 * math.log(x + 1) / (x + 2)
        assert abs(conv_power_quadrature(p, 2, x) - want) < 1e-9


def test_conv_vanishes_below_cutoff():
    p = ConvParams(0.0, 1.0)
    assert conv_power_quadrature(p, 2, -0.5) == 0.0
    p2 = ConvParams(0.5, 1.0)
    for x in np.linspace(-1.0, 0.99, 7):
        assert conv_power_quadrature(p2, 2, float(x)) == 0.0


def test_conv_depth_cap():
    p = ConvParams(0.0, 1.0)
    with pytest.raises(ValueError, match=f"depth limit {DEFAULT_MAX_DEPTH}; its cost is exponential"):
        conv_power_quadrature(p, DEFAULT_MAX_DEPTH + 1, 1.0)
    with pytest.raises(ValueError):
        conv_power_quadrature(p, 0, 1.0)


def test_conv_matches_reconstruction_at_shifted_cutoff():
    p = ConvParams(1.0, 0.5)
    got = conv_power_quadrature(p, 2, 3.0)
    want = reconstruct_from_f(p, 2, 3.0)
    assert abs(got - want) < 1e-6


# ---------------------------------------------------------------------------
# transform bridges


def test_reconstruct_simple_cases():
    p = ConvParams(0.0, 1.0)
    assert abs(reconstruct_from_f(p, 1, 2.0) - 1.0 / 3.0) < 1e-15
    assert abs(reconstruct_from_f(p, 2, 1.0) - 2.0 * math.log(2) / 3.0) < 1e-15


def test_reconstruct_negative_cutoff():
    p = ConvParams(-0.25, 1.0)
    got = reconstruct_from_f(p, 2, 0.0)
    want = conv_power_quadrature(p, 2, 0.0)
    assert abs(got - want) < 1e-6


def test_reconstruct_domain():
    p = ConvParams(0.5, 1.0)
    with pytest.raises(ValueError):
        reconstruct_from_f(p, 2, 0.5)  # below the n*lam cutoff
    with pytest.raises(ValueError):
        reconstruct_from_f(p, 0, 1.0)


def test_f_from_conv_level_zero():
    for p in (ConvParams(0.0, 1.0), ConvParams(1.0, 0.5)):
        assert abs(f_from_conv(p, 1, 3.0) - 1.0) < 1e-9


def test_f_from_conv_log():
    got = f_from_conv(ConvParams(0.0, 1.0), 2, 1.0)
    assert abs(got - math.log(2)) < 1e-7


def test_f_from_conv_eliminates_parameters():
    a = f_from_conv(ConvParams(0.0, 1.0), 2, 2.0)
    b = f_from_conv(ConvParams(1.0, 0.5), 2, 2.0)
    assert abs(a - b) < 2e-7


def test_f_from_conv_validation():
    p = ConvParams(0.0, 1.0)
    with pytest.raises(ValueError):
        f_from_conv(p, 0, 1.0)
    with pytest.raises(ValueError):
        f_from_conv(p, 2, -1.0)


# ---------------------------------------------------------------------------
# the iterated-integral oracle


def test_oracle_base_cases():
    assert f_quadrature_oracle(0, 17.0) == 1.0
    assert f_quadrature_oracle(3, 0.0) == 0.0


def test_oracle_log():
    assert abs(f_quadrature_oracle(1, 3.0) - math.log(4)) < 1e-9


def test_oracle_matches_series_path():
    assert abs(f_quadrature_oracle(2, 2.0) - float(f_eval(2, 2.0).value)) < 1e-7


# f_quadrature_oracle as float.hex at suite_oracle's points and two more,
# as computed when the cumulative Simpson rule still ran on numpy
FROZEN_ORACLE_HEX = {
    (1, 0.5): "0x1.9f323ecbf9844p-2",
    (1, 1.0): "0x1.62e42fefa39d5p-1",
    (1, 2.0): "0x1.193ea7aad031ap+0",
    (1, 5.0): "0x1.cab0bfa2a2011p+0",
    (2, 0.5): "0x1.7dd4dee407ed6p-5",
    (2, 1.0): "0x1.2d8208c6adeb1p-3",
    (2, 2.0): "0x1.9fd67c34294fap-2",
    (2, 5.0): "0x1.3818c46a3178dp+0",
    (3, 0.5): "0x1.443c80c46dbd0p-9",
    (3, 1.0): "0x1.e7cbba2cecb98p-7",
    (3, 2.0): "0x1.323b814657c08p-4",
    (3, 5.0): "0x1.c7073978d0c46p-2",
    (4, 0.5): "0x1.3afb8d0869011p-14",
    (4, 1.0): "0x1.ca7a6aaf35f22p-11",
    (4, 2.0): "0x1.0cd82afbb050ep-7",
    (4, 5.0): "0x1.9eee5f09a4259p-4",
    (10, 20.0): "0x1.3ee18fb16f1a2p-13",
    (2, 3.0): "0x1.5e0b8f21ca710p-1",
}


def test_oracle_values_frozen():
    assert {key: f_quadrature_oracle(*key).hex() for key in FROZEN_ORACLE_HEX} == FROZEN_ORACLE_HEX


def test_suite_oracle_shares_one_refinement_per_point(monkeypatch):
    # f_1..f_4 at each of the four y from one loop that converges at 8192
    # panels: 4 y x 2 grids x 4 levels, not a loop per level (80 passes)
    passes = []
    simpson = convolution.cumulative_simpson_uniform
    monkeypatch.setattr(convolution, "cumulative_simpson_uniform", lambda *a: passes.append(1) or simpson(*a))
    checks = verify.suite_oracle()
    assert checks and all(c.ok for c in checks)
    assert len(passes) == 32


def test_oracle_validation_and_stall(monkeypatch):
    with pytest.raises(ValueError):
        f_quadrature_oracle(-1, 1.0)
    with pytest.raises(ValueError):
        f_quadrature_oracle(1, -1.0)
    monkeypatch.setattr(convolution, "_ORACLE_PANELS", 8)
    monkeypatch.setattr(convolution, "_ORACLE_MAX_PANELS", 16)
    with pytest.raises(QuadratureError, match="stalled"):
        f_quadrature_oracle(2, 3.0, tol=1e-16)


def test_oracle_triangle_spot_checks():
    # series path, conv-transform path and the direct oracle all at once
    p = ConvParams(0.0, 1.0)
    for n, y in ((1, 0.5), (2, 1.0), (3, 2.0)):
        series = float(f_eval(n, y).value)
        oracle = f_quadrature_oracle(n, y)
        conv = f_from_conv(p, n + 1, y)
        assert abs(series - oracle) < 1e-6
        assert abs(series - conv) < 1e-6
        assert abs(oracle - conv) < 1e-6


# ---------------------------------------------------------------------------
# J-iterates recovered from the oracle


def test_j_from_oracle_matches_series():
    betas = beta_table(4, 64, 128).values
    for n in (1, 2, 3, 4):
        got = j_iterate_from_f_oracle(n, 4.0, betas)
        want = float(logseries_eval(build_j_iterate(n, 64), 4, 128).value)
        assert abs(got - want) < 1e-8, n


def test_j_from_oracle_validation():
    betas = beta_table(2, 64, 128).values
    with pytest.raises(ValueError):
        j_iterate_from_f_oracle(2, 1.5, betas)  # x < n
    with pytest.raises(ValueError):
        j_iterate_from_f_oracle(2, 4.0, betas[:2])  # too few betas
    with pytest.raises(ValueError):
        j_iterate_from_f_oracle(-1, 4.0, betas)


def test_conv_consistency_under_negative_cutoff():
    # lam < 0 stretches the support leftward; the normal form must not care
    p = ConvParams(-0.25, 1.0)
    got = f_from_conv(p, 3, 1.0)
    want = float(f_eval(2, 1.0).value)
    assert abs(got - want) < 1e-6
