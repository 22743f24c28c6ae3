import hashlib
import math
from fractions import Fraction

import pytest

from convpow import qcoeff, series
from convpow.combinatorics import binomial, stirling1_unsigned
from convpow.qcoeff import _neg_h_pure, log_expansion_q_list, q_closed_form, q_via_recurrence
from convpow.series import PowerSeriesInvX, backward_diff, li1_power, shift_s

F = Fraction


def test_initial_data():
    assert q_via_recurrence(0, 6) == PowerSeriesInvX.constant(1, 6)
    assert q_via_recurrence(1, 6) == PowerSeriesInvX.zero(6)


def test_q2_is_dilogarithm():
    q2 = q_via_recurrence(2, 20)
    assert q2.coeffs[0] == 0
    assert all(q2.coeffs[k] == F(1, k * k) for k in range(1, 21))


def q3_bracket(k):
    """Direct evaluation of the level-3 coefficient.

    One integration step applied to li1_power(2) - nabla[Li_2]:
    q_{3,k} = ( s(k,2)/k! + sum_{r=1}^{k-1} C(k-1,r)/(k-r)^2 ) / k.
    """
    acc = F(stirling1_unsigned(k, 2), math.factorial(k))
    acc += sum(binomial(k - 1, r) * F(1, (k - r) ** 2) for r in range(1, k))
    return acc / k


def test_q3_against_bracket_oracle():
    q3 = q_via_recurrence(3, 20)
    for k in range(2, 21):
        assert q3.coeffs[k] == q3_bracket(k)
    # the first few, frozen: note the repeated 2/3 at k=3 and k=5
    assert q3.coeffs[2:7] == (F(3, 4), F(2, 3), F(61, 96), F(2, 3), F(137, 180))


def test_recurrence_input_validation():
    with pytest.raises(ValueError):
        q_via_recurrence(-1)
    with pytest.raises(ValueError):
        q_via_recurrence(2, 0)


def test_returns_tagged_series():
    q = q_via_recurrence(4, 10)
    assert isinstance(q, PowerSeriesInvX)
    assert q.order == 10
    # level 4 of the short family is the one starting 5/9 * x^{-3}
    assert q.coeffs[:4] == (0, 0, 0, F(5, 9))


def test_neg_h_rejects_constant_term():
    with pytest.raises(ArithmeticError):
        _neg_h_pure(PowerSeriesInvX.constant(1, 4))


# ---------------------------------------------------------------------------
# closed form


def test_closed_form_level_two_is_inverse_squares():
    for s in range(1, 5):
        assert q_closed_form(2, s) == F(1, s * s)


def test_closed_form_level_three():
    assert q_closed_form(3, 2) == F(3, 4)
    assert q_closed_form(3, 1) == 0


def test_closed_form_zero_pattern():
    for n_plus_1 in range(2, 7):
        for s in range(n_plus_1 - 1):
            assert q_closed_form(n_plus_1, s) == 0


def test_closed_form_input_validation():
    with pytest.raises(ValueError):
        q_closed_form(1, 3)
    with pytest.raises(ValueError):
        q_closed_form(3, -1)


def test_dual_paths_agree_exactly():
    order = 24
    for n in range(2, 6):
        rec = q_via_recurrence(n, order)
        for s in range(order + 1):
            assert rec.coeffs[s] == q_closed_form(n, s), (n, s)


def test_q_table_entries():
    table = {n: [q_closed_form(n, s) for s in range(7)] for n in range(2, 5)}
    assert table[2][2] == F(1, 4)
    assert table[3][2] == F(3, 4)
    assert table[4][2] == 0
    assert table[4] == list(q_via_recurrence(4, 6).coeffs)


def test_q_table_input_validation():
    with pytest.raises(ValueError):
        q_closed_form(1, 5)
    with pytest.raises(ValueError):
        q_closed_form(3, -1)


# ---------------------------------------------------------------------------
# the log-expansion family


def test_families_coincide_through_level_three():
    full = log_expansion_q_list(3, 16)
    for n in range(4):
        assert full[n] == q_via_recurrence(n, 16)


def test_families_split_at_level_four():
    full = log_expansion_q_list(5, 8)
    assert full[4].coeffs[:6] == (0, 0, F(1, 2), F(41, 36), F(509, 288), F(1937, 720))
    assert full[5].coeffs[:6] == (0, 0, 0, F(3, 4), F(69, 32), F(771, 160))
    short4 = q_via_recurrence(4, 8)
    assert short4.coeffs[:6] == (0, 0, 0, F(5, 9), F(9, 8), F(59, 30))
    assert full[4] != short4


def test_level_four_cross_term_by_hand():
    # level 4 of the full recurrence = short bracket + S[Q_2] * Li_1
    order = 12
    full = log_expansion_q_list(4, order)
    q2, q3 = full[2], full[3]
    from convpow.series import backward_diff

    bracket = li1_power(3, order) + shift_s(q2) * li1_power(1, order) - backward_diff(q3)
    assert full[4] == _neg_h_pure(bracket)


def test_each_level_is_built_once():
    log_expansion_q_list.cache_clear()
    q_via_recurrence.cache_clear()
    lists = [log_expansion_q_list(n, 64) for n in range(11)]
    assert log_expansion_q_list.cache_info().misses == 11
    for n in range(11):
        for k in range(n):
            assert all(lists[k][j] is lists[n][j] for j in range(k + 1)), (k, n)
    top = q_via_recurrence(10, 64)
    assert q_via_recurrence.cache_info().misses == 10  # levels 1..10; Q_1 is initial data
    assert q_via_recurrence(10, 64) is top
    assert all(q_via_recurrence(n, 64) is q_via_recurrence(n, 64) for n in range(1, 10))
    assert q_via_recurrence.cache_info().misses == 10


def test_each_nabla_is_built_once(monkeypatch):
    for module in (series, qcoeff):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    calls = []

    def counting(g):
        calls.append(g)
        return backward_diff(g)

    monkeypatch.setattr(series, "backward_diff", counting)
    monkeypatch.setattr(qcoeff, "backward_diff", counting)
    log_expansion_q_list(10, 64)
    assert len(calls) == 10  # nabla Q_0 .. nabla Q_9, once each


def test_log_expansion_coefficients_frozen():
    # sha256 over str() of every coefficient, frozen when each level was
    # still rebuilt from Q_0; any change to the exact values shows here
    qs = log_expansion_q_list(12, 64)
    digest = hashlib.sha256("\n".join(str(c) for q in qs for c in q.coeffs).encode()).hexdigest()
    assert digest == "67efa8b35ece0568d8eb241edafdca1b3c7c883987d6b16b23d9af3cc09c8d33"


def test_log_expansion_input_validation():
    with pytest.raises(ValueError):
        log_expansion_q_list(-1, 8)
    with pytest.raises(ValueError):
        log_expansion_q_list(3, 0)


# ---------------------------------------------------------------------------
# symbolic consistency of the iterated operator
#
# J^n[1](x) = sum_i P_i(x) ln(x)^i with P_i = (-1)^(n-i) Q_(n-i) / i!, and the
# operator satisfies (J^n[1])'(x) = J^(n-1)[1](x-1) / x.  Every step below
# (derivative, shift by one, division by x, truncated products) only ever
# reads coefficients of lower index, so the identity can be checked exactly,
# coefficient by coefficient, in the truncated ring.  This is the test that
# separates the two Q families.


def _j_parts(qs, n):
    return [qs[n - i] * F((-1) ** (n - i), math.factorial(i)) for i in range(n + 1)]


def _deriv(p):
    out = [F(0), F(0)]
    out.extend(-(m - 1) * p.coeffs[m - 1] for m in range(2, p.order + 1))
    return PowerSeriesInvX(out)


def _div_x(p):
    return PowerSeriesInvX([F(0)] + list(p.coeffs[:-1]))


def _at_x_minus_one(parts):
    """Re-expand sum_i R_i(x) ln(x)^i at x-1, using ln(x-1) = ln x - Li_1."""
    order = parts[0].order
    deg = len(parts) - 1
    out = [PowerSeriesInvX.zero(order) for _ in range(deg + 1)]
    for i, part in enumerate(parts):
        shifted = shift_s(part)
        for m in range(i + 1):
            li_pow = li1_power(i - m, order) * F(math.factorial(i - m))
            sign = F((-1) ** (i - m))
            out[m] = out[m] + shifted * (sign * binomial(i, m)) * li_pow
    return out


def _chain_rule_parts(qs, n):
    """Both sides of (J^n)' = J^(n-1)(x-1)/x as lists of ln-coefficients."""
    lhs_parts = _j_parts(qs, n)
    lhs = [
        _deriv(lhs_parts[i]) + (_div_x(lhs_parts[i + 1]) * F(i + 1) if i + 1 <= n else PowerSeriesInvX.zero(lhs_parts[0].order))
        for i in range(n)
    ]
    top = _deriv(lhs_parts[n])
    rhs = [_div_x(p) for p in _at_x_minus_one(_j_parts(qs, n - 1))]
    return lhs, top, rhs


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_log_expansion_family_satisfies_chain_rule(n):
    qs = log_expansion_q_list(n, 16)
    lhs, top, rhs = _chain_rule_parts(qs, n)
    assert top == PowerSeriesInvX.zero(16)
    for i in range(n):
        assert lhs[i] == rhs[i], f"ln^{i} coefficient differs at level {n}"


def test_short_family_satisfies_chain_rule_only_below_four():
    qs = [q_via_recurrence(n, 16) for n in range(5)]
    lhs, _, rhs = _chain_rule_parts(qs, 3)
    assert all(lhs[i] == rhs[i] for i in range(3))
    lhs, _, rhs = _chain_rule_parts(qs, 4)
    assert any(lhs[i] != rhs[i] for i in range(4))
