import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from convpow import qcoeff, series
from convpow.combinatorics import stirling1_unsigned
from convpow.qcoeff import log_expansion_q_list, q_closed_form, q_via_recurrence
from convpow.series import PowerSeriesInvX, backward_diff, harmonic_h, li1_power, shift_s

F = Fraction


def test_initial_data():
    assert q_via_recurrence(0, 6) == (PowerSeriesInvX.constant(1, 6),)
    assert q_via_recurrence(1, 6) == (PowerSeriesInvX.constant(1, 6), PowerSeriesInvX.zero(6))


def test_q2_is_dilogarithm():
    q2 = q_via_recurrence(2, 20)[2]
    assert q2.coeffs[0] == 0
    assert all(q2.coeffs[k] == F(1, k * k) for k in range(1, 21))


def q3_bracket(k):
    """Direct evaluation of the level-3 coefficient.

    One integration step applied to li1_power(2) - nabla[Li_2]:
    q_{3,k} = ( s(k,2)/k! + sum_{r=1}^{k-1} C(k-1,r)/(k-r)^2 ) / k.
    """
    acc = F(stirling1_unsigned(k, 2), math.factorial(k))
    acc += sum(math.comb(k - 1, r) * F(1, (k - r) ** 2) for r in range(1, k))
    return acc / k


def test_q3_against_bracket_oracle():
    q3 = q_via_recurrence(3, 20)[3]
    for k in range(2, 21):
        assert q3.coeffs[k] == q3_bracket(k)
    # the first few, frozen: note the repeated 2/3 at k=3 and k=5
    assert q3.coeffs[2:7] == (F(3, 4), F(2, 3), F(61, 96), F(2, 3), F(137, 180))


def test_recurrence_input_validation():
    with pytest.raises(ValueError):
        q_via_recurrence(-1, 6)
    with pytest.raises(ValueError):
        q_via_recurrence(2, 0)


def test_returns_tagged_series():
    ladder = q_via_recurrence(4, 10)
    assert len(ladder) == 5
    q = ladder[4]
    assert isinstance(q, PowerSeriesInvX)
    assert q.order == 10
    # level 4 of the short family is the one starting 5/9 * x^{-3}
    assert q.coeffs[:4] == (0, 0, 0, F(5, 9))


def test_neg_h_rejects_constant_term():
    # the recurrence negates its bracket before H; a constant term is still refused
    with pytest.raises(ArithmeticError):
        harmonic_h(-PowerSeriesInvX.constant(1, 4))


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
    ladder = q_via_recurrence(5, order)
    for n in range(2, 6):
        rec = ladder[n]
        for s in range(order + 1):
            assert rec.coeffs[s] == q_closed_form(n, s), (n, s)


def test_q_table_entries():
    table = {n: [q_closed_form(n, s) for s in range(7)] for n in range(2, 5)}
    assert table[2][2] == F(1, 4)
    assert table[3][2] == F(3, 4)
    assert table[4][2] == 0
    assert table[4] == list(q_via_recurrence(4, 6)[4].coeffs)


def test_q_table_input_validation():
    with pytest.raises(ValueError):
        q_closed_form(1, 5)
    with pytest.raises(ValueError):
        q_closed_form(3, -1)


# ---------------------------------------------------------------------------
# the log-expansion family


def test_families_coincide_through_level_three():
    full = log_expansion_q_list(3, 16)
    short = q_via_recurrence(3, 16)
    for n in range(4):
        assert full[n] == short[n]


def test_families_split_at_level_four():
    full = log_expansion_q_list(5, 8)
    assert full[4].coeffs[:6] == (0, 0, F(1, 2), F(41, 36), F(509, 288), F(1937, 720))
    assert full[5].coeffs[:6] == (0, 0, 0, F(3, 4), F(69, 32), F(771, 160))
    short4 = q_via_recurrence(4, 8)[4]
    assert short4.coeffs[:6] == (0, 0, 0, F(5, 9), F(9, 8), F(59, 30))
    assert full[4] != short4


def test_level_four_cross_term_by_hand():
    # level 4 of the full recurrence = short bracket + S[Q_2] * Li_1
    order = 12
    full = log_expansion_q_list(4, order)
    q2, q3 = full[2], full[3]
    from convpow.series import backward_diff

    bracket = li1_power(3, order) + shift_s(q2) * li1_power(1, order) - backward_diff(q3)
    assert full[4] == harmonic_h(-bracket)


def test_each_level_is_built_once(monkeypatch):
    log_expansion_q_list.cache_clear()
    lists = [log_expansion_q_list(n, 64) for n in range(11)]
    assert log_expansion_q_list.cache_info().misses == 11
    for n in range(11):
        for k in range(n):
            assert all(lists[k][j] is lists[n][j] for j in range(k + 1)), (k, n)
    # the short family is one forward pass: one H per level 2..10, no call
    # to itself, and nothing kept, so a second call builds the ladder again
    integrations, requests = [], []

    def counting_h(g):
        integrations.append(g)
        return harmonic_h(g)

    def counting_q(*args):
        requests.append(args)
        return q_via_recurrence(*args)

    monkeypatch.setattr(qcoeff, "harmonic_h", counting_h)
    monkeypatch.setattr(qcoeff, "q_via_recurrence", counting_q)
    top = qcoeff.q_via_recurrence(10, 64)
    assert (len(integrations), requests) == (9, [(10, 64)])
    again = qcoeff.q_via_recurrence(10, 64)
    assert (len(integrations), len(requests)) == (18, 2)
    assert again == top and again[10] is not top[10]


DEEP_LEVELS = """
import sys
from convpow.fdecomp import beta_table
from convpow.qcoeff import log_expansion_q_list, q_via_recurrence
sys.setrecursionlimit(40)
log_expansion_q_list(50, 8)
q_via_recurrence(50, 8)
q_via_recurrence(3000, 2)
beta_table(50, 8, 64)
print("reached level 50")
"""


def test_cold_levels_above_the_recursion_limit():
    # the pipeline tables request their lower levels bottom-up and the short
    # family is one forward loop, so a cold call to level 50 (or 3000) needs
    # far fewer than 50 frames
    src = os.path.dirname(os.path.dirname(qcoeff.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", DEEP_LEVELS], capture_output=True, env=env, text=True, timeout=300)
    assert proc.stderr == ""
    assert proc.stdout == "reached level 50\n"


def test_each_layer_is_one_product(monkeypatch):
    for fn in vars(qcoeff).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    products, operators = [], []
    mul = PowerSeriesInvX.__mul__

    def counting_mul(self, other):
        if isinstance(other, PowerSeriesInvX):
            products.append(other)
        return mul(self, other)

    def counting(name, fn):
        return lambda g: operators.append(name) or fn(g)

    monkeypatch.setattr(PowerSeriesInvX, "__mul__", counting_mul)
    for name, fn in (("backward_diff", backward_diff), ("harmonic_h", harmonic_h), ("shift_s", shift_s)):
        for module in (series, qcoeff):
            monkeypatch.setattr(module, name, counting(name, fn), raising=False)
    log_expansion_q_list(10, 64)
    # levels 2..10 read the layers Ein^1..Ein^9 / b!; Ein itself is no
    # product, each higher layer is one
    assert (len(products), operators) == (8, [])


def _literal_ladder(n_max, order):
    # Q_{k+1} = -H[sum_{j=0}^{k-1} S[Q_j] * li1_power(k-j) - nabla[Q_k]], every
    # product formed, S[Q_0] = 1 and S[Q_1] = 0 included
    qs = [PowerSeriesInvX.constant(1, order), PowerSeriesInvX.zero(order)]
    for k in range(1, n_max):
        bracket = -backward_diff(qs[k])
        for j in range(k):
            bracket = bracket + shift_s(qs[j]) * li1_power(k - j, order)
        qs.append(harmonic_h(-bracket))
    return qs[: n_max + 1]


LADDER_CASES = [pytest.param(12, order, id=str(order)) for order in (16, 64)]
LADDER_CASES += [pytest.param(top, order, id=f"{order}-to-{top}") for top, order in ((14, 1), (14, 2), (14, 3), (14, 8), (50, 8))]


@pytest.mark.parametrize("top, order", LADDER_CASES)
def test_ladder_matches_the_literal_recurrence(top, order):
    # the closed form equals the recurrence with every product formed,
    # S[Q_0] * li1_power(k) and S[Q_1] * li1_power(k-1) included
    want = _literal_ladder(top, order)
    assert [q.conv_abscissa for q in want] == [1, 1] + list(range(2, top + 1))
    for n in range(top + 1):
        got = log_expansion_q_list(n, order)
        assert [(q.den, q.ints, q.conv_abscissa) for q in got] == [
            (q.den, q.ints, q.conv_abscissa) for q in want[: n + 1]
        ], n


def test_log_expansion_coefficients_frozen():
    # sha256 over str() of every coefficient, frozen when each level was
    # still rebuilt from Q_0; any change to the exact values shows here
    qs = log_expansion_q_list(12, 64)
    digest = hashlib.sha256("\n".join(str(c) for q in qs for c in q.coeffs).encode()).hexdigest()
    assert digest == "67efa8b35ece0568d8eb241edafdca1b3c7c883987d6b16b23d9af3cc09c8d33"


@pytest.mark.parametrize(
    "n_max, order, want",
    [
        (30, 64, "ef6bd98b8e102de1b2fdfb6bd1b73df42aac84a5e0967a59cabf2ddffc3bb89b"),
        (50, 8, "821fdf34a0accc7def9e816268f9bfc955a1fc26afb28aff67a04d8ee99b3cc0"),
    ],
)
def test_log_expansion_coefficients_frozen_deep(n_max, order, want):
    # the same digest at deeper levels, frozen from the S[Q_j] * Li_1
    # recurrence the closed form replaced
    qs = log_expansion_q_list(n_max, order)
    assert hashlib.sha256("\n".join(str(c) for q in qs for c in q.coeffs).encode()).hexdigest() == want


def test_closed_form_frozen():
    # sha256 over str() of q_closed_form(n, s) on the dualpath rectangle,
    # frozen when the sum still ran on hand-rolled binomials
    values = "\n".join(str(q_closed_form(n, s)) for n in range(2, 9) for s in range(41))
    digest = hashlib.sha256(values.encode()).hexdigest()
    assert digest == "4fb7107e0771c21a362d1af7df06f6791efd0fb7f0912e09b72d8959e425e431"


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
            out[m] = out[m] + shifted * (sign * math.comb(i, m)) * li_pow
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
    qs = q_via_recurrence(4, 16)
    lhs, _, rhs = _chain_rule_parts(qs, 3)
    assert all(lhs[i] == rhs[i] for i in range(3))
    lhs, _, rhs = _chain_rule_parts(qs, 4)
    assert any(lhs[i] != rhs[i] for i in range(4))
