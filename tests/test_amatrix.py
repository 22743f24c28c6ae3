import hashlib
import math

import pytest

from convpow.amatrix import AMatrix, a_determinant, check_special_values, compute_a_matrix


def test_smallest_matrix():
    assert compute_a_matrix(0).rows == ((1,),)


def test_s3_rows():
    assert compute_a_matrix(3).rows == (
        (1,),
        (0, 1),
        (0, 2, 2),
        (0, 2, 9, 6),
    )


def test_s6_bottom_row():
    assert compute_a_matrix(6).rows[6] == (0, 120, 3014, 11250, 12900, 5400, 720)


def test_last_row_examples():
    assert compute_a_matrix(0).rows[0] == (1,)
    assert compute_a_matrix(5).rows[5] == (0, 24, 350, 850, 600, 120)


def test_matrices_depend_on_s():
    # the recurrence weight (s-m+1) makes A^4 differ from A^3 already at (2,1)
    assert compute_a_matrix(4).entry(2, 1) == 3
    assert compute_a_matrix(3).entry(2, 1) == 2


def test_entry_accessor():
    a = compute_a_matrix(4)
    assert a.entry(3, 1) == 6
    assert a.entry(0, 0) == 1
    assert a.entry(1, 3) == 0  # above the diagonal
    with pytest.raises(IndexError):
        a.entry(5, 0)
    with pytest.raises(IndexError):
        a.entry(0, -1)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        compute_a_matrix(-2)


def test_special_values_up_to_twelve():
    for s in range(13):
        report = check_special_values(compute_a_matrix(s))
        assert report["ok"], report["failures"]
        assert all(report["identities"].values())


def test_special_values_report_failures():
    broken = AMatrix(2, ((1,), (0, 1), (0, 3, 2)))
    report = check_special_values(broken)
    assert not report["ok"]
    assert report["identities"]["column1_falling_factorial"] is False
    assert report["identities"]["diagonal_factorial"] is True
    assert {"entry": (2, 1), "got": 3, "want": 1} in report["failures"]


def test_determinants():
    assert a_determinant(compute_a_matrix(0)) == 1
    assert a_determinant(compute_a_matrix(3)) == 12
    assert a_determinant(compute_a_matrix(6)) == 24883200
    for s in range(9):
        assert a_determinant(compute_a_matrix(s)) == math.prod(math.factorial(k) for k in range(s + 1))


def test_rows_frozen():
    # sha256 over str() of the rows of A^0..A^40, frozen when each weight was
    # still a hand-rolled binomial times rising factorial per (j, mu); any
    # change to an entry shows here
    rows = "\n".join(str(compute_a_matrix(s).rows) for s in range(41))
    digest = hashlib.sha256(rows.encode()).hexdigest()
    assert digest == "06751b216a6365ed7f307a85405b9b42ccb26f20cc9e7eef1080ead733e251e3"


def test_interior_entries_positive():
    for s in range(1, 9):
        a = compute_a_matrix(s)
        for m in range(1, s + 1):
            for j in range(1, m + 1):
                assert a.entry(m, j) > 0, (s, m, j)


def test_diagonal_is_factorial():
    a = compute_a_matrix(5)
    assert [a.entry(m, m) for m in range(6)] == [math.factorial(m) for m in range(6)]
