import random
from fractions import Fraction

import pytest

from mixedhurwitz.errors import DomainError, WindowError
from mixedhurwitz.series import (
    BiSeries,
    QSeries,
    coefficient_extract,
    exp_az,
    series_log_exp,
    sinh_normalized,
    sinh_reciprocal,
    two_sinh_half,
)


def test_log_exp_examples():
    s = QSeries([1, 1, 0, 0, 0])
    assert series_log_exp(s, "log").coefficients(0, 4) == [
        0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)]
    s2 = QSeries([1, 2, 3])
    assert series_log_exp(series_log_exp(s2, "log"), "exp") == s2
    # log of prod (1-q^n)^{-1}
    p = QSeries([1, 0, 0, 0, 0])
    for n in range(1, 5):
        p = p * QSeries([1] + [0] * (n - 1) + [-1] + [0] * (4 - n)).inverse()
    assert p.log().coefficients(1, 4) == [1, Fraction(3, 2), Fraction(4, 3),
                                          Fraction(7, 4)]


def test_log_exp_preconditions():
    with pytest.raises(DomainError):
        QSeries([2, 1, 1]).log()
    with pytest.raises(DomainError):
        QSeries([1, 1]).exp()


def test_sinh_expansions():
    S = sinh_normalized(6)
    assert S.coefficient(0) == 1
    assert S.coefficient(2) == Fraction(1, 24)
    assert S.coefficient(4) == Fraction(1, 1920)
    r = sinh_reciprocal(6)
    assert r.low == -1 and r.coefficient(-1) == 1
    assert r.coefficient(1) == Fraction(-1, 24)
    assert r.coefficient(3) == Fraction(7, 5760)
    assert coefficient_extract(r, -1) == 1
    # product is 1 exactly
    one = r * two_sinh_half(8)
    assert one.coefficient(0) == 1 and one.coefficient(2) == 0


def test_window_errors_not_silent_zero():
    s = QSeries([1, 2, 3])
    with pytest.raises(WindowError):
        s.coefficient(3)
    assert s.coefficient(-5) == 0  # below the valuation is a true zero


def test_ring_axioms_random():
    rng = random.Random(7)

    def rand_series():
        low = rng.randint(-2, 2)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(6)]
        return QSeries(coeffs, low)

    for _ in range(40):
        a, b, c = rand_series(), rand_series(), rand_series()
        lhs = (a * b) * c
        rhs = a * (b * c)
        hi = min(lhs.high, rhs.high)
        lo = min(lhs.low, rhs.low)
        assert all(lhs.coefficient(e) == rhs.coefficient(e)
                   for e in range(lo, hi + 1))
        lhs = a * (b + c)
        rhs = a * b + a * c
        hi = min(lhs.high, rhs.high)
        assert all(lhs.coefficient(e) == rhs.coefficient(e)
                   for e in range(min(lhs.low, rhs.low), hi + 1))


def test_division_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        a = QSeries([Fraction(rng.randint(-3, 3)) for _ in range(6)], rng.randint(-1, 1))
        b = QSeries([Fraction(rng.randint(1, 3))]
                    + [Fraction(rng.randint(-3, 3)) for _ in range(5)],
                    rng.randint(-1, 1))
        q = a / b
        back = q * b
        hi = min(back.high, a.high)
        assert all(back.coefficient(e) == a.coefficient(e)
                   for e in range(min(a.low, back.low), hi + 1))


def _naive_product(a, b):
    """The window and coefficients of a * b, by a term-by-term Fraction
    convolution."""
    hi = min(a.high + b.low, b.high + a.low)
    out = {}
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            e = a.low + i + b.low + j
            if e <= hi:
                out[e] = out.get(e, Fraction(0)) + x * y
    nonzero = [e for e, c in out.items() if c]
    low = min(nonzero, default=hi + 1)
    return low, hi, [out.get(e, Fraction(0)) for e in range(low, hi + 1)]


def test_product_matches_naive_convolution():
    rng = random.Random(23)

    def rand_series():
        if rng.random() < 0.1:
            return QSeries.zero(rng.randint(-3, 6))
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 60))
                  if rng.random() < 0.7 else Fraction(0)
                  for _ in range(rng.randint(1, 9))]
        return QSeries(coeffs, rng.randint(-3, 3))

    for _ in range(300):
        a, b = rand_series(), rand_series()
        p = a * b
        assert (p.low, p.high, p.coeffs) == _naive_product(a, b)
        assert all(type(c) is Fraction for c in p.coeffs)


def test_laurent_low_bookkeeping():
    a = QSeries([1, 1], -2)
    b = QSeries([2, 0, 1], 1)
    assert (a * b).low == -1


def test_json_round_trip():
    s = QSeries([1, Fraction(-24), Fraction(1, 2)], -1, "q")
    doc = s.to_json()
    assert doc == {"var": "q", "low": -1, "coeffs": ["1", "-24", "1/2"]}
    assert QSeries.from_json(doc) == s


def test_biseries_window_and_atoms():
    Z = BiSeries(3, 0, 3, 0)
    Z.set(2, 0, 1)
    img = Z.apply_y()
    assert img.coefficient(1, 1) == -2
    x_img = Z.apply_x()
    assert x_img.coefficient(3, 0) == 1
    with pytest.raises(WindowError):
        img.coefficient(3, 0)


def test_exp_az():
    e = exp_az(Fraction(1, 2), 4)
    assert e.coefficient(2) == Fraction(1, 8)


def test_biseries_log_exp_round_trip():
    from mixedhurwitz.quantum_curve import partition_function

    for g in (0, 1):
        Z = partition_function("monotone", g, 5, 5)
        F = series_log_exp(Z, "log")
        back = series_log_exp(F, "exp")
        for d, e in Z.cells():
            assert back.coefficient(d, e) == Z.coefficient(d, e), (g, d, e)
    with pytest.raises(DomainError):
        series_log_exp(QSeries([1, 1]), "nope")
