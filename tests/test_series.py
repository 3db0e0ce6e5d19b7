import random
import re
from fractions import Fraction

import pytest

from mixedhurwitz.errors import DomainError, WindowError
from mixedhurwitz.series import QSeries, _euler_solve
from mixedhurwitz.quantum_curve import partition_coefficient, word_coefficient
from mixedhurwitz.util import inverse, s_product, times


def test_log_exp_examples():
    s = QSeries([1, 1, 0, 0, 0])
    assert s.log().coefficients(0, 4) == [
        0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)]
    s2 = QSeries([1, 2, 3])
    assert s2.log().exp() == s2
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
        QSeries([0, 1]).log()
    with pytest.raises(DomainError):
        QSeries([1, 1]).exp()
    with pytest.raises(DomainError):
        QSeries([]).log()
    with pytest.raises(WindowError):
        QSeries.zero(-1).exp()
    # a zero constant term that a scalar product left in place
    assert (QSeries([1, 2]) * 0).exp().coefficients(0, 1) == [1, 0]



def test_every_constructor_path_is_canonical():
    # coeffs[e] is the Fraction coefficient of q^e through the window's end
    a = QSeries([0, 0, 3, 1, 0, 2])
    zero = QSeries([1, 2]) * 0
    unit = QSeries([1, 1, 2, 0])
    positive = QSeries([0, 2, 1, 0])
    made = {
        "init": (a, 5), "empty": (QSeries([]), -1), "zero": (QSeries.zero(3), 3),
        "one": (QSeries.one(3), 3), "neg": (-a, 5),
        "scalar-mul": (a * Fraction(1, 2), 5), "mul-by-0": (a * 0, 5),
        "rmul-by-0": (0 * a, 5), "zero-neg": (-zero, 1), "mul": (a * a, 5),
        "mul-zero": (a * zero, 1), "mul-short": (a * unit, 3), "add": (a + a, 5),
        "add-short": (a + unit, 3), "sub": (a - a, 5), "add-int": (a + 0, 5),
        "sub-int": (a - 1, 5), "inverse": (unit.inverse(), 3),
        "div": (unit / unit, 3), "scalar-div": (a / 2, 5), "log": (unit.log(), 3),
        "exp": (positive.exp(), 3), "zero-exp": (zero.exp(), 1),
    }
    for name, (s, high) in made.items():
        assert s.high == high == len(s.coeffs) - 1, (name, s.coeffs)
        assert all(type(c) is Fraction for c in s.coeffs), (name, s.coeffs)
    # the scalar zero keeps the window and its zero coefficients
    assert zero.coeffs == [0, 0]
    assert (a - 1).coeffs[:3] == [-1, 0, 3]


def _reference_log(s):
    """[q^0..q^high] of log s, the integral of s'/s by the ring operations."""
    ds = QSeries([e * c for e, c in enumerate(s.coeffs)][1:])
    integrand = ds * s.inverse()
    return [0] + [integrand.coefficient(e - 1) / e for e in range(1, s.high + 1)]


def _reference_exp(f):
    """[z^0..z^high] of exp f, solving E' = f'E coefficient by coefficient."""
    out = [Fraction(1)]
    for n in range(1, f.high + 1):
        out.append(sum(j * f.coefficient(j) * out[n - j] for j in range(1, n + 1)) / n)
    return out


def test_log_and_exp_match_the_coefficientwise_reference():
    rng = random.Random(31)

    def rand_coeffs(n):
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                if rng.random() < 0.8 else Fraction(0) for _ in range(n)]

    for _ in range(300):
        s = QSeries([1, *rand_coeffs(rng.randint(0, 8))])
        log = s.log()
        assert log.high == s.high
        assert log.coefficients(0, s.high) == _reference_log(s)
        assert log.exp() == s
        # valuation >= 1: a leading 0, then perhaps more
        f = QSeries([0] * rng.randint(1, 4) + rand_coeffs(rng.randint(0, 8)))
        exp = f.exp()
        assert exp.high == f.high
        assert exp.coefficients(0, f.high) == _reference_exp(f)
        assert exp.log() == f


# sector columns by degree, index 0 unused, on one profile slot: each key's
# column at most as long as those of its subkeys
UNEQUAL = {
    (0, 0, 0, ((),)): [0, Fraction(1, 2), -3, Fraction(2, 7), 5, 1],
    (1, 0, 0, ((),)): [0, 1, Fraction(-1, 3), 4, 0],
    (0, 0, 0, ((2,),)): [0, 0, 2, Fraction(5, 6)],
    (1, 0, 0, ((2,),)): [0, 0, 1, 3],
}


@pytest.mark.parametrize("log", [True, False], ids=["log", "exp"])
def test_euler_solve_round_trips_columns_of_unequal_lengths(log):
    out = _euler_solve(UNEQUAL, log)
    assert {key: len(col) for key, col in out.items()} == \
        {key: len(col) for key, col in UNEQUAL.items()}
    assert all(type(v) is Fraction for col in out.values() for v in col)
    assert _euler_solve(out, not log) == UNEQUAL
    # a key's column reads its subkeys only through its own last degree
    for key, col in UNEQUAL.items():
        cut = {k: c[:len(col)] for k, c in UNEQUAL.items()}
        assert _euler_solve(cut, log)[key] == out[key]


@pytest.mark.parametrize("log", [True, False], ids=["log", "exp"])
@pytest.mark.parametrize("subkey,column", [
    ((1, 0, 0, ((),)), None),
    ((0, 0, 0, ((2,),)), [0, 0, 2]),
], ids=["missing", "short"])
def test_euler_solve_refuses_a_missing_or_short_subkey_column(log, subkey, column):
    family = {**UNEQUAL, subkey: column}
    if column is None:
        del family[subkey]
    with pytest.raises(DomainError, match=re.escape(
            f"subkey {subkey} of {(1, 0, 0, ((2,),))} has no column through degree 3")):
        _euler_solve(family, log)


def test_sinh_expansions():
    # lists in u = z^2: S(z) = sinh(z/2)/(z/2) and 1/S(z)
    assert s_product(1, (), 2) == [1, Fraction(1, 24), Fraction(1, 1920)]
    r = s_product(-1, (), 3)
    assert r[:3] == [1, Fraction(-1, 24), Fraction(7, 5760)]
    # product is 1 exactly
    assert times(r, s_product(1, (), 3)) == [1, 0, 0, 0]
    # S(2z) = sinh(z)/z, and S(z)^2 S(2z) / S(2z) = S(z)^2
    assert s_product(0, (2,), 2) == [1, Fraction(1, 6), Fraction(1, 120)]
    assert times(s_product(2, (2,), 4), inverse(s_product(0, (2,), 4))) \
        == s_product(2, (), 4)


def test_window_errors_not_silent_zero():
    s = QSeries([1, 2, 3])
    with pytest.raises(WindowError):
        s.coefficient(3)
    assert s.coefficient(-5) == 0  # below q^0 is a true zero


def test_ring_axioms_random():
    rng = random.Random(7)

    def rand_series():
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(6)]
        return QSeries([0] * rng.randint(0, 2) + coeffs)

    for _ in range(40):
        a, b, c = rand_series(), rand_series(), rand_series()
        lhs = (a * b) * c
        rhs = a * (b * c)
        hi = min(lhs.high, rhs.high)
        assert all(lhs.coefficient(e) == rhs.coefficient(e)
                   for e in range(hi + 1))
        lhs = a * (b + c)
        rhs = a * b + a * c
        hi = min(lhs.high, rhs.high)
        assert all(lhs.coefficient(e) == rhs.coefficient(e)
                   for e in range(hi + 1))


def test_division_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        a = QSeries([0] * rng.randint(0, 1)
                    + [Fraction(rng.randint(-3, 3)) for _ in range(6)])
        b = QSeries([Fraction(rng.randint(1, 3))]
                    + [Fraction(rng.randint(-3, 3)) for _ in range(5)])
        q = a / b
        back = q * b
        hi = min(back.high, a.high)
        assert all(back.coefficient(e) == a.coefficient(e)
                   for e in range(hi + 1))


def _naive_product(a, b):
    """a * b through the smaller window, by a term-by-term Fraction
    convolution."""
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[:n - i]):
            out[i + j] += x * y
    return out


def _rand_coeffs(rng, n):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 60))
            if rng.random() < 0.7 else Fraction(0) for _ in range(n)]


def test_product_matches_naive_convolution():
    rng = random.Random(23)

    def rand_series():
        if rng.random() < 0.1:
            return QSeries.zero(rng.randint(-1, 6))
        return QSeries(_rand_coeffs(rng, rng.randint(1, 9)))

    for _ in range(300):
        a, b = rand_series(), rand_series()
        p = a * b
        assert p.coeffs == _naive_product(a.coeffs, b.coeffs)
        assert all(type(c) is Fraction for c in p.coeffs)


def test_kernel_matches_naive_convolution():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(0, 9)
        a, b = _rand_coeffs(rng, n), _rand_coeffs(rng, n)
        assert times(a, b) == _naive_product(a, b)
        ints = [rng.randint(-50, 50) for _ in range(n)]
        assert times(ints, ints) == _naive_product(ints, ints)
        if n and a[0]:
            inv = inverse(a)
            assert len(inv) == n and all(type(c) is Fraction for c in inv)
            assert _naive_product(a, inv) == [1] + [0] * (n - 1)


def test_biseries_window_and_atoms():
    # the two-variable series is gone: the atoms act on the exact Z of
    # quantum_curve cell by cell, so no cell lies outside a window
    assert partition_coefficient("monotone", 1, 2, 0) == 2
    assert word_coefficient("y", "monotone", 1, 1, 2) == -4  # -2 Z(2, 0)
    assert word_coefficient("x", "monotone", 1, 3, 0) == 2   # Z(2, 1)
    # y-hat lowers the hbar power below every cell of Z: an exact 0, where the
    # windowed image raised WindowError
    assert word_coefficient("y", "monotone", 1, 3, 0) == 0
    assert word_coefficient("y", "monotone", 1, 30, 30) != 0
