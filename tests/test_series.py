import random
import re
from fractions import Fraction

import pytest

from mixedhurwitz.errors import DomainError, WindowError
from mixedhurwitz.series import (
    QSeries,
    _euler_solve,
    exp_az,
    sinh_reciprocal,
    two_sinh_half,
)
from mixedhurwitz.quantum_curve import partition_coefficient, word_coefficient
from references import qseries_from_json, sinh_normalized


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
        QSeries([1, 1], -1).log()
    with pytest.raises(DomainError):
        QSeries([1, 1]).exp()
    with pytest.raises(DomainError):
        QSeries([1, 1], -1).exp()
    with pytest.raises(DomainError):
        QSeries.zero(-2).exp()
    with pytest.raises(WindowError):
        QSeries.zero(-1).exp()
    # a zero constant term that a scalar product left in place
    assert (QSeries([1, 2]) * 0).exp().coefficients(0, 1) == [1, 0]



def test_every_constructor_path_is_canonical():
    # coeffs is empty or starts with a nonzero coefficient, so the low of a
    # nonzero series is its valuation
    a = QSeries([0, 0, 3, 1, 0, 2], -1)
    zero = QSeries([1, 2]) * 0
    unit = QSeries([1, 1, 2, 0])
    positive = QSeries([0, 2, 1, 0])
    made = {
        "init": a, "empty": QSeries([]), "zero": QSeries.zero(3),
        "one": QSeries.one(3), "copy": a.copy(), "neg": -a,
        "scalar-mul": a * Fraction(1, 2), "mul-by-0": a * 0, "rmul-by-0": 0 * a,
        "zero-copy": zero.copy(), "zero-neg": -zero, "zero-shift": zero.shift(1),
        "mul": a * a, "mul-zero": a * zero, "add": a + a, "sub": a - a,
        "add-int": a + 0, "sub-int": a - 1, "inverse": unit.inverse(),
        "div": unit / unit, "scalar-div": a / 2, "shift": a.shift(2),
        "compose-scale": positive.compose_scale(0), "log": unit.log(),
        "exp": positive.exp(), "zero-exp": zero.exp(),
        "json": qseries_from_json(a.to_json()),
    }
    for name, s in made.items():
        assert not s.coeffs or s.coeffs[0] != 0, (name, s.low, s.coeffs)
    # the scalar zero keeps the window and moves low past it
    assert (zero.low, zero.high, zero.coeffs) == (2, 1, [])


def _reference_log(s):
    """[z^0..z^high] of log s, the integral of s'/s by the ring operations."""
    ds = QSeries([(s.low + i) * c for i, c in enumerate(s.coeffs)], s.low - 1)
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
        s = QSeries([1, *rand_coeffs(rng.randint(0, 8))], 0, "z")
        log = s.log()
        assert (log.var, log.high) == ("z", s.high)
        assert log.coefficients(0, s.high) == _reference_log(s)
        assert log.exp() == s
        f = QSeries(rand_coeffs(rng.randint(0, 8)), rng.randint(0, 3), "z")
        if f.low == 0:
            f = f.shift(1)
        exp = f.exp()
        assert (exp.var, exp.high) == ("z", f.high)
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
    S = sinh_normalized(6)
    assert S.coefficient(0) == 1
    assert S.coefficient(2) == Fraction(1, 24)
    assert S.coefficient(4) == Fraction(1, 1920)
    r = sinh_reciprocal(6)
    assert r.low == -1 and r.coefficient(-1) == 1
    assert r.coefficient(1) == Fraction(-1, 24)
    assert r.coefficient(3) == Fraction(7, 5760)
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
    assert qseries_from_json(doc) == s


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


def test_exp_az():
    e = exp_az(Fraction(1, 2), 4)
    assert e.coefficient(2) == Fraction(1, 8)
