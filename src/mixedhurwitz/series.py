"""Truncated power series in q over exact rationals.

A QSeries holds the coefficients of q^0..q^high; reading one past high
raises WindowError rather than returning a silent zero.  Arithmetic keeps
the smaller window.  Products and inverses run on the truncated-series
kernel in util; a product of two QSeries is one integer convolution over
the product of their common denominators.

_euler_solve is the package's one exponential formula: exact sector columns
in, their log or exp out as exact columns of the same keys and lengths.
characters, double_recursion, suites, QSeries.log and QSeries.exp (a QSeries
is the family of the empty sector) call it; the integer scaling it solves in
stays inside it.
"""

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, lcm
from operator import add, mul

from .errors import DomainError, WindowError
from .util import inverse, rat_str, splits, times


class QSeries:
    """Truncated power series in q with exact rational coefficients.

    coeffs[e] is the coefficient of q^e, known exactly for e = 0..high.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [Fraction(c) for c in coeffs]

    @property
    def high(self):
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, high):
        return cls([0] * (high + 1))

    @classmethod
    def one(cls, high):
        return cls([1] + [0] * high)

    def coefficient(self, exponent: int) -> Fraction:
        """Exact coefficient; raises WindowError past the window, and is 0
        below q^0."""
        if exponent > self.high:
            raise WindowError(f"coefficient of q^{exponent} outside window "
                              f"(valid through {self.high})")
        if exponent < 0:
            return Fraction(0)
        return self.coeffs[exponent]

    def coefficients(self, lo, hi):
        return [self.coefficient(e) for e in range(lo, hi + 1)]

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        return self.coeffs[:n] == other.coeffs[:n]

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries([other] + [0] * self.high)
        return QSeries(map(add, self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSeries([c * other for c in self.coeffs])
        n = min(len(self.coeffs), len(other.coeffs))
        # one integer convolution over the product of the common denominators
        a, da = _over_common_denominator(self.coeffs[:n])
        b, db = _over_common_denominator(other.coeffs[:n])
        den = da * db
        return QSeries([Fraction(c, den) for c in times(a, b)])

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; the constant term must be nonzero."""
        if not self.coeffs or not self.coeffs[0]:
            raise DomainError("cannot invert a series with constant term 0")
        return QSeries(inverse(self.coeffs))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * other.inverse()

    def log(self):
        """Formal log; requires constant term exactly 1."""
        if not self.coeffs or self.coeffs[0] != 1:
            raise DomainError("log requires constant term 1")
        return QSeries(_euler_solve({_EMPTY: self.coeffs}, log=True)[_EMPTY])

    def exp(self):
        """Formal exp; requires constant term 0."""
        if self.coeffs and self.coeffs[0]:
            raise DomainError("exp requires constant term 0")
        if self.high < 0:
            raise WindowError("series window too small for exp")
        col = _euler_solve({_EMPTY: self.coeffs}, log=False)[_EMPTY]
        col[0] = Fraction(1)
        return QSeries(col)

    def __repr__(self):
        terms = [f"{rat_str(c)}*q^{e}" for e, c in enumerate(self.coeffs[:8]) if c]
        body = " + ".join(terms) if terms else "0"
        return f"QSeries({body} + O(q^{self.high + 1}))"


def _over_common_denominator(values):
    """Integers n_i and one denominator D with values[i] = n_i / D."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


# ---------------------------------------------------------------------------
# the exponential formula on sector families: the potential log and its exp
#
# A sector is (k, l, m, profiles, d) with profiles a tuple of 1-free
# partitions, one per profile slot.  The k transpositions carry divided-power
# grading (their positions interleave freely when components merge), the
# monotone and strict blocks merge in exactly one way, so l, m, the profile
# content and the degree are plain additive gradings.


@cache
def _profile_splits(profiles):
    """(part, profiles - part) for every sub-profile part of profiles."""
    out = [((), ())]
    for p in profiles:
        out = [(a + (s,), b + (r,)) for a, b in out for s, r, _ in splits(p)]
    return out


def _euler_terms(key):
    """(C(k, k1), key1, key - key1) for every subkey key1 of key."""
    k, l, m, profiles = key
    return [(comb(k, k1), (k1, l1, m1, prof1), (k - k1, l - l1, m - m1, prof2))
            for k1, l1, m1 in product(range(k + 1), range(l + 1), range(m + 1))
            for prof1, prof2 in _profile_splits(profiles)]


def _subkeys(key):
    """All (k', l', m', profiles') componentwise inside (k, l, m, profiles)."""
    return [key1 for _, key1, _ in _euler_terms(key)]


@cache
def _binomial_row(n):
    return tuple(comb(n, j) for j in range(n + 1))


def _euler_sum(terms, d, conn, disc):
    """Sum of C(k, k1) C(d-1, d1-1) conn[s1] disc[s2] over s1 + s2 = (key, d)
    with 1 <= d1 < d, terms the (C(k, k1), slot of key1, slot of key - key1)
    of _euler_terms(key).  conn and disc are pairs (columns, lows) of lists
    by slot: per-degree lists of integers, and a degree >= 1 below which the
    column is 0.

    With D the degree operator, D log(1 + P) = DP / (1 + P) gives, sector by
    sector, d P_s = d L_s + sum C(k, k1) d1 L_s1 P_s2.  Scale each degree-d
    value by w_d = d! c^d: then w_d = C(d, d1) w_d1 w_d2, and the identity
    times w_d / d is the division-free P~_s = L~_s + this sum with conn = L~
    and disc = P~.  Taken in increasing degree, it yields the log L from P
    and the exp P from L (_euler_solve).
    """
    (a, a_low), (b, b_low) = conn, disc
    row = _binomial_row(d - 1)  # row[d1 - 1] = C(d - 1, d1 - 1)
    total = 0
    for c, s1, s2 in terms:
        lo, hi = a_low[s1], d - b_low[s2]  # the d1 where both can be nonzero
        if lo <= hi:
            total += c * sum(map(mul, map(mul, row[lo - 1:hi], a[s1][lo:hi + 1]),
                                 b[s2][d - lo:d - hi - 1:-1]))
    return total


def _euler_solve(columns, log):
    """The log (log=True) or the exp of a family of sector columns.

    columns maps (k, l, m, profiles) to a list of exact values by degree,
    index 0 unused; each key is solved through the last degree of its own
    column.  Returns the solved columns, same keys and lengths, as Fractions
    with index 0 = 0.  Raises DomainError when a subkey of a key has no
    column or a shorter one.  The solve runs on integers: each degree-d
    value scaled by w_d = d! c^d, c the lcm of all input denominators.  Keys
    are numbered once, and every column and lowest degree is a list by slot.
    """
    keys = list(columns)
    slot = {key: i for i, key in enumerate(keys)}
    dmax = max(map(len, columns.values()), default=1) - 1
    c = lcm(*(v.denominator for col in columns.values() for v in col))
    w = [1]
    for d in range(1, dmax + 1):
        w.append(w[-1] * d * c)
    given = [[v.numerator * (wd // v.denominator) for v, wd in zip(col, w)]
             for col in columns.values()]
    out = [[0] * len(col) for col in given]
    # the lowest nonzero degree of each column; dmax + 1 while it has none
    given_low = [next((d for d in range(1, len(col)) if col[d]), dmax + 1)
                 for col in given]
    out_low = [dmax + 1] * len(keys)
    conn, disc = (out, out_low), (given, given_low)
    if not log:
        conn, disc = disc, conn
    sign = -1 if log else 1
    # a proper subkey has fewer transpositions or profile parts: solved first
    for key in sorted(columns, key=lambda key: sum(key[:3]) + sum(map(len, key[3]))):
        i, terms = slot[key], _euler_terms(key)
        col = out[i]
        for _, key1, _ in terms:
            if len(columns.get(key1, ())) < len(col):
                raise DomainError(f"subkey {key1} of {key} has no column "
                                  f"through degree {len(col) - 1}")
        # a term whose other column is 0 through this key's degrees never adds
        terms = [(c, s1, s2) for c, s1, s2 in ((c, slot[key1], slot[key2])
                                               for c, key1, key2 in terms)
                 if i in (s1, s2) or conn[1][s1] + disc[1][s2] < len(col)]
        for d in range(1, len(col)):
            col[d] = given[i][d] + sign * _euler_sum(terms, d, conn, disc)
            if col[d] and out_low[i] > d:
                out_low[i] = d
    return {key: list(map(Fraction, col, w)) for key, col in zip(keys, out)}


_EMPTY = (0, 0, 0, ())  # a QSeries is this sector's family over the degree
