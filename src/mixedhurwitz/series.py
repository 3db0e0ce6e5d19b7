"""Truncated univariate power/Laurent series over exact rationals.

Every series carries its valid window; extracting a coefficient outside the
window raises WindowError rather than returning a silent zero.  Truncation is
propagated pessimistically through arithmetic.  A product of two QSeries is
one integer convolution over the product of their common denominators.

_euler_solve is the package's one exponential formula: exact sector columns
in, their log or exp out as exact columns of the same keys and lengths.
characters, double_recursion, QSeries.log and QSeries.exp (a QSeries is the
family of the empty sector) each make one call; the integer scaling it
solves in stays inside it.
"""

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial, lcm
from operator import mul

from .errors import DomainError, WindowError
from .util import rat_str


class QSeries:
    """Univariate truncated Laurent series with exact rational coefficients.

    coeffs[i] is the coefficient of var**(low+i); the series is known exactly
    for exponents low..high (inclusive) and implicitly zero below low.  Every
    series is canonical: coeffs is empty or coeffs[0] != 0, so a nonzero
    series has valuation low.
    """

    __slots__ = ("var", "low", "coeffs")

    def __init__(self, coeffs, low=0, var="q"):
        self.var = var
        self.low = low
        self.coeffs = [Fraction(c) for c in coeffs]
        self._normalize()

    def _normalize(self):
        # strip leading zeros, moving the valuation up but keeping the window
        while self.coeffs and self.coeffs[0] == 0:
            self.coeffs.pop(0)
            self.low += 1
        if not self.coeffs:
            # keep an explicit window marker for the zero series
            self.coeffs = []

    @property
    def high(self):
        return self.low + len(self.coeffs) - 1

    @classmethod
    def zero(cls, high, var="q"):
        s = cls([], 0, var)
        s.low = high + 1
        return s

    @classmethod
    def one(cls, high, var="q"):
        return cls([1] + [0] * high, 0, var)

    def _with(self, coeffs, low):
        """A series on var from coefficients that are already Fractions."""
        s = QSeries.__new__(QSeries)
        s.var, s.low, s.coeffs = self.var, low, coeffs
        s._normalize()
        return s

    def copy(self):
        return self._with(list(self.coeffs), self.low)

    def coefficient(self, exponent: int) -> Fraction:
        """Exact coefficient; raises WindowError outside the valid window."""
        if exponent > self.high:
            raise WindowError(
                f"coefficient of {self.var}^{exponent} outside window "
                f"(valid through {self.high})"
            )
        if exponent < self.low:
            return Fraction(0)
        return self.coeffs[exponent - self.low]

    def coefficients(self, lo, hi):
        return [self.coefficient(e) for e in range(lo, hi + 1)]

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        hi = min(self.high, other.high)
        lo = min(self.low, other.low)
        return all(self.coefficient(e) == other.coefficient(e) for e in range(lo, hi + 1))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries([other], 0, self.var)
            other.coeffs += [Fraction(0)] * max(0, self.high)
        hi = min(self.high, other.high)
        lo = min(self.low, other.low)
        if hi < lo:
            return QSeries.zero(hi, self.var)
        vals = [self.coefficient(e) + other.coefficient(e) for e in range(lo, hi + 1)]
        return QSeries(vals, lo, self.var)

    __radd__ = __add__

    def __neg__(self):
        return self._with([-c for c in self.coeffs], self.low)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._with([c * other for c in self.coeffs], self.low)
        if not self.coeffs or not other.coeffs:
            hi = min(self.high + other.low, other.high + self.low)
            return QSeries.zero(hi, self.var)
        lo = self.low + other.low
        hi = min(self.high + other.low, other.high + self.low)
        n = hi - lo + 1
        # one integer convolution over the product of the common denominators;
        # both windows hold at least n coefficients
        a, da = _over_common_denominator(self.coeffs[:n])
        b, db = _over_common_denominator(other.coeffs[:n])
        rb = b[::-1]  # out[e] = sum a[i] b[e - i] = sum a[i] rb[n - 1 - e + i]
        den = da * db
        return QSeries([Fraction(sum(map(mul, a[:e + 1], rb[n - 1 - e:])), den)
                        for e in range(n)], lo, self.var)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; lowest coefficient must be invertible (nonzero)."""
        if not self.coeffs:
            raise DomainError("cannot invert a series with vanishing lowest coefficient")
        n = len(self.coeffs)
        a0 = self.coeffs[0]
        inv = [Fraction(0)] * n
        inv[0] = 1 / a0
        for k in range(1, n):
            acc = Fraction(0)
            for j in range(1, k + 1):
                if j < len(self.coeffs):
                    acc += self.coeffs[j] * inv[k - j]
            inv[k] = -acc / a0
        return QSeries(inv, -self.low, self.var)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * other.inverse()

    def shift(self, k: int):
        """Multiply by var**k."""
        s = self.copy()
        s.low += k
        return s

    def log(self):
        """Formal log; requires constant term exactly 1."""
        if self.low != 0 or not self.coeffs or self.coeffs[0] != 1:
            raise DomainError("log requires constant term 1")
        return self._with(_euler_solve({_EMPTY: self.coeffs}, log=True)[_EMPTY], 0)

    def exp(self):
        """Formal exp; requires constant term 0 (valuation >= 1)."""
        if self.low < (1 if self.coeffs else 0):
            raise DomainError("exp requires constant term 0")
        if self.high < 0:
            raise WindowError("series window too small for exp")
        col = _euler_solve({_EMPTY: self.coefficients(0, self.high)}, log=False)[_EMPTY]
        col[0] = Fraction(1)
        return self._with(col, 0)

    def compose_scale(self, a):
        """Substitute var -> a*var for an exact rational a."""
        vals = [c * Fraction(a) ** (self.low + i) for i, c in enumerate(self.coeffs)]
        return QSeries(vals, self.low, self.var)

    def to_json(self):
        return {
            "var": self.var,
            "low": self.low,
            "coeffs": [rat_str(c) for c in self.coeffs],
        }

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs[:8]):
            if c:
                terms.append(f"{rat_str(c)}*{self.var}^{self.low + i}")
        body = " + ".join(terms) if terms else "0"
        return f"QSeries({body} + O({self.var}^{self.high + 1}))"


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
def _multiset_splits(parts):
    """(sub, parts - sub) for every sub-multiset sub of the partition parts."""
    out = [((), ())]
    for v in sorted(set(parts), reverse=True):
        c = parts.count(v)
        out = [(a + (v,) * i, b + (v,) * (c - i)) for a, b in out for i in range(c + 1)]
    return out


@cache
def _profile_splits(profiles):
    """(part, profiles - part) for every sub-profile part of profiles."""
    out = [((), ())]
    for p in profiles:
        out = [(a + (s,), b + (r,)) for a, b in out for s, r in _multiset_splits(p)]
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
    with 1 <= d1 < d, terms = _euler_terms(key).  conn and disc are pairs
    (columns, lows): columns maps (k, l, m, profiles) to per-degree lists of
    integers, and lows maps it to a degree >= 1 below which the column is 0.

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
    for c, key1, key2 in terms:
        lo, hi = a_low[key1], d - b_low[key2]  # the d1 where both can be nonzero
        if lo <= hi:
            total += c * sum(map(mul, map(mul, row[lo - 1:hi], a[key1][lo:hi + 1]),
                                 b[key2][d - lo:d - hi - 1:-1]))
    return total


def _euler_solve(columns, log):
    """The log (log=True) or the exp of a family of sector columns.

    columns maps (k, l, m, profiles) to a list of exact values by degree,
    index 0 unused; each key is solved through the last degree of its own
    column.  Returns the solved columns, same keys and lengths, as Fractions
    with index 0 = 0.  Raises DomainError when a subkey of a key has no
    column or a shorter one.  The solve runs on integers: each degree-d
    value scaled by w_d = d! c^d, c the lcm of all input denominators.
    """
    dmax = max(map(len, columns.values()), default=1) - 1
    c = lcm(*(v.denominator for col in columns.values() for v in col))
    w = [1]
    for d in range(1, dmax + 1):
        w.append(w[-1] * d * c)
    given = {key: [v.numerator * (wd // v.denominator) for v, wd in zip(col, w)]
             for key, col in columns.items()}
    out = {key: [0] * len(col) for key, col in columns.items()}
    # the lowest nonzero degree of each column; dmax + 1 while it has none
    given_low = {key: next((d for d in range(1, len(col)) if col[d]), dmax + 1)
                 for key, col in given.items()}
    out_low = dict.fromkeys(columns, dmax + 1)
    conn, disc = (out, out_low), (given, given_low)
    if not log:
        conn, disc = disc, conn
    sign = -1 if log else 1
    # a proper subkey has fewer transpositions or profile parts: solved first
    for key in sorted(columns, key=lambda key: sum(key[:3]) + sum(map(len, key[3]))):
        terms, col = _euler_terms(key), out[key]
        for _, key1, _ in terms:
            if len(columns.get(key1, ())) < len(col):
                raise DomainError(f"subkey {key1} of {key} has no column "
                                  f"through degree {len(col) - 1}")
        for d in range(1, len(col)):
            col[d] = given[key][d] + sign * _euler_sum(terms, d, conn, disc)
            if col[d] and out_low[key] > d:
                out_low[key] = d
    return {key: list(map(Fraction, col, w)) for key, col in out.items()}


_EMPTY = (0, 0, 0, ())  # a QSeries is this sector's family over the degree


# ---------------------------------------------------------------------------
# standard expansions


def exp_az(a, order: int, var="z") -> QSeries:
    """Series of exp(a*z) to the given order; a exact rational."""
    a = Fraction(a)
    vals = [a**k / factorial(k) for k in range(order + 1)]
    return QSeries(vals, 0, var)


def two_sinh_half(order: int, var="z") -> QSeries:
    """2*sinh(z/2) = e^{z/2} - e^{-z/2}, a power series with valuation 1."""
    return exp_az(Fraction(1, 2), order, var) - exp_az(Fraction(-1, 2), order, var)


def sinh_reciprocal(order: int, var="z") -> QSeries:
    """1/(2 sinh(z/2)) as an exact Laurent series, valuation -1."""
    return two_sinh_half(order + 2, var).inverse()
