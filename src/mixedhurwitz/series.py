"""Truncated formal power/Laurent series over exact rationals.

Every series carries its valid window; extracting a coefficient outside the
window raises WindowError rather than returning a silent zero.  Truncation is
propagated pessimistically through arithmetic.  A product of two QSeries is
one integer convolution over the product of their common denominators.
"""

from fractions import Fraction
from math import factorial, lcm
from operator import mul

from .errors import DomainError, WindowError
from .util import rat_str, rat_from_str


class QSeries:
    """Univariate truncated Laurent series with exact rational coefficients.

    coeffs[i] is the coefficient of var**(low+i); the series is known exactly
    for exponents low..high (inclusive) and implicitly zero below low.
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

    def copy(self):
        s = QSeries.__new__(QSeries)
        s.var, s.low, s.coeffs = self.var, self.low, list(self.coeffs)
        return s

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
        s = self.copy()
        s.coeffs = [-c for c in s.coeffs]
        return s

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = self.copy()
            s.coeffs = [c * other for c in s.coeffs]
            return s
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
        if not self.coeffs or self.coeffs[0] == 0:
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

    def derivative(self):
        vals = [(self.low + i) * c for i, c in enumerate(self.coeffs)]
        return QSeries(vals, self.low - 1, self.var)

    def log(self):
        """Formal log; requires constant term exactly 1."""
        if self.low != 0 or not self.coeffs or self.coeffs[0] != 1:
            raise DomainError("log requires constant term 1")
        # log(1+u) with u = self - 1: integrate self'/self
        d = self.derivative()
        integrand = d * self.inverse()
        out = [Fraction(0)] * (self.high + 1)
        for i, c in enumerate(integrand.coeffs):
            e = integrand.low + i
            if e + 1 <= self.high and e + 1 >= 1:
                out[e + 1] = c / (e + 1)
        return QSeries(out, 0, self.var)

    def exp(self):
        """Formal exp; requires constant term 0 (valuation >= 1)."""
        if self.low < 1 and any(c != 0 for c in self.coeffs[: max(0, 1 - self.low)]):
            raise DomainError("exp requires constant term 0")
        if self.low < 0:
            raise DomainError("exp requires constant term 0")
        hi = self.high
        if hi < 0:
            raise WindowError("series window too small for exp")
        # E' = f' E, solved coefficientwise
        out = [Fraction(0)] * (hi + 1)
        out[0] = Fraction(1)
        for n in range(1, hi + 1):
            acc = Fraction(0)
            for j in range(1, n + 1):
                acc += j * self.coefficient(j) * out[n - j]
            out[n] = acc / n
        return QSeries(out, 0, self.var)

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

    @classmethod
    def from_json(cls, doc):
        return cls([rat_from_str(c) for c in doc["coeffs"]], doc["low"], doc["var"])

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


def series_log_exp(s, kind: str):
    """log or exp of a QSeries or BiSeries (mutually inverse to truncation)."""
    if kind not in ("log", "exp"):
        raise DomainError(f"unknown kind {kind}")
    return s.log() if kind == "log" else s.exp()


def coefficient_extract(s: QSeries, exponent: int) -> Fraction:
    return s.coefficient(exponent)


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


def sinh_normalized(order: int, var="z") -> QSeries:
    """sinh(z/2)/(z/2): constant term 1, even series."""
    return two_sinh_half(order + 1, var).shift(-1)


def sinh_reciprocal(order: int, var="z") -> QSeries:
    """1/(2 sinh(z/2)) as an exact Laurent series, valuation -1."""
    return two_sinh_half(order + 2, var).inverse()


# ---------------------------------------------------------------------------
# bivariate series on the (degree, hbar) grid


class BiSeries:
    """Truncated series in (x, hbar) stored on the (d, e) grid, e = hbar power.

    The valid region is a parallelogram: 0 <= d <= dhi and blo <= e - d*skew
    <= bhi.  The skew lets one grid serve every genus: partition functions put
    their coefficients at e = b + d*skew.
    """

    __slots__ = ("data", "dhi", "blo", "bhi", "skew")

    def __init__(self, dhi, blo, bhi, skew, data=None):
        if dhi < 0 or bhi < blo:
            raise WindowError("window collapse")
        self.dhi = dhi
        self.blo = blo
        self.bhi = bhi
        self.skew = skew
        self.data = dict(data or {})

    def in_window(self, d, e):
        if not (0 <= d <= self.dhi):
            return False
        return self.blo <= e - d * self.skew <= self.bhi

    def coefficient(self, d, e):
        if not self.in_window(d, e):
            raise WindowError(f"(x^{d}, hbar^{e}) outside valid window")
        return self.data.get((d, e), Fraction(0))

    def set(self, d, e, value):
        if not self.in_window(d, e):
            raise WindowError(f"(x^{d}, hbar^{e}) outside valid window")
        value = Fraction(value)
        if value:
            self.data[(d, e)] = value
        else:
            self.data.pop((d, e), None)

    def cells(self):
        for d in range(self.dhi + 1):
            for b in range(self.blo, self.bhi + 1):
                yield d, b + d * self.skew

    def apply_y(self):
        """hat-y = -hbar d/dx: out(d, e) = -(d+1) * in(d+1, e-1)."""
        out = BiSeries(self.dhi - 1, self.blo + 1 + self.skew,
                       self.bhi + 1 + self.skew, self.skew)
        for d, e in out.cells():
            src = self.data.get((d + 1, e - 1))
            if src:
                out.data[(d, e)] = -(d + 1) * src
        return out

    def apply_x(self):
        """hat-x = multiply by x: out(d, e) = in(d-1, e)."""
        out = BiSeries(self.dhi + 1, self.blo - self.skew,
                       self.bhi - self.skew, self.skew)
        for d, e in out.cells():
            if d == 0:
                continue
            src = self.data.get((d - 1, e))
            if src:
                out.data[(d, e)] = src
        return out

    def __add__(self, other):
        if self.skew != other.skew:
            raise DomainError("mismatched grids")
        dhi = min(self.dhi, other.dhi)
        blo = max(self.blo, other.blo)
        bhi = min(self.bhi, other.bhi)
        out = BiSeries(dhi, blo, bhi, self.skew)
        for d, e in out.cells():
            v = self.data.get((d, e), Fraction(0)) + other.data.get((d, e), Fraction(0))
            if v:
                out.data[(d, e)] = v
        return out

    def is_zero(self):
        return all(v == 0 for v in self.data.values())

    def _mul_truncated(self, other):
        out = BiSeries(min(self.dhi, other.dhi), self.blo + other.blo,
                       min(self.bhi + other.blo, other.bhi + self.blo),
                       self.skew)
        for (d1, e1), v1 in self.data.items():
            for (d2, e2), v2 in other.data.items():
                d, e = d1 + d2, e1 + e2
                if out.in_window(d, e):
                    out.data[(d, e)] = out.data.get((d, e), Fraction(0)) + v1 * v2
        return BiSeries(out.dhi, out.blo, out.bhi, out.skew,
                        {k: v for k, v in out.data.items() if v})

    def log(self):
        """Formal log; constant cell must be exactly 1 and every other cell
        must have positive x-degree (true for the partition functions)."""
        if self.data.get((0, 0), Fraction(0)) != 1:
            raise DomainError("log requires constant coefficient 1")
        if any(d == 0 for (d, e) in self.data if (d, e) != (0, 0)):
            raise DomainError("log needs positive x-degree off the constant")
        u = BiSeries(self.dhi, self.blo, self.bhi, self.skew,
                     {k: v for k, v in self.data.items() if k != (0, 0)})
        out = BiSeries(self.dhi, self.blo, self.bhi, self.skew)
        power = u
        sign = Fraction(1)
        for r in range(1, self.dhi + 1):
            for k, v in power.data.items():
                if out.in_window(*k):
                    out.data[k] = out.data.get(k, Fraction(0)) + sign * v / r
            power = power._mul_truncated(u)
            sign = -sign
            if not power.data:
                break
        out.data = {k: v for k, v in out.data.items() if v}
        return out

    def exp(self):
        """Formal exp; requires zero constant cell and positive x-degrees."""
        if self.data.get((0, 0), Fraction(0)) != 0:
            raise DomainError("exp requires vanishing constant coefficient")
        if any(d == 0 and v != 0 for (d, e), v in self.data.items()):
            raise DomainError("exp needs positive x-degree everywhere")
        out = BiSeries(self.dhi, self.blo, self.bhi, self.skew)
        out.data[(0, 0)] = Fraction(1)
        power = BiSeries(self.dhi, self.blo, self.bhi, self.skew, self.data)
        fact = 1
        for r in range(1, self.dhi + 1):
            for k, v in power.data.items():
                if out.in_window(*k):
                    out.data[k] = out.data.get(k, Fraction(0)) + v / fact
            power = power._mul_truncated(self)
            fact *= r + 1
            if not power.data:
                break
        out.data = {k: v for k, v in out.data.items() if v}
        return out
