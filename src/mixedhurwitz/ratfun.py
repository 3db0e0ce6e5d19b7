"""Exact univariate rational functions, sparse multivariate polynomials, and
Laurent coefficients at zero, for the spectral recursion and its checks.

Multidifferentials are stored as sums of products of univariate rational
functions (one factor per variable), which keeps every operation -- residues,
involution pullbacks, coefficient extraction at infinity -- univariate.
"""

from fractions import Fraction
from math import lcm

from .errors import DomainError, WindowError


# ---------------------------------------------------------------------------
# dense univariate polynomials over Fraction


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


class Poly1:
    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        self.c = _trim([Fraction(x) for x in coeffs])

    def degree(self):
        return len(self.c) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.c

    def __eq__(self, other):
        return self.c == other.c

    def __hash__(self):
        return hash(tuple(self.c))

    def __add__(self, other):
        n = max(len(self.c), len(other.c))
        return Poly1(
            [
                (self.c[i] if i < len(self.c) else 0)
                + (other.c[i] if i < len(other.c) else 0)
                for i in range(n)
            ]
        )

    def __sub__(self, other):
        n = max(len(self.c), len(other.c))
        return Poly1(
            [
                (self.c[i] if i < len(self.c) else 0)
                - (other.c[i] if i < len(other.c) else 0)
                for i in range(n)
            ]
        )

    def __neg__(self):
        return Poly1([-x for x in self.c])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly1([x * other for x in self.c])
        if self.is_zero() or other.is_zero():
            return Poly1()
        out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            for j, b in enumerate(other.c):
                out[i + j] += a * b
        return Poly1(out)

    __rmul__ = __mul__

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError
        q = [Fraction(0)] * max(0, len(self.c) - len(other.c) + 1)
        r = list(self.c)
        dv = other.c[-1]
        while len(r) >= len(other.c) and any(x != 0 for x in r):
            if r[-1] == 0:
                r.pop()
                continue
            k = len(r) - len(other.c)
            f = r[-1] / dv
            q[k] = f
            for i, b in enumerate(other.c):
                r[k + i] -= f * b
            r.pop()
        return Poly1(q), Poly1(r)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a * (Fraction(1) / a.c[-1])  # monic

    def shift_pow(self, k):
        """Multiply by x^k (k >= 0)."""
        if self.is_zero():
            return Poly1()
        return Poly1([Fraction(0)] * k + self.c)

    def reversed_coeffs(self):
        """x^deg * p(1/x)."""
        return Poly1(list(reversed(self.c)))

    def taylor_shift(self, a):
        """p(x + a), exact (Horner in x+a)."""
        res = Poly1()
        for coef in reversed(self.c):
            res = res * Poly1([a, 1]) + Poly1([coef])
        return res

    def derivative(self):
        return Poly1([i * c for i, c in enumerate(self.c)][1:])

    def valuation(self):
        for i, x in enumerate(self.c):
            if x != 0:
                return i
        return None

    def __repr__(self):
        return f"Poly1({self.c})"


# ---------------------------------------------------------------------------
# reduced univariate rational functions


class RF1:
    """num/den, gcd-reduced, den monic.  Hashable; equality is exact."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, reduce=True):
        if den is None:
            den = Poly1([1])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if reduce and not num.is_zero():
            g = num.gcd(den)
            if g.degree() > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        if num.is_zero():
            den = Poly1([1])
        lead = den.c[-1]
        if lead != 1:
            num = num * (Fraction(1) / lead)
            den = den * (Fraction(1) / lead)
        self.num, self.den = num, den
        self._hash = None

    @classmethod
    def const(cls, v):
        return cls(Poly1([v]), Poly1([1]), reduce=False)

    def is_zero(self):
        return self.num.is_zero()

    def key(self):
        return (tuple(self.num.c), tuple(self.den.c))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __eq__(self, other):
        return self.key() == other.key()

    def __add__(self, other):
        return RF1(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return RF1(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RF1(-self.num, self.den, reduce=False)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RF1(self.num * other, self.den, reduce=False)
        return RF1(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RF1(self.num * (Fraction(1) / Fraction(other)), self.den, reduce=False)
        if other.is_zero():
            raise ZeroDivisionError
        return RF1(self.num * other.den, self.den * other.num)

    def derivative(self):
        return RF1(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def subs_reciprocal(self):
        """f(1/x) as a rational function of x."""
        dn, dd = max(self.num.degree(), 0), max(self.den.degree(), 0)
        m = max(dn, dd)
        num = self.num.reversed_coeffs().shift_pow(m - dn)
        den = self.den.reversed_coeffs().shift_pow(m - dd)
        return RF1(num, den)

    def sigma_pullback(self):
        """f(1/x) * d(1/x)/dx = -f(1/x)/x^2: the involution acting on a
        one-form coefficient.  The single place the chain factor lives."""
        g = self.subs_reciprocal()
        return RF1(-g.num, g.den.shift_pow(2))

    def __repr__(self):
        return f"RF1({self.num.c}/{self.den.c})"


def laurent_at_zero(num: Poly1, den: Poly1, k: int) -> Fraction:
    """Coefficient of x^k in num/den expanded at 0 (Laurent, exact)."""
    s = den.valuation()
    unit = Poly1(den.c[s:])
    vn = num.valuation()
    if vn is None:
        return Fraction(0)
    # (num/x^vn) / unit expanded to index k + s - vn
    idx = k + s - vn
    if idx < 0:
        return Fraction(0)
    a = num.c[vn:]
    inv = [Fraction(0)] * (idx + 1)
    inv[0] = Fraction(1) / unit.c[0]
    for i in range(1, idx + 1):
        acc = Fraction(0)
        for j in range(1, i + 1):
            if j < len(unit.c):
                acc += unit.c[j] * inv[i - j]
        inv[i] = -acc / unit.c[0]
    out = Fraction(0)
    for i in range(min(len(a), idx + 1)):
        out += a[i] * inv[idx - i]
    return out


# ---------------------------------------------------------------------------
# sparse multivariate polynomials (for invariant checks and equality)


class MultiPoly:
    """Sparse polynomial over Fraction; keys are exponent tuples of fixed arity."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        for k, v in (terms or {}).items():
            v = Fraction(v)
            if v:
                self.terms[tuple(k)] = v

    @classmethod
    def const(cls, n, v):
        return cls(n, {tuple([0] * n): v})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            nv = out.get(k, Fraction(0)) + v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return MultiPoly(self.n, out)

    def __neg__(self):
        return MultiPoly(self.n, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.n, {k: v * other for k, v in self.terms.items()})
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                nv = out.get(k, Fraction(0)) + v1 * v2
                if nv:
                    out[k] = nv
                else:
                    out.pop(k, None)
        return MultiPoly(self.n, out)

    __rmul__ = __mul__

    def divide_linear(self, var: int, root) -> "MultiPoly | None":
        """Exact quotient by (x_var - root), or None if not divisible."""
        # synthetic division in the chosen variable
        by_rest = {}
        for k, v in self.terms.items():
            rest = k[:var] + k[var + 1:]
            by_rest.setdefault(rest, {})[k[var]] = v
        out = {}
        for rest, coeffs in by_rest.items():
            deg = max(coeffs)
            q = {}
            carry = Fraction(0)
            for e in range(deg, -1, -1):
                c = coeffs.get(e, Fraction(0)) + carry * root
                if e == 0:
                    if c != 0:
                        return None
                else:
                    q[e - 1] = c
                    carry = c
            for e, c in q.items():
                if c:
                    k = rest[:var] + (e,) + rest[var:]
                    out[k] = c
        return MultiPoly(self.n, out)

    @staticmethod
    def from_univariate(n, var, poly: Poly1):
        out = {}
        for e, c in enumerate(poly.c):
            if c:
                k = [0] * n
                k[var] = e
                out[tuple(k)] = c
        return MultiPoly(n, out)

    def __repr__(self):
        return f"MultiPoly({self.terms})"


# ---------------------------------------------------------------------------
# sums of tensor products of univariate rational functions


class TensorSum:
    """sum_k c_k * prod_i u_{k,i}(x_i): the carrier for multidifferentials.

    Keys are tuples of RF1 (one per slot), each with a positive leading
    numerator coefficient: add_term moves a factor's sign into the term's
    coefficient, so f and -f share a key and cancel term by term.  Merging
    happens on identical factor tuples; equality of values is decided through
    combine().
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        for k, v in (terms or {}).items():
            self.add_term(v, k)

    def add_term(self, coef, factors):
        coef = Fraction(coef)
        if coef == 0:
            return
        signed = []
        for f in factors:
            if f.is_zero():
                return
            if f.num.c[-1] < 0:
                f, coef = -f, -coef
            signed.append(f)
        factors = tuple(signed)
        cur = self.terms.get(factors, Fraction(0)) + coef
        if cur:
            self.terms[factors] = cur
        else:
            self.terms.pop(factors, None)

    def __add__(self, other):
        out = TensorSum(self.n)
        for k, v in self.terms.items():
            out.add_term(v, k)
        for k, v in other.terms.items():
            out.add_term(v, k)
        return out

    def scale(self, c):
        out = TensorSum(self.n)
        for k, v in self.terms.items():
            out.add_term(v * c, k)
        return out

    def apply_slot(self, slot, fn):
        """Replace factor u -> fn(u) in one slot."""
        out = TensorSum(self.n)
        for k, v in self.terms.items():
            nk = list(k)
            nk[slot] = fn(k[slot])
            out.add_term(v, nk)
        return out

    def compact(self):
        """Merge terms that differ in a single slot by summing that factor.

        Shrinks the representation toward one term per distinct external
        structure; for n = 1 everything collapses to a single function.
        """
        terms = dict(self.terms)
        changed = True
        while changed:
            changed = False
            for slot in range(self.n):
                groups = {}
                for k, v in terms.items():
                    rest = k[:slot] + k[slot + 1:]
                    groups.setdefault(rest, []).append((k[slot], v))
                nt = {}
                merged_any = False
                for rest, items in groups.items():
                    if len(items) == 1:
                        f, v = items[0]
                        key = rest[:slot] + (f,) + rest[slot:]
                        nt[key] = nt.get(key, Fraction(0)) + v
                        continue
                    merged_any = True
                    acc = RF1.const(0)
                    for f, v in items:
                        acc = acc + f * v
                    if acc.is_zero():
                        continue
                    key = rest[:slot] + (acc,) + rest[slot:]
                    nt[key] = nt.get(key, Fraction(0)) + Fraction(1)
                if merged_any:
                    changed = True
                terms = {k: v for k, v in nt.items() if v}
        self.terms = terms
        return self

    def combine(self):
        """Collapse into a single fraction (MultiPoly numerator, per-variable
        denominators).  Returns (num, [den_1..den_n]) with den_i univariate."""
        dens, cofactors = [], []
        for i in range(self.n):
            slot_dens = list(dict.fromkeys(k[i].den for k in self.terms))
            d = Poly1([1])
            for den in slot_dens:
                d = d.divmod(d.gcd(den))[0] * den  # lcm
            dens.append(d)
            cofactors.append({den: d.divmod(den)[0] for den in slot_dens})
        # each factor's numerator over its slot's denominator, as integers
        # times a scale, so that the outer products below are integer work
        rows = []
        for k, v in self.terms.items():
            scale, lists = Fraction(v), []
            for i, f in enumerate(k):
                coeffs = (f.num * cofactors[i][f.den]).c
                m = lcm(*(x.denominator for x in coeffs))
                scale /= m
                lists.append([int(x * m) for x in coeffs])
            rows.append((scale, lists))
        common = lcm(*(scale.denominator for scale, _ in rows))
        num = {}
        for scale, lists in rows:
            # outer product of the per-slot coefficient lists
            piece = {(): scale.numerator * (common // scale.denominator)}
            for coeffs in lists:
                piece = {e + (j,): c * x for e, c in piece.items()
                         for j, x in enumerate(coeffs) if x}
            for e, c in piece.items():
                num[e] = num.get(e, 0) + c
        return MultiPoly(self.n, {e: Fraction(c, common) for e, c in num.items()}), dens

    def equals(self, other) -> bool:
        diff = self + other.scale(-1)
        num, _ = diff.combine()
        return num.is_zero()

    def is_zero(self) -> bool:
        num, _ = self.combine()
        return num.is_zero()

    def __repr__(self):
        return f"TensorSum(n={self.n}, {len(self.terms)} terms)"
