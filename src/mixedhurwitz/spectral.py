"""CEO topological recursion on the curve x = (z-1)^2/z, y = z/(z-1)^3.

Each stable omega_{g,n} (dz's stripped) is a combination of pure tensors of
the basis xi_k(z) = z^k/(1+z)^(2k+2), and it keeps one form from the
recursion through extraction: an XiForm, the map {sorted (k_1..k_n): int}
of its coefficients.  omega_{g,n} is symmetric in its arguments, so one
coefficient stands for every ordering of its indices, and the recursion
computes it once.  The deck involution sigma(z) = 1/z pulls xi_k back to
-xi_k, so the recursion works on index tuples alone.  Residues are taken at
z = -1 only (the z = 1 residue does not contribute for this curve), as two
integer tables in closed form: R_m = -xi_{m+1} + 4 xi_{m+2} for the pair
terms and a three-diagonal S_a for the Bergman terms.  Extraction at infinity
of xi_k is a closed-form binomial sum.  ceo_omega and cut_and_join_C raise
ResourceLimitError past module bounds.

RF1 and TensorSum carry the initial data (omega_{0,1}; omega_{0,2} is the
symbolic Bergman kernel), and XiForm.tensor() writes a stable omega as a
TensorSum of xi(k) factors for the rational-function checks.

Conventions: x = (z-1)^2/z (the normalization fixed by x(1/z) = x(z));
extraction at infinity uses u = 1/z, where x = (1-u)^2/u.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import comb

from .errors import DomainError, ResourceLimitError
from .partitions import check_partition, splits
from .ratfun import RF1, Poly1, TensorSum, laurent_at_zero
from .util import DEFAULT_ORACLE_LIMIT

# ---------------------------------------------------------------------------
# spectral data


def curve_x() -> RF1:
    return RF1(Poly1([1, -2, 1]), Poly1([0, 1]))  # (z-1)^2/z


def curve_y() -> RF1:
    return RF1(Poly1([0, 1]), Poly1([-1, 3, -3, 1]))  # z/(z-1)^3


def curve_dx() -> RF1:
    return RF1(Poly1([-1, 0, 1]), Poly1([0, 0, 1]))  # (z^2-1)/z^2


def kernel_z_part() -> RF1:
    """z(z-1)^3 / (2(z+1)): the part of the recursion kernel depending on z only."""
    num = Poly1([0, 1]) * Poly1([-1, 1]) * Poly1([-1, 1]) * Poly1([-1, 1])
    den = Poly1([2, 2])
    return RF1(num, den)


def spectral_data():
    """(x, y, kernel z-part, sigma) with sigma the reciprocal involution."""
    return curve_x(), curve_y(), kernel_z_part(), "reciprocal"


def omega01() -> TensorSum:
    """omega_{0,1} = y dx, stripped: (z+1)/(z(z-1)^2)."""
    f = curve_y() * curve_dx()
    t = TensorSum(1)
    t.add_term(1, (f,))
    return t


# omega_{0,2} = B = dz1 dz2/(z1-z2)^2 is kept symbolic (not a TensorSum);
# the recursion and the extraction treat it through dedicated code paths.
OMEGA02 = "bergman"


# ---------------------------------------------------------------------------
# the xi basis
#
# Every stable omega_{g,n} lies in the span of the pure tensors
# xi_{k_1}(z_1) ... xi_{k_n}(z_n), xi_k(z) = z^k/(1+z)^(2k+2): in each
# variable its coefficient has poles at z = -1 only, and its numerator over
# (1+z)^(2K+2) is palindromic of degree 2K, which is exactly the span of
# xi_0..xi_K.  The sigma-pullback of xi_k is -xi_k.  xi_coefficients writes
# a one-variable function in the basis through its principal part {j: c},
# meaning sum c (1+w)^-j, and _xi_split, which refuses anything outside it.


@cache
def xi(k: int) -> RF1:
    """The basis coefficient z^k/(1+z)^(2k+2)."""
    den = Poly1([comb(2 * k + 2, i) for i in range(2 * k + 3)])
    return RF1(Poly1([0] * k + [1]), den, reduce=False)


def _arrangements(key, below=()):
    """The distinct orderings of a sorted tuple; given below, k_i < below[i]."""
    if not key:
        yield ()
    for i, k in enumerate(key):
        if (not i or key[i - 1] != k) and (not below or k < below[0]):
            for tail in _arrangements(key[:i] + key[i + 1:], below[1:]):
                yield (k,) + tail


class XiForm:
    """A stable omega_{g,n}, symmetric in its n arguments: terms maps each
    sorted (k_1..k_n) to the int coefficient of xi_{k_1}(z_1) ... xi_{k_n}(z_n),
    which every ordering of the k_i shares."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms):
        self.n, self.terms = n, terms

    def ordered(self, below=()) -> dict:
        """{(k_1..k_n): c} over the distinct orderings of each key; given below,
        only those with each k_i < below[i]."""
        return {ks: c for key, c in self.terms.items()
                for ks in _arrangements(key, below)}

    def tensor(self) -> TensorSum:
        """The same multidifferential as a TensorSum of xi(k) factors."""
        return TensorSum(self.n, {tuple(xi(k) for k in ks): c
                                  for ks, c in self.ordered().items()})


def _xi_split(pp) -> dict:
    """A principal part {j: c} at w = -1 in the basis, as {k: c}.

    Peels off the top pole order 2k+2 with
    xi_k = sum_i C(k,i) (-1)^(k-i) (1+w)^(i-2k-2); raises DomainError when
    the top order is odd or not a pole, i.e. the input is outside the span.
    """
    pp = {j: c for j, c in pp.items() if c}
    out = {}
    while pp:
        top = max(pp)
        if top < 2 or top % 2:
            raise DomainError(f"(1+z)^({-top}) term: not in the xi basis")
        k = top // 2 - 1
        c = out[k] = pp[top] * (-1) ** k
        for i in range(k + 1):
            j = top - i
            v = pp.get(j, 0) - c * comb(k, i) * (-1) ** (k - i)
            if v:
                pp[j] = v
            else:
                pp.pop(j, None)
    return out


def xi_coefficients(f: RF1) -> dict:
    """A one-variable coefficient in the xi basis, {k: c}.

    Raises DomainError when f has a pole off z = -1 or is not in the span.
    """
    num, den = f.num.taylor_shift(-1), f.den.taylor_shift(-1)  # in w = 1 + z
    top = den.degree()
    if den.valuation() != top:
        raise DomainError(f"{f} has a pole off z = -1")
    return _xi_split({top - i: c for i, c in enumerate(num.c)})


def b_self_sigma() -> RF1:
    """omega_{0,2}(z, sigma(z)) with the chain factor: -1/((z-1)^2 (z+1)^2)."""
    den = Poly1([-1, 1]) * Poly1([-1, 1]) * Poly1([1, 1]) * Poly1([1, 1])
    return RF1(Poly1([-1]), den)


# ---------------------------------------------------------------------------
# residues at z = -1, in closed form
#
# The kernel is K(z1, z) = kernel_z_part(z) / ((z1 - z)(z1 z - 1)).  Each
# integrand below decays like z^-3 or faster, so by the residue theorem its
# residue at z = -1 is minus the sum of its residues at the other poles:
# z = z1 and 1/z1 from K, and z = w and 1/w from a Bergman kernel.


def _z_power(m) -> Poly1:
    """(v - 1)^m in v: z^m in t = z + 1, and (1 - u)^m for even m."""
    return Poly1([comb(m, i) * (-1) ** (m - i) for i in range(m + 1)])


def _pair_table(m) -> dict:
    """R_m(z1) = Res K(z1, z) (-xi_a xi_b)(z) for a + b = m, as {k: c}.

    The integrand -z^(m+1) (z-1)^3 / (2 (1+z)^(2m+5) (z1-z)(z1 z-1)) has the
    residue z1^(m+1) (z1-1)^2 / (2 (1+z1)^(2m+6)) at z = z1 and the same at
    z = 1/z1.  So R_m = -z1^(m+1) (z1-1)^2 / (1+z1)^(2m+6), and writing
    (z1-1)^2 = (1+z1)^2 - 4 z1 gives -xi_{m+1} + 4 xi_{m+2}.
    """
    return {m + 1: -1, m + 2: 4}


@cache
def _bergman_table(a) -> dict:
    """S_a(z1, w) = Res K(z1, z) xi_a(z) [B(sigma z, w) - B(z, w)], as
    {(k1, kw): c}: -(kw + 1) on k1 + kw = a - 1, 8 kw + 6 on k1 + kw = a and
    -(16 kw + 8) on k1 + kw = a + 1.

    The integrand is phi D, D(z) = -1/(1 - w z)^2 - 1/(z - w)^2 and
    phi(z) = z^(a+1) (z-1)^3 / (2 (1+z)^(2a+3) (z1-z)(z1 z-1)).  As
    phi(1/z) = -phi(z) and D(1/z) = z^2 D(z), the poles z1 and 1/z1 give
    equal residues, and so do w and 1/w (-phi'(w) each):
        S_a = (z1-1)^2 xi_{a+1}(z1) D(z1) + 2 phi'(w).
    In s = X(z1), t = X(w), X(z) = z/(1+z)^2, xi_k1(z1) xi_kw(w) is
    s^k1 t^kw / P with P = (1+z1)^2 (1+w)^2.  From (z1-w)(1-z1 w) = (s-t) P,
    (z-1)^2 = (1+z)^2 (1-4X) and dX/dz = (1-z)/(1+z)^3 follows
        P S_a (s-t)^2 = (1-4t) [t^(a+1) (1-4t) + (s-t) t^a (a+1 - (4a+10) t)]
                        - s^(a+1) (1-4s) [(1-2s)(1-2t) - 4st],
    whose quotient by (s-t)^2 is the three diagonals.
    """
    diagonals = {a - 1: (-1, -1), a: (8, 6), a + 1: (-16, -8)}  # c = p kw + q
    return {(d - kw, kw): p * kw + q
            for d, (p, q) in diagonals.items() for kw in range(d + 1)}


# omega_{1,1} = -xi_1 is the residue of K(z1, z) omega_{0,2}(z, sigma z), and
# omega_{0,3} = 8 xi_0 xi_0 xi_0 comes from two Bergman kernels
_BASE_CASES = {(1, 1): {(1,): -1}, (0, 3): {(0, 0, 0): 8}}


# ---------------------------------------------------------------------------
# the recursion

# ceo_omega refuses to build a level past either bound.  omega_{g,n} has at
# most C(3g-3+2n, n) ordered xi terms, and its recursion builds each
# (g-j, n+j).  omega_{9,1} is at both bounds: its level (3, 7) has C(20, 7)
# ordered terms.  The 2g-2+n bound alone would admit omega_{0,19}, with
# C(35, 19).
OMEGA_CHI_LIMIT = 17
OMEGA_TERM_LIMIT = 77_520

_omega_cache = {}


def ceo_omega(g: int, n: int) -> XiForm:
    """The multidifferential omega_{g,n} (dz's stripped) for 2g-2+n > 0,
    one int coefficient per sorted xi index tuple."""
    if n < 1 or g < 0:
        raise DomainError("need n >= 1, g >= 0")
    if 2 * g - 2 + n <= 0:
        raise DomainError("(0,1) and (0,2) are initial data, not recursion output")
    key = (g, n)
    if key in _omega_cache:
        return _omega_cache[key]
    if 2 * g - 2 + n > OMEGA_CHI_LIMIT:
        raise ResourceLimitError(f"omega_{{{g},{n}}}: 2g-2+n = {2 * g - 2 + n} "
                                 f"above the limit {OMEGA_CHI_LIMIT}")
    terms = max(comb(3 * g + 2 * n - 3 - j, n + j) for j in range(g + 1))
    if terms > OMEGA_TERM_LIMIT:
        raise ResourceLimitError(f"omega_{{{g},{n}}} needs a level of {terms} "
                                 f"xi terms, above the limit {OMEGA_TERM_LIMIT}")
    out = XiForm(n, dict(_BASE_CASES[key]) if key in _BASE_CASES else _recursion(g, n))
    _omega_cache[key] = out
    return out


def _at(terms, ks) -> int:
    """The coefficient of a stable omega at the index tuple ks, in any order."""
    return terms.get(tuple(sorted(ks)), 0)


def _recursion(g, n) -> dict:
    """Res K(z1, z) [omega_{g-1,n+1}(z, sigma z, S) + primed sum of
    omega_{g1}(z, I) omega_{g2}(sigma z, J)] over I + J = S = slots 1..n-1.

    Each sorted key K with sum at most 3g-3+n is computed once, with
    z1 = K[0] and S = K[1:], reading every lower omega through one sorted
    lookup.  Stable terms meet in -xi_a xi_b(z), which depends on m = a + b
    only, and R_m reaches xi_{K[0]} only from m = K[0] - 1 and K[0] - 2.
    The terms with omega_{0,2} pair up into B(sigma z, w) - B(z, w), whose
    S_a reaches (K[0], K[j]) only for a within one of K[0] + K[j].
    """
    top = 3 * g - 3 + n
    handle = ceo_omega(g - 1, n + 1).terms if g else {}
    shorter = ceo_omega(g, n - 1).terms if n > 1 else {}
    # the stable halves of a split, each with 2h-2+r below 2g-3+n; a (0,2)
    # half enters through the Bergman table instead
    halves = {(h, r): ceo_omega(h, r).terms for h in range(g + 1)
              for r in range(1, n + 1) if 0 < 2 * h - 2 + r < 2 * g - 3 + n}
    out = {}
    for K in combinations_with_replacement(range(top + 1), n):
        if sum(K) > top:
            continue
        k1, rest = K[0], K[1:]
        c = 0
        for m in range(max(k1 - 2, 0), k1):
            p = sum(_at(handle, (a, m - a) + rest) for a in range(m + 1))
            for I, J in splits(rest):
                for h in range(g + 1):
                    left = halves.get((h, len(I) + 1))
                    right = halves.get((g - h, len(J) + 1))
                    if left and right:
                        p += sum(_at(left, (a,) + I) * _at(right, (m - a,) + J)
                                 for a in range(m + 1))
            c += _pair_table(m)[k1] * p
        # omega_{g,n-1}(z or sigma z, S - j) times omega_{0,2}(sigma z or z, z_j)
        for j in range(1, n):
            kj, others = K[j], rest[:j - 1] + rest[j:]
            for a in range(max(k1 + kj - 1, 0), k1 + kj + 2):
                c += _bergman_table(a).get((k1, kj), 0) * _at(shorter, (a,) + others)
        if c:
            out[K] = c
    return out


# ---------------------------------------------------------------------------
# extraction of the correlators


@cache
def _extract_one(f: RF1, mu_i: int) -> Fraction:
    """Res_{z->inf} x(z)^mu f(z) dz via u = 1/z: the coefficient of u^(mu+1)
    in (1-u)^(2 mu) f(1/u)."""
    g = f.subs_reciprocal()
    return laurent_at_zero(g.num * _z_power(2 * mu_i), g.den, mu_i + 1)


@cache
def _xi_extract(k: int, mu_i: int) -> int:
    """_extract_one(xi(k), mu_i) in closed form: xi_k(1/u) = u^(k+2)/(1+u)^(2k+2),
    so it is [u^n] of (1-u)^(2 mu) (1+u)^-(2k+2) with n = mu-1-k."""
    n = mu_i - 1 - k
    if n < 0:
        return 0
    return (-1) ** n * sum(comb(2 * mu_i, j) * comb(2 * k + 1 + n - j, n - j)
                           for j in range(n + 1))


def extract_C(omega, mu) -> Fraction:
    """C_{g,n}(mu) = residues at infinity of prod x(z_i)^{mu_i} omega.

    omega is a stable XiForm (its orderings with each k_i < mu_i extracted per
    factor by the closed form _xi_extract, 0 for the rest), omega01() (a TensorSum,
    extracted through RF1 by _extract_one), or the OMEGA02 sentinel
    (Bergman kernel, whose double-pole part extracts to zero).
    """
    mu = tuple(mu)
    if any(m < 1 for m in mu):
        raise DomainError("all mu_i must be >= 1")
    if omega == OMEGA02:
        if len(mu) != 2:
            raise DomainError("Bergman kernel has two slots")
        return _extract_bergman(mu[0], mu[1])
    if omega.n != len(mu):
        raise DomainError(f"omega has {omega.n} slots, mu has {len(mu)}")
    if isinstance(omega, XiForm):
        one, terms = _xi_extract, omega.ordered(mu)
    else:
        one, terms = _extract_one, omega.terms
    total = Fraction(0)
    for factors, coef in terms.items():
        prod = coef
        for f, m in zip(factors, mu):
            prod *= one(f, m)
            if prod == 0:
                break
        total += prod
    return total


def _extract_bergman(mu1: int, mu2: int) -> Fraction:
    """Iterated extraction of 1/(z1-z2)^2 (= omega_{0,2} with dz's stripped).

    The inner residue in z1 is [u^(mu1+1)] of (1-u)^(2 mu1) u^2/(1 - u z2)^2,
    i.e. sum_k row[mu1-1-k] (k+1) z2^k with row the coefficients of (1-u)^(2 mu1).
    """
    row = _z_power(2 * mu1).c
    inner = Poly1([row[mu1 - 1 - k] * (k + 1) for k in range(mu1)])
    return _extract_one(RF1(inner), mu2)


# ---------------------------------------------------------------------------
# cut-and-join recursion and closed forms


# cut_and_join_C refuses b = 2g-2+n+|mu| above this; b is also the depth of
# its recursion.  At b = 20 the costliest shape, (g, n) = (4, 1), visits
# about 8,000 states in under a second; each unit of b adds about 60%.
CUT_AND_JOIN_LIMIT = 20


@cache
def cut_and_join_C(g: int, n: int, mu) -> Fraction:
    """C_{g,n}(mu) by the cut-and-join recursion with C_{0,1}(1) = 1."""
    mu = tuple(mu)
    if n < 1 or len(mu) != n or any(m < 1 for m in mu):
        raise DomainError("mu must have n >= 1 positive parts")
    if g < 0:
        return Fraction(0)
    b = 2 * g - 2 + n + sum(mu)
    if b > CUT_AND_JOIN_LIMIT:
        raise ResourceLimitError(f"cut-and-join: b = 2g-2+n+|mu| = {b} above "
                                 f"the limit {CUT_AND_JOIN_LIMIT}")
    if b == 0:  # n >= 1 parts >= 1 leave b = 0 only at (0, 1, (1,))
        return Fraction(1)
    mu1, rest = mu[0], mu[1:]
    total = Fraction(0)
    # join terms
    for j in range(len(rest)):
        merged = (mu1 + rest[j],) + rest[:j] + rest[j + 1:]
        total += rest[j] * cut_and_join_C(g, n - 1, merged)
    # genus reduction
    for alpha in range(1, mu1):
        beta = mu1 - alpha
        total += cut_and_join_C(g - 1, n + 1, (alpha, beta) + rest)
    # splitting
    for alpha in range(1, mu1):
        beta = mu1 - alpha
        for g1 in range(0, g + 1):
            g2 = g - g1
            for I, J in splits(rest):
                total += cut_and_join_C(g1, 1 + len(I), (alpha,) + I) * \
                    cut_and_join_C(g2, 1 + len(J), (beta,) + J)
    return -total


def closed_form_C(level, mu) -> Fraction:
    """The (0,1), (0,2), (0,3) closed forms."""
    mu = tuple(mu)
    if level == (0, 1):
        (m,) = mu
        return Fraction((-1) ** (m - 1), m) * comb(2 * m - 2, m - 1)
    if level == (0, 2):
        m1, m2 = mu
        return (Fraction((-1) ** (m1 + m2)) * 2 * m1 * m2 * comb(2 * m1 - 1, m1)
                * comb(2 * m2 - 1, m2)) / (m1 + m2)
    if level == (0, 3):
        sign = (-1) ** (sum(mu) - 1)
        out = Fraction(8 * sign)
        for m in mu:
            out *= m * comb(2 * m - 1, m)
        return out
    raise DomainError(f"no closed form for level {level}")


def oracle_C(g: int, n: int, mu, limit=DEFAULT_ORACLE_LIMIT) -> Fraction:
    """(-1)^(n+|mu|) times the brute-force monotone factorization count."""
    from .symgroup import count_monotone_of_fixed_target

    mu = tuple(sorted(mu, reverse=True))
    b = 2 * g - 2 + n + sum(mu)
    m = count_monotone_of_fixed_target(check_partition(mu), b, strict=False, limit=limit)
    return Fraction((-1) ** (n + sum(mu)) * m)
