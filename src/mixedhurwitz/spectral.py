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

The module works on ints and index tuples only and imports no
rational-function code.  The curve, the unstable omega_{0,1} and omega_{0,2}
and the xi basis as rational functions live in ratfun: the reference the
tests check these closed forms against, which no CLI path imports.

Conventions: x = (z-1)^2/z (the normalization fixed by x(1/z) = x(z));
extraction at infinity uses u = 1/z, where x = (1-u)^2/u.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import comb

from .errors import DomainError, ResourceLimitError
from .util import DEFAULT_ORACLE_LIMIT, splits

# ---------------------------------------------------------------------------
# the xi basis
#
# Every stable omega_{g,n} lies in the span of the pure tensors
# xi_{k_1}(z_1) ... xi_{k_n}(z_n), xi_k(z) = z^k/(1+z)^(2k+2): in each
# variable its coefficient has poles at z = -1 only, and its numerator over
# (1+z)^(2K+2) is palindromic of degree 2K, which is exactly the span of
# xi_0..xi_K.  The sigma-pullback of xi_k is -xi_k.  ratfun writes xi_k as a
# rational function and a one-variable function in the basis.


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


# ---------------------------------------------------------------------------
# residues at z = -1, in closed form
#
# The kernel is K(z1, z) = k(z) / ((z1 - z)(z1 z - 1)), with
# k(z) = z(z-1)^3 / (2(z+1)) (ratfun.kernel_z_part).  Each
# integrand below decays like z^-3 or faster, so by the residue theorem its
# residue at z = -1 is minus the sum of its residues at the other poles:
# z = z1 and 1/z1 from K, and z = w and 1/w from a Bergman kernel.


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
            for I, J, w in splits(rest):
                for h in range(g + 1):
                    left = halves.get((h, len(I) + 1))
                    right = halves.get((g - h, len(J) + 1))
                    if left and right:
                        p += w * sum(_at(left, (a,) + I) * _at(right, (m - a,) + J)
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
def _xi_extract(k: int, mu_i: int) -> int:
    """ratfun._extract_one(xi(k), mu_i) in closed form: as
    xi_k(1/u) = u^(k+2)/(1+u)^(2k+2), it is [u^n] of (1-u)^(2 mu) (1+u)^-(2k+2)
    with n = mu-1-k."""
    n = mu_i - 1 - k
    if n < 0:
        return 0
    return (-1) ** n * sum(comb(2 * mu_i, j) * comb(2 * k + 1 + n - j, n - j)
                           for j in range(n + 1))


def check_mu(n, mu) -> tuple:
    """mu as a tuple of n parts, each >= 1, else DomainError."""
    mu = tuple(mu)
    if any(m < 1 for m in mu):
        raise DomainError("all mu_i must be >= 1")
    if n != len(mu):
        raise DomainError(f"omega has {n} slots, mu has {len(mu)}")
    return mu


def extract_terms(terms, mu, one) -> Fraction:
    """The sum over {(f_1..f_n): c} of c * one(f_1, mu_1) ... one(f_n, mu_n)."""
    total = Fraction(0)
    for factors, coef in terms.items():
        prod = coef
        for f, m in zip(factors, mu):
            prod *= one(f, m)
            if prod == 0:
                break
        total += prod
    return total


def extract_C(omega: XiForm, mu) -> Fraction:
    """C_{g,n}(mu) = residues at infinity of prod x(z_i)^{mu_i} omega.

    omega is a stable XiForm: its orderings with each k_i < mu_i extract per
    factor by the closed form _xi_extract, and every other ordering to 0.
    """
    mu = check_mu(omega.n, mu)
    return extract_terms(omega.ordered(mu), mu, _xi_extract)


# ---------------------------------------------------------------------------
# cut-and-join recursion and closed forms


# cut_and_join_C refuses b = 2g-2+n+|mu| above this; b is also the depth of
# its recursion.  At b = 20 the costliest shape, (g, n) = (4, 1), visits
# about 8,000 states in under a second; each unit of b adds about 60%.
CUT_AND_JOIN_LIMIT = 20


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
    return _cut_and_join(g, mu)


@cache
def _cut_and_join(g, mu):
    """cut_and_join_C on a checked tuple mu; each term lowers b by one."""
    if g < 0:
        return Fraction(0)
    if 2 * g - 2 + len(mu) + sum(mu) == 0:  # only at (0, (1,))
        return Fraction(1)
    mu1, rest = mu[0], mu[1:]
    total = Fraction(0)
    # join terms
    for j in range(len(rest)):
        merged = (mu1 + rest[j],) + rest[:j] + rest[j + 1:]
        total += rest[j] * _cut_and_join(g, merged)
    # genus reduction
    for alpha in range(1, mu1):
        beta = mu1 - alpha
        total += _cut_and_join(g - 1, (alpha, beta) + rest)
    # splitting
    for alpha in range(1, mu1):
        beta = mu1 - alpha
        for g1 in range(0, g + 1):
            g2 = g - g1
            for I, J, w in splits(rest):
                total += (w * _cut_and_join(g1, (alpha,) + I)
                          * _cut_and_join(g2, (beta,) + J))
    return -total


def closed_form_C(level, mu) -> Fraction:
    """The genus-0 closed form of Goulden, Guay-Paquet and Novak
    (arXiv:1204.2618), for level (0, n) and d = |mu|:

        (-1)^(n+d) prod_i mu_i C(2 mu_i, mu_i) (2d+1)^(n-3),

    with the rising factorial r^(k) = r (r+1) ... (r+k-1) and
    r^(-k) = 1 / ((r-1) ... (r-k)).
    """
    mu = tuple(mu)
    g, n = level
    if g != 0 or n < 1 or len(mu) != n or any(m < 1 for m in mu):
        raise DomainError(f"no closed form for level {level} at mu = {mu}")
    d = sum(mu)
    out = Fraction((-1) ** (n + d))
    for m in mu:
        out *= m * comb(2 * m, m)
    for j in range(n - 3):
        out *= 2 * d + 1 + j
    for j in range(1, 4 - n):
        out /= 2 * d + 1 - j
    return out


def oracle_C(g: int, n: int, mu, limit=DEFAULT_ORACLE_LIMIT) -> Fraction:
    """(-1)^(n+|mu|) times the brute-force monotone factorization count."""
    from .partitions import check_partition, transposition_count
    from .symgroup import count_monotone_of_fixed_target

    mu = check_partition(sorted(check_mu(n, mu), reverse=True))
    b = transposition_count(0, g, sum(mu), (mu,))
    m = count_monotone_of_fixed_target(mu, b, strict=False, limit=limit)
    return Fraction((-1) ** (n + sum(mu)) * m)
