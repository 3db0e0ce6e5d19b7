"""CEO topological recursion on the curve x = (z-1)^2/z, y = z/(z-1)^3.

Multidifferentials are stored with the dz's stripped as TensorSum values; the
deck involution is sigma(z) = 1/z, and a sigma-pullback of a coefficient goes
through RF1.sigma_pullback(), which carries the d(1/z)/dz = -1/z^2 chain
factor.  Each stable omega_{g,n} is a combination of pure tensors of the basis
xi_k(z) = z^k/(1+z)^(2k+2), whose sigma-pullback is -xi_k, so the recursion
works on {index tuple: Fraction} maps.  Residues are taken at z = -1 only (the
z = 1 residue does not contribute for this curve); they are tables per basis
index, computed once from Laurent expansions in t = z + 1.

Conventions: x = (z-1)^2/z (the normalization fixed by x(1/z) = x(z));
extraction at infinity uses u = 1/z, where x = (1-u)^2/u.
"""

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb

from .errors import DomainError
from .partitions import check_partition
from .ratfun import RF1, Poly1, TensorSum, laurent_at_zero

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
# xi_0..xi_K.  The sigma-pullback of xi_k is -xi_k.  One-variable results
# are first kept as principal parts {j: c}, meaning sum c (1+w)^-j, and then
# written in the basis by _xi_split, which refuses anything outside it.


@cache
def xi(k: int) -> RF1:
    """The basis coefficient z^k/(1+z)^(2k+2)."""
    den = Poly1([comb(2 * k + 2, i) for i in range(2 * k + 3)])
    return RF1(Poly1([0] * k + [1]), den, reduce=False)


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


def _xi_tensor(pp, r) -> dict:
    """{(j_1..j_r): c} of principal-part orders -> {(k_1..k_r): c}, slot by slot."""
    for s in range(r):
        cols = {}
        for key, c in pp.items():
            cols.setdefault(key[:s] + key[s + 1:], {})[key[s]] = c
        pp = {}
        for rest, col in cols.items():
            for k, c in _xi_split(col).items():
                pp[rest[:s] + (k,) + rest[s:]] = c
    return pp


def xi_coefficients(f: RF1) -> dict:
    """A one-variable coefficient in the xi basis, {k: c}.

    Raises DomainError when f has a pole off z = -1 or is not in the span.
    """
    num, den = f.num.taylor_shift(-1), f.den.taylor_shift(-1)  # in w = 1 + z
    top = den.degree()
    if den.valuation() != top:
        raise DomainError(f"{f} has a pole off z = -1")
    return _xi_split({top - i: c for i, c in enumerate(num.c)})


def xi_index_form(om: TensorSum) -> dict:
    """ceo_omega's output as {(k_1..k_n): c}; the factor xi_k has numerator z^k."""
    return {tuple(f.num.degree() for f in factors): c
            for factors, c in om.terms.items()}


def b_self_sigma() -> RF1:
    """omega_{0,2}(z, sigma(z)) with the chain factor: -1/((z-1)^2 (z+1)^2)."""
    den = Poly1([-1, 1]) * Poly1([-1, 1]) * Poly1([1, 1]) * Poly1([1, 1])
    return RF1(Poly1([-1]), den)


# ---------------------------------------------------------------------------
# residues at z = -1 in t = z + 1
#
# A t-series factor maps q to the principal part of its t^q coefficient in
# the one variable it carries.


def _shifted_power(q, scale, top) -> dict:
    """scale * w^q / (1+w)^top as a principal part at w = -1."""
    return {top - i: scale * comb(q, i) * (-1) ** (q - i) for i in range(q + 1)}


@cache
def _kernel_at(p) -> dict:
    """[t^p] of 1/((z1 - z)(z1 z - 1)) = -sum_{i+j=p} z1^j t^p/(1+z1)^(p+2)."""
    out = {}
    for j in range(p + 1):
        for order, c in _shifted_power(j, -1, p + 2).items():
            out[order] = out.get(order, 0) + c
    return out


@cache
def _bergman_at(q) -> dict:
    """[t^q] of B(z, w) = 1/(z - w)^2 = 1/(t - (1+w))^2."""
    return {q + 2: Fraction(q + 1)}


@cache
def _bergman_sigma_at(q) -> dict:
    """[t^q] of B(sigma z, w) with its chain factor: -1/((1+w) - w t)^2."""
    return _shifted_power(q, Fraction(-(q + 1)), q + 2)


@cache
def _bergman_diff_at(q) -> dict:
    """[t^q] of B(sigma z, w) - B(z, w)."""
    out = dict(_bergman_sigma_at(q))
    out[q + 2] = out.get(q + 2, 0) - (q + 1)
    return out


def _z_power(m) -> Poly1:
    """z^m = (t - 1)^m."""
    return Poly1([comb(m, i) * (-1) ** (m - i) for i in range(m + 1)])


def _kernel_z_num() -> Poly1:
    """t * kernel_z_part() = z (z-1)^3 / 2 in t."""
    return _z_power(1) * Poly1([-8, 12, -6, 1]) * Fraction(1, 2)


def _residue(num: Poly1, order, factors) -> dict:
    """Res_{z=-1} num(t) t^-order K(z1, z) prod factors, in the xi basis.

    K's z1 bifactor is expanded by _kernel_at; the result has z1 first,
    then the variable of each factor.
    """
    factors = (_kernel_at,) + tuple(factors)
    pp = {}
    for qs in product(range(order), repeat=len(factors)):
        i = order - 1 - sum(qs)
        if i < 0 or i >= len(num.c) or not num.c[i]:
            continue
        terms = {(): num.c[i]}
        for f, q in zip(factors, qs):
            terms = {key + (j,): v * c for key, v in terms.items()
                     for j, c in f(q).items()}
        for key, v in terms.items():
            pp[key] = pp.get(key, 0) + v
    return _xi_tensor(pp, len(factors))


@cache
def _pair_table(m) -> dict:
    """R_m(z1) = Res K(z1, z) (-xi_a xi_b)(z) for a + b = m, as {k: c}."""
    tab = _residue(_kernel_z_num() * _z_power(m) * -1, 2 * m + 5, ())
    return {k: c for (k,), c in tab.items()}


@cache
def _bergman_table(a) -> dict:
    """S_a(z1, w) = Res K(z1, z) xi_a(z) [B(sigma z, w) - B(z, w)], {(k1, kw): c}."""
    return _residue(_kernel_z_num() * _z_power(a), 2 * a + 3, (_bergman_diff_at,))


def _base_case(g, n) -> dict:
    """(1,1) from omega_{0,2}(z, sigma z); (0,3) from two Bergman kernels."""
    if (g, n) == (1, 1):
        # kernel_z_part() * b_self_sigma() = -z (z-1) / (2 t^3)
        return _residue(_z_power(1) * Poly1([-2, 1]) * Fraction(-1, 2), 3, ())
    kz = _kernel_z_num()
    out = _residue(kz, 1, (_bergman_at, _bergman_sigma_at))
    for key, c in _residue(kz, 1, (_bergman_sigma_at, _bergman_at)).items():
        out[key] = out.get(key, 0) + c
    return out


# ---------------------------------------------------------------------------
# the recursion

_omega_cache = {}


def ceo_omega(g: int, n: int) -> TensorSum:
    """The multidifferential omega_{g,n} (dz's stripped) for 2g-2+n > 0.

    The result is canonical: a sum of pure tensors of the xi(k), one term
    per index tuple.
    """
    if n < 1 or g < 0:
        raise DomainError("need n >= 1, g >= 0")
    if 2 * g - 2 + n <= 0:
        raise DomainError("(0,1) and (0,2) are initial data, not recursion output")
    key = (g, n)
    if key in _omega_cache:
        return _omega_cache[key]
    if key in ((1, 1), (0, 3)):
        coeffs = _base_case(g, n)
    else:
        coeffs = _recursion(g, n)
    out = TensorSum(n, {tuple(xi(k) for k in ks): c for ks, c in coeffs.items()})
    _omega_cache[key] = out
    return out


def _recursion(g, n) -> dict:
    """Res K(z1, z) [omega_{g-1,n+1}(z, sigma z, S) + primed sum of
    omega_{g1}(z, I) omega_{g2}(sigma z, J)] over I + J = S = slots 1..n-1.

    Stable terms meet in -xi_a xi_b(z), which depends on a + b only, so a
    split and its mirror give the same terms: each unordered split is summed
    once, doubled when its two sides differ.  The terms with omega_{0,2} pair
    up into B(sigma z, w) - B(z, w).
    """
    forms = {}

    def form(gx, nx):
        if (gx, nx) not in forms:
            forms[gx, nx] = xi_index_form(ceo_omega(gx, nx))
        return forms[gx, nx]

    rest = tuple(range(1, n))
    pairs = {}  # (a + b, indices of slots 1..n-1) -> coefficient
    if g >= 1:
        for (a, b, *ks), c in form(g - 1, n + 1).items():
            key = (a + b, tuple(ks))
            pairs[key] = pairs.get(key, 0) + c
    for g1 in range(g + 1):
        g2 = g - g1
        for I in _subsets(rest):
            J = tuple(s for s in rest if s not in I)
            if (g1, I) > (g2, J):
                continue  # the mirror split (g2, J) lands on the same keys
            if 2 * g1 - 1 + len(I) <= 0 or 2 * g2 - 1 + len(J) <= 0:
                continue  # (0,1), or (0,2) which the Bergman table carries
            twice = 1 if (g1, I) == (g2, J) else 2
            perm = [(I + J).index(s) for s in rest]
            for (a, *k1), c1 in form(g1, len(I) + 1).items():
                c1 *= twice
                for (b, *k2), c2 in form(g2, len(J) + 1).items():
                    kk = k1 + k2
                    key = (a + b, tuple(kk[p] for p in perm))
                    pairs[key] = pairs.get(key, 0) + c1 * c2
    out = {}
    for (m, ks), c in pairs.items():
        for k1, r in _pair_table(m).items():
            key = (k1,) + ks
            out[key] = out.get(key, 0) + c * r
    if rest and 2 * g - 3 + n > 0:
        # omega_{g,n-1}(z or sigma z, S - j) times omega_{0,2}(sigma z or z, z_j)
        for (a, *ks), c in form(g, n - 1).items():
            for j in rest:
                for (k1, kj), s in _bergman_table(a).items():
                    key = (k1,) + tuple(ks[:j - 1]) + (kj,) + tuple(ks[j - 1:])
                    out[key] = out.get(key, 0) + c * s
    return {k: c for k, c in out.items() if c}


def _subsets(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield tuple(items[i] for i in range(len(items)) if (mask >> i) & 1)


# ---------------------------------------------------------------------------
# extraction of the correlators


@cache
def _extract_one(f: RF1, mu_i: int) -> Fraction:
    """Res_{z->inf} x(z)^mu f(z) dz via u = 1/z: coefficient of u^(mu+1) in
    (1-u)^(2 mu) u^(-mu) f(1/u) -- i.e. [u^(1+2mu... ] handled exactly."""
    g = f.subs_reciprocal()
    pw = Poly1([1, -1])  # (1-u)
    acc = Poly1([1])
    for _ in range(2 * mu_i):
        acc = acc * pw
    h = RF1(g.num * acc, g.den)
    return laurent_at_zero(h.num, h.den, mu_i + 1)


def extract_C(omega, mu) -> Fraction:
    """C_{g,n}(mu) = residues at infinity of prod x(z_i)^{mu_i} omega.

    omega is a TensorSum, omega01(), or the OMEGA02 sentinel (Bergman kernel,
    whose double-pole part extracts to zero).
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
    total = Fraction(0)
    for factors, coef in omega.terms.items():
        prod = coef
        for f, m in zip(factors, mu):
            prod *= _extract_one(f, m)
            if prod == 0:
                break
        total += prod
    return total


def _extract_bergman(mu1: int, mu2: int) -> Fraction:
    """Iterated extraction of 1/(z1-z2)^2 (= omega_{0,2} with dz's stripped)."""
    # inner residue in z1: coefficient of u^(mu1+1) in (1-u)^(2mu1) u^(-mu1) *
    # 1/((1/u) - z2)^2 = u^2/(1 - u z2)^2; expansion has Poly1-in-z2 coeffs
    keep = mu1 + 2 + 1
    # (1-u)^(2 mu1) * u^(2 - mu1) * sum_k (k+1) z2^k u^k ; need coeff of u^(mu1+1)
    pw = Poly1([1, -1])
    acc = Poly1([1])
    for _ in range(2 * mu1):
        acc = acc * pw
    # coefficient of u^(mu1+1) of acc(u) * u^(2-mu1) * sum (k+1) (z2 u)^k:
    # sum over k: acc[mu1+1 - (2-mu1) - k] * (k+1) z2^k
    poly_z2 = {}
    base = mu1 - 1  # [u^(1+mu1)] of (1-u)^(2mu1) u^2 sum_k (k+1)(z2 u)^k
    for k in range(0, base + 1):
        idx = base - k
        if 0 <= idx < len(acc.c) and acc.c[idx]:
            poly_z2[k] = acc.c[idx] * (k + 1)
    inner = Poly1([poly_z2.get(e, 0) for e in range(max(poly_z2, default=0) + 1)])
    outer = RF1(inner, Poly1([1]))
    return _extract_one(outer, mu2)


# ---------------------------------------------------------------------------
# cut-and-join recursion and closed forms


@cache
def cut_and_join_C(g: int, n: int, mu) -> Fraction:
    """C_{g,n}(mu) by the cut-and-join recursion with C_{0,1}(1) = 1."""
    mu = tuple(mu)
    if len(mu) != n or any(m < 1 for m in mu):
        raise DomainError("mu must have n positive parts")
    if g < 0:
        return Fraction(0)
    b = 2 * g - 2 + n + sum(mu)
    if b < 0:
        return Fraction(0)
    if (g, n, mu) == (0, 1, (1,)):
        return Fraction(1)
    if b == 0:
        return Fraction(0)
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
            for subset in _subsets(range(len(rest))):
                I = tuple(rest[i] for i in subset)
                J = tuple(rest[i] for i in range(len(rest)) if i not in subset)
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


def oracle_C(g: int, n: int, mu, limit=6) -> Fraction:
    """(-1)^(n+|mu|) times the brute-force monotone factorization count."""
    from .symgroup import count_monotone_of_fixed_target

    mu = tuple(sorted(mu, reverse=True))
    b = 2 * g - 2 + n + sum(mu)
    m = count_monotone_of_fixed_target(check_partition(mu), b, strict=False, limit=limit)
    return Fraction((-1) ** (n + sum(mu)) * m)


# ---------------------------------------------------------------------------
# invariant helpers


def sigma_antisymmetry_defect(om: TensorSum) -> TensorSum:
    """om(1/z1, rest)*d(1/z1)/dz1 + om(z1, rest): zero for stable (g,n)."""
    pulled = om.apply_slot(0, lambda f: f.sigma_pullback())
    return pulled + om


def pole_structure(om: TensorSum):
    """Per-variable denominator factorization over {z, z-1, z+1}.

    Returns a list of dicts {"z":a, "z-1":b, "z+1":c} after reducing the
    combined fraction; raises DomainError if any other factor survives.
    """
    num, dens = om.combine()
    out = []
    for i, d in enumerate(dens):
        facs = {"z": 0, "z-1": 0, "z+1": 0}
        for label, root in (("z", Fraction(0)), ("z-1", Fraction(1)), ("z+1", Fraction(-1))):
            while True:
                q, r = d.divmod(Poly1([-root, 1]))
                if r.is_zero() and not d.is_zero() and d.degree() >= 1:
                    # cancel against the numerator when possible
                    cancelled = num.divide_linear(i, root)
                    if cancelled is not None:
                        num = cancelled
                        d = q
                        continue
                    facs[label] += 1
                    d = q
                    continue
                break
        if d.degree() > 0:
            raise DomainError(f"unexpected denominator factor {d} in variable {i}")
        out.append(facs)
    return out
