import hashlib
import random
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, prod

import pytest

from mixedhurwitz import spectral
from mixedhurwitz.errors import DomainError
from mixedhurwitz.partitions import compositions, enumerate_partitions
from mixedhurwitz.ratfun import (
    OMEGA02,
    RF1,
    MultiPoly,
    Poly1,
    TensorSum,
    _extract_one,
    _xi_split,
    _z_power,
    b_self_sigma,
    curve_dx,
    curve_x,
    extract_rf1_C,
    omega01,
    spectral_data,
    xi,
    xi_coefficients,
    xi_tensor,
)
from mixedhurwitz.spectral import (
    _bergman_table,
    _pair_table,
    _xi_extract,
    ceo_omega,
    closed_form_C,
    cut_and_join_C,
    extract_C,
)


# ---------------------------------------------------------------------------
# reference residues at z = -1, from Laurent expansions in t = z + 1
#
# The closed forms of _pair_table, _bergman_table and the base cases are
# checked against this direct computation.  A t-series factor maps q to the
# principal part of its t^q coefficient in the one variable it carries.


def _shifted_power(q, scale, top):
    """scale * w^q / (1+w)^top as a principal part at w = -1."""
    return {top - i: scale * comb(q, i) * (-1) ** (q - i) for i in range(q + 1)}


@cache
def _kernel_at(p):
    """[t^p] of 1/((z1 - z)(z1 z - 1)) = -sum_{i+j=p} z1^j t^p/(1+z1)^(p+2)."""
    out = {}
    for j in range(p + 1):
        for order, c in _shifted_power(j, -1, p + 2).items():
            out[order] = out.get(order, 0) + c
    return out


def _bergman_at(q):
    """[t^q] of B(z, w) = 1/(z - w)^2 = 1/(t - (1+w))^2."""
    return {q + 2: Fraction(q + 1)}


def _bergman_sigma_at(q):
    """[t^q] of B(sigma z, w) with its chain factor: -1/((1+w) - w t)^2."""
    return _shifted_power(q, Fraction(-(q + 1)), q + 2)


def _bergman_diff_at(q):
    """[t^q] of B(sigma z, w) - B(z, w)."""
    out = dict(_bergman_sigma_at(q))
    out[q + 2] = out.get(q + 2, 0) - (q + 1)
    return out


def _kernel_z_num():
    """t * kernel_z_part() = z (z-1)^3 / 2 in t."""
    return _z_power(1) * Poly1([-8, 12, -6, 1]) * Fraction(1, 2)


def _xi_tensor(pp, r):
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


def _residue(num, order, factors):
    """Res_{z=-1} num(t) t^-order K(z1, z) prod factors, in the xi basis.

    K's z1 bifactor is expanded by _kernel_at; the result has z1 first, then
    the variable of each factor.  A coefficient that is not an integer is an
    AssertionError.
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
    out = {}
    for key, c in _xi_tensor(pp, len(factors)).items():
        assert c.denominator == 1, "residue coefficients must be integers"
        out[key] = int(c)
    return out


def test_closed_form_residues_match_the_laurent_reference():
    kz = _kernel_z_num()
    for m in range(13):
        ref = _residue(kz * _z_power(m) * -1, 2 * m + 5, ())
        assert _pair_table(m) == {k: c for (k,), c in ref.items()}, m
        ref = _residue(kz * _z_power(m), 2 * m + 3, (_bergman_diff_at,))
        assert _bergman_table(m) == ref, m
    # kernel_z_part() * b_self_sigma() = -z (z-1) / (2 t^3)
    ref = _residue(_z_power(1) * Poly1([-2, 1]) * Fraction(-1, 2), 3, ())
    assert ceo_omega(1, 1).terms == ref
    ref = _residue(kz, 1, (_bergman_at, _bergman_sigma_at))
    for key, c in _residue(kz, 1, (_bergman_sigma_at, _bergman_at)).items():
        ref[key] = ref.get(key, 0) + c
    assert ceo_omega(0, 3).terms == ref


def test_deep_omega_tables_are_pinned():
    # the sha256 of repr(sorted(ordered terms)): (6, 2) and (7, 1), with 171
    # and 19 terms, were computed with the Laurent residue engine; (8, 1),
    # with 22, and (2, 7), with 19,448 (132 sorted keys), by the ordered
    # recursion that stored every ordering of a key
    digests = {
        (6, 2): "d3bed14d0ed435c364fa7476ad0fb574bc35f20087149fe98d9b9f1f879a8793",
        (7, 1): "655c578c6809d87e08ec3530b041bbcc425b6e2b6a6924c12c5c28c9450cfbb3",
        (8, 1): "3cd488db2eef55d49e55f1427b21eea3549e7c2620266a235fb1e229ed5b2549",
        (2, 7): "1a3f2e88859a1b2b76fca827653e91c24668d3d9ca3a60e06563f4170846c42d",
    }
    for (g, n), digest in digests.items():
        terms = repr(sorted(ceo_omega(g, n).ordered().items()))
        assert hashlib.sha256(terms.encode()).hexdigest() == digest, (g, n)
    assert len(ceo_omega(2, 7).terms) == 132


def test_recursion_matches_cut_and_join_at_the_omega_budget():
    # the largest levels the omega bounds admit, at n = 1, n = 2 and g = 0
    for mu in ((1,), (2,), (3,)):                    # b <= 20
        assert extract_C(ceo_omega(9, 1), mu) == cut_and_join_C(9, 1, mu), mu
    for mu in ((1, 1), (2, 1)):
        assert extract_C(ceo_omega(8, 2), mu) == cut_and_join_C(8, 2, mu), mu
    mu = (1,) * 11
    assert extract_C(ceo_omega(0, 11), mu) == cut_and_join_C(0, 11, mu)


def test_pruned_extraction_matches_every_ordering(monkeypatch):
    # extract_C expands only the orderings with each k_i < mu_i; every other
    # ordering extracts to 0.  Checked on each level omega_{6,2} and
    # omega_{9,1} build, at random mu, against the sum over ordered().
    monkeypatch.setattr(spectral, "_omega_cache", {})
    ceo_omega(6, 2), ceo_omega(9, 1)
    levels = sorted(spectral._omega_cache)
    assert len(levels) == 53
    rng, nonzero = random.Random(0), 0
    for g, n in levels:
        om = ceo_omega(g, n)
        ordered = om.ordered()
        mu = tuple(rng.randint(1, 4) for _ in range(n))
        # rows[i][k] = _xi_extract(k, mu_i) for every k up to 3g-3+n
        rows = [[_xi_extract(k, m) for k in range(3 * g - 2 + n)] for m in mu]
        want = sum(c * prod(map(list.__getitem__, rows, ks))
                   for ks, c in ordered.items())
        assert extract_C(om, mu) == want, (g, n, mu)
        nonzero += want != 0
    assert nonzero == 49  # so the check is not vacuous


def test_spectral_data():
    x, y, kz, sigma = spectral_data()
    assert x.subs_reciprocal() == x          # x(1/z) = x(z)
    assert sigma == "reciprocal"
    dx = curve_dx()
    assert dx == RF1(Poly1([-1, 0, 1]), Poly1([0, 0, 1]))
    ydx = y * dx
    assert ydx == RF1(Poly1([1, 1]), Poly1([0, 1]) * Poly1([1, -2, 1]))


def test_bergman_difference_identity():
    # 1/(1-z1 z2)^2 == 1/(z1-z2)^2 - x'(z1)x'(z2)/(x(z1)-x(z2))^2, exactly,
    # via cross-multiplied multivariate polynomials
    x, dx = curve_x(), curve_dx()
    # build both sides as bivariate fractions with polynomial parts
    def up(poly, var):
        return MultiPoly.from_univariate(2, var, poly)

    one = MultiPoly.const(2, 1)
    z1z2 = MultiPoly(2, {(1, 1): 1})
    lhs_den = (one - z1z2) * (one - z1z2)
    diff = up(Poly1([0, 1]), 0) - up(Poly1([0, 1]), 1)
    dd = diff * diff
    # x(zi) = num_i/den_i
    xn1, xd1 = up(x.num, 0), up(x.den, 0)
    xn2, xd2 = up(x.num, 1), up(x.den, 1)
    dxn1, dxd1 = up(dx.num, 0), up(dx.den, 0)
    dxn2, dxd2 = up(dx.num, 1), up(dx.den, 1)
    xdiff = xn1 * xd2 - xn2 * xd1  # over xd1 xd2
    # lhs: 1/(1-z1z2)^2 ; rhs: 1/dd - (dxn1 dxn2 (xd1 xd2)^2) / (dxd1 dxd2 xdiff^2)
    # cross-multiplied identity:
    # dxd1*dxd2*xdiff^2 * (dd - lhs_den) == lhs_den * dd * dxn1*dxn2*(xd1*xd2)^2
    left = dxd1 * dxd2 * xdiff * xdiff * (lhs_den - dd)
    right = lhs_den * dd * dxn1 * dxn2 * xd1 * xd1 * xd2 * xd2
    assert (left - right).is_zero()


def test_extraction_from_initial_data():
    o1 = omega01()
    for m in range(1, 7):
        assert extract_rf1_C(o1, (m,)) == closed_form_C((0, 1), (m,))
    for m1 in range(1, 8):
        for m2 in range(1, 8):
            assert extract_rf1_C(OMEGA02, (m1, m2)) == closed_form_C((0, 2), (m1, m2))
    with pytest.raises(DomainError):
        extract_rf1_C(o1, (0,))


def test_omega03_closed_form():
    o3 = ceo_omega(0, 3)
    unit = RF1(Poly1([1]), Poly1([1, 1]) * Poly1([1, 1]))
    target = TensorSum(3)
    target.add_term(8, (unit, unit, unit))
    assert xi_tensor(o3).equals(target)
    for mu in compositions(4, 3):
        assert extract_C(o3, mu) == closed_form_C((0, 3), mu)


def test_omega_index_form():
    assert ceo_omega(0, 3).terms == {(0, 0, 0): 8}
    assert ceo_omega(1, 1).terms == {(1,): -1}    # -z/(1+z)^4
    assert all(f is xi(f.num.degree())
               for factors in xi_tensor(ceo_omega(1, 2)).terms for f in factors)
    # one coefficient per sorted key, shared by each of its orderings
    om = ceo_omega(1, 3)
    assert all(list(ks) == sorted(ks) for ks in om.terms)
    ordered = om.ordered()
    assert len(ordered) == comb(6, 3) > len(om.terms)
    assert all(om.terms[tuple(sorted(ks))] == c for ks, c in ordered.items())


def test_xi_closed_form_matches_rf1_extraction():
    for k in range(9):
        for mu in range(1, 12):
            assert _xi_extract(k, mu) == _extract_one(xi(k), mu), (k, mu)


@pytest.mark.parametrize("g,n", [(g, n) for g in range(3) for n in range(1, 7)
                                 if 0 < 2 * g - 2 + n <= 4])
def test_xi_form_extracts_as_its_tensor(g, n):
    om = ceo_omega(g, n)
    om_tensor = xi_tensor(om)
    for tot in range(n, 7):
        for mu in compositions(tot, n):
            assert extract_C(om, mu) == extract_rf1_C(om_tensor, mu), (g, n, mu)


def test_omega_tables_are_ints_pinned_to_their_values():
    levels = [(g, n) for g in range(4) for n in range(1, 8)
              if 0 < 2 * g - 2 + n <= 5]
    forms = sorted((g, n, sorted(ceo_omega(g, n).ordered().items()))
                   for g, n in levels)
    assert len(forms) == 14 and sum(len(t) for *_, t in forms) == 906
    tables = [c for *_, t in forms for _, c in t]
    for m in range(9):
        tables += [*_pair_table(m).values(), *_bergman_table(m).values()]
    assert all(type(c) is int for c in tables)
    # computed from the TensorSum form of the same omegas, coefficients as ints
    assert hashlib.sha256(repr(forms).encode()).hexdigest() == (
        "35ce65ae7c0ace574513542dfd758ada426cbdb49f4e59b7675463d2bc733cbe")


def test_xi_decomposition_refuses_functions_outside_the_basis():
    assert xi_coefficients(xi(3) * 2 - xi(0)) == {3: 2, 0: -1}
    one = Poly1([1])
    with pytest.raises(DomainError, match="not in the xi basis"):
        xi_coefficients(RF1(one, Poly1([1, 3, 3, 1])))      # 1/(1+z)^3
    with pytest.raises(DomainError, match="pole off z = -1"):
        xi_coefficients(RF1(one, Poly1([1, -2, 1])))        # 1/(z-1)^2
    with pytest.raises(DomainError, match="not in the xi basis"):
        # numerator 2 + 2z + z^2 over (1+z)^4 is not palindromic
        xi_coefficients(RF1(Poly1([2, 2, 1]), Poly1([1, 4, 6, 4, 1])))


@pytest.mark.parametrize("g,n", [(3, 2), (0, 8), (2, 4)])
def test_recursion_reaches_euler_characteristic_six(g, n):
    om = ceo_omega(g, n)
    for tot in range(n, n + 3):
        for mu in compositions(tot, n):
            assert extract_C(om, mu) == cut_and_join_C(g, n, mu), (g, n, mu)


def test_initial_data_errors():
    with pytest.raises(DomainError):
        ceo_omega(0, 2)
    with pytest.raises(DomainError):
        ceo_omega(0, 1)


def test_cut_and_join_values():
    assert cut_and_join_C(0, 1, (1,)) == 1
    assert cut_and_join_C(0, 2, (1, 1)) == 1
    assert cut_and_join_C(0, 2, (1, 2)) == -4
    assert cut_and_join_C(1, 1, (1,)) == 0
    assert cut_and_join_C(1, 1, (2,)) == -1
    # a list mu is read as the tuple
    assert cut_and_join_C(0, 2, [1, 2]) == cut_and_join_C(0, 2, (1, 2)) == -4
    assert cut_and_join_C(2, 2, [3, 1]) == cut_and_join_C(2, 2, (3, 1))
    for n in (1, 2, 3):
        for mu in compositions(4, n):
            level = (0, n)
            if n <= 3:
                assert cut_and_join_C(0, n, mu) == closed_form_C(level, mu)


def test_closed_form_examples():
    assert closed_form_C((0, 1), (3,)) == 2
    assert closed_form_C((0, 2), (1, 2)) == -4
    assert closed_form_C((0, 3), (1, 1, 2)) == -48
    for level, mu in [((1, 1), (2,)), ((0, 2), (3,)), ((0, 1), (0,))]:
        with pytest.raises(DomainError, match="no closed form"):
            closed_form_C(level, mu)


def test_genus_zero_closed_form_matches_cut_and_join():
    # every sorted mu with n <= 7 parts and b = n - 2 + |mu| <= 20
    cases = [mu for d in range(1, 22) for mu in enumerate_partitions(d)
             if len(mu) <= 7 and len(mu) - 2 + d <= 20]
    assert len(cases) == 954
    for mu in cases:
        assert closed_form_C((0, len(mu)), mu) == cut_and_join_C(0, len(mu), mu), mu


def test_xi_basis_is_sigma_odd_with_poles_at_minus_one_only():
    # xi_k(1/z) = z^2 xi_k(z), so sigma pulls xi_k dz back to -xi_k dz, and
    # xi_k is its own basis expansion, so its only pole is z = -1; every
    # stable omega, a combination of products of xi_k, inherits both
    z2 = RF1(Poly1([0, 0, 1]))
    for k in range(13):
        assert xi(k).subs_reciprocal() == xi(k) * z2, k
        assert xi_coefficients(xi(k)) == {k: 1}, k
    # add_term moves a factor's sign into the term's coefficient
    t = TensorSum(1)
    t.add_term(3, (RF1(Poly1([1, -2])),))
    assert t.terms == {(RF1(Poly1([-1, 2])),): -3}


def test_fa_structure():
    # f_0 = 2z^2/((z-1)(z+1)^3); f_a = (-d/dx x)^a f_0 is sigma-antiinvariant
    f0 = RF1(Poly1([0, 0, 2]),
             Poly1([-1, 1]) * Poly1([1, 1]) * Poly1([1, 1]) * Poly1([1, 1]))
    x = curve_x()
    dz_dx = RF1(Poly1([0, 0, -1]), Poly1([-1, 0, 1]))  # -z^2/(z^2-1)
    f = f0
    for a in range(4):
        assert (f + f.subs_reciprocal()).is_zero(), a
        f = dz_dx * (x * f).derivative()


def test_b_self_sigma():
    expect = RF1(Poly1([-1]),
                 Poly1([1, -2, 1]) * Poly1([1, 2, 1]))
    assert b_self_sigma() == expect
