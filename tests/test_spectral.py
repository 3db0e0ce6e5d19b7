import hashlib
from fractions import Fraction

import pytest

from mixedhurwitz.errors import DomainError
from mixedhurwitz.partitions import compositions
from mixedhurwitz.ratfun import RF1, MultiPoly, Poly1, TensorSum
from mixedhurwitz.spectral import (
    OMEGA02,
    _bergman_table,
    _extract_one,
    _pair_table,
    _xi_extract,
    b_self_sigma,
    ceo_omega,
    closed_form_C,
    curve_dx,
    curve_x,
    curve_y,
    cut_and_join_C,
    extract_C,
    omega01,
    pole_structure,
    sigma_antisymmetry_defect,
    spectral_data,
    xi,
    xi_coefficients,
)


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
        assert extract_C(o1, (m,)) == closed_form_C((0, 1), (m,))
    for m1 in range(1, 8):
        for m2 in range(1, 8):
            assert extract_C(OMEGA02, (m1, m2)) == closed_form_C((0, 2), (m1, m2))
    with pytest.raises(DomainError):
        extract_C(o1, (0,))


def test_omega03_closed_form():
    o3 = ceo_omega(0, 3)
    unit = RF1(Poly1([1]), Poly1([1, 1]) * Poly1([1, 1]))
    target = TensorSum(3)
    target.add_term(8, (unit, unit, unit))
    assert o3.tensor().equals(target)
    for mu in compositions(4, 3):
        assert extract_C(o3, mu) == closed_form_C((0, 3), mu)


def test_omega_index_form():
    assert ceo_omega(0, 3).terms == {(0, 0, 0): 8}
    assert ceo_omega(1, 1).terms == {(1,): -1}    # -z/(1+z)^4
    assert all(f is xi(f.num.degree())
               for factors in ceo_omega(1, 2).tensor().terms for f in factors)


def test_xi_closed_form_matches_rf1_extraction():
    for k in range(9):
        for mu in range(1, 12):
            assert _xi_extract(k, mu) == _extract_one(xi(k), mu), (k, mu)


@pytest.mark.parametrize("g,n", [(g, n) for g in range(3) for n in range(1, 7)
                                 if 0 < 2 * g - 2 + n <= 4])
def test_xi_form_extracts_as_its_tensor(g, n):
    om = ceo_omega(g, n)
    om_tensor = om.tensor()
    for tot in range(n, 7):
        for mu in compositions(tot, n):
            assert extract_C(om, mu) == extract_C(om_tensor, mu), (g, n, mu)


def test_omega_tables_are_ints_pinned_to_their_values():
    levels = [(g, n) for g in range(4) for n in range(1, 8)
              if 0 < 2 * g - 2 + n <= 5]
    forms = sorted((g, n, sorted(ceo_omega(g, n).terms.items()))
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
    for n in (1, 2, 3):
        for mu in compositions(4, n):
            level = (0, n)
            if n <= 3:
                assert cut_and_join_C(0, n, mu) == closed_form_C(level, mu)


def test_closed_form_examples():
    assert closed_form_C((0, 1), (3,)) == 2
    assert closed_form_C((0, 2), (1, 2)) == -4
    assert closed_form_C((0, 3), (1, 1, 2)) == -48


@pytest.mark.parametrize("g,n", [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)])
def test_antisymmetry_and_poles(g, n):
    om = ceo_omega(g, n)
    assert sigma_antisymmetry_defect(om).is_zero()
    for facs in pole_structure(om):
        assert facs["z"] == 0
        assert facs["z-1"] <= 1


def test_sigma_defect_cancels_term_by_term():
    # the pullback of xi_k is -xi_k; with the sign moved into the term's
    # coefficient the defect is empty before any combine()
    assert sigma_antisymmetry_defect(ceo_omega(1, 4)).terms == {}
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
