"""Acceptance suite: each criterion runs at its stated range and tolerance
(everything is exact) and prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is part of the default `pytest` run.
"""

import time
from fractions import Fraction

from mixedhurwitz.characters import connected_hurwitz_qseries, sector_value
from mixedhurwitz.double_recursion import base_g_assembly
from mixedhurwitz.partitions import (
    enumerate_partitions,
    hook_dim,
    stirling,
)
from mixedhurwitz.quasimodular import (
    FitFailure,
    fit_quasimodular,
    partition_gf,
)
from mixedhurwitz.ratfun import RF1, Poly1, TensorSum, xi_tensor
from mixedhurwitz.series import QSeries
from mixedhurwitz.spectral import ceo_omega
from mixedhurwitz.suites import run_suite
from mixedhurwitz.util import DEFAULT_ORACLE_LIMIT
from references import falling_factorial, weight_component


def _report(num, name, t0):
    print(f"PASS criterion {num}: {name} [{time.time() - t0:.1f}s]")


def _verify(suite, dmax=4):
    """(cases checked, first counterexample) of one `verify` suite, run as
    `verify --suite <suite> --dmax <dmax>` runs it."""
    return run_suite(suite, dmax, False, DEFAULT_ORACLE_LIMIT)


def test_criterion_1_oracle_character_equivalence():
    t0 = time.time()
    assert _verify("oracle-vs-characters", dmax=5) == (382, None)
    _report(1, "oracle == characters on 382 spec evaluations "
               "(disconnected and connected), d <= 5", t0)


def test_criterion_2_appendix_golden_series():
    t0 = time.time()
    # the mu = (3) table lists the q-bracket of the sector functional (it
    # differs from the connected series by products of lower connected
    # pieces; the connected series itself is pinned against the oracle in
    # criterion 1)
    assert _verify("golden-series") == (4, None)
    _report(2, "golden q-series through q^8 (mu=()) and q^6 (mu=(3))", t0)


# the (k, l, m) sectors of the golden series
GOLDEN = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]


def _bracket_series(k, l, m, order):
    num = QSeries([sector_value(1, k, l, m, (), d) for d in range(order + 1)])
    return num / partition_gf(order)


def test_criterion_3_quasimodular_fits():
    t0 = time.time()
    D = Fraction(1, 2**6 * 3**4 * 5)
    fits = {}
    for klm in GOLDEN:
        fits[klm] = fit_quasimodular(_bracket_series(*klm, 12), 6)
        assert not isinstance(fits[klm], FitFailure), klm
    f = fits[(2, 0, 0)]
    assert f.coefficient(3, 0, 0) == 5 * D
    assert f.coefficient(1, 1, 0) == -3 * D
    assert f.coefficient(0, 0, 1) == -2 * D
    assert f.coefficient(2, 0, 0) == 0 and f.coefficient(0, 0, 0) == 0
    f = fits[(0, 2, 0)]
    E = D / 2
    assert f.coefficient(3, 0, 0) == 5 * E
    assert f.coefficient(1, 1, 0) == -3 * E
    assert f.coefficient(0, 0, 1) == -2 * E
    assert f.coefficient(2, 0, 0) == 45 * E
    assert f.coefficient(0, 1, 0) == 18 * E
    assert f.coefficient(1, 0, 0) == 90 * E
    assert f.coefficient(0, 0, 0) == -153 * E
    f = fits[(0, 0, 2)]
    assert f.coefficient(3, 0, 0) == 5 * E
    assert f.coefficient(2, 0, 0) == -45 * E
    assert f.coefficient(0, 1, 0) == -18 * E
    assert f.coefficient(1, 0, 0) == -90 * E
    assert f.coefficient(0, 0, 0) == 153 * E
    _report(3, "weight-6 fits match the exact tabulated polynomials", t0)
    test_criterion_3_quasimodular_fits.fits = fits


def test_criterion_4_top_weight_equality():
    t0 = time.time()
    comps = {}
    for (k, l, m) in GOLDEN:
        fit = fit_quasimodular(_bracket_series(k, l, m, 12), 6)
        scale = Fraction(2) ** (l + m + (1 if l == 0 else 0)
                                + (1 if m == 0 else 0) - 2)
        comps[(k, l, m)] = {
            mono: coef * scale for mono, coef in weight_component(fit, 6)
        }
    ref = comps[(2, 0, 0)]
    assert comps[(0, 2, 0)] == ref
    assert comps[(0, 0, 2)] == ref
    _report(4, "rescaled weight-6 components coincide across (k,l,m)", t0)


def test_criterion_5_quantum_curves():
    t0 = time.time()
    assert _verify("quantum-curve") == (6, None)
    _report(5, "operators annihilate Z exactly on d <= 8, b <= 8, g <= 2", t0)


def test_criterion_6_n_recursion():
    t0 = time.time()
    assert _verify("n-recursion") == (746, None)
    _report(6, "N-recursion == oracle on 746 slots, d <= 5, b <= 3", t0)


def test_criterion_7_topological_recursion():
    t0 = time.time()
    assert _verify("toprec") == (30, None)
    # omega_{0,3} closed form
    unit = RF1(Poly1([1]), Poly1([1, 1]) * Poly1([1, 1]))
    target = TensorSum(3)
    target.add_term(8, (unit, unit, unit))
    assert xi_tensor(ceo_omega(0, 3)).equals(target)
    _report(7, "extraction == cut-and-join == oracle on 30 correlators; "
               "omega_03 closed form", t0)


def test_criterion_8_tropical_correspondence():
    t0 = time.time()
    assert _verify("tropical") == (10, None)
    # the character values the tropical sums equal, d = 1..5
    for kl, expect in (((0, 2, 0), [0, 2, 13, 44, 109]),
                       ((0, 0, 2), [0, 0, 3, 16, 51])):
        assert connected_hurwitz_qseries(1, *kl, (), 5).coefficients(1, 5) == \
            expect, kl
    _report(8, "elliptic tropical sums == character values, g=2, d <= 5 "
               "(pins the sinh-coefficient sign convention)", t0)


def test_criterion_9_base_genus_assembly():
    t0 = time.time()
    from mixedhurwitz.characters import connected_series

    for variant, kl, expect in (
        ("monotone", (0, 2, 0), {2: 2, 3: 13, 4: 44}),
        ("strict", (0, 0, 2), {2: 0, 3: 3, 4: 16}),
    ):
        fam = {}
        for b1 in (0, 1, 2):
            key = (0, b1, 0) if variant == "monotone" else (0, 0, b1)
            coeffs = []
            for d in range(0, 5):
                if d == 0:
                    coeffs.append(Fraction(1) if b1 == 0 else Fraction(0))
                elif b1 % 2:
                    coeffs.append(Fraction(0))
                else:
                    coeffs.append(
                        base_g_assembly(variant, 1, (b1 + 2) // 2, (), d))
            fam[(key[0], key[1], key[2], ())] = QSeries(coeffs)
        conn = connected_series(fam)[(kl[0], kl[1], kl[2], ())]
        for d, want in expect.items():
            assert conn.coefficient(d) == want, (variant, d)
    _report(9, "N-recursion + commutator assembly reproduces the golden "
               "values, d <= 4", t0)


def test_criterion_10_property_suites():
    t0 = time.time()
    from math import factorial

    # Stirling identities
    for n in range(0, 9):
        for x in range(1, 7):
            assert sum(stirling("second", n, k) * falling_factorial(x, k)
                       for k in range(n + 1)) == Fraction(x) ** n
    for n in range(0, 11):
        lhs = [(-1) ** j * stirling("first_unsigned", n, n - j)
               for j in range(n + 1)]
        rhs = [Fraction(1)] + [Fraction(0)] * n
        for r in range(1, n):
            rhs = [rhs[i] - (r * rhs[i - 1] if i else 0) for i in range(n + 1)]
        assert [Fraction(v) for v in lhs] == rhs
    # orthogonality
    for d in range(0, 9):
        assert sum(hook_dim(l) ** 2 for l in enumerate_partitions(d)) == \
            factorial(d)
    # W_{0,2} rational-function identity (cross-multiplied, exact)
    from mixedhurwitz.ratfun import MultiPoly, curve_dx, curve_x

    x, dx = curve_x(), curve_dx()

    def up(poly, var):
        return MultiPoly.from_univariate(2, var, poly)

    one = MultiPoly.const(2, 1)
    z1z2 = MultiPoly(2, {(1, 1): 1})
    lhs_den = (one - z1z2) * (one - z1z2)
    diff = up(Poly1([0, 1]), 0) - up(Poly1([0, 1]), 1)
    dd = diff * diff
    xdiff = up(x.num, 0) * up(x.den, 1) - up(x.num, 1) * up(x.den, 0)
    left = (up(dx.den, 0) * up(dx.den, 1) * xdiff * xdiff * (lhs_den - dd))
    right = (lhs_den * dd * up(dx.num, 0) * up(dx.num, 1)
             * up(x.den, 0) * up(x.den, 0) * up(x.den, 1) * up(x.den, 1))
    assert (left - right).is_zero()
    # f_nu shifted-symmetric cross-checks
    from mixedhurwitz.characters import central_character_f
    from test_characters import central_character_extended

    half = Fraction(1, 2)
    for d in range(0, 9):
        for lam in enumerate_partitions(d):
            if d >= 1:
                assert central_character_extended((1,), lam) == d
            if d >= 2:
                expect = sum(
                    ((lam[i - 1] - i + half) ** 2 - (-i + half) ** 2
                     for i in range(1, len(lam) + 1)),
                    Fraction(0)) / 2
                assert central_character_f((2,), lam) == expect
    _report(10, "Stirling identities, orthogonality, Bergman-difference "
                "identity, shifted-symmetric cross-checks", t0)
