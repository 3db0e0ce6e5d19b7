import time
from fractions import Fraction

import pytest

from mixedhurwitz.errors import DomainError
from mixedhurwitz.characters import sector_value
from mixedhurwitz.partitions import contents, enumerate_partitions, sym_eval
from mixedhurwitz.quasimodular import (
    FitFailure,
    Q_k_eval,
    basis_size,
    c_coefficient,
    completion_coefficients,
    eisenstein,
    fit_quasimodular,
    monomial_basis,
    partition_gf,
    q_bracket,
)
from mixedhurwitz.series import QSeries
from references import (completion_reference, expand_quasimodular, partitions_upto,
                        sinh_coefficient)
from test_characters import central_character_extended


def test_eisenstein_expansions():
    P = eisenstein(2, 3)
    assert P.coefficients(0, 3) == [1, -24, -72, -96]
    assert eisenstein(4, 2).coefficients(0, 2) == [1, 240, 2160]
    assert eisenstein(6, 1).coefficients(0, 1) == [1, -504]
    with pytest.raises(DomainError):
        eisenstein(8, 3)


def test_eisenstein_satisfies_ramanujans_identities():
    # q dP/dq = (P^2 - Q)/12, q dQ/dq = (PQ - R)/3, q dR/dq = (PR - Q^2)/2:
    # one wrong coefficient breaks an identity at its own order
    order = 40
    P, Q, R = (eisenstein(k, order).coefficients(0, order) for k in (2, 4, 6))

    def times(a, b):
        return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(order + 1)]

    def theta(a, scale):
        """scale * q d/dq of a."""
        return [scale * n * x for n, x in enumerate(a)]

    assert theta(P, 12) == [x - y for x, y in zip(times(P, P), Q)]
    assert theta(Q, 3) == [x - y for x, y in zip(times(P, Q), R)]
    assert theta(R, 2) == [x - y for x, y in zip(times(P, R), times(Q, Q))]


def test_q_bracket_basics():
    assert q_bracket(lambda lam: 1, 6).coefficients(0, 6) == [1, 0, 0, 0, 0, 0, 0]
    size_bracket = q_bracket(lambda lam: sum(lam), 4)
    assert size_bracket.coefficients(0, 4) == [0, 1, 3, 4, 7]
    q2 = q_bracket(lambda lam: Q_k_eval(2, lam), 8)
    assert q2 == eisenstein(2, 8) / (-24)


def test_Q_k_values():
    assert Q_k_eval(0, (5, 2)) == 1
    assert Q_k_eval(1, (5, 2)) == 0
    assert Q_k_eval(2, (3, 1)) == 4 - Fraction(1, 24)
    assert c_coefficient(0) == 1
    assert c_coefficient(1) == 0
    assert c_coefficient(2) == Fraction(-1, 24)
    assert c_coefficient(4) == Fraction(7, 5760)


def test_completion_coefficients_examples():
    qs = completion_coefficients((1,), 6)
    assert qs[2] == 1 and qs[3] == 0 and qs[4] == Fraction(1, 24)
    # vanishing beyond the weight bound
    qs22 = completion_coefficients((2, 2), 6)
    assert all(qs22[k] == 0 for k in range(0, 6))
    assert qs22[6] != 0  # |nu| + l(nu) = 6
    with pytest.raises(DomainError):
        completion_coefficients((1,), 1)


def test_c_coefficient_matches_the_bernoulli_reference():
    assert [c_coefficient(k) for k in range(61)] == \
        [sinh_coefficient(k) for k in range(61)]


def test_completion_coefficients_match_the_sinh_product_reference():
    for nu in partitions_upto(8):
        # the reference's window only truncates: one through k_max = 14
        reference = completion_reference(nu, 14)
        for k_max in range(2, 15):
            assert completion_coefficients(nu, k_max) == \
                reference[:k_max + 1], (nu, k_max)


def test_Q_k_equals_completion_sum():
    # Q_k = sum_nu q_{k,nu} f_nu pointwise, k <= 5, |lam| <= 6
    for k in range(2, 6):
        table = {}
        for nu in partitions_upto(k):
            if sum(nu) + len(nu) > k:
                continue
            table[nu] = completion_coefficients(nu, k)[k]
        for n in range(0, 7):
            for lam in enumerate_partitions(n):
                total = sum(
                    (coef * central_character_extended(nu, lam)
                     for nu, coef in table.items() if sum(nu) <= n),
                    Fraction(0),
                )
                assert total == Q_k_eval(k, lam), (k, lam)


def test_fit_round_trip_P3():
    P = eisenstein(2, 12)
    cube = P * P * P
    fit = fit_quasimodular(cube, 6)
    assert fit.coefficient(3, 0, 0) == 1
    assert sum(1 for _, c in fit.terms if c != 0) == 1


def test_fit_appendix_series():
    num = QSeries([sector_value(1, 2, 0, 0, (), d) for d in range(13)])
    ser = num / partition_gf(12)
    fit = fit_quasimodular(ser, 6)
    D = Fraction(1, 2**6 * 3**4 * 5)
    assert fit.coefficient(3, 0, 0) == 5 * D
    assert fit.coefficient(1, 1, 0) == -3 * D
    assert fit.coefficient(0, 0, 1) == -2 * D
    # round trip: expanding the fitted polynomial reproduces the series
    assert expand_quasimodular(fit, 12) == ser


def test_fit_zero_and_failure():
    zero = QSeries([0] * 13)
    fit = fit_quasimodular(zero, 6)
    assert fit.is_zero()
    bad = QSeries([1] * 13)
    res = fit_quasimodular(bad, 2)
    assert isinstance(res, FitFailure)
    with pytest.raises(DomainError):
        fit_quasimodular(QSeries([1, 2, 3]), 6)  # too few coefficients


def test_f_nu_brackets_are_quasimodular():
    # <f_nu>_q fits at weight bound |nu| + l(nu) with 20 coefficients
    for nu in [(2,), (3,), (2, 2)]:
        br = q_bracket(lambda lam, nu=nu: central_character_extended(nu, lam)
                       if sum(nu) <= sum(lam) else Fraction(0), 20)
        bound = sum(nu) + len(nu)
        fit = fit_quasimodular(br, bound)
        assert not isinstance(fit, FitFailure), nu
        assert expand_quasimodular(fit, 20) == br


def test_top_weight_of_content_sums():
    # q-bracket of h_d(cont) - Q_3^d / 2^(d-1) is quasimodular below weight 3d
    for d in (1, 2):
        def diff(lam, d=d):
            h = sym_eval("complete_homogeneous", d, contents(lam))
            return h - Q_k_eval(3, lam) ** d / Fraction(2 ** (d - 1))

        br = q_bracket(diff, 16)
        fit = fit_quasimodular(br, 3 * d - 1)
        assert not isinstance(fit, FitFailure), d


def test_monomial_basis_order():
    basis = monomial_basis(6)
    assert basis[0] == (0, 0, 0)
    assert len(basis) == 7
    weights = [2 * a + 4 * b + 6 * c for (a, b, c) in basis]
    assert weights == sorted(weights)


def test_basis_size_counts_the_basis():
    assert [basis_size(w) for w in range(60)] == [
        len(monomial_basis(w)) for w in range(60)]


def test_fit_refuses_a_huge_weight_bound_at_once():
    # the basis of weight <= 10**6 would hold about 3.5e15 monomials
    start = time.monotonic()
    with pytest.raises(DomainError, match="need at least 3472295139347228 "):
        fit_quasimodular(QSeries([1] * 28), 10**6)
    assert time.monotonic() - start < 5
