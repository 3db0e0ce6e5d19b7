"""Eisenstein series, q-brackets, shifted-symmetric generators and exact
fitting of q-series into the ring Q[P,Q,R] of level-1 quasimodular forms.

Conventions: P, Q, R are the weight 2, 4, 6 normalized Eisenstein series with
constant term 1 (P = 1 - 24 sum sigma_1(n) q^n, etc.).  The Laurent expansion
of 1/(2 sinh(z/2)) is indexed from k = 0: c_0 = 1 is the z^{-1} coefficient,
so c_1 = 0, c_2 = -1/24, c_3 = 0, c_4 = 7/5760.  That normalization makes
<Q_2>_q = -P/24 and is pinned independently by the tropical correspondence
tests.
"""

from collections import namedtuple
from fractions import Fraction
from math import factorial, gcd
from operator import mul

from .errors import DomainError
from .partitions import check_partition, enumerate_partitions, partition_count
from .series import QSeries, sinh_reciprocal, two_sinh_half, exp_az
from .util import rat_str

# ---------------------------------------------------------------------------
# Eisenstein series

_BERNOULLI = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42)}
_EISEN_SCALE = {2: -24, 4: 240, 6: -504}


def _sigma(k: int, n: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def eisenstein(k: int, order: int) -> QSeries:
    """q-expansion of P (k=2), Q (k=4) or R (k=6) to the given order."""
    if k not in _EISEN_SCALE:
        raise DomainError(f"unsupported Eisenstein weight {k}")
    scale = _EISEN_SCALE[k]
    const = -_BERNOULLI[k] / (2 * k) * scale
    assert const == 1
    coeffs = [Fraction(1)] + [Fraction(scale * _sigma(k - 1, n)) for n in range(1, order + 1)]
    return QSeries(coeffs, 0, "q")


# ---------------------------------------------------------------------------
# q-brackets and shifted symmetric generators


def partition_gf(order: int) -> QSeries:
    return QSeries([partition_count(n) for n in range(order + 1)], 0, "q")


def q_bracket(f, order: int) -> QSeries:
    """<f>_q = (sum_lam f(lam) q^|lam|) / (sum_lam q^|lam|), exact to the order."""
    num = []
    for n in range(order + 1):
        num.append(sum((Fraction(f(lam)) for lam in enumerate_partitions(n)), Fraction(0)))
    return QSeries(num, 0, "q") / partition_gf(order)


def c_coefficient(k: int) -> Fraction:
    """c_k = coefficient of z^(k-1) in 1/(2 sinh(z/2)); c_0 = 1."""
    if k < 0:
        raise DomainError("k must be >= 0")
    return sinh_reciprocal(k + 2).coefficient(k - 1)


def Q_k_eval(k: int, lam) -> Fraction:
    """Renormalized shifted symmetric power sum Q_k evaluated at a partition.

    Q_0 = 1; Q_k = c_k + (1/(k-1)!) sum_i (lam_i - i + 1/2)^(k-1) - (-i + 1/2)^(k-1);
    the tail beyond the length of lam cancels exactly.
    """
    lam = check_partition(lam)
    if k < 0:
        raise DomainError("k must be >= 0")
    if k == 0:
        return Fraction(1)
    total = c_coefficient(k)
    half = Fraction(1, 2)
    acc = Fraction(0)
    for i in range(1, len(lam) + 1):
        acc += (lam[i - 1] - i + half) ** (k - 1) - (-i + half) ** (k - 1)
    return total + acc / factorial(k - 1)


def completion_coefficients(nu, k_max: int):
    """q_{k,nu} for k = 0..k_max from the sinh product generating function.

    sum_{k>=1} q_{k+1,nu} z^k = (1/|nu|!) (2 sinh(z/2))^(|nu|-1) prod_i 2 sinh(nu_i z/2);
    for nu = () the right side is the Laurent series 1/(2 sinh(z/2)).
    q_{k,nu} = 0 once |nu| + l(nu) > k.
    """
    nu = check_partition(nu)
    if k_max < 2:
        raise DomainError("k_max must be >= 2")
    order = k_max + 2
    if not nu:
        rhs = sinh_reciprocal(order)
    else:
        base = two_sinh_half(order)
        prod = QSeries([1] + [0] * order, 0, "z")
        for _ in range(sum(nu) - 1):
            prod = prod * base
        for part in nu:
            scaled = exp_az(Fraction(part, 2), order, "z") - exp_az(Fraction(-part, 2), order, "z")
            prod = prod * scaled
        rhs = prod / factorial(sum(nu))
    return [rhs.coefficient(k - 1) if k - 1 >= rhs.low else Fraction(0) for k in range(k_max + 1)]


# ---------------------------------------------------------------------------
# quasimodular fitting


class QuasimodularPoly(namedtuple("QuasimodularPoly", "weight_bound terms")):
    """Polynomial in P, Q, R with exact coefficients and a mixed-weight bound.

    terms: ((a, b, c), Fraction) pairs sorted by (weight, (a, b, c)).
    """

    __slots__ = ()

    def coefficient(self, a, b, c) -> Fraction:
        for (mono, coef) in self.terms:
            if mono == (a, b, c):
                return coef
        return Fraction(0)

    def is_zero(self) -> bool:
        return all(coef == 0 for _, coef in self.terms)

    def to_json(self):
        return {
            "weight_bound": self.weight_bound,
            "terms": [
                {"P": a, "Q": b, "R": c, "coeff": rat_str(coef)}
                for (a, b, c), coef in self.terms
                if coef != 0
            ],
        }


class FitFailure(namedtuple("FitFailure", "residual_index")):
    """Inconsistent linear system: the q-exponent where the residual first appears."""

    __slots__ = ()

    def to_json(self):
        return {"fit_failed": True, "residual_index": self.residual_index}


def monomial_basis(weight_bound: int):
    """Monomials P^a Q^b R^c with 2a+4b+6c <= bound, ordered by (weight, (a,b,c))."""
    out = []
    for a in range(weight_bound // 2 + 1):
        for b in range(weight_bound // 4 + 1):
            for c in range(weight_bound // 6 + 1):
                w = 2 * a + 4 * b + 6 * c
                if w <= weight_bound:
                    out.append((w, (a, b, c)))
    out.sort()
    return [m for _, m in out]


def basis_size(weight_bound: int) -> int:
    """len(monomial_basis(weight_bound)) for a bound >= 0, counted without
    building it.  The (a, b, c) with a + 2b + 3c <= n = bound // 2 number the
    x^n coefficient of 1/((1-x)^2 (1-x^2)(1-x^3)): a cubic in n whose only
    periodic part is its constant term, so the floor of
    (2n^3 + 21n^2 + 66n + 96)/72 (the tests check whole periods)."""
    n = weight_bound // 2
    return (2 * n ** 3 + 21 * n ** 2 + 66 * n + 96) // 72


def _times(a, b):
    """The product of two integer q-expansions of the same length."""
    return [sum(map(mul, a[:e + 1], b[e::-1])) for e in range(len(a))]


FIT_SAFETY_MARGIN = 5


def fit_quasimodular(s: QSeries, weight_bound: int, margin: int = FIT_SAFETY_MARGIN):
    """The unique mixed-weight <= bound polynomial matching s on all its
    coefficients, by exact Gauss-Jordan elimination on integers.

    Over-determination is mandatory: s must supply at least dim + margin
    coefficients, and every supplied coefficient is used as an equation.
    Returns FitFailure (with the first inconsistent q-exponent) rather than a
    least-squares answer when no exact match exists.
    """
    if s.low < 0:
        raise DomainError("cannot fit a Laurent series with negative exponents")
    if weight_bound < 0:
        raise DomainError(f"weight bound {weight_bound} must be >= 0")
    dim = basis_size(weight_bound)
    order = s.high
    n_eq = order + 1
    if n_eq < dim + margin:
        raise DomainError(
            f"need at least {dim + margin} coefficients to fit at weight {weight_bound}, "
            f"got {n_eq}"
        )
    basis = monomial_basis(weight_bound)
    powers = {}  # powers[k][a] = E_k^a, E_2, E_4, E_6 = P, Q, R as integer lists
    for k in (2, 4, 6):
        series = [int(x) for x in eisenstein(k, order).coeffs]
        powers[k] = [[1] + [0] * order]
        for _ in range(weight_bound // k):
            powers[k].append(_times(powers[k][-1], series))
    expansions = [_times(_times(powers[2][a], powers[4][b]), powers[6][c])
                  for a, b, c in basis]

    # one equation per q-exponent 0..order, times the denominator of its
    # right-hand side: the expansions are integer series
    rows = []
    for e in range(n_eq):
        rhs = s.coefficient(e)
        rows.append([x[e] * rhs.denominator for x in expansions] + [rhs.numerator])

    # Gauss-Jordan with column pivoting: the pivot is the first unused row with
    # a nonzero entry, and each updated row is divided by its content
    pivots = {}  # row -> column
    for col in range(dim):
        sel = next((ri for ri, row in enumerate(rows)
                    if row[col] and ri not in pivots), None)
        if sel is None:
            continue
        pivots[sel] = col
        prow = rows[sel]
        pv = prow[col]
        for ri, row in enumerate(rows):
            f = row[col]
            if f and ri != sel:
                row = [pv * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                rows[ri] = [x // g for x in row] if g > 1 else row
    # consistency: every non-pivot row must be fully zero
    for ri, row in enumerate(rows):
        if ri not in pivots and any(row):
            return FitFailure(residual_index=ri)
    sol = {col: Fraction(rows[ri][dim], rows[ri][col]) for ri, col in pivots.items()}
    terms = tuple((mono, sol[i]) for i, mono in enumerate(basis) if sol.get(i))
    return QuasimodularPoly(weight_bound=weight_bound, terms=terms)
