"""Reference helpers that only the tests use: small enumerations, sector
subsectors and the exp at one sector, the commutator table by permutation,
the expansion of a quasimodular polynomial, the product form of the
quantum-curve partition function, the sinh coefficients from the Bernoulli
numbers, the completion coefficients from the sinh product, and the unpruned
elliptic graph search and two-factor vertex weight of the tropical route,
kept out of the package so that no CLI launch compiles them."""

from fractions import Fraction
from functools import cache
from math import comb, factorial
from operator import le
from unittest import mock

from mixedhurwitz import tropical
from mixedhurwitz.commutators import commutator_codes
from mixedhurwitz.errors import DomainError
from mixedhurwitz.partitions import enumerate_partitions
from mixedhurwitz.quasimodular import eisenstein
from mixedhurwitz.series import QSeries, _euler_solve, _subkeys
from mixedhurwitz.symgroup import _codes, transposition
from mixedhurwitz.tropical import combinatorial_type, enumerate_elliptic_covers
from mixedhurwitz.util import VARIANTS


@cache
def all_transpositions(d: int):
    """All (s, t, perm) with s < t."""
    return tuple(
        (s, t, transposition(d, s, t)) for t in range(1, d) for s in range(t)
    )


def partitions_upto(d: int):
    """All partitions of every size 0..d (reverse lex within each size)."""
    out = []
    for n in range(d + 1):
        out.extend(enumerate_partitions(n))
    return out


def falling_factorial(x, k: int):
    out = Fraction(1)
    for i in range(k):
        out *= x - i
    return out


def subsectors(sector):
    """All (k',l',m',profiles',d') componentwise inside the given sector."""
    for key in _subkeys(sector[:4]):
        for d1 in range(sector[4] + 1):
            yield key + (d1,)


def exp_at(connected, target) -> Fraction:
    """Disconnected value at target from connected sector values (exp).

    connected holds every subsector of target of degree >= 1.
    """
    d = target[4]
    columns = {}
    for s, v in connected.items():
        columns.setdefault(s[:4], [0] * (d + 1))[s[4]] = v
    return _euler_solve(columns, log=False)[target[:4]][d]


def commutator_tuple_table(d: int, g: int):
    """Aggregate 2g-tuples in S_d^2g by (commutator product, orbit labels).

    Returns {kappa: {orbit_labels: count}} with kappa = [a_1,b_1]...[a_g,b_g]:
    commutators.commutator_codes with its codes read back as permutations.
    """
    perms, labels = _codes(d)
    return {perms.items[k]: {labels.items[p]: c for p, c in orbs.items()}
            for k, orbs in commutator_codes(d, g).items()}


def expand_quasimodular(poly, order: int) -> QSeries:
    """The q-series through q^order of a QuasimodularPoly in P, Q, R."""
    P, Q, R = (eisenstein(k, order) for k in (2, 4, 6))
    out = QSeries.zero(order)
    for (a, b, c), coef in poly.terms:
        term = QSeries([coef] + [0] * order)
        for factor, n in ((P, a), (Q, b), (R, c)):
            for _ in range(n):
                term = term * factor
        out = out + term
    return out


def weight_component(fit, w: int):
    """The (monomial, coefficient) terms of a QuasimodularPoly of weight w."""
    return tuple(
        (mono, coef) for mono, coef in fit.terms
        if 2 * mono[0] + 4 * mono[1] + 6 * mono[2] == w
    )


def all_types(g: int, d_max: int):
    """The sorted combinatorial types of the elliptic covers of degree <= d_max."""
    seen = set()
    for d in range(1, d_max + 1):
        for cover in enumerate_elliptic_covers(g, d):
            seen.add(combinatorial_type(cover))
    return sorted(seen)


def product_form(variant: str, g: int, d_max: int, b_max: int) -> dict:
    """{(d, b): Z(d, b)} for d <= d_max, b <= b_max: the cells of
    quantum_curve.partition_coefficient assembled from the per-degree hbar
    products.

    Monotone: prod_{j=1..d-1} 1/(1-j*hbar); strict: prod_{j=1..d-1} (1+j*hbar).
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant}")
    Z = {(0, b): Fraction(1 if b == 0 else 0) for b in range(b_max + 1)}
    for d in range(1, d_max + 1):
        # hbar-polynomial for this degree
        if variant == "strict":
            poly = [Fraction(1)]
            for j in range(1, d):
                # multiply by (1 + j hbar)
                poly = [
                    (poly[i] if i < len(poly) else 0)
                    + (j * poly[i - 1] if i - 1 >= 0 and i - 1 < len(poly) else 0)
                    for i in range(len(poly) + 1)
                ]
        else:
            poly = [Fraction(1)] + [Fraction(0)] * b_max
            for j in range(1, d):
                # multiply by 1/(1-j hbar) = sum_k (j hbar)^k, truncated
                new = [Fraction(0)] * (b_max + 1)
                for i in range(b_max + 1):
                    if poly[i] == 0:
                        continue
                    jk = Fraction(1)
                    for k in range(0, b_max + 1 - i):
                        new[i + k] += poly[i] * jk
                        jk *= j
                poly = new
        poly += [0] * (b_max + 1 - len(poly))
        weight = Fraction(factorial(d)) ** (2 * g - 1)
        for b, c in enumerate(poly[: b_max + 1]):
            Z[d, b] = c * weight
    return Z


@cache
def bernoulli(m: int) -> Fraction:
    """B_m from sum_{j=0..m} C(m+1, j) B_j = 0 for m >= 1, B_0 = 1."""
    if m == 0:
        return Fraction(1)
    return -sum(comb(m + 1, j) * bernoulli(j) for j in range(m)) / (m + 1)


def sinh_coefficient(k: int) -> Fraction:
    """c_k = [z^k] (z/2)/sinh(z/2): c_{2j} = (2^(1-2j) - 1) B_{2j} / (2j)!,
    and 0 at odd k."""
    if k % 2:
        return Fraction(0)
    return (Fraction(2) ** (1 - k) - 1) * bernoulli(k) / factorial(k)


def sinh_scaled(x, order: int) -> QSeries:
    """S(x z) = sinh(x z/2)/(x z/2) through z^order, in powers of z:
    [z^k] = x^k / (2^k (k+1)!) at even k."""
    return QSeries([Fraction(x ** k, 2 ** k * factorial(k + 1)) if k % 2 == 0 else 0
                    for k in range(order + 1)])


def two_sinh(x, order: int) -> QSeries:
    """2 sinh(x z/2) = e^(x z/2) - e^(-x z/2) through z^order."""
    half = Fraction(x, 2)
    return QSeries([(half ** k - (-half) ** k) / factorial(k)
                    for k in range(order + 1)])


def completion_reference(nu, k_max: int):
    """q_{k,nu} for k = 0..k_max: [z^(k-1)] of
    (1/|nu|!) (2 sinh(z/2))^(|nu|-1) prod_i 2 sinh(nu_i z/2), and c_k at
    nu = (), where the right side is 1/(2 sinh(z/2))."""
    if not nu:
        return [sinh_coefficient(k) for k in range(k_max + 1)]
    order = k_max + 2
    rhs = QSeries.one(order)
    for _ in range(sum(nu) - 1):
        rhs = rhs * two_sinh(1, order)
    for part in nu:
        rhs = rhs * two_sinh(part, order)
    rhs = rhs / factorial(sum(nu))
    return [rhs.coefficient(k - 1) for k in range(k_max + 1)]


def two_factor_vertex_weight(x_plus, x_minus, vertex_genus: int, lam_i: int) -> Fraction:
    """(lam_i-1)! sum_{g1+g2=g(v)} c_{2g2} [z^{2g1}] prod S(x z)/S(z), with
    S(x z) from sinh_scaled and c_k from sinh_coefficient."""
    order = 2 * vertex_genus
    prod = QSeries.one(order)
    for x in tuple(x_plus) + tuple(x_minus):
        prod = prod * sinh_scaled(x, order)
    prod = prod / sinh_scaled(1, order)
    total = sum((sinh_coefficient(2 * (vertex_genus - g1)) * prod.coefficient(2 * g1)
                 for g1 in range(vertex_genus + 1)), Fraction(0))
    return factorial(lam_i - 1) * total


def unpruned_elliptic_graphs(lam, d, budget):
    """Every edge-shape multiset over one lambda composition under the
    valence, parity and arc-count bounds, vertices without an edge in or out
    included: the search tropical._elliptic_graphs prunes."""
    n = len(lam)
    shapes = [(a, t, k) for a in range(n) for t in range(n)
              for k in range(d + 1) if k or a < t]
    demand = [tuple((a == v) + (t == v) for v in range(n))
              + tropical._arc_crossings(a, t, k, n) for (a, t, k) in shapes]
    room = [l + 2 for l in lam] + [d] * n
    chosen = []

    def rec(cands):
        for j, s in enumerate(cands):
            tropical._spend(budget)
            for i, x in enumerate(demand[s]):
                room[i] -= x
            chosen.append(shapes[s])
            if all(r % 2 == 0 for r in room[:n]):
                yield list(chosen)
            yield from rec([c for c in cands[j:]
                            if all(map(le, demand[c], room))])
            chosen.pop()
            for i, x in enumerate(demand[s]):
                room[i] += x

    yield from rec([s for s in range(len(shapes))
                    if all(map(le, demand[s], room))])


def unpruned_elliptic_covers(g: int, d: int):
    """enumerate_elliptic_covers(g, d) with the unpruned graph search."""
    with mock.patch.object(tropical, "_elliptic_graphs", unpruned_elliptic_graphs):
        return enumerate_elliptic_covers(g, d)
