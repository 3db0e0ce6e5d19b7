"""Reference helpers that only the tests use: small enumerations, sector
subsectors and the exp at one sector, the commutator table by permutation,
the expansion of a quasimodular polynomial, the JSON reader of a QSeries and
the product form of the quantum-curve partition function, kept out of the
package so that no CLI launch compiles them."""

from fractions import Fraction
from functools import cache
from math import factorial

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
    out = QSeries.zero(order, "q")
    for (a, b, c), coef in poly.terms:
        term = QSeries([coef] + [0] * order, 0, "q")
        for factor, n in ((P, a), (Q, b), (R, c)):
            for _ in range(n):
                term = term * factor
        out = out + term
    return out


def qseries_from_json(doc):
    """The QSeries whose to_json() is doc."""
    return QSeries([Fraction(c) for c in doc["coeffs"]], doc["low"], doc["var"])


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
