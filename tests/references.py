"""Reference helpers that only the tests use: small enumerations, the JSON
reader of a QSeries and the product form of the quantum-curve partition
function, kept out of the package so that no CLI launch compiles them."""

from fractions import Fraction
from functools import cache
from math import factorial

from mixedhurwitz.errors import DomainError
from mixedhurwitz.partitions import HurwitzSpec, enumerate_partitions
from mixedhurwitz.quantum_curve import VARIANTS
from mixedhurwitz.series import BiSeries, QSeries
from mixedhurwitz.symgroup import count_triply_mixed, transposition
from mixedhurwitz.tropical import combinatorial_type, enumerate_elliptic_covers
from mixedhurwitz.util import DEFAULT_ORACLE_LIMIT


@cache
def all_transpositions(d: int):
    """All (s, t, perm) with s < t."""
    return tuple(
        (s, t, transposition(d, s, t)) for t in range(1, d) for s in range(t)
    )


def classical_hurwitz_count(
    base_genus, source_genus, d, profiles, connected=True, limit=DEFAULT_ORACLE_LIMIT
):
    """Classical Hurwitz numbers (no transposition blocks beyond the profiles)."""
    spec = HurwitzSpec(
        base_genus, source_genus, d, tuple(profiles), 0, 0, 0, connected
    )
    if spec.b != 0:
        raise DomainError("classical count here means zero extra transpositions")
    return count_triply_mixed(spec, limit)


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


def product_form(variant: str, g: int, d_max: int, b_max: int) -> BiSeries:
    """quantum_curve.partition_function assembled from the per-degree hbar
    products.

    Monotone: prod_{j=1..d-1} 1/(1-j*hbar); strict: prod_{j=1..d-1} (1+j*hbar).
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant}")
    chi = 2 - 2 * g
    skew = 1 - chi
    Z = BiSeries(d_max, 0, b_max, skew)
    Z.set(0, 0, 1)
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
        weight = Fraction(factorial(d)) ** (1 - chi)
        for b, c in enumerate(poly[: b_max + 1]):
            if c:
                Z.set(d, b + d * skew, c * weight)
    return Z
