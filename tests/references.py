"""Reference helpers that only the tests use: small enumerations, the JSON
reader of a QSeries and the product form of the quantum-curve partition
function, kept out of the package so that no CLI launch compiles them."""

from fractions import Fraction
from functools import cache
from math import factorial

from mixedhurwitz.errors import DomainError
from mixedhurwitz.partitions import enumerate_partitions
from mixedhurwitz.series import QSeries
from mixedhurwitz.symgroup import transposition
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
