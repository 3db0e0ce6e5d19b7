"""Small shared helpers: exact rational -> string, subset splits, the
monotone variants and their check, the settings the CLI resolves before it
loads a route (the default oracle limit and the oracle size table), and the
package's one truncated-series kernel: products, inverses and the products of
S(z) = sinh(z/2)/(z/2) that the sinh coefficients and the vertex weights
read."""

from fractions import Fraction
from functools import cache
from math import factorial
from operator import mul

from .errors import DomainError

VARIANTS = ("monotone", "strict")  # weakly or strictly monotone transpositions
DEFAULT_ORACLE_LIMIT = 6  # largest degree a brute-force oracle attempts

# ORACLE_SIZE_LIMIT[d] = (largest base genus, largest k + l + m at base genus
# 0, largest k + l + m at a higher base genus, most profiles) a brute-force
# oracle takes on at degree d; a degree without a row is refused whatever the
# caller's limit, and so is an --oracle-dmax past the largest.  60 is
# characters.SECTOR_LIMIT, so both routes take the same sectors where the
# oracle can.  Timed as fresh connected launches on a 2-vCPU host: each base
# genus past 1 adds a fold of the commutator table, about 4 s at degree 6
# (genus 12 takes 44 s) and over 60 s at degree 7; at degree 8 the genus-1
# totals dominate (k = 4 takes 36 s, k = 6 55 s and 0.9 GB), k + l + m = 20
# at genus 0 up to 37 s, and the two profiles 8;8 115 s.  The costliest
# admitted call, degree 6 at genus 8 with 20 profiles (5) and l = 60, takes
# 41 s; degree 7 at genus 1 with profiles 6;6 and l = 60 takes 19 s.
ORACLE_SIZE_LIMIT = {**dict.fromkeys(range(6), (60, 60, 60, 60)),
                     6: (8, 60, 60, 20), 7: (1, 60, 60, 2), 8: (1, 20, 4, 1)}


def rat_str(x) -> str:
    """Canonical string for an exact rational: "5", "-3", or "num/den".

    Integers never carry a "/1"; the sign lives on the numerator.
    """
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def splits(items):
    """Every split (I, J) of items into a chosen subset of positions and its
    complement, in bitmask order; both parts keep the order of items."""
    items = tuple(items)
    for mask in range(1 << len(items)):
        yield (tuple(x for k, x in enumerate(items) if mask >> k & 1),
               tuple(x for k, x in enumerate(items) if not mask >> k & 1))


def check_variant(variant: str):
    """Refuse a variant outside VARIANTS."""
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant}")


# ---------------------------------------------------------------------------
# truncated series: coefficient lists a[0..n-1], known through the last index


def times(a, b):
    """The product of two series of the same length, to that length."""
    return [sum(map(mul, a[:e + 1], b[e::-1])) for e in range(len(a))]


def inverse(a):
    """1 / a to the length of a; a[0] must be nonzero."""
    out = [Fraction(1) / a[0]]
    for e in range(1, len(a)):
        out.append(-sum(map(mul, a[1:e + 1], out[::-1])) / a[0])
    return out


@cache
def s_product(power, xs, order):
    """S(z)^power prod_x S(x z) through u^order, as a list in u = z^2, for
    S(z) = sinh(z/2)/(z/2) = sum_j u^j / (4^j (2j+1)!) and a tuple xs.

    Memoised on every prefix of xs, so S(z)^power is built once per order.
    """
    x = xs[-1] if xs else 1
    s = [Fraction(x ** (2 * j), 4**j * factorial(2 * j + 1)) for j in range(order + 1)]
    if xs:
        return times(s_product(power, xs[:-1], order), s)
    out = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(abs(power)):
        out = times(out, s)
    return inverse(out) if power < 0 else out
