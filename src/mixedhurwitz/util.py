"""Small shared helpers: exact rational -> string, subset splits, and the
settings the CLI resolves before it loads a route."""

from fractions import Fraction

DEFAULT_ORACLE_LIMIT = 6  # largest degree a brute-force oracle attempts


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
