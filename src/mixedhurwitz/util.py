"""Small shared helpers: exact rational -> string, and the settings the CLI
resolves before it loads a route."""

from fractions import Fraction

CACHE_ENV = "MIXEDHURWITZ_CACHE_DIR"  # character-table cache directory
DEFAULT_ORACLE_LIMIT = 6  # largest degree a brute-force oracle attempts


def rat_str(x) -> str:
    """Canonical string for an exact rational: "5", "-3", or "num/den".

    Integers never carry a "/1"; the sign lives on the numerator.
    """
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
