"""Small shared helpers: exact rational <-> string."""

from fractions import Fraction


def rat_str(x) -> str:
    """Canonical string for an exact rational: "5", "-3", or "num/den".

    Integers never carry a "/1"; the sign lives on the numerator.
    """
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def rat_from_str(s: str) -> Fraction:
    return Fraction(s)
