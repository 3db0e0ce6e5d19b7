"""Partition functions of monotone / strictly monotone base-g coverings and
the differential operators that annihilate them.

Z is a series in x and hbar whose (x^d, hbar^(b + d(2g-1))) coefficient, the
cell Z(d, b), is (d!)^(2g-1) times the number of (strictly) monotone length-b
transposition sequences in S_d.  Every cell has this closed form, so an
operator's image is read cell by cell off exact coefficients: nothing is
truncated.  Operators are words in the atoms x-hat (multiply by x) and y-hat
(-hbar d/dx); in a written word the rightmost atom acts first.
"""

from fractions import Fraction
from math import factorial

from .errors import DomainError, ResourceLimitError
from .partitions import stirling
from .util import check_variant

# The largest base genus and the largest d_max and b_max a residual takes:
# the operator words grow with the genus, the cell count with d_max and b_max.
# At the bounds, (12, 40, 40), one residual takes about 0.05 s in process and
# a `qc verify` launch about 0.14 s (2-vCPU host, Python 3.11).
GENUS_LIMIT = 12
WINDOW_LIMIT = 40


def monotone_sequence_count(d: int, b: int) -> int:
    """Number of weakly monotone transposition sequences of length b in S_d."""
    return stirling("second", d + b - 1, d - 1)


def strict_sequence_count(d: int, b: int) -> int:
    """Number of strictly monotone transposition sequences of length b in S_d."""
    if b > d - 1:
        return 0
    return stirling("first_unsigned", d, d - b)


def partition_coefficient(variant: str, g: int, d: int, b: int) -> Fraction:
    """Z(d, b), the coefficient of x^d hbar^(b + d(2g-1)); 0 off the grid."""
    check_variant(variant)
    if g < 0:
        raise DomainError("need g >= 0")
    if d < 0 or b < 0:
        return Fraction(0)
    if d == 0:
        return Fraction(1 if b == 0 else 0)
    count = monotone_sequence_count if variant == "monotone" else strict_sequence_count
    return count(d, b) * Fraction(factorial(d)) ** (2 * g - 1)


def word_coefficient(word: str, variant: str, g: int, d: int, b: int) -> Fraction:
    """The cell (d, b) of word(Z); 'x' = multiply by x, 'y' = -hbar d/dx, and
    a leading '-' negates the word.

    The cell is walked left to right, from the output back to a cell of Z, on
    (d, e) with e = b + d(2g-1) the hbar power: x-hat reads (d-1, e) and is 0
    at d = 0; y-hat reads -(d+1) times (d+1, e-1).
    """
    atoms = word.removeprefix("-")
    if set(atoms) - {"x", "y"}:
        raise DomainError(f"unknown operator atom in {word!r}")
    skew = 2 * g - 1
    e = b + d * skew
    factor = -1 if word.startswith("-") else 1
    for atom in atoms:
        if atom == "y":
            factor *= -(d + 1)
            d, e = d + 1, e - 1
        else:
            d -= 1
    # an x-hat at d = 0 leaves the walk at d < 0, where Z is 0; a y-hat can
    # bring it back only through d = -1, where its factor -(d+1) is 0
    return factor * partition_coefficient(variant, g, d, e - d * skew)


def annihilator_words(variant: str, g: int):
    """The operator that annihilates the variant's partition function.

    Monotone: x y^2 + y + (y x)^(2g); strict: y + (y x)^(2g) - x y (y x)^(2g).
    """
    check_variant(variant)
    if variant == "monotone":
        return ["xyy", "y", "yx" * (2 * g)]
    return ["y", "yx" * (2 * g), "-xy" + "yx" * (2 * g)]


def residual_max_abs(variant: str, g: int, d_max: int, b_max: int) -> Fraction:
    """Largest |cell| of the annihilator applied to Z over d <= d_max, b <= b_max."""
    if d_max < 0 or b_max < 0:
        raise DomainError(f"the window d <= {d_max}, b <= {b_max} holds no cell")
    if g > GENUS_LIMIT or max(d_max, b_max) > WINDOW_LIMIT:
        raise ResourceLimitError(f"genus {g}, d <= {d_max}, b <= {b_max} is past the "
                                 f"quantum curve's limits: genus <= {GENUS_LIMIT}, "
                                 f"d and b <= {WINDOW_LIMIT}")
    words = annihilator_words(variant, g)
    return max(abs(sum(word_coefficient(w, variant, g, d, b) for w in words))
               for d in range(d_max + 1) for b in range(b_max + 1))
