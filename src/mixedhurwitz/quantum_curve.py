"""Partition functions of monotone / strictly monotone base-g coverings and
the differential operators that annihilate them.

Z is a series in x and hbar whose (x^d, hbar^(b + d(1-chi))) coefficient is
(d!)^(1-chi) times the number of (strictly) monotone length-b transposition
sequences in S_d, chi = 2-2g.  Operators are interpreted words in the atoms
x-hat (multiply by x) and y-hat (-hbar d/dx); in a written word the rightmost
atom acts first.
"""

from fractions import Fraction
from math import factorial

from .errors import DomainError, ResourceLimitError
from .partitions import stirling
from .series import BiSeries

VARIANTS = ("monotone", "strict")
# The largest base genus and the largest d_max and b_max a residual takes:
# the operator words grow with the genus, the window with all three.  At the
# bounds, (12, 40, 40), one residual takes about 1.6 s (2-vCPU host, Python
# 3.11); genus 30 at the default window took 12.9 s.
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


def partition_function(variant: str, g: int, d_max: int, b_max: int) -> BiSeries:
    """Truncated partition function on the (x-degree, hbar-power) grid."""
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant}")
    if d_max < 1 or g < 0:
        raise DomainError("need d_max >= 1 and g >= 0")
    chi = 2 - 2 * g
    skew = 1 - chi  # hbar exponent is b + d*skew
    Z = BiSeries(d_max, 0, b_max, skew)
    Z.set(0, 0, 1)
    count = monotone_sequence_count if variant == "monotone" else strict_sequence_count
    for d in range(1, d_max + 1):
        weight = Fraction(factorial(d)) ** (1 - chi)
        for b in range(0, b_max + 1):
            c = count(d, b)
            if c:
                Z.set(d, b + d * skew, c * weight)
    return Z


# ---------------------------------------------------------------------------
# operator words


def apply_word(word: str, Z: BiSeries) -> BiSeries:
    """Apply a word of atoms to Z; 'x' = multiply by x, 'y' = -hbar d/dx.

    The rightmost letter acts first, matching written operator products.
    """
    out = Z
    for ch in reversed(word):
        if ch == "x":
            out = out.apply_x()
        elif ch == "y":
            out = out.apply_y()
        else:
            raise DomainError(f"unknown operator atom {ch!r}")
    return out


def apply_operator(words, Z: BiSeries) -> BiSeries:
    """Sum of word images; words is an iterable of atom strings ('' = the
    identity word, a leading '-' negates the word's image)."""
    total = None
    for w in words:
        neg = w.startswith("-")
        img = apply_word(w.lstrip("-"), Z)
        if neg:
            img = BiSeries(img.dhi, img.blo, img.bhi, img.skew,
                           {k: -v for k, v in img.data.items()})
        total = img if total is None else total + img
    if total is None:
        raise DomainError("empty operator")
    return total


def annihilator_words(variant: str, g: int):
    """The operator that annihilates the variant's partition function.

    Monotone: x y^2 + y + (y x)^(2g); strict: y + (y x)^(2g) - x y (y x)^(2g).
    """
    if variant == "monotone":
        return ["xyy", "y", "yx" * (2 * g)]
    if variant == "strict":
        return ["y", "yx" * (2 * g), "-xy" + "yx" * (2 * g)]
    raise DomainError(f"unknown variant {variant}")


def quantum_curve_residual(variant: str, g: int, d_max: int, b_max: int) -> BiSeries:
    """Operator applied to the partition function, on a window covering
    (d <= d_max, b <= b_max).  The result must be identically zero there.
    """
    # margins: each word shifts the valid window; build Z generously
    pad_d = 2 * max(1, 2 * g) + 2
    pad_b = 4 * g + 6
    Z = partition_function(variant, g, d_max + pad_d, b_max + pad_b)
    res = apply_operator(annihilator_words(variant, g), Z)
    if res.dhi < d_max or res.bhi - (res.blo if res.blo > 0 else 0) < 0:
        raise DomainError("window collapse: increase truncation")
    return res


def residual_max_abs(variant: str, g: int, d_max: int, b_max: int) -> Fraction:
    """Largest |coefficient| of the residual restricted to d <= d_max, b <= b_max."""
    if d_max < 0 or b_max < 0:
        raise DomainError(f"the window d <= {d_max}, b <= {b_max} holds no cell")
    if g > GENUS_LIMIT or max(d_max, b_max) > WINDOW_LIMIT:
        raise ResourceLimitError(f"genus {g}, d <= {d_max}, b <= {b_max} is past the "
                                 f"quantum curve's limits: genus <= {GENUS_LIMIT}, "
                                 f"d and b <= {WINDOW_LIMIT}")
    res = quantum_curve_residual(variant, g, d_max, b_max)
    skew = res.skew
    worst = Fraction(0)
    for (d, e), v in res.data.items():
        b = e - d * skew
        if d <= d_max and 0 <= b <= b_max and res.in_window(d, e):
            worst = max(worst, abs(v))
    return worst
