from fractions import Fraction

import pytest

from mixedhurwitz.errors import DomainError, ResourceLimitError
from mixedhurwitz.quantum_curve import (
    annihilator_words,
    apply_word,
    monotone_sequence_count,
    partition_function,
    residual_max_abs,
    strict_sequence_count,
)
from mixedhurwitz.series import BiSeries
from references import all_transpositions, product_form


def brute_sequences(d, b, strict):
    trans = all_transpositions(d)
    total = 0

    def rec(prev_t, left):
        nonlocal total
        if left == 0:
            total += 1
            return
        for (s, t, tp) in trans:
            if prev_t is not None and (t < prev_t or (strict and t == prev_t)):
                continue
            rec(t, left - 1)

    rec(None, b)
    return total


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("b", [0, 1, 2, 3, 4])
def test_sequence_counts_match_brute_force(d, b):
    assert monotone_sequence_count(d, b) == brute_sequences(d, b, False)
    assert strict_sequence_count(d, b) == brute_sequences(d, b, True)


def test_partition_function_examples():
    Z = partition_function("monotone", 1, 4, 4)
    assert Z.coefficient(1, 1) == 1      # x^1 hbar^1
    assert Z.coefficient(1, 2) == 0      # b = 1 at d = 1
    for b in range(4):
        assert Z.coefficient(2, 2 + b) == 2
    Zs = partition_function("strict", 1, 4, 4)
    assert Zs.coefficient(3, 4) == 18    # 3! * [3 over 2]
    Z0 = partition_function("monotone", 0, 3, 3)
    assert Z0.coefficient(2, -2 + 1) == Fraction(1, 2)  # S(2,1)/2! at b=1, e=b-d


def test_product_forms_match_double_sums():
    for var in ("monotone", "strict"):
        for g in (0, 1, 2):
            A = partition_function(var, g, 6, 6)
            B = product_form(var, g, 6, 6)
            for d, e in A.cells():
                assert A.coefficient(d, e) == B.coefficient(d, e)


def test_y_atom():
    Z = BiSeries(3, 0, 3, 0)
    Z.set(2, 0, 1)
    img = apply_word("y", Z)
    assert img.coefficient(1, 1) == -2


def test_operator_words():
    assert annihilator_words("monotone", 1) == ["xyy", "y", "yxyx"]
    assert annihilator_words("strict", 0) == ["y", "", "-xy"]
    with pytest.raises(DomainError):
        annihilator_words("nope", 0)


@pytest.mark.parametrize("variant", ["monotone", "strict"])
@pytest.mark.parametrize("g", [0, 1, 2])
def test_annihilation(variant, g):
    assert residual_max_abs(variant, g, 8, 8) == 0


def test_residual_refuses_past_its_limits_before_any_work():
    for g, d_max, b_max in [(13, 8, 8), (10**6, 8, 8), (0, 10**6, 8),
                            (0, 8, 10**6), (0, 41, 0)]:
        with pytest.raises(ResourceLimitError):
            residual_max_abs("monotone", g, d_max, b_max)
    assert residual_max_abs("strict", 0, 40, 40) == 0  # the window's edge runs
