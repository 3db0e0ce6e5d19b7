from fractions import Fraction
from math import comb, factorial

import pytest

from mixedhurwitz import quantum_curve
from mixedhurwitz.errors import DomainError, ResourceLimitError
from mixedhurwitz.quantum_curve import (
    GENUS_LIMIT,
    annihilator_words,
    monotone_sequence_count,
    partition_coefficient,
    residual_max_abs,
    strict_sequence_count,
    word_coefficient,
)
from mixedhurwitz.util import VARIANTS
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
    assert partition_coefficient("monotone", 1, 1, 0) == 1  # x^1 hbar^1
    assert partition_coefficient("monotone", 1, 1, 1) == 0  # b = 1 at d = 1
    for b in range(4):
        assert partition_coefficient("monotone", 1, 2, b) == 2
    assert partition_coefficient("strict", 1, 3, 1) == 18  # 3! * [3 over 2]
    # S(2,1)/2! at b = 1: x^2 hbar^(b - d) at genus 0
    assert partition_coefficient("monotone", 0, 2, 1) == Fraction(1, 2)
    assert partition_coefficient("strict", 0, 0, 0) == 1
    assert partition_coefficient("strict", 0, 0, 1) == 0
    assert partition_coefficient("strict", 0, -1, 0) == 0
    assert partition_coefficient("strict", 0, 1, -1) == 0
    with pytest.raises(DomainError):
        partition_coefficient("weak", 0, 1, 0)
    with pytest.raises(DomainError):
        partition_coefficient("strict", -1, 1, 0)


def test_partition_function_takes_a_large_cell():
    # d + b - 1 = 1199 sits past the recursion depth the Stirling numbers
    # once needed; {n, k} by inclusion-exclusion
    n, k = 1199, 599
    second = sum((-1) ** j * comb(k, j) * (k - j) ** n
                 for j in range(k + 1)) // factorial(k)
    assert partition_coefficient("monotone", 0, 600, 600) == \
        Fraction(second, factorial(600))


def test_product_forms_match_double_sums():
    for var in ("monotone", "strict"):
        for g in (0, 1, 2):
            for (d, b), c in product_form(var, g, 6, 6).items():
                assert partition_coefficient(var, g, d, b) == c, (var, g, d, b)


def test_y_atom():
    # y-hat = -hbar d/dx reads -(d+1) Z at (d+1, e-1), e = b + d(2g-1) the
    # hbar power, so b drops by 2g
    for variant in VARIANTS:
        for g in (0, 1, 2):
            for d in range(5):
                for b in range(5):
                    assert word_coefficient("y", variant, g, d, b) == \
                        -(d + 1) * partition_coefficient(variant, g, d + 1, b - 2 * g)
    # monotone genus 1: y-hat at (1, b = 2) reads -2 Z(2, 0) = -4
    assert word_coefficient("y", "monotone", 1, 1, 2) == -4


def test_atoms_act_cell_by_cell():
    # x-hat reads Z at (d-1, e) and gives 0 at d = 0, e = b + d(2g-1) the
    # hbar power
    for variant in VARIANTS:
        for g in (0, 1, 2):
            def Z(d, b):
                return partition_coefficient(variant, g, d, b)

            def image(word, d, b):
                return word_coefficient(word, variant, g, d, b)

            for d in range(5):
                for b in range(5):
                    assert image("", d, b) == Z(d, b)
                    assert image("x", d, b) == (Z(d - 1, b + 2 * g - 1) if d else 0)
                    # x y = -hbar x d/dx and y x = -hbar d/dx x scale a cell
                    assert image("xy", d, b) == -d * Z(d, b - 1)
                    assert image("-xy", d, b) == d * Z(d, b - 1)
                    assert image("yx", d, b) == -(d + 1) * Z(d, b - 1)
    # monotone genus 1: x-hat at (3, 0) reads Z(2, 1) = 2
    assert word_coefficient("x", "monotone", 1, 3, 0) == 2
    with pytest.raises(DomainError):
        word_coefficient("xz", "monotone", 1, 1, 1)


def test_operator_words():
    assert annihilator_words("monotone", 1) == ["xyy", "y", "yxyx"]
    assert annihilator_words("strict", 0) == ["y", "", "-xy"]
    with pytest.raises(DomainError):
        annihilator_words("nope", 0)


@pytest.mark.parametrize("variant", ["monotone", "strict"])
@pytest.mark.parametrize("g", range(GENUS_LIMIT + 1))
def test_annihilation(variant, g):
    assert residual_max_abs(variant, g, 20, 20) == 0


def test_residual_refuses_past_its_limits_before_any_work():
    for g, d_max, b_max in [(13, 8, 8), (10**6, 8, 8), (0, 10**6, 8),
                            (0, 8, 10**6), (0, 41, 0)]:
        with pytest.raises(ResourceLimitError):
            residual_max_abs("monotone", g, d_max, b_max)
    assert residual_max_abs("strict", 0, 40, 40) == 0  # the window's edge runs


def _dropped(words, i):
    return words[:i] + words[i + 1:]


def _flipped(words, i):
    w = words[i]
    return words[:i] + [w[1:] if w.startswith("-") else "-" + w] + words[i + 1:]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("g", [0, 1, 2])
@pytest.mark.parametrize("fault", [_dropped, _flipped], ids=["drop", "flip"])
def test_every_planted_operator_fault_leaves_a_residual(monkeypatch, variant, g,
                                                        fault):
    words = annihilator_words(variant, g)
    for i in range(len(words)):
        monkeypatch.setattr(quantum_curve, "annihilator_words",
                            lambda v, genus: fault(words, i))
        assert residual_max_abs(variant, g, 8, 8) != 0, (words, i)
