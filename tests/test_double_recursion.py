from fractions import Fraction

import pytest

from mixedhurwitz.errors import DomainError
from mixedhurwitz.characters import sector_value
from mixedhurwitz.double_recursion import (
    N_aggregate,
    N_value,
    base_g_assembly,
    disconnected_double,
    double_hurwitz,
)
from mixedhurwitz.partitions import enumerate_partitions
from mixedhurwitz.symgroup import monotone_double_count


def test_N_examples():
    # infeasible slot: t_b would land outside the last block
    assert N_value("monotone", 0, 2, (), (2,), 1) == 0
    assert N_value("monotone", 0, 2, (), (2,), 2) == 1
    # aggregates from the module contract
    assert N_aggregate("monotone", 0, (3,), (2, 1)) == 2
    assert N_aggregate("strict", 1, (2,), (2,)) == 0


def test_N_value_validation():
    with pytest.raises(DomainError):
        N_value("monotone", 0, 2, (), (2, 1), 1)  # size mismatch
    with pytest.raises(DomainError):
        N_value("nope", 0, 2, (), (2,), 1)


def test_double_hurwitz_examples():
    assert double_hurwitz("monotone", 1, (2,), (2,)) == Fraction(1, 2)
    assert double_hurwitz("strict", 1, (2,), (2,)) == 0
    assert double_hurwitz("monotone", 0, (3,), (2, 1)) == 1
    with pytest.raises(DomainError):
        double_hurwitz("monotone", 0, (3,), (2,))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_double_hurwitz_matches_enumeration(d):
    parts = enumerate_partitions(d)
    for mu in parts:
        for nu in parts:
            for g in (0, 1):
                b = 2 * g - 2 + len(mu) + len(nu)
                if b < 0 or b > 4:
                    continue
                for variant in ("monotone", "strict"):
                    assert double_hurwitz(variant, g, mu, nu) == \
                        monotone_double_count(g, mu, nu,
                                              strict=(variant == "strict"))


def test_double_hurwitz_matches_characters():
    # g = 0 base triply mixed with (k,l,m) = (0,b,0) or (0,0,b)
    for d in (2, 3, 4):
        parts = enumerate_partitions(d)
        for mu in parts:
            for nu in parts:
                for g in (0, 1):
                    b = 2 * g - 2 + len(mu) + len(nu)
                    if b < 0 or b > 3:
                        continue
                    # disconnected comparison through the character formula
                    for variant, kl in (("monotone", (0, b, 0)),
                                        ("strict", (0, 0, b))):
                        got = disconnected_double(variant, mu, nu, b)
                        prof = (tuple(x for x in mu if x > 1),
                                tuple(x for x in nu if x > 1))
                        want = sector_value(0, kl[0], kl[1], kl[2], prof, d)
                        assert got == want, (variant, g, mu, nu)


def test_base_g_assembly_matches_characters():
    for variant, kl in (("monotone", (0, 2, 0)), ("strict", (0, 0, 2))):
        for d in (1, 2, 3, 4):
            got = base_g_assembly(variant, 1, 2, (), d)
            want = sector_value(1, kl[0], kl[1], kl[2], (), d)
            assert got == want, (variant, d)


def test_base_case_convention():
    # b = 0: one tuple exactly when mu = nu is a single cycle, at
    # (l = last part, i = 1)
    assert N_value("monotone", 0, 3, (), (3,), 3) == 1
    assert N_value("monotone", 0, 3, (), (3,), 2) == 0
    assert N_value("strict", 0, 3, (), (3,), 3) == 1
