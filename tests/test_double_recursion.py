import re
from fractions import Fraction

import pytest

from mixedhurwitz.errors import DomainError, ResourceLimitError
from mixedhurwitz.characters import sector_value
from mixedhurwitz.double_recursion import (
    N_aggregate,
    N_value,
    base_g_assembly,
    disconnected_double,
    double_hurwitz,
)
from mixedhurwitz.partitions import enumerate_partitions
from mixedhurwitz.quantum_curve import annihilator_words, partition_coefficient
from mixedhurwitz.symgroup import monotone_double_count, oracle_N, oracle_N_slots
from mixedhurwitz.tropical import (enumerate_elliptic_covers, enumerate_line_covers,
                                   tropical_double_sum, tropical_elliptic_sum,
                                   type_series)


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


def test_anchors_match_the_direct_count():
    # the b <= 1 anchors are a closed form; every such slot at d <= 8 must
    # agree with the oracle's direct count
    slots = 0
    for variant in ("monotone", "strict"):
        for d in range(1, 9):
            parts = enumerate_partitions(d)
            for mu in parts:
                for nu in parts:
                    b = len(mu) + len(nu) - 2
                    if b > 1:
                        continue
                    for i in range(len(mu)):
                        dist, rest = mu[i], mu[:i] + mu[i + 1:]
                        for l in range(1, nu[-1] + 1):
                            slots += 1
                            assert N_value(variant, 0, dist, rest, nu, l) == \
                                oracle_N(variant, 0, mu, nu, l, i + 1, 8), \
                                (variant, mu, nu, i, l)
    assert slots == 508


# every double-number entry point, called on the profiles (mu, nu)
DOUBLE_ENTRIES = {
    "N_aggregate": lambda mu, nu: N_aggregate("monotone", 0, mu, nu),
    "double_hurwitz": lambda mu, nu: double_hurwitz("monotone", 0, mu, nu),
    "disconnected_double": lambda mu, nu: disconnected_double("monotone", mu, nu, 1),
    "monotone_double_count": lambda mu, nu: monotone_double_count(0, mu, nu, False),
    "oracle_N_slots": lambda mu, nu: oracle_N_slots("monotone", 0, mu, nu),
    "oracle_N": lambda mu, nu: oracle_N("monotone", 0, mu, nu, 1, 1),
    "enumerate_line_covers": lambda mu, nu: enumerate_line_covers(0, mu, nu),
    "tropical_double_sum": lambda mu, nu: tropical_double_sum("monotone", 0, mu, nu),
}


@pytest.mark.parametrize("entry", DOUBLE_ENTRIES)
@pytest.mark.parametrize("mu,nu,message", [
    ((1, 2), (3,), "weakly decreasing"),  # a composition is not sorted for you
    ((2,), (1,), "|mu| must equal |nu|"),
], ids=["unsorted", "sizes"])
def test_every_double_entry_refuses_malformed_profiles(entry, mu, nu, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        DOUBLE_ENTRIES[entry](mu, nu)


# every entry point that takes a variant, called with a valid rest
VARIANT_ENTRIES = {
    "N_value": lambda v: N_value(v, 0, 1, (), (1,), 1),
    "N_aggregate": lambda v: N_aggregate(v, 0, (1,), (1,)),
    "double_hurwitz": lambda v: double_hurwitz(v, 0, (1,), (1,)),
    "disconnected_double": lambda v: disconnected_double(v, (2,), (2,), 1),
    "base_g_assembly": lambda v: base_g_assembly(v, 1, 1, (), 1),
    "oracle_N_slots": lambda v: oracle_N_slots(v, 0, (1,), (1,)),
    "oracle_N": lambda v: oracle_N(v, 0, (1,), (1,), 1, 1),
    "tropical_double_sum": lambda v: tropical_double_sum(v, 0, (1,), (1,)),
    "tropical_elliptic_sum": lambda v: tropical_elliptic_sum(v, 2, 1),
    "type_series": lambda v: type_series(v, 2, 1),
    "partition_coefficient": lambda v: partition_coefficient(v, 0, 1, 0),
    "annihilator_words": lambda v: annihilator_words(v, 1),
    "TropicalCover.multiplicity":
        lambda v: enumerate_elliptic_covers(2, 2)[0].multiplicity(v),
}


@pytest.mark.parametrize("entry", VARIANT_ENTRIES)
def test_every_variant_entry_refuses_an_unknown_variant(entry):
    for variant in ("monotone", "strict"):
        VARIANT_ENTRIES[entry](variant)
    with pytest.raises(DomainError, match="unknown variant weak"):
        VARIANT_ENTRIES[entry]("weak")


@pytest.mark.parametrize("call", [
    lambda v: double_hurwitz(v, 30, (1,), (1,)),
    lambda v: disconnected_double(v, (1,), (1,), 60),
    lambda v: base_g_assembly(v, 1, 30, (), 1),
], ids=["double_hurwitz", "disconnected_double", "base_g_assembly"])
def test_an_unknown_variant_is_refused_before_the_double_budget(call):
    # b + |mu| is far past DOUBLE_LIMIT: a valid variant meets the budget,
    # an unknown one its own refusal first
    with pytest.raises(ResourceLimitError):
        call("monotone")
    with pytest.raises(DomainError, match="unknown variant weak"):
        call("weak")
