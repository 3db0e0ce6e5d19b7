from fractions import Fraction

import pytest

from mixedhurwitz.characters import connected_hurwitz_qseries
from mixedhurwitz.errors import DomainError, ResourceLimitError
from mixedhurwitz.partitions import enumerate_partitions
from mixedhurwitz.symgroup import monotone_double_count
from mixedhurwitz.tropical import (
    TropicalCover,
    all_types,
    combinatorial_type,
    enumerate_elliptic_covers,
    enumerate_line_covers,
    gw_vertex_multiplicity,
    per_type_series,
    tropical_double_sum,
    tropical_elliptic_sum,
)


def test_vertex_multiplicity_examples():
    assert gw_vertex_multiplicity((1, 1), (2,), 0, 1) == 1
    assert gw_vertex_multiplicity((1,), (1,), 1, 2) == 0
    assert gw_vertex_multiplicity((2,), (2,), 1, 2) == Fraction(1, 4)
    with pytest.raises(DomainError):
        gw_vertex_multiplicity((2,), (2,), 0, 3)
    with pytest.raises(DomainError):
        gw_vertex_multiplicity((2,), (2,), 0, 0)  # lam_i must be >= 1


def test_line_sum_examples():
    assert tropical_double_sum("monotone", 1, (2,), (2,)) == Fraction(1, 2)
    assert tropical_double_sum("strict", 1, (2,), (2,)) == 0
    assert tropical_double_sum("monotone", 0, (3,), (2, 1)) == 1
    # strands-only covers at b = 0 carry deck factors
    assert tropical_double_sum("monotone", 0, (2,), (2,)) == Fraction(1, 2)
    # mixed disconnected case validated against the factorization count
    assert tropical_double_sum("monotone", 0, (2, 1), (2, 1)) == Fraction(7, 2)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_line_sum_matches_oracle(d):
    parts = enumerate_partitions(d)
    for mu in parts:
        for nu in parts:
            for g in (0, 1):
                b = 2 * g - 2 + len(mu) + len(nu)
                if b < 0 or b > 4:
                    continue
                for variant in ("monotone", "strict"):
                    got = tropical_double_sum(variant, g, mu, nu)
                    want = monotone_double_count(
                        g, mu, nu, strict=(variant == "strict"), connected=False)
                    assert got == want, (variant, g, mu, nu)


def _check_cover_invariants(cover: TropicalCover, elliptic_genus=None):
    n = len(cover.vertices)
    lam_total = 0
    for i, (gv, lam) in enumerate(cover.vertices):
        xm, xp = cover.x_sides(i)
        assert sum(xm) == sum(xp) >= 1            # balancing
        assert lam == len(xm) + len(xp) + 2 * gv - 2
        assert lam >= 1
        lam_total += lam
    if elliptic_genus is not None:
        assert lam_total == 2 * elliptic_genus - 2
        # h^1 + sum g(v) = genus: edges all internal on the circle
        e = len(cover.edges)
        h1 = e - n + 1
        assert h1 + sum(gv for gv, _ in cover.vertices) == elliptic_genus


def test_elliptic_cover_invariants_and_values():
    for d in (1, 2, 3, 4):
        covers = enumerate_elliptic_covers(2, d)
        for c in covers:
            _check_cover_invariants(c, elliptic_genus=2)
            assert c.degree == d
    assert tropical_elliptic_sum("monotone", 2, 2) == 2
    assert tropical_elliptic_sum("strict", 2, 2) == 0
    assert tropical_elliptic_sum("monotone", 2, 3) == 13
    assert tropical_elliptic_sum("strict", 2, 3) == 3
    assert tropical_elliptic_sum("monotone", 2, 4) == 44


def test_elliptic_bounds():
    with pytest.raises(DomainError):
        enumerate_elliptic_covers(1, 2)
    with pytest.raises(ResourceLimitError):
        enumerate_elliptic_covers(2, 99)


def test_line_cover_invariants():
    for c in enumerate_line_covers(1, (2, 1), (2, 1)):
        _check_cover_invariants(c)


def test_per_type_partition_of_total():
    for d in (2, 3, 4):
        covers = enumerate_elliptic_covers(2, d)
        total = sum((c.multiplicity("monotone") for c in covers), Fraction(0))
        by_type = {}
        for c in covers:
            t = combinatorial_type(c)
            by_type[t] = by_type.get(t, Fraction(0)) + c.multiplicity("monotone")
        assert sum(by_type.values(), Fraction(0)) == total
        assert total == tropical_elliptic_sum("monotone", 2, d)


def test_per_type_series_single_vertex_genus0():
    # the one-vertex genus-0 type: two loops; monotone coefficients are
    # nonnegative (halves appear from the loop-swap automorphism)
    types = [t for t in all_types(2, 4) if t[1] == (0,)]
    assert types == [(((0, 0), (0, 0)), (0,))]
    ser = per_type_series(types[0], "monotone", 2, 4)
    vals = ser.coefficients(1, 4)
    assert all(v >= 0 for v in vals)
    assert vals[1] == Fraction(1, 2)


def test_vertex_multiplicity_reads_the_edge_multiset():
    assert gw_vertex_multiplicity((1, 2), (3,), 0, 1) == \
        gw_vertex_multiplicity((3,), (2, 1), 0, 1) == 1
    # a memoised weight never skips the consistency checks
    with pytest.raises(DomainError):
        gw_vertex_multiplicity((1, 2), (3,), 0, 3)


def test_elliptic_degree_below_one_is_a_domain_error():
    for d in (0, -1):
        with pytest.raises(DomainError):
            enumerate_elliptic_covers(2, d)


def test_elliptic_node_budget_at_limit_plus_one():
    # the g = 2, d = 3 search visits 108 graph and weight nodes
    assert len(enumerate_elliptic_covers(2, 3, max_nodes=108)) == 8
    with pytest.raises(ResourceLimitError):
        enumerate_elliptic_covers(2, 3, max_nodes=107)


@pytest.mark.parametrize("variant,kl", [("monotone", (0, 2, 0)),
                                        ("strict", (0, 0, 2))],
                         ids=["monotone", "strict"])
def test_per_type_series_sum_to_character_series(variant, kl):
    # the paper's refinement: the genus-2 series is the sum over
    # combinatorial types of their tropical series
    total = [Fraction(0)] * 7
    for ctype in all_types(2, 6):
        ser = per_type_series(ctype, variant, 2, 6)
        total = [x + y for x, y in zip(total, ser.coefficients(0, 6))]
    want = connected_hurwitz_qseries(1, *kl, (), 6)
    assert total == [want.coefficient(d) for d in range(7)]
