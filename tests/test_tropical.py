import json
import time
from fractions import Fraction
from functools import cache

import pytest

from mixedhurwitz import cli, tropical
from mixedhurwitz.characters import connected_hurwitz_qseries
from mixedhurwitz.errors import DomainError, ResourceLimitError
from mixedhurwitz.partitions import enumerate_partitions
from mixedhurwitz.symgroup import monotone_double_count
from mixedhurwitz.tropical import (
    TropicalCover,
    combinatorial_type,
    enumerate_elliptic_covers,
    enumerate_line_covers,
    gw_vertex_multiplicity,
    per_type_series,
    tropical_double_sum,
    tropical_elliptic_sum,
    type_series,
)
from references import all_types, two_factor_vertex_weight, unpruned_elliptic_covers


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
        assert len(xm) + len(xp) >= 1             # valence
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
        # connected: n rounds of spreading along the edges reach every vertex
        reached = {0}
        for _ in range(n):
            reached |= {v for (a, b, *_) in cover.edges if {a, b} & reached
                        for v in (a, b)}
        assert reached == set(range(n))


def test_elliptic_cover_invariants_and_values():
    for g in (2, 3):
        for d in (1, 2, 3, 4):
            covers = enumerate_elliptic_covers(g, d)
            for c in covers:
                _check_cover_invariants(c, elliptic_genus=g)
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
    for g in (7, 10**9):  # refused before the compositions of 2g - 2
        with pytest.raises(ResourceLimitError):
            enumerate_elliptic_covers(g, 1)


def test_line_cover_invariants():
    # line covers may be disconnected; b = 0 gives the strands-only covers
    for d in (1, 2, 3):
        for mu in enumerate_partitions(d):
            for nu in enumerate_partitions(d):
                for g in (0, 1):
                    for c in enumerate_line_covers(g, mu, nu):
                        _check_cover_invariants(c)
                        assert c.degree == d


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


def test_elliptic_node_budget_at_limit_plus_one(monkeypatch):
    # the g = 2, d = 3 search visits 75 weighted edges
    monkeypatch.setattr(tropical, "NODE_LIMIT", 75)
    assert len(enumerate_elliptic_covers(2, 3)) == 8
    monkeypatch.setattr(tropical, "NODE_LIMIT", 74)
    with pytest.raises(ResourceLimitError):
        enumerate_elliptic_covers(2, 3)


# every (genus, degree) at genus <= 3 that MAX_DEGREE admits
GRID = [(g, d) for g in (2, 3) for d in range(1, tropical.MAX_DEGREE[g] + 1)]


@cache
def _grid_covers(g, d):
    return enumerate_elliptic_covers(g, d)


@pytest.mark.parametrize("g,d", GRID, ids=[f"g{g}d{d}" for g, d in GRID])
def test_elliptic_covers_match_the_unpruned_search(g, d):
    # the one search over weighted edges against every shape multiset with
    # weights forced along a spanning tree: the same covers in the same order
    assert _grid_covers(g, d) == unpruned_elliptic_covers(g, d)


# GRID and the MAX_DEGREE entries at genus 4 to 6
FULL_ARCS = GRID + [(g, tropical.MAX_DEGREE[g]) for g in (4, 5, 6)]


@pytest.mark.parametrize("g,d", FULL_ARCS, ids=[f"g{g}d{d}" for g, d in FULL_ARCS])
def test_every_arc_of_every_elliptic_cover_carries_d(g, d):
    # the search stops where every arc is full; balancing, connectivity and
    # the local invariants must hold on what it yields
    for cover in _grid_covers(g, d):
        n = len(cover.vertices)
        loads = [0] * n
        for (a, t, w, k, _) in cover.edges:
            loads = [x + w * c for x, c in zip(loads, tropical._arc_crossings(a, t, k, n))]
        assert loads == [d] * n, cover
        assert all(gv >= 0 for gv, _ in cover.vertices), cover
        _check_cover_invariants(cover, elliptic_genus=g)


def test_vertex_multiplicity_matches_the_two_factor_reference():
    # (x^+, x^-, vertex genus, lam_i) of every vertex of every cover
    keys = {(cover.x_sides(i)[1], cover.x_sides(i)[0], gv, lam)
            for g, d in GRID for cover in _grid_covers(g, d)
            for i, (gv, lam) in enumerate(cover.vertices)}
    assert {k[2] for k in keys} == {0, 1, 2} and {k[3] for k in keys} == {1, 2, 3, 4}
    for key in sorted(keys):
        assert gw_vertex_multiplicity(*key) == two_factor_vertex_weight(*key), key


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
    # the same at genus 3 up to q^4, every type's series from one pass
    total = [Fraction(0)] * 5
    for ser in type_series(variant, 3, 4).values():
        total = [x + y for x, y in zip(total, ser.coefficients(0, 4))]
    want = connected_hurwitz_qseries(1, *(2 * x for x in kl), (), 4)
    assert total == [want.coefficient(d) for d in range(5)]


def test_type_series_keys_are_all_types():
    assert list(type_series("monotone", 2, 5)) == all_types(2, 5)
    # a type with no cover is the zero series
    assert per_type_series(((), (9,)), "monotone", 2, 5).coefficients(0, 5) \
        == [Fraction(0)] * 6


def _tropical_main(genus, degree):
    return cli.main(["tropical", "--genus", str(genus), "--degree", str(degree),
                     "--variant", "monotone"])


# each entry of MAX_DEGREE and the monotone total there
@pytest.mark.parametrize("genus,degree,total", [
    (2, 24, "64175"), (3, 6, "25653/2"), (4, 2, "2"), (5, 1, "0"), (6, 1, "0"),
], ids=["g2", "g3", "g4", "g5", "g6"])
def test_tropical_runs_at_each_max_degree(genus, degree, total, capsys):
    assert tropical.MAX_DEGREE[genus] == degree
    assert _tropical_main(genus, degree) == 0
    assert json.loads(capsys.readouterr().out) == {"total": total}


@pytest.mark.parametrize("genus,degree", [
    (2, 25), (3, 7), (4, 3), (5, 2), (6, 2), (7, 1), (10**9, 1),
], ids=["g2", "g3", "g4", "g5", "g6", "g7", "g-huge"])
def test_tropical_refuses_one_degree_past_max_at_once(genus, degree, capsys):
    # without the table, genus 6 at degree 2 finishes in 5.4 s of search,
    # and the others but the huge genus in 0.2-1.3 s
    start = time.monotonic()
    assert _tropical_main(genus, degree) == 3
    assert time.monotonic() - start < 0.3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("resource limit:")
