import ast
import hashlib
from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial, prod
from pathlib import Path

import pytest

import mixedhurwitz
from mixedhurwitz.characters import connected_hurwitz_qseries, hurwitz_by_characters
from mixedhurwitz.commutators import count_commutator_type
from mixedhurwitz.errors import DomainError, ResourceLimitError
from mixedhurwitz.partitions import aut_count, class_size, enumerate_partitions
from mixedhurwitz.symgroup import (
    DEFAULT_ORACLE_LIMIT,
    HurwitzSpec,
    _codes,
    _join,
    _labels_of,
    all_perms,
    canonical_of_type,
    compose,
    count_monotone_of_fixed_target,
    count_triply_mixed,
    cycle_type,
    identity,
    inverse,
    monotone_double_count,
    oracle_N,
    oracle_N_slots,
    orbit_labels,
    source_genus_for,
    triply_mixed_slots,
)
from mixedhurwitz.util import ORACLE_SIZE_LIMIT
from references import commutator_tuple_table, full_class_counts, transitive_count


def test_spec_validation():
    with pytest.raises(DomainError):
        HurwitzSpec(0, 0, 2, (), 1, 0, 0)  # k+l+m != b
    with pytest.raises(DomainError):
        HurwitzSpec(0, 0, 1, ((2,),), 0, 0, 0)  # profile exceeds degree
    s = HurwitzSpec(1, 2, 2, (), 2, 0, 0)
    assert s.b == 2


def test_count_examples():
    assert count_triply_mixed(HurwitzSpec(0, 0, 1, ((1,),), 0, 0, 0)) == 1
    assert count_triply_mixed(HurwitzSpec(1, 2, 2, (), 2, 0, 0)) == 2
    assert count_triply_mixed(HurwitzSpec(1, 2, 3, (), 0, 0, 2)) == 3


def test_oracle_limit():
    with pytest.raises(ResourceLimitError):
        count_triply_mixed(HurwitzSpec(0, 3, 7, ((7,),), 0, 12, 0), oracle_limit=6)


def test_every_oracle_refuses_degree_above_limit():
    d = DEFAULT_ORACLE_LIMIT + 1
    with pytest.raises(ResourceLimitError):
        monotone_double_count(0, (d,), (d,), strict=False)
    with pytest.raises(ResourceLimitError):
        count_monotone_of_fixed_target((d,), d - 1)
    with pytest.raises(ResourceLimitError):
        oracle_N("monotone", 1, (d,), (d,), d, 1)  # b = 2
    with pytest.raises(ResourceLimitError):  # verify exits 3 on it
        triply_mixed_slots(1, d, (), range(4))
    # b <= 1 is a direct count in polynomial time and runs at any degree: of
    # the transpositions (s, d-1), one splits the d-cycle into d-1 and a
    # fixed point s
    assert oracle_N("monotone", 0, (d - 1, 1), (d,), d, 1) == 1
    # an explicit limit above the ceiling still refuses past the ceiling
    top = max(ORACLE_SIZE_LIMIT) + 1
    with pytest.raises(ResourceLimitError):
        count_triply_mixed(HurwitzSpec(0, 0, top, ((top,),), 0, top - 1, 0),
                           oracle_limit=top)
    with pytest.raises(ResourceLimitError):
        triply_mixed_slots(0, top, (), range(4), top)
    with pytest.raises(ResourceLimitError):
        monotone_double_count(0, (top,), (top,), strict=False, limit=top)
    with pytest.raises(ResourceLimitError):
        count_monotone_of_fixed_target((top,), top - 1, limit=top)
    with pytest.raises(ResourceLimitError):
        oracle_N("monotone", 1, (top,), (top,), top, 1, limit=top)
    with pytest.raises(ResourceLimitError):
        count_commutator_type(1, (top,), top, limit=top)


def test_every_oracle_refuses_past_its_size_row():
    # the base genus, the transposition count b = k + l + m (at base genus 0
    # and 1) and the number of profiles are bounded per degree, before any
    # work
    d = max(ORACLE_SIZE_LIMIT)
    genus, b, profiles = ORACLE_SIZE_LIMIT[d]
    with pytest.raises(ResourceLimitError):
        triply_mixed_slots(0, d, [(1,)] * (profiles + 1), [0], d)
    with pytest.raises(ResourceLimitError):
        triply_mixed_slots(1, d, (), [b + 1], d)
    with pytest.raises(ResourceLimitError):
        count_triply_mixed(HurwitzSpec(genus + 1, 1 + d * genus, d), oracle_limit=d)
    with pytest.raises(ResourceLimitError):
        count_commutator_type(genus + 1, (), d, limit=d)
    with pytest.raises(ResourceLimitError):
        triply_mixed_slots(0, d, (), [b + 1], d)
    with pytest.raises(ResourceLimitError):  # source genus g: b = 2g - 2 + 2
        monotone_double_count(b // 2 + 1, (d,), (d,), strict=True, limit=d)
    with pytest.raises(ResourceLimitError):
        count_monotone_of_fixed_target((d,), b + 1 + (b + d) % 2, limit=d)
    with pytest.raises(ResourceLimitError):
        oracle_N_slots("strict", b // 2 + 1, (d,), (d,), d)


def test_labeled_is_aut_times_unlabeled():
    for profiles in [((2,),), ((2, 2),), ((3, 1),), ((2,), (2,))]:
        d = 4
        b = 2 * 1 - 2 + sum(len(p) - sum(p) for p in profiles) + 2 * d
        gp = source_genus_for(0, d, profiles, 2) if b < 0 else None
        # use base genus 0, two plain transpositions where feasible
        try:
            gp = source_genus_for(0, d, profiles, 2)
        except DomainError:
            continue
        plain = count_triply_mixed(HurwitzSpec(0, gp, d, profiles, 2, 0, 0,
                                               connected=False))
        lab = count_triply_mixed(HurwitzSpec(0, gp, d, profiles, 2, 0, 0,
                                             connected=False, labeled=True))
        expected = plain
        for p in profiles:
            expected *= aut_count(p)
        assert lab == expected


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_specializations_match_dedicated_enumerators(d):
    # l = m = 0 with k = b free transpositions against the character sum
    # (k = m = 0 and k = l = 0: see
    # test_monotone_double_count_matches_triply_mixed)
    parts = enumerate_partitions(d)
    cases = 0
    for gp in range(0, 4):
        for profiles in [(p,) for p in parts] + list(product(parts, repeat=2)):
            b = 2 * gp - 2 + 2 * d + sum(len(p) - d for p in profiles)
            if not 0 <= b <= 3:
                continue
            cases += 1
            spec = HurwitzSpec(0, gp, d, profiles, b, 0, 0, connected=False)
            assert count_triply_mixed(spec) == hurwitz_by_characters(spec), spec
    assert cases


def test_monotone_double_count_matches_triply_mixed():
    # the full-class reference runs sigma_1 and sigma_2 over their full
    # classes, so it checks the fixed sigma_1 and the sigma_2 read off each
    # walk end
    cases = 0
    for d in range(1, 6):
        parts = enumerate_partitions(d)
        for mu, nu, gp in product(parts, parts, range(3)):
            b = 2 * gp - 2 + len(mu) + len(nu)
            if not 0 <= b <= 4:
                continue
            for strict, connected in product((False, True), repeat=2):
                cases += 1
                blocks = (0, 0, b) if strict else (0, b, 0)
                spec = HurwitzSpec(0, gp, d, (mu, nu), *blocks, connected)
                assert monotone_double_count(gp, mu, nu, strict, connected) == \
                    full_class_counts(0, d, (mu, nu), *blocks)[connected], \
                    (mu, nu, gp, strict, connected)
    assert cases == 436


def test_slot_engine_matches_count_triply_mixed():
    # the oracle-vs-characters menu at d <= 5, every slot with b <= 3 whose
    # source genus exists, against one count_triply_mixed walk per spec
    checked = 0
    for g, profiles, d in product((0, 1), [(), ((2,),), ((3,),), ((2,), (2,))],
                                  range(1, 6)):
        if any(sum(p) > d for p in profiles):
            continue
        slots = triply_mixed_slots(g, d, profiles, range(4))
        assert len(slots) == 20  # every (k, l, m) with k + l + m <= 3
        for (k, l, m), values in slots.items():
            try:
                gp = source_genus_for(g, d, profiles, k + l + m)
            except DomainError:
                continue
            checked += 1
            assert values == tuple(
                count_triply_mixed(HurwitzSpec(g, gp, d, profiles, k, l, m,
                                               connected))
                for connected in (False, True)), (g, d, profiles, k, l, m)
    assert checked == 191  # the specs of verify's 382 cases at --dmax 5


def test_fixed_sigma_1_matches_the_full_class_walk():
    # count_triply_mixed and triply_mixed_slots fix sigma_1 to one permutation
    # of its class; the reference runs every profile over its full class.  At
    # g <= 2, d <= 5, no profile or one or two of (2), (3), (2, 2) in either
    # order, every (k, l, m) with k + l + m <= 3 whose source genus exists,
    # connected and labeled both ways
    menu = [(2,), (3,), (2, 2)]
    checked = 0
    for g, d in product(range(3), range(1, 6)):
        fit = [p for p in menu if sum(p) <= d]
        for profiles in [(), *((p,) for p in fit), *product(fit, repeat=2)]:
            slots = triply_mixed_slots(g, d, profiles, range(4))
            for (k, l, m), values in slots.items():
                try:
                    gp = source_genus_for(g, d, profiles, k + l + m)
                except DomainError:
                    continue
                want = full_class_counts(g, d, profiles, k, l, m)
                assert values == want, (g, d, profiles, k, l, m)
                for connected, labeled in product((False, True), repeat=2):
                    checked += 1
                    aut = prod(map(aut_count, profiles)) if labeled else 1
                    assert count_triply_mixed(HurwitzSpec(
                        g, gp, d, profiles, k, l, m, connected, labeled)) == \
                        want[connected] * aut, (g, d, profiles, k, l, m, labeled)
    assert checked == 3352


def test_monotone_fixed_target_examples():
    assert count_monotone_of_fixed_target((1,), 0) == 1
    assert count_monotone_of_fixed_target((2,), 1) == 1
    # |C_{0,3}| at mu = (1,1,1) needs b = 2g-2+n+|mu| = 4
    assert count_monotone_of_fixed_target((1, 1, 1), 4) == 8
    # no transpositions exist in S_1, so two of them certainly do not
    assert count_monotone_of_fixed_target((1,), 2) == 0
    with pytest.raises(DomainError):
        count_monotone_of_fixed_target((2,), 2)  # parity infeasible


def test_canonical_of_type_labels():
    p = canonical_of_type((2, 1), 3)
    assert cycle_type(p) == (2, 1)
    assert p == (1, 0, 2)


def test_oracle_N_examples():
    assert oracle_N("monotone", 0, (3,), (2, 1), 1, 1) == 2
    assert sum(oracle_N_slots("strict", 1, (2,), (2,)).values()) == 0
    # b = 0 base convention: single cycle, slot (l = last part, i = 1)
    assert oracle_N("monotone", 0, (3,), (3,), 3, 1) == 1
    assert oracle_N("monotone", 0, (3,), (3,), 1, 1) == 0
    with pytest.raises(DomainError):
        oracle_N("monotone", 0, (3,), (2, 1), 5, 1)
    # every nonzero slot of a (g, mu, nu) from one walk
    assert oracle_N_slots("monotone", 0, (2, 1), (3,)) == {
        (2, 1): 1, (3, 1): 1, (3, 2): 1}
    assert oracle_N_slots("monotone", 1, (2, 1), (2, 1)) == {
        (1, 1): 20, (1, 2): 10}


def test_commutator_counts():
    assert count_commutator_type(1, (1,), 1) == 1
    assert count_commutator_type(1, (1, 1), 2) == 4
    assert count_commutator_type(1, (2,), 2) == 0
    # total over all padded types is (d!)^(2g)
    for d in (2, 3):
        for g in (1, 2):
            total = sum(count_commutator_type(g, nu, d)
                        for nu in enumerate_partitions(d))
            assert total == factorial(d) ** (2 * g)


@cache
def _naive_commutator_table(d, g):
    """{kappa: {orbit labels: count}} over every 2g-tuple, by plain products."""
    table = {}
    for handles in product(all_perms(d), repeat=2 * g):
        kappa = identity(d)
        for a, b in zip(handles[::2], handles[1::2]):
            kappa = compose(kappa, compose(compose(a, b),
                                           compose(inverse(a), inverse(b))))
        orb = orbit_labels(d, handles)
        by_orbit = table.setdefault(kappa, {})
        by_orbit[orb] = by_orbit.get(orb, 0) + 1
    return table


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_commutator_pair_table_matches_plain_products(d):
    assert commutator_tuple_table(d, 1) == _naive_commutator_table(d, 1)


def test_commutator_pair_table_at_degree_6():
    from mixedhurwitz.characters import commutator_count_by_characters

    table = commutator_tuple_table(6, 1)
    for kappa, by_orbit in table.items():
        nu = cycle_type(kappa)
        assert sum(by_orbit.values()) * class_size(nu, 6) == \
            commutator_count_by_characters(1, nu, 6), kappa
    # all (6!)^2 pairs lie over the 360 even permutations; the digest is that
    # of the same table built by a plain loop over the pairs
    assert sum(sum(r.values()) for r in table.values()) == factorial(6) ** 2
    assert len(table) == 360
    rows = sorted((k, sorted(r.items())) for k, r in table.items())
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "ec54c6f47ab351bc3f40ae17d38350ecd0ec0e36b8dcad12d311922eb4ea17e4")


def test_commutator_tuple_table_matches_plain_products():
    assert commutator_tuple_table(3, 2) == _naive_commutator_table(3, 2)


@pytest.mark.parametrize("d,g", [*((d, 1) for d in range(1, 6)),
                                 *((d, 2) for d in range(1, 4))])
def test_transitive_counts_match_plain_products(d, g):
    # t_g(type of kappa) is the single-orbit entry of kappa's row, or 0
    table = _naive_commutator_table(d, g)
    for kappa in all_perms(d):
        assert transitive_count(g, cycle_type(kappa)) == \
            table.get(kappa, {}).get((0,) * d, 0), kappa


@pytest.mark.parametrize("connected, value", [(False, 1626), (True, 672)])
def test_degree_7_handle_count_matches_characters(connected, value):
    # base genus 1, k = 2 at degree 7: source genus 2
    spec = HurwitzSpec(1, 2, 7, (), 2, 0, 0, connected=connected)
    assert count_triply_mixed(spec, oracle_limit=7) == value
    chars = (connected_hurwitz_qseries(1, 2, 0, 0, (), 7).coefficient(7)
             if connected else hurwitz_by_characters(spec))
    assert chars == value


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_label_joins_match_orbit_labels(d):
    for p in all_perms(d):
        assert _labels_of(p) == orbit_labels(d, (p,))
    # every set partition is the cycle partition of some permutation
    labels = {orbit_labels(d, (p,)) for p in all_perms(d)}
    assert len(labels) == [1, 1, 2, 5, 15, 52][d]
    codes = _codes(d)[1]
    for a in labels:
        for b in labels:
            joined = _join(codes, codes.code(a), codes.code(b))
            assert codes.items[joined] == orbit_labels(d, (a, b))


def test_disconnected_assembles_from_connected():
    # exponential formula at a small sector: mu = (), base genus 1, k = 2
    conn = {}
    for d in (1, 2, 3):
        for k in (0, 1, 2):
            try:
                gp = source_genus_for(1, d, (), k)
            except DomainError:
                conn[(k, d)] = Fraction(0)
                continue
            conn[(k, d)] = count_triply_mixed(
                HurwitzSpec(1, gp, d, (), k, 0, 0, connected=True))
    # assemble d = 3, k = 2 disconnected
    from math import comb

    disc = conn[(2, 3)]
    # pairs {(k1,d1),(k2,d2)}
    pairs = Fraction(0)
    for k1 in range(3):
        for d1 in (1, 2):
            d2 = 3 - d1
            k2 = 2 - k1
            pairs += comb(2, k1) * conn[(k1, d1)] * conn[(k2, d2)]
    disc += pairs / 2
    # triples: d = 1+1+1
    triples = Fraction(0)
    for k1 in range(3):
        for k2 in range(3 - k1):
            k3 = 2 - k1 - k2
            triples += (comb(2, k1) * comb(2 - k1, k2)
                        * conn[(k1, 1)] * conn[(k2, 1)] * conn[(k3, 1)])
    disc += triples / 6
    gp = source_genus_for(1, 3, (), 2)
    assert disc == count_triply_mixed(
        HurwitzSpec(1, gp, 3, (), 2, 0, 0, connected=False))


def _imported_modules(module):
    """The first dotted part of every name the source of a mixedhurwitz
    module imports, at any depth, with the package prefix dropped."""
    source = (Path(mixedhurwitz.__file__).parent / f"{module}.py").read_text()
    assert "import_module" not in source and "__import__" not in source
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names |= {base} | {f"{base}.{alias.name}".lstrip(".")
                               for alias in node.names}
    return {name.removeprefix("mixedhurwitz.").split(".")[0] for name in names}


@pytest.mark.parametrize("module", ["symgroup", "commutators"])
def test_the_oracle_imports_no_character_route(module):
    # route independence: the oracle never reads a character column or a
    # q-series
    imported = _imported_modules(module)
    assert "partitions" in imported  # the walk sees the relative imports
    assert not imported & {"characters", "series", "quasimodular"}
