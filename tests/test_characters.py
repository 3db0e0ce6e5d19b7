from fractions import Fraction
from math import comb, factorial, prod
from operator import mul

import pytest

from mixedhurwitz import characters, partitions
from mixedhurwitz.errors import DomainError, ResourceLimitError
from mixedhurwitz.characters import (
    _lambda_column,
    central_character_f,
    character,
    commutator_count_by_characters,
    connected_hurwitz_qseries,
    connected_series,
    hurwitz_by_characters,
    sector_family,
    sector_value,
)
from mixedhurwitz.partitions import (
    class_size,
    contents,
    enumerate_partitions,
    hook_dim,
    pad_to,
    partition_count,
    sym_eval,
)
from mixedhurwitz.commutators import count_commutator_type
from mixedhurwitz.series import QSeries
from mixedhurwitz.symgroup import HurwitzSpec, cycle_type
from references import mn_character


def central_character_extended(nu, lam) -> Fraction:
    """binom(|lam|,|nu|) |C_nu| chi^lam(nu padded)/dim lam for any nu.

    For 1-free nu this is f_nu; with 1-parts it is the verbatim binomial
    extension (e.g. nu=(1) gives |lam|).
    """
    n, d = sum(nu), sum(lam)
    return Fraction(comb(d, n) * class_size(nu, n) * character(lam, pad_to(nu, d)),
                    hook_dim(lam))


def reference_sector_value(g, k, l, m, profiles, d) -> Fraction:
    """The lambda-sum of one sector, term by term over the partitions of d:
    (dim/d!)^(2-2g) prod_nu (|C_nu| chi^lam(nu) / dim) f2^k h_l e_m, summed
    as integers times dim^(2-2g-#nu) and scaled once."""
    if d == 0:
        return Fraction(1) if (k == l == m == 0 and not any(profiles)) else Fraction(0)
    if any(sum(p) > d for p in profiles) or (k and d < 2):
        return Fraction(0)
    lams = enumerate_partitions(d)
    xs = [f ** k for f in _lambda_column(d, "f2")]
    if l:
        xs = list(map(mul, xs, _lambda_column(d, ("complete_homogeneous", l))))
    if m:
        xs = list(map(mul, xs, _lambda_column(d, ("elementary", m))))
    classes = [pad_to(p, d) for p in profiles if p]
    for nu in classes:
        xs = [x * mn_character(lam, nu) if x else 0 for x, lam in zip(xs, lams)]
    dim_power = 2 - 2 * g - len(classes)
    dims = [hook_dim(lam) for lam in lams]
    if dim_power >= 0:
        total = sum(x * dim ** dim_power for x, dim in zip(xs, dims))
    else:  # dim divides d!: x / dim^n = x (d!/dim)^n / d!^n
        fd = factorial(d)
        total = Fraction(sum(x * (fd // dim) ** -dim_power
                             for x, dim in zip(xs, dims) if x), fd ** -dim_power)
    scale = Fraction(prod(class_size(p, d) for p in profiles if p))
    return total * scale / Fraction(factorial(d)) ** (2 - 2 * g)


def test_character_examples():
    assert character((4,), (2, 1, 1)) == 1
    assert character((1, 1, 1), (2, 1)) == -1
    assert character((2, 1), (3,)) == -1
    with pytest.raises(DomainError):
        character((2, 1), (2,))


def test_character_columns_match_the_per_lambda_rule():
    # every (lam, nu) with |lam| <= 10: the rim-hook transfer of whole columns
    # against the MN recursion on one lam at a time
    pairs = [(lam, nu) for d in range(11) for lam in enumerate_partitions(d)
             for nu in enumerate_partitions(d)]
    assert len(pairs) == 3583
    assert all(character(lam, nu) == mn_character(lam, nu) for lam, nu in pairs)


@pytest.mark.parametrize("d", range(1, 7))
def test_characters_against_brute_force(d):
    # chi^lam(nu) via explicit class sums in the regular representation is
    # expensive; instead verify the two defining identities: the identity
    # column gives dimensions and column orthogonality holds.
    parts = enumerate_partitions(d)
    for lam in parts:
        assert character(lam, (1,) * d) == hook_dim(lam)
    from mixedhurwitz.partitions import class_size

    for nu in parts:
        # second orthogonality: sum_lam chi^lam(nu)^2 = |centralizer of nu|
        s = sum(character(lam, nu) ** 2 for lam in parts)
        assert s == factorial(d) // class_size(nu, d)


def test_sign_representation_values():
    # chi^(1^d)(nu) is the sign of the class
    for d in range(2, 6):
        for nu in enumerate_partitions(d):
            sign = (-1) ** (d - len(nu))
            assert character((1,) * d, nu) == sign


def test_central_character_examples():
    assert central_character_f((), (3, 1)) == 1
    assert central_character_f((2,), (2,)) == 1
    assert central_character_f((2,), (1, 1)) == -1
    with pytest.raises(DomainError):
        central_character_f((2, 1), (2, 1))


def test_f1_is_size():
    for d in range(0, 9):
        for lam in enumerate_partitions(d):
            if d >= 1:
                assert central_character_extended((1,), lam) == d


def test_f2_shifted_symmetric():
    half = Fraction(1, 2)
    for d in range(2, 9):
        for lam in enumerate_partitions(d):
            expect = sum(
                ((lam[i - 1] - i + half) ** 2 - (-i + half) ** 2
                 for i in range(1, len(lam) + 1)),
                Fraction(0),
            ) / 2
            assert central_character_f((2,), lam) == expect


def test_jucys_murphy_group_algebra():
    # omega^lam(f(Xi_d)) = f(cont_lam) for f in {h1, h2, e1, e2}, d <= 4:
    # build the central elements as explicit group-algebra sums over the
    # monotone/strict transposition sequences and apply characters.
    from mixedhurwitz.symgroup import compose
    from references import all_transpositions

    for d in (2, 3, 4):
        trans = all_transpositions(d)
        seqs = {"h": {1: [], 2: []}, "e": {1: [], 2: []}}
        for (s, t, tp) in trans:
            seqs["h"][1].append(tp)
            seqs["e"][1].append(tp)
        for (s1, t1, tp1) in trans:
            for (s2, t2, tp2) in trans:
                if t1 <= t2:
                    seqs["h"][2].append(compose(tp1, tp2))
                if t1 < t2:
                    seqs["e"][2].append(compose(tp1, tp2))
        for lam in enumerate_partitions(d):
            dim = hook_dim(lam)
            cont = contents(lam)
            for kind, key in (("h", "complete_homogeneous"), ("e", "elementary")):
                for deg in (1, 2):
                    omega = sum(
                        Fraction(character(lam, cycle_type(p)), dim)
                        for p in seqs[kind][deg]
                    )
                    assert omega == sym_eval(key, deg, cont), (d, lam, kind, deg)


def test_hurwitz_by_characters_examples():
    assert hurwitz_by_characters(HurwitzSpec(1, 1, 1, (), 0, 0, 0,
                                             connected=False)) == 1
    assert hurwitz_by_characters(HurwitzSpec(1, 2, 2, (), 2, 0, 0,
                                             connected=False)) == 2
    assert hurwitz_by_characters(
        HurwitzSpec(0, 0, 2, ((2,), (2,)), 0, 0, 0, connected=False)
    ) == Fraction(1, 2)
    with pytest.raises(DomainError):
        hurwitz_by_characters(HurwitzSpec(1, 1, 1, (), 0, 0, 0, connected=True))


def test_profiles_with_ones_are_stripped():
    a = hurwitz_by_characters(
        HurwitzSpec(1, 2, 3, ((2, 1),), 1, 0, 0, connected=False))
    b = hurwitz_by_characters(
        HurwitzSpec(1, 2, 3, ((2,),), 1, 0, 0, connected=False))
    assert a == b


def test_connected_series_round_trip():
    # single-variable sanity: log(exp) is the identity on a small family
    fam = {(0, 0, 0, ()): QSeries([1, 1, Fraction(1, 2), Fraction(1, 6)])}
    # exp(q) has connected log q
    out = connected_series(fam)[(0, 0, 0, ())]
    assert out.coefficients(1, 3) == [1, 0, 0]


def test_connected_series_golden():
    s = connected_hurwitz_qseries(1, 2, 0, 0, (), 3)
    assert s.coefficients(0, 3) == [0, 0, 2, 16]
    s = connected_hurwitz_qseries(1, 0, 2, 0, (), 3)
    assert s.coefficients(0, 3) == [0, 0, 2, 13]
    missing = {(0, 2, 0, ()): QSeries([0, 0, 2, 13])}
    with pytest.raises(DomainError):
        connected_series(missing)


def test_disconnected_series_evaluates_only_its_own_sector(monkeypatch):
    calls = []

    def counting_sector_family(g, keys, dmax, low=0):
        calls.append(list(keys))
        return sector_family(g, keys, dmax, low)

    monkeypatch.setattr(characters, "sector_family", counting_sector_family)
    s = connected_hurwitz_qseries(0, 4, 2, 0, ((2, 2), (3,)), 12, connected=False)
    assert calls == [[(4, 2, 0, ((2, 2), (3,)))]]
    assert [str(c) for c in s.coefficients(0, 12)] == [
        "0", "0", "0", "0", "2700", "27080", "108603/2", "1137157/24",
        "75334/3", "450119/48", "385645/144", "12414107/20160",
        "1190197/10080"]


@pytest.mark.parametrize("d,g", [(d, g) for g in (1, 2, 3) for d in range(1, 7)])
def test_commutator_counts_match_oracle(d, g):
    for nu in enumerate_partitions(d):
        assert commutator_count_by_characters(g, nu, d) == \
            count_commutator_type(g, nu, d)


def test_sector_value_degree_zero_convention():
    assert sector_value(1, 0, 0, 0, (), 0) == 1
    assert sector_value(1, 1, 0, 0, (), 0) == 0
    assert sector_value(1, 0, 0, 0, ((2,),), 0) == 0


def test_genus_one_sector_without_profiles_builds_no_dim_column(monkeypatch):
    monkeypatch.setattr(characters, "_lambda_columns", {})
    # at base genus 1 every lambda weighs dim^0 = 1: the sum of f_(2)^k
    assert sector_value(1, 2, 0, 0, (), 9) == sum(
        sum(contents(lam)) ** 2 for lam in enumerate_partitions(9))
    assert all(key != "dim" for _, key in characters._lambda_columns)
    sector_value(0, 2, 0, 0, (), 9)  # base genus 0 weighs dim^2
    assert (9, "dim") in characters._lambda_columns


def test_genus_one_sector_without_profiles_builds_no_partition_tuple(monkeypatch):
    # f_(2) and the row count come from block offsets counted without tuples
    monkeypatch.setattr(partitions, "_partitions", {0: ((),)})
    monkeypatch.setattr(characters, "_lambda_columns", {})
    assert sector_value(1, 3, 0, 0, (), 20) == 0  # f2(lam') = -f2(lam)
    value = sector_value(1, 4, 0, 0, (), 20)
    assert list(partitions._partitions) == [0]
    assert value == sum(sum(contents(lam)) ** 4 for lam in enumerate_partitions(20))


@pytest.mark.parametrize("g,l,m,profiles,dmax", [
    (1, 0, 0, (), 12), (0, 1, 1, ((3,), (2, 2)), 10), (2, 0, 2, ((2,),), 9)])
def test_a_family_of_every_k_matches_the_reference(g, l, m, profiles, dmax):
    # k = 0..20 in one group steps k over the distinct f2 values
    family = sector_family(g, [(k, l, m, profiles) for k in range(21)], dmax)
    for k in range(21):
        assert family[k, l, m, profiles] == [
            reference_sector_value(g, k, l, m, profiles, d)
            for d in range(dmax + 1)], k


def test_lambda_columns_match_their_definitions(monkeypatch):
    # f2, the power sums and the bead words come from the smaller degrees'
    # columns, h_j and e_j for every j <= n from the power sums; requests
    # alternate kinds and raise or lower j
    monkeypatch.setattr(characters, "_lambda_columns", {})
    kinds = ("complete_homogeneous", "elementary")
    for d in range(21):
        conts = [contents(lam) for lam in enumerate_partitions(d)]
        assert characters._lambda_column(d, "f2") == [sum(c) for c in conts]
        assert characters._lambda_column(d, ("power", 3)) == [
            sum(v ** 3 for v in c) for c in conts]
        assert characters._lambda_column(d, "word") == [  # d beads, lam padded with 0s
            sum(1 << (p + d - 1 - i) for i, p in enumerate(lam + (0,) * (d - len(lam))))
            for lam in enumerate_partitions(d)]
        for j in (1, 3, 2, 4):
            for kind in kinds[j % 2:] + kinds[:j % 2]:
                assert characters._lambda_column(d, (kind, j)) == [
                    sym_eval(kind, j, c) for c in conts], (d, kind, j)


def test_partition_budget_refuses_the_first_degree_past_it(monkeypatch):
    monkeypatch.setattr(characters, "PARTITION_LIMIT", partition_count(10))
    assert sector_value(1, 2, 0, 0, (), 10) > 0
    assert connected_hurwitz_qseries(1, 2, 0, 0, (), 10).high == 10
    with pytest.raises(ResourceLimitError):
        sector_value(1, 2, 0, 0, (), 11)
    with pytest.raises(ResourceLimitError):
        connected_hurwitz_qseries(1, 2, 0, 0, (), 11)
