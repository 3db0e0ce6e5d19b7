import json
from fractions import Fraction
from math import factorial

import pytest

from mixedhurwitz import characters
from mixedhurwitz.errors import DomainError, ResourceLimitError
from mixedhurwitz.characters import (
    _char_cache,
    central_character_extended,
    central_character_f,
    character,
    commutator_count_by_characters,
    connected_hurwitz_qseries,
    connected_series,
    hurwitz_by_characters,
    load_character_table,
    save_character_table,
    sector_value,
)
from mixedhurwitz.partitions import (
    contents,
    enumerate_partitions,
    hook_dim,
    partition_count,
    sym_eval,
)
from mixedhurwitz.commutators import count_commutator_type
from mixedhurwitz.series import QSeries
from mixedhurwitz.symgroup import (
    HurwitzSpec,
    all_perms,
    cycle_type,
    perms_of_type,
)


def test_character_examples():
    assert character((4,), (2, 1, 1)) == 1
    assert character((1, 1, 1), (2, 1)) == -1
    assert character((2, 1), (3,)) == -1
    with pytest.raises(DomainError):
        character((2, 1), (2,))


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
    from mixedhurwitz.symgroup import all_transpositions, compose, identity

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


@pytest.mark.parametrize("d,g", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2)])
def test_commutator_counts_match_oracle(d, g):
    for nu in enumerate_partitions(d):
        assert commutator_count_by_characters(g, nu, d) == \
            count_commutator_type(g, nu, d)


def test_character_cache_round_trip(tmp_path):
    path = save_character_table(4, str(tmp_path))
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["version"] == 1 and doc["degree"] == 4
    assert all(isinstance(e["chi"], str) for e in doc["entries"])
    assert load_character_table(4, str(tmp_path))
    assert not load_character_table(9, str(tmp_path))


def _entries(*entries):
    return json.dumps({"version": 1, "degree": 3, "entries": list(entries)})


@pytest.mark.parametrize("text", [
    '{"version": 1, "degr', "[]", "\udcff",
    '{"version": 1, "degree": 3}',
    _entries({"lambda": [3], "nu": [3]}),
    _entries({"lambda": [3], "nu": [3], "chi": "1/2"}),
    _entries({"lambda": [3], "nu": [3], "chi": 2.5}),
    _entries({"lambda": [3], "nu": [3], "chi": "7"}, {"lambda": [2, 1], "nu": [3]}),
])
def test_unreadable_cache_file_is_a_domain_error(tmp_path, text):
    (tmp_path / "chartable-3.json").write_text(text, errors="surrogateescape")
    before = dict(_char_cache)
    with pytest.raises(DomainError, match="unrecognized cache file"):
        load_character_table(3, str(tmp_path))
    assert _char_cache == before  # nothing of a rejected file is kept


def test_cached_tables_load_lazily_once(tmp_path, monkeypatch):
    save_character_table(3, str(tmp_path))
    save_character_table(5, str(tmp_path))
    (tmp_path / "chartable-4.json").write_text('{"version": 1, "degr')
    loads, load = [], characters.load_character_table

    def counting_load(d, cache_dir=None):
        loads.append(d)
        return load(d, cache_dir)

    monkeypatch.setattr(characters, "load_character_table", counting_load)
    monkeypatch.setattr(characters, "_char_cache", {})
    monkeypatch.setattr(characters, "_tables_tried", set())
    monkeypatch.setattr(characters, "_table_dir", None)
    characters.use_cache_dir(str(tmp_path))
    assert loads == []                        # nothing is read up front
    assert character((2, 1), (3,)) == -1
    assert character((2, 1), (2, 1)) == 0
    assert loads == [3]                       # once per degree
    assert character((3, 1), (4,)) == -1      # the corrupt file is passed over
    assert character((2, 2), (2, 2)) == 2
    assert loads == [3, 4, 2]                 # 2: a smaller degree, no file
    n_before = len(characters._char_cache)
    assert character((3, 2), (5,)) == 0
    assert loads == [3, 4, 2, 5]
    assert len(characters._char_cache) - n_before == 7 * 7  # the whole table


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


def test_partition_budget_refuses_the_first_degree_past_it(monkeypatch):
    monkeypatch.setattr(characters, "PARTITION_LIMIT", partition_count(10))
    assert sector_value(1, 2, 0, 0, (), 10) > 0
    assert connected_hurwitz_qseries(1, 2, 0, 0, (), 10).high == 10
    with pytest.raises(ResourceLimitError):
        sector_value(1, 2, 0, 0, (), 11)
    with pytest.raises(ResourceLimitError):
        connected_hurwitz_qseries(1, 2, 0, 0, (), 11)
