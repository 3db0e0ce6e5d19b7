import os
import pickle
from collections import Counter
from functools import cache
from math import comb, factorial
import subprocess
import sys
from fractions import Fraction

import pytest

import mixedhurwitz
from mixedhurwitz import symgroup
from mixedhurwitz.errors import DomainError
from mixedhurwitz.partitions import (
    HurwitzSpec,
    aut_count,
    block_start,
    check_partition,
    class_size,
    contents,
    enumerate_partitions,
    hook_dim,
    partition_count,
    source_genus_for,
    stirling,
    sym_eval,
    transposition_count,
)
from mixedhurwitz.symgroup import all_perms, cycle_type
from mixedhurwitz.util import splits
from references import falling_factorial, positional_splits


def test_enumerate_partitions_order():
    assert enumerate_partitions(0) == ((),)
    assert enumerate_partitions(3) == ((3,), (2, 1), (1, 1, 1))
    # reverse lexicographic: every partition precedes its successors
    p6 = enumerate_partitions(6)
    assert len(p6) == 11 == partition_count(6)
    assert p6[0] == (6,) and p6[-1] == (1,) * 6
    assert all(p6[i] > p6[i + 1] for i in range(len(p6) - 1))


def test_enumerate_partitions_through_degree_30():
    for d in range(31):
        parts = enumerate_partitions(d)
        assert list(parts) == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts) == partition_count(d)
        assert all(check_partition(p) == p and sum(p) == d for p in parts)
        assert parts[0] == ((d,) if d else ()) and parts[-1] == (1,) * d


def test_block_start_counts_the_offsets_of_the_enumeration():
    # block_start(n)[m] is where the partitions with largest part <= m begin
    for n in range(31):
        parts = enumerate_partitions(n)
        assert block_start(n) == tuple(
            next((i for i, p in enumerate(parts) if not p or p[0] <= m), len(parts))
            for m in range(n + 1))


def test_partition_count_of_a_large_degree_on_a_cold_table():
    # a fresh process, so no smaller p(n) is known yet
    code = ("from mixedhurwitz.partitions import partition_count as p; "
            "p(1500); print(p(1000))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(mixedhurwitz.__file__)),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "24061467864032622473692149727991"


def test_splits_tally_the_positional_splits():
    # the weighted sub-multisets of every partition of n <= 8, and of sorted
    # tuples of blocks as joined_count passes, are the position subsets
    # sorted and tallied, each split once
    def down(x):
        return tuple(sorted(x, reverse=True))

    blocks = [((1,), (1,), (2,)), ((1,), (2,), (2,), (2, 1)),
              ((2,), (2,), (2,), (2,)), ((1,), (1,), (2,), (2,), (3,), (3, 2))]
    for items in [*(p for n in range(9) for p in enumerate_partitions(n)), *blocks]:
        tally = Counter((down(I), down(J)) for I, J in positional_splits(items))
        got = splits(items)
        assert all(I == down(I) and J == down(J) for I, J, _ in got), items
        assert {(I, J): w for I, J, w in got} == tally, items
        assert len(got) == len(tally), items


def test_hurwitz_spec_is_a_frozen_value():
    s = HurwitzSpec(0, 0, 3, [[2, 1], (3,)], 1, labeled=True)
    assert s.profiles == ((2, 1), (3,)) and s.b == 1
    assert (s.k, s.l, s.m, s.connected) == (1, 0, 0, True)
    same = HurwitzSpec(base_genus=0, source_genus=0, degree=3,
                       profiles=((2, 1), (3,)), k=1, l=0, m=0,
                       connected=True, labeled=True)
    assert s == same and hash(s) == hash(same) and {s: 1}[same] == 1
    assert s != HurwitzSpec(0, 0, 3, ((2, 1), (3,)), 1)
    assert s != (0, 0, 3)
    assert repr(s) == ("HurwitzSpec(base_genus=0, source_genus=0, degree=3, "
                       "profiles=((2, 1), (3,)), k=1, l=0, m=0, "
                       "connected=True, labeled=True)")
    assert pickle.loads(pickle.dumps(s)) == s
    assert s.padded_profiles() == ((2, 1), (3,))
    with pytest.raises(AttributeError):
        s.k = 2
    with pytest.raises(DomainError):
        HurwitzSpec(0, 0, 0)  # degree must be positive
    with pytest.raises(DomainError):
        HurwitzSpec(0, -1, 2)  # negative genus
    assert symgroup.HurwitzSpec is mixedhurwitz.HurwitzSpec is HurwitzSpec


def test_replace_and_make_validate_the_spec():
    s = HurwitzSpec(0, 0, 3, ((2, 1), (3,)), 1)
    with pytest.raises(DomainError):
        s._replace(k=5)  # k+l+m != b
    with pytest.raises(DomainError):
        HurwitzSpec._make((0, -1, 3, (), 0, 0, 0, True, False))  # negative genus
    assert s._replace(k=0, l=1) == HurwitzSpec(0, 0, 3, ((2, 1), (3,)), 0, 1)
    assert s._replace(profiles=[[2, 1], [3]]).profiles == ((2, 1), (3,))


def test_source_genus_for_inverts_the_transposition_count():
    for g, d, profiles in [(0, 3, ((2, 1), (3,))), (1, 4, ((2, 2),)), (2, 2, ())]:
        b = transposition_count(g, 5, d, profiles)
        assert source_genus_for(g, d, profiles, b) == 5
        assert HurwitzSpec(g, 5, d, profiles, b).b == b
    assert symgroup.source_genus_for is source_genus_for


def test_class_size_examples():
    assert class_size((2,), 2) == 1
    assert class_size((2,), 3) == 3
    assert class_size((3, 2), 5) == 20
    with pytest.raises(DomainError):
        class_size((4,), 3)


@pytest.mark.parametrize("d", range(1, 7))
def test_class_size_brute_force(d):
    counts = {}
    for p in all_perms(d):
        counts[cycle_type(p)] = counts.get(cycle_type(p), 0) + 1
    for nu, c in counts.items():
        assert class_size(nu, d) == c
        # 1-stripped call must agree (padding semantics)
        assert class_size(tuple(x for x in nu if x > 1), d) == c


def test_aut_count():
    assert aut_count((2, 2, 1)) == 2
    assert aut_count((3, 3, 3)) == 6
    assert aut_count((5, 4, 3, 2, 1)) == 1


def test_hook_dim():
    assert hook_dim((7,)) == 1
    assert hook_dim((2, 1)) == 2
    assert hook_dim((2, 2)) == 2
    # standard tableau counts for a few shapes
    assert hook_dim((3, 2)) == 5
    assert hook_dim((2, 2, 1)) == 5


@pytest.mark.parametrize("d", range(0, 9))
def test_dimension_orthogonality(d):
    from math import factorial

    assert sum(hook_dim(l) ** 2 for l in enumerate_partitions(d)) == factorial(d)


def test_contents():
    assert contents(()) == ()
    assert contents((2, 1)) == (-1, 0, 1)
    assert contents((3, 1)) == (-1, 0, 1, 2)
    # zeros sit on the main diagonal, one per diagonal cell
    for lam, diag in [((1,), 1), ((2, 1), 1), ((2, 2), 2), ((4, 2, 1), 2),
                      ((3, 3, 3), 3)]:
        assert contents(lam).count(0) == diag
        assert len(contents(lam)) == sum(lam)


def test_sym_eval():
    assert sym_eval("elementary", 1, (0, 1, -1)) == 0
    assert sym_eval("complete_homogeneous", 2, (0, 1, -1)) == 1
    assert sym_eval("elementary", 4, (0, 1, -1)) == 0
    assert sym_eval("complete_homogeneous", 0, ()) == 1
    # brute force comparison on a fixed multiset
    vals = (2, -1, 3)
    assert sym_eval("elementary", 2, vals) == sum(
        a * b for i, a in enumerate(vals) for b in vals[i + 1:]
    )
    assert sym_eval("complete_homogeneous", 2, vals) == sum(
        vals[i] * vals[j] for i in range(3) for j in range(i, 3)
    )


def test_stirling_examples():
    assert stirling("second", 0, 0) == 1
    assert stirling("second", 3, 2) == 3
    assert stirling("first_unsigned", 3, 2) == 3
    assert stirling("second", 5, 0) == 0
    assert stirling("first_unsigned", 0, 4) == 0


@cache
def _recursive_stirling(kind, n, k):
    """The memoised recursion stirling ran on before its rows were built
    iteratively."""
    if n < 0 or k < 0:
        raise DomainError("Stirling indices must be >= 0")
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0:
        return 0
    if k > n:
        return 0
    if kind == "first_unsigned":
        return (n - 1) * _recursive_stirling(kind, n - 1, k) \
            + _recursive_stirling(kind, n - 1, k - 1)
    if kind == "second":
        return k * _recursive_stirling(kind, n - 1, k) \
            + _recursive_stirling(kind, n - 1, k - 1)
    raise DomainError(f"unknown Stirling kind: {kind}")


def test_stirling_matches_the_recursion_on_a_small_grid():
    for kind in ("first_unsigned", "second", "third"):
        for n in range(-1, 31):
            for k in range(-1, 33):
                try:
                    want = _recursive_stirling(kind, n, k)
                except DomainError as err:
                    with pytest.raises(DomainError, match=str(err)):
                        stirling(kind, n, k)
                else:
                    assert stirling(kind, n, k) == want, (kind, n, k)


def test_stirling_takes_large_indices():
    # past the recursion's depth: {n, k} by inclusion-exclusion, and row n
    # of the first kind sums to n! with alternating sum 0
    n, k = 1200, 600
    assert stirling("second", n, k) == sum(
        (-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)
    row = [stirling("first_unsigned", n, j) for j in range(n + 1)]
    assert sum(row) == factorial(n)
    assert sum((-1) ** j * x for j, x in enumerate(row)) == 0
    assert row[k] == stirling("first_unsigned", n, k) > 0


def test_stirling_falling_factorial_identity():
    # sum_k S(n,k) x(x-1)...(x-k+1) = x^n
    for n in range(0, 9):
        for x in range(1, 7):
            total = sum(
                stirling("second", n, k) * falling_factorial(x, k)
                for k in range(0, n + 1)
            )
            assert total == Fraction(x) ** n


def test_stirling_generating_identities():
    # second kind: sum_n {n,k} x^(n-k) = prod_{r<=k} 1/(1-rx), coefficientwise
    ORDER = 10
    for k in range(0, 5):
        lhs = [stirling("second", n + k, k) for n in range(ORDER + 1)]
        rhs = [Fraction(0)] * (ORDER + 1)
        rhs[0] = Fraction(1)
        for r in range(1, k + 1):
            new = [Fraction(0)] * (ORDER + 1)
            for i in range(ORDER + 1):
                acc = rhs[i]
                if i >= 1:
                    acc += r * new[i - 1]
                new[i] = acc
            rhs = new
        assert lhs == rhs, k
    # first kind with the sign restored:
    # sum_k (-1)^(n-k) [n,k] z^(n-k) = prod_{r=1}^{n-1} (1 - r z)
    for n in range(0, 11):
        lhs = [
            (-1) ** j * stirling("first_unsigned", n, n - j) for j in range(n + 1)
        ]
        rhs = [Fraction(1)] + [Fraction(0)] * n
        for r in range(1, n):
            rhs = [
                rhs[i] - (r * rhs[i - 1] if i else 0) for i in range(n + 1)
            ]
        assert [Fraction(x) for x in lhs] == rhs, n
