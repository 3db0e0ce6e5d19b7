"""Partitions, conjugacy-class combinatorics, contents, symmetric-polynomial
evaluation and Stirling numbers; the double-count check, the Riemann-Hurwitz
count and HurwitzSpec, the validated spec of one triply mixed enumeration.

Partitions are plain tuples of positive ints, weakly decreasing.  Compositions
are tuples of positive ints in arbitrary order.  All functions are pure and
memo tables only ever receive idempotent inserts, so everything here is safe
to call concurrently.
"""

from collections import Counter, namedtuple
from functools import cache
from math import factorial, prod

from .errors import DomainError

Partition = tuple  # weakly decreasing tuple of positive ints


def check_partition(p) -> Partition:
    """Validate and return p as a partition tuple."""
    t = tuple(p)
    for i, x in enumerate(t):
        if not isinstance(x, int) or x < 1:
            raise DomainError(f"partition parts must be positive integers: {t}")
        if i and t[i - 1] < x:
            raise DomainError(f"partition parts must be weakly decreasing: {t}")
    return t


def check_double(mu, nu):
    """(mu, nu, d) for the profiles of a double count, two partitions of size d."""
    mu, nu = check_partition(mu), check_partition(nu)
    if sum(mu) != sum(nu):
        raise DomainError("|mu| must equal |nu|")
    return mu, nu, sum(mu)


# _partitions[n] is enumerate_partitions(n), built from the blocks of the
# smaller degrees with one tuple concatenation per partition
_partitions = {0: ((),)}


@cache
def block_start(n: int):
    """block_start(n)[m], 0 <= m <= n: where the partitions of n with largest
    part <= m begin in enumerate_partitions(n), counted without building any:
    the block of first part f holds those of n - f from block_start(n - f)[f]."""
    starts = [0]
    for first in range(n, 0, -1):
        r = n - first
        starts.append(starts[-1] + partition_count(r) - block_start(r)[min(first, r)])
    return tuple(reversed(starts))


def enumerate_partitions(d: int):
    """All partitions of d, in reverse lexicographic order.

    The order is fixed and documented so cached tables are stable: (d) comes
    first, (1,...,1) last.  d=0 yields the single empty partition.
    """
    if d < 0:
        raise DomainError("d must be >= 0")
    for n in range(1, d + 1):
        if n not in _partitions:
            _partitions[n] = tuple(
                (first,) + tail for first in range(n, 0, -1)
                for tail in _partitions[n - first][block_start(n - first)[
                    min(first, n - first)]:])
    return _partitions[d]


def compositions(total: int, parts: int):
    """All compositions of total into the given number of positive parts, in
    lexicographic order."""
    if parts <= 0:
        if parts == total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def strip_ones(p) -> Partition:
    """Drop all parts equal to 1."""
    return tuple(x for x in p if x != 1)


def pad_to(p, d: int) -> Partition:
    """Pad with 1-parts up to total size d."""
    s = sum(p)
    if s > d:
        raise DomainError(f"partition {p} does not fit degree {d}")
    return tuple(p) + (1,) * (d - s)


def aut_count(mu) -> int:
    """|Aut mu| = product over part values of (multiplicity!)."""
    return prod(map(factorial, Counter(mu).values()))


def z_weight(p) -> int:
    """Order of the centralizer of a permutation of cycle type p: prod m^r_m r_m!."""
    return prod(m**r * factorial(r) for m, r in Counter(p).items())


def class_size(nu, d: int) -> int:
    """Number of permutations in S_d whose cycle type is nu padded with fixed points.

    nu may contain 1-parts; they simply merge into the padding.
    """
    nu = tuple(nu)
    if sum(nu) > d:
        raise DomainError(f"|nu|={sum(nu)} exceeds degree {d}")
    return factorial(d) // z_weight(pad_to(nu, d))


@cache
def hook_dim(lam) -> int:
    """Dimension of the irreducible S_n representation of shape lam (hook lengths)."""
    lam = check_partition(lam)
    n = sum(lam)
    conj = conjugate(lam)
    denom = 1
    for i, row in enumerate(lam):
        for j in range(row):
            denom *= (row - j) + (conj[j] - i) - 1
    q, r = divmod(factorial(n), denom)
    assert r == 0
    return q


def conjugate(lam) -> Partition:
    """Transpose of the partition lam: column j has as many cells as rows > j."""
    out = []
    for i in range(len(lam), 0, -1):  # columns len(out)..lam[i-1]-1 have i cells
        out.extend([i] * (lam[i - 1] - len(out)))
    return tuple(out)


def contents(lam):
    """Multiset of contents j-i over the cells (i,j) of lam, as a sorted tuple."""
    lam = check_partition(lam)
    vals = [j - i for i, row in enumerate(lam) for j in range(row)]
    return tuple(sorted(vals))


def sym_eval(kind: str, degree: int, values) -> int:
    """Evaluate h_degree or e_degree at a finite multiset of integers.

    kind is "complete_homogeneous" or "elementary".  Degree 0 is always 1;
    e_k vanishes once k exceeds the multiset cardinality.
    """
    if degree < 0:
        raise DomainError("degree must be >= 0")
    vals = tuple(values)
    if kind == "elementary":
        # coefficients of prod (1 + v t)
        coeffs = [1] + [0] * degree
        for v in vals:
            for k in range(min(degree, len(coeffs) - 1), 0, -1):
                coeffs[k] += v * coeffs[k - 1]
        return coeffs[degree]
    if kind == "complete_homogeneous":
        # coefficients of prod 1/(1 - v t), accumulated value by value
        coeffs = [1] + [0] * degree
        for v in vals:
            for k in range(1, degree + 1):
                coeffs[k] += v * coeffs[k - 1]
        return coeffs[degree]
    raise DomainError(f"unknown symmetric polynomial kind: {kind}")


def stirling(kind: str, n: int, k: int) -> int:
    """Stirling numbers by their defining recurrences.

    kind "first_unsigned": [n+1,k] = n[n,k] + [n,k-1];
    kind "second":         {n+1,k} = k{n,k} + {n,k-1};
    boundary: [0,0]={0,0}=1 and [n,0]=[0,n]=0 for n>0.
    Row n is stepped up from the highest memoised row below it.
    """
    if n < 0 or k < 0:
        raise DomainError("Stirling indices must be >= 0")
    if n == 0 or k == 0 or k > n:
        return int(n == k)
    if kind not in _stirling_rows:
        raise DomainError(f"unknown Stirling kind: {kind}")
    rows = _stirling_rows[kind]
    if n not in rows:
        m = max(r for r in rows if r < n)
        row = rows[m]
        for m in range(m + 1, n + 1):
            # entry j of row m from entries j and j - 1 of row m - 1
            weights = [m - 1] * m if kind == "first_unsigned" else range(m)
            row = [0, *(w * x + y for w, x, y in zip(weights[1:], row[1:], row)),
                   row[-1]]
        rows[n] = row
    return rows[n][k]


# _stirling_rows[kind][n] = row n, entries k = 0..n, for each n a caller has
# asked for; row 0 seeds the recurrence
_stirling_rows = {"first_unsigned": {0: [1]}, "second": {0: [1]}}


# _pcounts[n] = p(n) for n = 0, 1, ..., as far as a caller has asked
_pcounts = {0: 1}


def partition_count(n: int) -> int:
    """p(n) via the Euler pentagonal recurrence (used as an independent oracle);
    p(n) = 0 for n < 0."""
    for m in range(len(_pcounts), n + 1):
        total, k = 0, 1
        while (g1 := k * (3 * k - 1) // 2) <= m:
            term = _pcounts[m - g1] + _pcounts.get(m - g1 - k, 0)
            total += term if k % 2 else -term
            k += 1
        _pcounts[m] = total
    return _pcounts.get(n, 0)


# ---------------------------------------------------------------------------
# Hurwitz spec


def transposition_count(base_genus: int, source_genus: int, degree: int,
                        profiles) -> int:
    """Riemann-Hurwitz: the number b = 2g'-2 - d(2g-2) - sum_i (|mu^i| - l(mu^i))
    of simple branch points a degree-d cover of a genus-g base by a genus-g'
    source has besides the profiles mu^i; negative when no such cover exists."""
    return (2 * source_genus - 2 - degree * (2 * base_genus - 2)
            - sum(sum(p) - len(p) for p in profiles))


def source_genus_for(base_genus: int, degree: int, profiles, b: int) -> int:
    """Source genus implied by b transpositions; errors if not a nonneg integer."""
    two_gp = b - transposition_count(base_genus, 0, degree,
                                     [check_partition(p) for p in profiles])
    if two_gp % 2 != 0 or two_gp < 0:
        raise DomainError(
            f"no valid source genus for b={b}, degree={degree}, profiles={profiles}"
        )
    return two_gp // 2


class HurwitzSpec(namedtuple("HurwitzSpec", "base_genus source_genus degree "
                             "profiles k l m connected labeled")):
    """One triply mixed enumeration.

    Profiles are kept as given (1-parts included if the caller wrote them);
    the class condition is up to 1-padding, so only their 1-free parts matter
    for the count.  k unconstrained transpositions, l weakly monotone, m
    strictly monotone; k+l+m must equal b, the transposition_count of the
    genera, degree and profiles.

    A validated named tuple: the class, _make and _replace all check the
    fields, so no spec is built unchecked.
    """

    __slots__ = ()

    def __new__(cls, base_genus: int, source_genus: int, degree: int,
                profiles: tuple = (), k: int = 0, l: int = 0, m: int = 0,
                connected: bool = True, labeled: bool = False):
        if min(base_genus, source_genus, k, l, m) < 0:
            raise DomainError("genera and k, l, m must be nonnegative")
        if degree < 1:
            raise DomainError("degree must be positive")
        profiles = tuple(check_partition(p) for p in profiles)
        for p in profiles:
            if sum(p) > degree:
                raise DomainError(f"profile {p} exceeds degree {degree}")
        self = super().__new__(cls, base_genus, source_genus, degree, profiles,
                               k, l, m, connected, labeled)
        if k + l + m != self.b:
            raise DomainError(f"k+l+m = {k + l + m} but b = {self.b} for this spec")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def b(self) -> int:
        b = transposition_count(self.base_genus, self.source_genus, self.degree,
                                self.profiles)
        if b < 0:
            raise DomainError(f"negative transposition count b = {b}")
        return b

    def padded_profiles(self):
        return tuple(pad_to(p, self.degree) for p in self.profiles)
