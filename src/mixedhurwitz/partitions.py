"""Partitions, conjugacy-class combinatorics, contents, symmetric-polynomial
evaluation and Stirling numbers.

Partitions are plain tuples of positive ints, weakly decreasing.  Compositions
are tuples of positive ints in arbitrary order.  All functions are pure and
memo tables only ever receive idempotent inserts, so everything here is safe
to call concurrently.
"""

from functools import cache
from math import factorial

from .errors import DomainError

Partition = tuple  # weakly decreasing tuple of positive ints
Composition = tuple


def check_partition(p) -> Partition:
    """Validate and return p as a partition tuple."""
    t = tuple(p)
    for i, x in enumerate(t):
        if not isinstance(x, int) or x < 1:
            raise DomainError(f"partition parts must be positive integers: {t}")
        if i and t[i - 1] < x:
            raise DomainError(f"partition parts must be weakly decreasing: {t}")
    return t


def sort_composition(c) -> Partition:
    """Partition obtained by sorting a composition."""
    t = tuple(sorted(c, reverse=True))
    return check_partition(t)


# _partitions[n] is enumerate_partitions(n); _block_start[n][m] is the index
# of its first partition with largest part <= m (1 <= m <= n).  In reverse-lex
# order those partitions are a suffix, so each degree is built from the
# smaller ones with one tuple concatenation per partition.
_partitions = {0: ((),)}
_block_start = {0: (0,)}


def enumerate_partitions(d: int):
    """All partitions of d, in reverse lexicographic order.

    The order is fixed and documented so cached tables are stable: (d) comes
    first, (1,...,1) last.  d=0 yields the single empty partition.
    """
    if d < 0:
        raise DomainError("d must be >= 0")
    for n in range(1, d + 1):
        if n in _partitions:
            continue
        out, starts = [], [0] * (n + 1)
        for first in range(n, 0, -1):
            starts[first] = len(out)
            r = n - first
            tails = _partitions[r][_block_start[r][min(first, r)]:]
            out.extend([(first,) + tail for tail in tails])
        _block_start[n] = tuple(starts)
        _partitions[n] = tuple(out)
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
    mult = {}
    for x in mu:
        mult[x] = mult.get(x, 0) + 1
    out = 1
    for c in mult.values():
        out *= factorial(c)
    return out


def z_weight(p) -> int:
    """Order of the centralizer of a permutation of cycle type p: prod m^r_m r_m!."""
    mult = {}
    for x in p:
        mult[x] = mult.get(x, 0) + 1
    out = 1
    for m, r in mult.items():
        out *= m**r * factorial(r)
    return out


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


@cache
def stirling(kind: str, n: int, k: int) -> int:
    """Stirling numbers by their defining recurrences.

    kind "first_unsigned": [n+1,k] = n[n,k] + [n,k-1];
    kind "second":         {n+1,k} = k{n,k} + {n,k-1};
    boundary: [0,0]={0,0}=1 and [n,0]=[0,n]=0 for n>0.
    """
    if n < 0 or k < 0:
        raise DomainError("Stirling indices must be >= 0")
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0:
        return 0
    if k > n:
        return 0
    if kind == "first_unsigned":
        return (n - 1) * stirling(kind, n - 1, k) + stirling(kind, n - 1, k - 1)
    if kind == "second":
        return k * stirling(kind, n - 1, k) + stirling(kind, n - 1, k - 1)
    raise DomainError(f"unknown Stirling kind: {kind}")


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


class HurwitzSpec:
    """One triply mixed enumeration.

    Profiles are kept exactly as given (1-parts included if the caller wrote
    them); the class condition is up to 1-padding, so only their 1-free parts
    matter for the count.  k unconstrained transpositions, l weakly monotone,
    m strictly monotone; k+l+m must equal
    b = 2g'-2 - d(2g-2) + sum_i (l(mu^i) - |mu^i|).

    Frozen: equal fields give equal, equally hashed specs, and a field cannot
    be assigned after construction.
    """

    __slots__ = ("base_genus", "source_genus", "degree", "profiles", "k", "l",
                 "m", "connected", "labeled")

    def __init__(self, base_genus: int, source_genus: int, degree: int,
                 profiles: tuple = (), k: int = 0, l: int = 0, m: int = 0,
                 connected: bool = True, labeled: bool = False):
        for name, value in zip(self.__slots__, (base_genus, source_genus, degree,
                                                profiles, k, l, m, connected,
                                                labeled)):
            object.__setattr__(self, name, value)
        if min(self.base_genus, self.source_genus, self.k, self.l, self.m) < 0:
            raise DomainError("genera and k, l, m must be nonnegative")
        if self.degree < 1:
            raise DomainError("degree must be positive")
        object.__setattr__(
            self, "profiles", tuple(check_partition(p) for p in self.profiles)
        )
        for p in self.profiles:
            if sum(p) > self.degree:
                raise DomainError(f"profile {p} exceeds degree {self.degree}")
        if self.k + self.l + self.m != self.b:
            raise DomainError(
                f"k+l+m = {self.k + self.l + self.m} but b = {self.b} for this spec"
            )

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}"
                         for name, value in zip(self.__slots__, self._fields()))
        return f"HurwitzSpec({body})"

    def __reduce__(self):
        return HurwitzSpec, self._fields()

    @property
    def b(self) -> int:
        g, gp, d = self.base_genus, self.source_genus, self.degree
        corr = sum(len(p) - sum(p) for p in self.profiles)
        b = 2 * gp - 2 - d * (2 * g - 2) + corr
        if b < 0:
            raise DomainError(f"negative transposition count b = {b}")
        return b

    def padded_profiles(self):
        return tuple(pad_to(p, self.degree) for p in self.profiles)
