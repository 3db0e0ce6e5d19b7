"""Irreducible characters of symmetric groups and the central-character route
to triply mixed Hurwitz numbers.  Connected numbers come from the disconnected
ones by the potential log: one call of the exponential formula of series,
exact sector columns in and exact connected columns out.

All arithmetic is exact rational; no floating point anywhere.  A character
is computed only when a sector reads it and memoised in process; nothing is
read from disk.  The character memo and the per-degree lambda columns only
receive idempotent inserts and the lambda-sums are plain reductions over
independent terms, so concurrent use is safe.
"""

from fractions import Fraction
from functools import cache
from math import factorial, prod
from operator import mul

from .errors import DomainError, ResourceLimitError
from .partitions import (
    _block_start,
    aut_count,
    check_partition,
    class_size,
    enumerate_partitions,
    hook_dim,
    pad_to,
    partition_count,
    strip_ones,
)
from .series import QSeries, _euler_solve, _subkeys

# The largest number of partitions of one degree a lambda-sum runs over
# (p(45) = 89134 runs, p(46) = 105558 is refused); above it the character
# route raises ResourceLimitError instead of running unbounded.
PARTITION_LIMIT = 100_000
# The largest base genus and k + l + m it takes: the integers (d!/dim)^(2g-2)
# f2^k h_l e_m and the subsectors a potential log solves grow with them.
SECTOR_LIMIT = 60

# ---------------------------------------------------------------------------
# Murnaghan-Nakayama characters

_char_cache = {}


def character(lam, nu) -> int:
    """Character value chi^lam(nu) for |lam| = |nu|, by the MN border-strip rule."""
    lam, nu = check_partition(lam), check_partition(nu)
    if sum(lam) != sum(nu):
        raise DomainError(f"size mismatch: |{lam}| != |{nu}|")
    return _mn(lam, tuple(sorted(nu, reverse=True)))


def _mn(lam, nu) -> int:
    if not nu:
        return 1
    if nu[0] == 1:
        # remaining class is the identity: character value is the dimension
        return hook_dim(lam)
    key = (lam, nu)
    hit = _char_cache.get(key)
    if hit is not None:
        return hit
    t = nu[0]
    rest = nu[1:]
    total = 0
    # beta-set formulation: border strips of size t <-> b in B with b-t not in B
    ell = len(lam)
    beta = [lam[i] + ell - 1 - i for i in range(ell)]
    bset = set(beta)
    for idx, b in enumerate(beta):
        nb = b - t
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((bset - {b}) | {nb}, reverse=True)
        new_lam = tuple(x - (len(new_beta) - 1 - i) for i, x in enumerate(new_beta))
        new_lam = tuple(x for x in new_lam if x > 0)
        sign = -1 if height % 2 else 1
        total += sign * _mn(new_lam, rest)
    _char_cache[key] = total
    return total


# ---------------------------------------------------------------------------
# central characters


def central_character_f(nu, lam) -> Fraction:
    """f_nu(lambda) = |C_nu in S_|lam|| * chi^lam(nu padded) / dim lam.

    nu must be free of 1-parts (callers canonicalize first); |nu| <= |lam|.
    """
    nu, lam = check_partition(nu), check_partition(lam)
    if any(x == 1 for x in nu):
        raise DomainError(f"nu must not contain 1-parts: {nu}")
    d = sum(lam)
    return Fraction(class_size(nu, d) * character(lam, pad_to(nu, d)), hook_dim(lam))


# ---------------------------------------------------------------------------
# per-degree lambda data
#
# A column holds one value per partition of d, in enumerate_partitions order.
# Each is built on first read and kept for the process; "dim" is built only
# when a sector reads it (dim lam enters with power 2 - 2g - #profiles, so a
# base genus 1 sector without profiles never does).  The chi^lam(nu) columns
# and the weight and product columns of sector_family live only while their
# degree runs.

_lambda_columns = {}


def _lambda_column(d: int, key):
    """dim lam for key "dim", f_(2)(lam) = the sum of the contents of lam for
    "f2", and sym_eval(kind, n, contents of lam) for key (kind, n)."""
    col = _lambda_columns.get((d, key))
    if col is None:
        lams = enumerate_partitions(d)
        if key == "dim":
            col = [hook_dim(lam) for lam in lams]
        elif key == "f2":  # f2((first,) + tail) = C(first, 2) + f2(tail) - |tail|
            col = [0] if d == 0 else []
            for first in range(d, 0, -1):
                r = d - first
                tails = _lambda_column(r, "f2")[_block_start[r][min(first, r)]:]
                col.extend([f + first * (first - 1) // 2 - r for f in tails])
        else:  # every h_j and e_j, j <= n, from one walk over the contents
            n, rows = key[1], []
            for lam in lams:
                h, e = [1] + [0] * n, [1] + [0] * n
                for i, r in enumerate(lam):
                    for v in range(-i, r - i):
                        if v:
                            for j in range(n, 0, -1):
                                e[j] += v * e[j - 1]
                            for j in range(1, n + 1):
                                h[j] += v * h[j - 1]
                rows.append(h[1:] + e[1:])
            for j, col in enumerate(zip(*rows)):
                kind = "elementary" if j >= n else "complete_homogeneous"
                _lambda_columns[(d, (kind, j % n + 1))] = list(col)
            return _lambda_columns[(d, key)]
        _lambda_columns[(d, key)] = col
    return col


# ---------------------------------------------------------------------------
# disconnected triply mixed numbers by the lambda-sum


def hurwitz_by_characters(spec) -> Fraction:
    """Disconnected triply mixed Hurwitz number, for a partitions.HurwitzSpec,
    as a sum over partitions of d."""
    if spec.connected:
        raise DomainError("character formula computes the disconnected number; "
                          "use connected_series for connected ones")
    value = sector_value(spec.base_genus, spec.k, spec.l, spec.m,
                         tuple(strip_ones(p) for p in spec.profiles), spec.degree)
    if spec.labeled:
        for p in spec.profiles:
            value *= aut_count(p)
    return value


def sector_value(g: int, k: int, l: int, m: int, profiles, d: int) -> Fraction:
    """Lambda-sum for one (k,l,m,profiles,d) sector at base genus g: a family of one."""
    (col,) = sector_family(g, [(k, l, m, profiles)], d, low=d).values()
    return col[d]


def _checked_key(g, key):
    """key with partition profiles; refuses a negative genus or count, a
    profile with 1-parts, and a genus or k + l + m above SECTOR_LIMIT."""
    k, l, m, profiles = key
    profiles = tuple(check_partition(p) for p in profiles)
    if min(g, k, l, m) < 0 or any(1 in p for p in profiles):
        raise DomainError(f"sector {(k, l, m, profiles)} at base genus {g}: genus "
                          "and counts must be >= 0 and profiles free of 1-parts")
    if max(g, k + l + m) > SECTOR_LIMIT:
        raise ResourceLimitError(f"base genus {g} or k+l+m = {k + l + m} is above "
                                 f"the character route's limit {SECTOR_LIMIT}")
    return k, l, m, profiles


def sector_family(g: int, keys, dmax: int, low: int = 0):
    """Lambda-sums at base genus g: {key: [value at degree d, d <= dmax]} for
    each key (k, l, m, profiles), profiles 1-free; degrees below low stay 0.

    term(lam) = (dim/d!)^(2-2g) prod_nu (|C_nu| chi^lam(nu) / dim) f2^k h_l e_m.
    Per degree: one integer weight column prod_nu chi^lam(nu) dim^(2-2g-#nu)
    per profile tuple, whose character products share their prefixes; times
    h_l e_m once per (l, m, profiles) and then f2 once per step of k.  The
    class sizes and the powers of d! scale each sum once.  The d = 0
    convention: 1 for the empty sector, 0 otherwise.
    """
    groups = {}  # (l, m, profiles) -> the k wanted with them
    for k, *rest in (_checked_key(g, key) for key in keys):
        groups.setdefault(tuple(rest), set()).add(k)
    check_partition_budget(dmax)
    out = {(k, *rest): [Fraction(0)] * (dmax + 1) for rest, ks in groups.items()
           for k in ks}
    for d in range(low, dmax + 1):
        # the binomial prefactor vanishes when |nu| > d
        live = [(rest, ks) for rest, ks in groups.items()
                if all(sum(p) <= d for p in rest[2])]
        if j := max((max(l, m) for (l, m, _), _ in live), default=0):
            _lambda_column(d, ("elementary", j))  # one walk: every h_i, e_i, i <= j
        lams, fd, f2 = enumerate_partitions(d), factorial(d), _lambda_column(d, "f2")
        chis, weights = {}, {}  # by class prefix; by profile tuple
        for (l, m, profiles), ks in live:
            if profiles not in weights:
                xs, classes = [1] * len(lams), ()
                # prod chi^lam(nu) over a prefix of the classes, largest first:
                # a class after it is read only where the prefix is nonzero
                for nu in sorted((pad_to(p, d) for p in profiles if p), reverse=True):
                    classes += (nu,)
                    if classes not in chis:
                        chis[classes] = [x and x * _mn(lam, nu)
                                         for x, lam in zip(xs, lams)]
                    xs = chis[classes]
                n = 2 - 2 * g - len(classes)  # the power of dim
                if n:  # for n < 0, dim divides d!: x dim^n = x (d!/dim)^-n / d!^-n
                    xs = [x and x * (dim ** n if n > 0 else (fd // dim) ** -n)
                          for x, dim in zip(xs, _lambda_column(d, "dim"))]
                e = 2 * g - 2 + min(n, 0)  # the power of d! the sum is scaled by
                scale = prod(class_size(p, d) for p in profiles if p)
                weights[profiles] = xs, scale * fd ** max(e, 0), fd ** max(-e, 0)
            xs, num, den = weights[profiles]
            for kind, j in (("complete_homogeneous", l), ("elementary", m)):
                if j:
                    xs = list(map(mul, xs, _lambda_column(d, (kind, j))))
            k0 = 0
            for k in sorted(ks):
                if k > k0:
                    xs = (list(map(mul, xs, f2)) if k == k0 + 1
                          else [x * f ** (k - k0) for x, f in zip(xs, f2)])
                    k0 = k
                out[k, l, m, profiles][d] = Fraction(sum(xs) * num, den)
        chis = weights = xs = None  # no column outlives its degree
    return out


def check_partition_budget(d: int):
    """Refuse a lambda-sum over more than PARTITION_LIMIT partitions of d."""
    if d >= _first_degree_over(PARTITION_LIMIT):
        raise ResourceLimitError(f"degree {d} has more than {PARTITION_LIMIT} "
                                 "partitions, the character route's limit")


@cache
def _first_degree_over(limit):
    """The least n with p(n) > limit; p increases, so it bounds every degree."""
    n = 0
    while partition_count(n) <= limit:
        n += 1
    return n


# ---------------------------------------------------------------------------
# connected sector values: the potential log of the disconnected ones


def potential_log(disconnected, targets):
    """Connected sector values from disconnected ones: log(1 + P).

    disconnected maps sector -> value for every subsector of every target
    (degree-0 sectors are implied); returns {target: connected value}.
    """
    top = {}  # the subsectors of (key, d) include those of (key, d') for d' < d
    for t in targets:
        top[t[:4]] = max(t[4], top.get(t[:4], 0))
    tops = {}  # every subkey, with the highest degree a target needs of it
    for key, d in top.items():
        for sub in _subkeys(key):
            tops[sub] = max(d, tops.get(sub, 0))
    columns = {}
    for key, top in tops.items():
        col = columns[key] = [0]  # the constant term of 1+P is the 1
        for d in range(1, top + 1):
            s = key + (d,)
            if s not in disconnected:
                raise DomainError(f"missing disconnected value for sector {s}")
            col.append(Fraction(disconnected[s]))
    conn = _euler_solve(columns, log=True)
    return {t: conn[t[:4]][t[4]] for t in targets}


def connected_series(family):
    """Connected q-series from a family of disconnected ones.

    family maps (k, l, m, profiles) -> QSeries in q (coefficient of q^d = the
    disconnected number of degree d), profiles tuples of 1-free partitions;
    returns the same keys with connected series up to the lowest high end.
    Raises DomainError when a subkey of a key is missing.
    """
    family = {(k, l, m, tuple(map(tuple, profiles))): series
              for (k, l, m, profiles), series in family.items()}
    qmax = min((series.high for series in family.values()), default=0)
    conn = _euler_solve({key: series.coefficients(0, qmax)
                         for key, series in family.items()}, log=True)
    return {key: QSeries(col) for key, col in conn.items()}


def connected_hurwitz_qseries(g: int, k: int, l: int, m: int, profiles, qmax: int,
                              connected: bool = True) -> QSeries:
    """Generating series over the degree for fixed (k,l,m,profiles), base genus g.

    connected=False sums the sector itself by the character formula; the
    connected series takes the potential log of every subsector's.
    """
    check_partition_budget(qmax)
    top = _checked_key(g, (k, l, m, [strip_ones(check_partition(p)) for p in profiles]))
    family = sector_family(g, _subkeys(top) if connected else [top], qmax)
    return QSeries(_euler_solve(family, log=True)[top] if connected else family[top])


# ---------------------------------------------------------------------------
# commutator counts by characters


def commutator_count_by_characters(g: int, nu, d: int) -> int:
    """A_g(nu): 2g-tuples whose commutator product has padded cycle type nu.

    Frobenius evaluation: |C_nu^(d)| * sum_lam (d!/dim lam)^(2g-1) chi^lam(nu),
    which is d! times the lambda-sum of the base-genus-g sector with profile nu.
    """
    if g < 1:
        raise DomainError("g must be >= 1")
    nu = check_partition(nu)
    if sum(nu) > d:
        raise DomainError("|nu| > d")
    total = factorial(d) * sector_value(g, 0, 0, 0, (strip_ones(nu),), d)
    if total.denominator != 1:
        raise AssertionError("commutator count must be an integer")
    return int(total)
