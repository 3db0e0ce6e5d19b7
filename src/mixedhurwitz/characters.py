"""Irreducible characters of symmetric groups and the central-character route
to triply mixed Hurwitz numbers.  Connected numbers come from the disconnected
ones by the potential log: one call of the exponential formula of series.

Every lambda column, exact and memoised in process on first read, comes from
columns of smaller degrees: chi^.(nu) from that of nu less its largest part by
rim hooks on bead words, the words and the content power sums from the tails'
columns, h and e from the power sums.  The memos only receive idempotent
inserts and the lambda-sums are plain reductions, so concurrent use is safe.
"""

from fractions import Fraction
from functools import cache
from math import comb, factorial, prod
from operator import mul

from .errors import DomainError, ResourceLimitError
from .partitions import (
    aut_count,
    block_start,
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
# Murnaghan-Nakayama characters: _char_cache[nu] is the column chi^lam(nu)
# over the partitions lam of |nu|, for each class nu (parts largest first)
# with a part above 1 that a sector has read

_char_cache = {}


def character(lam, nu) -> int:
    """Character value chi^lam(nu) for |lam| = |nu|, by the MN border-strip rule."""
    lam, nu = check_partition(lam), check_partition(nu)
    if sum(lam) != sum(nu):
        raise DomainError(f"size mismatch: |{lam}| != |{nu}|")
    return _char_column(tuple(sorted(nu, reverse=True)))[
        enumerate_partitions(sum(lam)).index(lam)]


def _char_column(nu):
    """chi^lam(nu) for every partition lam of |nu|; nu's parts largest first."""
    if not nu or nu[0] == 1:  # the identity class: the dimensions
        return _lambda_column(len(nu), "dim")
    if nu not in _char_cache:
        rest = _char_column(nu[1:])
        _char_cache[nu] = [sum(s * rest[j] for s, j in hooks)
                           for hooks in _hook_table(sum(nu), nu[0])]
    return _char_cache[nu]


@cache
def _hook_table(d, t):
    """Per lam of d, (sign, index of lam - hook in the partitions of d - t) for
    each t-rim hook: a bead moves from b to an empty b - t with sign (-1)^(beads
    passed); lam - hook fills beads 0..t-1, and word >> t is its d - t bead word."""
    index = {w: i for i, w in enumerate(_lambda_column(d - t, "word"))}
    table = []
    for w in _lambda_column(d, "word"):
        hooks, movable = [], (w & ~(w << t)) >> t << t  # b >= t with b - t empty
        while movable:
            b = movable.bit_length() - 1
            movable ^= 1 << b
            sign = -1 if (w >> b - t + 1 & (1 << t - 1) - 1).bit_count() % 2 else 1
            hooks.append((sign, index[(w ^ 1 << b ^ 1 << b - t) >> t]))
        table.append(hooks)
    return table


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
# A column holds one value per partition of d, in enumerate_partitions order,
# built on first read and kept for the process; "dim" only when a sector reads
# it (dim lam enters with power 2 - 2g - #profiles).  The weight columns of
# sector_family live only while their degree runs.

_lambda_columns = {}


def _lambda_column(d: int, key):
    """dim lam for "dim"; the bead word sum_i 2^(lam_i + d - 1 - i), i < d, for
    "word"; the power sum p_n of the contents of lam for ("power", n) (f_(2) =
    p_1 for "f2"); sym_eval(kind, n, contents of lam) for key (kind, n)."""
    key = ("power", 1) if key == "f2" else key
    col = _lambda_columns.get((d, key))
    if col is None:
        if key == "dim":
            col = [hook_dim(lam) for lam in enumerate_partitions(d)]
        elif key == "word":  # from the tails': their beads move up by first - 1
            col = [0] if d == 0 else []  # over first - 1 new ones, under the top one
            for first in range(d, 0, -1):
                r, low = d - first, (1 << (first + d - 1)) + (1 << (first - 1)) - 1
                tails = _lambda_column(r, key)[block_start(r)[min(first, r)]:]
                col.extend([w << (first - 1) | low for w in tails])
        elif key[0] == "power":  # every p_j, j <= n, from the tails' p_i, i <= j:
            n, cols = key[1], [[0] if d == 0 else [] for _ in range(key[1])]
            for first in range(d, 0, -1):  # rows 0..first-1 over the tail's less 1
                r = d - first
                _lambda_column(r, key)
                start = block_start(r)[min(first, r)]
                tails = [_lambda_columns[r, ("power", i)][start:]
                         for i in range(1, n + 1)]
                for j in range(1, n + 1):  # sum_(i <= j) C(j, i) (-1)^(j-i) p_i(tail)
                    s = sum(v ** j for v in range(first)) + (-1) ** j * r
                    new = [s + p for p in tails[j - 1]]
                    for i in range(1, j):
                        c = comb(j, i) * (-1) ** (j - i)
                        new = [x + c * p for x, p in zip(new, tails[i - 1])]
                    cols[j - 1].extend(new)
            for j, col in enumerate(cols, 1):
                _lambda_columns[(d, ("power", j))] = col
        else:  # every h_j or e_j, j <= n, from the p_j by Newton's identities
            kind, n = key
            _lambda_column(d, ("power", n))
            ps = [_lambda_columns[d, ("power", j)] for j in range(1, n + 1)]
            sign, cols = -1 if kind == "elementary" else 1, [[1] * len(ps[0])]
            for k in range(1, n + 1):  # k x_k = sum_(i <= k) sign^(i-1) x_(k-i) p_i
                cs = [sign ** i for i in range(k)]
                cols.append([sum(map(mul, cs, map(mul, x, p))) // k
                             for x, p in zip(zip(*cols[::-1]), zip(*ps[:k]))])
            for j, col in enumerate(cols[1:], 1):
                _lambda_columns[(d, (kind, j))] = col
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
        value *= prod(map(aut_count, spec.profiles))
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
    per profile tuple; times h_l e_m once per (l, m, profiles) and then f2
    once per step of k (per distinct f2 if there are two or more k), rows
    counted off f2; a sector odd under conjugating lam is 0 and not summed.
    The class sizes and the powers of d! scale each sum once.  The d = 0
    convention: 1 for the empty sector, 0 otherwise.
    """
    groups, keys = {}, [_checked_key(g, key) for key in keys]
    for k, l, m, profiles in keys:  # groups: (l, m, profiles) -> the k wanted
        # conjugating lam negates its contents and multiplies chi^lam(nu) by the
        # sign of nu: the sum is 0 where these signs multiply to -1
        if (k + l + m + sum(sum(p) - len(p) for p in profiles)) % 2 == 0:
            groups.setdefault((l, m, profiles), set()).add(k)
    check_partition_budget(dmax)
    out = {key: [Fraction(0)] * (dmax + 1) for key in keys}
    for d in range(low, dmax + 1):
        # the binomial prefactor vanishes when |nu| > d
        live = [(rest, ks) for rest, ks in groups.items()
                if all(sum(p) <= d for p in rest[2])]
        if j := max((max(l, m) for (l, m, _), _ in live), default=0):
            _lambda_column(d, ("power", j))  # every power sum p_i, i <= j, at once
        fd, f2 = factorial(d), _lambda_column(d, "f2")
        weights = {}  # by profile tuple
        for (l, m, profiles), ks in live:
            if profiles not in weights:  # prod chi^lam(nu), one column per class
                classes = [pad_to(p, d) for p in profiles if p]
                xs = ([prod(c) for c in zip(*map(_char_column, classes))] if classes
                      else [1] * len(f2))
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
            fs, k0 = f2, 0
            if len(ks) > 1:  # step k once per distinct f2, its weights summed
                sums = dict.fromkeys(f2, 0)
                for x, f in zip(xs, f2):
                    sums[f] += x
                fs, xs = list(sums), list(sums.values())
            for k in sorted(ks):
                if k > k0:
                    xs = (list(map(mul, xs, fs)) if k == k0 + 1
                          else [x * f ** (k - k0) for x, f in zip(xs, fs)])
                    k0 = k
                out[k, l, m, profiles][d] = Fraction(sum(xs) * num, den)
        weights = xs = None  # no weight column outlives its degree
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
    tops = {}  # every subkey, with the highest degree a target needs of it
    for t in targets:
        for sub in _subkeys(t[:4]):
            tops[sub] = max(t[4], tops.get(sub, 0))
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
