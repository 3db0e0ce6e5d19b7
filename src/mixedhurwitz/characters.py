"""Irreducible characters of symmetric groups and the central-character route
to triply mixed Hurwitz numbers.

All arithmetic is exact rational; no floating point anywhere.  The in-memory
character cache and the per-degree lambda columns only receive idempotent
inserts and the lambda-sums are plain reductions over independent terms, so
concurrent use is safe.
"""

import json
import os
from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm, prod
from operator import mul

from .errors import DomainError, ResourceLimitError
from .partitions import (
    check_partition,
    class_size,
    contents,
    enumerate_partitions,
    hook_dim,
    pad_to,
    partition_count,
    strip_ones,
    sym_eval,
)
from .series import QSeries
from .util import CACHE_ENV

# The largest number of partitions of one degree a lambda-sum runs over
# (p(45) = 89134 runs, p(46) = 105558 is refused); above it the character
# route raises ResourceLimitError instead of running unbounded.
PARTITION_LIMIT = 100_000

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
    if hit is None and _table_dir is not None and _load_table_once(sum(lam)):
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


def character_table(d: int):
    """Full table {(lam, nu): chi} for all partitions of d."""
    parts = enumerate_partitions(d)
    return {(lam, nu): character(lam, nu) for lam in parts for nu in parts}


# ---------------------------------------------------------------------------
# character-table disk cache (versioned JSON)


def default_cache_dir():
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(base, "mixedhurwitz")


def cache_file(d: int, cache_dir=None):
    return os.path.join(cache_dir or default_cache_dir(), f"chartable-{d}.json")


def save_character_table(d: int, cache_dir=None) -> str:
    path = cache_file(d, cache_dir)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    entries = [
        {"lambda": list(lam), "nu": list(nu), "chi": str(v)}
        for (lam, nu), v in sorted(character_table(d).items())
    ]
    doc = {"version": 1, "degree": d, "entries": entries}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def load_character_table(d: int, cache_dir=None) -> bool:
    """Populate the in-memory cache from disk; returns True when found.

    A file that does not parse as a whole raises DomainError and leaves the
    in-memory cache as it was.
    """
    path = cache_file(d, cache_dir)
    if not os.path.exists(path):
        return False
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError:  # not JSON: truncated, or not text at all
            doc = None
    if not isinstance(doc, dict) or doc.get("version") != 1 \
            or doc.get("degree") != d or not isinstance(doc.get("entries"), list):
        raise DomainError(f"unrecognized cache file {path}")
    table = {}
    for e in doc["entries"]:
        try:
            key = (check_partition(e["lambda"]),
                   check_partition(sorted(e["nu"], reverse=True)))
            table[key] = int(str(e["chi"]))  # str first: 2.5 is refused, not cut
        except (KeyError, TypeError, ValueError, DomainError):
            raise DomainError(f"unrecognized cache file {path}: "
                              f"bad entry {e!r}") from None
    _char_cache.update(table)
    return True


_table_dir = None  # where _mn looks for cached tables; set by use_cache_dir
_tables_tried = set()


def use_cache_dir(cache_dir):
    """Read cached character tables from cache_dir (None: none), each degree
    the first time a character of that degree is needed."""
    global _table_dir
    _table_dir = cache_dir
    _tables_tried.clear()


def _load_table_once(d) -> bool:
    """Load degree d's table from _table_dir unless tried before; True if it loaded."""
    if d in _tables_tried:
        return False
    _tables_tried.add(d)
    try:
        return load_character_table(d, _table_dir)
    except DomainError:  # a corrupt file is passed over; `cache clear` removes it
        return False


# ---------------------------------------------------------------------------
# central characters


def central_character_f(nu, lam) -> Fraction:
    """f_nu(lambda) = |C_nu in S_|lam|| * chi^lam(nu padded) / dim lam.

    nu must be free of 1-parts (callers canonicalize first); |nu| <= |lam|.
    """
    nu, lam = check_partition(nu), check_partition(lam)
    if any(x == 1 for x in nu):
        raise DomainError(f"nu must not contain 1-parts: {nu}")
    return central_character_extended(nu, lam)


def central_character_extended(nu, lam) -> Fraction:
    """binom(|lam|,|nu|) |C_nu| chi^lam(nu padded)/dim lam for arbitrary nu.

    For 1-free nu the prefactor equals the padded class size; with 1-parts it
    is the verbatim binomial extension (e.g. nu=(1) gives |lam|).
    """
    nu, lam = check_partition(nu), check_partition(lam)
    n, dd = sum(nu), sum(lam)
    if n > dd:
        raise DomainError(f"|nu|={n} exceeds |lam|={dd}")
    if not nu:
        return Fraction(1)
    pref = comb(dd, n) * class_size(nu, n)
    chi = character(lam, pad_to(nu, dd))
    return Fraction(pref * chi, hook_dim(lam))


# ---------------------------------------------------------------------------
# per-degree lambda data
#
# A column holds one value per partition of d, in enumerate_partitions order.
# Each is built on first read and kept for the process; "dim" is built only
# when a sector reads it (dim lam enters with power 2 - 2g - #profiles, so a
# base genus 1 sector without profiles never does).  Profile characters are
# not copied into columns: _mn memoises them in _char_cache.

_lambda_columns = {}


def _lambda_column(d: int, key):
    """dim lam for key "dim", f_(2)(lam) = the sum of the contents of lam for
    "f2", and sym_eval(kind, n, contents of lam) for key (kind, n)."""
    col = _lambda_columns.get((d, key))
    if col is None:
        lams = enumerate_partitions(d)
        if key == "dim":
            col = [hook_dim(lam) for lam in lams]
        elif key == "f2":  # row i holds the contents -i, ..., r - 1 - i
            col = [sum(r * (r - 1) // 2 - i * r for i, r in enumerate(lam))
                   for lam in lams]
        else:
            col = [sym_eval(*key, contents(lam)) for lam in lams]
        _lambda_columns[(d, key)] = col
    return col


# ---------------------------------------------------------------------------
# disconnected triply mixed numbers by the lambda-sum


def hurwitz_by_characters(spec) -> Fraction:
    """Disconnected triply mixed Hurwitz number, for a symgroup.HurwitzSpec,
    as a sum over partitions of d."""
    if spec.connected:
        raise DomainError("character formula computes the disconnected number; "
                          "use connected_series for connected ones")
    value = sector_value(
        spec.base_genus, spec.k, spec.l, spec.m,
        tuple(strip_ones(p) for p in spec.profiles), spec.degree,
    )
    if spec.labeled:
        from .partitions import aut_count

        for p in spec.profiles:
            value *= aut_count(p)
    return value


def sector_value(g: int, k: int, l: int, m: int, profiles, d: int) -> Fraction:
    """Lambda-sum for one (k,l,m,profiles,d) sector at base genus g.

    profiles must be 1-free.  The d = 0 convention: 1 for the empty sector,
    0 otherwise.
    """
    profiles = tuple(check_partition(p) for p in profiles)
    if any(1 in p for p in profiles):
        raise DomainError(f"profiles must not contain 1-parts: {profiles}")
    if d == 0:
        return Fraction(1) if (k == l == m == 0 and not any(profiles)) else Fraction(0)
    if any(sum(p) > d for p in profiles) or (k and d < 2):
        return Fraction(0)  # binomial prefactor vanishes when |nu| > d
    check_partition_budget(d)
    # term(lam) = (dim/d!)^(2-2g) prod_nu (|C_nu| chi^lam(nu) / dim) f2^k h_l e_m:
    # sum the integer part times dim^(2-2g-#nu), then scale once
    lams = enumerate_partitions(d)
    xs = [1] * len(lams)
    if k:
        xs = [f ** k for f in _lambda_column(d, "f2")]
    if l:
        xs = list(map(mul, xs, _lambda_column(d, ("complete_homogeneous", l))))
    if m:
        xs = list(map(mul, xs, _lambda_column(d, ("elementary", m))))
    classes = [pad_to(p, d) for p in profiles if p]
    for nu in classes:
        xs = [x * _mn(lam, nu) if x else 0 for x, lam in zip(xs, lams)]
    dim_power = 2 - 2 * g - len(classes)
    if dim_power:
        dims = _lambda_column(d, "dim")
    if dim_power > 0:
        total = sum(x * dim ** dim_power for x, dim in zip(xs, dims))
    elif dim_power < 0:  # dim divides d!: x / dim^n = x (d!/dim)^n / d!^n
        fd = factorial(d)
        total = Fraction(sum(x * (fd // dim) ** -dim_power
                             for x, dim in zip(xs, dims) if x), fd ** -dim_power)
    else:
        total = sum(xs)
    scale = Fraction(prod(class_size(p, d) for p in profiles if p))
    return total * scale / Fraction(factorial(d)) ** (2 - 2 * g)


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
# the potential: disconnected <-> connected bookkeeping
#
# A sector is (k, l, m, profiles, d) with profiles a tuple of 1-free
# partitions, one per profile slot.  The k transpositions carry divided-power
# grading (their positions interleave freely when components merge), the
# monotone and strict blocks merge in exactly one way, so l, m, the profile
# content and the degree are plain additive gradings.


def _sub_triples(k, l, m):
    for k1 in range(k + 1):
        for l1 in range(l + 1):
            for m1 in range(m + 1):
                yield k1, l1, m1


def _sub_multisets(parts):
    parts = tuple(parts)
    if not parts:
        yield ()
        return
    head, tail = parts[0], parts[1:]
    seen = set()
    for rest in _sub_multisets(tail):
        for take in (True, False):
            cand = tuple(sorted(((head,) if take else ()) + rest, reverse=True))
            if cand not in seen:
                seen.add(cand)
                yield cand


def _sub_profiles(profiles):
    if not profiles:
        yield ()
        return
    for first in _sub_multisets(profiles[0]):
        for rest in _sub_profiles(profiles[1:]):
            yield (first,) + rest


def _profile_diff(whole, part):
    out = []
    for w, p in zip(whole, part):
        avail = list(w)
        for x in p:
            avail.remove(x)
        out.append(tuple(sorted(avail, reverse=True)))
    return tuple(out)


@cache
def _profile_splits(profiles):
    """(part, profiles - part) for every sub-profile part of profiles."""
    return tuple((p, _profile_diff(profiles, p)) for p in _sub_profiles(profiles))


def _subkeys(key):
    """All (k', l', m', profiles') componentwise inside (k, l, m, profiles)."""
    k, l, m, profiles = key
    for k1, l1, m1 in _sub_triples(k, l, m):
        for prof in _sub_profiles(profiles):
            yield (k1, l1, m1, prof)


def subsectors(sector):
    """All (k',l',m',profiles',d') componentwise inside the given sector."""
    for key in _subkeys(sector[:4]):
        for d1 in range(sector[4] + 1):
            yield key + (d1,)


@cache
def _binomial_row(n):
    return tuple(comb(n, j) for j in range(n + 1))


def _euler_sum(s, conn, disc):
    """Sum of C(k, k1) C(d-1, d1-1) conn[s1] disc[s2] over s1 + s2 = s with
    1 <= d1 < d, for conn and disc mapping (k, l, m, profiles) to per-degree
    lists of integers.

    With D the degree operator, D log(1 + P) = DP / (1 + P) gives, sector by
    sector, d P_s = d L_s + sum C(k, k1) d1 L_s1 P_s2.  Scale each degree-d
    value by w_d = d! c^d: then w_d = C(d, d1) w_d1 w_d2, and the identity
    times w_d / d is the division-free P~_s = L~_s + _euler_sum(s, L~, P~).
    Taken in increasing degree, it yields the log L from P and the exp P
    from L (_euler_solve).
    """
    k, l, m, profiles, d = s
    row = _binomial_row(d - 1)  # row[d1 - 1] = C(d - 1, d1 - 1)
    total = 0
    for k1, l1, m1 in _sub_triples(k, l, m):
        part = 0
        for prof1, prof2 in _profile_splits(profiles):
            a = conn[(k1, l1, m1, prof1)]
            b = disc[(k - k1, l - l1, m - m1, prof2)]
            part += sum(map(mul, map(mul, row, a[1:d]), b[d - 1:0:-1]))
        total += comb(k, k1) * part
    return total


def _euler_solve(columns, tops, log):
    """The log (log=True) or the exp of a family of sector values.

    columns maps (k, l, m, profiles) to a list of exact values by degree,
    index 0 unused; tops maps each key to the highest degree to solve, and
    every subkey of a key is in both with at least its degree.  Returns the
    solved columns as integers scaled by w_d = d! c^d, c the lcm of all
    input denominators, together with the list w.
    """
    dmax = max(tops.values(), default=0)
    c = lcm(*(v.denominator for col in columns.values() for v in col))
    w = [1]
    for d in range(1, dmax + 1):
        w.append(w[-1] * d * c)
    given = {key: [v.numerator * (wd // v.denominator) for v, wd in zip(col, w)]
             for key, col in columns.items()}
    out = {key: [0] * (dmax + 1) for key in columns}
    conn, disc = (out, given) if log else (given, out)
    sign = -1 if log else 1
    for d in range(1, dmax + 1):
        for key, top in tops.items():
            if d <= top:
                out[key][d] = given[key][d] + sign * _euler_sum(key + (d,), conn, disc)
    return out, w


def potential_log(disconnected, targets):
    """Connected sector values from disconnected ones: log(1 + P).

    disconnected maps sector -> value for every subsector of every target
    (degree-0 sectors are implied); returns {target: connected value}.  The
    log runs on integers, each degree-d value scaled by w_d = d! c^d with c
    the lcm of the input denominators, and each target is divided back once.
    """
    top = {}  # the subsectors of (key, d) include those of (key, d') for d' < d
    for t in targets:
        top[t[:4]] = max(t[4], top.get(t[:4], 0))
    tops = {}  # every subkey, with the highest degree a target needs of it
    for key, d in top.items():
        for sub in _subkeys(key):
            tops[sub] = max(d, tops.get(sub, 0))
    dmax = max(tops.values(), default=0)
    columns = {}
    for key, top in tops.items():
        col = columns[key] = [0] * (dmax + 1)  # the constant term of 1+P is the 1
        for d in range(1, top + 1):
            s = key + (d,)
            if s not in disconnected:
                raise DomainError(f"missing disconnected value for sector {s}")
            col[d] = Fraction(disconnected[s])
    conn, w = _euler_solve(columns, tops, log=True)
    return {t: Fraction(conn[t[:4]][t[4]], w[t[4]]) for t in targets}


def connected_series(family):
    """Connected q-series from a family of disconnected ones.

    family maps (k, l, m, profiles) -> QSeries in q (coefficient of q^d = the
    disconnected number of degree d).  Profiles are tuples of 1-free
    partitions.  The returned map has the same keys with connected series.
    Raises DomainError when a needed subsector key/degree is missing.
    """
    family = {
        (k, l, m, tuple(tuple(p) for p in profiles)): series
        for (k, l, m, profiles), series in family.items()
    }
    if not family:
        return {}
    qmax = min(s.high for s in family.values())
    targets = [key + (d,) for key in family for d in range(qmax + 1)]
    disconnected = {key + (d,): series.coefficient(d)
                    for key, series in family.items() for d in range(1, qmax + 1)}
    conn = potential_log(disconnected, targets)
    out = {}
    for (k, l, m, profiles), series in family.items():
        coeffs = [conn[(k, l, m, profiles, d)] for d in range(qmax + 1)]
        out[(k, l, m, profiles)] = QSeries(coeffs, 0, series.var)
    return out


def connected_hurwitz_qseries(g: int, k: int, l: int, m: int, profiles, qmax: int,
                              connected: bool = True) -> QSeries:
    """Generating series over the degree for fixed (k,l,m,profiles), base genus g.

    Computes every needed disconnected subsector by the character formula and
    takes the potential log when connected=True.
    """
    profiles = tuple(tuple(strip_ones(check_partition(p))) for p in profiles)
    check_partition_budget(qmax)
    family = {}
    for key in set(_subkeys((k, l, m, profiles))):
        k1, l1, m1, prof = key
        coeffs = [sector_value(g, k1, l1, m1, prof, d) for d in range(qmax + 1)]
        family[key] = QSeries(coeffs, 0, "q")
    if not connected:
        return family[(k, l, m, profiles)]
    return connected_series(family)[(k, l, m, profiles)]


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
