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
from math import comb, factorial, prod

from .errors import DomainError
from .partitions import (
    check_partition,
    class_size,
    contents,
    enumerate_partitions,
    hook_dim,
    pad_to,
    strip_ones,
    sym_eval,
)
from .symgroup import HurwitzSpec
from .series import QSeries

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

CACHE_ENV = "MIXEDHURWITZ_CACHE_DIR"


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
# A column holds one value per partition of d, in enumerate_partitions order,
# and is built once per process; sector_value only reads columns.  Profile
# characters are not copied into columns: _mn memoises them in _char_cache.

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


def hurwitz_by_characters(spec: HurwitzSpec) -> Fraction:
    """Disconnected triply mixed Hurwitz number as a sum over partitions of d."""
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
    # term(lam) = (dim/d!)^(2-2g) prod_nu (|C_nu| chi^lam(nu) / dim) f2^k h_l e_m:
    # sum the integer part times dim^(2-2g-#nu), then scale once
    columns = []
    if k:
        columns.append([f ** k for f in _lambda_column(d, "f2")])
    if l:
        columns.append(_lambda_column(d, ("complete_homogeneous", l)))
    if m:
        columns.append(_lambda_column(d, ("elementary", m)))
    classes = [pad_to(p, d) for p in profiles if p]
    dim_power = 2 - 2 * g - len(classes)
    total = 0
    dims = _lambda_column(d, "dim")
    for i, lam in enumerate(enumerate_partitions(d)):
        x = 1
        for col in columns:
            x *= col[i]
        for nu in classes:
            if not x:
                break
            x *= _mn(lam, nu)
        if x:
            total += (x * dims[i] ** dim_power if dim_power >= 0
                      else Fraction(x, dims[i] ** -dim_power))
    scale = Fraction(prod(class_size(p, d) for p in profiles if p))
    return total * scale / Fraction(factorial(d)) ** (2 - 2 * g)


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


def subsectors(sector):
    """All (k',l',m',profiles',d') componentwise inside the given sector."""
    k, l, m, profiles, d = sector
    for k1, l1, m1 in _sub_triples(k, l, m):
        for prof in _sub_profiles(profiles):
            for d1 in range(d + 1):
                yield (k1, l1, m1, prof, d1)


def _euler_sum(s, conn, disc):
    """Sum of C(k, k1) d1 conn[s1] disc[s2] over s1 + s2 = s with 1 <= d1 < d.

    With D the degree operator, D log(1 + P) = DP / (1 + P) gives, sector by
    sector, d P_s = d L_s + _euler_sum(s, L, P).  Taken in increasing degree,
    the one identity yields the log L from P and the exp P from L.
    """
    k, l, m, profiles, d = s
    total = Fraction(0)
    for k1, l1, m1 in _sub_triples(k, l, m):
        c = comb(k, k1)
        for prof1, prof2 in _profile_splits(profiles):
            rest = (k - k1, l - l1, m - m1, prof2)
            for d1 in range(1, d):
                v1 = conn[(k1, l1, m1, prof1, d1)]
                if v1 and (v2 := disc[rest + (d - d1,)]):
                    total += c * d1 * v1 * v2
    return total


def potential_log(disconnected, targets):
    """Connected sector values from disconnected ones: log(1 + P).

    disconnected maps sector -> value for every subsector of every target
    (degree-0 sectors are implied); returns {target: connected value}.
    """
    top = {}  # the subsectors of (key, d) include those of (key, d') for d' < d
    for t in targets:
        top[t[:4]] = max(t[4], top.get(t[:4], 0))
    needed = set()
    for key, d in top.items():
        needed.update(subsectors(key + (d,)))
    vals = {}
    for s in needed:
        if s[4] == 0:
            continue  # the constant term of 1+P is the 1
        if s not in disconnected:
            raise DomainError(f"missing disconnected value for sector {s}")
        vals[s] = Fraction(disconnected[s])
    conn = {}
    for s in sorted(vals, key=lambda s: s[4]):
        conn[s] = vals[s] - _euler_sum(s, conn, vals) / s[4]
    return {t: conn.get(t, Fraction(0)) for t in targets}


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
    keys = set()
    for k1, l1, m1 in _sub_triples(k, l, m):
        for prof in _sub_profiles(profiles):
            keys.add((k1, l1, m1, prof))
    family = {}
    for key in keys:
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

    Frobenius evaluation: |C_nu^(d)| * sum_lam (d!/dim lam)^(2g-1) chi^lam(nu).
    """
    if g < 1:
        raise DomainError("g must be >= 1")
    nu = check_partition(nu)
    if sum(nu) > d:
        raise DomainError("|nu| > d")
    padded = pad_to(strip_ones(nu), d)
    fact = factorial(d)
    total = Fraction(0)
    for lam in enumerate_partitions(d):
        total += Fraction(fact, hook_dim(lam)) ** (2 * g - 1) * character(lam, padded)
    total *= class_size(strip_ones(nu), d)
    if total.denominator != 1:
        raise AssertionError("commutator count must be an integer")
    return int(total)
