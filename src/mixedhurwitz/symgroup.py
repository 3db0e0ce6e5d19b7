"""Brute-force ground truth over symmetric groups.

Permutations are one-line tuples on 0..d-1.  Composition convention everywhere:
(s*t)(x) = s(t(x)), i.e. in a written product the rightmost factor acts first.
A product written sigma_1 ... sigma_n tau_1 ... tau_b is therefore evaluated by
left-folding compose().

Transpositions are pairs (s, t) with s < t; monotonicity is always on t.
Exponential in d; intended for d <= ~6 and guarded by an explicit limit.

Every oracle runs on one engine, _walk: aggregated states (permutation,
last t, orbit labels) advanced through blocks of free, weakly monotone and
strictly monotone transpositions, one right multiplication per step.  Orbits
are label tuples (each point labelled by the least point of its orbit).
"""

from fractions import Fraction
from functools import cache
from itertools import permutations as iter_permutations
from math import factorial

from .errors import DomainError, ResourceLimitError
from .partitions import (
    HurwitzSpec,
    aut_count,
    check_partition,
    class_size,
    pad_to,
    sort_composition,
    strip_ones,
)
from .util import DEFAULT_ORACLE_LIMIT


# ---------------------------------------------------------------------------
# permutation primitives


def identity(d: int):
    return tuple(range(d))


def compose(a, b):
    """(a*b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


def inverse(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def cycle_type(p):
    """Full cycle type (with 1-parts), weakly decreasing."""
    seen = [False] * len(p)
    lens = []
    for i in range(len(p)):
        if seen[i]:
            continue
        n, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            n += 1
        lens.append(n)
    return tuple(sorted(lens, reverse=True))


def transposition(d: int, s: int, t: int):
    p = list(range(d))
    p[s], p[t] = t, s
    return tuple(p)


@cache
def all_transpositions(d: int):
    """All (s, t, perm) with s < t."""
    return tuple(
        (s, t, transposition(d, s, t)) for t in range(1, d) for s in range(t)
    )


@cache
def all_perms(d: int):
    return tuple(iter_permutations(range(d)))


@cache
def perms_of_type(d: int, padded_type):
    return tuple(p for p in all_perms(d) if cycle_type(p) == padded_type)


def canonical_of_type(nu, d: int):
    """The block permutation (0..nu_1-1)(nu_1..nu_1+nu_2-1)... padded to d.

    Cycle k occupies consecutive points and maps x -> x+1 cyclically inside
    its block; cycle labels are positional (k-th block has length nu_k).
    """
    nu = tuple(nu)
    if sum(nu) > d:
        raise DomainError("partition too large for degree")
    full = pad_to(nu, d)
    p = list(range(d))
    start = 0
    for part in full:
        for i in range(part):
            p[start + i] = start + (i + 1) % part
        start += part
    return tuple(p)


# ---------------------------------------------------------------------------
# orbit bookkeeping


def _merge(lab, x, y):
    """Join the orbits of x and y in a label tuple."""
    a, b = lab[x], lab[y]
    if a == b:
        return lab
    if a > b:
        a, b = b, a
    return tuple(a if v == b else v for v in lab)


def orbit_labels(d: int, gens=()):
    """Orbits of the group generated by gens, in canonical form.

    Each point is labelled by the least point of its orbit, so the group is
    transitive iff every label is 0.  A generator is any map x -> g[x] whose
    orbits are joined: a permutation, or a label tuple itself, which makes
    orbit_labels(d, (a, b)) the join of two orbit partitions.
    """
    lab = tuple(range(d))
    for g in gens:
        for x in range(d):
            lab = _merge(lab, x, g[x])
    return lab


@cache
def _labels_of(p):
    """The cycles of the permutation p as a label tuple."""
    return orbit_labels(len(p), (p,))


@cache
def _join(a, b):
    """The join of two label tuples; at most B(d)^2 pairs (52^2 at d = 5)."""
    return orbit_labels(len(a), (a, b))


# ---------------------------------------------------------------------------
# commutator tables

_pair_tables = {}


def commutator_pair_table(d: int):
    """Aggregate (alpha, beta) in S_d^2 by (commutator, orbit labels of <alpha,beta>).

    Returns {kappa: {orbit_labels: count}} with kappa = [alpha,beta].
    """
    if d in _pair_tables:
        return _pair_tables[d]
    table = {}
    perms = all_perms(d)
    inv = {a: inverse(a) for a in perms}
    for a in perms:
        a_inv, a_lab = inv[a], _labels_of(a)
        # <a,b> by the cycles of b; local to a, as the (d!)^2 pairs would
        # fill the module-wide _join cache with B(d)^2 entries
        joins = {}
        for b in perms:
            # [a,b] = a b a^-1 b^-1, read right to left as index lookups
            ab = tuple(map(a.__getitem__, b))
            kappa = tuple(map(ab.__getitem__, map(a_inv.__getitem__, inv[b])))
            b_lab = _labels_of(b)
            orb = joins.get(b_lab)
            if orb is None:
                orb = joins[b_lab] = orbit_labels(d, (a_lab, b_lab))
            by_orbit = table.setdefault(kappa, {})
            by_orbit[orb] = by_orbit.get(orb, 0) + 1
    _pair_tables[d] = table
    return table


def commutator_tuple_table(d: int, g: int):
    """Same aggregation for products [a_1,b_1]...[a_g,b_g] of g commutators."""
    if g < 1:
        raise DomainError("g must be >= 1")
    table = commutator_pair_table(d)
    if g == 1:
        return table
    prev = commutator_tuple_table(d, g - 1)
    out = {}
    for k1, orbs1 in prev.items():
        for k2, orbs2 in table.items():
            kappa = compose(k1, k2)
            dest = out.setdefault(kappa, {})
            for p1, c1 in orbs1.items():
                for p2, c2 in orbs2.items():
                    joined = _join(p1, p2)
                    dest[joined] = dest.get(joined, 0) + c1 * c2
    return out


class FactorizationTuple:
    """One explicit witness tuple for a HurwitzSpec.

    sigmas: the profile permutations; taus: the b transpositions as (s, t)
    pairs with s < t; alphas/betas: the g handle permutations.  validate()
    checks the product relation and the monotone blocks.
    """

    __slots__ = ("spec", "sigmas", "taus", "alphas", "betas")

    def __init__(self, spec: HurwitzSpec, sigmas: tuple, taus: tuple,
                 alphas: tuple = (), betas: tuple = ()):
        self.spec, self.sigmas, self.taus = spec, sigmas, taus
        self.alphas, self.betas = alphas, betas

    def validate(self) -> bool:
        d = self.spec.degree
        if len(self.sigmas) != len(self.spec.profiles):
            raise DomainError("wrong number of profile permutations")
        if len(self.taus) != self.spec.b:
            raise DomainError("wrong number of transpositions")
        g = self.spec.base_genus
        if len(self.alphas) != g or len(self.betas) != g:
            raise DomainError("wrong number of handle permutations")
        for sig, prof in zip(self.sigmas, self.spec.padded_profiles()):
            if cycle_type(sig) != prof:
                raise DomainError(f"permutation has type {cycle_type(sig)}, "
                                  f"profile wants {prof}")
        lhs = identity(d)
        for sig in self.sigmas:
            lhs = compose(lhs, sig)
        for (s, t) in self.taus:
            if not 0 <= s < t < d:
                raise DomainError(f"bad transposition ({s}, {t})")
            lhs = compose(lhs, transposition(d, s, t))
        rhs = identity(d)
        for a, bb in zip(self.alphas, self.betas):
            rhs = compose(rhs, compose(compose(a, bb),
                                       compose(inverse(a), inverse(bb))))
        if lhs != rhs:
            raise DomainError("product relation fails")
        k, l, m = self.spec.k, self.spec.l, self.spec.m
        ts = [t for (_, t) in self.taus]
        for i in range(k, k + l - 1):
            if ts[i] > ts[i + 1]:
                raise DomainError("weakly monotone block violated")
        for i in range(k + l, k + l + m - 1):
            if ts[i] >= ts[i + 1]:
                raise DomainError("strictly monotone block violated")
        if self.spec.connected:
            gens = self.sigmas + tuple(
                transposition(d, s, t) for (s, t) in self.taus
            ) + self.alphas + self.betas
            if any(orbit_labels(d, gens)):
                raise DomainError("tuple is not transitive")
        return True


def source_genus_for(base_genus: int, degree: int, profiles, b: int) -> int:
    """Source genus implied by b transpositions; errors if not a nonneg integer."""
    corr = sum(len(check_partition(p)) - sum(p) for p in profiles)
    num = b + degree * (2 * base_genus - 2) - corr + 2
    if num % 2 != 0 or num < 0:
        raise DomainError(
            f"no valid source genus for b={b}, degree={degree}, profiles={profiles}"
        )
    return num // 2


# ---------------------------------------------------------------------------
# the transposition-walk engine

FREE, WEAK, STRICT = "free", "weak", "strict"


def _tally(items):
    """Sum the counts of (key, count) pairs that share a key."""
    out = {}
    for key, c in items:
        out[key] = out.get(key, 0) + c
    return out


def _walk(d: int, states, blocks):
    """Advance aggregated walk states through blocks of transpositions.

    states maps (perm, last t, orbit labels) to a count, with labels None
    when orbits are not tracked; blocks is a sequence of (length, mode), mode
    FREE, WEAK or STRICT.  A step right-multiplies by a transposition (s, t):
    it swaps the entries at s and t and joins the orbits of s and t.  A weak
    step needs t >= last t and a strict one t > last t; the condition
    restarts at each block, and a free block keeps last t at 0.
    """
    pairs = [(s, t) for t in range(1, d) for s in range(t)]  # ordered by t
    for length, mode in blocks:
        states = _tally(((p, 0, lab), c) for (p, _, lab), c in states.items())
        for _ in range(length):
            nxt = {}
            for (p, last, lab), c in states.items():
                lo = last + (mode == STRICT)
                # the pairs with t >= lo are a suffix of pairs
                for s, t in pairs[lo * (lo - 1) // 2:]:
                    q = list(p)
                    q[s], q[t] = p[t], p[s]
                    key = (tuple(q), 0 if mode == FREE else t,
                           None if lab is None else _merge(lab, s, t))
                    nxt[key] = nxt.get(key, 0) + c
            states = nxt
    return states


def count_triply_mixed(spec: HurwitzSpec, oracle_limit: int = DEFAULT_ORACLE_LIMIT):
    """Exact (1/d!) * number of triply mixed factorizations of the given type.

    Transitivity is enforced iff spec.connected; the labeled variant multiplies
    by Aut of the profiles as given.  Every call re-enumerates its walk: no
    Hurwitz count and no character value is cached.  The memos hold only
    permutation and set-partition combinatorics: inverses, cycle labels,
    label joins and the commutator table of each degree.  The profiles run
    over their full conjugacy classes: no symmetry is used, so this stays an
    independent check of the specialized enumerators below.
    """
    if spec.degree > oracle_limit:
        raise ResourceLimitError(
            f"degree {spec.degree} above oracle limit {oracle_limit}"
        )
    d = spec.degree
    g = spec.base_genus
    ident = identity(d)
    states = {(ident, 0, orbit_labels(d) if spec.connected else None): 1}
    for prof in spec.padded_profiles():
        states = _tally(
            ((compose(p, s), 0, None if lab is None else _join(lab, _labels_of(s))), c)
            for (p, _, lab), c in states.items()
            for s in perms_of_type(d, prof)
        )
    states = _walk(d, states, ((spec.k, FREE), (spec.l, WEAK), (spec.m, STRICT)))
    # aggregate by (product, orbits) so the commutator joins run once per pair
    leaves = _tally(((p, lab), c) for (p, _, lab), c in states.items())

    total = 0
    if g == 0:
        total = sum(c for (p, lab), c in leaves.items()
                    if p == ident and not (spec.connected and any(lab)))
    else:
        comm_table = commutator_tuple_table(d, g)
        for (prod, q), mult in leaves.items():
            by_orbit = comm_table.get(prod, {})
            total += mult * sum(
                c for p, c in by_orbit.items()
                if not (spec.connected and any(_join(q, p)))
            )

    if spec.labeled:
        for p in spec.profiles:
            total *= aut_count(p)
    return Fraction(total, factorial(d))


# ---------------------------------------------------------------------------
# specialized counts (cross-checks of count_triply_mixed and the other routes)


def classical_hurwitz_count(
    base_genus, source_genus, d, profiles, connected=True, limit=DEFAULT_ORACLE_LIMIT
):
    """Classical Hurwitz numbers (no transposition blocks beyond the profiles)."""
    spec = HurwitzSpec(
        base_genus, source_genus, d, tuple(profiles), 0, 0, 0, connected
    )
    if spec.b != 0:
        raise DomainError("classical count here means zero extra transpositions")
    return count_triply_mixed(spec, limit)


def monotone_double_count(source_genus, mu, nu, strict, connected=True,
                          limit=DEFAULT_ORACLE_LIMIT):
    """(Strictly) monotone double Hurwitz number, enumerated directly.

    Counts (1/d!) * tuples (sigma_1, sigma_2, tau_1..tau_b) with
    sigma_1 sigma_2 tau_1...tau_b = id, class conditions up to 1-padding and
    the (strictly) monotone condition on the tau block.  sigma_1 is fixed to
    the canonical permutation of type mu and the count multiplied by |C_mu|:
    the sums of (strictly) monotone products are the central h_b and e_b of
    the Jucys-Murphy elements, so the count is the same for every sigma_1 in
    the class (conjugation invariance, no characters).
    """
    mu, nu = sort_composition(mu), sort_composition(nu)
    if sum(mu) != sum(nu):
        raise DomainError("|mu| must equal |nu|")
    d = sum(mu)
    if d > limit:
        raise ResourceLimitError(f"degree {d} above oracle limit {limit}")
    b = 2 * source_genus - 2 + len(mu) + len(nu)
    if b < 0:
        return Fraction(0)
    ident = identity(d)
    s1 = canonical_of_type(mu, d)
    states = _tally(
        ((compose(s1, s2), 0, orbit_labels(d, (s1, s2)) if connected else None), 1)
        for s2 in perms_of_type(d, pad_to(nu, d))
    )
    ends = _walk(d, states, ((b, STRICT if strict else WEAK),))
    total = sum(c for (p, _, lab), c in ends.items()
                if p == ident and not (connected and any(lab)))
    return Fraction(total * class_size(mu, d), factorial(d))


# ---------------------------------------------------------------------------
# monotone factorizations of a fixed target (cut-and-join side)


def count_monotone_of_fixed_target(mu, b: int, strict: bool = False,
                                   limit: int = DEFAULT_ORACLE_LIMIT) -> int:
    """Monotone (or strictly monotone) transposition sequences with product a
    fixed permutation of full cycle type mu, transitive together with it.

    mu contains all its parts (1-parts included); the fixed permutation is the
    canonical block permutation, whose cycle labels are positional.
    """
    mu = check_partition(mu)
    d = sum(mu)
    if d < 1:
        raise DomainError("mu must be nonempty")
    if d > limit:
        raise ResourceLimitError(f"degree {d} above oracle limit {limit}")
    n = len(mu)
    # b = 2g-2+n+|mu| for some integer g >= 0
    g2 = b - (n + d - 2)
    if b < 0 or g2 < 0 or g2 % 2 != 0:
        raise DomainError(f"b={b} infeasible for mu={mu}")
    target = canonical_of_type(mu, d)
    # the walk starts at the identity with the target's orbits already joined
    states = {(identity(d), 0, orbit_labels(d, (target,))): 1}
    ends = _walk(d, states, ((b, STRICT if strict else WEAK),))
    return sum(c for (p, _, lab), c in ends.items()
               if p == target and not any(lab))


# ---------------------------------------------------------------------------
# refined N numbers (direct count per the tuple conditions)


def oracle_N(variant: str, g: int, mu, nu, l: int, i: int,
             limit: int = DEFAULT_ORACLE_LIMIT) -> int:
    """Direct count of refined monotone/strict tuples.

    Counts tuples (sigma_1 = canonical of type nu, tau_1..tau_b, sigma_2) with
    tau_b...tau_1 sigma_1 = sigma_2, exact cycle types nu and mu, joint
    transitivity, the (strictly) monotone condition, t_b = offset+l in the
    last nu-block, labeled cycles on sigma_2 with the cycle containing t_b
    labeled i.  b = 2g-2+len(mu)+len(nu); for b=0 the count is 1 exactly when
    mu = nu is a single cycle, at the slot (l = last part, i = 1).
    """
    mu, nu = check_partition(mu), check_partition(nu)
    if sum(mu) != sum(nu):
        raise DomainError("|mu| must equal |nu|")
    if variant not in ("monotone", "strict"):
        raise DomainError(f"unknown variant {variant}")
    d = sum(nu)
    if not (1 <= i <= len(mu)):
        raise DomainError(f"index i={i} out of range for mu={mu}")
    if not (1 <= l <= nu[-1]):
        raise DomainError(f"counter l={l} out of range for nu={nu}")
    b = 2 * g - 2 + len(mu) + len(nu)
    if g < 0 or b < 0:
        raise DomainError("infeasible genus")
    dist, rest = mu[i - 1], mu[: i - 1] + mu[i:]
    if b == 0:
        return int(mu == nu and len(nu) == 1 and l == nu[-1])
    if b >= 2 and d > limit:
        raise ResourceLimitError(f"degree {d} above oracle limit {limit}")
    sigma1 = canonical_of_type(nu, d)
    t_last = d - nu[-1] + (l - 1)  # 0-based point
    # tau_b...tau_1 sigma_1 = sigma_2 iff sigma_1^-1 tau_1...tau_b = sigma_2^-1,
    # so walk from sigma_1^-1; sigma_2^-1 has the cycles of sigma_2
    states = {(inverse(sigma1), 0, orbit_labels(d, (sigma1,))): 1}
    ends = _walk(d, states, ((b, STRICT if variant == "strict" else WEAK),))
    total = sum(c for (p, last, lab), c in ends.items()
                if last == t_last and not any(lab)
                and cycle_type(p) == mu
                # the cycle containing t_b carries the distinguished label
                and _cycle_len_through(p, t_last) == dist)
    return total * aut_count(rest)


def _cycle_len_through(p, x):
    n, j = 0, x
    while True:
        j = p[j]
        n += 1
        if j == x:
            return n


def oracle_N_aggregate(variant, g, mu, nu, limit=DEFAULT_ORACLE_LIMIT):
    """Sum of oracle_N over all slots (l, i)."""
    mu, nu = check_partition(mu), check_partition(nu)
    total = 0
    for i in range(1, len(mu) + 1):
        for l in range(1, nu[-1] + 1):
            total += oracle_N(variant, g, mu, nu, l, i, limit)
    return total


# ---------------------------------------------------------------------------
# commutator cycle-type counts


def count_commutator_type(g: int, nu, d: int,
                          limit: int = DEFAULT_ORACLE_LIMIT) -> int:
    """Number of 2g-tuples in S_d^2g whose commutator product has padded type nu."""
    if g < 1:
        raise DomainError("g must be >= 1")
    nu = check_partition(nu)
    if sum(nu) > d:
        raise DomainError("|nu| > d")
    if d > limit:
        raise ResourceLimitError(f"degree {d} above oracle limit {limit}")
    target = pad_to(strip_ones(nu), d)
    table = commutator_tuple_table(d, g)
    total = 0
    for kappa, orbs in table.items():
        if cycle_type(kappa) == target:
            total += sum(orbs.values())
    return total
