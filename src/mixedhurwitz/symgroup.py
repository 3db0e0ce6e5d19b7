"""Brute-force ground truth over symmetric groups.

Permutations are one-line tuples on 0..d-1.  Composition convention everywhere:
(s*t)(x) = s(t(x)), i.e. in a written product the rightmost factor acts first.
A product written sigma_1 ... sigma_n tau_1 ... tau_b is therefore evaluated by
left-folding compose().

Transpositions are pairs (s, t) with s < t; monotonicity is always on t.
Exponential in d; every oracle first calls check_oracle_size, which refuses a
degree above the caller's limit and any size past util.ORACLE_SIZE_LIMIT.

Every oracle runs on one engine, _walk, block by block through _steps:
aggregated states (permutation, last t, orbit labels) advanced through blocks
of free, weakly monotone and strictly monotone transpositions, one right
multiplication per step.  Orbits are label tuples (each point labelled by the
least point of its orbit).  The walk runs on integer codes: each permutation
and each label tuple is coded by the order it was first met (_Interned), so a
step is two list lookups.  The triply mixed walk starts from one permutation
of the first profile's class, weighted by the class size: everything
multiplied after it is central, so the count is the same for every
permutation of the class (conjugation invariance, no characters).  Over a
base of genus 0 the last of two or more profiles is not walked but read off
each leaf, whose permutation must have its cycle type (with fewer profiles a
leaf must be the identity); over a base of genus g >= 1 a leaf is
closed by g commutators, counted by the commutators module from the leaf's
cycles and orbits alone.  tests/references.py keeps the walk of every profile
over its full class, closed at the identity, as the check.  The slots of one
triply_mixed_slots call share one walk and close each distinct leaf once; no
walk or count is cached across calls.  The monotone double count and the
fixed-target count of the cut-and-join side are count_triply_mixed calls at
base genus 0; the refined N counts walk from their own start.
"""

from fractions import Fraction
from functools import cache
from itertools import islice, permutations as iter_permutations
from math import factorial

from .errors import DomainError, ResourceLimitError
from .partitions import (
    HurwitzSpec,
    aut_count,
    check_double,
    check_partition,
    class_size,
    pad_to,
    source_genus_for,
    transposition_count,
    z_weight,
)
from .util import DEFAULT_ORACLE_LIMIT, ORACLE_SIZE_LIMIT, check_variant


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


def _cycles(p):
    """The cycles of p, each read from its least point, longest first."""
    seen, out = set(), []
    for i in range(len(p)):
        if i not in seen:
            cyc = [i]
            while p[cyc[-1]] != i:
                cyc.append(p[cyc[-1]])
            seen.update(cyc)
            out.append(cyc)
    return sorted(out, key=len, reverse=True)


def cycle_type(p):
    """Full cycle type (with 1-parts), weakly decreasing."""
    return tuple(map(len, _cycles(p)))


def _swapped(p, s, t):
    """p right-multiplied by the transposition (s, t): entries s and t swapped."""
    q = list(p)
    q[s], q[t] = p[t], p[s]
    return tuple(q)


def transposition(d: int, s: int, t: int):
    return _swapped(identity(d), s, t)


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


class _Interned:
    """Items of one degree coded by the order they were first met.

    row(i) lists, for the j-th transposition (s, t) in t order, the code of
    step(item i, s, t); it is filled the first time item i is stepped from,
    so only the items a walk reaches are ever coded.
    """

    __slots__ = ("pairs", "step", "items", "ids", "rows")

    def __init__(self, d, step):
        self.pairs = [(s, t) for t in range(1, d) for s in range(t)]
        self.step, self.items, self.ids, self.rows = step, [], {}, []

    def code(self, item):
        i = self.ids.get(item)
        if i is None:
            i = self.ids[item] = len(self.items)
            self.items.append(item)
            self.rows.append(None)
        return i

    def row(self, i):
        row = self.rows[i]
        if row is None:
            item = self.items[i]
            row = self.rows[i] = [self.code(self.step(item, s, t))
                                  for s, t in self.pairs]
        return row


@cache
def _codes(d: int):
    """The permutation and label codes of degree d, shared by every walk."""
    return _Interned(d, _swapped), _Interned(d, _merge)


def _join(labels, a, b):
    """The code of the join of the labels coded a and b."""
    for x, v in enumerate(labels.items[b]):
        if v != x:
            a = labels.row(a)[x * (x - 1) // 2 + v]
    return a


def check_oracle_size(d: int, limit: int, base_genus: int = 0, b: int = 0,
                      profiles: int = 0):
    """The one precondition of every oracle: refuse, before any work, a degree
    above the caller's limit or the largest degree of util.ORACLE_SIZE_LIMIT,
    and a base genus, transposition count b = k + l + m or number of profiles
    past that table's row for the degree."""
    limit = min(limit, max(ORACLE_SIZE_LIMIT))
    if d > limit:
        raise ResourceLimitError(f"degree {d} above oracle limit {limit}")
    genus_max, b_max, profiles_max = ORACLE_SIZE_LIMIT[d]
    for name, value, bound in (("base genus", base_genus, genus_max),
                               ("k + l + m", b, b_max),
                               ("profiles", profiles, profiles_max)):
        if value > bound:
            raise ResourceLimitError(f"oracle: {name} {value} above {bound} "
                                     f"at degree {d}")


# ---------------------------------------------------------------------------
# the transposition-walk engine

FREE, WEAK, STRICT = "free", "weak", "strict"


def _tally(items):
    """Sum the counts of (key, count) pairs that share a key."""
    out = {}
    for key, c in items:
        out[key] = out.get(key, 0) + c
    return out


def _steps(d: int, states, mode):
    """The coded states after 0, 1, 2, ... steps of one block, endlessly.  A
    step right-multiplies by a transposition (s, t): it swaps the entries at s
    and t and joins their orbits.  A weak step needs t >= last t and a strict
    one t > last t; the block restarts last t at 0, and a free one keeps it."""
    perms, labels = _codes(d)
    pairs = perms.pairs  # ordered by t
    ts = [0 if mode == FREE else t for _, t in pairs]
    states = _tally(((p, 0, lab), c) for (p, _, lab), c in states.items())
    while True:
        yield states
        nxt = {}
        for (p, last, lab), c in states.items():
            lo = last + (mode == STRICT)
            swapped = perms.rows[p] or perms.row(p)
            merged = labels.rows[lab] or labels.row(lab)
            # the pairs with t >= lo are a suffix of pairs
            for j in range(lo * (lo - 1) // 2, len(pairs)):
                key = (swapped[j], ts[j], merged[j])
                nxt[key] = nxt.get(key, 0) + c
        states = nxt


def _walk(d: int, states, blocks):
    """Advance states, coded (perm, last t, orbit labels) -> count, through
    blocks (length, mode), mode FREE, WEAK or STRICT, each walked by _steps; a
    block of length 0 keeps last t.  A walk that needs no orbits starts from
    the one-orbit labels, which every join keeps."""
    for length, mode in blocks:
        if length:
            states = next(islice(_steps(d, states, mode), length, None))
    return states


def _profiled(d: int, g: int, profiles, orbits):
    """(states, last): the coded states of the products sigma_1 sigma_2 ... of
    the padded profiles with the orbit labels joined in, and at base genus 0
    the last profile sigma_n, which the walk leaves out for _totals to read
    off.

    sigma_1 is canonical_of_type(profiles[0]) weighted by its class size, and
    every later walked sigma runs over its full class.  All that multiplies
    sigma_1 afterwards is central: the class sums, the free block T^k, h_l
    and e_m of the Jucys-Murphy elements, and the commutator sum.  So each
    disconnected count is the same for every sigma_1 in its class, and so are
    the connected ones, read off them by inclusion-exclusion over the orbit
    blocks.  At g = 0, sigma_1 ... sigma_n tau_1 ... tau_b = id fixes
    sigma_n = (T A)^-1 for A = sigma_1 ... sigma_{n-1}, T = tau_1 ... tau_b: it
    has the cycle type of the walked A T, a conjugate of T A, and lies in the
    group the others generate, so it joins no orbit.  With fewer than two
    profiles it is 1^d (the identity), so a single profile is walked as
    sigma_1, whose cycles coarsen the orbit labels from the start.
    tests/references.py walks every profile over its full class and closes
    at the identity."""
    perms, labels = _codes(d)
    last = None
    if not g:
        *profiles, last = profiles if len(profiles) > 1 else [*profiles, (1,) * d]
    first, *rest = profiles or [(1,) * d]
    s1 = canonical_of_type(first, d)
    states = {(perms.code(s1), 0,
               _join(labels, labels.code(orbits), labels.code(_labels_of(s1)))):
              class_size(first, d)}
    for prof in rest:
        cls = [(s, labels.code(_labels_of(s))) for s in perms_of_type(d, prof)]
        states = _tally(
            ((perms.code(compose(perms.items[p], s)), 0, _join(labels, lab, cyc)), c)
            for (p, _, lab), c in states.items()
            for s, cyc in cls
        )
    return states, last


def _totals(d: int, g: int, last, states, closed):
    """(disconnected, connected) d!-scaled counts of end states closed by g
    commutators, or at g = 0 by a last profile of padded type last.

    At g = 0 a leaf (p, q) is closed when p has the type last, and is
    connected when q is one orbit.  Above it, a leaf is closed by the
    2g-tuples whose commutator product is p^-1: all of them, and those whose
    orbits join q into one orbit.  q's orbits are unions of p's cycles, so
    commutators.joined_count reads the cycle lengths of p grouped by q.
    closed maps each distinct leaf to its pair, computed the first time the
    leaf is met; the caller holds it for one call.
    """
    perms, labels = _codes(d)
    leaves = _tally(((p, q), c) for (p, _, q), c in states.items())
    if g:
        from .commutators import joined_count

    def close(p, q):
        cycles, lab, blocks = _cycles(perms.items[p]), labels.items[q], {}
        if not g:
            hit = tuple(map(len, cycles)) == last
            return hit, hit and not any(lab)
        for cyc in cycles:
            blocks.setdefault(lab[cyc[0]], []).append(len(cyc))
        return (joined_count(g, (tuple(map(len, cycles)),)),
                joined_count(g, tuple(sorted(map(tuple, blocks.values())))))

    for leaf in leaves.keys() - closed.keys():
        closed[leaf] = close(*leaf)
    return tuple(sum(c * closed[leaf][i] for leaf, c in leaves.items()) for i in (0, 1))


def count_triply_mixed(spec: HurwitzSpec, oracle_limit: int = DEFAULT_ORACLE_LIMIT):
    """Exact (1/d!) * number of triply mixed factorizations of the given type.

    Transitivity is enforced iff spec.connected; the labeled variant multiplies
    by Aut of the profiles as given.  Every call re-enumerates its walk (the
    slots of one triply_mixed_slots call share one): no walk, Hurwitz count or
    character value is cached across calls.  The memos hold only permutation
    and set-partition combinatorics: the permutations of each degree and of
    each cycle type, the codes of the permutations and label tuples met so far
    with their step rows, the cycles of a permutation as a label tuple, and
    the commutator counts by cycle type and blocks.  _profiled says why
    fixing sigma_1 and, at base genus 0, reading off the last profile leave
    the count unchanged.
    """
    d = spec.degree
    check_oracle_size(d, oracle_limit, spec.base_genus, spec.k + spec.l + spec.m,
                      len(spec.profiles))
    states, last = _profiled(d, spec.base_genus, spec.padded_profiles(),
                             orbit_labels(d) if spec.connected else (0,) * d)
    states = _walk(d, states, ((spec.k, FREE), (spec.l, WEAK), (spec.m, STRICT)))
    total = _totals(d, spec.base_genus, last, states, {})[spec.connected]
    for p in spec.profiles if spec.labeled else ():
        total *= aut_count(p)
    return Fraction(total, factorial(d))


def triply_mixed_slots(g, d, profiles, bs, oracle_limit=DEFAULT_ORACLE_LIMIT):
    """{(k, l, m): (disconnected, connected)} unlabeled count_triply_mixed at
    base genus g, degree d and these profiles for each k + l + m in bs, from
    one walk: the profiles are applied once, each free layer branches into a
    weak walk and each weak layer into a strict one."""
    top, slots, closed = max(bs, default=-1), {}, {}
    check_oracle_size(d, oracle_limit, g, top, len(profiles))
    start, last = _profiled(d, g, [pad_to(check_partition(p), d)
                                   for p in profiles], orbit_labels(d))
    for k, free in zip(range(top + 1), _steps(d, start, FREE)):
        for l, weak in zip(range(top + 1 - k), _steps(d, free, WEAK)):
            for m, end in zip(range(top + 1 - k - l), _steps(d, weak, STRICT)):
                if k + l + m in bs:
                    slots[k, l, m] = tuple(Fraction(t, factorial(d))
                                           for t in _totals(d, g, last, end, closed))
    return slots


# ---------------------------------------------------------------------------
# specialized counts (the double count, the fixed-target count of the
# cut-and-join side)


def monotone_double_count(source_genus, mu, nu, strict, connected=True,
                          limit=DEFAULT_ORACLE_LIMIT):
    """(Strictly) monotone double Hurwitz number: count_triply_mixed at base
    genus 0 with the profiles (mu, nu) and b weakly (or strictly) monotone
    transpositions.  A degree or b past the oracle's row is refused before a
    negative b counts 0."""
    mu, nu, d = check_double(mu, nu)
    b = transposition_count(0, source_genus, d, (mu, nu))
    check_oracle_size(d, limit, b=b)
    if b < 0:
        return Fraction(0)
    blocks = (0, 0, b) if strict else (0, b, 0)
    return count_triply_mixed(HurwitzSpec(0, source_genus, d, (mu, nu), *blocks,
                                          connected), limit)


def count_monotone_of_fixed_target(mu, b: int, strict: bool = False,
                                   limit: int = DEFAULT_ORACLE_LIMIT) -> int:
    """Monotone (or strictly monotone) transposition sequences with product a
    fixed permutation of full cycle type mu, transitive together with it.

    mu contains all its parts (1-parts included).  This is the cut-and-join
    side's count: |Z(mu)| = d!/|C_mu| times the one-profile count at base
    genus 0, which sums it over the class of mu (conjugation invariance).
    """
    mu = check_partition(mu)
    d = sum(mu)
    if d < 1:
        raise DomainError("mu must be nonempty")
    g = source_genus_for(0, d, (mu,), b)
    blocks = (0, 0, b) if strict else (0, b, 0)
    return int(z_weight(mu) * count_triply_mixed(HurwitzSpec(0, g, d, (mu,), *blocks),
                                                 limit))


# ---------------------------------------------------------------------------
# refined N numbers (direct count per the tuple conditions)


def oracle_N_slots(variant: str, g: int, mu, nu,
                   limit: int = DEFAULT_ORACLE_LIMIT) -> dict:
    """Direct count of refined monotone/strict tuples: {(l, i): count} over
    the nonzero slots, all from one walk.

    Counts tuples (sigma_1 = canonical of type nu, tau_1..tau_b, sigma_2) with
    tau_b...tau_1 sigma_1 = sigma_2, exact cycle types nu and mu, joint
    transitivity, the (strictly) monotone condition, t_b = offset+l in the
    last nu-block, labeled cycles on sigma_2 with the cycle containing t_b
    labeled i.  b = 2g-2+len(mu)+len(nu); for b=0 the count is 1 exactly when
    mu = nu is a single cycle, at the slot (l = last part, i = 1).
    """
    mu, nu, d = check_double(mu, nu)
    check_variant(variant)
    b = transposition_count(0, g, d, (mu, nu))
    if g < 0 or b < 0:
        raise DomainError("infeasible genus")
    if b == 0:
        return {(d, 1): 1} if mu == nu and len(nu) == 1 else {}
    if b >= 2:
        check_oracle_size(d, limit, b=b)
    sigma1 = canonical_of_type(nu, d)
    offset = sum(nu[:-1])  # the first point of the last block
    # tau_b...tau_1 sigma_1 = sigma_2 iff sigma_1^-1 tau_1...tau_b = sigma_2^-1,
    # and sigma_2^-1 has the cycles of sigma_2: the walk starts at sigma_1^-1
    # with the orbits of sigma_1
    perms, labels = _codes(d)
    start = {(perms.code(inverse(sigma1)), 0, labels.code(_labels_of(sigma1))): 1}
    mode, slots = STRICT if variant == "strict" else WEAK, {}
    for (p, last, lab), c in _walk(d, start, ((b, mode),)).items():
        if last < offset or any(labels.items[lab]):
            continue
        q = perms.items[p]
        if cycle_type(q) != mu:
            continue
        cyc = _labels_of(q)
        # the cycle containing t_b carries the distinguished label i
        dist = cyc.count(cyc[last])
        for i, part in enumerate(mu):
            if part == dist:
                key = (last - offset + 1, i + 1)
                slots[key] = slots.get(key, 0) + c * aut_count(mu[:i] + mu[i + 1:])
    return slots


def oracle_N(variant: str, g: int, mu, nu, l: int, i: int,
             limit: int = DEFAULT_ORACLE_LIMIT) -> int:
    """The (l, i) slot of oracle_N_slots."""
    mu, nu, _ = check_double(mu, nu)
    if not (1 <= i <= len(mu)):
        raise DomainError(f"index i={i} out of range for mu={mu}")
    if not nu or not (1 <= l <= nu[-1]):
        raise DomainError(f"counter l={l} out of range for nu={nu}")
    return oracle_N_slots(variant, g, mu, nu, limit).get((l, i), 0)
