"""Reference helpers that only the tests use: small enumerations, the
Murnaghan-Nakayama rule for one (lambda, nu) at a time, the positional
subset splits, sector subsectors and the exp at one sector, the transitive
commutator counts and the commutator table by permutation built from them,
the full-class walk of the triply mixed oracle, the expansion of
a quasimodular polynomial, the product form of the quantum-curve partition
function, the sinh coefficients from the Bernoulli numbers, the completion
coefficients from the sinh product, and the two-stage elliptic cover search
(unpruned shapes, then spanning-tree weights) and two-factor vertex weight
of the tropical route, kept out of the package so that no CLI launch
compiles them."""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, factorial, prod
from operator import le

from mixedhurwitz import tropical
from mixedhurwitz.commutators import joined_count
from mixedhurwitz.errors import DomainError
from mixedhurwitz.partitions import compositions, enumerate_partitions, hook_dim, pad_to
from mixedhurwitz.quasimodular import eisenstein
from mixedhurwitz.series import QSeries, _euler_solve, _subkeys
from mixedhurwitz.symgroup import (FREE, STRICT, WEAK, _codes, _cycles, _join,
                                   _labels_of, _steps, _tally, _totals, all_perms,
                                   compose, identity, orbit_labels, perms_of_type,
                                   transposition)
from mixedhurwitz.tropical import combinatorial_type, enumerate_elliptic_covers
from mixedhurwitz.util import VARIANTS


@cache
def all_transpositions(d: int):
    """All (s, t, perm) with s < t."""
    return tuple(
        (s, t, transposition(d, s, t)) for t in range(1, d) for s in range(t)
    )


def partitions_upto(d: int):
    """All partitions of every size 0..d (reverse lex within each size)."""
    out = []
    for n in range(d + 1):
        out.extend(enumerate_partitions(n))
    return out


@cache
def mn_character(lam, nu) -> int:
    """chi^lam(nu) for one partition lam and one class nu of |lam| (parts
    largest first) by the MN border-strip rule on lam's beta-set, recursing
    on nu less its largest part."""
    if not nu:
        return 1
    if nu[0] == 1:
        # remaining class is the identity: character value is the dimension
        return hook_dim(lam)
    t = nu[0]
    rest = nu[1:]
    total = 0
    # beta-set formulation: border strips of size t <-> b in B with b-t not in B
    ell = len(lam)
    beta = [lam[i] + ell - 1 - i for i in range(ell)]
    bset = set(beta)
    for b in beta:
        nb = b - t
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((bset - {b}) | {nb}, reverse=True)
        new_lam = tuple(x - (len(new_beta) - 1 - i) for i, x in enumerate(new_beta))
        new_lam = tuple(x for x in new_lam if x > 0)
        sign = -1 if height % 2 else 1
        total += sign * mn_character(new_lam, rest)
    return total


def positional_splits(items):
    """Every split (I, J) of items into a chosen subset of positions and its
    complement, in bitmask order; both parts keep the order of items."""
    items = tuple(items)
    for mask in range(1 << len(items)):
        yield (tuple(x for k, x in enumerate(items) if mask >> k & 1),
               tuple(x for k, x in enumerate(items) if not mask >> k & 1))


def falling_factorial(x, k: int):
    out = Fraction(1)
    for i in range(k):
        out *= x - i
    return out


def subsectors(sector):
    """All (k',l',m',profiles',d') componentwise inside the given sector."""
    for key in _subkeys(sector[:4]):
        for d1 in range(sector[4] + 1):
            yield key + (d1,)


def exp_at(connected, target) -> Fraction:
    """Disconnected value at target from connected sector values (exp).

    connected holds every subsector of target of degree >= 1.
    """
    d = target[4]
    columns = {}
    for s, v in connected.items():
        columns.setdefault(s[:4], [0] * (d + 1))[s[4]] = v
    return _euler_solve(columns, log=False)[target[:4]][d]


def transitive_count(g: int, tau) -> int:
    """t_g(tau): the transitive 2g-tuples whose commutator product is one
    fixed permutation of full cycle type tau, one block per cycle."""
    return joined_count(g, tuple(sorted((x,) for x in tau)))


def _set_partitions(items):
    """Every set partition of the list items, each a list of blocks."""
    if not items:
        yield []
        return
    first, *rest = items
    for part in _set_partitions(rest):
        yield [[first], *part]
        for i in range(len(part)):
            yield [*part[:i], [first, *part[i]], *part[i + 1:]]


def commutator_tuple_table(d: int, g: int):
    """Aggregate 2g-tuples in S_d^2g by (commutator product, orbit labels).

    Returns {kappa: {orbit_labels: count}} with kappa = [a_1,b_1]...[a_g,b_g],
    nonzero counts only.  An orbit partition of the tuples over kappa joins
    kappa's cycles into blocks, and its count is the product over the blocks
    of t_g of kappa's cycle type there.
    """
    table = {}
    for kappa in all_perms(d):
        row = {}
        for part in _set_partitions(_cycles(kappa)):
            count = prod(transitive_count(g, sorted(map(len, block), reverse=True))
                         for block in part)
            if count:
                labels = [0] * d
                for block in part:
                    for cycle in block:
                        for x in cycle:
                            labels[x] = min(c[0] for c in block)
                row[tuple(labels)] = count
        if row:
            table[kappa] = row
    return table


def full_class_profiled(d: int, profiles, orbits):
    """Coded states of the products of the padded profiles, each one, the
    first and the last included, running over its full conjugacy class,
    walked from the identity and orbit labels: symgroup._profiled without the
    fixed sigma_1 or the last profile read off at base genus 0."""
    perms, labels = _codes(d)
    states = {(perms.code(identity(d)), 0, labels.code(orbits)): 1}
    for prof in profiles:
        cls = [(s, labels.code(_labels_of(s))) for s in perms_of_type(d, prof)]
        states = _tally(
            ((perms.code(compose(perms.items[p], s)), 0, _join(labels, lab, cyc)), c)
            for (p, _, lab), c in states.items()
            for s, cyc in cls
        )
    return states


def full_class_slots(g: int, d: int, profiles, wanted):
    """{(k, l, m): (disconnected, connected)} unlabeled count_triply_mixed at
    base genus g, degree d and these profiles for each (k, l, m) in wanted,
    with every profile over its full conjugacy class (full_class_profiled),
    walked once by the oracle's engine, each free layer branching into a weak
    walk and each weak layer into a strict one as in triply_mixed_slots, each
    only as far as wanted needs, and closed at the identity (the last profile
    1^d) at g = 0 or by g commutators."""
    states = full_class_profiled(d, [pad_to(p, d) for p in profiles], orbit_labels(d))
    slots, closed = {}, {}

    def steps(states, mode, *prefix):  # the layer after prefix, as far as needed
        top = max((w[len(prefix)] for w in wanted if w[:len(prefix)] == prefix),
                  default=-1)
        return zip(range(top + 1), _steps(d, states, mode))

    for k, free in steps(states, FREE):
        for l, weak in steps(free, WEAK, k):
            for m, end in steps(weak, STRICT, k, l):
                if (k, l, m) in wanted:
                    slots[k, l, m] = tuple(Fraction(t, factorial(d)) for t in
                                           _totals(d, g, (1,) * d, end, closed))
    return slots


def expand_quasimodular(poly, order: int) -> QSeries:
    """The q-series through q^order of a QuasimodularPoly in P, Q, R."""
    P, Q, R = (eisenstein(k, order) for k in (2, 4, 6))
    out = QSeries.zero(order)
    for (a, b, c), coef in poly.terms:
        term = QSeries([coef] + [0] * order)
        for factor, n in ((P, a), (Q, b), (R, c)):
            for _ in range(n):
                term = term * factor
        out = out + term
    return out


def weight_component(fit, w: int):
    """The (monomial, coefficient) terms of a QuasimodularPoly of weight w."""
    return tuple(
        (mono, coef) for mono, coef in fit.terms
        if 2 * mono[0] + 4 * mono[1] + 6 * mono[2] == w
    )


def all_types(g: int, d_max: int):
    """The sorted combinatorial types of the elliptic covers of degree <= d_max."""
    seen = set()
    for d in range(1, d_max + 1):
        for cover in enumerate_elliptic_covers(g, d):
            seen.add(combinatorial_type(cover))
    return sorted(seen)


def product_form(variant: str, g: int, d_max: int, b_max: int) -> dict:
    """{(d, b): Z(d, b)} for d <= d_max, b <= b_max: the cells of
    quantum_curve.partition_coefficient assembled from the per-degree hbar
    products.

    Monotone: prod_{j=1..d-1} 1/(1-j*hbar); strict: prod_{j=1..d-1} (1+j*hbar).
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant}")
    Z = {(0, b): Fraction(1 if b == 0 else 0) for b in range(b_max + 1)}
    for d in range(1, d_max + 1):
        # hbar-polynomial for this degree
        if variant == "strict":
            poly = [Fraction(1)]
            for j in range(1, d):
                # multiply by (1 + j hbar)
                poly = [
                    (poly[i] if i < len(poly) else 0)
                    + (j * poly[i - 1] if i - 1 >= 0 and i - 1 < len(poly) else 0)
                    for i in range(len(poly) + 1)
                ]
        else:
            poly = [Fraction(1)] + [Fraction(0)] * b_max
            for j in range(1, d):
                # multiply by 1/(1-j hbar) = sum_k (j hbar)^k, truncated
                new = [Fraction(0)] * (b_max + 1)
                for i in range(b_max + 1):
                    if poly[i] == 0:
                        continue
                    jk = Fraction(1)
                    for k in range(0, b_max + 1 - i):
                        new[i + k] += poly[i] * jk
                        jk *= j
                poly = new
        poly += [0] * (b_max + 1 - len(poly))
        weight = Fraction(factorial(d)) ** (2 * g - 1)
        for b, c in enumerate(poly[: b_max + 1]):
            Z[d, b] = c * weight
    return Z


@cache
def bernoulli(m: int) -> Fraction:
    """B_m from sum_{j=0..m} C(m+1, j) B_j = 0 for m >= 1, B_0 = 1."""
    if m == 0:
        return Fraction(1)
    return -sum(comb(m + 1, j) * bernoulli(j) for j in range(m)) / (m + 1)


def sinh_coefficient(k: int) -> Fraction:
    """c_k = [z^k] (z/2)/sinh(z/2): c_{2j} = (2^(1-2j) - 1) B_{2j} / (2j)!,
    and 0 at odd k."""
    if k % 2:
        return Fraction(0)
    return (Fraction(2) ** (1 - k) - 1) * bernoulli(k) / factorial(k)


def sinh_scaled(x, order: int) -> QSeries:
    """S(x z) = sinh(x z/2)/(x z/2) through z^order, in powers of z:
    [z^k] = x^k / (2^k (k+1)!) at even k."""
    return QSeries([Fraction(x ** k, 2 ** k * factorial(k + 1)) if k % 2 == 0 else 0
                    for k in range(order + 1)])


def two_sinh(x, order: int) -> QSeries:
    """2 sinh(x z/2) = e^(x z/2) - e^(-x z/2) through z^order."""
    half = Fraction(x, 2)
    return QSeries([(half ** k - (-half) ** k) / factorial(k)
                    for k in range(order + 1)])


def completion_reference(nu, k_max: int):
    """q_{k,nu} for k = 0..k_max: [z^(k-1)] of
    (1/|nu|!) (2 sinh(z/2))^(|nu|-1) prod_i 2 sinh(nu_i z/2), and c_k at
    nu = (), where the right side is 1/(2 sinh(z/2))."""
    if not nu:
        return [sinh_coefficient(k) for k in range(k_max + 1)]
    order = k_max + 2
    rhs = QSeries.one(order)
    for _ in range(sum(nu) - 1):
        rhs = rhs * two_sinh(1, order)
    for part in nu:
        rhs = rhs * two_sinh(part, order)
    rhs = rhs / factorial(sum(nu))
    return [rhs.coefficient(k - 1) for k in range(k_max + 1)]


def two_factor_vertex_weight(x_plus, x_minus, vertex_genus: int, lam_i: int) -> Fraction:
    """(lam_i-1)! sum_{g1+g2=g(v)} c_{2g2} [z^{2g1}] prod S(x z)/S(z), with
    S(x z) from sinh_scaled and c_k from sinh_coefficient."""
    order = 2 * vertex_genus
    prod = QSeries.one(order)
    for x in tuple(x_plus) + tuple(x_minus):
        prod = prod * sinh_scaled(x, order)
    prod = prod / sinh_scaled(1, order)
    total = sum((sinh_coefficient(2 * (vertex_genus - g1)) * prod.coefficient(2 * g1)
                 for g1 in range(vertex_genus + 1)), Fraction(0))
    return factorial(lam_i - 1) * total


def unpruned_elliptic_graphs(lam, d):
    """Every edge-shape multiset over one lambda composition under the
    valence, parity and arc-count bounds, vertices without an edge in or out
    included: the first stage of the two-stage elliptic search."""
    n = len(lam)
    shapes = [(a, t, k) for a in range(n) for t in range(n)
              for k in range(d + 1) if k or a < t]
    demand = [tuple((a == v) + (t == v) for v in range(n))
              + tropical._arc_crossings(a, t, k, n) for (a, t, k) in shapes]
    room = [l + 2 for l in lam] + [d] * n
    chosen = []

    def rec(cands):
        for j, s in enumerate(cands):
            for i, x in enumerate(demand[s]):
                room[i] -= x
            chosen.append(shapes[s])
            if all(r % 2 == 0 for r in room[:n]):
                yield list(chosen)
            yield from rec([c for c in cands[j:]
                            if all(map(le, demand[c], room))])
            chosen.pop()
            for i, x in enumerate(demand[s]):
                room[i] += x

    yield from rec([s for s in range(len(shapes))
                    if all(map(le, demand[s], room))])


def balanced_weights(shapes, n, d):
    """Weights w_e >= 1 balancing every vertex with Sum k_e w_e = d: the
    second stage of the two-stage elliptic search.

    Balancing makes every arc carry the same weight, so the d-sheet condition
    is the one equation on the p_0 arc.  The edges off a spanning tree take
    free weights, non-increasing within equal shapes; peeling the tree's
    leaves then forces its weights.  Yields each solution as a list of
    edges (a, t, w, k, "internal"), and none for a disconnected graph.
    """
    # spanning tree by search from vertex 0: order[i] = (vertex, its tree edge)
    tree, order, seen = set(), [], {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for e, (a, t, k) in enumerate(shapes):
            u = t if a == v else a if t == v else None
            if u is not None and u not in seen:
                seen.add(u)
                tree.add(e)
                order.append((u, e))
                frontier.append(u)
    if len(seen) < n:
        return
    free = [e for e in range(len(shapes)) if e not in tree]
    crossings = [tropical._arc_crossings(a, t, k, n) for (a, t, k) in shapes]
    slack = [d - sum(c[m] for c in crossings) for m in range(n)]
    w = [0] * len(shapes)

    def forced():
        net = [0] * n
        for e in free:
            a, t, _ = shapes[e]
            net[a] += w[e]
            net[t] -= w[e]
        for (v, e) in reversed(order):
            a, t, _ = shapes[e]
            w[e] = -net[v] if a == v else net[v]
            if w[e] < 1:
                return False
            net[a] += w[e]
            net[t] -= w[e]
        # the tree holds the first copy of a shape, so it heads the
        # non-increasing run of that shape's weights
        for e in tree:
            if e + 1 < len(shapes) and shapes[e + 1] == shapes[e] \
                    and w[e + 1] > w[e]:
                return False
        return sum(shape[2] * x for shape, x in zip(shapes, w)) == d

    def rec(i):
        if i == len(free):
            if forced():
                yield [(a, t, x, k, "internal") for (a, t, k), x in zip(shapes, w)]
            return
        e = free[i]
        hi = 1 + min(slack[m] // c for m, c in enumerate(crossings[e]) if c)
        if i and shapes[free[i - 1]] == shapes[e]:
            hi = min(hi, w[free[i - 1]])
        for x in range(1, hi + 1):
            w[e] = x
            for m, c in enumerate(crossings[e]):
                slack[m] -= c * (x - 1)
            yield from rec(i + 1)
            for m, c in enumerate(crossings[e]):
                slack[m] += c * (x - 1)

    yield from rec(0)


def unpruned_elliptic_covers(g: int, d: int):
    """enumerate_elliptic_covers(g, d) by the two-stage search: every
    edge-shape multiset, then weights forced along a spanning tree, each
    vertex genus (lam_i + 2 - val_i) / 2, in the order --list prints."""
    out = []
    for n in range(1, 2 * g - 1):
        for lam in compositions(2 * g - 2, n):
            covers = []
            for shapes in unpruned_elliptic_graphs(lam, d):
                for edges in balanced_weights(shapes, n, d):
                    val = Counter(v for e in edges for v in e[:2])
                    covers.append(tropical._cover(
                        [((l + 2 - val[i]) // 2, l) for i, l in enumerate(lam)],
                        edges, d))
            covers.sort(key=lambda c: tuple((-a, -t, -w, -k)
                                            for (a, t, w, k, _) in c.edges))
            out.extend(covers)
    return out
