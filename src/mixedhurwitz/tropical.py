"""Tropical covers of the line and of the circle, with Gromov-Witten vertex
multiplicities, for the monotone / strictly monotone correspondence sums.

Line covers (target R with b marked points): vertices v_1..v_n sit over the
first n marked points, edges travel rightward, left/right ends carry the two
ramification profiles, and vertex-free strands run straight through.  Circle
covers (target a circle with base point p_0 and marked points p_1..p_{2g-2}):
same picture wrapped around, edges canonicalized as rightward paths recorded
with their p_0-crossing counts; no vertices over p_0.

Every vertex satisfies the balancing condition, carries a genus, and has
local invariant lam_i = val(v_i) + 2 g(v_i) - 2 >= 1 (flattened 2-valent
genus-0 points are suppressed into the edges).  Multiplicities follow the
correspondence weights: 1/|Aut|, 1/l(lam)!, product of vertex multiplicities
and of internal edge weights, with (-1)^(1+val(v)) factors in the strict
case.  A vertex-free strand of weight w contributes a deck factor w to |Aut|.
A vertex multiplicity is one coefficient of a product of
S(z) = sinh(z/2)/(z/2) series, from the truncated-series kernel in util.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial
from operator import le

from .errors import DomainError, ResourceLimitError
from .partitions import (check_double, compositions, enumerate_partitions,
                         transposition_count)
from .util import check_variant, s_product


# ---------------------------------------------------------------------------
# vertex multiplicity


def gw_vertex_multiplicity(x_plus, x_minus, vertex_genus: int, lam_i: int) -> Fraction:
    """Local vertex weight (lam_i-1)! [z^{2g(v)}] prod_e S(x_e z) / S(z)^2,
    with S(z) = sinh(z/2)/(z/2) and the product over the edges at the vertex.

    This is sum_{g1+g2=g(v)} c_{2g2} [z^{2g1}] prod S(x z)/S(z), since
    c_k = [z^k] 1/S(z).  The symmetry factors of the two edge multisets
    cancel between the vertex normalization and the one-point invariants, so
    they do not appear.  The series is util.s_product, memoised on the
    sorted edge weights.
    """
    xs = tuple(x_plus) + tuple(x_minus)
    if lam_i != 2 * vertex_genus - 2 + len(xs):
        raise DomainError("lam_i inconsistent with valence and genus")
    if lam_i < 1:
        raise DomainError("local invariant must be >= 1")
    series = s_product(-2, tuple(sorted(xs)), vertex_genus)
    return factorial(lam_i - 1) * series[vertex_genus]


# ---------------------------------------------------------------------------
# tropical covers as decorated graphs


class TropicalCover(namedtuple("TropicalCover", "vertices edges aut degree")):
    """One isomorphism class of covers.

    vertices: tuple of (genus, lam_i) in marked-point order.
    edges: sorted tuple of (src, tgt, weight, crossings, kind) with src/tgt in
      {-1: left infinity / cut, n: right infinity / cut} and vertex indices
      0..n-1; kind "end", "internal" or "strand"; crossings counts p_0
      passages in the circle case (0 on the line).
    aut: |Aut| of the cover;  degree: the covering degree.
    """

    __slots__ = ()

    def x_sides(self, i):
        """(incoming weights, outgoing weights) at vertex i: x^-, x^+."""
        xm, xp = [], []
        for (a, b, w, k, kind) in self.edges:
            if a == i:
                xp.append(w)
            if b == i:
                xm.append(w)
        return tuple(sorted(xm)), tuple(sorted(xp))

    def multiplicity(self, variant: str) -> Fraction:
        check_variant(variant)
        n = len(self.vertices)
        mult = Fraction(1, self.aut) / factorial(n)
        for i, (gv, lam) in enumerate(self.vertices):
            xm, xp = self.x_sides(i)
            mv = gw_vertex_multiplicity(xp, xm, gv, lam)
            if variant == "strict":
                mv *= (-1) ** (1 + len(xm) + len(xp))
            mult *= mv
            if mult == 0:
                return mult
        for (a, b, w, k, kind) in self.edges:
            if kind == "internal":
                mult *= w
        return mult


def _cover(vertices, edges, d):
    """The cover of degree d with these vertices and edges.

    |Aut| permutes equal edges, and a vertex-free strand of weight w adds
    its w deck transformations.
    """
    aut = 1
    for (a, t, w, k, kind), c in Counter(edges).items():
        aut *= factorial(c) * (w**c if kind == "strand" else 1)
    return TropicalCover(tuple(vertices), tuple(sorted(edges)), aut, d)


# ---------------------------------------------------------------------------
# line covers


def enumerate_line_covers(g: int, mu, nu):
    """All (possibly disconnected) covers of the line: left profile mu, right
    profile nu, b = 2g-2+l(mu)+l(nu) marked points, Sum lam_i = b.

    b = 0 is the one composition of 0 into n = 0 parts: strands only.
    """
    mu, nu, d = check_double(mu, nu)
    b = transposition_count(0, g, d, (mu, nu))
    return [cover for n in range(b + 1) for lam in compositions(b, n)
            for cover in _line_covers_for(lam, mu, nu)]


def _line_covers_for(lam, mu, nu):
    """Sweep enumeration for a fixed lambda composition (one vertex per point).

    The open strands are counted by (weight, source), source -1 the left end.
    Vertex i absorbs some of them and emits a partition of the absorbed weight.
    """
    n, d = len(lam), sum(mu)
    results = []

    def sweep(i, open_strands, vertices, edges):
        if i == n:
            # the open strands exit right and must carry nu
            ends = [(src, n, w, 0, "strand" if src == -1 else "end")
                    for (w, src), c in open_strands.items() for _ in range(c)]
            if tuple(sorted((e[2] for e in ends), reverse=True)) == nu:
                results.append(_cover(vertices, edges + ends, d))
            return
        items = sorted(open_strands.items())
        for takes in product(*(range(c + 1) for _, c in items)):
            win = sum(w * t for ((w, _), _), t in zip(items, takes))
            if win == 0:
                # a vertex that absorbs nothing is an isolated component of
                # degree 0
                continue
            x_in = [(src, i, w, 0, "end" if src == -1 else "internal")
                    for ((w, src), _), t in zip(items, takes) for _ in range(t)]
            rest = {key: c - t for (key, c), t in zip(items, takes) if c > t}
            for x_out in enumerate_partitions(win):
                two_gv = lam[i] + 2 - len(x_in) - len(x_out)
                if two_gv >= 0 and two_gv % 2 == 0:
                    # the strands vertex i emits are new keys (w, i)
                    sweep(i + 1, {**rest, **Counter((w, i) for w in x_out)},
                          vertices + ((two_gv // 2, lam[i]),), edges + x_in)

    sweep(0, Counter((w, -1) for w in mu), (), [])
    return results


def tropical_double_sum(variant: str, g: int, mu, nu) -> Fraction:
    """Disconnected (strictly) monotone double Hurwitz number as a tropical sum."""
    check_variant(variant)
    total = Fraction(0)
    for cover in enumerate_line_covers(g, mu, nu):
        total += cover.multiplicity(variant)
    return total


# ---------------------------------------------------------------------------
# elliptic covers

# Search nodes one enumeration may visit, and the largest degree it takes at
# each genus; any other genus is refused.  At the entries, (2, 24) takes
# 0.4 s, (3, 6) 0.7-1.3 s, (4, 2) 0.1 s, (5, 1) 0.03 s and (6, 1) 0.2-0.3 s
# with the multiplicities (2-vCPU host, Python 3.11).  One degree past them,
# (2, 25) finishes in 0.5 s, (3, 7) in 3.2 s, (4, 3) in 1.3 s, (5, 2) in
# 1.5 s and (7, 1) in 1.9 s, and (6, 2) runs out of nodes after 5.2 s; genus
# 2 finishes up to degree 41 (1.9 s).  The table refuses all of them before
# any work: an entry is widened only with a check against the character
# route.  The walk over the compositions of 2g - 2 costs time the node
# budget does not count: genus 10^5 at degree 1 took 10 s with 2,000 nodes,
# and (8, 1) takes 10 s.
NODE_LIMIT = 500_000
MAX_DEGREE = {2: 24, 3: 6, 4: 2, 5: 1, 6: 1}


def enumerate_elliptic_covers(g: int, d: int):
    """All connected monotone elliptic tropical covers of type (g, d).

    Vertices sit over the first n marked points (n <= 2g-2), no vertices over
    the base point; edges are rightward paths with crossing counts; every
    vertex has lam_i >= 1 and Sum lam_i = 2g-2.  A degree past MAX_DEGREE at
    this genus is a ResourceLimitError before any search, and so is a search
    past NODE_LIMIT nodes.
    """
    if g < 2:
        raise DomainError("elliptic enumeration needs g >= 2")
    if d < 1:
        raise DomainError(f"degree must be >= 1, got {d}")
    if d > MAX_DEGREE.get(g, 0):
        raise ResourceLimitError(f"genus {g}, degree {d} is past the tropical route's "
                                 f"largest degree per genus {MAX_DEGREE}")
    budget = [NODE_LIMIT]
    out = []
    for n in range(1, 2 * g - 1):
        for lam in compositions(2 * g - 2, n):
            covers = []
            for shapes in _elliptic_graphs(lam, d, budget):
                for edges in _balanced_weights(shapes, n, d, budget):
                    # lam_i = val(v_i) + 2 g(v_i) - 2
                    val = Counter(v for e in edges for v in e[:2])
                    covers.append(_cover([((l + 2 - val[i]) // 2, l)
                                          for i, l in enumerate(lam)], edges, d))
            # the fixed order in which --list prints the covers
            covers.sort(key=lambda c: tuple((-a, -t, -w, -k)
                                            for (a, t, w, k, _) in c.edges))
            out.extend(covers)
    return out


def _spend(budget):
    budget[0] -= 1
    if budget[0] < 0:
        raise ResourceLimitError("tropical search exceeded its node budget")


@cache
def _arc_crossings(a, t, k, n):
    """How often the rightward path a -> t with k p_0-crossings passes each arc.

    Arc m < n-1 lies between vertices m and m+1; arc n-1 is the p_0 arc.
    """
    if k == 0:
        return tuple(int(a <= m < t) for m in range(n))
    return tuple(k - 1 + (m >= a) + (m < t) for m in range(n))


def _elliptic_graphs(lam, d, budget):
    """Edge-shape multisets (a, t, k) over one lambda composition.

    A vertex has valence <= lam_i + 2 of lam_i's parity, and with every weight
    at least 1 no arc may be passed more than d times.  Positive weights
    balance a vertex only if it has an edge out and an edge in (a loop is
    both), so only such multisets are yielded.  The shapes are sorted by
    source: once one with source a is chosen, every vertex below a has all
    its edges out, and a branch that leaves one of them without any ends
    there.  Yields the shapes as a sorted list, equal shapes adjacent; the
    graph may be disconnected.
    """
    n = len(lam)
    shapes = [(a, t, k) for a in range(n) for t in range(n)
              for k in range(d + 1) if k or a < t]
    # what a shape uses up: valence at each vertex, then passes of each arc
    demand = [tuple((a == v) + (t == v) for v in range(n))
              + _arc_crossings(a, t, k, n) for (a, t, k) in shapes]
    room = [l + 2 for l in lam] + [d] * n
    outs, ins = [0] * n, [0] * n
    chosen = []

    def rec(cands):
        # the first vertex without an edge out; each candidate's branch
        # restores outs, so this holds for the whole loop
        idle = outs.index(0) if 0 in outs else n
        for j, s in enumerate(cands):
            a, t, _ = shapes[s]
            if idle < a:
                # no later candidate can give it one: their sources are >= a
                return
            _spend(budget)
            for i, x in enumerate(demand[s]):
                room[i] -= x
            outs[a] += 1
            ins[t] += 1
            chosen.append(shapes[s])
            if all(r % 2 == 0 for r in room[:n]) and all(outs) and all(ins):
                yield list(chosen)
            yield from rec([c for c in cands[j:]
                            if all(map(le, demand[c], room))])
            chosen.pop()
            outs[a] -= 1
            ins[t] -= 1
            for i, x in enumerate(demand[s]):
                room[i] += x

    yield from rec([s for s in range(len(shapes))
                    if all(map(le, demand[s], room))])


def _balanced_weights(shapes, n, d, budget):
    """Weights w_e >= 1 balancing every vertex with Sum k_e w_e = d.

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
    crossings = [_arc_crossings(a, t, k, n) for (a, t, k) in shapes]
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
            _spend(budget)
            w[e] = x
            for m, c in enumerate(crossings[e]):
                slack[m] -= c * (x - 1)
            yield from rec(i + 1)
            for m, c in enumerate(crossings[e]):
                slack[m] += c * (x - 1)

    yield from rec(0)


def tropical_elliptic_sum(variant: str, g: int, d: int) -> Fraction:
    """H^d for the (strictly) monotone elliptic correspondence."""
    check_variant(variant)
    total = Fraction(0)
    for cover in enumerate_elliptic_covers(g, d):
        total += cover.multiplicity(variant)
    return total


# ---------------------------------------------------------------------------
# combinatorial types and per-type series


def combinatorial_type(cover: TropicalCover):
    """(edge multiset as vertex pairs, genus tuple): the (G, Omega, g') key."""
    pairs = tuple(sorted((min(a, b), max(a, b)) for (a, b, w, k, kind) in cover.edges))
    genera = tuple(gv for (gv, lam) in cover.vertices)
    return (pairs, genera)


def type_series(variant: str, g: int, d_max: int) -> dict:
    """{combinatorial type: generating series of its covers} up to q^d_max,
    sorted by type, from one cover enumeration per degree."""
    from .series import QSeries

    check_variant(variant)
    coeffs = {}
    for d in range(1, d_max + 1):
        for cover in enumerate_elliptic_covers(g, d):
            row = coeffs.setdefault(combinatorial_type(cover),
                                    [Fraction(0)] * (d_max + 1))
            row[d] += cover.multiplicity(variant)
    return {t: QSeries(c) for t, c in sorted(coeffs.items())}


def per_type_series(ctype, variant: str, g: int, d_max: int):
    """Generating series (a QSeries) of covers of one combinatorial type."""
    from .series import QSeries

    return type_series(variant, g, d_max).get(
        ctype, QSeries.zero(d_max))
