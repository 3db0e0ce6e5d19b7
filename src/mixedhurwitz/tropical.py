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

On the circle, the arc loads on either side of a vertex differ by its out-
minus in-weight and the p_0 arc carries Sum k w, so a connected graph of
weighted edges is a cover of degree d exactly when every arc carries d: one
search over weighted edges finds them.
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
    if vertex_genus < 0:
        raise DomainError(f"vertex genus {vertex_genus} must be >= 0")
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

    b = 0 is the one composition of 0 into n = 0 parts: strands only.  A
    sweep past NODE_LIMIT vertex choices is a ResourceLimitError.
    """
    mu, nu, d = check_double(mu, nu)
    b = transposition_count(0, g, d, (mu, nu))
    budget = [NODE_LIMIT]
    return [cover for n in range(b + 1) for lam in compositions(b, n)
            for cover in _line_covers_for(lam, mu, nu, budget)]


def _line_covers_for(lam, mu, nu, budget):
    """Sweep enumeration for a fixed lambda composition (one vertex per point).

    The open strands are counted by (weight, source), source -1 the left end.
    Vertex i absorbs some of them and emits a partition of the absorbed weight;
    each nonempty choice of what it absorbs spends one unit of budget.
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
            _spend(budget)
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

# Search nodes one enumeration may visit (weighted edges on the circle,
# vertex choices on the line), and the largest elliptic degree it takes at
# each genus; any other genus is refused.  At the entries, (2, 24) takes
# 0.35 s, (3, 6) 0.35-0.37 s, (4, 2) 0.05 s, (5, 1) 0.03 s and (6, 1)
# 0.19 s with the monotone total (2-vCPU host, Python 3.11).  One
# degree past them, (2, 25) finishes in 0.24 s, (3, 7) in 0.73 s, (4, 3) in
# 0.31 s, (5, 2) in 0.45 s, (7, 1) in 1.3 s and (6, 2) in 5.4 s with 485,304
# nodes; genus 2 finishes up to degree 37 (1.0 s), and (3, 8) in 1.6 s.  The
# table refuses all of them before any work: an entry is widened only with a
# check against the character route.  Building the shapes of each vertex
# count and walking the compositions of 2g - 2 cost time the node budget does
# not count: genus 10^5 at degree 1 runs past 60 s.  On the line, genus 4
# with the profiles (5), (5) takes 319,467 vertex choices (3.7 s), and
# (6), (6) would take 1,315,809 (10 s): it is refused after 5 s.
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
            covers = [_cover(vertices, edges, d)
                      for vertices, edges in _weighted_graphs(lam, d, budget)]
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


@cache
def _shapes(n, d):
    """The edge shapes (a, t, k) on n vertices at degree d in order of
    min(a, t), and what one edge of each uses up: valence at each vertex,
    then the passes of each arc, which its weight multiplies."""
    shapes = sorted(((a, t, k) for a in range(n) for t in range(n)
                     for k in range(d + 1) if k or a < t), key=lambda s: min(s[:2]))
    return shapes, [tuple((a == v) + (t == v) for v in range(n))
                    + _arc_crossings(a, t, k, n) for (a, t, k) in shapes]


def _weighted_graphs(lam, d, budget):
    """Connected weighted edge multisets over one lambda composition on which
    every arc carries exactly d (see the module docstring), each with its
    vertices (genus, lam_i).  Shapes come in order of min(a, t), each weight
    at most the load still free on the arcs it crosses, equal shapes with
    non-increasing weights.  A vertex the order has passed gets no more
    edges, so it must balance, have an edge and have valence of lam_i's
    parity; a vertex with no valence left must balance.
    """
    n = len(lam)
    shapes, demand = _shapes(n, d)
    room = [l + 2 for l in lam] + [d] * n  # valence left, then load left

    def unfinished(v):
        # unbalanced (arc v - 1 enters v, arc v leaves it), odd or bare
        return room[n + (v - 1) % n] != room[n + v] or room[v] % 2 \
            or room[v] == lam[v] + 2

    def rec(cands, chosen, last, top):
        # the first vertex that may not be left as it is; every branch
        # restores room, so this holds for the whole loop
        passed = next(filter(unfinished, range(n)), n)
        for j, s in enumerate(cands):
            a, t, k = shapes[s]
            if passed < min(a, t):
                # no later candidate reaches it: their minima are >= min(a, t)
                return
            passes = demand[s][n:]
            cap = min(r // x for r, x in zip(room[n:], passes) if x)
            if s == last:
                cap = min(cap, top)
            room[a] -= 1
            room[t] -= 1
            for w in range(1, cap + 1):  # one more unit of weight per step
                _spend(budget)
                for m, x in enumerate(passes, n):
                    room[m] -= x
                edges = chosen + [(a, t, w, k, "internal")]
                if not any(room[n:]):
                    if not any(map(unfinished, range(n))) and _connected(n, edges):
                        yield [(r // 2, l) for r, l in zip(room, lam)], edges
                # a vertex with room 0 is unfinished only if it does not balance
                elif (room[a] or not unfinished(a)) and (room[t] or not unfinished(t)):
                    yield from rec([c for c in cands[j:]
                                    if all(map(le, demand[c], room))], edges, s, w)
            for m, x in enumerate(passes, n):
                room[m] += x * cap
            room[a] += 1
            room[t] += 1

    yield from rec(range(len(shapes)), [], None, d)


def _connected(n, edges):
    """Whether the edges join vertices 0..n-1 into one component (quick-find:
    each vertex holds its component's label, and an edge relabels one side)."""
    label = list(range(n))
    for (a, t, *_) in edges:
        old, new = label[a], label[t]
        label = [new if x == old else x for x in label]
    return len(set(label)) == 1


def tropical_elliptic_sum(variant: str, g: int, d: int, covers=None) -> Fraction:
    """H^d for the (strictly) monotone elliptic correspondence, summed over
    covers, the list enumerate_elliptic_covers(g, d) when none is given."""
    check_variant(variant)
    total = Fraction(0)
    for cover in enumerate_elliptic_covers(g, d) if covers is None else covers:
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
