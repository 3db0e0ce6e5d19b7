"""Refined monotone / strictly monotone double Hurwitz numbers: the N-number
recursion, aggregation to double Hurwitz numbers, and assembly of
arbitrary-base-genus numbers through commutator counts.

The recursion runs on prefix sums U(L) = sum_{p <= L} N(..., p) over the
counter, cached by content: (variant, g, distinguished part, remaining parts
sorted, nu, counter bound L); the terms of a key that do not depend on L,
second pieces included, are built once for all its L.  It strictly decreases
the transposition count b = 2g-2+l(mu)+l(nu); b in {0,1} is anchored on a
closed form (genus 0, at most one transposition), the recursion runs for
b >= 2.  double_hurwitz raises ResourceLimitError past a module bound.

The character and exponential-formula code is imported inside the functions
that use it, so a launch that only runs the recursion compiles neither.
"""

from fractions import Fraction
from functools import cache
from math import factorial

from .errors import DomainError, ResourceLimitError
from .partitions import (
    aut_count,
    check_double,
    check_partition,
    class_size,
    enumerate_partitions,
    pad_to,
    strip_ones,
    transposition_count,
)
from .util import check_variant, splits

_n_cache = {}


def N_value(variant: str, g: int, dist: int, rest, nu, l: int) -> int:
    """Refined count N^{variant; l, i}_g(dist | rest, nu), content-keyed."""
    check_variant(variant)
    nu = check_partition(nu)
    rest = tuple(sorted(rest, reverse=True))
    if dist < 1:
        raise DomainError("distinguished part must be >= 1")
    if dist + sum(rest) != sum(nu):
        raise DomainError("|mu| must equal |nu|")
    return (_upto(variant, g, dist, rest, nu, l)
            - _upto(variant, g, dist, rest, nu, l - 1))


def _upto(variant, g, dist, rest, nu, L) -> int:
    """U(L), the sum of N(dist | rest, nu) over the counters 1 <= p <= L; N
    vanishes past the last part of nu, where t_b would leave the last block."""
    L = min(L, nu[-1])
    if g < 0 or L < 1:
        return 0
    b = 2 * g - 1 + len(rest) + len(nu)
    if b <= 1:
        return _anchor(b, rest, nu, L)
    key = (variant, g, dist, rest, nu, L)
    hit = _n_cache.get(key)
    if hit is not None:
        return hit

    # U(L - 1) plus N at counter L, each of whose terms sums p <= p_hi
    p_hi = L - 1 if variant == "strict" else L
    total = _upto(variant, g, dist, rest, nu, L - 1)
    cuts, joins, fixed = _terms(variant, g, dist, rest, nu)
    if dist + L > nu[-1]:
        total += sum(c * _upto(variant, *args, p_hi) for c, args in cuts)
    total += fixed + sum(c * _upto(variant, *args, p_hi) for c, args in joins)
    _n_cache[key] = total
    return total


@cache
def _terms(variant, g, dist, rest, nu):
    """The terms of N(dist | rest, nu) at any counter: (cuts, joins, fixed),
    cuts and joins lists of (coefficient, (g', dist', rest', nu')) whose U
    each term reads at the counter's p_hi, and fixed the joins that count
    the same at every counter.  The cuts enter only when dist + L > nu[-1]."""
    # cut: the last transposition merged the distinguished cycle with another
    cuts = [(copies, (g, dist + v, sub_rest, nu))
            for v, copies, sub_rest in _removals(rest)]

    # redundant join: the last transposition cut the distinguished cycle
    joins = [(dist - alpha, (g - 1, alpha, tuple(sorted(rest + (dist - alpha,),
                                                        reverse=True)), nu))
             for alpha in range(1, dist)]

    # essential join: the factorization splits into two transitive pieces; the
    # second has no tail condition, so it enters by its full (l, i)-aggregate.
    # The split fixes alpha + sum(I1) = sum(nu_Jc), and then |mu| = |nu| gives
    # beta + sum(I2) = sum(nu_J).  Each multiset split stands for w1 * w2
    # splits of the positions of rest and of nu's other parts.
    fixed, nu_splits = 0, splits(nu[:-1])
    for I1, I2, w1 in splits(rest):
        for nu_J, nu_Jc, w2 in nu_splits:
            nu_Jc += nu[-1:]  # the last nu-block stays with tau_b
            alpha = sum(nu_Jc) - sum(I1)
            if not nu_J or not 0 < alpha < dist:
                continue
            beta = dist - alpha
            parts = tuple(sorted(I2 + (beta,), reverse=True))
            for g1 in range(0, g + 1):
                c = w1 * w2 * beta * _aggregate(variant, g - g1, parts, nu_J)
                # a transposition-free first piece meets no monotonicity
                # constraint against tau_b: it counts 1, at its one slot alpha
                if g1 == 0 and not I1 and len(nu_Jc) == 1:
                    fixed += c
                elif c:
                    joins.append((c, (g1, alpha, I1, nu_Jc)))
    return cuts, joins, fixed


def _anchor(b, rest, nu, L) -> int:
    """U(L) at b <= 1, where g = 0 and both variants agree.

    b = 0: mu = nu = (d), one tuple at the slot l = d.  b = 1 with nu = (a, c)
    and mu = (d): the transposition (s, t_b) joins the two cycles for each of
    the a points s of the first one, at every l.  b = 1 with nu = (d) and mu =
    (dist, r): (s, t_b) cuts the d-cycle, leaving the cycle through t_b = l - 1
    of length dist for exactly one s < t_b, which exists iff r <= l - 1.
    """
    if b == 0:
        return int(L == nu[0])
    if len(nu) == 2:
        return L * nu[0]
    return max(L - rest[0], 0)


def _removals(parts):
    """(v, copies of v, parts less one v) per distinct part v of sorted parts."""
    return [(v, parts.count(v), parts[:i] + parts[i + 1:])
            for i, v in enumerate(parts) if v not in parts[:i]]


def N_aggregate(variant: str, g: int, mu, nu) -> int:
    """Sum of N_value over all (l, i) slots."""
    check_variant(variant)
    mu, nu, _ = check_double(mu, nu)
    return _aggregate(variant, g, mu, nu)


def _aggregate(variant, g, mu, nu) -> int:
    """Sum of N over every labeling position i and counter l: one prefix sum
    per distinct part of mu, times its copies."""
    return sum(copies * _upto(variant, g, v, rest, nu, nu[-1])
               for v, copies, rest in _removals(mu))


# double_hurwitz refuses b + |mu| above this, b = 2g-2+l(mu)+l(nu) being the
# depth of the N-recursion.  At 30 the costliest of the 3,820 shapes with
# l(mu) + l(nu) <= 4, monotone g = 4, (10, 9, 1), (20,), takes 0.8-1.0 s as a
# fresh launch on a 2-vCPU host, and of 150 sampled with more parts 1.3-1.4 s.
DOUBLE_LIMIT = 30


def double_hurwitz(variant: str, g: int, mu, nu) -> Fraction:
    """Connected (strictly) monotone double Hurwitz number for source genus g.

    h = (|C_nu| / d!) * sum_{l,i} N / Aut(mu): the unlabeled normalization,
    matching the g = 0 base specialization of the triply mixed counts.
    """
    check_variant(variant)
    if g < 0:
        raise DomainError(f"genus {g} must be >= 0")
    mu, nu, d = check_double(mu, nu)
    size = transposition_count(0, g, d, (mu, nu)) + d
    if size > DOUBLE_LIMIT:
        raise ResourceLimitError(f"double: b + |mu| = {size} above the limit "
                                 f"{DOUBLE_LIMIT}")
    agg = _aggregate(variant, g, mu, nu)
    return Fraction(class_size(nu, d) * agg, factorial(d) * aut_count(mu))


def disconnected_double(variant: str, mu, nu, b: int) -> Fraction:
    """Disconnected double Hurwitz number with b transpositions, by the
    exponential formula over connected pieces."""
    from .series import _euler_solve, _subkeys

    check_variant(variant)
    if b < 0:
        raise DomainError(f"transposition count {b} must be >= 0")
    mu, nu, d = check_double(mu, nu)
    klm = (0, b, 0) if variant == "monotone" else (0, 0, b)
    target = (*klm, (strip_ones(mu), strip_ones(nu)))
    connected = {(k1, l1, m1, (pmu, pnu)):
                 [0] + [_connected_sector(variant, pmu, pnu, l1 + m1, d1)
                        for d1 in range(1, d + 1)]
                 for k1, l1, m1, (pmu, pnu) in _subkeys(target)}
    return _euler_solve(connected, log=False)[target][d]


def _connected_sector(variant, pmu, pnu, b, d) -> Fraction:
    """Connected double number for 1-free profile parts on degree d >= 1."""
    if sum(pmu) > d or sum(pnu) > d:
        return Fraction(0)
    mu_full, nu_full = pad_to(pmu, d), pad_to(pnu, d)
    two_g = b - transposition_count(0, 0, d, (mu_full, nu_full))
    if two_g < 0 or two_g % 2:
        return Fraction(0)
    return double_hurwitz(variant, two_g // 2, mu_full, nu_full)


def base_g_assembly(variant: str, base_genus: int, source_genus: int, mu, d: int) -> Fraction:
    """Disconnected (strictly) monotone base-g Hurwitz number of degree d.

    H^{bullet,g} = sum_nu h^bullet(mu, nu) A_g(nu) / |C_nu| with the
    commutator counts A_g from the character formula and h^bullet assembled
    from the N-recursion's connected double numbers.
    """
    from .characters import commutator_count_by_characters

    check_variant(variant)
    if base_genus < 1:
        raise DomainError("base genus must be >= 1 here")
    mu = check_partition(mu)
    if sum(mu) > d:
        raise DomainError("|mu| > d")
    mu_full = pad_to(mu, d)
    b = transposition_count(base_genus, source_genus, d, (mu_full,))
    if b < 0:
        raise DomainError("negative transposition count")
    total = Fraction(0)
    for nu in enumerate_partitions(d):
        h = disconnected_double(variant, mu_full, nu, b)
        if h == 0:
            continue
        a = commutator_count_by_characters(base_genus, nu, d)
        total += h * Fraction(a, class_size(nu, d))
    return total
