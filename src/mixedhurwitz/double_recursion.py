"""Refined monotone / strictly monotone double Hurwitz numbers: the N-number
recursion, aggregation to double Hurwitz numbers, and assembly of
arbitrary-base-genus numbers through commutator counts.

N-values are keyed by content: (variant, g, distinguished part, remaining
parts sorted, nu, counter l).  The recursion strictly decreases the
transposition count b = 2g-2+l(mu)+l(nu); b in {0,1} is anchored on a
closed form (genus 0, at most one transposition), the recursion runs for
b >= 2.  double_hurwitz raises ResourceLimitError past a module bound.

The character and exponential-formula code is imported inside the functions
that use it, so a launch that only runs the recursion compiles neither.
"""

from fractions import Fraction
from math import factorial

from .errors import DomainError, ResourceLimitError
from .partitions import (
    aut_count,
    check_double,
    check_partition,
    class_size,
    enumerate_partitions,
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
    return _N(variant, g, dist, rest, nu, l)


def _N(variant, g, dist, rest, nu, l) -> int:
    if g < 0 or not nu:
        return 0
    if l < 1 or l > nu[-1]:
        return 0  # t_b = offset + l must stay inside the last block
    if dist < 1 or dist + sum(rest) != sum(nu):
        return 0
    n_mu = 1 + len(rest)
    b = 2 * g - 2 + n_mu + len(nu)
    if b < 0:
        return 0
    if b <= 1:
        return _anchor(b, rest, nu, l)
    key = (variant, g, dist, rest, nu, l)
    hit = _n_cache.get(key)
    if hit is not None:
        return hit

    strict = variant == "strict"
    p_hi = l - 1 if strict else l
    total = 0

    # cut: the last transposition merged the distinguished cycle with another
    if dist + l > nu[-1]:
        for j, mj in enumerate(rest):
            sub_rest = rest[:j] + rest[j + 1:]
            for p in range(1, p_hi + 1):
                total += _N(variant, g, dist + mj, sub_rest, nu, p)

    # redundant join: the last transposition cut the distinguished cycle
    for alpha in range(1, dist):
        beta = dist - alpha
        new_rest = tuple(sorted(rest + (beta,), reverse=True))
        for p in range(1, p_hi + 1):
            total += beta * _N(variant, g - 1, alpha, new_rest, nu, p)

    # essential join: the factorization splits into two transitive pieces; the
    # second has no tail condition, so it enters by its full (l, i)-aggregate
    for alpha in range(1, dist):
        beta = dist - alpha
        for g1 in range(0, g + 1):
            g2 = g - g1
            for I1, I2 in splits(rest):
                for nu_J, nu_Jc in splits(nu[:-1]):
                    nu_Jc += nu[-1:]  # the last nu-block stays with tau_b
                    if alpha + sum(I1) != sum(nu_Jc):
                        continue
                    if beta + sum(I2) != sum(nu_J):
                        continue
                    if not nu_J:
                        continue
                    parts = tuple(sorted(I2 + (beta,), reverse=True))
                    second = _aggregate(variant, g2, parts, nu_J)
                    if second == 0:
                        continue
                    I1s = tuple(sorted(I1, reverse=True))
                    first_sum = sum(
                        _N(variant, g1, alpha, I1s, nu_Jc, p)
                        for p in range(1, p_hi + 1)
                    )
                    # a transposition-free first piece imposes no monotonicity
                    # constraint against tau_b; its conventional slot sits at
                    # p = last part of nu_Jc, which the p-bound may miss
                    b1 = 2 * g1 - 2 + 1 + len(I1s) + len(nu_Jc)
                    if b1 == 0 and nu_Jc[-1] > p_hi:
                        first_sum += _N(variant, g1, alpha, I1s, nu_Jc,
                                        nu_Jc[-1])
                    total += beta * first_sum * second

    _n_cache[key] = total
    return total


def _anchor(b, rest, nu, l) -> int:
    """N at b <= 1, where g = 0 and both variants agree.

    b = 0: mu = nu = (d), one tuple at the slot l = d.  b = 1 with nu = (a, c)
    and mu = (d): the transposition (s, t_b) joins the two cycles for each of
    the a points s of the first one.  b = 1 with nu = (d) and mu = (dist, r):
    (s, t_b) cuts the d-cycle, leaving the cycle through t_b = l - 1 of
    length dist for exactly one s < t_b, which exists iff r <= l - 1.
    """
    if b == 0:
        return int(l == nu[0])
    if len(nu) == 2:
        return nu[0]
    return int(rest[0] <= l - 1)


def N_aggregate(variant: str, g: int, mu, nu) -> int:
    """Sum of N_value over all (l, i) slots."""
    check_variant(variant)
    mu, nu, _ = check_double(mu, nu)
    return _aggregate(variant, g, mu, nu)


def _aggregate(variant, g, mu, nu) -> int:
    """Sum of _N over every labeling position i and every counter l up to
    the last part of nu: the refined counts vanish beyond it."""
    total = 0
    for i in range(len(mu)):
        rest = mu[:i] + mu[i + 1:]
        for l in range(1, nu[-1] + 1):
            total += _N(variant, g, mu[i], rest, nu, l)
    return total


# double_hurwitz refuses b + |mu| above this, b = 2g-2+l(mu)+l(nu) being the
# depth of the N-recursion.  Of about 700 shapes timed at 22, the costliest,
# monotone g = 4, mu = (12, 1), nu = (13,), takes about 1.5 s on a 2-vCPU
# host; each 2 more about double the cost.
DOUBLE_LIMIT = 22


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
    agg = N_aggregate(variant, g, mu, nu)
    return Fraction(class_size(nu, d) * agg, factorial(d) * aut_count(mu))


def disconnected_double(variant: str, mu, nu, b: int) -> Fraction:
    """Disconnected double Hurwitz number with b transpositions, by the
    exponential formula over connected pieces."""
    from .series import _euler_solve, _subkeys

    check_variant(variant)
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
    mu_full = tuple(sorted(pmu, reverse=True)) + (1,) * (d - sum(pmu))
    nu_full = tuple(sorted(pnu, reverse=True)) + (1,) * (d - sum(pnu))
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
    mu_full = mu + (1,) * (d - sum(mu))
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
