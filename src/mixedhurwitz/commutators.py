"""Products of commutators in S_d, aggregated by their orbits.

The handle part [a_1,b_1]...[a_g,b_g] of a factorization over a base of genus
g >= 1.  Tables are coded as the symgroup walk is (symgroup._codes):
{kappa: {orbit labels of <a_1, b_1, ..., a_g, b_g>: count}}.  symgroup loads
this module only when a count needs handles, so the oracles that never do
(the monotone counts, refined N counts) do not compile it.
"""

from functools import cache
from itertools import product

from .errors import DomainError
from .partitions import check_partition, pad_to, strip_ones
from .symgroup import (
    _codes,
    _cycles,
    _join,
    all_perms,
    check_oracle_size,
    compose,
    cycle_type,
    inverse,
    orbit_labels,
)
from .util import DEFAULT_ORACLE_LIMIT


def _conjugators(x, y):
    """Every beta with beta x beta^-1 = y: none unless x and y share a cycle type.

    beta carries each cycle of x onto an unused cycle of y of the same length,
    at each of its rotations; these are one coset of the centraliser of x.
    The search is depth first, so no choice list is ever materialised.
    """
    cx, cy = _cycles(x), _cycles(y)
    beta = list(x)

    def place(k, used):
        if k == len(cx):
            yield tuple(beta)
            return
        for m, dst in enumerate(cy):
            if len(dst) == len(cx[k]) and not used >> m & 1:
                for r in range(len(dst)):
                    for i, v in enumerate(cx[k]):
                        beta[v] = dst[(i + r) % len(dst)]
                    yield from place(k + 1, used | 1 << m)

    if list(map(len, cx)) == list(map(len, cy)):
        yield from place(0, 0)


@cache
def commutator_codes(d: int, g: int):
    """The coded table of products of g commutators in S_d.

    [alpha, beta] = kappa iff beta conjugates alpha^-1 to alpha^-1 kappa, so
    at g = 1 _conjugators solves one representative kappa per cycle type, and
    every other gamma kappa gamma^-1 takes its row with each orbit carried by
    gamma.  Joins are computed, never memoised.
    """
    if g < 1:
        raise DomainError("g must be >= 1")
    perms, labels = _codes(d)
    table = {}
    if g > 1:  # one more commutator on each product of g - 1
        for k1, orbs1 in commutator_codes(d, g - 1).items():
            for k2, orbs2 in commutator_codes(d, 1).items():
                kappa = perms.code(compose(perms.items[k1], perms.items[k2]))
                dest = table.setdefault(kappa, {})
                for (p1, c1), (p2, c2) in product(orbs1.items(), orbs2.items()):
                    joined = _join(labels, p1, p2)
                    dest[joined] = dest.get(joined, 0) + c1 * c2
        return table
    reps, cycles = {}, {p: labels.code(orbit_labels(d, (p,))) for p in all_perms(d)}
    for kappa in all_perms(d):
        ctype = cycle_type(kappa)
        if ctype not in reps:
            row = {}
            for alpha in all_perms(d):
                a_inv = inverse(alpha)
                for beta in _conjugators(a_inv, compose(a_inv, kappa)):
                    orb = _join(labels, cycles[alpha], cycles[beta])
                    row[orb] = row.get(orb, 0) + 1
            reps[ctype] = kappa, row
        rep, row = reps[ctype]
        if row:
            gamma = next(_conjugators(rep, kappa))
            g_inv = inverse(gamma)
            table[perms.code(kappa)] = {labels.code(orbit_labels(
                d, (compose(compose(gamma, labels.items[p]), g_inv),))): c
                for p, c in row.items()}
    return table


def count_commutator_type(g: int, nu, d: int,
                          limit: int = DEFAULT_ORACLE_LIMIT) -> int:
    """Number of 2g-tuples in S_d^2g whose commutator product has padded type nu."""
    if g < 1:
        raise DomainError("g must be >= 1")
    nu = check_partition(nu)
    if sum(nu) > d:
        raise DomainError("|nu| > d")
    check_oracle_size(d, limit, g)
    target = pad_to(strip_ones(nu), d)
    perms = _codes(d)[0]
    return sum(sum(orbs.values()) for k, orbs in commutator_codes(d, g).items()
               if cycle_type(perms.items[k]) == target)
