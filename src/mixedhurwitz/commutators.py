"""Products of commutators in S_n, counted by orbit blocks.

The handle part [a_1,b_1]...[a_g,b_g] of a factorization over a base of genus
g >= 1.  Take a 2g-tuple whose product is kappa: restricted to each orbit of
<a_1, b_1, ..., a_g, b_g>, it is a transitive tuple whose product is kappa
there, so every orbit is a union of kappa-cycles and the tuples of each orbit
are chosen independently.  A count therefore needs only the cycle lengths of
kappa, grouped into blocks, and never a table of tuples.  symgroup loads this
module only when a count needs handles, so the oracles at base genus 0 (the
monotone counts and the refined N counts among them) do not compile it.
"""

from functools import cache

from .errors import DomainError
from .partitions import check_partition, class_size, pad_to, strip_ones, z_weight
from .symgroup import all_perms, canonical_of_type, check_oracle_size
from .util import DEFAULT_ORACLE_LIMIT, splits


def _product_type(a, b):
    """The cycle type of a b, without building a b."""
    seen, out = bytearray(len(a)), []
    for i in range(len(a)):
        if not seen[i]:
            j, length = i, 0
            while not seen[j]:
                seen[j], j, length = 1, a[b[j]], length + 1
            out.append(length)
    return tuple(sorted(out, reverse=True))


@cache
def _class_pairs(tau):
    """{(type of a, type of a kappa): number of a in S_n} for one kappa of
    full cycle type tau."""
    n = sum(tau)
    kappa, e, out = canonical_of_type(tau, n), tuple(range(n)), {}
    for a in all_perms(n):
        key = _product_type(a, e), _product_type(a, kappa)
        out[key] = out.get(key, 0) + 1
    return out


@cache
def _all_tuples(g: int, tau) -> int:
    """N_g(tau): the 2g-tuples whose commutator product is one fixed
    permutation kappa of full cycle type tau.

    [a, b] = kappa iff b conjugates a^-1 to a^-1 kappa, and then the b form a
    coset of the centraliser of a^-1 (orbit-stabiliser), so N_1 sums |Z(a)|
    over the a in S_n with a^-1 kappa of the type of a; N_g puts one more
    commutator on each product kappa_1 of g - 1.  A product of commutators is
    even, so an odd kappa has none.
    """
    if (sum(tau) - len(tau)) % 2:
        return 0
    pairs = _class_pairs(tau)  # a runs over S_n as a^-1 and kappa_1^-1 do
    if g == 1:
        return sum(c * z_weight(lam) for (lam, mu), c in pairs.items() if lam == mu)
    return sum(c * _all_tuples(g - 1, lam) * _all_tuples(1, mu)
               for (lam, mu), c in pairs.items())


@cache
def joined_count(g: int, blocks) -> int:
    """The 2g-tuples whose commutator product is one fixed permutation kappa,
    and whose orbits join the blocks of kappa's cycles into one orbit.

    blocks is a sorted tuple of blocks, each the weakly decreasing lengths of
    its cycles.  One block counts every tuple, N_g of its cycle type; one
    block per cycle counts the transitive tuples, t_g of the cycle type.  A
    tuple joins the blocks into parts, each part's tuple joining that part
    into one orbit, so N_g of all the cycles sums, over the part Y that holds
    the first block, joined_count(Y) times N_g of the other blocks; the term
    of Y = all the blocks is the count sought.  Y runs over the sub-multisets
    of the other blocks (util.splits), each as often as it has positions.
    """
    if g < 1:
        raise DomainError("g must be >= 1")

    def merged(bs):
        return tuple(sorted((x for b in bs for x in b), reverse=True))

    total = _all_tuples(g, merged(blocks))
    first = blocks[0]
    for inside, outside, w in splits(blocks[1:]):
        if outside:  # every part Y but all the blocks
            total -= (w * joined_count(g, tuple(sorted((first, *inside))))
                      * _all_tuples(g, merged(outside)))
    return total


def count_commutator_type(g: int, nu, d: int,
                          limit: int = DEFAULT_ORACLE_LIMIT) -> int:
    """Number of 2g-tuples in S_d^2g whose commutator product has padded type
    nu: |C_nu| N_g(nu)."""
    if g < 1:
        raise DomainError("g must be >= 1")
    nu = check_partition(nu)
    if sum(nu) > d:
        raise DomainError("|nu| > d")
    check_oracle_size(d, limit, g)
    target = pad_to(strip_ones(nu), d)
    return class_size(target, d) * joined_count(g, (target,))
