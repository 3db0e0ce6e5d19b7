"""Derandomised property tests on top of the fixed grids.

Each runs the same examples on every run (derandomize=True), so a failure
reproduces without a stored example database.
"""

from collections import Counter
from fractions import Fraction
from math import comb

from hypothesis import assume, example, given, settings, strategies as st

from mixedhurwitz.characters import (
    connected_hurwitz_qseries,
    potential_log,
    subsectors,
)
from mixedhurwitz.double_recursion import N_value, _exp_at, double_hurwitz
from mixedhurwitz.errors import DomainError
from mixedhurwitz.partitions import enumerate_partitions
from mixedhurwitz.spectral import ceo_omega, cut_and_join_C, extract_C
from mixedhurwitz.symgroup import (
    FREE,
    STRICT,
    WEAK,
    HurwitzSpec,
    _codes,
    _walk,
    all_perms,
    count_triply_mixed,
    monotone_double_count,
    oracle_N_slots,
    orbit_labels,
    source_genus_for,
    transposition,
)
from mixedhurwitz.tropical import (
    enumerate_elliptic_covers,
    tropical_elliptic_sum,
)
from test_tropical import _check_cover_invariants

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60)

profiles = st.lists(st.sampled_from([(), (2,), (3,), (2, 2)]), max_size=2).map(tuple)


@st.composite
def sector_families(draw):
    """A target sector and a random value on each of its subsectors of
    degree >= 1."""
    target = (draw(st.integers(0, 2)), draw(st.integers(0, 1)),
              draw(st.integers(0, 1)), draw(profiles), draw(st.integers(1, 4)))
    sectors = sorted(s for s in subsectors(target) if s[4])
    values = draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        min_size=len(sectors), max_size=len(sectors)))
    return target, dict(zip(sectors, values))


@PROPERTY
@given(sector_families())
def test_exp_inverts_potential_log(family):
    target, disconnected = family
    connected = potential_log(disconnected, list(disconnected))
    assert _exp_at(connected, target) == disconnected[target]


def _reference_euler_sum(s, conn, disc):
    """Sum of C(k, k1) d1 conn[s1] disc[s - s1] over subsectors s1 of s with
    1 <= d1 < d, term by term in Fractions."""
    k, l, m, profiles, d = s
    total = Fraction(0)
    for s1 in subsectors(s):
        k1, l1, m1, prof1, d1 = s1
        if not 1 <= d1 < d:
            continue
        prof2 = tuple(tuple(sorted((Counter(p) - Counter(p1)).elements(),
                                   reverse=True))
                      for p, p1 in zip(profiles, prof1))
        total += (comb(k, k1) * d1 * conn[s1]
                  * disc[(k - k1, l - l1, m - m1, prof2, d - d1)])
    return total


def _reference_log_exp(values, log):
    """d P_s = d L_s + sum C(k, k1) d1 L_s1 P_s2, solved degree by degree
    for L (log) or for P (exp)."""
    out = {}
    for s in sorted(values, key=lambda s: s[4]):
        conn, disc = (out, values) if log else (values, out)
        sign = -1 if log else 1
        out[s] = values[s] + sign * _reference_euler_sum(s, conn, disc) / s[4]
    return out


@st.composite
def rational_families(draw):
    """A target of degree <= 5 and a value with denominator <= 12 on each of
    its subsectors of degree >= 1, zeros and negative values included."""
    target = (draw(st.integers(0, 2)), draw(st.integers(0, 1)),
              draw(st.integers(0, 1)), draw(profiles), draw(st.integers(1, 5)))
    sectors = sorted(s for s in subsectors(target) if s[4])
    value = st.one_of(st.just(Fraction(0)), st.fractions(
        min_value=-7, max_value=7, max_denominator=12))
    values = draw(st.lists(value, min_size=len(sectors), max_size=len(sectors)))
    return target, dict(zip(sectors, values))


@PROPERTY
@given(rational_families())
def test_log_and_exp_match_a_fraction_reference(family):
    target, values = family
    logs = _reference_log_exp(values, log=True)
    got = potential_log(values, list(values))
    assert got == logs
    assert all(type(v) is Fraction for v in got.values())
    exp = _exp_at(values, target)
    assert type(exp) is Fraction
    assert exp == _reference_log_exp(values, log=False)[target]


@st.composite
def connected_specs(draw):
    """A connected spec with d <= 4 and k + l + m <= 3."""
    g, d = draw(st.integers(0, 1)), draw(st.integers(1, 4))
    profs = tuple(p for p in draw(profiles) if sum(p) <= d)
    b = draw(st.integers(0, 3))
    k = draw(st.integers(0, b))
    l = draw(st.integers(0, b - k))
    try:
        gp = source_genus_for(g, d, profs, b)
    except DomainError:  # b of the wrong parity, or too few for the profiles
        assume(False)
    return HurwitzSpec(g, gp, d, profs, k, l, b - k - l, connected=True)


@PROPERTY
@given(connected_specs())
def test_connected_characters_match_oracle(spec):
    got = connected_hurwitz_qseries(spec.base_genus, spec.k, spec.l, spec.m,
                                    spec.profiles, spec.degree)
    assert got.coefficient(spec.degree) == count_triply_mixed(spec, oracle_limit=4)


@st.composite
def tr_correlators(draw):
    """(g, n, mu) with 0 < 2g-2+n <= 5 and |mu| <= n + 3."""
    g = draw(st.integers(0, 3))
    n = draw(st.integers(max(1, 3 - 2 * g), 7 - 2 * g))
    mu = [1] * n
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        mu[i] += 1
    return g, n, tuple(mu)


@PROPERTY
@given(tr_correlators())
def test_recursion_matches_cut_and_join(case):
    g, n, mu = case
    assert extract_C(ceo_omega(g, n), mu) == cut_and_join_C(g, n, mu)


@st.composite
def double_cases(draw):
    """(variant, g, mu, nu) with |mu| = |nu| <= 6 and b = 2g-2+l(mu)+l(nu) <= 4."""
    d = draw(st.integers(1, 6))
    parts = enumerate_partitions(d)
    mu = draw(st.sampled_from([p for p in parts if len(p) <= 5]))
    nu = draw(st.sampled_from([p for p in parts if len(p) <= 6 - len(mu)]))
    g = draw(st.integers(0, (6 - len(mu) - len(nu)) // 2))
    return draw(st.sampled_from(("monotone", "strict"))), g, mu, nu


# 400 examples reach every one of the 398 cases, 2442 slots in all
@settings(PROPERTY, max_examples=400)
@given(double_cases())
def test_n_recursion_matches_oracle(case):
    variant, g, mu, nu = case
    recursion = {}
    for i in range(1, len(mu) + 1):
        for l in range(1, nu[-1] + 1):
            n = N_value(variant, g, mu[i - 1], mu[:i - 1] + mu[i:], nu, l)
            if n:
                recursion[l, i] = n
    # whole tables: an oracle slot outside the (l, i) range fails too
    assert recursion == oracle_N_slots(variant, g, mu, nu)
    assert double_hurwitz(variant, g, mu, nu) == monotone_double_count(
        g, mu, nu, strict=(variant == "strict"))


@st.composite
def elliptic_cases(draw):
    """(variant, g, d) with d <= 7 at g = 2 and d <= 4 at g = 3."""
    g = draw(st.sampled_from([2, 3]))
    return (draw(st.sampled_from(["monotone", "strict"])), g,
            draw(st.integers(1, 7 if g == 2 else 4)))


@settings(PROPERTY, max_examples=30)
@given(elliptic_cases())
def test_tropical_matches_characters(case):
    variant, g, d = case
    covers = enumerate_elliptic_covers(g, d)
    assert len(set(covers)) == len(covers)
    for c in covers:
        _check_cover_invariants(c, elliptic_genus=g)
        assert c.degree == d
    kl = (0, 2 * g - 2, 0) if variant == "monotone" else (0, 0, 2 * g - 2)
    want = connected_hurwitz_qseries(1, *kl, (), d).coefficient(d)
    assert tropical_elliptic_sum(variant, g, d) == want


def _reference_walk(d, states, blocks):
    """_walk on plain tuples: each step swaps two entries of the permutation
    and joins their orbits with orbit_labels."""
    for length, mode in blocks:
        if not length:  # no step, so no restart either
            continue
        restarted = Counter()
        for (p, _, lab), c in states.items():
            restarted[p, 0, lab] += c
        states = restarted
        for _ in range(length):
            nxt = Counter()
            for (p, last, lab), c in states.items():
                for t in range(1, d):
                    if t < last or (mode == STRICT and t == last):
                        continue
                    for s in range(t):
                        q = list(p)
                        q[s], q[t] = p[t], p[s]
                        joined = orbit_labels(d, (lab, transposition(d, s, t)))
                        nxt[tuple(q), 0 if mode == FREE else t, joined] += c
            states = nxt
    return dict(states)


@st.composite
def walk_cases(draw):
    """Start states over S_d, d <= 5, and up to three blocks of up to two
    steps.  A state's labels are the one-orbit labels (how a walk that needs
    no transitivity starts) or the cycles of a random permutation, which
    reach every set partition."""
    d = draw(st.integers(1, 5))
    perm = st.sampled_from(all_perms(d))
    labels = st.one_of(st.just((0,) * d),
                       perm.map(lambda p: orbit_labels(d, (p,))))
    states = draw(st.dictionaries(
        st.tuples(perm, st.integers(0, d - 1), labels), st.integers(1, 9),
        min_size=1, max_size=4))
    blocks = draw(st.lists(st.tuples(
        st.integers(0, 2), st.sampled_from((FREE, WEAK, STRICT))), max_size=3))
    return d, states, blocks


@PROPERTY
# a strict block from last t = d - 1: the block restarts last t, and a state
# whose step used t = d - 1 has no strict successor
@example((4, {((1, 0, 3, 2), 3, (0, 0, 2, 2)): 2}, [(3, STRICT)]))
@given(walk_cases())
def test_coded_walk_matches_a_tuple_reference(case):
    d, states, blocks = case
    perms, labels = _codes(d)
    coded = {(perms.code(p), last, labels.code(lab)): c
             for (p, last, lab), c in states.items()}
    got = {(perms.items[p], last, labels.items[lab]): c
           for (p, last, lab), c in _walk(d, coded, blocks).items()}
    assert got == _reference_walk(d, states, blocks)
