"""The cross-validation suites of `verify`: only that subcommand imports this
module.

Each suite yields one (inputs, values) pair per case, where values maps each
route's name to its result in the order a counterexample prints them.  A case
fails when its values differ, or when its one value is not 0.
"""

import json
import sys

from .errors import DomainError
from .util import VARIANTS, rat_str


def _splits(b):
    """Every (k, l, m) with k + l + m = b, in the order verify checks them."""
    return [(k, l, b - k - l) for k in range(b + 1) for l in range(b - k + 1)]


def _suite_oracle_vs_characters(dmax, oracle_limit):
    from .characters import check_partition_budget, sector_family
    from .partitions import source_genus_for
    from .series import _euler_solve, _subkeys
    from .symgroup import triply_mixed_slots

    check_partition_budget(dmax)
    for g in (0, 1):
        for profiles in [(), ((2,),), ((3,),), ((2,), (2,))]:
            cases = {}  # {d: {b: source genus}} for b <= 3 and genus <= 3
            for d in range(1, dmax + 1):
                if any(sum(p) > d for p in profiles):
                    continue
                for b in range(0, 4):
                    try:
                        gp = source_genus_for(g, d, profiles, b)
                    except DomainError:
                        continue
                    if gp <= 3:
                        cases.setdefault(d, {})[b] = gp
            # one oracle walk per degree; one lambda-sum family holds every
            # disconnected value, and one potential log of it every connected one
            keys = {key for bs in cases.values() for b in bs for klm in _splits(b)
                    for key in _subkeys((*klm, profiles))}
            family = sector_family(g, keys, dmax)
            conn = _euler_solve(family, log=True)
            for d, bs in cases.items():
                slots = triply_mixed_slots(g, d, profiles, bs, oracle_limit)
                for b, gp in bs.items():
                    for k, l, m in _splits(b):
                        key = k, l, m, profiles
                        for connected in (False, True):
                            chars = (conn if connected else family)[key][d]
                            yield ({"g": g, "gp": gp, "d": d,
                                    "profiles": [list(p) for p in profiles],
                                    "k": k, "l": l, "m": m, "connected": connected},
                                   {"oracle": slots[k, l, m][connected],
                                    "characters": chars})


def _suite_n_recursion(dmax, oracle_limit):
    from .double_recursion import N_value, double_hurwitz
    from .partitions import enumerate_partitions, transposition_count
    from .symgroup import monotone_double_count, oracle_N_slots

    for d in range(1, dmax + 1):
        parts = enumerate_partitions(d)
        for mu in parts:
            for nu in parts:
                for g in range(0, 3):
                    b = transposition_count(0, g, d, (mu, nu))
                    if b < 0 or b > 3:
                        continue
                    for variant in VARIANTS:
                        inputs = {"variant": variant, "g": g,
                                  "mu": list(mu), "nu": list(nu)}
                        slots = oracle_N_slots(variant, g, mu, nu, oracle_limit)
                        for i in range(1, len(mu) + 1):
                            for l in range(1, nu[-1] + 1):
                                got = N_value(variant, g, mu[i - 1],
                                              mu[:i - 1] + mu[i:], nu, l)
                                yield ({**inputs, "l": l, "i": i},
                                       {"oracle": slots.get((l, i), 0),
                                        "recursion": got})
                        want = monotone_double_count(
                            g, mu, nu, strict=(variant == "strict"),
                            limit=oracle_limit)
                        got = double_hurwitz(variant, g, mu, nu)
                        yield inputs, {"oracle": want, "recursion": got}


def _suite_quantum_curve(dmax=8, bmax=8):
    from .quantum_curve import residual_max_abs

    for variant in VARIANTS:
        for g in (0, 1, 2):
            yield ({"variant": variant, "g": g},
                   {"max_abs_residual": residual_max_abs(variant, g, dmax, bmax)})


def _suite_toprec(mu_max):
    from .partitions import compositions
    from .spectral import ceo_omega, cut_and_join_C, extract_C, oracle_C

    targets = [(g, n) for g in range(3) for n in range(1, 5)
               if 0 < 2 * g - 2 + n <= 4]
    for (g, n) in targets:
        om = ceo_omega(g, n)
        for tot in range(n, mu_max + 1):
            for mu in compositions(tot, n):
                yield ({"g": g, "n": n, "mu": list(mu)},
                       {"extract": extract_C(om, mu),
                        "cut_and_join": cut_and_join_C(g, n, mu),
                        "oracle": oracle_C(g, n, mu)})


def _suite_tropical(windows):
    """The genus-g elliptic sums against the character series with 2g - 2
    completed cycles, d = 1..dmax for each (g, dmax) window; both variants
    sum one cover list per (g, d)."""
    from .characters import connected_hurwitz_qseries
    from .tropical import enumerate_elliptic_covers, tropical_elliptic_sum

    for g, dmax in windows:
        covers = {d: enumerate_elliptic_covers(g, d) for d in range(1, dmax + 1)}
        for variant in VARIANTS:
            kl = (0, 2 * g - 2, 0) if variant == "monotone" else (0, 0, 2 * g - 2)
            series = connected_hurwitz_qseries(1, kl[0], kl[1], kl[2], (), dmax)
            for d in range(1, dmax + 1):
                yield ({"variant": variant, "g": g, "d": d},
                       {"tropical": tropical_elliptic_sum(variant, g, d, covers[d]),
                        "characters": series.coefficient(d)})


def _suite_golden_series():
    from .characters import connected_hurwitz_qseries, sector_family
    from .partitions import partition_count
    from .series import QSeries

    golden = [
        ((2, 0, 0, ()), 2, [2, 16, 60, 160, 360, 672, 1240]),
        ((0, 2, 0, ()), 2, [2, 13, 44, 109, 235, 422, 760]),
        ((0, 0, 2, ()), 2, [0, 3, 16, 51, 125, 250, 480]),
    ]
    for (k, l, m, profs), lo, expect in golden:
        ser = connected_hurwitz_qseries(1, k, l, m, profs, lo + len(expect) - 1)
        got = [ser.coefficient(d) for d in range(lo, lo + len(expect))]
        yield {"k": k, "l": l, "m": m}, {"got": got, "expected": expect}
    # the mu=(3) series is the q-bracket of the sector functional
    (num,) = sector_family(1, [(2, 0, 0, ((3,),))], 6).values()
    den = QSeries([partition_count(d) for d in range(7)])
    got = [(QSeries(num) / den).coefficient(d) for d in range(3, 7)]
    yield ({"profiles": [[3]], "k": 2},
           {"got": got, "expected": [36, 540, 3606, 15726]})


# name -> suite, called with verify's --dmax (widened by --deep), --deep and
# --oracle-dmax; keyed in the order of cli.SUITE_NAMES, the --suite choices
SUITES = {
    "oracle-vs-characters": lambda dmax, deep, oracle_dmax:
        _suite_oracle_vs_characters(min(dmax, oracle_dmax), oracle_dmax),
    "n-recursion": lambda dmax, deep, oracle_dmax:
        _suite_n_recursion(min(dmax + 1, oracle_dmax), oracle_dmax),
    "quantum-curve": lambda dmax, deep, oracle_dmax: _suite_quantum_curve(),
    "toprec": lambda dmax, deep, oracle_dmax:
        _suite_toprec(min(4, oracle_dmax)),
    # --deep adds genus 3, where a vertex's local invariant reaches 4
    "tropical": lambda dmax, deep, oracle_dmax:
        _suite_tropical(((2, 7), (3, 3)) if deep else ((2, 5),)),
    "golden-series": lambda dmax, deep, oracle_dmax: _suite_golden_series(),
}


def _json_value(v):
    """A value as a counterexample prints it: ints as JSON ints, other
    rationals as rat_str strings, lists element by element."""
    if isinstance(v, list):
        return [_json_value(x) for x in v]
    return v if isinstance(v, int) else rat_str(v)


def run_suite(name, dmax, deep, oracle_dmax):
    """Run one suite of SUITES at verify's --dmax, --deep and --oracle-dmax.

    Returns (cases checked, first counterexample or None).
    """
    checked, first_fail = 0, None
    for inputs, values in SUITES[name](dmax + (2 if deep else 0), deep, oracle_dmax):
        checked += 1
        first, *rest = values.values()
        failed = any(v != first for v in rest) if rest else first != 0
        if failed and first_fail is None:
            first_fail = {"inputs": inputs,
                          **{route: _json_value(v) for route, v in values.items()}}
    return checked, first_fail


def verify(suite, dmax, deep, oracle_dmax):
    """`verify --suite <suite>` (one name of SUITES, or "all") at its --dmax,
    --deep and --oracle-dmax: prints the tally and returns the exit code."""
    if dmax < 0:
        raise DomainError(f"--dmax must be >= 0, got {dmax}")
    selected = list(SUITES) if suite == "all" else [suite]
    results = [run_suite(name, dmax, deep, oracle_dmax) for name in selected]
    checked = sum(r[0] for r in results)
    failures = [r[1] for r in results if r[1] is not None]
    # a counterexample outranks an empty suite: it prints and exits 1
    for name, (count, _) in zip(selected, results):
        if count == 0 and not failures:
            raise DomainError(f"suite {name} checked no case")
    sys.stdout.write(f"checked: {checked}, failures: {len(failures)}\n")
    if failures:
        sys.stdout.write(json.dumps({"first_counterexample": failures[0]}) + "\n")
        return 1
    return 0
