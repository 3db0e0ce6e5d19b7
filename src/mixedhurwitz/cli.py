"""Command-line front end.

Each subcommand imports only the modules of the route it runs.

Exit codes: 0 success, 1 verification failure (with a machine-readable first
counterexample), 2 domain errors, 3 resource-limit errors.  Identical
invocations produce byte-identical documents: keys are emitted in fixed
order and rationals as canonical "num/den" strings.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import DomainError, ResourceLimitError
from .util import CACHE_ENV, DEFAULT_ORACLE_LIMIT, rat_str

ORACLE_LIMIT_ENV = "MIXEDHURWITZ_ORACLE_DMAX"


def parse_composition(text: str):
    """Comma-separated positive parts, in the order given."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as e:
        raise DomainError(f"bad parts {text!r}") from e
    if min(parts) < 1:
        raise DomainError(f"parts must be positive integers: {text!r}")
    return parts


def parse_partition(text: str):
    from .partitions import check_partition

    return check_partition(sorted(parse_composition(text), reverse=True))


def parse_profiles(text: str):
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_partition(p) for p in text.split(";") if p.strip())


def emit(doc, fmt: str, csv_rows=None):
    if fmt == "json":
        sys.stdout.write(json.dumps(doc) + "\n")
    elif fmt == "csv":
        rows = csv_rows or [[k, v] for k, v in doc.items()]
        for row in rows:
            sys.stdout.write(",".join(str(x) for x in row) + "\n")
    else:
        for k, v in doc.items():
            sys.stdout.write(f"{k}: {v}\n")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "plain"),
                        default=argparse.SUPPRESS)
    common.add_argument("--cache-dir", default=argparse.SUPPRESS,
                        help=f"character-table cache directory (or ${CACHE_ENV})")
    common.add_argument("--oracle-dmax", type=int, default=argparse.SUPPRESS,
                        help="largest degree the brute-force oracle may attempt")
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="worker processes for verification suites "
                        "(results are deterministic regardless)")
    p = argparse.ArgumentParser(
        prog="mixedhurwitz",
        description="Exact triply mixed Hurwitz numbers: character sums, "
        "brute-force oracles, quantum curves, topological recursion and "
        "tropical covers.",
        parents=[common],
    )
    # global flags keep SUPPRESS defaults (never set_defaults here: that
    # would mutate the shared parent actions and let the subparser clobber
    # values parsed before the subcommand); resolve_global_flags() fills in
    # the ones left out of argv
    sub = p.add_subparsers(dest="command", required=True, parser_class=(
        lambda **kw: argparse.ArgumentParser(parents=[common], **kw)))

    c = sub.add_parser("compute", help="one triply mixed Hurwitz number")
    c.add_argument("--base-genus", type=int, required=True)
    c.add_argument("--source-genus", type=int, required=True)
    c.add_argument("--degree", type=int, required=True)
    c.add_argument("--profiles", default="", help="e.g. '3;2,2' (semicolon-separated)")
    c.add_argument("--k", type=int, default=0)
    c.add_argument("--l", type=int, default=0)
    c.add_argument("--m", type=int, default=0)
    c.add_argument("--connected", action="store_true")
    c.add_argument("--labeled", action="store_true")
    c.add_argument("--method", choices=("characters", "oracle"), default="characters")

    q = sub.add_parser("qseries", help="generating series over the degree")
    q.add_argument("--base-genus", type=int, required=True)
    q.add_argument("--source-genus", type=int, required=True, help="checked "
                   "at base genus 1; elsewhere it varies with d and is not read")
    q.add_argument("--profiles", default="")
    q.add_argument("--k", type=int, default=0)
    q.add_argument("--l", type=int, default=0)
    q.add_argument("--m", type=int, default=0)
    q.add_argument("--qmax", type=int, required=True)
    q.add_argument("--disconnected", action="store_true")
    q.add_argument("--bracket", action="store_true",
                   help="emit the q-bracket (disconnected / partition gf) "
                   "instead of the connected series")

    f = sub.add_parser("fit", help="fit a q-series into Q[P,Q,R]")
    f.add_argument("--base-genus", type=int, default=1)
    f.add_argument("--source-genus", type=int, required=True, help="checked "
                   "at base genus 1; elsewhere it varies with d and is not read")
    f.add_argument("--profiles", default="")
    f.add_argument("--k", type=int, default=0)
    f.add_argument("--l", type=int, default=0)
    f.add_argument("--m", type=int, default=0)
    f.add_argument("--qmax", type=int, required=True)
    f.add_argument("--weight", type=int, required=True)
    f.add_argument("--bracket", action="store_true")

    t = sub.add_parser("toprec", help="topological-recursion correlator")
    t.add_argument("--g", type=int, required=True)
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--mu", required=True, help="comma-separated parts")
    t.add_argument("--skip-oracle", action="store_true")

    d = sub.add_parser("double", help="monotone/strict double Hurwitz number")
    d.add_argument("--variant", choices=("monotone", "strict"), required=True)
    d.add_argument("--mu", required=True)
    d.add_argument("--nu", required=True)
    d.add_argument("--genus", type=int, required=True, help="source genus")

    tr = sub.add_parser("tropical", help="elliptic tropical cover sums")
    tr.add_argument("--genus", type=int, required=True)
    tr.add_argument("--degree", type=int, required=True)
    tr.add_argument("--variant", choices=("monotone", "strict"), required=True)
    tr.add_argument("--list", action="store_true", dest="list_covers")

    qc = sub.add_parser("qc", help="quantum-curve operations")
    qcsub = qc.add_subparsers(dest="qc_command", required=True)
    qv = qcsub.add_parser("verify", help="apply the annihilating operator")
    qv.add_argument("--variant", choices=("monotone", "strict"), required=True)
    qv.add_argument("--genus", type=int, required=True)
    qv.add_argument("--dmax", type=int, default=8)
    qv.add_argument("--bmax", type=int, default=8)

    v = sub.add_parser("verify", help="cross-validation suites")
    v.add_argument("--suite", required=True, choices=(*SUITES, "all"))
    v.add_argument("--dmax", type=int, default=4)
    v.add_argument("--deep", action="store_true",
                   help="extend the suite ranges beyond the desk-scale defaults")

    ca = sub.add_parser("cache", help="character-table cache lifecycle")
    casub = ca.add_subparsers(dest="cache_command", required=True)
    cb = casub.add_parser("build")
    cb.add_argument("--dmax", type=int, required=True)
    casub.add_parser("info")
    casub.add_parser("clear")
    return p


# ---------------------------------------------------------------------------
# command implementations: each imports its route, emits its document and
# returns the exit code


def cmd_compute(args):
    from .partitions import HurwitzSpec

    spec = HurwitzSpec(args.base_genus, args.source_genus, args.degree,
                       parse_profiles(args.profiles), args.k, args.l, args.m,
                       connected=args.connected, labeled=args.labeled)
    if args.method == "oracle":
        from .symgroup import count_triply_mixed

        value = count_triply_mixed(spec, oracle_limit=args.oracle_dmax)
    elif spec.connected:
        from .characters import connected_hurwitz_qseries

        if spec.labeled:
            raise DomainError("labeled connected numbers are not exposed; "
                              "drop --labeled or use --method oracle")
        series = connected_hurwitz_qseries(
            spec.base_genus, spec.k, spec.l, spec.m, spec.profiles, spec.degree)
        value = series.coefficient(spec.degree)
    else:
        from .characters import hurwitz_by_characters

        value = hurwitz_by_characters(spec)
    emit({"value": rat_str(value)}, args.format)
    return 0


def _qseries_for(args):
    from .characters import (check_partition_budget, connected_hurwitz_qseries,
                             sector_value)
    from .partitions import partition_count, strip_ones
    from .series import QSeries

    if args.qmax < 0:
        raise DomainError("--qmax must be >= 0")
    profiles = parse_profiles(args.profiles)
    b = args.k + args.l + args.m
    if args.base_genus == 1 and 2 * args.source_genus - 2 != b + sum(
            sum(p) - len(p) for p in profiles):
        raise DomainError(f"--source-genus {args.source_genus} does not fit "
                          f"base genus 1 with k+l+m = {b} and these profiles")
    stripped = tuple(strip_ones(p) for p in profiles)
    if args.bracket:
        check_partition_budget(args.qmax)
        num = QSeries([
            sector_value(args.base_genus, args.k, args.l, args.m, stripped, d)
            for d in range(args.qmax + 1)
        ])
        return num / QSeries([partition_count(d) for d in range(args.qmax + 1)])
    if getattr(args, "disconnected", False):
        return connected_hurwitz_qseries(args.base_genus, args.k, args.l, args.m,
                                         profiles, args.qmax, connected=False)
    return connected_hurwitz_qseries(args.base_genus, args.k, args.l, args.m,
                                     profiles, args.qmax)


def cmd_qseries(args):
    series = _qseries_for(args)
    coeffs = [rat_str(series.coefficient(d)) for d in range(args.qmax + 1)]
    doc = {"var": "q", "coefficients": coeffs}
    rows = [["degree", "coefficient"]] + [[d, c] for d, c in enumerate(coeffs)]
    emit(doc, args.format, csv_rows=rows)
    return 0


def cmd_fit(args):
    from .quasimodular import fit_quasimodular

    # a FitFailure and a QuasimodularPoly both print their own document
    emit(fit_quasimodular(_qseries_for(args), args.weight).to_json(), args.format)
    return 0


def cmd_toprec(args):
    from .spectral import ceo_omega, cut_and_join_C, extract_C, oracle_C

    mu = parse_composition(args.mu)
    if len(mu) != args.n:
        raise DomainError("--mu must have exactly n parts")
    om = ceo_omega(args.g, args.n)
    c = extract_C(om, mu)
    cj = cut_and_join_C(args.g, args.n, mu)
    doc = {"C": rat_str(c), "checks": {"cut_and_join": rat_str(cj), "oracle": None}}
    if not args.skip_oracle and sum(mu) <= args.oracle_dmax:
        doc["checks"]["oracle"] = rat_str(oracle_C(args.g, args.n, mu,
                                                   limit=args.oracle_dmax))
    emit(doc, args.format)
    return 0


def cmd_double(args):
    from .double_recursion import double_hurwitz

    mu, nu = parse_partition(args.mu), parse_partition(args.nu)
    value = double_hurwitz(args.variant, args.genus, mu, nu)
    emit({"value": rat_str(value)}, args.format)
    return 0


def cmd_tropical(args):
    from .tropical import enumerate_elliptic_covers

    covers = enumerate_elliptic_covers(args.genus, args.degree)
    total = sum((c.multiplicity(args.variant) for c in covers), Fraction(0))
    doc = {"total": rat_str(total)}
    if args.list_covers:
        doc["covers"] = [
            {
                "vertices": [{"genus": gv, "local_invariant": lam}
                             for (gv, lam) in c.vertices],
                "edges": [{"src": a, "tgt": b, "weight": w, "windings": k}
                          for (a, b, w, k, kind) in c.edges],
                "aut": c.aut,
                "multiplicity": rat_str(c.multiplicity(args.variant)),
            }
            for c in covers
        ]
    emit(doc, args.format)
    return 0


def cmd_qc(args):
    from .quantum_curve import residual_max_abs

    worst = residual_max_abs(args.variant, args.genus, args.dmax, args.bmax)
    sys.stdout.write(rat_str(worst) + "\n")
    return 0 if worst == 0 else 1


# ---------------------------------------------------------------------------
# verification suites: each yields one (inputs, values) pair per case, where
# values maps each route's name to its result in the order a counterexample
# prints them.  A case fails when its values differ, or when its one value is
# not 0.


def _suite_oracle_vs_characters(dmax, oracle_limit):
    from .characters import connected_hurwitz_qseries, hurwitz_by_characters
    from .symgroup import HurwitzSpec, count_triply_mixed, source_genus_for

    profile_menu = [(), ((2,),), ((3,),), ((2,), (2,))]
    series = {}  # one connected character series per (g, k, l, m, profiles)
    for g in (0, 1):
        for profiles in profile_menu:
            for d in range(1, dmax + 1):
                if any(sum(p) > d for p in profiles):
                    continue
                for b in range(0, 4):
                    try:
                        gp = source_genus_for(g, d, profiles, b)
                    except DomainError:
                        continue
                    if gp > 3:
                        continue
                    for k in range(b + 1):
                        for l in range(b - k + 1):
                            m = b - k - l
                            for connected in (False, True):
                                spec = HurwitzSpec(g, gp, d, profiles, k, l, m,
                                                   connected=connected)
                                oracle = count_triply_mixed(spec, oracle_limit)
                                if connected:
                                    key = (g, k, l, m, profiles)
                                    if key not in series:
                                        series[key] = connected_hurwitz_qseries(
                                            g, k, l, m, profiles, dmax)
                                    chars = series[key].coefficient(d)
                                else:
                                    chars = hurwitz_by_characters(spec)
                                yield ({"g": g, "gp": gp, "d": d,
                                        "profiles": [list(p) for p in profiles],
                                        "k": k, "l": l, "m": m,
                                        "connected": connected},
                                       {"oracle": oracle, "characters": chars})


def _suite_n_recursion(dmax, oracle_limit):
    from .double_recursion import N_value, double_hurwitz
    from .partitions import enumerate_partitions
    from .symgroup import monotone_double_count, oracle_N_slots

    for d in range(1, dmax + 1):
        parts = enumerate_partitions(d)
        for mu in parts:
            for nu in parts:
                for g in range(0, 3):
                    b = 2 * g - 2 + len(mu) + len(nu)
                    if b < 0 or b > 3:
                        continue
                    for variant in ("monotone", "strict"):
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

    for variant in ("monotone", "strict"):
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


def _suite_tropical(dmax=5):
    from .characters import connected_hurwitz_qseries
    from .tropical import tropical_elliptic_sum

    for variant in ("monotone", "strict"):
        kl = (0, 2, 0) if variant == "monotone" else (0, 0, 2)
        series = connected_hurwitz_qseries(1, kl[0], kl[1], kl[2], (), dmax)
        for d in range(1, dmax + 1):
            yield ({"variant": variant, "g": 2, "d": d},
                   {"tropical": tropical_elliptic_sum(variant, 2, d),
                    "characters": series.coefficient(d)})


def _suite_golden_series():
    from .characters import connected_hurwitz_qseries, sector_value
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
    num = QSeries([sector_value(1, 2, 0, 0, ((3,),), d) for d in range(7)])
    den = QSeries([partition_count(d) for d in range(7)])
    got = [(num / den).coefficient(d) for d in range(3, 7)]
    yield ({"profiles": [[3]], "k": 2},
           {"got": got, "expected": [36, 540, 3606, 15726]})


# name -> suite, called with verify's --dmax (widened by --deep), --deep and
# --oracle-dmax
SUITES = {
    "oracle-vs-characters": lambda dmax, deep, oracle_dmax:
        _suite_oracle_vs_characters(min(dmax, oracle_dmax), oracle_dmax),
    "n-recursion": lambda dmax, deep, oracle_dmax:
        _suite_n_recursion(min(dmax + 1, oracle_dmax), oracle_dmax),
    "quantum-curve": lambda dmax, deep, oracle_dmax: _suite_quantum_curve(),
    "toprec": lambda dmax, deep, oracle_dmax:
        _suite_toprec(min(4, oracle_dmax)),
    "tropical": lambda dmax, deep, oracle_dmax:
        _suite_tropical(dmax=min(5 + (2 if deep else 0), 7)),
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

    Returns (cases checked, first counterexample or None); the serial path
    and the --jobs pool of cmd_verify both call it.
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


def cmd_verify(args):
    selected = list(SUITES) if args.suite == "all" else [args.suite]
    n = len(selected)
    if args.jobs > 1 and n > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as ex:
            results = list(ex.map(run_suite, selected, [args.dmax] * n,
                                  [args.deep] * n, [args.oracle_dmax] * n))
    else:
        results = [run_suite(name, args.dmax, args.deep, args.oracle_dmax)
                   for name in selected]
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


def cmd_cache(args):
    from .characters import default_cache_dir, save_character_table

    cache_dir = args.cache_dir or default_cache_dir()
    if args.cache_command == "build":
        paths = [save_character_table(d, cache_dir) for d in range(1, args.dmax + 1)]
        doc = {"built": paths}
    elif args.cache_command == "info":
        files = []
        if os.path.isdir(cache_dir):
            files = sorted(f for f in os.listdir(cache_dir)
                           if f.startswith("chartable-"))
        doc = {"cache_dir": cache_dir, "files": files}
    elif args.cache_command == "clear":
        removed = []
        if os.path.isdir(cache_dir):
            for f in sorted(os.listdir(cache_dir)):
                if f.startswith("chartable-") and f.endswith(".json"):
                    os.remove(os.path.join(cache_dir, f))
                    removed.append(f)
        doc = {"removed": removed}
    else:
        raise DomainError("unknown cache command")
    emit(doc, args.format)
    return 0


COMMANDS = {
    "compute": cmd_compute,
    "qseries": cmd_qseries,
    "fit": cmd_fit,
    "toprec": cmd_toprec,
    "double": cmd_double,
    "tropical": cmd_tropical,
    "qc": cmd_qc,
    "verify": cmd_verify,
    "cache": cmd_cache,
}


def apply_cache_dir(cache_dir):
    """Point the character route at cache_dir, or at no cache for None.

    A fresh characters module reads no cache, so with no directory it is
    only reset when an earlier call in this process has loaded it.
    """
    if cache_dir:
        from .characters import use_cache_dir
        use_cache_dir(cache_dir)
    elif (characters := sys.modules.get(f"{__package__}.characters")):
        characters.use_cache_dir(None)


def resolve_global_flags(args):
    """Set each global flag left out of argv: the environment, then the default.

    An empty environment value counts as unset.  An empty ``--cache-dir=``
    is a given flag, so it beats the environment and reads no cached tables.
    """
    if not hasattr(args, "format"):
        args.format = "json"
    if not hasattr(args, "cache_dir"):
        args.cache_dir = os.environ.get(CACHE_ENV) or None
    if not hasattr(args, "oracle_dmax"):
        env = os.environ.get(ORACLE_LIMIT_ENV, "").strip()
        try:
            args.oracle_dmax = int(env) if env else DEFAULT_ORACLE_LIMIT
        except ValueError:
            raise DomainError(
                f"{ORACLE_LIMIT_ENV} must be an integer, got {env!r}") from None
    if not hasattr(args, "jobs"):
        args.jobs = 1
    if args.oracle_dmax < 0:
        raise DomainError(f"--oracle-dmax (or {ORACLE_LIMIT_ENV}) must be >= 0, "
                          f"got {args.oracle_dmax}")
    if args.jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        resolve_global_flags(args)
        apply_cache_dir(args.cache_dir)
        return COMMANDS[args.command](args)
    except DomainError as e:
        sys.stderr.write(f"domain error: {e}\n")
        return 2
    except ResourceLimitError as e:
        sys.stderr.write(f"resource limit: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
