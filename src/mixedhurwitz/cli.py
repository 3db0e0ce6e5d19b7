"""Command-line front end.

Each subcommand imports only the modules of the route it runs, so a launch
compiles only the code its subcommand can reach: the verify suites live in
suites.  No subcommand reads or writes files: --cache-dir is accepted only
empty, as perfbench/workloads.py passes it, and sets nothing.

Exit codes: 0 success, 1 verification failure (with a machine-readable first
counterexample), 2 domain errors, 3 resource-limit errors.  Identical
invocations produce byte-identical documents: keys are emitted in fixed
order and rationals as canonical "num/den" strings.
"""

import argparse
import json
import sys

from .errors import DomainError, ResourceLimitError
from .util import DEFAULT_ORACLE_LIMIT, ORACLE_SIZE_LIMIT, VARIANTS, rat_str

# the suites of `verify`, in the order --suite all runs them: the keys of
# suites.SUITES, which only verify imports
SUITE_NAMES = ("oracle-vs-characters", "n-recursion", "quantum-curve", "toprec",
               "tropical", "golden-series")


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


def _text(value) -> str:
    """A CSV or plain field: a string as it is, any other value (a number,
    bool, None, list or dict) as its JSON text."""
    return value if isinstance(value, str) else json.dumps(value)


def emit(doc, fmt: str, csv_rows=None):
    if fmt == "json":
        sys.stdout.write(json.dumps(doc) + "\n")
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        for row in csv_rows or doc.items():
            writer.writerow(map(_text, row))
    else:
        for k, v in doc.items():
            sys.stdout.write(f"{k}: {_text(v)}\n")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "plain"),
                        default=argparse.SUPPRESS)
    common.add_argument("--cache-dir", default=argparse.SUPPRESS,
                        help="accepted empty only: the disk cache was removed")
    common.add_argument("--oracle-dmax", type=int, default=argparse.SUPPRESS,
                        help="largest degree the brute-force oracle may attempt")
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="accepted if >= 1; verify runs its suites serially")
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
    d.add_argument("--variant", choices=VARIANTS, required=True)
    d.add_argument("--mu", required=True)
    d.add_argument("--nu", required=True)
    d.add_argument("--genus", type=int, required=True, help="source genus")

    tr = sub.add_parser("tropical", help="elliptic tropical cover sums")
    tr.add_argument("--genus", type=int, required=True)
    tr.add_argument("--degree", type=int, required=True)
    tr.add_argument("--variant", choices=VARIANTS, required=True)
    tr.add_argument("--list", action="store_true", dest="list_covers")

    qc = sub.add_parser("qc", help="quantum-curve operations")
    qcsub = qc.add_subparsers(dest="qc_command", required=True)
    qv = qcsub.add_parser("verify", help="apply the annihilating operator")
    qv.add_argument("--variant", choices=VARIANTS, required=True)
    qv.add_argument("--genus", type=int, required=True)
    qv.add_argument("--dmax", type=int, default=8)
    qv.add_argument("--bmax", type=int, default=8)

    v = sub.add_parser("verify", help="cross-validation suites")
    v.add_argument("--suite", required=True, choices=(*SUITE_NAMES, "all"))
    v.add_argument("--dmax", type=int, default=4)
    v.add_argument("--deep", action="store_true",
                   help="extend the suite ranges beyond the desk-scale defaults")
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
    from .characters import connected_hurwitz_qseries
    from .partitions import partition_count, transposition_count
    from .series import QSeries

    if args.qmax < 0:
        raise DomainError("--qmax must be >= 0")
    profiles = parse_profiles(args.profiles)
    b = args.k + args.l + args.m
    # at base genus 1 the degree drops out of the Riemann-Hurwitz count
    if args.base_genus == 1 and transposition_count(1, args.source_genus, 0,
                                                    profiles) != b:
        raise DomainError(f"--source-genus {args.source_genus} does not fit "
                          f"base genus 1 with k+l+m = {b} and these profiles")
    connected = not (args.bracket or getattr(args, "disconnected", False))
    series = connected_hurwitz_qseries(args.base_genus, args.k, args.l, args.m,
                                       profiles, args.qmax, connected)
    if not args.bracket:
        return series
    # the bracket: the disconnected series over the partition function
    return series / QSeries([partition_count(d) for d in range(args.qmax + 1)])


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
    # first the check whose budget bounds |mu|: extraction's cost grows with mu
    cj = cut_and_join_C(args.g, args.n, mu)
    c = extract_C(ceo_omega(args.g, args.n), mu)
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
    mults = [c.multiplicity(args.variant) for c in covers]
    doc = {"total": rat_str(sum(mults))}
    if args.list_covers:
        doc["covers"] = [
            {
                "vertices": [{"genus": gv, "local_invariant": lam}
                             for (gv, lam) in c.vertices],
                "edges": [{"src": a, "tgt": b, "weight": w, "windings": k}
                          for (a, b, w, k, kind) in c.edges],
                "aut": c.aut,
                "multiplicity": rat_str(mult),
            }
            for c, mult in zip(covers, mults)
        ]
    emit(doc, args.format)
    return 0


def cmd_qc(args):
    from .quantum_curve import residual_max_abs

    worst = residual_max_abs(args.variant, args.genus, args.dmax, args.bmax)
    sys.stdout.write(rat_str(worst) + "\n")
    return 0 if worst == 0 else 1


def cmd_verify(args):
    from .suites import verify

    return verify(args.suite, args.dmax, args.deep, args.oracle_dmax)


COMMANDS = {
    "compute": cmd_compute,
    "qseries": cmd_qseries,
    "fit": cmd_fit,
    "toprec": cmd_toprec,
    "double": cmd_double,
    "tropical": cmd_tropical,
    "qc": cmd_qc,
    "verify": cmd_verify,
}


def resolve_global_flags(args):
    """Set each global flag left out of argv to its default, and check them.

    ``--cache-dir`` takes only the empty value and sets nothing.
    """
    if getattr(args, "cache_dir", ""):
        raise DomainError(f"--cache-dir {args.cache_dir!r}: the character-table "
                          "disk cache was removed; only --cache-dir= is accepted")
    if not hasattr(args, "format"):
        args.format = "json"
    if not hasattr(args, "oracle_dmax"):
        args.oracle_dmax = DEFAULT_ORACLE_LIMIT
    if not hasattr(args, "jobs"):
        args.jobs = 1
    if args.oracle_dmax < 0:
        raise DomainError(f"--oracle-dmax must be >= 0, got {args.oracle_dmax}")
    if args.oracle_dmax > max(ORACLE_SIZE_LIMIT):
        raise ResourceLimitError(f"--oracle-dmax {args.oracle_dmax} above the "
                                 f"oracle ceiling {max(ORACLE_SIZE_LIMIT)}")
    if args.jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        resolve_global_flags(args)
        return COMMANDS[args.command](args)
    except DomainError as e:
        sys.stderr.write(f"domain error: {e}\n")
        return 2
    except ResourceLimitError as e:
        sys.stderr.write(f"resource limit: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
