"""Command-line front end.

One table, COMMANDS, names each subcommand's handler and flags; parse_args
reads argv against it, and the usage and help texts are written from it.
Each subcommand imports only the modules of the route it runs, so a launch
compiles only the code its subcommand can reach: the verify suites live in
suites.  No subcommand reads or writes files: --cache-dir is accepted only
empty, as perfbench/workloads.py passes it, and sets nothing.

Exit codes: 0 success and --help, 1 verification failure (with a
machine-readable first counterexample), 2 usage errors (a malformed argv,
reported after a usage line) and domain errors, 3 resource-limit errors.
Identical invocations produce byte-identical documents: keys are emitted in
fixed order and rationals as canonical "num/den" strings.
"""

import json
import sys
from types import SimpleNamespace

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
    return tuple(sorted(parse_composition(text), reverse=True))


def parse_profiles(text: str):
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


# ---------------------------------------------------------------------------
# command implementations: each imports its route, emits its document and
# returns the exit code


def cmd_compute(args):
    """One triply mixed Hurwitz number.  --profiles reads as '3;2,2'."""
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
    """The generating series over the degree.  --source-genus is read at base
    genus 1 only; --bracket emits the q-bracket, not the connected series."""
    series = _qseries_for(args)
    coeffs = [rat_str(series.coefficient(d)) for d in range(args.qmax + 1)]
    doc = {"var": "q", "coefficients": coeffs}
    rows = [["degree", "coefficient"]] + [[d, c] for d, c in enumerate(coeffs)]
    emit(doc, args.format, csv_rows=rows)
    return 0


def cmd_fit(args):
    """Fit a q-series into Q[P,Q,R]; its flags read as in qseries."""
    from .quasimodular import fit_quasimodular

    # a FitFailure and a QuasimodularPoly both print their own document
    emit(fit_quasimodular(_qseries_for(args), args.weight).to_json(), args.format)
    return 0


def cmd_toprec(args):
    """A topological-recursion correlator with its cross-checks."""
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
    """A monotone or strict double Hurwitz number of source genus --genus."""
    from .double_recursion import double_hurwitz

    mu, nu = parse_partition(args.mu), parse_partition(args.nu)
    value = double_hurwitz(args.variant, args.genus, mu, nu)
    emit({"value": rat_str(value)}, args.format)
    return 0


def cmd_tropical(args):
    """Elliptic tropical cover sums.  --list lists the covers too."""
    from .tropical import enumerate_elliptic_covers

    covers = enumerate_elliptic_covers(args.genus, args.degree)
    mults = [c.multiplicity(args.variant) for c in covers]
    doc = {"total": rat_str(sum(mults))}
    if args.list:
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
    """The quantum curve's residual, its largest |coefficient|: 0 passes."""
    from .quantum_curve import residual_max_abs

    worst = residual_max_abs(args.variant, args.genus, args.dmax, args.bmax)
    sys.stdout.write(rat_str(worst) + "\n")
    return 0 if worst == 0 else 1


def cmd_verify(args):
    """Cross-validation suites; --deep widens their ranges."""
    from .suites import verify

    return verify(args.suite, args.dmax, args.deep, args.oracle_dmax)


# ---------------------------------------------------------------------------
# the flag table and its parser

# flag -> (kind, default): kind is int, str, a tuple of choices or bool, a
# switch.  A global flag may stand anywhere in argv
REQUIRED = object()
SWITCH = (bool, False)
GLOBAL = {"--format": (("json", "csv", "plain"), "json"), "--cache-dir": (str, ""),
          "--oracle-dmax": (int, DEFAULT_ORACLE_LIMIT), "--jobs": (int, 1)}
SECTOR = {"--profiles": (str, ""), "--k": (int, 0), "--l": (int, 0), "--m": (int, 0)}

# command key -> (handler, flags); "qc verify" is one key
COMMANDS = {
    "compute": (cmd_compute, {
        "--base-genus": (int, REQUIRED), "--source-genus": (int, REQUIRED),
        "--degree": (int, REQUIRED), **SECTOR, "--connected": SWITCH,
        "--labeled": SWITCH, "--method": (("characters", "oracle"), "characters")}),
    "qseries": (cmd_qseries, {
        "--base-genus": (int, REQUIRED), "--source-genus": (int, REQUIRED),
        **SECTOR, "--qmax": (int, REQUIRED), "--disconnected": SWITCH,
        "--bracket": SWITCH}),
    "fit": (cmd_fit, {
        "--base-genus": (int, 1), "--source-genus": (int, REQUIRED), **SECTOR,
        "--qmax": (int, REQUIRED), "--weight": (int, REQUIRED), "--bracket": SWITCH}),
    "toprec": (cmd_toprec, {"--g": (int, REQUIRED), "--n": (int, REQUIRED),
                            "--mu": (str, REQUIRED), "--skip-oracle": SWITCH}),
    "double": (cmd_double, {"--variant": (VARIANTS, REQUIRED), "--mu": (str, REQUIRED),
                            "--nu": (str, REQUIRED), "--genus": (int, REQUIRED)}),
    "tropical": (cmd_tropical, {"--genus": (int, REQUIRED), "--degree": (int, REQUIRED),
                                "--variant": (VARIANTS, REQUIRED), "--list": SWITCH}),
    "qc verify": (cmd_qc, {"--variant": (VARIANTS, REQUIRED),
                           "--genus": (int, REQUIRED), "--dmax": (int, 8),
                           "--bmax": (int, 8)}),
    "verify": (cmd_verify, {"--suite": ((*SUITE_NAMES, "all"), REQUIRED),
                            "--dmax": (int, 4), "--deep": SWITCH}),
}


class UsageError(Exception):
    """A malformed argv; args: the key of the command to show, the reason."""


def _spelling(flag, kind, default):
    """One flag as a usage line writes it."""
    if isinstance(kind, tuple):
        flag += " {" + ",".join(kind) + "}"
    elif kind is not bool:
        flag += " " + kind.__name__.upper()
    return flag if default is REQUIRED else f"[{flag}]"


def _usage(key):
    """The usage line of a command, or of every command whose key begins
    with key ("" begins them all)."""
    if key in COMMANDS:
        flags = {**COMMANDS[key][1], **GLOBAL}
    else:
        flags = GLOBAL
        key = "{" + ",".join(k for k in COMMANDS if k.startswith(key)) + "} ..."
    return f"usage: mixedhurwitz {key} " + " ".join(
        _spelling(flag, *spec) for flag, spec in flags.items())


def _help(key):
    """The help text: a command's usage and docstring, or the usage and the
    summaries of every command whose key begins with key."""
    docs = {k: " ".join(cmd.__doc__.split()) for k, (cmd, _) in COMMANDS.items()}
    if key in COMMANDS:
        return f"{_usage(key)}\n\n{docs[key]}\n"
    return "\n".join([
        _usage(key), "", "Exact triply mixed Hurwitz numbers:", *(
            f"  {k:10} {doc.partition('.')[0]}" for k, doc in docs.items()
            if k.startswith(key)), "",
        "Flags are spelled in full, as --flag value or --flag=value; global "
        "flags may go anywhere.  COMMAND --help lists a command's flags.", ""])


def parse_args(argv):
    """The namespace of argv: the command key and every flag of the command,
    global flags included, given or defaulted, each named as its flag less
    the dashes, with "_" for "-".  Writes the help and returns None when argv
    asks for it; raises UsageError on a malformed argv."""
    key, flags, given = "", GLOBAL, {}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_help(key))
            return None
        if not token.startswith("--"):
            word = f"{key} {token}" if key else token
            if key in COMMANDS:
                raise UsageError(key, f"unrecognized argument {token!r}")
            if " " in token or not any(k == word or k.startswith(word + " ")
                                       for k in COMMANDS):
                raise UsageError(key, f"unknown command {word!r}")
            key = word
            flags = {**GLOBAL, **COMMANDS[key][1]} if key in COMMANDS else GLOBAL
            continue
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise UsageError(key, f"unrecognized argument {flag!r}")
        kind = flags[flag][0]
        if kind is bool:
            if eq:
                raise UsageError(key, f"{flag} takes no value")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise UsageError(key, f"{flag} expects a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(key, f"{flag} expects an integer, got "
                                 f"{value!r}") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise UsageError(key, f"{flag} expects one of {', '.join(kind)}, "
                             f"got {value!r}")
        given[flag] = value
    if key not in COMMANDS:
        raise UsageError(key, "expected a command")
    missing = [f for f, (_, default) in flags.items()
               if default is REQUIRED and f not in given]
    if missing:
        raise UsageError(key, "missing " + ", ".join(missing))
    return SimpleNamespace(command=key, **{
        flag[2:].replace("-", "_"): given.get(flag, default)
        for flag, (_, default) in flags.items()})


def check_global_flags(args):
    """Refuse a global flag's value out of range.

    ``--cache-dir`` takes only the empty value and sets nothing.
    """
    if args.cache_dir:
        raise DomainError(f"--cache-dir {args.cache_dir!r}: the character-table "
                          "disk cache was removed; only --cache-dir= is accepted")
    if args.oracle_dmax < 0:
        raise DomainError(f"--oracle-dmax must be >= 0, got {args.oracle_dmax}")
    if args.oracle_dmax > max(ORACLE_SIZE_LIMIT):
        raise ResourceLimitError(f"--oracle-dmax {args.oracle_dmax} above the "
                                 f"oracle ceiling {max(ORACLE_SIZE_LIMIT)}")
    if args.jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:  # the help was asked for
            return 0
        check_global_flags(args)
        return COMMANDS[args.command][0](args)
    except UsageError as e:
        key, reason = e.args
        sys.stderr.write(f"{_usage(key)}\nmixedhurwitz: error: {reason}\n")
        return 2
    except DomainError as e:
        sys.stderr.write(f"domain error: {e}\n")
        return 2
    except ResourceLimitError as e:
        sys.stderr.write(f"resource limit: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
