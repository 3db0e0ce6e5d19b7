import ast
import csv
import hashlib
import json
import tokenize
import os
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

BASE = [sys.executable, "-m", "mixedhurwitz.cli"]
ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def child_env(extra=None):
    """The caller's environment without MIXEDHURWITZ_*, importing this
    checkout, plus the variables in ``extra``."""
    child = {k: v for k, v in os.environ.items()
             if not k.startswith("MIXEDHURWITZ_")}
    child["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    child.update(extra or {})
    return child


def run(*args, check=True, env=None):
    """Run the CLI of this checkout, blind to the caller's MIXEDHURWITZ_*.

    ``env`` adds variables to the child's otherwise scrubbed environment.
    """
    proc = subprocess.run(BASE + list(args), capture_output=True, text=True,
                          env=child_env(env))
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_compute_example():
    p = run("compute", "--base-genus", "1", "--source-genus", "2",
            "--degree", "3", "--k", "0", "--l", "2", "--m", "0", "--connected")
    assert json.loads(p.stdout) == {"value": "13"}


def test_compute_oracle_agrees():
    common = ["compute", "--base-genus", "1", "--source-genus", "2",
              "--degree", "2", "--k", "2", "--connected"]
    a = json.loads(run(*common).stdout)
    b = json.loads(run(*common, "--method", "oracle").stdout)
    assert a == b == {"value": "2"}


def test_qseries_example():
    p = run("qseries", "--base-genus", "1", "--source-genus", "2",
            "--k", "2", "--l", "0", "--m", "0", "--qmax", "5")
    doc = json.loads(p.stdout)
    assert doc["coefficients"] == ["0", "0", "2", "16", "60", "160"]


def test_qseries_source_genus_counts_the_profiles():
    # at base genus 1, 2g' - 2 = k+l+m + |mu| - l(mu): 2 + 3 - 1 = 4
    p = run("qseries", "--base-genus", "1", "--source-genus", "3",
            "--profiles", "3", "--k", "2", "--qmax", "4")
    assert json.loads(p.stdout)["coefficients"] == ["0", "0", "0", "36", "540"]


def test_qseries_csv():
    p = run("--format", "csv", "qseries", "--base-genus", "1",
            "--source-genus", "2", "--k", "2", "--qmax", "3")
    lines = p.stdout.strip().splitlines()
    assert lines[0] == "degree,coefficient"
    assert lines[-1] == "3,16"


def test_fit_first_appendix_polynomial():
    p = run("fit", "--source-genus", "2", "--k", "2", "--qmax", "12",
            "--weight", "6", "--bracket")
    doc = json.loads(p.stdout)
    assert doc["weight_bound"] == 6
    terms = {(t["P"], t["Q"], t["R"]): t["coeff"] for t in doc["terms"]}
    assert terms[(3, 0, 0)] == "1/5184"
    assert terms[(1, 1, 0)] == "-1/8640"
    assert terms[(0, 0, 1)] == "-1/12960"


def test_fit_failure_document():
    p = run("fit", "--source-genus", "2", "--k", "2", "--qmax", "12",
            "--weight", "2", "--bracket")
    assert p.stdout == '{"fit_failed": true, "residual_index": 2}\n'


def test_toprec_document():
    p = run("toprec", "--g", "0", "--n", "3", "--mu", "1,1,2")
    doc = json.loads(p.stdout)
    assert doc == {"C": "-48",
                   "checks": {"cut_and_join": "-48", "oracle": "-48"}}


def test_double_document():
    p = run("double", "--variant", "monotone", "--mu", "3", "--nu", "2,1",
            "--genus", "0")
    assert json.loads(p.stdout) == {"value": "1"}


def test_tropical_list():
    p = run("tropical", "--genus", "2", "--degree", "2",
            "--variant", "strict", "--list")
    doc = json.loads(p.stdout)
    assert doc["total"] == "0"
    assert len(doc["covers"]) == 5
    for c in doc["covers"]:
        assert set(c) == {"vertices", "edges", "aut", "multiplicity"}


@pytest.mark.parametrize("genus,degree,variant,sha256", [
    pytest.param(
        "3", "3", "monotone",
        "31f664e5faf6e96bbf674f6fc77fb3d59e59c991a3f4b6159190d2c951998c4e",
        id="g3-d3-monotone"),
    pytest.param(
        "2", "5", "strict",
        "f0cd08926098850a22c2d50c15197a03a7f1620e538c5a1f81ac9f0ca7a5ae4b",
        id="g2-d5-strict"),
])
def test_tropical_list_is_pinned(genus, degree, variant, sha256):
    # digests of the listing printed by the edge-multiplicity search that
    # the graph-first enumeration replaced: same covers, same order
    p = run("tropical", "--genus", genus, "--degree", degree,
            "--variant", variant, "--list")
    assert hashlib.sha256(p.stdout.encode()).hexdigest() == sha256


def test_qc_verify_prints_zero():
    p = run("qc", "verify", "--variant", "strict", "--genus", "1",
            "--dmax", "6", "--bmax", "6")
    assert p.stdout.strip() == "0"


def test_verify_suite():
    p = run("verify", "--suite", "golden-series")
    assert "failures: 0" in p.stdout


def _plus_one(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) + 1


def _series_plus_one(fn):
    from mixedhurwitz.series import QSeries

    def shifted(*args, **kwargs):
        s = fn(*args, **kwargs)
        return QSeries([s.coefficient(d) + 1 for d in range(s.high + 1)])
    return shifted


def _each_value_plus_one(fn):
    return lambda *args, **kwargs: {key: [v + 1 for v in col] for key, col in
                                    fn(*args, **kwargs).items()}


def _connected_plus_one(fn):
    return lambda *args, **kwargs: {klm: (disc, conn + 1) for klm, (disc, conn)
                                    in fn(*args, **kwargs).items()}


# suite, extra verify arguments, the route made wrong and how, and the first
# counterexample verify then prints: int values (N slots), rat_str values,
# one value that must be 0, three routes, and lists
WRONG_ROUTE = [
    ("n-recursion", ["--dmax", "2"], "double_recursion", "N_value", _plus_one,
     "checked: 150", {"inputs": {"variant": "monotone", "g": 0, "mu": [1],
                                 "nu": [1], "l": 1, "i": 1},
                      "oracle": 1, "recursion": 2}),
    ("oracle-vs-characters", ["--dmax", "2"], "characters", "sector_family",
     _each_value_plus_one, "checked: 134",
     {"inputs": {"g": 0, "gp": 0, "d": 1, "profiles": [], "k": 0, "l": 0,
                 "m": 0, "connected": False},
      "oracle": "1", "characters": "2"}),
    ("oracle-vs-characters", ["--dmax", "2"], "series", "_euler_solve",
     _each_value_plus_one, "checked: 134",
     {"inputs": {"g": 0, "gp": 0, "d": 1, "profiles": [], "k": 0, "l": 0,
                 "m": 0, "connected": True},
      "oracle": "1", "characters": "2"}),
    ("oracle-vs-characters", ["--dmax", "2"], "symgroup", "triply_mixed_slots",
     _connected_plus_one, "checked: 134",
     {"inputs": {"g": 0, "gp": 0, "d": 1, "profiles": [], "k": 0, "l": 0,
                 "m": 0, "connected": True},
      "oracle": "2", "characters": "1"}),
    ("quantum-curve", [], "quantum_curve", "residual_max_abs", _plus_one,
     "checked: 6", {"inputs": {"variant": "monotone", "g": 0},
                    "max_abs_residual": "1"}),
    ("toprec", [], "spectral", "oracle_C", _plus_one, "checked: 30",
     {"inputs": {"g": 0, "n": 3, "mu": [1, 1, 1]},
      "extract": "8", "cut_and_join": "8", "oracle": "9"}),
    ("golden-series", [], "characters", "connected_hurwitz_qseries",
     _series_plus_one, "checked: 4",
     {"inputs": {"k": 2, "l": 0, "m": 0},
      "got": ["3", "17", "61", "161", "361", "673", "1241"],
      "expected": [2, 16, 60, 160, 360, 672, 1240]}),
]


def _row_ids(rows):
    """Each row's suite, with the planted function after a suite's first row."""
    ids = []
    for suite, _, _, name, *_ in rows:
        ids.append(f"{suite}-{name}" if suite in ids else suite)
    return ids


@pytest.mark.parametrize("suite,extra,module,name,wrong,count,counterexample",
                         WRONG_ROUTE, ids=_row_ids(WRONG_ROUTE))
def test_verify_prints_the_first_counterexample(
        suite, extra, module, name, wrong, count, counterexample,
        monkeypatch, capsys):
    import importlib

    from mixedhurwitz import cli

    mod = importlib.import_module(f"mixedhurwitz.{module}")
    monkeypatch.setattr(mod, name, wrong(getattr(mod, name)))
    assert cli.main(["verify", "--suite", suite, *extra]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{count}, failures: 1",
        json.dumps({"first_counterexample": counterexample})]


@pytest.mark.parametrize("dmax,count,digest", [
    (5, 382, "4a2691e9730110ebfbc7d92b93471ccab2133da74e345e955bbb97795f217dc4"),
    (6, 450, "cafcea19470bb3aba31d393030971dc3da99699e69a27cb0a6972e732e1c4021"),
], ids=["dmax-5", "dmax-6"])
def test_oracle_vs_characters_case_sequence_is_pinned(dmax, count, digest):
    # the sha256 of the JSON list of case inputs, computed when every case
    # walked its own oracle spec and took its own potential log: sharing them
    # kept the cases and their order, so the same counterexample prints first
    from mixedhurwitz import suites

    cases = list(suites.SUITES["oracle-vs-characters"](dmax, False, 6))
    inputs = json.dumps([inputs for inputs, _ in cases]).encode()
    assert len(cases) == count
    assert hashlib.sha256(inputs).hexdigest() == digest
    assert all(v["oracle"] == v["characters"] for _, v in cases)


def test_exit_codes():
    bad = run("compute", "--base-genus", "1", "--source-genus", "2",
              "--degree", "2", "--k", "1", check=False)
    assert bad.returncode == 2          # k+l+m != b
    res = run("--oracle-dmax", "4", "compute", "--base-genus", "0",
              "--source-genus", "0", "--degree", "5", "--profiles", "5",
              "--l", "4", "--method", "oracle", check=False)
    assert res.returncode == 3          # above the oracle limit


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "oracle-vs-characters", "--dmax", "0"],
    ["--oracle-dmax", "0", "verify", "--suite", "all"],
    ["--oracle-dmax", "0", "verify", "--suite", "toprec"],
], ids=["dmax-0", "oracle-dmax-0-all", "oracle-dmax-0-toprec"])
def test_verify_checking_no_case_is_a_domain_error(args):
    p = run(*args, check=False)
    assert p.returncode == 2, p.stderr
    assert p.stderr.startswith("domain error:") and "checked no case" in p.stderr


def test_verify_counterexample_outranks_an_empty_suite(monkeypatch, capsys):
    # three suites check no case at --oracle-dmax 0, but the tropical one
    # finds a counterexample: it is printed and verify exits 1, not 2
    from mixedhurwitz import cli, tropical

    monkeypatch.setattr(tropical, "tropical_elliptic_sum",
                        _plus_one(tropical.tropical_elliptic_sum))
    assert cli.main(["--oracle-dmax", "0", "verify", "--suite", "all"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "checked: 20, failures: 1",
        json.dumps({"first_counterexample": {
            "inputs": {"variant": "monotone", "g": 2, "d": 1},
            "tropical": "1", "characters": "0"}})]


def test_verify_pool_prints_what_the_serial_run_prints():
    serial = run("--jobs", "1", "verify", "--suite", "all").stdout
    assert serial == "checked: 1110, failures: 0\n"
    assert run("--jobs", "2", "verify", "--suite", "all").stdout == serial


def test_tracer_hooks_still_resolve(tmp_path):
    # perfbench/traced_cli.py wraps src functions and reads memo tables by
    # name; a rename here would break its per-layer trace
    args = ["toprec", "--g", "1", "--n", "2", "--mu", "1,2", "--skip-oracle"]
    out = tmp_path / "trace.json"
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
    p = subprocess.run([sys.executable, str(tracer), *args], capture_output=True,
                       text=True, env=child_env({"PERFBENCH_TRACE_OUT": str(out)}))
    assert p.returncode == 0, p.stderr
    assert p.stdout == run(*args).stdout
    counts = json.loads(out.read_text())["counts"]
    assert counts["cli.main.calls"] == 1
    # perfbench counts omega levels and terms through _omega_cache
    assert counts["spectral.omega_terms"] == 6
    assert counts["spectral.ceo_omega.computed"] == 3
    # stable omega extract by closed form: no RF1 reduction
    assert counts.get("ratfun.Poly1.divmod.calls", 0) == 0


def test_byte_identical_documents():
    args = ["toprec", "--g", "1", "--n", "1", "--mu", "2"]
    assert run(*args).stdout == run(*args).stdout


ORACLE_COMPUTE = ["compute", "--base-genus", "1", "--source-genus", "2",
                  "--degree", "2", "--k", "2", "--connected", "--method", "oracle"]


def test_oracle_dmax_precedence():
    # only the flag sets the oracle limit: the environment is not read
    p = run(*ORACLE_COMPUTE, env={"MIXEDHURWITZ_ORACLE_DMAX": "1"})
    assert json.loads(p.stdout) == {"value": "2"}
    # a global flag given after the subcommand is honoured too
    p = run(*ORACLE_COMPUTE, "--oracle-dmax", "1", check=False)
    assert p.returncode == 3, p.stderr


ORACLE = ["--method", "oracle"]


@pytest.mark.parametrize("argv", [
    ["compute", "--base-genus", "2000", "--source-genus", "3999", "--degree", "2",
     *ORACLE],
    ["compute", "--base-genus", "300", "--source-genus", "1795", "--degree", "6",
     *ORACLE],
    ["--oracle-dmax", "7", "compute", "--base-genus", "2", "--source-genus", "8",
     "--degree", "7", *ORACLE],
    ["compute", "--base-genus", "0", "--source-genus", "1000", "--degree", "6",
     "--k", "2010", *ORACLE],
    ["--oracle-dmax", "9", "compute", "--base-genus", "0", "--source-genus", "0",
     "--degree", "9", "--profiles", "9", "--l", "8", *ORACLE],
    ["--oracle-dmax", "11", "compute", "--base-genus", "0", "--source-genus", "0",
     "--degree", "11", "--profiles", "11", "--l", "10", *ORACLE],
    ["--oracle-dmax", "999", "verify", "--suite", "all"],
], ids=["base-genus-2000", "base-genus-300", "degree-7-genus-2", "k-2010",
        "oracle-dmax-9", "oracle-dmax-11", "oracle-dmax-999-verify"])
def test_oracle_refuses_past_its_bounds_at_once(argv):
    start = time.monotonic()
    p = subprocess.run(BASE + argv, capture_output=True, text=True,
                       env=child_env(), timeout=10)
    assert time.monotonic() - start < 1
    assert p.returncode == 3, p.stderr
    assert p.stderr.startswith("resource limit:") and "Traceback" not in p.stderr
    assert p.stdout == ""


def test_no_global_flag_matches_explicit_defaults():
    args = ["toprec", "--g", "0", "--n", "3", "--mu", "1,1,2"]
    explicit = ["--format", "json", "--cache-dir=", "--oracle-dmax", "6",
                "--jobs", "1"]
    assert run(*args).stdout == run(*explicit, *args).stdout


TOPREC = ["toprec", "--g", "1", "--n", "1", "--mu", "2"]


@pytest.mark.parametrize("argv", [
    ["cache", "info"],
    ["--cache-dir", "tables", *TOPREC],
    [*TOPREC, "--cache-dir", "tables"],
    [*TOPREC, "--cache-dir=tables"],
], ids=["cache-subcommand", "dir-before", "dir-after", "dir-equals"])
def test_the_disk_cache_is_gone(argv):
    p = run(*argv, check=False)
    assert p.returncode == 2, p.stderr
    assert "Traceback" not in p.stderr and p.stdout == ""
    if argv[0] != "cache":
        assert p.stderr.startswith("domain error:") and "removed" in p.stderr
    else:
        assert p.stderr.startswith("usage: mixedhurwitz")


def test_empty_cache_dir_still_runs():
    expected = run(*TOPREC).stdout
    assert run("--cache-dir=", *TOPREC).stdout == expected
    assert run(*TOPREC, "--cache-dir=").stdout == expected


def test_cache_dir_environment_is_not_read(tmp_path):
    from mixedhurwitz.partitions import enumerate_partitions

    # a well-formed degree-3 table of the removed cache whose values are all wrong
    entries = [{"lambda": list(lam), "nu": list(nu), "chi": "7"}
               for lam in enumerate_partitions(3)
               for nu in enumerate_partitions(3)]
    (tmp_path / "chartable-3.json").write_text(
        json.dumps({"version": 1, "degree": 3, "entries": entries}))
    p = run("compute", "--base-genus", "0", "--source-genus", "0",
            "--degree", "3", "--profiles", "3;3",
            env={"MIXEDHURWITZ_CACHE_DIR": str(tmp_path)})
    assert json.loads(p.stdout) == {"value": "1/3"}


@pytest.mark.parametrize("argv", [
    ["toprec", "--g", "1", "--n", "1", "--mu", "2", "--skip-oracle"],
    ["fit", "--source-genus", "2", "--k", "2", "--qmax", "12", "--weight", "6",
     "--bracket"],
    ["fit", "--source-genus", "2", "--k", "2", "--qmax", "12", "--weight", "2",
     "--bracket"],
    ["tropical", "--genus", "2", "--degree", "2", "--variant", "strict", "--list"],
], ids=["toprec", "fit", "fit-failure", "tropical-list"])
def test_csv_and_plain_write_nested_values_as_json(argv):
    doc = json.loads(run(*argv).stdout)
    rows = list(csv.reader(run("--format", "csv", *argv).stdout.splitlines()))
    assert [len(row) for row in rows] == [2] * len(doc)
    for key, field in rows:
        value = doc[key]
        assert (field if isinstance(value, str) else json.loads(field)) == value
    plain = run("--format", "plain", *argv).stdout.splitlines()
    assert plain == [f"{k}: {v if isinstance(v, str) else json.dumps(v)}"
                     for k, v in doc.items()]


@pytest.mark.parametrize("args,reason", [
    (["toprec", "--g", "0", "--n", "1", "--mu", "a"], "bad parts"),
    (["qseries", "--base-genus", "1", "--source-genus", "2", "--k", "2",
      "--qmax", "-1"], "--qmax"),
    (["fit", "--source-genus", "2", "--k", "2", "--qmax", "-1",
      "--weight", "6"], "--qmax"),
    (["tropical", "--genus", "2", "--degree", "0", "--variant", "monotone"],
     "degree"),
    (["qseries", "--base-genus", "1", "--source-genus", "99", "--k", "2",
      "--qmax", "4"], "--source-genus 99"),
    (["qseries", "--base-genus", "1", "--source-genus", "-5", "--k", "2",
      "--qmax", "4"], "--source-genus -5"),
    (["qseries", "--base-genus", "1", "--source-genus", "2", "--profiles", "3",
      "--k", "2", "--qmax", "4"], "--source-genus 2"),
    (["double", "--variant", "strict", "--mu", "2", "--nu", "2",
      "--genus", "-3"], "genus -3"),
    (["qc", "verify", "--variant", "monotone", "--genus", "0", "--dmax", "-1"],
     "d <= -1"),
    (["qc", "verify", "--variant", "monotone", "--genus", "1", "--dmax", "3",
      "--bmax", "-1"], "b <= -1"),
    (["fit", "--source-genus", "2", "--k", "2", "--qmax", "20",
      "--weight", "-1"], "weight bound -1"),
    (["--jobs", "0", "verify", "--suite", "all"], "--jobs must be >= 1, got 0"),
    (["verify", "--suite", "all", "--jobs", "-2"], "--jobs must be >= 1, got -2"),
    (["--oracle-dmax", "-1", *ORACLE_COMPUTE], "must be >= 0, got -1"),
    (["fit", "--source-genus", "3", "--k", "4", "--qmax", "27",
      "--weight", "1000000", "--bracket"], "need at least"),
    (["qseries", "--base-genus", "0", "--source-genus", "0", "--k", "-1",
      "--qmax", "3"], "counts must be >= 0"),
    (["qseries", "--base-genus", "1", "--source-genus", "0", "--k", "-2",
      "--qmax", "4", "--bracket"], "counts must be >= 0"),
    (["qseries", "--base-genus", "1", "--source-genus", "0", "--k", "-2",
      "--qmax", "4", "--disconnected"], "counts must be >= 0"),
    (["fit", "--base-genus", "1", "--source-genus", "0", "--k", "-2",
      "--qmax", "4", "--weight", "2", "--bracket"], "counts must be >= 0"),
    (["qseries", "--base-genus", "-1", "--source-genus", "0", "--qmax", "3"],
     "genus and counts must be >= 0"),
    (["--oracle-dmax", "0", "verify", "--suite", "tropical", "--dmax", "-1"],
     "--dmax must be >= 0, got -1"),
    (["verify", "--suite", "golden-series", "--dmax", "-5"],
     "--dmax must be >= 0, got -5"),
    (["qseries", "--base-genus", "1", "--source-genus", "2", "--k", "2",
      "--qmax=-1"], "--qmax"),
    (["--oracle-dmax=-1", *ORACLE_COMPUTE], "must be >= 0, got -1"),
    (["qc", "verify", "--variant", "monotone", "--genus", "1", "--jobs", "0"],
     "--jobs must be >= 1, got 0"),
])
def test_malformed_input_is_a_domain_error(args, reason):
    p = run(*args, check=False)
    assert p.returncode == 2, p.stderr
    assert p.stderr.startswith("domain error:") and reason in p.stderr, p.stderr


@pytest.mark.parametrize("argv,reason", [
    ([], "expected a command"),
    (["qc"], "expected a command"),
    (["count", "--degree", "3"], "unknown command 'count'"),
    (["qc verify", "--variant", "monotone", "--genus", "1"],
     "unknown command 'qc verify'"),
    ([*TOPREC, "--genus", "1"], "unrecognized argument '--genus'"),
    (["--g", "1", *TOPREC], "unrecognized argument '--g'"),
    ([*TOPREC, "2"], "unrecognized argument '2'"),
    (["toprec", "--g", "1", "--n", "1"], "missing --mu"),
    (["toprec", "--g", "1", "--n", "1", "--mu"], "--mu expects a value"),
    (["toprec", "--g", "--n", "1", "--mu", "2"], "--g expects a value"),
    (["toprec", "--g", "x", "--n", "1", "--mu", "2"], "--g expects an integer"),
    (["--format", "xml", *TOPREC], "--format expects one of json, csv, plain"),
    (["double", "--variant", "weak", "--mu", "2", "--nu", "2", "--genus", "0"],
     "--variant expects one of monotone, strict"),
    (["verify", "--suite", "nope"], "--suite expects one of"),
    (["compute", "--base-genus", "1", "--source-genus", "2", "--degree", "2",
      "--k", "2", "--connected=1"], "--connected takes no value"),
    (["toprec", "--g", "9" * 5000, "--n", "1", "--mu", "2"],
     "--g expects an integer"),
    (["toprec", "--g", "0", "--n", "3", "--m", "1,1,2", "--skip"],
     "unrecognized argument '--m'"),
], ids=["empty", "qc-alone", "unknown-command", "one-word-qc-verify", "unknown-flag",
        "flag-before-its-command", "stray-word", "missing-required",
        "no-value-at-end", "flag-as-value", "int-x", "format-xml",
        "variant-weak", "suite-nope", "switch-with-value", "5000-digits",
        "abbreviation"])
def test_malformed_argv_is_a_usage_error(argv, reason):
    p = run(*argv, check=False)
    assert p.returncode == 2, p.stderr
    assert "Traceback" not in p.stderr and p.stdout == ""
    usage, error = p.stderr.splitlines()
    assert usage.startswith("usage: mixedhurwitz")
    assert error.startswith(f"mixedhurwitz: error: {reason}"), error


TOPREC_DOC = {"C": "-1", "checks": {"cut_and_join": "-1", "oracle": "-1"}}


@pytest.mark.parametrize("argv,out", [
    ([*TOPREC, "--oracle-dmax=0"],
     json.dumps({**TOPREC_DOC, "checks": {"cut_and_join": "-1", "oracle": None}})),
    (["toprec", "--g=5", "--n", "1", "--g", "1", "--mu=2"], json.dumps(TOPREC_DOC)),
    (["--format", "plain", *TOPREC, "--format", "json"], json.dumps(TOPREC_DOC)),
    (["qc", "verify", "--variant", "monotone", "--genus", "1", "--format",
      "plain"], "0"),
], ids=["equals-form", "last-wins", "global-last-wins", "global-after-qc-verify"])
def test_accepted_flag_forms(argv, out, capsys):
    from mixedhurwitz import cli

    assert cli.main(argv) == 0
    assert capsys.readouterr().out == out + "\n"


@pytest.mark.parametrize("key", ["compute", "qseries", "fit", "toprec", "double",
                                 "tropical", "qc verify", "verify"],
                         ids=lambda key: key.replace(" ", "-"))
def test_parse_args_fills_every_flag_from_the_table(key):
    # the command's required flags, each given its kind's first value, and
    # no global flag: every other flag reads its default, the globals too
    from mixedhurwitz import cli
    from mixedhurwitz.util import DEFAULT_ORACLE_LIMIT

    flags = cli.COMMANDS[key][1]
    given = {flag: kind[0] if isinstance(kind, tuple) else kind(1)
             for flag, (kind, default) in flags.items() if default is cli.REQUIRED}
    argv = [*key.split(), *(t for flag, v in given.items() for t in (flag, str(v)))]
    assert vars(cli.parse_args(argv)) == {
        "command": key, "format": "json", "cache_dir": "",
        "oracle_dmax": DEFAULT_ORACLE_LIMIT, "jobs": 1,
        **{flag[2:].replace("-", "_"): given.get(flag, default)
           for flag, (_, default) in flags.items()}}


def test_tropical_list_sets_args_list():
    from mixedhurwitz import cli

    argv = ["tropical", "--genus", "2", "--degree", "3", "--variant", "monotone"]
    assert cli.parse_args(argv).list is False
    assert cli.parse_args([*argv, "--list"]).list is True


@pytest.mark.parametrize("argv", [["--help"], ["compute", "--help"],
                                  ["qc", "verify", "-h"]],
                         ids=["top", "compute", "qc-verify"])
def test_help_names_every_flag_of_its_command(argv):
    from mixedhurwitz import cli

    p = run(*argv)
    assert p.stdout.startswith("usage: mixedhurwitz") and p.stderr == ""
    key = " ".join(argv[:-1])
    names = [*(cli.COMMANDS[key][1] if key else cli.COMMANDS), *cli.GLOBAL]
    assert [name for name in names if name not in p.stdout] == []


def test_no_module_imports_argparse():
    for path in (ROOT / "src" / "mixedhurwitz").glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert "argparse" not in imported, path.name


def all_loaded_modules(*argv):
    """Every module a fresh process holds after cli.main(argv)."""
    code = ("import sys; from mixedhurwitz import cli; "
            "rc = cli.main(sys.argv[1:]); "
            "print(' '.join(sys.modules), file=sys.stderr); "
            "sys.exit(rc)")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def loaded_modules(*argv):
    """The mixedhurwitz submodules a fresh process holds after cli.main(argv)."""
    return {m.removeprefix("mixedhurwitz.") for m in all_loaded_modules(*argv)
            if m.startswith("mixedhurwitz.")}


def test_toprec_without_oracle_loads_only_its_route():
    loaded = loaded_modules("toprec", "--g", "1", "--n", "2", "--mu", "2,3",
                            "--skip-oracle")
    assert "spectral" in loaded
    assert not loaded & {"characters", "symgroup", "series", "quasimodular",
                         "quantum_curve", "double_recursion", "tropical",
                         "partitions"}



@pytest.mark.parametrize("skip", [[], ["--skip-oracle"]], ids=["oracle", "skip-oracle"])
def test_toprec_loads_neither_ratfun_nor_suites(skip):
    loaded = loaded_modules("toprec", "--g", "1", "--n", "2", "--mu", "2,3", *skip)
    assert "spectral" in loaded
    assert not loaded & {"ratfun", "suites"}


def test_qc_verify_loads_no_series():
    loaded = loaded_modules("qc", "verify", "--variant", "strict", "--genus", "2")
    assert "quantum_curve" in loaded
    assert "series" not in loaded


def test_only_verify_loads_suites():
    # every subcommand in one process: suites stays unloaded until verify,
    # and no launch loads argparse or the modules its help and errors use
    argvs = [
        ["compute", "--base-genus", "1", "--source-genus", "2", "--degree", "2",
         "--k", "2", "--connected"],
        ["compute", "--base-genus", "1", "--source-genus", "2", "--degree", "2",
         "--k", "2", "--method", "oracle"],
        ["qseries", "--base-genus", "1", "--source-genus", "2", "--k", "2",
         "--qmax", "4"],
        ["fit", "--source-genus", "2", "--k", "2", "--qmax", "12", "--weight", "6",
         "--bracket"],
        ["toprec", "--g", "1", "--n", "1", "--mu", "2"],
        ["double", "--variant", "monotone", "--genus", "1", "--mu", "2,1",
         "--nu", "3"],
        ["tropical", "--genus", "2", "--degree", "2", "--variant", "strict"],
        ["qc", "verify", "--variant", "monotone", "--genus", "1"],
        ["verify", "--suite", "golden-series"],
    ]
    code = ("import json, sys; from mixedhurwitz import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    print('suites' if 'mixedhurwitz.suites' in sys.modules else '-',"
            " file=sys.stderr)\n"
            "print(*sorted({'argparse', 'gettext', 'locale', 'textwrap'}"
            " & set(sys.modules)), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["-"] * (len(argvs) - 1) + ["suites", ""]


def test_verify_choices_are_the_suites_in_order():
    from mixedhurwitz import cli, suites

    assert tuple(suites.SUITES) == cli.SUITE_NAMES


def test_spectral_imports_no_rational_function_code():
    # every import statement, inside functions too: modules and imported names
    tree = ast.parse((ROOT / "src" / "mixedhurwitz" / "spectral.py").read_text())
    imported = [name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in [getattr(node, "module", None) or ""]
                + [alias.name for alias in node.names]]
    assert imported and not [m for m in imported if "ratfun" in m]


def test_cli_module_stays_under_4096_tokens():
    # every launch compiles cli.py, and compile()'s memory peak steps up at
    # 4096 tokens: code that one subcommand runs lives in that one's module
    with open(ROOT / "src" / "mixedhurwitz" / "cli.py", "rb") as fh:
        assert len(list(tokenize.tokenize(fh.readline))) < 4096


def test_util_module_stays_under_4096_tokens_and_imports_only_errors():
    # every launch compiles util.py too, and it must not pull in a route
    path = ROOT / "src" / "mixedhurwitz" / "util.py"
    with open(path, "rb") as fh:
        assert len(list(tokenize.tokenize(fh.readline))) < 4096
    tree = ast.parse(path.read_text())
    package = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level}
    absolute = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    absolute |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and not node.level}
    assert package == {"errors"}
    assert not {m for m in absolute if m.split(".")[0] == "mixedhurwitz"}


def test_tropical_loads_only_its_route():
    loaded = loaded_modules("tropical", "--genus", "2", "--degree", "3",
                            "--variant", "monotone")
    assert "tropical" in loaded
    assert not loaded & {"series", "quasimodular", "characters"}


def test_qseries_loads_no_other_route():
    loaded = loaded_modules("qseries", "--base-genus", "1",
                            "--source-genus", "2", "--k", "2", "--qmax", "5")
    assert "characters" in loaded
    assert not loaded & {"spectral", "ratfun", "symgroup", "tropical"}


def test_compute_by_characters_loads_no_oracle_code():
    loaded = all_loaded_modules("compute", "--base-genus", "1",
                                "--source-genus", "3", "--degree", "4",
                                "--k", "4", "--connected")
    assert "mixedhurwitz.characters" in loaded
    assert not loaded & {"mixedhurwitz.symgroup", "dataclasses"}


@pytest.mark.parametrize("argv", [
    ("toprec", "--g", "1", "--n", "2", "--mu", "2,3"),
    ("verify", "--suite", "n-recursion", "--dmax", "2"),
], ids=["toprec", "n-recursion"])
def test_genus_0_oracle_loads_no_commutators(argv):
    # these oracles run at base genus 0, where no handle is closed
    loaded = loaded_modules(*argv)
    assert "symgroup" in loaded
    assert "commutators" not in loaded


def test_base_genus_1_oracle_loads_commutators():
    assert "commutators" in loaded_modules(*ORACLE_COMPUTE)


def test_oracle_suite_loads_no_dataclasses():
    loaded = all_loaded_modules("verify", "--suite", "oracle-vs-characters",
                                "--dmax", "2")
    assert "mixedhurwitz.symgroup" in loaded
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("argv", [
    ("tropical", "--genus", "2", "--degree", "3", "--variant", "strict"),
    ("fit", "--source-genus", "2", "--k", "2", "--qmax", "12", "--weight",
     "6", "--bracket"),
    ("verify", "--suite", "tropical"),
], ids=["tropical", "fit", "verify-tropical"])
def test_tropical_and_fit_load_no_dataclasses(argv):
    assert "dataclasses" not in all_loaded_modules(*argv)


def test_double_loads_no_oracle_code():
    loaded = all_loaded_modules("double", "--variant", "monotone", "--genus",
                                "1", "--mu", "2,1", "--nu", "3")
    assert "mixedhurwitz.double_recursion" in loaded
    # the character route and the exponential formula serve only the
    # disconnected and base-genus numbers
    assert not loaded & {"mixedhurwitz.symgroup", "mixedhurwitz.characters",
                         "mixedhurwitz.series", "dataclasses"}


def test_character_route_refuses_a_degree_past_its_partition_budget():
    args = ["compute", "--base-genus", "1", "--source-genus", "31",
            "--degree", "60", "--k", "60", "--connected"]
    start = time.monotonic()
    p = subprocess.run(BASE + args, capture_output=True, text=True,
                       env=child_env(), timeout=60)
    assert p.returncode == 3, p.stderr
    assert "partitions" in p.stderr and "Traceback" not in p.stderr
    assert time.monotonic() - start < 10


@pytest.mark.parametrize("args,reason", [
    (["--g", "0", "--n", "3", "--mu", "1,1,600"], "b = 2g-2+n+|mu| = 603"),
    (["--g", "1", "--n", "1", "--mu", "300"], "b = 2g-2+n+|mu| = 301"),
    (["--g", "10", "--n", "1", "--mu", "1"], "omega_{10,1}: 2g-2+n = 19"),
    (["--g", "4", "--n", "1", "--mu", "14"], "b = 2g-2+n+|mu| = 21"),
    (["--g", "9", "--n", "2", "--mu", "1,1"], "2g-2+n = 18"),
    (["--g", "1", "--n", "10", "--mu", ",".join(["1"] * 10)], "184756 xi terms"),
], ids=["mu-600", "mu-300", "g-10", "b-21", "chi-18", "terms"])
def test_toprec_refuses_work_past_its_budget_at_once(args, reason, capsys):
    from mixedhurwitz import cli

    start = time.monotonic()
    assert cli.main(["toprec", *args, "--skip-oracle"]) == 3
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("resource limit:") and reason in err, err


@pytest.mark.parametrize("args,value", [
    (["--g", "8", "--n", "1", "--mu", "2"], "-1"),           # 2g-2+n = 15
    (["--g", "9", "--n", "1", "--mu", "2"], "-1"),           # 2g-2+n = 17
    (["--g", "4", "--n", "1", "--mu", "13"], "3322667407211880"),  # b = 20
], ids=["omega-8-1", "omega-9-1", "b-20"])
def test_toprec_finishes_at_its_budget(args, value, capsys):
    from mixedhurwitz import cli

    assert cli.main(["toprec", *args, "--skip-oracle"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "C": value, "checks": {"cut_and_join": value, "oracle": None}}


@pytest.mark.parametrize("args,code,out", [
    (["--genus", "14", "--mu", "2", "--nu", "2"], 0, '{"value": "1/2"}'),
    (["--genus", "8", "--mu", "13,1", "--nu", "14"], 3, ""),
], ids=["b-mu-30", "b-mu-31"])
def test_double_runs_at_its_budget_and_refuses_past_it_at_once(args, code, out,
                                                              capsys):
    from mixedhurwitz import cli

    start = time.monotonic()
    assert cli.main(["double", "--variant", "monotone", *args]) == code
    assert time.monotonic() - start < 1
    got = capsys.readouterr()
    assert got.out.strip() == out
    if code:
        assert got.err.startswith("resource limit: double: b + |mu| = 31"), got.err


def test_benchmark_invocations_print_their_expected_stdout(capsys):
    # every variant of every perfbench workload, run in-process; perfbench
    # is read (runpy compiles without writing bytecode), never changed
    from mixedhurwitz import cli

    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    argvs = [argv for slots in workloads["WORKLOADS"].values()
             for variants in slots for argv in variants]
    assert len(argvs) == len(expected["invocations"]) == 34
    differ = []
    for argv in argvs:
        assert cli.main(workloads["GLOBAL_FLAGS"] + argv) == 0, argv
        key = workloads["key"](argv)
        if capsys.readouterr().out != expected["invocations"][key]["stdout"]:
            differ.append(key)
    assert differ == []
