import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BASE = [sys.executable, "-m", "mixedhurwitz.cli"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


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


# suite, extra verify arguments, the route made wrong and how, and the first
# counterexample verify then prints: int values (N slots), rat_str values,
# one value that must be 0, three routes, and lists
WRONG_ROUTE = [
    ("n-recursion", ["--dmax", "2"], "double_recursion", "N_value", _plus_one,
     "checked: 150", {"inputs": {"variant": "monotone", "g": 0, "mu": [1],
                                 "nu": [1], "l": 1, "i": 1},
                      "oracle": 1, "recursion": 2}),
    ("oracle-vs-characters", ["--dmax", "2"], "characters",
     "hurwitz_by_characters", _plus_one, "checked: 134",
     {"inputs": {"g": 0, "gp": 0, "d": 1, "profiles": [], "k": 0, "l": 0,
                 "m": 0, "connected": False},
      "oracle": "1", "characters": "2"}),
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


@pytest.mark.parametrize("suite,extra,module,name,wrong,count,counterexample",
                         WRONG_ROUTE, ids=[case[0] for case in WRONG_ROUTE])
def test_verify_prints_the_first_counterexample(
        suite, extra, module, name, wrong, count, counterexample,
        monkeypatch, capsys):
    import importlib

    from mixedhurwitz import cli

    monkeypatch.delenv("MIXEDHURWITZ_ORACLE_DMAX", raising=False)
    mod = importlib.import_module(f"mixedhurwitz.{module}")
    monkeypatch.setattr(mod, name, wrong(getattr(mod, name)))
    assert cli.main(["verify", "--suite", suite, *extra]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{count}, failures: 1",
        json.dumps({"first_counterexample": counterexample})]


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

    monkeypatch.delenv("MIXEDHURWITZ_ORACLE_DMAX", raising=False)
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
    assert counts["spectral.omega_terms"] == 8
    assert counts["spectral.ceo_omega.computed"] == 3
    # stable omega extract by closed form: no RF1 reduction
    assert counts.get("ratfun.Poly1.divmod.calls", 0) == 0


def test_byte_identical_documents():
    args = ["toprec", "--g", "1", "--n", "1", "--mu", "2"]
    assert run(*args).stdout == run(*args).stdout


def test_cache_lifecycle(tmp_path):
    d = str(tmp_path)
    p = run("--cache-dir", d, "cache", "build", "--dmax", "3")
    built = json.loads(p.stdout)["built"]
    assert len(built) == 3
    p = run("--cache-dir", d, "cache", "info")
    assert json.loads(p.stdout)["files"] == [
        "chartable-1.json", "chartable-2.json", "chartable-3.json"]
    p = run("--cache-dir", d, "cache", "clear")
    assert len(json.loads(p.stdout)["removed"]) == 3
    p = run("--cache-dir", d, "cache", "info")
    assert json.loads(p.stdout)["files"] == []


ORACLE_COMPUTE = ["compute", "--base-genus", "1", "--source-genus", "2",
                  "--degree", "2", "--k", "2", "--connected", "--method", "oracle"]


def test_oracle_dmax_precedence():
    low = {"MIXEDHURWITZ_ORACLE_DMAX": "1"}
    assert run(*ORACLE_COMPUTE, env=low, check=False).returncode == 3
    p = run("--oracle-dmax", "2", *ORACLE_COMPUTE, env=low)
    assert json.loads(p.stdout) == {"value": "2"}      # the flag beats the env
    # a global flag given after the subcommand is honoured too
    p = run(*ORACLE_COMPUTE, "--oracle-dmax", "1", check=False)
    assert p.returncode == 3, p.stderr


def test_malformed_oracle_dmax_env_is_a_domain_error():
    for value in ("abc", "-1"):
        p = run(*ORACLE_COMPUTE, env={"MIXEDHURWITZ_ORACLE_DMAX": value},
                check=False)
        assert p.returncode == 2, value
        assert p.stderr.startswith("domain error:"), p.stderr


def test_no_global_flag_matches_explicit_defaults():
    args = ["toprec", "--g", "0", "--n", "3", "--mu", "1,1,2"]
    explicit = ["--format", "json", "--cache-dir=", "--oracle-dmax", "6",
                "--jobs", "1"]
    assert run(*args).stdout == run(*explicit, *args).stdout


def test_cache_clear_removes_corrupt_file(tmp_path):
    d = str(tmp_path)
    run("--cache-dir", d, "cache", "build", "--dmax", "2")
    (tmp_path / "chartable-1.json").write_text('{"version": 1, "degree": 1}')
    (tmp_path / "chartable-2.json").write_text('{"version": 1, "deg')
    p = run("--cache-dir", d, "compute", "--base-genus", "1",
            "--source-genus", "2", "--degree", "3", "--l", "2", "--connected")
    assert json.loads(p.stdout) == {"value": "13"}
    p = run("--cache-dir", d, "cache", "clear")
    assert json.loads(p.stdout)["removed"] == [
        "chartable-1.json", "chartable-2.json"]
    assert list(tmp_path.iterdir()) == []


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
])
def test_malformed_input_is_a_domain_error(args, reason):
    p = run(*args, check=False)
    assert p.returncode == 2, p.stderr
    assert p.stderr.startswith("domain error:") and reason in p.stderr, p.stderr


def test_later_main_call_reads_no_earlier_cache_dir(
        tmp_path, monkeypatch, capsys):
    from mixedhurwitz import characters, cli
    from mixedhurwitz.partitions import enumerate_partitions

    # a well-formed degree-3 table whose values are all wrong
    entries = [{"lambda": list(lam), "nu": list(nu), "chi": "7"}
               for lam in enumerate_partitions(3)
               for nu in enumerate_partitions(3)]
    (tmp_path / "chartable-3.json").write_text(
        json.dumps({"version": 1, "degree": 3, "entries": entries}))
    monkeypatch.setattr(characters, "_char_cache", {})
    monkeypatch.delenv("MIXEDHURWITZ_CACHE_DIR", raising=False)
    compute = ["compute", "--base-genus", "0", "--source-genus", "0",
               "--degree", "3", "--profiles", "3;3"]
    try:
        assert cli.main(["--cache-dir", str(tmp_path), "cache", "info"]) == 0
        capsys.readouterr()
        # neither an empty flag nor no flag reads the directory given before
        for flag in (["--cache-dir="], []):
            characters._char_cache.clear()
            assert cli.main([*flag, *compute]) == 0
            assert json.loads(capsys.readouterr().out) == {"value": "1/3"}
        # the table is read when its directory is given
        characters._char_cache.clear()
        assert cli.main(["--cache-dir", str(tmp_path), *compute]) == 0
        assert json.loads(capsys.readouterr().out) != {"value": "1/3"}
    finally:
        characters.use_cache_dir(None)


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
                         "quantum_curve", "double_recursion", "tropical"}


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
    assert not loaded & {"mixedhurwitz.symgroup", "dataclasses"}


def test_character_route_refuses_a_degree_past_its_partition_budget():
    args = ["compute", "--base-genus", "1", "--source-genus", "31",
            "--degree", "60", "--k", "60", "--connected"]
    start = time.monotonic()
    p = subprocess.run(BASE + args, capture_output=True, text=True,
                       env=child_env(), timeout=60)
    assert p.returncode == 3, p.stderr
    assert "partitions" in p.stderr and "Traceback" not in p.stderr
    assert time.monotonic() - start < 10
