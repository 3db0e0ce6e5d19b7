"""Benchmark the mixedhurwitz command line, end to end and per layer.

    python3 perfbench/run.py --workload series --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout.  Every invocation is a fresh
``python -m mixedhurwitz.cli`` process on the checkout's own ``src/``, so it
pays for the cold memo tables the way a CLI user does.  The loop is closed
with one client: an invocation starts when the previous one has ended.  A
pass runs each invocation of the workload once; passes repeat until
``--seconds`` is spent and each metric is the median over the passes.
Every stdout is compared byte for byte with ``expected.json``.

Before every pass and after the last one the run launches
``mixedhurwitz --help`` and ``reference.py``, a fixed task that does not use
the library, three times each.  End-to-end metrics (``--trace 0``):

- ``wall_rel``: wall time of one pass over the median wall time of the
  reference launches before and after it.  On a shared host the speed of
  the machine can change by tens of percent within a minute; the ratio
  cancels most of that.
- ``cpu_rel``: user + system CPU time of the pass's processes (wait4) over
  the reference's CPU time, likewise.
- ``peak_rss_mb``: largest max-RSS among the pass's processes.
- ``setup_s``: interpreter start, CLI import and parser build, as the
  median of the ``--help`` launches.

The table and the record also give ``wall_s`` and ``cpu_s`` of a pass in
seconds, and ``reference_s``.

``fail_ratio`` (non-zero exit, timeout or wrong stdout over invocations
attempted) is printed in the table and carried by ``attempted`` and
``failed`` in the result line.

With ``--trace 1`` two traced passes follow the untraced ones, through
``traced_cli.py``; the result holds the per-layer metrics named in BENCHMARK.json
and the tracing overhead, and counters that differ between the two traced
passes make the run incorrect.

The last line of stdout is the result as JSON; the record with the machine,
the commit and each metric's median and quartiles goes to stderr, and to
``--record FILE`` when given.  Exit code 2 means the benchmark could not
run, for example outside a source checkout.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import layers
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

INVOCATION_TIMEOUT_S = 30  # the slowest invocation takes about 4 s
HARD_DEADLINE_S = 150  # a run ends within 180 s, even when every call hangs
STATION_LAUNCHES = 3  # of each kind, before every pass and after the last
TRACED_PASSES = 2
CLI = [sys.executable, "-m", "mixedhurwitz.cli"]


class BenchError(Exception):
    """The benchmark cannot run here; nothing was measured."""


def child_env(extra=None):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MIXEDHURWITZ_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.update(extra or {})
    return env


def _kill_group(pid, fired):
    fired.set()
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(cmd, workdir, timeout, env):
    """Run one process to its end; returns (stdout, failure or None, usage)."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    fired = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=ROOT, env=env,
                                start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid, fired))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            _kill_group(proc.pid, threading.Event())
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    failure = None
    if fired.is_set():
        failure = f"timeout after {timeout:.1f} s"
    elif proc.returncode != 0:
        tail = err_path.read_bytes().decode(errors="replace").strip()[-300:]
        failure = f"exit {proc.returncode}: {tail}"
    return stdout, failure, {"wall": wall,
                             "cpu": usage.ru_utime + usage.ru_stime,
                             "rss_mb": usage.ru_maxrss / 1024}


class Run:
    """One benchmark run of one workload: launches, passes and failures."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failures = []

    def launch(self, cmd, label, env, expect):
        timeout = max(0.0, min(INVOCATION_TIMEOUT_S,
                               self.deadline - time.monotonic()))
        stdout, failure, usage = run_child(cmd, self.workdir, timeout, env)
        if failure is None and not expect(stdout):
            failure = "stdout differs from the expected bytes"
        self.attempted += 1
        if failure:
            self.failures.append(f"{label}: {failure}")
        return usage

    def station(self):
        """Launches between passes: ``--help`` and the reference task."""
        setup, ref_wall, ref_cpu = [], [], []
        for _ in range(STATION_LAUNCHES):
            setup.append(self.launch(
                CLI + ["--help"], "--help", child_env(),
                lambda out: out.startswith(b"usage: mixedhurwitz"))["wall"])
            usage = self.launch(
                [sys.executable, str(HERE / "reference.py")], "reference.py",
                child_env(), lambda out: out == reference.EXPECTED.encode())
            ref_wall.append(usage["wall"])
            ref_cpu.append(usage["cpu"])
        return {"setup": setup, "ref_wall": ref_wall, "ref_cpu": ref_cpu}

    def run_pass(self, plan, expected, trace_dir=None):
        """All invocations of the plan in sequence; the pass's totals."""
        entry = CLI
        if trace_dir is not None:
            entry = [sys.executable, str(HERE / "traced_cli.py")]
            trace_dir.mkdir()
        cpu = rss = 0.0
        walls = {}
        t0 = time.perf_counter()
        for i, argv in enumerate(plan):
            key = workloads.key(argv)
            extra = {}
            if trace_dir is not None:
                extra = {"PERFBENCH_TRACE_OUT": str(trace_dir / f"{i}.json"),
                         "PERFBENCH_INVOCATION": f"{trace_dir.name}/{i}"}
            usage = self.launch(
                entry + workloads.GLOBAL_FLAGS + argv,
                key, child_env(extra),
                lambda out: out == expected[key].encode())
            cpu += usage["cpu"]
            rss = max(rss, usage["rss_mb"])
            walls[key] = usage["wall"]
        return {"wall_s": time.perf_counter() - t0, "cpu_s": cpu,
                "peak_rss_mb": rss, "invocations": walls}


def check_checkout(workdir):
    """The CLI must import from this checkout's src/, not from elsewhere."""
    if not (SRC / "mixedhurwitz" / "cli.py").is_file():
        raise BenchError(f"no mixedhurwitz sources under {SRC}")
    probe = [sys.executable, "-c",
             "import mixedhurwitz.cli as c, sys; sys.stdout.write(c.__file__)"]
    stdout, failure, _ = run_child(probe, workdir, INVOCATION_TIMEOUT_S,
                                   child_env())
    if failure or not Path(stdout.decode()).resolve().is_relative_to(SRC):
        raise BenchError(f"mixedhurwitz does not import from {SRC}: "
                         f"{failure or stdout.decode()}")


def summary(values):
    """Median, quartiles and every sample."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values),
            "values": values}


def bench_workload(name, seed, seconds, trace, spec, expected, workdir):
    """One run of one workload; returns its record."""
    plan = workloads.plan(name, seed)
    missing = [workloads.key(a) for a in plan
               if workloads.key(a) not in expected]
    if missing:
        raise BenchError(f"no expected stdout for {missing}")
    run = Run(workdir, time.monotonic() + HARD_DEADLINE_S)
    stations, passes = [], []
    measure_start = time.monotonic()
    while True:
        stations.append(run.station())
        passes.append(run.run_pass(plan, expected))
        elapsed = time.monotonic() - measure_start
        typical = statistics.median(p["wall_s"] for p in passes)
        if (elapsed + typical / 2 >= seconds
                or time.monotonic() + typical >= run.deadline):
            break
    stations.append(run.station())
    for p, before, after in zip(passes, stations, stations[1:]):
        p["wall_rel"] = p["wall_s"] / statistics.median(
            before["ref_wall"] + after["ref_wall"])
        p["cpu_rel"] = p["cpu_s"] / statistics.median(
            before["ref_cpu"] + after["ref_cpu"])
    metrics = {m: summary([p[m] for p in passes])
               for m in ("wall_rel", "cpu_rel", "peak_rss_mb", "wall_s",
                         "cpu_s")}
    metrics["setup_s"] = summary([t for s in stations for t in s["setup"]])
    metrics["reference_s"] = summary(
        [t for s in stations for t in s["ref_wall"]])
    record = {"invocations": [workloads.key(a) for a in plan],
              "passes": len(passes), "metrics": metrics,
              "invocation_wall_s": {
                  k: statistics.median(p["invocations"][k] for p in passes)
                  for k in passes[0]["invocations"]}}
    if trace:
        traced, counters = [], []
        for i in range(TRACED_PASSES):
            trace_dir = workdir / f"{name}-trace{i}"
            traced.append(run.run_pass(plan, expected, trace_dir)["wall_s"])
            counters.append(layers.merge(sorted(trace_dir.glob("*.json"))))
        counts = counters[0][0]
        if any(c != counts for c, _ in counters[1:]):
            run.failures.append("trace counters differ between traced passes")
        seconds_by_name = {
            k: statistics.median(s.get(k, 0.0) for _, s in counters)
            for k in counters[0][1]}
        untraced = metrics["wall_s"]["median"]
        traced_wall = statistics.median(traced)
        record["per_layer"] = layers.per_layer(
            [m["name"] for m in spec["per_layer"]], counts, seconds_by_name,
            {"trace.traced_wall_s": traced_wall,
             "trace.overhead_s": traced_wall - untraced,
             "trace.overhead_ratio": (traced_wall - untraced) / untraced})
        record["counters"] = counts
    record["attempted"] = run.attempted
    record["failures"] = run.failures
    record["fail_ratio"] = len(run.failures) / run.attempted
    return record


def machine():
    """Commit, Python, nproc and CPU model, for the record."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = got.stdout.strip() or commit
        except OSError:
            pass
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": model}


def metric_units(spec):
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_table(name, rec, units):
    print(f"workload {name}: {len(rec['invocations'])} invocations a pass, "
          f"{rec['passes']} passes, closed loop with 1 client")
    for metric, s in rec["metrics"].items():
        print(f"  {metric:<12} {s['median']:12.4f} {units[metric]:<3} "
              f"median of {s['runs']} [q1 {s['q1']:.4f}, q3 {s['q3']:.4f}]")
    print(f"  {'fail_ratio':<12} {rec['fail_ratio']:12.4f}     "
          f"{len(rec['failures'])} of {rec['attempted']} invocations")
    for failure in rec["failures"]:
        print(f"    FAILED {failure}")
    if "per_layer" in rec:
        for metric, value in rec["per_layer"].items():
            if value:
                shown = value if isinstance(value, int) else f"{value:.4f}"
                print(f"  {metric:<44} {shown:>14} {units[metric]}")
        print("  (characters.lambda_reuse is lambda_distinct over "
              f"{rec['per_layer']['characters.lambda_terms']} lambda_terms)")


def result_line(records, spec, trace):
    """The final JSON line: the metrics of BENCHMARK.json, by name."""
    prefix = len(records) > 1
    units = metric_units(spec)
    metrics = {}
    for name, rec in records.items():
        if trace:
            values = rec["per_layer"]
        else:
            values = {m["name"]: rec["metrics"][m["name"]]["median"]
                      for m in spec["end_to_end"]}
        for metric, value in values.items():
            label = f"{name}.{metric}" if prefix else metric
            metrics[label] = {"value": value, "unit": units[metric]}
    failed = sum(len(r["failures"]) for r in records.values())
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="also write the record to this file")
    args = p.parse_args(argv)
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        with open(HERE / "expected.json") as fh:
            expected = {k: v["stdout"]
                        for k, v in json.load(fh)["invocations"].items()}
        with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                         dir=ROOT) as tmp:
            workdir = Path(tmp)
            check_checkout(workdir)
            records = {}
            for name in names:
                records[name] = bench_workload(
                    name, args.seed, args.seconds, args.trace, spec, expected,
                    workdir)
                print_table(name, records[name], dict(
                    metric_units(spec), wall_s="s", cpu_s="s",
                    reference_s="s"))
    except (BenchError, OSError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2
    record = dict(machine(), seed=args.seed, seconds=args.seconds,
                  trace=args.trace, workloads=records)
    sys.stderr.write(json.dumps(record) + "\n")
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps(result_line(records, spec, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
