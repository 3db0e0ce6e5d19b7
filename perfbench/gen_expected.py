"""Regenerate expected.json: the expected stdout of every workload invocation.

    python3 perfbench/gen_expected.py

Runs every variant of every slot once on this checkout's src/ and checks
what can be checked at this point before it writes the table:

- every invocation exits 0;
- the variants of one slot print the same stdout;
- the k=2 series starts with the golden prefix 0,0,2,16,60,160,360,672,1240;
- every toprec record has C equal to checks.cut_and_join, and to
  checks.oracle where the oracle ran;
- every verify record reports failures: 0.

Each entry records in "source" where its value comes from.  Exits 1
without writing when a check fails.
"""

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads

GOLDEN_K2 = ["0", "0", "2", "16", "60", "160", "360", "672", "1240"]


def checks(argv, stdout):
    """The checks that apply to one invocation's stdout; raises on failure."""
    done = []
    text = stdout.decode()
    if argv[0] == "qseries" and argv[argv.index("--k") + 1] == "2" \
            and "--profiles" not in argv and "--l" not in argv:
        coeffs = json.loads(text)["coefficients"]
        if coeffs[:len(GOLDEN_K2)] != GOLDEN_K2:
            raise ValueError(f"golden prefix broken: {coeffs[:9]}")
        done.append("golden prefix " + ",".join(GOLDEN_K2))
    if argv[0] == "toprec":
        doc = json.loads(text)
        if doc["C"] != doc["checks"]["cut_and_join"]:
            raise ValueError(f"C differs from cut-and-join: {text}")
        done.append("C equals checks.cut_and_join")
        if doc["checks"]["oracle"] is not None:
            if doc["C"] != doc["checks"]["oracle"]:
                raise ValueError(f"C differs from the oracle: {text}")
            done.append("C equals checks.oracle")
    if argv[0] == "verify":
        if not text.rstrip().endswith("failures: 0"):
            raise ValueError(f"verify reports failures: {text}")
        done.append("verify reports failures: 0")
    return done


def main():
    table = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                     dir=run.ROOT) as tmp:
        workdir = Path(tmp)
        run.check_checkout(workdir)
        for name, slots in workloads.WORKLOADS.items():
            for variants in slots:
                first = None
                for argv in variants:
                    cmd = run.CLI + workloads.GLOBAL_FLAGS + argv
                    stdout, failure, usage = run.run_child(
                        cmd, workdir, run.INVOCATION_TIMEOUT_S,
                        run.child_env())
                    key = workloads.key(argv)
                    print(f"{usage['wall']:7.2f} s  {key}", flush=True)
                    if failure:
                        sys.exit(f"{key}: {failure}")
                    if first is not None and stdout != first:
                        sys.exit(f"{key}: stdout differs from {variants[0]}")
                    first = stdout
                    try:
                        done = checks(argv, stdout)
                    except ValueError as e:
                        sys.exit(f"{key}: {e}")
                    if len(variants) > 1:
                        done.append("same stdout as the other variants")
                    table[key] = {
                        "workload": name,
                        "stdout": stdout.decode(),
                        "source": "; ".join(["CLI output"] + done)}
    doc = {"generated_by": "perfbench/gen_expected.py",
           "commit": run.machine()["commit"],
           "invocations": table}
    with open(run.HERE / "expected.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
