"""The benchmark's workloads: fixed mixedhurwitz CLI invocations.

A workload is a list of slots.  A slot is a pool of equal-cost variants of
one invocation, such as the order of the parts of mu or of the profile slots;
every variant of a slot prints the same stdout.  The workload seed picks one
variant per slot and the order in which the slots run.  The program receives
only the generated argv.
"""

import random
import shlex
from itertools import permutations

# every invocation passes all four global flags: the CLI fills no fallback for
# a global flag left out, and the benchmark never reads the user's cache
GLOBAL_FLAGS = ["--format", "json", "--cache-dir=", "--oracle-dmax", "6",
                "--jobs", "1"]


def _orders(parts):
    """Every distinct order of the parts, comma-joined, in a fixed order."""
    return sorted({",".join(map(str, p)) for p in permutations(parts)})


def _slot(template, values=(None,)):
    """Variants of one invocation: {v} in the template takes each value."""
    return [shlex.split(template.format(v=v)) for v in values]


# Sizes keep one pass near 7-10 s on a 2-vCPU Xeon, so a 30 s run holds
# three or four passes.  Why each workload was chosen is in BENCHMARK.json.
WORKLOADS = {
    # characters: a few deep lambda-sums (degree up to 26), the potential log
    # of connected series, profile central characters, the fit; no spectral
    # and no symgroup work
    "series": [
        _slot("qseries --base-genus 1 --source-genus 2 --k 2 --qmax 26"),
        _slot("compute --base-genus 1 --source-genus 11 --degree 20 "
              "--k 20 --connected"),
        _slot("compute --base-genus 1 --source-genus 6 --degree 12 "
              "--k 4 --l 3 --m 3 --connected"),
        _slot("qseries --base-genus 0 --source-genus 0 --profiles {v} "
              "--k 4 --l 2 --qmax 12", ["'2,2;3'", "'3;2,2'"]),
        _slot("compute --base-genus 0 --source-genus 0 --degree 20 "
              "--profiles {v} --k 4 --l 2 --m 2",
              ["'5,5,5,5;4,4,4,4,2,2'", "'4,4,4,4,2,2;5,5,5,5'"]),
        _slot("fit --source-genus 3 --k 4 --qmax 27 --weight 12 "
              "--bracket"),
    ],
    # spectral and ratfun: omega_{g,n} for 2g-2+n up to 3, extraction and
    # cut-and-join; the oracle only at degree 4 and 5; no lambda-sums
    "toprec": [
        _slot("toprec --g 2 --n 1 --mu 4 --skip-oracle"),
        _slot("toprec --g 1 --n 3 --mu {v}", _orders((1, 1, 2))),
        _slot("toprec --g 0 --n 5 --mu {v} --skip-oracle",
              _orders((1, 1, 1, 1, 2))),
        _slot("toprec --g 0 --n 4 --mu {v} --skip-oracle",
              _orders((1, 1, 2, 2))),
        _slot("toprec --g 1 --n 2 --mu {v}", _orders((2, 3))),
        _slot("toprec --g 1 --n 3 --mu {v} --skip-oracle",
              _orders((2, 2, 3))),
    ],
    # symgroup oracles against characters (hundreds of tiny sectors), the
    # N-recursion, tropical covers and the quantum curve
    "crosscheck": [
        _slot("verify --suite n-recursion --dmax 3"),
        _slot("verify --suite oracle-vs-characters --dmax 5"),
        _slot("tropical --genus 3 --degree 3 --variant monotone"),
        _slot("verify --suite quantum-curve"),
        _slot("verify --suite tropical"),
        _slot("verify --suite golden-series"),
    ],
}


def key(argv):
    """The name of one invocation in the expected-output table."""
    return shlex.join(argv)


def plan(workload, seed):
    """The argv of every invocation of one pass, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    picks = [rng.choice(variants) for variants in WORKLOADS[workload]]
    rng.shuffle(picks)
    return picks
