"""Derandomised property tests on top of the fixed grids.

Each runs the same examples on every run (derandomize=True), so a failure
reproduces without a stored example database.
"""

import io
import json
import signal
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache
from math import comb
from unittest import mock

from hypothesis import assume, example, given, settings, strategies as st

from mixedhurwitz import (
    characters,
    cli,
    double_recursion,
    quantum_curve,
    spectral,
    suites,
    tropical,
)
from mixedhurwitz.characters import (
    connected_hurwitz_qseries,
    potential_log,
    sector_family,
    sector_value,
)
from mixedhurwitz.double_recursion import N_value, double_hurwitz
from mixedhurwitz.errors import DomainError
from mixedhurwitz.partitions import enumerate_partitions, partition_count
from mixedhurwitz.quasimodular import (
    FitFailure,
    QuasimodularPoly,
    eisenstein,
    fit_quasimodular,
    monomial_basis,
)
from mixedhurwitz.series import QSeries
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
from references import exp_at, expand_quasimodular, subsectors
from test_characters import reference_sector_value
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
    assert exp_at(connected, target) == disconnected[target]


@cache
def _multiset_difference(p, p1):
    return tuple(sorted((Counter(p) - Counter(p1)).elements(), reverse=True))


def _reference_euler_sum(s, conn, disc):
    """Sum of C(k, k1) d1 conn[s1] disc[s - s1] over subsectors s1 of s with
    1 <= d1 < d, term by term in Fractions."""
    k, l, m, profiles, d = s
    total = Fraction(0)
    for s1 in subsectors(s):
        k1, l1, m1, prof1, d1 = s1
        if not 1 <= d1 < d:
            continue
        prof2 = tuple(map(_multiset_difference, profiles, prof1))
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
    its subsectors of degree >= 1, zeros and negative values included.  In
    half the families a sector vanishes below a degree of its own, at least
    its largest profile's size, as a genus-0 profile sector does."""
    target = (draw(st.integers(0, 2)), draw(st.integers(0, 1)),
              draw(st.integers(0, 1)), draw(profiles), draw(st.integers(1, 5)))
    sectors = sorted(s for s in subsectors(target) if s[4])
    value = st.one_of(st.just(Fraction(0)), st.fractions(
        min_value=-7, max_value=7, max_denominator=12))
    values = draw(st.lists(value, min_size=len(sectors), max_size=len(sectors)))
    family = dict(zip(sectors, values))
    if draw(st.booleans()):
        keys = sorted({s[:4] for s in sectors})
        extra = draw(st.lists(st.integers(0, 2), min_size=len(keys),
                              max_size=len(keys)))
        lows = {key: max(map(sum, key[3]), default=0) + x
                for key, x in zip(keys, extra)}
        family = {s: v if s[4] >= lows[s[:4]] else Fraction(0)
                  for s, v in family.items()}
    # largest sectors first: the solvers must not rely on the input order
    return target, dict(reversed(family.items()))


def _genus_zero_family(target):
    """The disconnected genus-0 character values on the subsectors of target."""
    return target, {s: sector_value(0, *s) for s in subsectors(target) if s[4]}


@PROPERTY
@example(_genus_zero_family((2, 1, 0, ((2, 2), (3,)), 5)))
@example(_genus_zero_family((1, 1, 1, ((3,), (2,)), 5)))
@given(rational_families())
def test_log_and_exp_match_a_fraction_reference(family):
    target, values = family
    logs = _reference_log_exp(values, log=True)
    got = potential_log(values, list(values))
    assert got == logs
    assert all(type(v) is Fraction for v in got.values())
    exp = exp_at(values, target)
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


free_partitions = st.lists(st.integers(2, 5), max_size=3).map(
    lambda parts: tuple(sorted(parts, reverse=True)))


@st.composite
def sector_key_families(draw):
    """(g, keys, dmax, low): up to 8 subkeys of a random key with k <= 3,
    l, m <= 2 and up to 3 random 1-free profiles, so that keys share profile
    prefixes, at g <= 2 and 6 <= dmax <= 12."""
    top = (draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 2)),
           tuple(draw(st.lists(free_partitions, max_size=3))), 0)
    subkeys = sorted({s[:4] for s in subsectors(top)})
    keys = draw(st.lists(st.sampled_from(subkeys), min_size=1, max_size=8, unique=True))
    dmax = draw(st.integers(6, 12))
    return draw(st.integers(0, 2)), keys, dmax, draw(st.integers(0, dmax))


@PROPERTY
@example((0, sorted({s[:4] for s in subsectors((4, 2, 0, ((2, 2), (3,)), 0))}), 12, 0))
@example((2, [(2, 1, 1, ((3, 2), (2, 2), (4,))), (0, 0, 0, ((), (2,), (4,)))], 12, 0))
@example((1, [(3, 0, 0, ((2,), (2,), (2,))), (1, 2, 0, ((2,), (), ()))], 12, 5))
@given(sector_key_families())
def test_sector_family_matches_the_per_lambda_reference(case):
    g, keys, dmax, low = case
    got = sector_family(g, keys, dmax, low)
    assert sorted(got) == sorted(keys)
    for key in keys:
        want = [reference_sector_value(g, *key, d) if d >= low else 0
                for d in range(dmax + 1)]
        assert got[key] == want, (g, key)
        assert all(type(v) is Fraction for v in got[key])


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


TOPREC = ["--cache-dir=", "--oracle-dmax", "4", "toprec"]
DOUBLE = ["--cache-dir=", "double"]
HUGE = "9" * 30
BAD_COUNTS = ["-1", "0", "40", HUGE, "", "x", "1.5"]
BAD_PARTS = ["0", "-1", "", "1,,2", "1,", ",", "a", HUGE, "1,1,600",
             ",".join(["1"] * 40), "9" * 5000]
BAD_TOPREC = {"--g": BAD_COUNTS, "--n": BAD_COUNTS, "--mu": BAD_PARTS}
BAD_DOUBLE = {"--variant": ["weak", "", "MONOTONE"], "--genus": BAD_COUNTS,
              "--mu": BAD_PARTS, "--nu": BAD_PARTS}


def _mangled(draw, argv, flags, bad):
    """argv plus each flag, now and then with its value swapped for a
    malformed, edge or huge one from bad, or left out."""
    argv = list(argv)
    for flag, value in flags.items():
        kind = draw(st.sampled_from(["valid"] * 6 + ["bad"] * 3 + ["missing"]))
        if kind == "bad":
            value = draw(st.sampled_from(bad[flag]))
        if kind != "missing":
            argv += [flag, value]
    return argv


def _main(argv, seconds=2):
    """cli.main(argv) in this process: (exit code, stdout, stderr).  Raises
    TimeoutError when the call runs past seconds, so a run without its budget
    fails instead of hanging the suite."""
    def stop(signum, frame):
        raise TimeoutError(f"{argv} ran past {seconds} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse refuses a malformed flag
                code = e.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@st.composite
def toprec_argvs(draw):
    """toprec argv: valid (g, n, mu), each flag mangled now and then."""
    n = draw(st.integers(1, 4))
    mu = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    flags = {"--g": str(draw(st.integers(0, 3))), "--n": str(n),
             "--mu": ",".join(map(str, mu))}
    argv = _mangled(draw, TOPREC, flags, BAD_TOPREC)
    return argv + draw(st.sampled_from([[], ["--skip-oracle"]]))


@settings(PROPERTY, max_examples=150)
@example(TOPREC + ["--g", "1", "--n", "1", "--mu", "300"])
@example(TOPREC + ["--g", "0", "--n", "3", "--mu", "1,1,600", "--skip-oracle"])
@example(TOPREC + ["--g", "0", "--n", "40", "--mu", ",".join(["1"] * 40)])
@example(TOPREC + ["--g", "2", "--n", "0", "--mu", ""])
@given(toprec_argvs())
def test_toprec_argv_exits_0_2_or_3_without_a_traceback(argv):
    # small budgets keep every accepted argv cheap, so a slow one ran past them
    with mock.patch.multiple(spectral, OMEGA_CHI_LIMIT=4, OMEGA_TERM_LIMIT=200,
                             CUT_AND_JOIN_LIMIT=9):
        code, out, err = _main(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        doc = json.loads(out)
        assert doc["C"] == doc["checks"]["cut_and_join"]
        assert doc["checks"]["oracle"] in (None, doc["C"])
    else:
        assert out == ""


@st.composite
def double_argvs(draw):
    """double argv: valid (variant, genus, mu, nu) with |mu| = |nu| <= 5,
    each flag mangled now and then."""
    parts = enumerate_partitions(draw(st.integers(1, 5)))
    mu, nu = draw(st.sampled_from(parts)), draw(st.sampled_from(parts))
    flags = {"--variant": draw(st.sampled_from(["monotone", "strict"])),
             "--genus": str(draw(st.integers(0, 3))),
             "--mu": ",".join(map(str, mu)), "--nu": ",".join(map(str, nu))}
    return _mangled(draw, DOUBLE, flags, BAD_DOUBLE)


@settings(PROPERTY, max_examples=150)
@example(DOUBLE + ["--variant", "strict", "--mu", "30", "--nu", "30",
                   "--genus", "6"])
@example(DOUBLE + ["--variant", "monotone", "--mu", "2,1", "--nu", "3",
                   "--genus", "2"])                     # b + |mu| = 8
@example(DOUBLE + ["--variant", "monotone", "--mu", "2,1", "--nu", "2,1",
                   "--genus", "2"])                     # b + |mu| = 9
@given(double_argvs())
def test_double_argv_exits_0_2_or_3_without_a_traceback(argv):
    # a small budget keeps every accepted argv cheap, so a slow one ran past it
    with mock.patch.object(double_recursion, "DOUBLE_LIMIT", 8):
        code, out, err = _main(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        assert Fraction(json.loads(out)["value"]) >= 0
    else:
        assert out == ""


VERIFY_VALUES = ["0", "-1", "1", "3", HUGE, "", "x"]


@st.composite
def verify_argvs(draw):
    """verify argv: the suite and --deep from pools; --dmax and --jobs valid,
    edge, malformed or left out; --oracle-dmax always given and at most 3, so
    every accepted argv stays cheap."""
    def value(pool):
        return draw(st.one_of(st.sampled_from(["1", "3"]), st.sampled_from(pool)))

    argv = ["--cache-dir=", "--oracle-dmax",
            value([v for v in VERIFY_VALUES if v != HUGE])]
    if draw(st.booleans()):
        argv += ["--jobs", value(VERIFY_VALUES)]
    argv += ["verify", "--suite", draw(st.sampled_from([*suites.SUITES, "all", ""]))]
    if draw(st.booleans()):
        argv += ["--dmax", value(VERIFY_VALUES)]
    return argv + draw(st.sampled_from([[], ["--deep"]]))


@settings(PROPERTY, max_examples=100)
@example(["--cache-dir=", "--oracle-dmax", "3", "--jobs", HUGE, "verify",
          "--suite", "all", "--dmax", HUGE, "--deep"])
@given(verify_argvs())
def test_verify_argv_exits_0_1_or_2_without_a_traceback(argv):
    code, out, err = _main(argv, seconds=3)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    # exit 1 is a counterexample, and at these degrees every route agrees
    assert code != 1, out
    if code == 0:
        assert out.startswith("checked: ")
        assert out.endswith(", failures: 0\n")
    else:
        assert out == ""


CHARACTER_ROUTE = ["--cache-dir=", "--oracle-dmax", "3"]
CHARACTER_VALUES = ["0", "-1", HUGE, "", "x"]
BAD_CHARACTER = {**dict.fromkeys(["--base-genus", "--source-genus", "--degree", "--k",
                                  "--l", "--m", "--qmax", "--weight"], CHARACTER_VALUES),
                 "--profiles": BAD_PARTS + [";;", "2;;2", "1;1", "3;" * 40]}


@st.composite
def character_argvs(draw):
    """qseries, fit or compute argv: a sector with d <= 9, k + l + m <= 3 and
    the source genus it implies where there is one, each flag mangled now and
    then.  A fit has d >= 6 coefficients past the first, enough for weight 2."""
    command = draw(st.sampled_from(["qseries", "fit", "compute"]))
    g, b = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    d = draw(st.integers(6 if command == "fit" else 1, 9))
    k = draw(st.integers(0, b))
    l = draw(st.integers(0, b - k))
    profs = draw(profiles)
    try:
        gp = source_genus_for(g, d, profs, b)
    except DomainError:  # b of the wrong parity, or too few for the profiles
        gp = 0
    flags = {"--base-genus": str(g), "--source-genus": str(gp),
             "--profiles": ";".join(",".join(map(str, p)) for p in profs),
             "--k": str(k), "--l": str(l), "--m": str(b - k - l)}
    if command == "compute":
        flags["--degree"] = str(d)
        extra = [[], ["--connected"], ["--labeled"], ["--method", "oracle"]]
    else:
        flags["--qmax"] = str(d)
        extra = [[], ["--bracket"], ["--disconnected"]][:3 if command == "qseries" else 2]
    if command == "fit":
        flags["--weight"] = str(draw(st.sampled_from([0, 2])))
    argv = _mangled(draw, CHARACTER_ROUTE + [command], flags, BAD_CHARACTER)
    return argv + draw(st.sampled_from(extra))


@settings(PROPERTY, max_examples=150)
@example(CHARACTER_ROUTE + ["qseries", "--base-genus", "0", "--source-genus", "0",
                            "--k", "-1", "--qmax", "3"])
@example(CHARACTER_ROUTE + ["qseries", "--base-genus", "1", "--source-genus", "0",
                            "--k", "-2", "--qmax", "4", "--bracket"])
@example(CHARACTER_ROUTE + ["qseries", "--base-genus", "1", "--source-genus", "0",
                            "--k", "-2", "--qmax", "4", "--disconnected"])
@example(CHARACTER_ROUTE + ["fit", "--base-genus", "1", "--source-genus", "0",
                            "--k", "-2", "--qmax", "4", "--weight", "2", "--bracket"])
@example(CHARACTER_ROUTE + ["qseries", "--base-genus", "-1", "--source-genus", "0",
                            "--qmax", "3"])
@example(CHARACTER_ROUTE + ["qseries", "--base-genus", HUGE, "--source-genus", "0",
                            "--qmax", "3"])
@example(CHARACTER_ROUTE + ["qseries", "--base-genus", "0", "--source-genus", "0",
                            "--k", HUGE, "--qmax", "3"])
@example(CHARACTER_ROUTE + ["compute", "--base-genus", "1", "--source-genus", "1",
                            "--degree", HUGE])
@example(CHARACTER_ROUTE + ["fit", "--source-genus", "1", "--qmax", "9",
                            "--weight", HUGE])
@example(CHARACTER_ROUTE + ["fit", "--source-genus", "2", "--k", "2", "--qmax", "9",
                            "--weight", "2", "--bracket"])
@example(["compute", "--base-genus", "2000", "--source-genus", "3999", "--degree", "2",
          "--method", "oracle"])
@example(["compute", "--base-genus", "300", "--source-genus", "1795", "--degree", "6",
          "--method", "oracle"])
@example(["--oracle-dmax", "7", "compute", "--base-genus", "2", "--source-genus", "8",
          "--degree", "7", "--method", "oracle"])
@example(["compute", "--base-genus", "0", "--source-genus", "1000", "--degree", "6",
          "--k", "2010", "--method", "oracle"])
@example(["--oracle-dmax", "9", "compute", "--base-genus", "0", "--source-genus", "0",
          "--degree", "9", "--profiles", "9", "--l", "8", "--method", "oracle"])
@example(["--oracle-dmax", "11", "compute", "--base-genus", "0", "--source-genus", "0",
          "--degree", "11", "--profiles", "11", "--l", "10", "--method", "oracle"])
@given(character_argvs())
def test_character_argv_exits_0_2_or_3_without_a_traceback(argv):
    # a small budget keeps every accepted argv cheap, so a slow one ran past it
    with mock.patch.object(characters, "PARTITION_LIMIT", partition_count(9)):
        code, out, err = _main(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        assert isinstance(json.loads(out), dict)
    else:
        assert out == ""


TROPICAL = ["--cache-dir=", "tropical"]
BAD_TROPICAL = {"--genus": BAD_COUNTS, "--degree": BAD_COUNTS,
                "--variant": ["weak", "", "MONOTONE"]}


@st.composite
def tropical_argvs(draw):
    """tropical argv: valid (genus, degree, variant) with genus <= 4 and
    degree <= 4, each flag mangled now and then."""
    flags = {"--genus": str(draw(st.integers(2, 4))),
             "--degree": str(draw(st.integers(1, 4))),
             "--variant": draw(st.sampled_from(["monotone", "strict"]))}
    argv = _mangled(draw, TROPICAL, flags, BAD_TROPICAL)
    return argv + draw(st.sampled_from([[], ["--list"]]))


def _tropical(genus):
    return TROPICAL + ["--genus", genus, "--degree", "1", "--variant", "monotone"]


@settings(PROPERTY, max_examples=100)
@example(_tropical("100000"))  # 10 s without the genus bound
@example(_tropical("9"))
@example(_tropical("1000"))
@example(_tropical(str(10**9)))
@given(tropical_argvs())
def test_tropical_argv_exits_0_2_or_3_without_a_traceback(argv):
    # small budgets keep every accepted argv cheap, so a slow one ran past them
    with mock.patch.multiple(tropical, NODE_LIMIT=3000,
                             MAX_DEGREE={g: 5 for g in (2, 3, 4)}):
        code, out, err = _main(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        doc = json.loads(out)
        if "covers" in doc:
            assert sum(Fraction(c["multiplicity"]) for c in doc["covers"]) == \
                Fraction(doc["total"])
    else:
        assert out == ""


QC = ["--cache-dir=", "qc", "verify"]
BAD_QC = {"--variant": ["weak", "", "MONOTONE"], "--genus": BAD_COUNTS,
          "--dmax": BAD_COUNTS, "--bmax": BAD_COUNTS}


@st.composite
def qc_argvs(draw):
    """qc verify argv: valid (variant, genus, dmax, bmax) with genus <= 3 and
    dmax, bmax <= 10, each flag mangled now and then."""
    flags = {"--variant": draw(st.sampled_from(["monotone", "strict"])),
             "--genus": str(draw(st.integers(0, 3))),
             "--dmax": str(draw(st.integers(0, 10))),
             "--bmax": str(draw(st.integers(0, 10)))}
    return _mangled(draw, QC, flags, BAD_QC)


@settings(PROPERTY, max_examples=100)
@example(QC + ["--variant", "strict", "--genus", "30"])  # past GENUS_LIMIT
@example(QC + ["--variant", "strict", "--genus", "8"])
@example(QC + ["--variant", "strict", "--genus", str(10**6)])
@example(QC + ["--variant", "strict", "--genus", "1", "--dmax", str(10**6)])
@example(QC + ["--variant", "strict", "--genus", "1", "--bmax", str(10**6)])
@given(qc_argvs())
def test_qc_argv_exits_0_2_or_3_without_a_traceback(argv):
    # small budgets keep every accepted argv cheap, so a slow one ran past them
    with mock.patch.multiple(quantum_curve, GENUS_LIMIT=3, WINDOW_LIMIT=10):
        code, out, err = _main(argv)
    # exit 1 would be a nonzero residual: the operators annihilate every Z
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    assert out == ("0\n" if code == 0 else "")


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


def _reference_fit(s, weight_bound):
    """Gauss-Jordan over Fractions with the fit's pivot rule: (terms, None)
    for a solution with the free unknowns at 0, (None, row) for the first
    row left inconsistent."""
    basis = monomial_basis(weight_bound)
    order = s.high
    P, Q, R = (eisenstein(k, order) for k in (2, 4, 6))
    one = QSeries.one(order)
    expansions = []
    for a, b, c in basis:
        x = one
        for series, n in ((P, a), (Q, b), (R, c)):
            for _ in range(n):
                x = x * series
        expansions.append(x)
    rows = [[x.coefficient(e) for x in expansions] + [s.coefficient(e)]
            for e in range(order + 1)]
    pivots = {}
    for col in range(len(basis)):
        sel = next((i for i, row in enumerate(rows)
                    if row[col] and i not in pivots), None)
        if sel is None:
            continue
        pivots[sel] = col
        rows[sel] = [x / rows[sel][col] for x in rows[sel]]
        for i, row in enumerate(rows):
            if i != sel and row[col]:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[sel])]
    for i, row in enumerate(rows):
        if i not in pivots and any(row):
            return None, i
    sol = {col: rows[i][-1] for i, col in pivots.items()}
    return tuple((m, sol[j]) for j, m in enumerate(basis) if sol.get(j)), None


@st.composite
def fit_systems(draw):
    """(series, weight bound, margin): the expansion of a random polynomial,
    perhaps with one coefficient changed, or a random series.  A negative
    margin leaves fewer equations than unknowns."""
    weight = draw(st.integers(0, 12))
    margin = draw(st.integers(-4, 6))
    order = max(0, len(monomial_basis(weight)) + margin - 1)
    coef = st.fractions(min_value=-5, max_value=5, max_denominator=8)
    kind = draw(st.sampled_from(["consistent", "perturbed", "random"]))
    if kind == "random":
        return QSeries(draw(st.lists(coef, min_size=order + 1,
                                     max_size=order + 1))), weight, margin
    terms = tuple((m, draw(coef)) for m in monomial_basis(weight)
                  if draw(st.booleans()))
    coeffs = expand_quasimodular(QuasimodularPoly(weight, terms),
                                 order).coefficients(0, order)
    if kind == "perturbed":
        coeffs[draw(st.integers(0, order))] += draw(coef.filter(bool))
    return QSeries(coeffs), weight, margin


@PROPERTY
@given(fit_systems())
def test_integer_fit_matches_a_fraction_reference(case):
    s, weight, margin = case
    terms, residual = _reference_fit(s, weight)
    fit = fit_quasimodular(s, weight, margin)
    if residual is None:
        assert isinstance(fit, QuasimodularPoly) and fit.terms == terms
    else:
        assert isinstance(fit, FitFailure) and fit.residual_index == residual
