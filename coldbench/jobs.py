"""Workloads of the cold-process benchmark and the checks on their outputs.

A job is one fresh Python process: either the package CLI
(`python3 -m magicsquare.cli <argv>`) or the benchmark's API job
(`python3 coldbench/api_job.py <argv>`). The seed of the benchmark only
chooses parameters; the program sees nothing but the generated argv.

Every job is classed by its arguments, never by its timing: "O" when it
builds an algebra involving the octonions (and so pays the t(O) cold start),
"light" otherwise.

The expected values below are the benchmark's own copies, so that a change
to the package cannot move the checks along with it.
"""

import csv
import hashlib
import json
import random
from collections import namedtuple

import api_job

WORKLOADS = ("verify_e8", "crosscheck_full", "cli_queries")

# Jobs of this seed are checked byte for byte against golden.json, besides
# the checks that hold for every seed.
DEFAULT_SEED = 0

Job = namedtuple("Job", "kind argv cls")

DIM = {"R": 1, "C": 2, "H": 4, "O": 8}
T_DIMS = {"R": 0, "C": 2, "H": 9, "O": 28}
# The classical magic square: dim g(A,B).
MAGIC_DIMS = {
    ("R", "R"): 3, ("R", "C"): 8, ("R", "H"): 21, ("R", "O"): 52,
    ("C", "C"): 16, ("C", "H"): 35, ("C", "O"): 78,
    ("H", "H"): 66, ("H", "O"): 133, ("O", "O"): 248,
}
DYNKIN = {
    ("R", "R"): "A1", ("R", "C"): "A2", ("R", "H"): "C3", ("R", "O"): "F4",
    ("C", "C"): "A2xA2", ("C", "H"): "A5", ("C", "O"): "E6",
    ("H", "H"): "D6", ("H", "O"): "E7", ("O", "O"): "E8",
}
RANK = {"R": 0, "C": 2, "H": 3, "O": 4}
# The printed formulas that crosscheck --suite full documents as mismatches.
SUSPECTS = sorted([
    "deligne_lambda_form_printed", "subexceptional_V_hilbert_printed",
    "y2star_hilbert_printed", "degree_subexc_X_printed",
    "degree_subexc_flines_printed", "degree_flines", "degree_fpoints",
])


def _pair(a, b):
    return (a, b) if "RCHO".index(a) <= "RCHO".index(b) else (b, a)


def magic_dim(a, b):
    return MAGIC_DIMS[_pair(a, b)]


# -- parameter pools -----------------------------------------------------------------
# Each pool holds every argv one query template can produce, so that the
# deterministic templates are covered by golden.json whatever the seed.


def _sides(x, y):
    return [["--A", x, "--B", y], ["--A", y, "--B", x]]


LIGHT_ROOTS = [["roots", "--A", x, "--B", y] for x in "RCH" for y in "RCH"]
DIM_SERIES = (
    [["dim", "--series", "exceptional", "-" + s, str(k), "-a", str(a)]
     for s in "pqrs" for k in (1, 2, 3) for a in (1, 2, 4, 8)]
    + [["dim", "--series", "subexceptional", "-" + s, str(k), "-a", str(a)]
       for s in "pqr" for k in (1, 2, 3) for a in (1, 2, 4, 8)]
    + [["dim", "--series", "severi", "-p", str(p), "--pstar", str(q), "-a", str(a)]
       for p in range(4) for q in range(4) if 1 <= p + q <= 3 for a in (1, 2, 4, 8)]
)
BUILTIN_WEIGHTS = [["dim", "--datum", f"builtin:e{r}", "--weight",
                    ",".join("1" if j == i else "0" for j in range(r))]
                   for r in (7, 8) for i in range(r)]
TABLES = ([["table", "--series", "qdim", "--k-max", "3"]]
          + [["table", "--series", s, "--k-max", str(k)]
             for s in ("severi", "exceptional") for k in (2, 3, 4)])
DUMPS = [["algebra", "dump", "--A", x] for x in "RCHO"]
O_ROOTS_H = [["roots"] + sides for sides in _sides("H", "O")]
O_ROOTS_RC = [["roots"] + sides for x in "RC" for sides in _sides(x, "O")]
TRIALITY_O = [["triality", "basis", "--A", "O"]]

DETERMINISTIC_POOLS = (TRIALITY_O, O_ROOTS_H, O_ROOTS_RC, LIGHT_ROOTS, DIM_SERIES,
                       BUILTIN_WEIGHTS, TABLES, DUMPS)


def _build(rng, x):
    n = rng.choice((1000, 2000, 3000))
    return ["build"] + rng.choice(_sides(x, "O")) + [
        "--verify", f"jacobi=sample:{n}", "--seed", str(rng.randrange(1000))]


def workload_jobs(workload, seed, iteration):
    """The jobs of one iteration, in the order the single client runs them."""
    rng = random.Random(f"{workload}:{seed}:{iteration}")
    if workload == "verify_e8":
        return [Job("cli", ["verify", "--A", "O", "--B", "O", "--jacobi", "full",
                            "--seed", str(seed)], "O"),
                Job("api", ["--seed", str(seed)], "O")]
    if workload == "crosscheck_full":
        # The crosscheck grid is fixed: the seed changes nothing here.
        return [Job("cli", ["crosscheck", "--suite", "full"], "O")]
    if workload == "cli_queries":
        mix = [Job("cli", TRIALITY_O[0], "O"),
                Job("cli", rng.choice(O_ROOTS_H), "O"),
                Job("cli", rng.choice(O_ROOTS_RC), "O"),
                Job("cli", _build(rng, "O"), "O"),
                Job("cli", _build(rng, rng.choice("RCH")), "O")]
        for pool in (LIGHT_ROOTS, LIGHT_ROOTS, DIM_SERIES, DIM_SERIES, BUILTIN_WEIGHTS,
                     BUILTIN_WEIGHTS, TABLES, TABLES, DUMPS):
            mix.append(Job("cli", rng.choice(pool), "light"))
        rng.shuffle(mix)
        return mix
    raise ValueError(f"unknown workload {workload!r}")


def golden_jobs():
    """Every job whose report golden.json records."""
    listed = [Job("cli", argv, None) for pool in DETERMINISTIC_POOLS for argv in pool]
    for w in WORKLOADS:
        listed += workload_jobs(w, DEFAULT_SEED, 0)
    return list({job_key(job): job for job in listed}.values())


def job_key(job):
    return " ".join([job.kind] + job.argv)


# -- checks --------------------------------------------------------------------------


def _opt(argv, name):
    return argv[argv.index(name) + 1]


def _check_verify(argv, rep):
    a, b = _opt(argv, "--A"), _opt(argv, "--B")
    n = magic_dim(a, b)
    yield rep["dim"] == rep["expected_dim"] == n, "dim"
    yield rep["triality_dims"] == [T_DIMS[a], T_DIMS[b]], "triality dims"
    yield rep["seed"] == int(_opt(argv, "--seed")), "seed"
    yield rep["jacobi"]["defects"] == 0, "jacobi defects"
    yield rep["jacobi"]["checked"] == n * (n - 1) * (n - 2) // 6, "jacobi triples"
    yield rep["antisymmetry_defects"] == 0, "antisymmetry defects"
    yield rep["invariant_form_defects"] == 0, "invariant form defects"
    yield rep["h_subalgebras_closed"] == [True] * 3, "h closure"
    yield rep["failures"] == [] and rep["ok"] is True, "verify failures"


def _check_build(argv, rep):
    a, b = _opt(argv, "--A"), _opt(argv, "--B")
    yield rep["dim"] == rep["expected_dim"] == magic_dim(a, b), "dim"
    yield rep["t_dims"] == [T_DIMS[a], T_DIMS[b]], "triality dims"
    yield rep["seed"] == int(_opt(argv, "--seed")), "seed"
    yield rep["jacobi_checked"] == int(_opt(argv, "--verify").split(":")[1]), "samples"
    yield rep["defects"] == 0, "jacobi defects"


def _check_roots(argv, rep):
    a, b = _opt(argv, "--A"), _opt(argv, "--B")
    rank = max(1, RANK[a] + RANK[b])
    yield rep["dynkin_type"] == DYNKIN[_pair(a, b)], "dynkin type"
    yield rep["rank"] == rank, "rank"
    yield 2 * len(rep["positive_roots"]) == magic_dim(a, b) - rank, "root count"


def _check_triality(argv, rep):
    a = _opt(argv, "--A")
    yield rep["algebra"] == a and rep["dim"] == len(rep["basis"]) == T_DIMS[a], "t dim"


def _check_dump(argv, rep):
    yield rep["dim"] == DIM[_opt(argv, "--A")], "algebra dim"


def _check_crosscheck(argv, rep):
    s = rep["summary"]
    yield s["exit_code"] == 0 and s["unexpected_mismatches"] == [], "unexpected mismatches"
    yield s["documented_mismatches"] == SUSPECTS, "documented mismatches"
    yield rep["known_suspects"] == SUSPECTS, "known suspects"
    yield all(e["formula"] in SUSPECTS for e in rep["entries"]
              if e["status"] == "MISMATCH"), "mismatch outside suspects"


def _check_api(argv, rep):
    yield rep["seed"] == int(_opt(argv, "--seed")), "seed"
    for name, dim, parent in (("V", 6 * 8 + 8, magic_dim("O", "H")),
                              ("W", 3 * 8 + 3, magic_dim("O", "C"))):
        m = rep[name]
        yield m["dim"] == dim and m["parent_dim"] == parent, f"{name} dims"
        yield m["rep_pairs"] == api_job.REP_PAIRS and m["rep_defects"] == 0, f"{name} representation"
        yield m["form_checks"] == api_job.FORM_CHECKS and m["form_defects"] == 0, f"{name} form"
    yield rep["V"]["antisymmetry_defects"] == 0, "V antisymmetry"


JSON_CHECKS = {"verify": _check_verify, "build": _check_build, "roots": _check_roots,
               "triality": _check_triality, "algebra": _check_dump,
               "crosscheck": _check_crosscheck}


def _check_text(argv, text):
    lines = text.splitlines()
    if argv[0] == "dim":
        yield len(lines) == 1 and lines[0].isdigit() and int(lines[0]) > 0, "dimension value"
    else:
        rows = list(csv.reader(lines))
        yield len(rows) > 1 and all(len(r) == len(rows[0]) for r in rows), "table shape"


def check_job(job, exit_code, out, golden):
    """Reasons the job failed; empty when every check passes.

    A job fails if it crashed or exited with a code other than 0, if its
    report differs from the golden report recorded for its argv, or if a
    check that holds for every seed fails on its report.
    """
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}")
    expected = golden.get(job_key(job))
    if expected is not None and hashlib.sha256(out).hexdigest() != expected:
        failures.append("report differs from golden sha256")
    try:
        text = out.decode()
        if job.kind == "api":
            checks = _check_api(job.argv, json.loads(text))
        elif job.argv[0] in JSON_CHECKS:
            checks = JSON_CHECKS[job.argv[0]](job.argv, json.loads(text))
        else:
            checks = _check_text(job.argv, text)
        failures += [f"check failed: {what}" for ok, what in checks if not ok]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        failures.append(f"unreadable report: {type(exc).__name__}: {exc}")
    return failures


def tally(failure_lists):
    """(attempted, failed): each job is one operation, failed if any check failed."""
    return len(failure_lists), sum(1 for f in failure_lists if f)


def load_golden(path):
    with open(path) as fh:
        return json.load(fh)
