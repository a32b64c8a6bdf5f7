"""Self-test of the output checks and the trace-completeness check.

Each bad job is one failed operation; each broken trace is reported.

    python3 -m pytest coldbench/test_checks.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import run  # noqa: E402

GOLDEN = jobs.load_golden(os.path.join(HERE, "golden.json"))
DIM_JOB = jobs.Job("cli", ["dim", "--series", "exceptional", "-p", "1", "-a", "8"], "light")
BUILD_JOB = jobs.Job("cli", ["build", "--A", "H", "--B", "O", "--verify",
                             "jacobi=sample:1000", "--seed", "5"], "O")


def build_report(defects):
    rep = {"A": "H", "B": "O", "dim": 133, "expected_dim": 133, "t_dims": [9, 28],
           "seed": 5, "jacobi_checked": 1000, "defects": defects}
    return (json.dumps(rep, indent=1, sort_keys=True) + "\n").encode()


def test_good_reports_pass():
    assert jobs.job_key(DIM_JOB) in GOLDEN
    assert jobs.check_job(DIM_JOB, 0, b"248\n", GOLDEN) == []
    assert jobs.check_job(BUILD_JOB, 0, build_report(0), GOLDEN) == []


def test_each_bad_job_is_one_failed_operation():
    bad = [
        jobs.check_job(DIM_JOB, 0, b"249\n", GOLDEN),            # one byte changed
        jobs.check_job(DIM_JOB, 1, b"248\n", GOLDEN),            # unexpected exit code
        jobs.check_job(BUILD_JOB, 0, build_report(3), GOLDEN),   # defects > 0
    ]
    assert all(bad)
    good = jobs.check_job(DIM_JOB, 0, b"248\n", GOLDEN)
    assert jobs.tally(bad + [good]) == (4, 3)
    for failures in bad:
        assert jobs.tally([failures]) == (1, 1)


def test_unreadable_report_fails():
    assert jobs.check_job(BUILD_JOB, 0, b"Traceback (most recent call last):\n", GOLDEN)


def trace(spans, t_start=1.0, t_end=9.0):
    return {"t_main": 0.5, "t_start": t_start, "t_end": t_end, "spans": spans,
            "absorbed": {"series.evaluate": 0}}


# A job spawned at 0.0 that ran for 10 s: interpreter start 0.5 s, import
# 0.5 s, 8 s inside the job of which 6 s in spans, exit 1 s.
GOOD_SPANS = [["triality.basis", -1, 2.0, 6.0, None],
              ["linalg.rref", 0, 3.0, 4.0, {"cells": 12}],
              ["linalg.rref", 0, 4.5, 5.0, {"cells": 6}],
              ["series.qdim", -1, 6.0, 8.0, None]]


def test_complete_trace_adds_up():
    m, problems = run.layer_metrics(trace(GOOD_SPANS), 0.0, 10.0)
    assert problems == []
    assert m["triality.basis_s"] == 2.5 and m["linalg.rref_s"] == 1.5
    assert m["linalg.rref_calls"] == 2 and m["linalg.rref_cells"] == 18
    assert (m["cli.import_s"], m["cli.untraced_s"], m["cli.exit_s"]) == (0.5, 2.0, 1.0)
    self_total = sum(m[f"{n}_s"] for n in run.TIMED_SPANS)
    assert 0.5 + self_total + m["cli.other_s"] == 10.0


def test_broken_traces_are_reported():
    child_outside = [GOOD_SPANS[0], ["linalg.rref", 0, 5.0, 7.0, {"cells": 1}]]
    siblings_overlap = [GOOD_SPANS[0], GOOD_SPANS[1], ["linalg.rref", 0, 3.5, 5.0, {"cells": 1}]]
    before_job = [["series.qdim", -1, 0.8, 2.0, None]]
    after_job = [["series.qdim", -1, 8.0, 9.5, None]]
    no_parent = [["linalg.rref", 3, 2.0, 3.0, {"cells": 1}]]
    for spans in (child_outside, siblings_overlap, before_job, after_job, no_parent):
        assert run.layer_metrics(trace(spans), 0.0, 10.0)[1], spans
    # The job cannot end after its process did, nor the tracer start before it.
    assert run.layer_metrics(trace(GOOD_SPANS), 0.0, 8.5)[1]
    assert run.layer_metrics(trace(GOOD_SPANS), 0.6, 10.0)[1]


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
