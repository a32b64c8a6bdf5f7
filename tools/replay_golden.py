"""Replay every report recorded in coldbench/golden.json and compare its sha256.

    python3 tools/replay_golden.py

Each key of golden.json is a job: "cli <argv>" runs
`python3 -m magicsquare.cli <argv>`, "api <argv>" runs
`python3 coldbench/api_job.py <argv>`. Every job is a fresh process whose
working directory and HOME are a new, empty temporary directory, with only
PYTHONPATH (the checkout's `src`) and HOME in its environment, as in the
benchmark. A job fails if it exits nonzero or if the sha256 of its standard
output differs from the recorded one. Prints one line per failed job, with
the last line the job wrote to standard error (a traceback's exception, for
one), and a summary; exits 1 if any job failed. Reads `coldbench/` and
writes nothing inside the checkout.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "coldbench")
SRC = os.path.join(ROOT, "src")


def job_command(key):
    kind, *argv = key.split(" ")
    if kind == "cli":
        return [sys.executable, "-m", "magicsquare.cli"] + argv
    if kind == "api":
        return [sys.executable, os.path.join(BENCH, "api_job.py")] + argv
    raise ValueError(f"unknown job kind in {key!r}")


def replay(key):
    """(exit code, sha256 of standard output, last line of standard error) of one job run cold."""
    with tempfile.TemporaryDirectory() as home:
        proc = subprocess.run(job_command(key), cwd=home, env={"PYTHONPATH": SRC, "HOME": home},
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
    err = proc.stderr.decode(errors="replace").strip().splitlines()
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), err[-1] if err else ""


def main():
    with open(os.path.join(BENCH, "golden.json")) as fh:
        golden = json.load(fh)
    failed = 0
    for key, expected in sorted(golden.items()):
        code, digest, err = replay(key)
        if code != 0 or digest != expected:
            failed += 1
            print(f"MISMATCH {key}: exit {code}, sha256 {digest}, stderr {err!r}")
    print(f"{len(golden)} jobs, {failed} mismatches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
