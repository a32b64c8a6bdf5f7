"""Record golden.json: the sha256 of every report the checks compare byte for byte.

    python3 coldbench/record_golden.py

Runs each job of jobs.golden_jobs() cold, exactly as run.py does, and
refuses to write anything if a job fails a seed-independent check. Rerun it
only when a change to the package is meant to change a report.
"""

import hashlib
import json
import os
import sys
import time

import jobs
import run


def main():
    golden, bad = {}, []
    with run.run_directory() as run_dir:
        runner = run.Runner(run_dir, {}, time.monotonic() + 3600)
        out_path = os.path.join(run_dir, "out")
        for job in jobs.golden_jobs():
            p = runner.spawn(run.job_command(job), out_path)
            with open(out_path, "rb") as fh:
                out = fh.read()
            failures = jobs.check_job(job, p.code, out, {})
            print(f"{p.wall:7.2f} s  {jobs.job_key(job)}  {failures or 'ok'}")
            bad += failures
            golden[jobs.job_key(job)] = hashlib.sha256(out).hexdigest()
    if bad:
        print("not recorded: some jobs failed their checks", file=sys.stderr)
        return 1
    with open(os.path.join(run.HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
