"""Cold-process benchmark of magicsquare.

    python3 coldbench/run.py --workload verify_e8 --seed 0 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is taken from
`src/` next to this directory. One client runs one job at a time (a closed
loop), and every job is a fresh Python process, as for a user at the CLI:
the package keeps no cache across processes, so building the algebras is
the work measured, not set-up. Whole iterations of the workload run until
--seconds have passed: at least two with --trace 0, and at least one with
--trace 1.

With --trace 0 the end-to-end metrics are measured. With --trace 1 each
iteration runs twice, once plain and once through tracer.py, and the
per-layer metrics come from the traced run. Every job's output is checked
(see jobs.py); a failed check counts as a failed operation. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import collections
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".coldbench_tmp")
# Iterations of an untraced run, whatever --seconds says. The machine's
# speed drifts over tens of seconds, so one ~17 s iteration per run lets
# that drift through; two average over more of it.
MIN_ITERATIONS = 2
# At least this many set-up samples in an untraced run, besides the discarded warm-up.
SETUP_SAMPLES = 24
# Hard stop for the whole run; jobs still running then are killed and failed.
DEADLINE_S = 165.0


def job_command(job, spans_path=None):
    """The argv that runs job in a fresh process, through the tracer if spans_path is set."""
    if spans_path:
        head = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, job.kind]
    elif job.kind == "cli":
        head = [sys.executable, "-m", "magicsquare.cli"]
    else:
        head = [sys.executable, os.path.join(HERE, "api_job.py")]
    return head + job.argv


@contextlib.contextmanager
def run_directory():
    """A private directory under .coldbench_tmp/ in the checkout, removed afterwards."""
    os.makedirs(SCRATCH, exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        yield run_dir
    finally:
        shutil.rmtree(run_dir)
        if not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)


# A finished process: wall seconds, its start on the perf_counter clock,
# its rusage, its exit code and the last line of its standard error.
Spawned = collections.namedtuple("Spawned", "wall start usage code stderr")


class Runner:
    def __init__(self, run_dir, golden, deadline):
        self.run_dir = run_dir
        self.golden = golden
        self.deadline = deadline

    def spawn(self, cmd, out_path):
        """Run cmd in a fresh, empty directory that is also its HOME.

        Only PYTHONPATH and HOME are set in its environment. Its standard
        output goes to out_path.
        """
        home = tempfile.mkdtemp(dir=self.run_dir)
        env = {"PYTHONPATH": SRC, "HOME": home}
        err_path = out_path + ".err"
        try:
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(cmd, cwd=home, env=env, stdin=subprocess.DEVNULL,
                                        stdout=out, stderr=err)
                timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
                timer.start()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                timer.cancel()
                timer.join()
                proc.returncode = os.waitstatus_to_exitcode(status)
            with open(err_path, "rb") as fh:
                lines = fh.read().decode(errors="replace").strip().splitlines()
        finally:
            shutil.rmtree(home)
            os.remove(err_path)
        return Spawned(wall, t0, usage, proc.returncode, lines[-1] if lines else "")

    def run_job(self, job, traced):
        fd, out_path = tempfile.mkstemp(dir=self.run_dir)
        os.close(fd)
        spans_path = out_path + ".spans" if traced else None
        p = self.spawn(job_command(job, spans_path), out_path)
        with open(out_path, "rb") as fh:
            out = fh.read()
        os.remove(out_path)
        failures = jobs.check_job(job, p.code, out, self.golden)
        if p.code != 0 and p.stderr:
            failures.append(f"stderr: {p.stderr}")
        result = {"job": job, "wall": p.wall, "cpu": p.usage.ru_utime + p.usage.ru_stime,
                  "rss_mb": p.usage.ru_maxrss / 1024, "failures": failures}
        if traced:
            if os.path.exists(spans_path):
                with open(spans_path) as fh:
                    result["trace"], problems = layer_metrics(json.load(fh), p.start, p.wall)
                os.remove(spans_path)
                failures += [f"trace incomplete: {what}" for what in problems]
            else:
                failures.append("no spans written")
        return result

    def run_iteration(self, job_list, setup, traced=False):
        """Run the jobs in order, with set-up samples before, between and after them.

        The machine's speed drifts within seconds, so set-up samples spread
        over the iteration see more of the drift than a bunch taken at once.
        """
        per_gap = -(-SETUP_SAMPLES // (MIN_ITERATIONS * (len(job_list) + 1)))
        results = []
        for job in job_list:
            for _ in range(per_gap):
                self.sample_setup(setup)
            results.append(self.run_job(job, traced))
        for _ in range(per_gap):
            self.sample_setup(setup)
        return results

    def sample_setup(self, setup):
        """Time interpreter start plus `import magicsquare.cli` in a fresh process.

        The time is appended to setup; returns False if the import failed.
        """
        out_path = os.path.join(self.run_dir, "setup.out")
        p = self.spawn([sys.executable, "-c", "import magicsquare.cli"], out_path)
        os.remove(out_path)
        if p.code == 0:
            setup.append(p.wall)
        return p.code == 0


# -- per-layer metrics from spans ----------------------------------------------------

TIMED_SPANS = ("compalg.build", "linalg.rref", "linalg.nullspace", "linalg.solver_build",
               "linalg.solve", "triality.basis", "triality.calibrate",
               "triality.bracket_coords", "magic.table", "magic.jacobi", "magic.bracket",
               "modules.V_build", "modules.W_build", "modules.rep_check", "roots.extract",
               "roots.dynkin", "roots.builtin", "roots.weyl_dim", "series.degree",
               "series.evaluate", "series.qdim", "crosscheck.self", "crosscheck.oracle")
COUNTED_SPANS = ("linalg.rref", "linalg.nullspace", "linalg.solve",
                 "triality.bracket_coords", "roots.extract", "roots.weyl_dim",
                 "series.degree", "series.evaluate")
SUMMED = {"linalg.rref_cells": ("linalg.rref", "cells"),
          "magic.table_nnz": ("magic.table", "nnz"),
          "magic.jacobi_triples": ("magic.jacobi", "triples"),
          "magic.jacobi_defects": ("magic.jacobi", "defects"),
          "modules.rep_defects": ("modules.rep_check", "defect"),
          "crosscheck.entries": ("crosscheck.self", "entries"),
          "crosscheck.mismatches": ("crosscheck.self", "mismatches"),
          "crosscheck.unexpected": ("crosscheck.self", "unexpected")}


def zero_metrics():
    m = {f"{n}_s": 0.0 for n in TIMED_SPANS}
    m.update({f"{n}_calls": 0 for n in COUNTED_SPANS})
    m.update({k: 0 for k in SUMMED})
    m["modules.rep_pairs"] = 0
    m.update({k: 0.0 for k in ("cli.other_s", "cli.import_s", "cli.untraced_s", "cli.exit_s")})
    # Nullspace calls inside root extraction, and how many found eigenvectors.
    m["kernel_calls"] = m["kernel_hits"] = 0
    return m


def layer_metrics(trace, t_spawn, wall):
    """Self times and counts of one traced job, and what is wrong with its trace.

    A span's self time is its duration minus the time its child spans
    cover. cli.other_s is the job wall minus interpreter start minus the
    top-level spans. It is split in three: cli.import_s, from the tracer's
    first line to the start of the job (imports and wrapping);
    cli.untraced_s, the time inside the job that no top-level span covers;
    and cli.exit_s, from the end of the job to the exit of the process.

    The trace is complete when every span lies inside its parent and after
    its previous sibling, every top-level span lies inside the job, every
    self time is >= 0 and each part of cli.other_s is >= 0. Returns the
    metrics and the list of the ways in which the trace is not complete.
    """
    spans = trace["spans"]
    t_start, t_end = trace["t_start"], trace["t_end"]
    orphans = [i for i, span in enumerate(spans) if not -1 <= span[1] < i]
    if orphans:
        return zero_metrics(), [f"spans {orphans} have no earlier parent"]
    problems = []
    child_time = [0.0] * len(spans)
    # Where the next child of each span, or of the job (-1), may start.
    free_from = {-1: t_start}
    for i, (name, parent, start, end, _) in enumerate(spans):
        limit = spans[parent][3] if parent >= 0 else t_end
        if not free_from[parent] <= start <= end <= limit:
            problems.append(f"span {i} ({name}) outside its parent or overlapping a sibling")
        free_from[parent] = end
        free_from[i] = start
        if parent >= 0:
            child_time[parent] += end - start
    m = zero_metrics()
    top = 0.0
    in_extract = [False] * len(spans)
    for i, (name, parent, start, end, counts) in enumerate(spans):
        self_time = end - start - child_time[i]
        if self_time < 0:
            problems.append(f"span {i} ({name}) has negative self time")
        m[f"{name}_s"] += self_time
        if name in COUNTED_SPANS:
            m[f"{name}_calls"] += 1
        if name == "modules.rep_check":
            m["modules.rep_pairs"] += 1
        for key, (span_name, field) in SUMMED.items():
            if name == span_name:
                m[key] += counts[field]
        if parent < 0:
            top += end - start
        # Parents precede children, so ancestry is known when a child is met.
        in_extract[i] = name == "roots.extract" or (parent >= 0 and in_extract[parent])
        if name == "linalg.nullspace" and in_extract[i]:
            m["kernel_calls"] += 1
            m["kernel_hits"] += counts["nonempty"]
    for name, calls in trace["absorbed"].items():
        m[f"{name}_calls"] += calls
    m["cli.import_s"] = t_start - trace["t_main"]
    m["cli.untraced_s"] = t_end - t_start - top
    m["cli.exit_s"] = t_spawn + wall - t_end
    for part in ("cli.import_s", "cli.untraced_s", "cli.exit_s"):
        if m[part] < 0:
            problems.append(f"{part} is negative")
    # With the parts above, interpreter start and the top-level spans, this is the job wall.
    m["cli.other_s"] = m["cli.import_s"] + m["cli.untraced_s"] + m["cli.exit_s"]
    if trace["t_main"] < t_spawn:
        problems.append("the tracer started before its process")
    return m, problems


def sum_layers(results):
    """Per-layer metrics of a set of traced jobs: sums, and the ratios of the sums."""
    total = zero_metrics()
    for r in results:
        for k, v in r.get("trace", {}).items():
            total[k] += v
    hits, calls = total.pop("kernel_hits"), total.pop("kernel_calls")
    total["roots.eigen_kernel_hit_ratio"] = hits / calls if calls else 0.0
    jacobi = total["magic.jacobi_s"]
    total["magic.jacobi_triples_per_s"] = total["magic.jacobi_triples"] / jacobi if jacobi else 0.0
    return total


# -- reporting -----------------------------------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(iterations, setup):
    """Each metric as (unit, samples behind it, value)."""
    results = [r for it in iterations for r in it]
    o_lat = [r["wall"] for r in results if r["job"].cls == "O"]
    light_lat = [r["wall"] for r in results if r["job"].cls == "light"]
    walls = [sum(r["wall"] for r in it) for it in iterations]
    cpus = [sum(r["cpu"] for r in it) for it in iterations]
    e2e = {
        "wall_s": ("s", walls, statistics.median(walls)),
        "cpu_s": ("s", cpus, statistics.median(cpus)),
        "setup_s": ("s", setup, statistics.median(setup)),
        "peak_rss_mb": ("MB", [r["rss_mb"] for r in results],
                        max(r["rss_mb"] for r in results)),
        "o_query_p50_s": ("s", o_lat, statistics.median(o_lat)),
    }
    # Printed but kept out of the result line, as their spread over seeds
    # reaches beyond any bound BENCHMARK.json allows: the 90th percentile of
    # ten O queries is in effect the slowest one, and only cli_queries has
    # light jobs, from a bare start to ~0.5 s as the seed draws them.
    details = dict(e2e, o_query_p90_s=("s", o_lat, p90(o_lat)))
    if light_lat:
        details["light_query_p50_s"] = ("s", light_lat, statistics.median(light_lat))
    return e2e, details


def machine():
    info = {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "commit": git_commit()}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), "unknown")
    except OSError:
        info["cpu"] = "unknown"
    info["L2"] = info["L3"] = "unknown"
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else []:
        try:
            with open(os.path.join(cache, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache, index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            info[f"L{level}"] = size
    return info


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            return next((line.split()[0] for line in fh if line.rstrip().endswith(ref)),
                        "unknown")
    except OSError:
        return "unknown (not a git checkout)"


def print_jobs(label, iteration):
    for r in iteration:
        status = "ok" if not r["failures"] else "FAILED: " + "; ".join(r["failures"])
        print(f"  {label} {r['job'].cls:5s} {r['wall']:8.3f} s  {jobs.job_key(r['job'])}"
              f"  [{status}]")


def unit_of(metric):
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("ratio") else "count"


def print_layers(title, layers):
    times = sorted(((v, k) for k, v in layers.items() if unit_of(k) == "s"), reverse=True)
    by_layer = {}
    for v, k in times:
        by_layer[k.split(".")[0]] = by_layer.get(k.split(".")[0], 0.0) + v
    print(f"{title}: " + ", ".join(f"{k}={v:.3f}" for v, k in times[:6]))
    print(f"  by layer: " + ", ".join(f"{k}={v:.3f}" for k, v in
                                     sorted(by_layer.items(), key=lambda kv: -kv[1])))


def main(argv=None):
    ap = argparse.ArgumentParser(description="Cold-process benchmark of magicsquare.")
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "magicsquare", "cli.py")):
        print(f"coldbench: no package source at {SRC}/magicsquare", file=sys.stderr)
        return 2
    golden = jobs.load_golden(os.path.join(HERE, "golden.json"))
    with run_directory() as run_dir:
        return measure(Runner(run_dir, golden, time.monotonic() + DEADLINE_S), args)


def measure(runner, args):
    print("machine: " + json.dumps(machine(), sort_keys=True))
    # The warm-up compiles the bytecode; its time is discarded.
    if not runner.sample_setup([]):
        print(f"coldbench: cannot import magicsquare.cli from {SRC}", file=sys.stderr)
        return 1
    setup = []
    plain, traced = [], []
    start = time.monotonic()
    iteration = 0
    # Per-layer metrics carry no bound, so a traced run needs no second iteration.
    min_iterations = 1 if args.trace else MIN_ITERATIONS
    while True:
        job_list = jobs.workload_jobs(args.workload, args.seed, iteration)
        t_iter = time.monotonic()
        plain.append(runner.run_iteration(job_list, setup))
        print_jobs(f"iter {iteration}", plain[-1])
        if args.trace:
            traced.append(runner.run_iteration(job_list, setup, traced=True))
            print_jobs(f"iter {iteration} traced", traced[-1])
        iteration += 1
        now = time.monotonic()
        if now + (now - t_iter) > runner.deadline:
            break
        if now - start + (now - t_iter) > args.seconds and iteration >= min_iterations:
            break
    done = plain + traced
    attempted, failed = jobs.tally([r["failures"] for it in done for r in it])
    print(f"fail_ratio: {failed / attempted:.4f} (failed {failed} of ops_attempted {attempted})")
    if args.trace:
        metrics = {}
        per_iter = [sum_layers(it) for it in traced]
        for k in per_iter[0]:
            metrics[k] = statistics.median(d[k] for d in per_iter)
        metrics["trace.overhead_ratio"] = statistics.median(
            sum(r["wall"] for r in t) / sum(r["wall"] for r in p)
            for p, t in zip(plain, traced))
        complete = not any(f.startswith("trace incomplete") for it in traced for r in it
                           for f in r["failures"])
        print(f"trace completeness: {'ok' if complete else 'FAILED'}; "
              f"tracing overhead {metrics['trace.overhead_ratio']:.3f}x on {args.workload}")
        print_layers("largest self times", metrics)
        for cls in ("O", "light"):
            subset = [r for it in traced for r in it if r["job"].cls == cls]
            if subset:
                print_layers(f"largest self times of {cls}-class jobs", sum_layers(subset))
        out = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())}
    else:
        e2e, details = end_to_end(plain, setup)
        print(f"{'metric':20s} {'unit':5s} {'value':>10s} {'q1':>10s} {'q3':>10s} {'n':>4s}")
        for name, (unit, samples, value) in details.items():
            q1, q3 = quartiles(samples)
            print(f"{name:20s} {unit:5s} {value:10.4f} {q1:10.4f} {q3:10.4f} {len(samples):4d}")
        out = {k: {"value": v, "unit": u} for k, (u, _, v) in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
