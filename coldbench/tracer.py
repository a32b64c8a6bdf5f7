"""Run one benchmark job in-process, with spans around each layer's entry points.

    PYTHONPATH=src python3 coldbench/tracer.py SPANS.json cli roots --A O --B O
    PYTHONPATH=src python3 coldbench/tracer.py SPANS.json api --seed 0

The job runs through `magicsquare.cli.main(argv)` or `api_job.main(argv)`,
after the public entry points of every layer have been wrapped, from here,
at every name through which callers reach them (`magicsquare.triality.nullspace`
as well as `magicsquare.linalg.nullspace`). Each span records its name, its
parent, its start and end, and for some layers a few counts; the spans are
kept in memory and written to SPANS.json, under the job's id, when the job
ends. Per-triple
functions such as `MagicAlgebra.jacobi_defect_basis` are never wrapped: their
counts come from their callers. Likewise the Hilbert-function evaluations
that `degree_from_hilbert` makes for its finite differences are its own
work: they count in `series.evaluate_calls` but their time stays in
`series.degree_s`.
"""

import time

T_MAIN = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import api_job  # noqa: E402
from magicsquare import cli, compalg, crosscheck, linalg, magic, modules, roots, series, triality  # noqa: E402

perf_counter = time.perf_counter

# Calls made directly inside a span named in ABSORBING are that span's own
# work: they are counted and open no span of their own.
ABSORBING = {"series.evaluate": "series.degree"}


class Tracer:
    """The spans of one job, kept in memory until the job ends."""

    def __init__(self):
        # One record per span: [name, parent index or -1, start, end, counts or None].
        self.spans = []
        self.stack = []
        self.absorbed = {name: 0 for name in ABSORBING}

    def wrap(self, fn, name, counts):
        absorber = ABSORBING.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if absorber and stack and spans[stack[-1]][0] == absorber:
                self.absorbed[name] += 1
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if counts is not None:
                rec[4] = counts(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Wrap every target at its home and at every alias in the package."""
        namespaces = [m for n, m in sys.modules.items()
                      if n == "magicsquare" or n.startswith("magicsquare.")]
        for module, path, name, counts in TARGETS:
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, self.wrap(cls.__dict__[attr], name, counts))
                continue
            orig = getattr(module, path)
            wrapped = self.wrap(orig, name, counts)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapped)


def _rref_cells(args, kwargs, result):
    rows = args[0]
    return {"cells": len(rows) * (len(rows[0]) if rows else 0)}


def _all_triples(args, kwargs, result):
    n = args[0].dim
    return {"triples": n * (n - 1) * (n - 2) // 6, "defects": result}


def _sampled_triples(args, kwargs, result):
    return {"triples": args[1] if len(args) > 1 else kwargs["count"], "defects": result}


def _crosscheck_counts(args, kwargs, result):
    summary = result.summary()
    return {"entries": len(result.entries),
            "mismatches": sum(e["status"] == "MISMATCH" for e in result.entries),
            "unexpected": len(summary["unexpected_mismatches"])}


# (module, attribute path, span name, counts)
TARGETS = [
    (compalg, "build_split_algebra", "compalg.build", None),
    (linalg, "rref", "linalg.rref", _rref_cells),
    (linalg, "nullspace", "linalg.nullspace", lambda a, k, r: {"nonempty": bool(r)}),
    (linalg, "SolveCache.__init__", "linalg.solver_build", None),
    (linalg, "SolveCache.solve", "linalg.solve", None),
    (triality, "TrialityAlgebra.__init__", "triality.basis", None),
    (triality, "TrialityAlgebra._calibrate", "triality.calibrate", None),
    (triality, "TrialityAlgebra.bracket_coords", "triality.bracket_coords", None),
    (magic, "MagicAlgebra._build_table", "magic.table",
     lambda a, k, r: {"nnz": sum(len(sv) for row in r for sv in row.values())}),
    (magic, "MagicAlgebra.jacobi_exhaustive", "magic.jacobi", _all_triples),
    (magic, "MagicAlgebra.jacobi_sample", "magic.jacobi", _sampled_triples),
    (magic, "MagicAlgebra.bracket", "magic.bracket", None),
    (modules, "build_V_module", "modules.V_build", None),
    (modules, "build_W_module", "modules.W_build", None),
    (modules, "GModule.representation_defect", "modules.rep_check",
     lambda a, k, r: {"defect": bool(r)}),
    (roots, "extract_root_datum", "roots.extract", None),
    (roots, "dynkin_type", "roots.dynkin", None),
    (roots, "builtin_datum", "roots.builtin", None),
    (roots, "RootDatum.weyl_dim", "roots.weyl_dim", None),
    (series, "degree_from_hilbert", "series.degree", None),
    (series, "evaluate_series", "series.evaluate", None),
    (series, "qdim_adjoint_cartan_power", "series.qdim", None),
    (crosscheck, "run_crosscheck", "crosscheck.self", _crosscheck_counts),
    (crosscheck, "exceptional_oracle", "crosscheck.oracle", None),
    (crosscheck, "subexceptional_oracle", "crosscheck.oracle", None),
    (crosscheck, "severi_oracle", "crosscheck.oracle", None),
    (crosscheck, "so_family_oracle", "crosscheck.oracle", None),
]


def main(argv):
    spans_path, kind, job_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    t_start = perf_counter()
    code = (cli.main if kind == "cli" else api_job.main)(job_argv)
    sys.stdout.flush()
    t_end = perf_counter()
    with open(spans_path, "w") as fh:
        json.dump({"job": " ".join([kind] + job_argv), "t_main": T_MAIN, "t_start": t_start,
                   "t_end": t_end, "spans": tracer.spans, "absorbed": tracer.absorbed}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
