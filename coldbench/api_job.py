"""API job of the verify_e8 workload: the distinguished modules of the O row.

Builds V(O), the 56-dimensional symplectic module of g(O,H), and W(O), the
27-dimensional cubic module of g(O,C), through the package API. It then
checks the representation axiom rho([x,y]) = [rho(x), rho(y)] on REP_PAIRS
basis pairs of each, and the invariance of the symplectic form on V and of
the cubic form on W on FORM_CHECKS random vectors, all drawn from --seed.
It prints a JSON report in the layout of the CLI reports.

    PYTHONPATH=src python3 coldbench/api_job.py --seed 0
"""

import argparse
import json
import random
import sys
from fractions import Fraction

# jobs.py checks the report against these; it imports this file without
# the package, so magicsquare is imported in run().
REP_PAIRS = 60
FORM_CHECKS = 40


def _vector(rng, n):
    return [Fraction(rng.randint(-2, 2)) for _ in range(n)]


def run(seed):
    from magicsquare import modules

    rng = random.Random(seed)
    V = modules.build_V_module("O")
    W = modules.build_W_module("O")
    report = {"seed": seed}
    for name, mod in (("V", V), ("W", W)):
        n = mod.parent.dim
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(REP_PAIRS)]
        report[name] = {
            "dim": mod.dimension,
            "parent_dim": n,
            "form_kind": mod.form_kind,
            "rep_pairs": len(pairs),
            "rep_defects": sum(mod.representation_defect(i, j) for i, j in pairs),
        }
    gram = V.form_data
    n = V.dimension
    report["V"]["antisymmetry_defects"] = sum(
        gram[r][c] != -gram[c][r] for r in range(n) for c in range(n))
    report["V"]["form_checks"] = FORM_CHECKS
    report["V"]["form_defects"] = sum(
        modules.symplectic_invariance_defect(
            V, rng.randrange(V.parent.dim), _vector(rng, n), _vector(rng, n)) != 0
        for _ in range(FORM_CHECKS))
    report["W"]["form_checks"] = FORM_CHECKS
    report["W"]["form_defects"] = sum(
        modules.cubic_invariance_defect(
            W, rng.randrange(W.parent.dim), _vector(rng, W.dimension)) != 0
        for _ in range(FORM_CHECKS))
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    report = run(args.seed)
    sys.stdout.write(json.dumps(report, indent=1, sort_keys=True) + "\n")
    bad = sum(report[m][k] for m in ("V", "W")
              for k in ("rep_defects", "form_defects")) + report["V"]["antisymmetry_defects"]
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
