"""Command-line interface.

Subcommands: algebra, triality, build, verify, roots, dim, crosscheck, table.
All output is UTF-8 JSON/CSV with rationals serialized as 'n/d'; reports
depend only on the flags and the seed, and are byte-identical across runs
(timings are opt-in via --timing since they break reproducibility).
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import re
import sys
import time
from fractions import Fraction
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .compalg import build_split_algebra
from .exact import QPoly, parse_rat, rat_str
from .magic import MAGIC_DIMS, build_magic_algebra
from .roots import RootDatum, builtin_datum, datum_for, dynkin_type
from .triality import triality_algebra
from . import series as S
from .crosscheck import (COMPOSITION_A_GRID, DEGREE_A_GRID, QDIM_A_GRID, SERIES_A_GRID,
                         SO_FAMILY_T, VARIETIES, load_known_suspects, read_json,
                         run_crosscheck)


JacobiMode = Tuple[str, Optional[int]]


def _jacobi_mode(text: str) -> JacobiMode:
    """Parse 'full' or 'sample:N' (N >= 0) into (text, N or None)."""
    if text == "full":
        return text, None
    kind, _, count = text.partition(":")
    try:
        n = int(count) if kind == "sample" else -1
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"expected full or sample:N with N >= 0, got {text!r}")
    return text, n


def _verify_spec(text: str) -> JacobiMode:
    """Parse build --verify: jacobi=<mode>, the mode as for verify --jacobi."""
    key, sep, mode = text.partition("=")
    if key != "jacobi" or not sep:
        raise argparse.ArgumentTypeError(
            f"expected jacobi=full or jacobi=sample:N, got {text!r}")
    return _jacobi_mode(mode)


def _rational(text: str) -> Fraction:
    """A rational parameter; malformed text or a zero denominator is a usage error."""
    try:
        return parse_rat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _labels(text: str) -> List[int]:
    """Comma-separated integer Dynkin labels."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integer labels, got {text!r}") from None


def _rationals(text: str) -> List[Fraction]:
    """Comma-separated rationals; an empty string selects the default grid."""
    return [_rational(x) for x in text.split(",")] if text else []


def _write(text: str, out: Optional[str]) -> None:
    """Write text to the file out, or to stdout when out is not given."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(data, out: Optional[str]) -> None:
    _write(json.dumps(data, indent=1, sort_keys=True) + "\n", out)


# -- subcommands -------------------------------------------------------------------


def cmd_algebra(args) -> int:
    alg = build_split_algebra(args.A)
    _emit(alg.dump(), args.out)
    return 0


def cmd_triality(args) -> int:
    t = triality_algebra(args.A)
    _emit(t.dump(), args.out)
    return 0


def _jacobi_run(g, jacobi: JacobiMode, seed: int) -> Dict:
    mode, count = jacobi
    if count is None:
        checked = g.dim * (g.dim - 1) * (g.dim - 2) // 6
        defects = g.jacobi_exhaustive()
    else:
        checked = count
        defects = g.jacobi_sample(count, seed=seed)
    return {"mode": mode, "checked": checked, "defects": defects}


def cmd_build(args) -> int:
    t0 = time.perf_counter()
    g = build_magic_algebra(args.A, args.B)
    report = {
        "A": g.algA.tag.name, "B": g.algB.tag.name,
        "dim": g.dim, "expected_dim": MAGIC_DIMS[(g.a, g.b)],
        "t_dims": [g.dA, g.dB],
        "seed": args.seed,
    }
    ok = g.dim == report["expected_dim"]
    if args.verify:
        jr = _jacobi_run(g, args.verify, args.seed)
        report["jacobi_checked"] = jr["checked"]
        report["defects"] = jr["defects"]
        ok = ok and jr["defects"] == 0
    if args.timing:
        report["elapsed_ms"] = int(1000 * (time.perf_counter() - t0))
    _emit(report, args.out)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    g = build_magic_algebra(args.A, args.B)
    rng = random.Random(args.seed)
    report: Dict = {
        "A": g.algA.tag.name, "B": g.algB.tag.name, "seed": args.seed,
        "dim": g.dim, "expected_dim": MAGIC_DIMS[(g.a, g.b)],
        "triality_dims": [g.dA, g.dB],
    }
    failures: List[str] = []
    if g.dim != report["expected_dim"]:
        failures.append("dimension")
    jr = _jacobi_run(g, args.jacobi, args.seed)
    report["jacobi"] = jr
    if jr["defects"]:
        failures.append("jacobi")
    # antisymmetry spot check
    tab = g.table()
    anti_bad = 0
    for _ in range(200):
        i, j = rng.randrange(g.dim), rng.randrange(g.dim)
        if {k: -c for k, c in tab[i].get(j, ())} != dict(tab[j].get(i, ())):
            anti_bad += 1
    report["antisymmetry_defects"] = anti_bad
    if anti_bad:
        failures.append("antisymmetry")
    # invariant form: K([z,x],y) + K(x,[z,y]) = 0 on random basis triples
    inv_bad = 0
    for _ in range(100):
        z, x, y = (rng.randrange(g.dim) for _ in range(3))
        if (g.invariant_form_sparse(g.bracket_basis(z, x), {y: 1})
                + g.invariant_form_sparse({x: 1}, g.bracket_basis(z, y))):
            inv_bad += 1
    report["invariant_form_defects"] = inv_bad
    if inv_bad:
        failures.append("invariant_form")
    report["h_subalgebras_closed"] = [g.h_subalgebra_closed(i) for i in range(3)]
    if not all(report["h_subalgebras_closed"]):
        failures.append("h_closure")
    if g.dim <= 80 or args.center:
        cd = g.center_dim()
        report["center_dim"] = cd
        if cd != 0:
            failures.append("center")
    report["failures"] = failures
    report["ok"] = not failures
    if args.timing:
        report["elapsed_ms"] = int(1000 * (time.perf_counter() - t0))
    _emit(report, args.out)
    return 0 if not failures else 1


def cmd_roots(args) -> int:
    rd = datum_for(args.A, args.B)
    data = rd.to_json()
    data["dynkin_type"] = dynkin_type(rd)
    _emit(data, args.out)
    return 0


def _load_datum(spec: str) -> RootDatum:
    if spec.startswith("builtin:"):
        return builtin_datum(spec.split(":", 1)[1])
    return RootDatum.from_json(read_json(spec))


# The series whose dimension is the product of a descriptor, and so has a factored form.
FACTORED_SERIES = {"exceptional": S.EXCEPTIONAL, "subexceptional": S.SUBEXCEPTIONAL,
                   "severi": S.SEVERI}

# The options each dim mode reads; giving any other one is a usage error.
DIM_MODES = {
    "--datum": ("--datum", "--weight"),
    "--series exceptional": ("--series", "-p", "-q", "-r", "-s", "-a", "--factored"),
    "--series subexceptional": ("--series", "-p", "-q", "-r", "-a", "--factored"),
    "--series severi": ("--series", "-p", "--pstar", "-a", "--factored"),
    "--series thirdrow": ("--series", "-k", "--r-param", "-a", "--factored"),
    "--series so-family": ("--series", "-k", "-t", "--factored"),
}
# The integer parameters' defaults: the parser stores None for an option not
# given, so that a given one is told apart from its default.
DIM_DEFAULTS = {"-p": 0, "-q": 0, "-r": 0, "-s": 0, "--pstar": 0, "-k": 1, "-t": 1,
                "--r-param": 3}
DIM_OPTIONS = ("--series", "--datum", "--weight", "-a", "--factored", *DIM_DEFAULTS)


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def cmd_dim(args) -> int:
    if args.datum:
        if args.weight is None:
            print("dim: --datum requires --weight", file=sys.stderr)
            return 2
    elif not args.series:
        print("dim: need --series or --datum", file=sys.stderr)
        return 2
    elif args.a is None and args.series != "so-family":
        print(f"dim: --series {args.series} requires -a", file=sys.stderr)
        return 2
    mode = "--datum" if args.datum else f"--series {args.series}"
    extra = [f for f in DIM_OPTIONS
             if f not in DIM_MODES[mode] and getattr(args, _dest(f)) is not None]
    if extra:
        print(f"dim: {mode} does not take {extra[0]}", file=sys.stderr)
        return 2
    for flag, default in DIM_DEFAULTS.items():
        if getattr(args, _dest(flag)) is None:
            setattr(args, _dest(flag), default)
    if args.datum:
        rd = _load_datum(args.datum)
        print(rd.weyl_dim_labels(args.weight))
        return 0
    a = args.a
    descriptor = FACTORED_SERIES.get(args.series)
    if args.factored and descriptor is None:
        print(f"dim: --series {args.series} has no factored form", file=sys.stderr)
        return 2
    exps = {sym: getattr(args, sym) for sym in descriptor.symbols} if descriptor else {}
    if args.series == "severi":
        res = S.severi_dim(args.p, args.pstar, a)
    elif descriptor:
        res = S.evaluate_series(descriptor, exps, a)
    elif args.series == "thirdrow":
        res = S.thirdrow_dim(args.k, args.r_param, a)
    else:
        res = S.so_family_dim(args.k, args.t)
    if res.pole:
        print("pole: a denominator linear form vanishes at these parameters")
        return 0
    print(rat_str(res.value))
    if args.factored:
        factored = S.series_factors(descriptor, exps)
        print(str(factored))
        print(f"numerator factors: {factored.numerator_count()}, "
              f"denominator factors: {factored.denominator_count()}")
    return 0


def cmd_crosscheck(args) -> int:
    suspects = load_known_suspects(args.known_suspect)
    cc = run_crosscheck(args.suite, suspects=suspects)
    report = cc.report()
    _emit(report, args.out)
    return report["summary"]["exit_code"]


def _adjoint_cartan_power(k: int, a: Fraction) -> Optional[Fraction]:
    """dim g^(k), or None at a pole."""
    try:
        return S.adjoint_cartan_power(k, a)
    except ZeroDivisionError:
        return None


def _degree(variety: str, a: Fraction):
    """The degree of the variety at a, or "nonintegral" or "negative" where
    its dimension is not an integer or is negative and it has none."""
    dim = S.ray_degree(*S.VARIETY_RAYS[variety], a)
    status = "nonintegral" if dim.denominator != 1 else "negative" if dim < 0 else None
    return status or S.degree_from_hilbert(variety, a)


def _table_series(args) -> Dict[str, Tuple[Dict[str, Sequence], Callable, Tuple[str, ...]]]:
    """Each table series: the range of each parameter, in row and loop order;
    the series function of the parameters that fills a row; and the options
    it reads besides those of its ranges.

    Built each time table runs, so that it holds the series functions as
    they are then, also where a caller has wrapped them since import.
    """
    ks = range(1 if args.k_min is None else args.k_min,
               (4 if args.k_max is None else args.k_max) + 1)
    sym = {m: s for s, m in S.SUBEXCEPTIONAL.markers.items()}[args.which or "g"]
    return {
        "exceptional": ({"k": ks, "a": args.a or SERIES_A_GRID}, _adjoint_cartan_power, ()),
        "subexceptional": ({"k": ks, "a": args.a or COMPOSITION_A_GRID},
                           lambda k, a: S.evaluate_series(S.SUBEXCEPTIONAL, {sym: k}, a),
                           ("--which",)),
        "severi": ({"p": ks, "pstar": ks, "a": args.a or COMPOSITION_A_GRID}, S.severi_dim, ()),
        "qdim": ({"k": ks, "a": args.a or QDIM_A_GRID}, S.qdim_adjoint_cartan_power, ()),
        "degrees": ({"variety": VARIETIES, "a": args.a or DEGREE_A_GRID}, _degree, ()),
        "so-family": ({"k": ks, "t": SO_FAMILY_T}, S.so_family_dim, ()),
    }


# The table options that a series reads through its ranges, each with the
# parameters whose range it sets.
TABLE_RANGE_OPTIONS = {"--k-min": ("k", "p", "pstar"), "--k-max": ("k", "p", "pstar"),
                       "--a": ("a",)}


def _cell(value) -> Tuple[str, str]:
    """The value and status of a table row, from what its series function
    returned; a status in place of a value is both."""
    if isinstance(value, str):
        return value, value
    if isinstance(value, S.SeriesResult):
        value = value.value  # None at a pole
    if value is None:
        return "pole", "pole"
    if isinstance(value, QPoly):
        return str(value), "ok" if value.has_nonneg_coeffs() else "suspect"
    return rat_str(value), "ok" if value.denominator == 1 and value > 0 else "nonintegral"


def cmd_table(args) -> int:
    params, fill, options = _table_series(args)[args.series]
    reads = {*options, *(f for f, names in TABLE_RANGE_OPTIONS.items()
                         if not params.keys().isdisjoint(names))}
    for flag in ("--which", *TABLE_RANGE_OPTIONS):
        if getattr(args, _dest(flag)) is not None and flag not in reads:
            print(f"table: --series {args.series} does not take {flag}", file=sys.stderr)
            return 2
    rows = []
    try:
        for point in product(*params.values()):
            row = {name: rat_str(x) if isinstance(x, Fraction) else x
                   for name, x in zip(params, point)}
            row["value"], row["status"] = _cell(fill(*point))
            rows.append(row)
    except ValueError as exc:
        print(f"table: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print("table: empty parameter range", file=sys.stderr)
        return 2
    if args.format == "json":
        _emit(rows, args.out)
        return 0
    cols = list(rows[0])
    if args.format == "md":
        lines = ["| " + " | ".join(cols) + " |",
                 "|" + "|".join("---" for _ in cols) + "|"]
        lines += ["| " + " | ".join(str(r[c]) for c in cols) + " |" for r in rows]
    else:
        lines = [",".join(cols)]
        lines += [",".join(f'"{r[c]}"' if "," in str(r[c]) else str(r[c]) for c in cols)
                  for r in rows]
    _write("\n".join(lines) + "\n", args.out)
    return 0


# -- parser -------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads -4/3 and -4/3,-1 as values, as it reads -1.

    argparse takes an argument for a negative number, and not for an option,
    only when it looks like -1 or -0.5; no option here starts with a digit.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def make_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="magicsquare",
                 description="Exact magic-square Lie algebra constructions and dimension formulas")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="dump a split composition algebra")
    p.add_argument("action", choices=["dump"])
    p.add_argument("--A", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_algebra)

    p = sub.add_parser("triality", help="dump a triality Lie algebra basis")
    p.add_argument("action", choices=["basis"])
    p.add_argument("--A", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_triality)

    p = sub.add_parser("build", help="construct g(A,B) and report")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--verify", type=_verify_spec, help="jacobi=full or jacobi=sample:N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="construction and invariant suite")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--jacobi", type=_jacobi_mode, default="full", help="full or sample:N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--center", action="store_true", help="force the center check")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("roots", help="extract and dump a root datum")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("dim", help="dimension queries (series or Weyl)")
    p.add_argument("--series",
                   choices=["exceptional", "subexceptional", "severi",
                            "thirdrow", "so-family"])
    for flag, default in DIM_DEFAULTS.items():
        p.add_argument(flag, type=int, help=f"default {default}")
    p.add_argument("-a", type=_rational)
    p.add_argument("--factored", action="store_true", default=None)
    p.add_argument("--datum", help="builtin:<name> or a root-datum JSON file")
    p.add_argument("--weight", type=_labels, help="comma-separated fundamental-weight labels")
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("crosscheck", help="run the formula-vs-oracle harness")
    p.add_argument("--suite", choices=["quick", "full"], default="quick")
    p.add_argument("--known-suspect", help="path to a known-suspect JSON list")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_crosscheck)

    p = sub.add_parser("table", help="generate series tables")
    p.add_argument("--series", required=True,
                   choices=["exceptional", "subexceptional", "severi", "qdim",
                            "degrees", "so-family"])
    p.add_argument("--which", choices=list(S.SUBEXCEPTIONAL.markers.values()))
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--a", type=_rationals, help="comma-separated parameter values")
    p.add_argument("--format", choices=["csv", "json", "md"], default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_table)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"magicsquare: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    # The collections at interpreter exit would traverse every cached table
    # once more; frozen objects are left out of them.  After the flush, so
    # that no output waits on it.
    gc.freeze()
    sys.exit(code)
