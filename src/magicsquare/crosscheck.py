"""Cross-validation harness: every closed form against the Weyl oracle.

Each formula is evaluated over its parameter grid and compared with an
independent dimension computed by the Weyl formula on extracted or builtin
root data (or, for degrees, with the leading Hilbert coefficient by exact
finite differences).  The report records one entry per grid point; the
known-suspect list ships with the package and marks the printed forms that
genuinely disagree with the oracle, so the exit status distinguishes
documented findings from regressions.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from itertools import product
from typing import Dict, List, Optional, Sequence

from .compalg import TAG_BY_DIM
from .exact import rat_str
from . import series as S
from .roots import builtin_datum, datum_for, triality_datum, RootDatum

NEGATIVE_A_ORACLES = {
    Fraction(-4, 3): "a1",
    Fraction(-1): "a2",
    Fraction(-2, 3): "g2",
}
EXC_A_GRID = [Fraction(x) for x in (0, 1, 2, 4, 8)]
# The grids below are also the default ranges of `table`: SERIES_A_GRID for
# the exceptional series, COMPOSITION_A_GRID for the subexceptional and Severi
# series, QDIM_A_GRID for the q-analog, DEGREE_A_GRID and VARIETIES for the
# degrees and SO_FAMILY_T for the orthogonal family.
SERIES_A_GRID = [*NEGATIVE_A_ORACLES, *EXC_A_GRID]
COMPOSITION_A_GRID = [Fraction(x) for x in (1, 2, 4, 8)]
QDIM_A_GRID = [Fraction(x) for x in (0, 2, 4, 8)]
DEGREE_A_GRID = [Fraction(x) for x in (2, 4, 8)]
VARIETIES = ("ad", "fplanes", "flines", "fpoints")
SO_FAMILY_T = range(1, 7)


def _exc_datum(a: Fraction) -> Optional[RootDatum]:
    if a == 0:
        return triality_datum("O")
    if a in TAG_BY_DIM:
        return datum_for(TAG_BY_DIM[a].name, "O")
    return None


def _marker_weyl_dim(rd: RootDatum, exponents: Dict[str, int],
                     markers: Dict[str, str]) -> int:
    """weyl_dim at sum e * marker, e the exponent of each symbol in markers.

    The weight's Dynkin labels are the same sum of the markers' integer labels.
    """
    lam = [0] * rd.rank
    for sym, mk in markers.items():
        e = exponents.get(sym, 0)
        if e:
            for i, x in enumerate(rd.marker_labels(mk)):
                lam[i] += e * x
    return rd.weyl_dim_labels(lam)


def exceptional_oracle(exponents: Dict[str, int], a: Fraction) -> Optional[int]:
    """weyl_dim at p g + q X2 + r X3 + s Y2star on the B = O data."""
    markers = S.EXCEPTIONAL.markers
    if a in NEGATIVE_A_ORACLES:
        # Only the adjoint powers extend below a = 0, on builtin data that call g "adjoint".
        if any(exponents.get(sym, 0) for sym, m in markers.items() if m != "g"):
            return None
        rd = builtin_datum(NEGATIVE_A_ORACLES[a])
        markers = {sym: "adjoint" for sym, m in markers.items() if m == "g"}
    else:
        rd = _exc_datum(a)
    return None if rd is None else _marker_weyl_dim(rd, exponents, markers)


def subexceptional_oracle(exponents: Dict[str, int], a: Fraction) -> Optional[int]:
    if a not in TAG_BY_DIM:
        return None
    rd = datum_for(TAG_BY_DIM[a].name, "H")
    return _marker_weyl_dim(rd, exponents, S.SUBEXCEPTIONAL.markers)


def severi_oracle(p: int, pstar: int, a: Fraction) -> Optional[int]:
    if a not in TAG_BY_DIM:
        return None
    rd = datum_for(TAG_BY_DIM[a].name, "C")
    return _marker_weyl_dim(rd, {"p": p, "pstar": pstar}, S.SEVERI.markers)


def so_family_oracle(k: int, t: int) -> int:
    rd = builtin_datum(f"d{t + 2}")
    return _marker_weyl_dim(rd, {"k": k}, S.SO_FAMILY.markers)


def grid(d: S.SeriesDescriptor, budget: int) -> List[Dict[str, int]]:
    """Every exponent vector over d.symbols with 0 < |e| <= budget, in lexicographic order."""
    return [dict(zip(d.symbols, e)) for e in product(range(budget + 1), repeat=len(d.symbols))
            if 0 < sum(e) <= budget]


# -- report machinery ----------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return "pole"
    return rat_str(Fraction(v))


class Crosscheck:
    def __init__(self, suspects: Optional[Sequence[str]] = None):
        self.entries: List[dict] = []
        self.suspects = set(suspects if suspects is not None else load_known_suspects())

    def record(self, formula: str, params: Dict, printed, oracle):
        if oracle is None:
            status = "ORACLE_UNAVAILABLE"
        elif printed is None:
            # a genuine pole where the series member exists is a failure
            status = "MISMATCH"
        else:
            status = "VALIDATED" if Fraction(printed) == Fraction(oracle) else "MISMATCH"
        self.entries.append({
            "formula": formula,
            "params": {k: str(v) for k, v in params.items()},
            "printed_value": _fmt(printed),
            "oracle_value": _fmt(oracle) if oracle is not None else "absent",
            "status": status,
        })

    def summary(self) -> dict:
        statuses: Dict[str, Dict[str, int]] = {}
        for e in self.entries:
            d = statuses.setdefault(e["formula"], {"VALIDATED": 0, "MISMATCH": 0,
                                                   "ORACLE_UNAVAILABLE": 0})
            d[e["status"]] += 1
        unexpected = sorted({e["formula"] for e in self.entries
                             if e["status"] == "MISMATCH"
                             and e["formula"] not in self.suspects})
        confirmed = sorted({e["formula"] for e in self.entries
                            if e["status"] == "MISMATCH"
                            and e["formula"] in self.suspects})
        return {
            "per_formula": statuses,
            "unexpected_mismatches": unexpected,
            "documented_mismatches": confirmed,
            "exit_code": 1 if unexpected else 0,
        }

    def report(self) -> dict:
        return {"entries": self.entries, "summary": self.summary(),
                "known_suspects": sorted(self.suspects)}


def load_known_suspects(path: Optional[str] = None) -> List[str]:
    """Formula names from a JSON list of objects with a string "formula".

    Reads the shipped list when path is None; raises ValueError, naming the
    file, when the JSON has another shape.
    """
    if path is None:
        data = json.loads(resources.files("magicsquare.data")
                          .joinpath("known_suspects.json").read_text())
    else:
        with open(path) as fh:
            data = json.load(fh)
    if not isinstance(data, list) or not all(
            isinstance(e, dict) and isinstance(e.get("formula"), str) for e in data):
        raise ValueError(f"{path or 'known_suspects.json'}: expected a JSON list of "
                         'objects, each with a string "formula"')
    return [e["formula"] for e in data]


def run_crosscheck(suite: str = "quick",
                   suspects: Optional[Sequence[str]] = None) -> Crosscheck:
    """Run the oracle-equivalence grid; 'full' covers every shipped formula."""
    if suite not in ("quick", "full"):
        raise ValueError("suite must be quick or full")
    full = suite == "full"
    cc = Crosscheck(suspects)

    kmax = 4 if full else 2
    for a in SERIES_A_GRID:
        for k in range(1, kmax + 1):
            val = S.adjoint_cartan_power(k, a)
            cc.record("adjoint_cartan_power", {"k": k, "a": a}, val,
                      exceptional_oracle({"p": k}, a))
            if a != -2:
                lam = S.lambda_of_a(a)
                cc.record("deligne_lambda_form", {"k": k, "a": a},
                          S.deligne_Yk(k, lam), val)
                cc.record("deligne_lambda_form_printed", {"k": k, "a": a},
                          S.deligne_Yk_printed(k, lam), val)

    # Exceptional-series grid.
    for a in EXC_A_GRID:
        for exps in grid(S.EXCEPTIONAL, 2 if full else 1):
            res = S.evaluate_series(S.EXCEPTIONAL, exps, a)
            cc.record("exceptional_series", {**exps, "a": a}, res.value,
                      exceptional_oracle(exps, a))

    # Sub-exceptional and Severi grids.
    for a in COMPOSITION_A_GRID:
        for exps in grid(S.SUBEXCEPTIONAL, 2):
            res = S.evaluate_series(S.SUBEXCEPTIONAL, exps, a)
            cc.record("subexceptional_series", {**exps, "a": a}, res.value,
                      subexceptional_oracle(exps, a))
        for exps in grid(S.SEVERI, 3 if full else 2):
            res = S.severi_dim(exps["p"], exps["pstar"], a)
            cc.record("severi_series", {**exps, "a": a},
                      res.value, severi_oracle(exps["p"], exps["pstar"], a))

    # Hilbert functions, printed vs descriptor-derived (the oracle chain is
    # descriptor == weyl, already covered above; here the printed text forms).
    kh = 3 if full else 2
    for a in EXC_A_GRID:
        for k in range(1, kh + 1):
            for which, sym, printed_fn in (("X2", "q", S.hilbert_X2_printed),
                                           ("X3", "r", S.hilbert_X3_printed),
                                           ("Y2star", "s", S.hilbert_Y2star_printed)):
                oracle = S.evaluate_series(S.EXCEPTIONAL, {sym: k}, a).value
                try:
                    printed = printed_fn(k, a)
                except ZeroDivisionError:
                    printed = None
                cc.record(f"{which.lower()}_hilbert_printed", {"k": k, "a": a},
                          printed, oracle)
    for a in COMPOSITION_A_GRID:
        for k in range(1, kh + 1):
            for which, sym, printed_fn in (("g", "p", S.subexc_g_printed),
                                           ("V", "q", S.subexc_V_printed),
                                           ("V2", "r", S.subexc_V2_printed)):
                oracle = S.evaluate_series(S.SUBEXCEPTIONAL, {sym: k}, a).value
                cc.record(f"subexceptional_{which}_hilbert_printed",
                          {"k": k, "a": a}, printed_fn(k, a), oracle)
            cc.record("subexceptional_V_hilbert_corrected", {"k": k, "a": a},
                      S.subexc_V_corrected(k, a),
                      S.evaluate_series(S.SUBEXCEPTIONAL, {"q": k}, a).value)

    # q-analog at q = 1.
    for a in QDIM_A_GRID:
        for k in range(1, (3 if full else 2) + 1):
            cc.record("qdim_adjoint_at_one", {"k": k, "a": a},
                      S.qdim_adjoint_cartan_power(k, a).at_one(),
                      S.adjoint_cartan_power(k, a))

    # Orthogonal family: printed, interval rederivation, builtin oracle.
    for t in SO_FAMILY_T:
        for k in range(1, (3 if full else 2) + 1):
            printed = S.so_family_dim(k, t).value
            cc.record("so_family_printed", {"k": k, "t": t}, printed,
                      so_family_oracle(k, t))
            cc.record("so_family_interval", {"k": k, "t": t},
                      S.so_family_interval(k, t).value, so_family_oracle(k, t))

    # Generalized third row at r = 3 against the subexceptional adjoint powers.
    for a in COMPOSITION_A_GRID:
        for k in range(1, (3 if full else 2) + 1):
            cc.record("thirdrow_r3", {"k": k, "a": a},
                      S.thirdrow_dim(k, 3, a).value,
                      S.evaluate_series(S.SUBEXCEPTIONAL, {"p": k}, a).value)

    # Degrees against exact leading Hilbert coefficients.
    if full:
        for a in DEGREE_A_GRID:
            for variety in VARIETIES:
                cc.record(f"degree_{variety}", {"a": a},
                          S.degree_formulas(variety, a),
                          S.degree_from_hilbert(variety, a))
        for a in COMPOSITION_A_GRID:
            cc.record("degree_subexc_ad", {"a": a},
                      S.degree_formulas("subexc_ad", a),
                      S.degree_from_hilbert("subexc_ad", a))
            # The printed and corrected forms share one oracle degree each.
            for variety in ("subexc_X", "subexc_flines"):
                oracle = S.degree_from_hilbert(variety, a)
                cc.record(f"degree_{variety}_printed", {"a": a},
                          S.degree_formulas(f"{variety}_printed", a), oracle)
                cc.record(f"degree_{variety}_corrected", {"a": a},
                          S.degree_formulas(variety, a), oracle)
    return cc
