"""Acceptance criteria.

One test per criterion; each prints a single `[criterion N] PASS/FAIL` line
(run with -s to see them inline).  Tolerances are exact equality throughout;
time budgets are asserted at the stated limits.

Criterion 7's factor-count subcriterion is split: the stated count
6p+12q+16r+10s+24 is asserted literally and is expected to fail whenever
r > 0 (strict xfail below), because the shipped pairing table itself forces
the r-coefficient 18: the third-column pairings over the twelve a-fold rows
sum to 18, not 16, and the matching count is confirmed against the
analogous subexceptional count 4p+3q+6r+9, which does check out exactly.
"""

import random
import time
from fractions import Fraction

import pytest
from tests_helpers import omega_pair

from magicsquare import series as S
from magicsquare.crosscheck import (
    exceptional_oracle,
    load_known_suspects,
    run_crosscheck,
    severi_oracle,
    subexceptional_oracle,
)
from magicsquare.magic import MAGIC_DIMS, build_magic_algebra
from magicsquare.modules import build_V_module, build_W_module, cubic_invariance_defect
from magicsquare.roots import builtin_datum, datum_for, dynkin_type, extract_root_datum
from magicsquare.triality import triality_algebra

F = Fraction
SERIES_A = [F(-4, 3), F(-1), F(-2, 3), F(0), F(1), F(2), F(4), F(8)]


def _report(n, detail, t0=None, budget=None):
    elapsed = "" if t0 is None else f" ({time.time() - t0:.1f}s)"
    print(f"[criterion {n}] PASS — {detail}{elapsed}")
    if budget is not None and t0 is not None:
        assert time.time() - t0 < budget, f"criterion {n} exceeded {budget}s"


def test_criterion_01_construction_dims():
    t0 = time.time()
    for A in "RCHO":
        for B in "RCHO":
            g = build_magic_algebra(A, B)
            assert g.dim == MAGIC_DIMS[(g.a, g.b)], (A, B)
    _report(1, "dim g(A,B) matches the 4x4 table for all 16 pairs", t0, 60)


def test_criterion_02_triality_dims():
    t0 = time.time()
    dims = [triality_algebra(t).dim for t in "RCHO"]
    assert dims == [0, 2, 9, 28]
    _report(2, "t(R),t(C),t(H),t(O) have dimensions 0/2/9/28", t0, 10)


def test_criterion_03_jacobi():
    t0 = time.time()
    for A in "RCHO":
        for B in "RCHO":
            g = build_magic_algebra(A, B)
            assert g.jacobi_exhaustive() == 0, (A, B)
    _report(3, "Jacobi defect vanishes on every basis triple of all 16 algebras "
               "(exhaustive, up to the 2.5 million triples of e8)", t0, 300)


def test_criterion_04_root_extraction():
    t0 = time.time()
    rd = extract_root_datum(build_magic_algebra("O", "O"))
    assert (2 * len(rd.positive_roots), rd.rank) == (240, 8)
    assert dynkin_type(rd) == "E8"
    assert {rd.inner(r, r) for r in rd.positive_roots} == {F(2)}
    rd = extract_root_datum(build_magic_algebra("R", "O"))
    assert dynkin_type(rd) == "F4"
    lens = [rd.inner(r, r) for r in rd.positive_roots] * 2   # roots = +/- positives
    assert lens.count(F(2)) == 24 and lens.count(F(1)) == 24
    rd = extract_root_datum(build_magic_algebra("O", "C"))
    assert dynkin_type(rd) == "E6"
    _report(4, "g(O,O) -> E8 (240 roots, rank 8); g(R,O) -> F4 (24 long + 24 "
               "short); g(O,C+C) -> E6", t0, 180)


def test_criterion_05_weyl_oracle_sanity():
    t0 = time.time()
    so8 = builtin_datum("so8")
    fw = so8.fundamental_weights()
    assert so8.weyl_dim(fw[1]) == 28
    e8 = datum_for("O", "O")
    theta = e8.markers["adjoint"]
    assert e8.weyl_dim(theta) == 248
    assert e8.weyl_dim([2 * c for c in theta]) == 27000
    lam = tuple(2 * c for c in fw[1])
    mu = tuple(2 * c for c in fw[0])
    assert so8.weight_multiplicity(lam, mu) == 2
    _report(5, "weyl_dim(so8,w2)=28, weyl_dim(e8,theta)=248, "
               "weyl_dim(e8,2theta)=27000, mult(2w1 in V_2w2)=2", t0, 60)


def test_criterion_06_adjoint_power_grid():
    t0 = time.time()
    for k in range(1, 5):
        for a in SERIES_A:
            v = S.adjoint_cartan_power(k, a)
            assert v.denominator == 1 and v > 0, (k, a)
            oracle = exceptional_oracle({"p": k}, a)
            assert oracle is not None and v == oracle, (k, a)
    assert S.adjoint_cartan_power(1, 8) == 248
    assert S.adjoint_cartan_power(2, 8) == 27000
    assert S.adjoint_cartan_power(2, F(-2, 3)) == 77
    assert S.adjoint_cartan_power(1, F(-2, 3)) == 14
    _report(6, "adjoint Cartan powers integral and oracle-equal for k<=4 over "
               "all eight series values of a", t0, 60)


def _exponent_tuples(budget):
    out = []
    for p in range(budget + 1):
        for q in range(budget + 1 - p):
            for r in range(budget + 1 - p - q):
                for s in range(budget + 1 - p - q - r):
                    if 0 < p + q + r + s <= budget:
                        out.append({"p": p, "q": q, "r": r, "s": s})
    return out


def test_criterion_07_exceptional_grid_oracle():
    t0 = time.time()
    for a in (F(0), F(1), F(2), F(4), F(8)):
        for exps in _exponent_tuples(2):
            res = S.evaluate_series(S.EXCEPTIONAL, exps, a)
            oracle = exceptional_oracle(exps, a)
            assert res.value == oracle, (exps, a)
    _report(7, "descriptor evaluation equals the Weyl oracle for all "
               "p+q+r+s <= 2 and a in {0,1,2,4,8}", t0, 600)


def test_criterion_07_factor_counts_without_r():
    for exps in _exponent_tuples(2):
        if exps["r"]:
            continue
        factored = S.series_factors(S.EXCEPTIONAL, exps)
        expect = 24 + 6 * exps["p"] + 12 * exps["q"] + 16 * exps["r"] + 10 * exps["s"]
        assert factored.numerator_count() == expect
        assert factored.denominator_count() == expect
    print("[criterion 7] PASS — factor counts match 6p+12q+16r+10s+24 on every "
          "r-free exponent vector")


@pytest.mark.xfail(strict=True,
                   reason="stated count 16r is unattainable: the twelve a-fold "
                          "pairing rows force coefficient 18 for the third "
                          "marker (their third-column pairings sum to 18); see "
                          "the r-coefficient regression test below")
def test_criterion_07_factor_counts_with_r_as_stated():
    print("[criterion 7] FAIL (documented defect) — literal count "
          "6p+12q+16r+10s+24 at r > 0; actual factored forms carry 18 factors "
          "per unit of r")
    for exps in _exponent_tuples(2):
        if not exps["r"]:
            continue
        factored = S.series_factors(S.EXCEPTIONAL, exps)
        expect = 24 + 6 * exps["p"] + 12 * exps["q"] + 16 * exps["r"] + 10 * exps["s"]
        assert factored.numerator_count() == expect


def test_criterion_07_factor_counts_r_coefficient_regression():
    # guards the actual behavior: the r coefficient is 18
    for exps in _exponent_tuples(2):
        factored = S.series_factors(S.EXCEPTIONAL, exps)
        expect = 24 + 6 * exps["p"] + 12 * exps["q"] + 18 * exps["r"] + 10 * exps["s"]
        assert factored.numerator_count() == expect
        assert factored.denominator_count() == expect


def test_criterion_08_subexceptional_and_severi_grids():
    t0 = time.time()
    for a in (1, 2, 4, 8):
        for p in range(3):
            for q in range(3 - p):
                for r in range(3 - p - q):
                    if p + q + r == 0:
                        continue
                    exps = {"p": p, "q": q, "r": r}
                    res = S.evaluate_series(S.SUBEXCEPTIONAL, exps, a)
                    assert res.value == subexceptional_oracle(exps, F(a)), (exps, a)
        for p in range(4):
            for ps in range(4 - p):
                if p + ps == 0:
                    continue
                res = S.severi_dim(p, ps, a)
                assert res.value == severi_oracle(p, ps, F(a)), (p, ps, a)
    assert build_V_module("O").dimension == 56
    assert S.severi_dim(1, 0, 8).value == 27
    assert S.severi_dim(1, 1, 8).value == 650
    _report(8, "subexceptional (p+q+r<=2) and Severi (p+p*<=3) grids match the "
               "oracle; dim V(a=8) = 56 from the module construction", t0, 300)


def test_criterion_09_module_constructions():
    t0 = time.time()
    for tag, a in [("R", 1), ("C", 2), ("H", 4), ("O", 8)]:
        v = build_V_module(tag)
        w = build_W_module(tag)
        assert v.dimension == 6 * a + 8
        assert w.dimension == 3 * a + 3
    for tag in ("R", "C"):
        for mod in (build_V_module(tag), build_W_module(tag)):
            g = mod.parent
            for i in range(g.dim):
                for j in range(i + 1, g.dim):
                    assert not mod.representation_defect(i, j)
    for tag in ("H", "O"):
        rng = random.Random(29)
        for mod in (build_V_module(tag), build_W_module(tag)):
            g = mod.parent
            for _ in range(200):
                assert not mod.representation_defect(rng.randrange(g.dim),
                                                     rng.randrange(g.dim))
    # form invariance: exhaustive over basis actions at a <= 2, sampled above
    for tag in ("R", "C", "H", "O"):
        rng = random.Random(31)
        v = build_V_module(tag)
        g = v.parent
        xs = range(g.dim) if tag in "RC" else [rng.randrange(g.dim) for _ in range(50)]
        for x in xs:
            vec = [F(rng.randint(-2, 2)) for _ in range(v.dimension)]
            wec = [F(rng.randint(-2, 2)) for _ in range(v.dimension)]
            xv, xw = v.act_basis(x, vec), v.act_basis(x, wec)
            assert omega_pair(v, xv, wec) + omega_pair(v, vec, xw) == 0
        w = build_W_module(tag)
        g = w.parent
        xs = range(g.dim) if tag in "RC" else [rng.randrange(g.dim) for _ in range(50)]
        for x in xs:
            vec = [F(rng.randint(-2, 2)) for _ in range(w.dimension)]
            assert cubic_invariance_defect(w, x, vec) == 0
    _report(9, "V has dim 6a+8 and W dim 3a+3 with the representation axiom "
               "and invariant forms holding (exhaustive at a <= 2, 200 seeded "
               "samples at a in {4,8})", t0, 300)


def test_criterion_10_crosscheck_findings():
    t0 = time.time()
    suspects = load_known_suspects()
    cc = run_crosscheck("full", suspects=suspects)
    summary = cc.summary()
    assert summary["exit_code"] == 0
    assert summary["unexpected_mismatches"] == []
    assert "subexceptional_V_hilbert_printed" in summary["documented_mismatches"]
    # the printed Y2* Hilbert function resolves against the oracle as MISMATCH
    assert "y2star_hilbert_printed" in summary["documented_mismatches"]
    per = summary["per_formula"]
    for formula, counts in per.items():
        if formula not in suspects:
            assert counts["MISMATCH"] == 0, formula
            assert counts["VALIDATED"] > 0, formula
    _report(10, "full crosscheck records the documented mismatches (printed "
                "V-power prefactor, printed Y2* Hilbert function, lambda-form "
                "sign, three degree misprints) and validates everything else; "
                "exit 0 under the shipped suspect list", t0, 600)


def test_criterion_11_consistency_identities():
    t0 = time.time()
    for k in range(1, 5):
        for a in SERIES_A:
            if a == -2:
                continue
            assert S.deligne_Yk(k, S.lambda_of_a(a)) == S.adjoint_cartan_power(k, a)
    for k in (1, 2, 3):
        for a in (1, 2, 4, 8):
            assert S.thirdrow_dim(k, 3, a).value == \
                S.evaluate_series(S.SUBEXCEPTIONAL, {"p": k}, a).value
    for t in range(1, 7):
        assert S.so_family_dim(1, t).value == (t + 2) * (2 * t + 3)
    for a in (0, 2, 4, 8):
        for k in (1, 2, 3):
            assert S.qdim_adjoint_cartan_power(k, a).at_one() == \
                S.adjoint_cartan_power(k, a)
    _report(11, "lambda-form, third-row r=3, orthogonal-family and q->1 "
                "identities all hold exactly", t0, 300)


def test_criterion_12_degree_coherence():
    t0 = time.time()
    for a in (2, 4, 8):
        # (6a+9)! times the leading k-coefficient of the adjoint Cartan powers
        assert S.degree_formulas("ad", a) == S.degree_from_hilbert("ad", a)
        assert S.degree_formulas("fplanes", a) == S.degree_from_hilbert("fplanes", a)
    for a in (1, 2, 4, 8):
        assert S.degree_formulas("subexc_ad", a) == \
            S.degree_from_hilbert("subexc_ad", a)
        assert S.degree_formulas("subexc_X", a) == \
            S.degree_from_hilbert("subexc_X", a)
        assert S.degree_formulas("subexc_flines", a) == \
            S.degree_from_hilbert("subexc_flines", a)
    _report(12, "validated degree formulas equal (dim X)! times the exact "
                "leading Hilbert coefficients", t0, 300)
