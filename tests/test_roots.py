import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import magicsquare
from magicsquare.compalg import H_TAG, O_TAG, build_split_algebra
from magicsquare.crosscheck import _marker_weyl_dim, grid
from magicsquare.exact import rat_str
from magicsquare.linalg import F0, int_rows
from magicsquare.magic import build_magic_algebra
from magicsquare.roots import (
    ExtractionError,
    RootDatum,
    _datum_from_weights,
    _is_definite,
    basis_weights,
    builtin_datum,
    chart_denominator,
    datum_for,
    dynkin_type,
    extract_root_datum,
    slot_weights,
    trace_gram,
    triality_datum,
)
from magicsquare.series import EXCEPTIONAL, admissible_weight
from magicsquare.triality import triality_algebra
from tests_helpers import (
    chart_k_inverse,
    leibniz_det,
    reference_frame,
    reference_gram,
    reference_simple_roots,
    reference_weyl_dim,
    so8_with_exceptional_markers,
)

EXPECTED_TYPES = {
    ("R", "C"): "A2", ("C", "R"): "A2", ("R", "H"): "C3", ("H", "R"): "C3",
    ("R", "O"): "F4", ("O", "R"): "F4", ("C", "C"): "A2xA2",
    ("C", "H"): "A5", ("H", "C"): "A5", ("C", "O"): "E6", ("O", "C"): "E6",
    ("H", "H"): "D6", ("H", "O"): "E7", ("O", "H"): "E7", ("O", "O"): "E8",
}


def test_builtin_catalog():
    for name, typ, dim in [("a1", "A1", 3), ("a2", "A2", 8), ("g2", "G2", 14),
                           ("so8", "D4", 28), ("f4", "F4", 52), ("e6", "E6", 78),
                           ("e7", "E7", 133), ("e8", "E8", 248), ("sp6", "C3", 21),
                           ("b3", "B3", 21), ("so12", "D6", 66), ("b2", "B2", 10),
                           ("c2", "B2", 10), ("d3", "A3", 15), ("b4", "B4", 36),
                           ("c4", "C4", 36), ("d4", "D4", 28)]:
        rd = builtin_datum(name)
        assert dynkin_type(rd) == typ
        assert 2 * len(rd.positive_roots) + rd.rank == dim
        assert rd.weyl_dim(rd.markers["adjoint"]) == dim
    for bad in ("zz9", "", "  ", "a\u00b2"):
        with pytest.raises(ValueError, match="unknown builtin datum"):
            builtin_datum(bad)


def test_builtin_datum_caches_the_canonical_name():
    rd = builtin_datum("A2")
    assert builtin_datum(" sl3 ") is rd and builtin_datum("a02") is rd
    assert rd.name == "a2"


def test_every_builtin_to_rank_10_is_named_after_itself():
    # The two conventions: a double bond of rank 2 is B2, and D3 is A3.
    names = ([f"a{n}" for n in range(1, 11)] + [f"b{n}" for n in range(2, 11)]
             + [f"c{n}" for n in range(2, 11)] + [f"d{n}" for n in range(3, 11)]
             + ["e6", "e7", "e8", "f4", "g2"])
    for name in names:
        expected = {"c2": "B2", "d3": "A3"}.get(name, name.upper())
        assert dynkin_type(builtin_datum(name)) == expected, name


@pytest.mark.parametrize("name", ["g2", "b3", "c3", "f4"])
def test_dynkin_type_reads_lengths_up_to_sign(name):
    # from_json accepts a negative definite Gram; the short roots are then
    # the ones of larger signed norm, so a signed comparison would misname them.
    data = builtin_datum(name).to_json()
    data["gram"] = [[rat_str(-Fraction(x)) for x in row] for row in data["gram"]]
    assert dynkin_type(RootDatum.from_json(data)) == name.upper()


def test_builtin_fundamental_dimensions_pin_numbering():
    assert builtin_datum("e6").weyl_dim(builtin_datum("e6").fundamental_weights()[0]) == 27
    assert builtin_datum("e7").weyl_dim(builtin_datum("e7").fundamental_weights()[6]) == 56
    e8 = builtin_datum("e8")
    fw = e8.fundamental_weights()
    assert e8.weyl_dim(fw[7]) == 248
    assert e8.weyl_dim(fw[0]) == 3875
    assert e8.weyl_dim(fw[6]) == 30380
    assert builtin_datum("f4").weyl_dim(builtin_datum("f4").fundamental_weights()[3]) == 26
    assert builtin_datum("g2").weyl_dim(builtin_datum("g2").fundamental_weights()[0]) == 7


@pytest.mark.parametrize("name", ["e7", "e8"])
def test_labels_through_the_weight_give_the_labels_dimension(name):
    # `dim --datum` reads the labels directly; the route through the weight
    # they name gives the same labels and the same dimension.
    rd = builtin_datum(name)
    rng = random.Random(name)
    for labels in [[int(i == j) for j in range(rd.rank)] for i in range(rd.rank)] + \
            [[rng.randrange(3) for _ in range(rd.rank)] for _ in range(5)]:
        w = rd.weight_from_fund(labels)
        assert rd.dynkin_labels(w) == tuple(labels)
        assert rd.weyl_dim(w) == rd.weyl_dim_labels(labels)
    with pytest.raises(ValueError, match=rf"^expected {rd.rank} Dynkin labels, got 1$"):
        rd.weyl_dim_labels([1])


def test_extraction_types_and_counts():
    for (A, B), typ in EXPECTED_TYPES.items():
        g = build_magic_algebra(A, B)
        rd = extract_root_datum(g)
        assert dynkin_type(rd) == typ, (A, B)
        assert 2 * len(rd.positive_roots) + rd.rank == g.dim
        assert len(rd.simple_roots()) == rd.rank
        cm = rd.cartan_matrix()
        assert all(cm[i][i] == 2 for i in range(rd.rank))
        # pairing integrality for all roots
        for a in rd.positive_roots[:20]:
            for b in rd.positive_roots[:20]:
                assert rd.pairing(a, b).denominator == 1


@pytest.mark.parametrize("a,b", sorted(EXPECTED_TYPES))
def test_bracket_table_is_graded(a, b):
    # [b_i, b_j] lies in weight w_i + w_j, and the zero weight space is the Cartan.
    g = build_magic_algebra(a, b)
    weights, _ = basis_weights(g)
    for i, row in enumerate(g.table()):
        for j, col in row.items():
            wij = tuple(x + y for x, y in zip(weights[i], weights[j]))
            assert all(weights[k] == wij for k, _ in col), (i, j)
    assert sum(not any(w) for w in weights) == datum_for(a, b).rank


def test_f4_long_short_split():
    rd = extract_root_datum(build_magic_algebra("R", "O"))
    lens = [rd.inner(r, r) for r in rd.positive_roots] * 2
    assert lens.count(2) == 24 and lens.count(1) == 24


def test_e8_simply_laced():
    rd = extract_root_datum(build_magic_algebra("O", "O"))
    assert {rd.inner(r, r) for r in rd.positive_roots} == {2}
    assert len(rd.positive_roots) == 120 and rd.rank == 8


@pytest.mark.parametrize("a,b", sorted(EXPECTED_TYPES))
def test_extracted_gram_equals_the_k_reference(a, b):
    # The Killing form read off the weights and K's two chart blocks give one Gram.
    assert datum_for(a, b).gram == reference_gram(build_magic_algebra(a, b))


@pytest.mark.parametrize("tag,ratio", [("C", -12), ("H", -16), ("O", -24)])
def test_slot_trace_gram_is_a_multiple_of_inverse_k(tag, ratio):
    # The slot trace form is ratio times K, so its inverse is K's over ratio;
    # on chart coordinates it is D^2 Q / c, D the chart denominator.
    t = triality_algebra(tag)
    q, c = trace_gram([w for ws in slot_weights(t) for w in ws])
    d = chart_denominator(t)
    gram = [[Fraction(d * d * x, c) for x in row] for row in q]
    assert gram == [[x / ratio for x in row] for row in chart_k_inverse(t)]


def test_root_data_and_rows_never_calibrate():
    # Extraction, the descriptor rows and the t(O) datum read their Gram off
    # the weights: no t(A) solves K or its Psi tables.  A fresh child process,
    # so that no other test has calibrated first.
    env = {**os.environ, "PYTHONPATH": str(Path(magicsquare.__file__).resolve().parents[1])}
    code = ("from magicsquare import roots, series, triality as t\n"
            "for a in 'RCHO':\n"
            "    for b in 'RCHO':\n"
            "        roots.datum_for(a, b)\n"
            "for d in (series.EXCEPTIONAL, series.SUBEXCEPTIONAL, series.SEVERI):\n"
            "    assert d.rows\n"
            "roots.triality_datum('O')\n"
            "print(t._triality_algebra.cache_info().currsize, [x is None for n in 'RCHO'\n"
            "      for x in (t.triality_algebra(n)._psi_tables, t.triality_algebra(n)._k_matrix)])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == f"4 {[True] * 8}\n"


def test_root_data_and_rows_never_build_the_solver():
    # Extraction on all sixteen pairs and the descriptor rows never solve
    # for coordinates in t(A), so no t(A) builds its solver.  A fresh child
    # process, so that no other test has solved first.
    env = {**os.environ, "PYTHONPATH": str(Path(magicsquare.__file__).resolve().parents[1])}
    code = ("from magicsquare import roots, series, triality as t\n"
            "for a in 'RCHO':\n"
            "    for b in 'RCHO':\n"
            "        roots.datum_for(a, b)\n"
            "for d in (series.EXCEPTIONAL, series.SUBEXCEPTIONAL, series.SEVERI):\n"
            "    assert d.rows\n"
            "print(t._triality_algebra.cache_info().currsize,\n"
            "      ['_solver' not in vars(t.triality_algebra(n)) for n in 'RCHO'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == f"4 {[True] * 4}\n"


def test_triality_datum_is_d4_and_agrees_with_builtin_so8():
    rd, so8 = triality_datum("O"), so8_with_exceptional_markers()
    assert dynkin_type(rd) == "D4" and triality_datum("o") is rd
    assert rd.markers["g"] == rd.highest_root()
    points = grid(EXCEPTIONAL, 4)
    assert len(points) == 69
    for e in points:
        assert (_marker_weyl_dim(rd, e, EXCEPTIONAL.markers)
                == _marker_weyl_dim(so8, e, EXCEPTIONAL.markers)), e


def test_triality_datum_of_t_h_is_three_a1():
    rd = triality_datum("H")
    assert dynkin_type(rd) == "A1xA1xA1"
    assert [rd.weyl_dim(rd.markers[m]) for m in ("g", "V", "V2")] == [3, 8, 9]


@pytest.mark.parametrize("tag", ["R", "C"])
def test_triality_datum_refuses_an_algebra_without_roots(tag):
    with pytest.raises(ExtractionError, match=rf"^t\({tag}\) has no roots$"):
        triality_datum(tag)


def test_rr_is_anisotropic_but_datum_available():
    with pytest.raises(ExtractionError):
        extract_root_datum(build_magic_algebra("R", "R"))
    rd = datum_for("R", "R")
    assert rd.rank == 1 and len(rd.positive_roots) == 1
    assert rd.weyl_dim(rd.markers["adjoint"]) == 3


def test_adjoint_selfconsistency_all_sixteen():
    # componentwise: sum over simple components of dim V(highest root) = dim g
    for A in "RCHO":
        for B in "RCHO":
            g = build_magic_algebra(A, B)
            rd = datum_for(A, B)
            simple = rd.simple_roots()
            comps = {}
            adj = {i: [j for j in range(rd.rank) if j != i
                       and rd.inner(simple[i], simple[j]) != 0] for i in range(rd.rank)}
            seen = set()
            comp_ids = {}
            cid = 0
            for s in range(rd.rank):
                if s in seen:
                    continue
                stack = [s]
                while stack:
                    i = stack.pop()
                    if i in seen:
                        continue
                    seen.add(i)
                    comp_ids[i] = cid
                    stack.extend(adj[i])
                cid += 1
            tops = {}
            for root, coords in zip(rd.positive_roots, rd.root_coords()):
                support = [i for i, c in enumerate(coords) if c != 0]
                c = comp_ids[support[0]]
                h = sum(coords)
                if c not in tops or h > tops[c][0]:
                    tops[c] = (h, root)
            total = sum(rd.weyl_dim(r) for _, r in tops.values())
            expected = g.dim if (A, B) != ("R", "R") else 3
            assert total == expected, (A, B)


def test_exceptional_markers_against_known_dimensions():
    expected = {
        "R": {"g": 52, "X2": 1274, "X3": 19448, "Y2star": 324},
        "C": {"g": 78, "X2": 2925, "X3": 70070, "Y2star": 650},
        "H": {"g": 133, "X2": 8645, "X3": 365750, "Y2star": 1539},
        "O": {"g": 248, "X2": 30380, "X3": 2450240, "Y2star": 3875},
    }
    for A, vals in expected.items():
        rd = datum_for(A, "O")
        for name, dim in vals.items():
            assert rd.weyl_dim(rd.markers[name]) == dim, (A, name)


def test_subexceptional_and_severi_markers():
    for A, a in [("R", 1), ("C", 2), ("H", 4), ("O", 8)]:
        rd = datum_for(A, "H")
        assert rd.weyl_dim(rd.markers["V"]) == 6 * a + 8
        rd = datum_for(A, "C")
        assert rd.weyl_dim(rd.markers["W"]) == 3 * a + 3
        assert rd.weyl_dim(rd.markers["Wstar"]) == 3 * a + 3


def test_rho_shift_identities():
    # exceptional rho = rho_so8 + a (2 w1 + w4) on the fixed-side coordinates
    for A, a in [("R", 1), ("C", 2), ("H", 4), ("O", 8)]:
        rd = datum_for(A, "O")
        gamma = (Fraction(5, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        want = tuple(b + a * c for b, c in zip((3, 2, 1, 0), gamma))
        assert rd.rho[:4] == want
        rd = datum_for(A, "H")
        want = tuple(b + a * c for b, c in zip((1, 1, 1), (2, 1, 0)))
        assert rd.rho[:3] == want
        rd = datum_for(A, "C")
        # B-side part of rho equals a * (w1 - w3)
        w = rd.markers["W"][:2]
        wstar = rd.markers["Wstar"][:2]
        gamma_c = tuple((x + y) / 2 for x, y in zip(w, wstar))  # w1 - w3
        assert rd.rho[:2] == tuple(a * c for c in gamma_c)


def test_three_highest_roots_of_exceptional_row():
    for A in "CHO":
        rd = datum_for(A, "O")
        top = rd.positive_roots[:3]
        eps = [tuple(r[:4]) for r in top]
        assert eps == [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)]
        assert all(not any(r[4:]) for r in top)


def test_admissible_weight_matches_root_integrality():
    assert admissible_weight((0, 1, 0, 0))
    assert not admissible_weight((1, 0, 0, 0))
    assert admissible_weight((2, 0, 0, 0))
    # equivalence with pairing integrality on the extracted data, A != R
    d4 = builtin_datum("so8")
    fw = d4.fundamental_weights()
    for A in "CHO":
        rd = datum_for(A, "O")
        for o in [(0, 1, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (1, 0, 1, 0),
                  (0, 0, 1, 1), (1, 1, 1, 1), (0, 0, 2, 0), (1, 0, 0, 1)]:
            w = [Fraction(0)] * rd.rank
            for c, omega in zip(o, ((1, 0, 0, 0), (1, 1, 0, 0),
                                    (Fraction(1, 2),) * 3 + (Fraction(-1, 2),),
                                    (Fraction(1, 2),) * 4)):
                for i in range(4):
                    w[i] += c * Fraction(omega[i])
            integral = all(rd.pairing(w, alpha).denominator == 1
                           for alpha in rd.positive_roots)
            assert integral == admissible_weight(o), (A, o)


def test_weight_multiplicities_so8():
    rd = builtin_datum("so8")
    fw = rd.fundamental_weights()
    lam = tuple(2 * c for c in fw[1])
    mu = tuple(2 * c for c in fw[0])
    assert rd.weight_multiplicity(lam, mu) == 2
    assert rd.weight_multiplicity(lam, lam) == 1
    # total of the adjoint weight system
    total = 0
    seen = {fw[1]}
    frontier = [fw[1]]
    while frontier:
        nxt = []
        for w in frontier:
            m = rd.weight_multiplicity(fw[1], w)
            if m:
                total += m
                for a in rd.simple_roots():
                    c = tuple(x - y for x, y in zip(w, a))
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
        frontier = nxt
    assert total == 28


def test_weight_multiplicity_is_zero_off_the_root_lattice():
    # omega_1 of a1 is half a root: 0 is not a weight of that module, omega_1 is.
    rd = builtin_datum("a1")
    (w,) = rd.fundamental_weights()
    assert rd.weight_multiplicity(w, [0] * len(w)) == 0
    assert rd.weight_multiplicity(w, w) == 1


def test_weyl_dim_rejects_bad_weights():
    rd = builtin_datum("a2")
    fw = rd.fundamental_weights()
    with pytest.raises(ValueError, match=r"^weight \('-2/3', '-1/3'\) is not dominant integral$"):
        rd.weyl_dim([-c for c in fw[0]])
    with pytest.raises(ValueError, match=r"^weight \('1/3', '1/6'\) is not dominant integral$"):
        rd.weyl_dim([c / 2 for c in fw[0]])


def test_marker_labels_reject_a_marker_that_is_not_dominant_integral():
    rd = builtin_datum("a2")
    fw = rd.fundamental_weights()
    bad = RootDatum("a2", rd.rank, rd.positive_roots, rd.gram,
                    {"minus": tuple(-c for c in fw[0]), "half": tuple(c / 2 for c in fw[0])})
    for name in bad.markers:
        with pytest.raises(ValueError, match="is not dominant integral"):
            _marker_weyl_dim(bad, {"x": 1}, {"x": name})


@pytest.mark.parametrize("source", [("R", "O"), ("C", "O"), ("H", "O"), ("O", "O"), ("R", "C"),
                                    ("C", "C"), ("H", "C"), ("O", "C"), ("R", "H"), ("C", "H"),
                                    ("H", "H"), ("O", "H"), "t(O)", "so8", "a1", "a2", "g2", "d3",
                                    "d4", "d5", "d6", "d7", "d8"],
                         ids=lambda s: s if isinstance(s, str) else "-".join(s))
def test_marker_label_oracle_equals_weyl_dim(source):
    # The crosscheck's oracle sums integer marker labels; it must give
    # weyl_dim at the weight sum e * marker in chart coordinates.
    if isinstance(source, tuple):
        rd = datum_for(*source)
    else:
        rd = triality_datum("O") if source == "t(O)" else builtin_datum(source)
    names = sorted(rd.markers)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=len(names), max_size=len(names)))
    def agrees(exps):
        w = [sum(e * rd.markers[n][i] for e, n in zip(exps, names)) for i in range(rd.rank)]
        oracle = _marker_weyl_dim(rd, dict(zip(names, exps)), {n: n for n in names})
        assert oracle == rd.weyl_dim(w)

    agrees()


def test_datum_json_roundtrip(tmp_path):
    rd = datum_for("R", "H")
    data = rd.to_json()
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(data))
    back = RootDatum.from_json(json.loads(path.read_text()))
    assert back.rank == rd.rank
    assert back.positive_roots == rd.positive_roots
    assert dynkin_type(back) == "C3"
    assert back.weyl_dim(back.markers["adjoint"]) == 21


def _assert_json_roundtrip(rd):
    back = RootDatum.from_json(json.loads(json.dumps(rd.to_json())))
    assert (back.name, back.rank, back.gram) == (rd.name, rd.rank, rd.gram)
    assert back.positive_roots == rd.positive_roots and back.markers == rd.markers


@pytest.mark.parametrize("name", ["a1", "a2", "a5", "b3", "b4", "c3", "c4", "d4", "d6",
                                  "e6", "e7", "e8", "f4", "g2", "b30", "d30"])
def test_builtin_datum_json_roundtrip(name):
    # from_json checks that the roots form a positive system; every builtin does.
    _assert_json_roundtrip(builtin_datum(name))


@pytest.mark.parametrize("a,b", sorted(EXPECTED_TYPES) + [("R", "R")])
def test_extracted_datum_json_roundtrip(a, b):
    _assert_json_roundtrip(datum_for(a, b))


BUILTINS_TO_RANK_8 = ([f"a{n}" for n in range(1, 9)] + [f"b{n}" for n in range(2, 9)]
                      + [f"c{n}" for n in range(2, 9)] + [f"d{n}" for n in range(3, 9)]
                      + ["e6", "e7", "e8", "f4", "g2"])


@pytest.mark.parametrize("source", BUILTINS_TO_RANK_8 + sorted(EXPECTED_TYPES) + [("R", "R")],
                         ids=lambda s: s if isinstance(s, str) else "-".join(s))
def test_frame_matches_pair_search_and_fraction_weyl(source):
    rd = builtin_datum(source) if isinstance(source, str) else datum_for(*source)
    simple = rd.simple_roots()
    assert simple == reference_simple_roots(rd)
    assert rd.cartan_matrix() == [[rd.pairing(a, b) for b in simple] for a in simple]
    for root, c in zip(rd.positive_roots, rd.root_coords()):
        assert all(type(x) is int and x >= 0 for x in c)
        assert tuple(sum(x * s[t] for x, s in zip(c, simple)) for t in range(rd.rank)) == root

    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=rd.rank, max_size=rd.rank))
    def weyl_agrees(labels):
        w = rd.weight_from_fund(labels)
        assert rd.weyl_dim(w) == reference_weyl_dim(rd, w)

    weyl_agrees()


BUILTIN_TYPES = {name: {"c2": "B2", "d3": "A3"}.get(name, name.upper())
                 for name in BUILTINS_TO_RANK_8}
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@pytest.mark.parametrize("source", BUILTINS_TO_RANK_8 + sorted(EXPECTED_TYPES)
                         + [("R", "R"), "t(O)", "t(H)"],
                         ids=lambda s: s if isinstance(s, str) else "-".join(s))
def test_integer_frame_equals_the_fraction_frame_under_rescaling(source):
    # The frame runs on integer keys and an integer Gram scaled by its lcm.
    # Rescaling the roots by c and the Gram by g, both nonzero rationals of
    # either sign (g < 0 gives a negative definite Gram, c < 0 the opposite
    # chamber), must leave it equal to the Fraction frame of the same datum.
    if isinstance(source, tuple):
        rd, typ = datum_for(*source), EXPECTED_TYPES.get(source, "A1")
    elif source.startswith("t("):
        rd, typ = triality_datum(source[2]), {"O": "D4", "H": "A1xA1xA1"}[source[2]]
    else:
        rd, typ = builtin_datum(source), BUILTIN_TYPES[source]

    @settings(max_examples=6, deadline=None)
    @given(rationals, rationals, st.lists(rationals, min_size=rd.rank, max_size=rd.rank))
    def agrees(c, g, w):
        scaled = RootDatum(rd.name, rd.rank, [tuple(c * x for x in r) for r in rd.positive_roots],
                           [[g * x for x in row] for row in rd.gram])
        ref = reference_frame(scaled)
        assert scaled.simple_roots() == ref["simple"]
        assert scaled.cartan_matrix() == ref["cartan"]
        assert scaled.root_coords() == ref["coords"]
        norms = scaled._norms
        assert [Fraction(h, norms[0]) for h in norms] == [h / ref["norms"][0] for h in ref["norms"]]
        assert scaled.dynkin_labels(w) == tuple(sum(x * y for x, y in zip(row, w))
                                                for row in ref["label_rows"])
        assert dynkin_type(scaled) == typ

    agrees()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=n * (n + 1) // 2,
    max_size=n * (n + 1) // 2).map(lambda xs: (n, xs))))
def test_is_definite_on_integer_keys_is_sylvester(shape):
    # The fraction-free elimination of the integer Gram against Sylvester's
    # criterion on the Fraction minors: all positive, or alternating from negative.
    n, entries = shape
    gram = [[F0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = next(it)
    minors = [leibniz_det([row[:k] for row in gram[:k]]) for k in range(1, n + 1)]
    expected = (all(m > 0 for m in minors)
                or all((m < 0) == (k % 2 == 0) and m for k, m in enumerate(minors)))
    assert _is_definite(int_rows(gram)[0]) == expected


@pytest.mark.parametrize("data,message", [
    ({"rank": 2, "gram": [["1/2", "1/2"], ["1/2", "1/2"]], "positive_roots": [["1", "-1"]]},
     "root datum: positive_roots[0] has (alpha, alpha) = 0"),
    ({"rank": 2, "gram": [["1", "0"], ["0", "-1"]], "positive_roots": [["1/3", "2/3"], ["1", "1"]]},
     "root datum: positive_roots[1] has (alpha, alpha) = 0"),
    ({"rank": 2, "gram": [["2", "-1"], ["-1", "-2"]], "positive_roots": [["1", "0"]]},
     "root datum: 'gram' is not definite"),
    ({"rank": 2, "gram": [["1/3", "1/3"], ["1/3", "1/3"]], "positive_roots": [["1", "0"]]},
     "root datum: 'gram' is not definite"),
    ({"rank": 1, "gram": [["1/2"]], "positive_roots": [["1/2"], ["1"]]},
     "root datum: 'positive_roots' is not a positive system: <rho, alpha-check> = 3 for "
     "positive_roots[0], not 1"),
], ids=["zero-length", "zero-length-fractions", "indefinite", "semidefinite", "rho"])
def test_from_json_refusal_messages(data, message):
    with pytest.raises(ValueError) as exc:
        RootDatum.from_json(data)
    assert str(exc.value) == message


@pytest.mark.parametrize("keys,message", [
    ([(0, 0), (0, 0)], "x has no roots"),
    ([(1, 0), (-1, 0), (0, 1), (0, 0)], "root count 3 != dim - rank = 2"),
    ([(1, 0), (-1, 0), (1, 0), (-1, 0), (0, 0), (0, 0)], "repeated roots; extraction degenerate"),
    ([(1, 0), (2, 0), (-3, 0), (3, 1), (0, 0), (0, 0)],
     "positivity did not split the roots in half"),
], ids=["no-roots", "root-count", "repeated", "positivity"])
def test_datum_from_weights_refusal_messages(keys, message):
    with pytest.raises(ExtractionError) as exc:
        _datum_from_weights("x", keys, 2, {})
    assert str(exc.value) == message


def test_one_object_per_tag_name():
    alg = build_split_algebra("O")
    assert build_split_algebra("o") is alg and build_split_algebra(O_TAG) is alg
    t = triality_algebra("O")
    assert all(triality_algebra(x) is t for x in ("o", O_TAG, alg))
    g = build_magic_algebra("O", "H")
    assert build_magic_algebra("o", "h") is g and build_magic_algebra(O_TAG, H_TAG) is g
    assert datum_for("c", "h") is datum_for("C", "H")


def test_datum_refuses_a_vector_of_the_wrong_length():
    # e8 has rank 8: a 3-vector or a 9-vector is no weight of it, and the
    # Gram and label products must not truncate it to fit.
    rd = builtin_datum("e8")
    one = [Fraction(1)] * 8
    for bad in ([Fraction(1)] * 3, [Fraction(1)] * 9):
        for x, y in ((bad, one), (one, bad)):
            with pytest.raises(ValueError, match="length"):
                rd.inner(x, y)
            with pytest.raises(ValueError, match="length"):
                rd.pairing(x, y)
        with pytest.raises(ValueError, match="length"):
            rd.dynkin_labels(bad)
    assert len(rd.dynkin_labels(one)) == 8
