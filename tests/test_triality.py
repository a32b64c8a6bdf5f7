import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from magicsquare.linalg import SolveCache, axpy, mat_mul, mat_vec, sparse, transpose
from magicsquare.compalg import CompAlg, build_split_algebra
from magicsquare.roots import cartan_chart
from magicsquare.triality import (TrialityAlgebra, combine, psi, triality_algebra,
                                  triality_bracket)
from tests_helpers import (commutator, cyclic_shift, dense_combination, dense_flat, dense_mats,
                           k_form, reference_calibration, reference_nullspace,
                           reference_triality_basis, satisfies_triality, slot_trace_sum,
                           stores_no_zero, triple_from_mats)


def rand_elt(rng, n, lo=-2, hi=2):
    return [Fraction(rng.randint(lo, hi)) for _ in range(n)]


def test_dimensions():
    assert triality_algebra("R").dim == 0
    assert triality_algebra("C").dim == 2
    assert triality_algebra("H").dim == 9
    assert triality_algebra("O").dim == 28


def test_basis_invariants():
    for tag in "CHO":
        t = triality_algebra(tag)
        q = t.alg.gram
        n = t.alg.dim
        for b in t.basis:
            assert satisfies_triality(t.alg, b)
            for i in (1, 2, 3):
                m = b.component(i)
                mtq = mat_mul(transpose(m), q)
                qm = mat_mul(q, m)
                assert all(mtq[r][c] + qm[r][c] == 0
                           for r in range(n) for c in range(n))
            # integer matrices with content one
            flat = dense_flat(b)
            assert all(x.denominator == 1 for x in flat)
            g = 0
            for x in flat:
                g = gcd(g, abs(int(x)))
            assert g == 1


@pytest.mark.parametrize("tag", ["C", "H", "O"])
def test_basis_matches_direct_construction(tag):
    # Constraint rows read off the structure constants and the incremental
    # Cartan-first completion give the basis of the direct construction.
    t = triality_algebra(tag)
    basis, cartan_dim = reference_triality_basis(t.alg)
    assert len(t.basis) == len(basis)
    for got, want in zip(t.basis, basis):
        assert got == want
    assert t.cartan_dim == cartan_dim


def test_bracket_closure_and_antisymmetry():
    t = triality_algebra("O")
    rng = random.Random(1)
    for _ in range(30):
        k, l = rng.randrange(t.dim), rng.randrange(t.dim)
        x, y = t.basis[k], t.basis[l]
        z = triality_bracket(x, y)
        coords = t.coords(z)  # membership: raises if outside t(O)
        back = t.bracket_coords(l, k)
        assert [(-c) for c in coords] == [back.get(i, 0) for i in range(t.dim)]
        assert all(back.values())
        assert satisfies_triality(t.alg, z)
    x = t.basis[3]
    assert triality_bracket(x, x).is_zero()


def test_cyclic_shift_order_three_and_relation():
    for tag in "CHO":
        t = triality_algebra(tag)
        for b in t.basis:
            s1 = cyclic_shift(t.alg, b)
            assert satisfies_triality(t.alg, s1)
            assert cyclic_shift(t.alg, cyclic_shift(t.alg, s1)) == b
        n = t.alg.dim
        zero = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
        z = triple_from_mats(zero, zero, zero)
        assert cyclic_shift(t.alg, z).is_zero()


def test_naive_shift_fails_where_twist_needed():
    # the untwisted rotation (th2, th3, th1) does not stay in t(A)
    t = triality_algebra("O")
    broken = 0
    for b in t.basis:
        m1, m2, m3 = dense_mats(b)
        naive = triple_from_mats(m2, m3, m1)
        if not satisfies_triality(t.alg, naive):
            broken += 1
    assert broken > 0


def test_psi_zero_on_diagonal():
    rng = random.Random(2)
    for tag in "CHO":
        t = triality_algebra(tag)
        u = rand_elt(rng, t.alg.dim)
        for i in (1, 2, 3):
            assert psi(t, i, u, u).is_zero()


def test_psi_duality_all_slots():
    rng = random.Random(3)
    for tag in "CHO":
        t = triality_algebra(tag)
        n = t.alg.dim
        for _ in range(4):
            u, v = rand_elt(rng, n), rand_elt(rng, n)
            for i in (1, 2, 3):
                x = psi(t, i, u, v)
                for b in t.basis[:5]:
                    lhs = k_form(t, x, b)
                    rhs = t.alg.qform(mat_vec(b.component(i), u), v)
                    assert lhs == rhs


@pytest.mark.parametrize("tag", ["R", "C", "H", "O"])
def test_calibration_matches_the_duality_solve(tag):
    # The closed forms of K and Psi give what the duality rule solves for.
    t = triality_algebra(tag)
    k, tables = reference_calibration(t)
    assert t.k_matrix() == k
    assert [t.psi_table(i) for i in (1, 2, 3)] == tables


@pytest.mark.parametrize("tag", ["C", "H", "O"])
def test_psi_duality_on_every_basis_pair_and_triple(tag):
    # K(Psi_i(e_p ^ e_q), b_k) = Q(theta^k_i e_p, e_q) for every slot, basis
    # pair p < q and basis triple k (2352 checks on t(O)), from the sparse
    # coordinates and the rows of K; and S = -(2a + 8) K entrywise.
    t = triality_algebra(tag)
    alg, n, k = t.alg, t.alg.dim, t.k_matrix()
    comps = [[b.component(i) for i in (1, 2, 3)] for b in t.basis]
    checks = 0
    for i in (1, 2, 3):
        table = t.psi_table(i)
        for p, q in itertools.combinations(range(n), 2):
            coords = table.get((p, q), {})
            e_q = alg.basis_element(q)
            for col, c in enumerate(comps):
                lhs = sum((x * k[j][col] for j, x in coords.items()), Fraction(0))
                assert lhs == alg.qform([row[p] for row in c[i - 1]], e_q), (i, p, q, col)
                checks += 1
    assert checks == 3 * n * (n - 1) // 2 * t.dim
    assert slot_trace_sum(t) == [[-(2 * n + 8) * x for x in row] for row in k]


@pytest.mark.parametrize("pq", [(0, 0), (1, 7), (2, 3), (4, 7), (7, 6)])
def test_calibration_refuses_a_corrupted_product(pq):
    # One slot product of a private copy of O with its sign flipped: the
    # product maps no longer land in t(A), and the span check says so.
    alg = build_split_algebra("O")
    ctable = [[dict(x) for x in row] for row in alg.ctable]
    p, q = pq
    assert ctable[p][q]
    ctable[p][q] = {r: -x for r, x in ctable[p][q].items()}
    copy = CompAlg(alg.tag, ctable, alg.conj_matrix, alg.gram, alg.unit)
    with pytest.raises(ValueError, match="outside column span"):
        TrialityAlgebra(copy)._calibrate()


def test_psi_coords_rejects_bad_slot():
    t = triality_algebra("C")
    u, v = t.alg.basis_element(0), t.alg.basis_element(1)
    for i in (0, 4, -1):
        with pytest.raises(ValueError):
            t.psi_coords(i, u, v)
        with pytest.raises(ValueError):
            psi(t, i, u, v)


def test_psi_coords_rejects_wrong_length():
    for tag in "RCHO":
        t = triality_algebra(tag)
        u = t.alg.basis_element(0)
        for bad in ([], u + [Fraction(1)]):
            with pytest.raises(ValueError, match="element dimension mismatch"):
                t.psi_coords(1, bad, u)
            with pytest.raises(ValueError, match="element dimension mismatch"):
                t.psi_coords(1, u, bad)


def test_psi_shift_compatibility():
    # Each Psi_i is built from its own product maps; on every basis pair they
    # agree with the twisted shift tau:
    #   Psi_2(e_p ^ e_q) = tau^2 Psi_1(e_p ^ e_q),
    #   Psi_3(e_p ^ e_q) = tau Psi_1(conj e_p ^ conj e_q).
    for tag in "CHO":
        t = triality_algebra(tag)
        alg = t.alg
        for p, q in itertools.combinations(range(alg.dim), 2):
            u, v = alg.basis_element(p), alg.basis_element(q)
            p1 = psi(t, 1, u, v)
            assert psi(t, 2, u, v) == cyclic_shift(alg, cyclic_shift(alg, p1))
            p1_conj = psi(t, 1, alg.conjugate(u), alg.conjugate(v))
            assert psi(t, 3, u, v) == cyclic_shift(alg, p1_conj)


def test_psi_sum_identity():
    # Psi_3(ac ^ e) + Psi_1(e conj(c) ^ a) + Psi_2(conj(a) e ^ c) = 0
    rng = random.Random(5)
    for tag in "CHO":
        t = triality_algebra(tag)
        alg = t.alg
        n = alg.dim
        count = 50 if tag == "O" else 20
        for _ in range(count):
            a = rand_elt(rng, n, -1, 1)
            c = rand_elt(rng, n, -1, 1)
            e = rand_elt(rng, n, -1, 1)
            s = combine({0: 1, 1: 1, 2: 1}, [psi(t, 3, alg.multiply(a, c), e),
                                    psi(t, 1, alg.multiply(e, alg.conjugate(c)), a),
                                    psi(t, 2, alg.multiply(alg.conjugate(a), e), c)])
            assert s.is_zero()


def test_psi_equivariance():
    rng = random.Random(6)
    for tag in "CHO":
        t = triality_algebra(tag)
        n = t.alg.dim
        for _ in range(5):
            u, v = rand_elt(rng, n), rand_elt(rng, n)
            th = t.basis[rng.randrange(t.dim)]
            tu = mat_vec(th.component(1), u)
            tv = mat_vec(th.component(1), v)
            coords = t.psi_coords(1, tu, v)
            axpy(coords, 1, t.psi_coords(1, u, tv))
            lhs = t.from_coords([coords.get(k, 0) for k in range(t.dim)])
            assert lhs == triality_bracket(th, psi(t, 1, u, v))


def test_t_c_abelian_psi_images_commute():
    t = triality_algebra("C")
    rng = random.Random(7)
    elts = [psi(t, i, rand_elt(rng, 2), rand_elt(rng, 2)) for i in (1, 2, 3)]
    for x, y in itertools.combinations(elts, 2):
        assert triality_bracket(x, y).is_zero()


def test_t_h_three_commuting_ideals():
    t = triality_algebra("H")
    ideals = []
    for slot in (1, 2, 3):
        rows = []
        n = t.alg.dim
        for r in range(n):
            for c in range(n):
                rows.append([b.component(slot)[r][c] for b in t.basis])
        ker = reference_nullspace(rows, t.dim)
        assert len(ker) == 3
        ideals.append([t.from_coords(v) for v in ker])
    for i, j in itertools.combinations(range(3), 2):
        for x in ideals[i]:
            for y in ideals[j]:
                assert triality_bracket(x, y).is_zero()
    # each ideal closes under bracket: [x,y] stays in the ideal's span
    for ideal in ideals:
        solver = SolveCache([x.sparse_flat() for x in ideal])
        for x, y in itertools.combinations(ideal, 2):
            solver.solve(triality_bracket(x, y).sparse_flat())  # raises if outside


def test_psi_of_a_wedge_square_is_zero():
    # Psi_i(u ^ u) has no coordinates, also on t(R), which has no basis.
    rng = random.Random(8)
    for tag in "RCHO":
        t = triality_algebra(tag)
        u = rand_elt(rng, t.alg.dim)
        for i in (1, 2, 3):
            assert t.psi_coords(i, u, u) == {}
            assert psi(t, i, u, u).is_zero()


def test_bracket_coords_refuses_an_index_outside_the_basis():
    t = TrialityAlgebra(build_split_algebra("H"))
    for k, l in ((-1, 0), (0, -1), (t.dim, 0), (0, t.dim)):
        with pytest.raises(IndexError, match="out of range"):
            t.bracket_coords(k, l)
    assert t._bracket_cache == {}


@pytest.mark.parametrize("view", ["component", "diagonal"])
def test_slot_views_refuse_a_slot_outside_1_to_3(view):
    b = triality_algebra("H").basis[5]
    for i in (0, 4, -1):
        with pytest.raises(ValueError, match="slot index"):
            getattr(b, view)(i)


def test_combine_refuses_an_index_outside_the_basis():
    t = triality_algebra("H")
    assert combine({t.dim - 1: Fraction(1)}, t.basis) == t.basis[-1]
    for k in (-1, t.dim):
        with pytest.raises(IndexError, match="out of range"):
            combine({k: Fraction(1)}, t.basis)


def test_dump_and_alias():
    t = triality_algebra("H")
    d = t.dump()
    assert d["dim"] == 9 and d["algebra"] == "H"
    assert len(d["basis"]) == 9


# tag -> number of examples; t(O) has dimension 28, so it gets fewer.
MAP_EXAMPLES = {"C": 40, "H": 40, "O": 20}


@pytest.mark.parametrize("tag", sorted(MAP_EXAMPLES))
def test_column_maps_match_dense_reference(tag):
    # Random rational combinations of the basis (denominators up to 3, so
    # the triples and their brackets carry D > 1), their bracket and their
    # cancelling sum, against dense matrices; no map stores a zero entry or
    # an empty column, and rebuilding a triple from its dense matrices
    # gives the same maps and D.
    t = triality_algebra(tag)
    assert all(stores_no_zero(b) for b in t.basis)
    coeffs = st.lists(st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)),
                      min_size=t.dim, max_size=t.dim)

    @settings(max_examples=MAP_EXAMPLES[tag], deadline=None)
    @given(coeffs, coeffs)
    def check(cx, cy):
        x, y = combine(sparse(cx), t.basis), combine(sparse(cy), t.basis)
        assert dense_mats(x) == dense_combination(cx, t.basis)
        z = triality_bracket(x, y)
        assert dense_mats(z) == tuple(commutator(a, b)
                                      for a, b in zip(dense_mats(x), dense_mats(y)))
        for u in (x, y, z):
            assert triple_from_mats(*dense_mats(u)) == u
            assert [u.component(i) for i in (1, 2, 3)] == list(dense_mats(u))
            assert stores_no_zero(u)
        zero = combine(sparse(cx + [-c for c in cx]), t.basis + t.basis)
        assert zero.thetas == ({}, {}, {}) == triality_bracket(x, x).thetas

    check()


def test_triple_denominators():
    # The code reads the integers of the basis triples as their entries
    # (the Cartan-first reordering, the calibration, the leg actions of
    # g(A,B) and of its modules): every basis triple has D = 1, as do the
    # so(Q) maps.  The t(O) chart has D = 2; combinations and brackets
    # keep the least D.
    for tag in "RCHO":
        t = triality_algebra(tag)
        assert all(b.denominator == 1 for b in t.basis)
        assert t.alg.so_q_basis()[1] == 1
    assert [h.denominator for h in cartan_chart(triality_algebra("O"))] == [2, 2, 2, 2]
    assert {h.denominator for tag in "CH" for h in cartan_chart(triality_algebra(tag))} == {1}
    t = triality_algebra("O")
    x = combine({0: Fraction(1, 3), 5: Fraction(1, 2)}, t.basis)
    assert x.denominator == 6
    assert combine({0: Fraction(2, 3)}, [combine({0: Fraction(3, 2)}, t.basis)]) == t.basis[0]
