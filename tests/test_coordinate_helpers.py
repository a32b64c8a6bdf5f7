"""The solver on random columns, and the torus grading of t(A) against the ad(chart) action.

`SolveCache` takes sparse columns, at any indices, and must keep sparse
rows and columns, return sparse solutions with no zero stored, solve
exactly as a dense reduction does and refuse dependent or zero columns.  `factor_weights` reads the
weight of each basis vector of t(A) off the entries of its matrices; the
reference here brackets every chart element with every basis vector and
solves for the coordinates of the result, which must be the weight times
that basis vector.  A basis vector that is not a weight vector must be
refused.  `int_maps` must turn (row, col) entries into integer column maps
over their least denominator, without zeros.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from magicsquare.compalg import build_split_algebra
from magicsquare.linalg import F0, SolveCache, int_maps, sparse
from magicsquare.roots import ExtractionError, cartan_chart, chart_denominator, factor_weights
from magicsquare.triality import TrialityAlgebra, combine, triality_algebra, triality_bracket
from tests_helpers import commutator, dense_flat, dense_mats, e_vector, reference_rref, reference_solver

RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)

# tag -> number of examples; t(O) has dimension 28, so it gets fewer.
TAGS = {"C": 25, "H": 15, "O": 4}


def densify(sv, m):
    return [sv.get(i, F0) for i in range(m)]


def is_sparse(sv):
    return all(c != 0 for c in sv.values())


@pytest.mark.parametrize("tag", sorted(TAGS))
def test_solve_cache_matches_dense_reduction(tag):
    t = triality_algebra(tag)
    cols = [dense_flat(x) for x in t.basis]
    n, m = len(cols), len(cols[0])
    solver = SolveCache([x.sparse_flat() for x in t.basis])
    assert len(solver.pivots) == n
    assert all(is_sparse(vec) for vec in solver.inverse_columns + solver.columns)
    # Dense reference: the reduced [A | I] with every zero entry kept; its
    # first n rows give the coordinates, the others vanish exactly on the span.
    # Many of the m positions are touched by no column, the last ones too.
    red, _ = reference_rref([[col[i] for col in cols] + e_vector(m, i) for i in range(m)])
    dense = [row[n:] for row in red]

    def apply(rows, b):
        return [sum((row[j] * b[j] for j in range(m)), F0) for row in rows]

    @settings(max_examples=3 * TAGS[tag], deadline=None)
    @given(st.lists(RATIONALS, min_size=n, max_size=n), st.integers(0, m - 1),
           RATIONALS.filter(bool))
    def check(x, r, c):
        b = [sum((xi * col[i] for xi, col in zip(x, cols)), F0) for i in range(m)]
        got = solver.solve(sparse(b))
        assert is_sparse(got)
        assert densify(got, n) == apply(dense[:n], b) == x
        b[r] += c
        if any(apply(dense[n:], b)):
            with pytest.raises(ValueError):
                solver.solve(sparse(b))
        else:
            got = solver.solve(sparse(b))
            assert is_sparse(got) and densify(got, n) == apply(dense[:n], b)

    check()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["square", "tall", "scattered", "dependent", "zero"]),
       st.integers(1, 5), st.data())
def test_solve_cache_on_random_columns(shape, n, data):
    # Columns that are not a t(A) basis: an n x n set, a taller one, a tall
    # one whose rows sit at scattered, unordered indices with gaps that no
    # column touches, or a set with one column a combination of the others
    # or zero, which must be refused.  Membership of the span is decided by
    # a rank count on dense rows, not by the solver.
    if shape == "square":
        m = n
    elif shape in ("tall", "scattered"):
        m = n + data.draw(st.integers(1, 3))
    else:
        m = max(1, n + data.draw(st.integers(-1, 2)))
    cols = data.draw(st.lists(st.lists(RATIONALS, min_size=m, max_size=m),
                              min_size=n, max_size=n))
    if shape == "scattered":
        place = data.draw(st.permutations(range(m + data.draw(st.integers(1, 4)))))[:m]
    else:
        place = list(range(m))
    # One position past the ambient ones, touched by no column.
    width = max(place) + 2

    def embed(v):
        return {place[i]: c for i, c in enumerate(v) if c}

    if shape in ("dependent", "zero"):
        k = data.draw(st.integers(0, n - 1))
        coeffs = data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
        others = [(a, col) for j, (a, col) in enumerate(zip(coeffs, cols)) if j != k]
        if shape == "zero":
            others = []
        cols[k] = [sum((a * col[i] for a, col in others), F0) for i in range(m)]
        with pytest.raises(ValueError):
            SolveCache([embed(col) for col in cols])
        return
    assume(len(reference_rref(cols)[1]) == n)
    sparse_cols = [embed(col) for col in cols]
    solver = SolveCache(sparse_cols)
    assert len(solver.pivots) == n
    assert all(is_sparse(vec) for vec in solver.inverse_columns + solver.columns)
    x = data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
    b = embed([sum((xi * col[i] for xi, col in zip(x, cols)), F0) for i in range(m)])
    got = solver.solve(b)
    assert is_sparse(got) and densify(got, n) == x
    r = data.draw(st.integers(0, width - 1))
    b[r] = b.get(r, F0) + data.draw(RATIONALS.filter(bool))
    b = {i: c for i, c in b.items() if c}
    dense_cols = [densify(col, width) for col in sparse_cols]
    if len(reference_rref(dense_cols + [densify(b, width)])[1]) > n:
        with pytest.raises(ValueError):
            solver.solve(b)
    else:
        y = solver.solve(b)
        assert is_sparse(y)
        assert [sum((y.get(j, F0) * col[i] for j, col in enumerate(dense_cols)), F0)
                for i in range(width)] == densify(b, width)


@pytest.mark.parametrize("tag", sorted(TAGS))
def test_chart_scales_each_basis_vector_by_its_weight(tag):
    t = triality_algebra(tag)
    weights, d = factor_weights(t), chart_denominator(t)
    assert len(weights) == t.dim
    for j, h in enumerate(cartan_chart(t)):
        for k, b in enumerate(t.basis):
            expected = [Fraction(weights[k][j], d) * x for x in e_vector(t.dim, k)]
            assert t.coords(triality_bracket(h, b)) == expected, (j, k)


def test_factor_weights_refuses_a_mixed_basis_vector():
    weights = factor_weights(triality_algebra("H"))
    t = TrialityAlgebra(build_split_algebra("H"))
    k = t.cartan_dim
    l = next(i for i in range(k + 1, t.dim) if weights[i] != weights[k])
    t.basis[k] = combine({0: 1, 1: 1}, [t.basis[k], t.basis[l]])
    with pytest.raises(ExtractionError, match="not a weight vector"):
        factor_weights(t)


def test_columns_drops_zero_entries_and_empty_columns():
    # `int_maps` drops zero values and the columns they empty, scales every
    # map by the least D that clears the denominators and a given d, and
    # lists each column's rows in increasing order.
    entries = {(0, 1): F0, (1, 1): Fraction(2), (2, 0): Fraction(1) - 1, (0, 3): Fraction(-1, 2)}
    assert int_maps([entries]) == ([{1: ((1, 4),), 3: ((0, -1),)}], 2)
    other = {(2, 0): Fraction(1, 3), (0, 0): Fraction(1)}
    assert int_maps([entries, other], 5) == ([{1: ((1, 60),), 3: ((0, -15),)},
                                              {0: ((0, 30), (2, 10))}], 30)
    assert int_maps([{}, {(0, 0): F0}]) == ([{}, {}], 1)


@pytest.mark.parametrize("tag", ["C", "H", "O"])
def test_bracket_coords_match_a_dense_fraction_solve(tag):
    # Every ordered basis pair, its own bracket and the cached reverse order
    # included: the integer commutator and solve against the dense matrix
    # commutator and the normal-equations solve.
    t = triality_algebra(tag)
    mats = [dense_mats(x) for x in t.basis]
    solve = reference_solver([dense_flat(x) for x in t.basis])
    for k in range(t.dim):
        for l in range(t.dim):
            flat = [x for a, b in zip(mats[k], mats[l]) for row in commutator(a, b) for x in row]
            assert t.bracket_coords(k, l) == sparse(solve(flat)), (k, l)


def test_solve_cache_on_denominators_two_three_and_four():
    # b over 2, 3 and 4 on the t(H) basis, and on columns with their own
    # denominators; one entry more, over 3, puts b outside the span, and
    # both the solver and the reference refuse it.
    t = triality_algebra("H")
    rational = [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {1: Fraction(3, 4), 2: Fraction(-1)},
                {0: Fraction(2, 3), 3: Fraction(-5, 4)}]
    for cols, dens in (([dense_flat(x) for x in t.basis], {2, 3, 4}),
                       ([densify(c, 5) for c in rational], {3, 4, 16})):
        solver, solve = SolveCache([sparse(col) for col in cols]), reference_solver(cols)
        x = [Fraction((-1) ** j * (j + 1), 2 + j % 3) for j in range(len(cols))]
        b = [sum((xj * col[i] for xj, col in zip(x, cols)), F0) for i in range(len(cols[0]))]
        assert dens <= {c.denominator for c in b}
        assert solver.solve(sparse(b)) == sparse(solve(b)) == sparse(x)
        r = next(i for i in range(len(b)) if not any(col[i] for col in cols))
        b[r] += Fraction(1, 3)
        with pytest.raises(ValueError):
            solve(b)
        with pytest.raises(ValueError, match="outside column span"):
            solver.solve(sparse(b))
