"""The coordinate bracket, the solver and the restricted eigenspace routine on random elements.

`bracket_vec` must be the bilinear extension of the basis bracket,
`SolveCache` must keep sparse rows and columns, solve exactly as a dense
reduction does and refuse dependent columns, and `eigenspaces` must return
eigenvectors inside the given invariant subspace, with dimensions that add
up when the operator is diagonalizable.  The operators are ad(h) for random
rational h in the split chart of t(A).  The stored basis of t(A) consists
of root vectors and Cartan elements, so the span of any set of basis
vectors is ad(h)-invariant; the subspaces here are spanned by random
rational mixtures of up to 8 basis vectors, so their given basis is not an
eigenbasis.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from magicsquare.linalg import F0, SolveCache, e_vector, eigenspaces, rref
from magicsquare.roots import cartan_chart, factor_root_data
from magicsquare.triality import triality_algebra, triality_bracket

RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)

# tag -> number of examples; t(O) has dimension 28, so it gets fewer.
TAGS = {"C": 25, "H": 15, "O": 4}


@pytest.mark.parametrize("tag", sorted(TAGS))
def test_bracket_vec_is_the_bilinear_bracket(tag):
    t = triality_algebra(tag)
    vec = st.lists(RATIONALS, min_size=t.dim, max_size=t.dim)

    @settings(max_examples=TAGS[tag], deadline=None)
    @given(vec, vec)
    def check(x, y):
        expected = t.coords(triality_bracket(t.from_coords(x), t.from_coords(y)))
        assert t.bracket_vec(x, y) == expected

    check()


@pytest.mark.parametrize("tag", sorted(TAGS))
def test_solve_cache_matches_dense_reduction(tag):
    t = triality_algebra(tag)
    cols = [x.flat() for x in t.basis]
    n, m = len(cols), len(cols[0])
    solver = SolveCache(cols)
    assert len(solver.pivots) == n
    assert all(c != 0 for vec in solver.inverse_rows + solver.columns for c in vec.values())
    # Dense reference: the reduced [A | I] with every zero entry kept; its
    # first n rows give the coordinates, the others vanish exactly on the span.
    red, _ = rref([[col[i] for col in cols] + e_vector(m, i) for i in range(m)])
    dense = [row[n:] for row in red]

    def apply(rows, b):
        return [sum((row[j] * b[j] for j in range(m)), F0) for row in rows]

    @settings(max_examples=3 * TAGS[tag], deadline=None)
    @given(st.lists(RATIONALS, min_size=n, max_size=n), st.integers(0, m - 1),
           RATIONALS.filter(bool))
    def check(x, r, c):
        b = [sum((xi * col[i] for xi, col in zip(x, cols)), F0) for i in range(m)]
        assert solver.solve(b) == apply(dense[:n], b) == x
        b[r] += c
        if any(apply(dense[n:], b)):
            with pytest.raises(ValueError):
                solver.solve(b)
        else:
            assert solver.solve(b) == apply(dense[:n], b)

    check()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["square", "tall", "dependent"]), st.integers(1, 5), st.data())
def test_solve_cache_on_random_columns(shape, n, data):
    # Columns that are not a t(A) basis: an n x n set, a taller one, or a set
    # with one column a combination of the others, which must be refused.
    # Membership of the span is decided by a rank count, not by the solver.
    if shape == "square":
        m = n
    elif shape == "tall":
        m = n + data.draw(st.integers(1, 3))
    else:
        m = max(1, n + data.draw(st.integers(-1, 2)))
    cols = data.draw(st.lists(st.lists(RATIONALS, min_size=m, max_size=m),
                              min_size=n, max_size=n))
    if shape == "dependent":
        k = data.draw(st.integers(0, n - 1))
        coeffs = data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
        others = [(a, col) for j, (a, col) in enumerate(zip(coeffs, cols)) if j != k]
        cols[k] = [sum((a * col[i] for a, col in others), F0) for i in range(m)]
        with pytest.raises(ValueError):
            SolveCache(cols)
        return
    assume(len(rref(cols)[1]) == n)
    solver = SolveCache(cols)
    assert len(solver.pivots) == n
    assert all(c != 0 for vec in solver.inverse_rows + solver.columns for c in vec.values())
    x = data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
    b = [sum((xi * col[i] for xi, col in zip(x, cols)), F0) for i in range(m)]
    assert solver.solve(b) == x
    b[data.draw(st.integers(0, m - 1))] += data.draw(RATIONALS.filter(bool))
    if len(rref(cols + [b])[1]) > n:
        with pytest.raises(ValueError):
            solver.solve(b)
    else:
        y = solver.solve(b)
        assert [sum((yi * col[i] for yi, col in zip(y, cols)), F0) for i in range(m)] == b


@pytest.mark.parametrize("tag", sorted(TAGS))
def test_eigenspaces_of_ad_chart_element(tag):
    t = triality_algebra(tag)
    chart = cartan_chart(t)
    roots, _ = factor_root_data(t)
    chart_coords = [t.coords(h) for h in chart]
    size = min(t.dim, 8)

    @settings(max_examples=2 * TAGS[tag], deadline=None)
    @given(st.lists(RATIONALS, min_size=len(chart), max_size=len(chart)),
           st.lists(st.integers(0, t.dim - 1), min_size=1, max_size=size, unique=True),
           st.lists(st.lists(RATIONALS, min_size=size, max_size=size),
                    min_size=size, max_size=size),
           RATIONALS)
    def check(r, support, mix, extra):
        k = len(support)
        mix = [row[:k] for row in mix[:k]]
        assume(len(rref(mix)[1]) == k)
        hc = [sum(c * x[i] for c, x in zip(r, chart_coords)) for i in range(t.dim)]
        vecs = []
        for row in mix:
            v = [F0] * t.dim
            for c, i in zip(row, support):
                v[i] = c
            vecs.append(v)
        images = [t.bracket_vec(hc, v) for v in vecs]
        # Every eigenvalue of ad(h) is a root evaluated at h, or 0; extra is
        # either one of those or must give an empty space.
        values = sorted({sum(c * a for c, a in zip(r, alpha)) for alpha in roots}
                        | {0, extra})
        spaces = eigenspaces(vecs, images, values)
        assert len(spaces) == len(values)
        assert sum(len(space) for space in spaces) == len(vecs)
        solver = SolveCache(vecs)
        for c, space in zip(values, spaces):
            for v in space:
                solver.solve(v)  # raises unless v lies in span(vecs)
                assert t.bracket_vec(hc, v) == [c * x for x in v]

    check()
