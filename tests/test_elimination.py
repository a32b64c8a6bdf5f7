"""The sparse elimination of `linalg` against the dense reference, and input checks.

`rref` and `nullspace` work on sparse rows; an RREF is unique, so on
every matrix they must give exactly what the dense column-pivoting
reduction of `tests_helpers` gives, zero rows, repeated rows and all-zero
matrices included.  `nullspace` returns sparse vectors with no stored
zero.  `int_inverse` must give that reduction's inverse on the integer
rows of every square matrix, with A Q = d I exactly and the leading minors
up to the first zero one.  `primitive_integer_vector` takes and returns
sparse vectors and must match the all-entries lcm/gcd rescaling whatever
the order of the keys.  `int_inverse` refuses a non-square matrix,
`Echelon.add` ignores stored zeros and is exact on integer rows, and t(A)
refuses coordinates and triples of the wrong size.
"""

from fractions import Fraction
from itertools import takewhile

import pytest
from hypothesis import example, given, settings, strategies as st

from magicsquare.linalg import (F0, F1, Echelon, int_inverse, int_rows, nullspace,
                                primitive_integer_vector, rref, sparse)
from magicsquare.triality import triality_algebra
from tests_helpers import (leibniz_det, reference_inverse, reference_nullspace,
                           reference_primitive_integer_vector, reference_rref)

RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)
# Mostly zeros and units, as in the constraint matrices, and some rationals.
ENTRIES = st.one_of(st.just(F0), st.just(F0), st.sampled_from([F1, -F1]), RATIONALS)

# shape -> (rows, columns) ranges.
SHAPES = {
    "no rows": ((0, 0), (1, 5)),
    "row": ((1, 1), (1, 7)),
    "column": ((1, 7), (1, 1)),
    "wide": ((2, 4), (5, 8)),
    "tall": ((5, 8), (2, 4)),
    "square": ((1, 6), None),
}


@st.composite
def matrices(draw, shape):
    (r0, r1), cols = SHAPES[shape]
    n = draw(st.integers(r0, r1))
    m = n if cols is None else draw(st.integers(*cols))
    if draw(st.integers(0, 7)) == 0:
        return [[F0] * m for _ in range(n)], m
    rows = draw(st.lists(st.lists(ENTRIES, min_size=m, max_size=m), min_size=n, max_size=n))
    # Zero rows, repeated rows and sums of two rows, in place of drawn ones.
    for i in range(len(rows)):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "repeat", "sum"]))
        if kind == "zero":
            rows[i] = [F0] * m
        elif kind == "repeat":
            rows[i] = list(rows[draw(st.integers(0, len(rows) - 1))])
        elif kind == "sum":
            a, b = (rows[draw(st.integers(0, len(rows) - 1))] for _ in range(2))
            rows[i] = [x + y for x, y in zip(a, b)]
    return rows, m


def dense(rows, m):
    return [[row.get(c, F0) for c in range(m)] for row in rows]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SHAPES)), st.data())
def test_rref_and_nullspace_match_dense_reference(shape, data):
    a, m = data.draw(matrices(shape))
    rows = [sparse(row) for row in a]
    copies = [dict(row) for row in rows]
    red, pivots = rref(rows)
    ref_red, ref_pivots = reference_rref(a)
    assert pivots == ref_pivots
    assert dense(red, m) == ref_red
    assert all(all(row.values()) for row in red)
    assert rows == copies
    kernel = nullspace(rows, m)
    assert dense(kernel, m) == reference_nullspace(a, m)
    assert all(all(v.values()) for v in kernel)


@settings(max_examples=60, deadline=None)
@given(matrices("square"))
def test_inverse_matches_dense_reference(am):
    # The integer rows are L A, so A^-1 = L Q / d.
    a, _ = am
    ints, scale = int_rows(a)
    try:
        expected = reference_inverse(a)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            int_inverse(ints)
        return
    q, d, _ = int_inverse(ints)
    assert [[Fraction(scale * x, d) for x in row] for row in q] == expected


# Square integer matrices of size 0 to 5, mostly zeros, so that leading
# minors vanish and rows must be swapped.
INT_SQUARES = st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]), min_size=n, max_size=n),
    min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(INT_SQUARES)
@example([[0, 1], [1, 0]])
@example([[1, 1, 0], [1, 1, 1], [0, 1, 1]])  # M_2 = 0, then a nonzero pivot
def test_int_inverse_gives_the_leading_minors_and_an_exact_inverse(a):
    n = len(a)
    det = leibniz_det(a)
    if not det:
        with pytest.raises(ValueError, match="singular"):
            int_inverse(a)
        return
    q, d, minors = int_inverse(a)
    leading = [leibniz_det([row[:k] for row in a[:k]]) for k in range(1, n + 1)]
    assert minors == list(takewhile(bool, leading))
    assert abs(d) == abs(det)
    assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*q)] for row in a] == \
        [[d * (i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("a, m", [
    ([], 3),
    ([[F0] * 4 for _ in range(3)], 4),
    ([[F0, Fraction(2), -F1, F0]], 4),
    ([[F0], [Fraction(3)], [F0], [Fraction(-1, 2)]], 1),
    ([[F1, F1, F0, F0, F1], [F1, F1, F0, F0, F1], [F0, F0, F0, F0, F0]], 5),
    ([[F1, Fraction(2)], [Fraction(1, 3), F0], [F0, F0], [F1, Fraction(2)], [F0, -F1]], 2),
])
def test_rref_and_nullspace_on_edge_shapes(a, m):
    rows = [sparse(row) for row in a]
    red, pivots = rref(rows)
    ref_red, ref_pivots = reference_rref(a)
    assert (dense(red, m), pivots) == (ref_red, ref_pivots)
    kernel = nullspace(rows, m)
    assert dense(kernel, m) == reference_nullspace(a, m)
    assert all(all(v.values()) for v in kernel)


@settings(max_examples=100, deadline=None)
@given(st.lists(ENTRIES, min_size=1, max_size=8))
def test_primitive_integer_vector_matches_reference(v):
    got = primitive_integer_vector(sparse(v))
    assert all(got.values())
    [got] = dense([got], len(v))
    assert got == reference_primitive_integer_vector(v)
    assert all(isinstance(x, Fraction) and x.denominator == 1 for x in got)


@settings(max_examples=100, deadline=None)
@given(st.lists(ENTRIES, min_size=1, max_size=8))
def test_primitive_integer_vector_signs_the_least_index(v):
    # Keys in decreasing order: the sign must come from the entry at the
    # least index, not from the first key.
    got = primitive_integer_vector(dict(reversed(sparse(v).items())))
    assert dense([got], len(v)) == [reference_primitive_integer_vector(v)]


@pytest.mark.parametrize("a", [[[1, 2, 3]], [[1, 0], [0]], [[1], [1]]])
def test_inverse_refuses_a_non_square_matrix(a):
    with pytest.raises(ValueError, match="not square"):
        int_inverse(a)


def test_inverse_of_the_empty_matrix():
    assert int_inverse([]) == ([], 1, [])


def test_echelon_add_ignores_stored_zeros():
    echelon = Echelon()
    assert echelon.add({0: F0, 1: F1})
    assert echelon.rows == {1: {1: F1}}
    assert not echelon.add({0: F0, 1: Fraction(-3)})
    assert not echelon.add({2: F0})
    assert len(echelon) == 1


def as_fractions(rows):
    return [{k: Fraction(c) for k, c in row.items()} for row in rows]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 6), st.integers(-6, 6), max_size=5), max_size=6))
def test_elimination_is_exact_on_integer_rows(rows):
    # Integer rows and their Fraction copies give equal rows, every one of
    # them Fraction: in the echelon, in `rref` and in `nullspace`.
    ints, fracs = Echelon(), Echelon()
    for row, copy in zip(rows, as_fractions(rows)):
        assert ints.add(row) == fracs.add(copy)
    red = rref(rows)
    kernel = nullspace(rows, 7)
    assert ints.rows == fracs.rows
    assert red == rref(as_fractions(rows))
    assert kernel == nullspace(as_fractions(rows), 7)
    values = ([c for row in ints.rows.values() for c in row.values()]
              + [c for row in red[0] + kernel for c in row.values()])
    assert all(type(c) is Fraction for c in values)


def test_echelon_add_scales_an_integer_lead_exactly():
    echelon = Echelon()
    assert echelon.add({0: 3, 1: 1})
    assert echelon.rows == {0: {0: F1, 1: Fraction(1, 3)}}
    assert all(type(c) is Fraction for c in echelon.rows[0].values())


def test_triality_refuses_wrong_length_coordinates():
    t = triality_algebra("H")
    assert t.dim == 9
    for v in ([F1], [F1] * 12, []):
        with pytest.raises(ValueError, match="element dimension mismatch"):
            t.from_coords(v)
    with pytest.raises(ValueError, match="element dimension mismatch"):
        t.coords(triality_algebra("C").basis[0])
    with pytest.raises(ValueError, match="element dimension mismatch"):
        t.coords(triality_algebra("O").basis[0])
    assert t.from_coords(t.coords(t.basis[4])) == t.basis[4]
