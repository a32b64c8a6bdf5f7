"""Every exact bilinear form is bilinear and symmetric on random rational elements.

Basis vectors alone cannot tell a bilinear form from one that ignores the
size of a coefficient, so the elements here are random rational
combinations, and the checks are exact equalities.  The sparse evaluations
equal dense references: `linalg.bilinear` the term-by-term sum of
`tests_helpers`, with zeros stored as fresh `Fraction(0)` objects, and
`CompAlg.qform`, which pairs through the partner of each basis vector,
`bilinear` on the Gram matrix.  A vector whose length does not fit the
matrix is refused.
"""

import pytest
from hypothesis import given, settings, strategies as st

from fractions import Fraction

from magicsquare.compalg import build_split_algebra
from magicsquare.linalg import bilinear, mat_vec
from magicsquare.magic import build_magic_algebra
from magicsquare.triality import triality_algebra
from tests_helpers import k_form, reference_bilinear

RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def _k_form(tag):
    t = triality_algebra(tag)
    return t.dim, lambda x, y: k_form(t, t.from_coords(x), t.from_coords(y))


def _invariant_form(a, b):
    g = build_magic_algebra(a, b)
    return g.dim, g.invariant_form


def _qform(tag):
    alg = build_split_algebra(tag)
    return alg.dim, alg.qform


# name -> (form factory, number of examples); each k_form call on t(O)
# solves two 192-entry coordinate systems, so that case gets few examples.
FORMS = {
    "k_form-C": (lambda: _k_form("C"), 25),
    "k_form-H": (lambda: _k_form("H"), 15),
    "k_form-O": (lambda: _k_form("O"), 3),
    "invariant_form-g(C,H)": (lambda: _invariant_form("C", "H"), 15),
    "invariant_form-g(R,O)": (lambda: _invariant_form("R", "O"), 15),
    "qform-C": (lambda: _qform("C"), 25),
    "qform-H": (lambda: _qform("H"), 25),
    "qform-O": (lambda: _qform("O"), 25),
}


@pytest.mark.parametrize("name", sorted(FORMS))
def test_form_bilinear_and_symmetric(name):
    factory, examples = FORMS[name]
    dim, form = factory()
    vec = st.lists(RATIONALS, min_size=dim, max_size=dim)

    @settings(max_examples=examples, deadline=None)
    @given(vec, vec, vec, RATIONALS, RATIONALS)
    def check(x, x2, y, c, c2):
        combo = [c * p + c2 * q for p, q in zip(x, x2)]
        fxy, fx2y = form(x, y), form(x2, y)
        assert form(combo, y) == c * fxy + c2 * fx2y
        assert form(y, x) == fxy
        assert form(y, combo) == c * fxy + c2 * fx2y

    check()


# Zeros drawn as new Fraction(0) objects, never the shared F0, and as ints.
ZERO_HEAVY = st.one_of(st.builds(Fraction, st.just(0)), st.builds(Fraction, st.just(0)),
                       st.just(0), RATIONALS)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bilinear_matches_dense_reference(data):
    n = data.draw(st.integers(0, 6))
    m = data.draw(st.integers(1, 6))
    gram = data.draw(st.lists(st.lists(ZERO_HEAVY, min_size=m, max_size=m),
                              min_size=n, max_size=n))
    x = data.draw(st.lists(ZERO_HEAVY, min_size=n, max_size=n))
    y = data.draw(st.lists(ZERO_HEAVY, min_size=m, max_size=m))
    assert bilinear(gram, x, y) == reference_bilinear(gram, x, y)


@pytest.mark.parametrize("tag", "RCHO")
def test_qform_is_bilinear_on_the_gram(tag):
    alg = build_split_algebra(tag)
    vec = st.lists(ZERO_HEAVY, min_size=alg.dim, max_size=alg.dim)

    @settings(max_examples=40, deadline=None)
    @given(vec, vec)
    def check(x, y):
        assert alg.qform(x, y) == bilinear(alg.gram, x, y)

    check()


def test_bilinear_and_mat_vec_refuse_a_length_that_does_not_fit():
    gram = [[Fraction(1), Fraction(2), Fraction(0)], [Fraction(0), Fraction(1), Fraction(3)]]
    ok2, ok3 = [Fraction(1)] * 2, [Fraction(1)] * 3
    assert bilinear(gram, ok2, ok3) == 7 and mat_vec(gram, ok3) == [3, 4]
    for x, y in ((ok3, ok3), (ok2, ok2), (ok2, ok3 + [Fraction(1)]), ([], ok3)):
        with pytest.raises(ValueError, match="length"):
            bilinear(gram, x, y)
    for v in (ok2, ok3 + [Fraction(1)], []):
        with pytest.raises(ValueError, match="length"):
            mat_vec(gram, v)
