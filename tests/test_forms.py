"""Every exact bilinear form is bilinear and symmetric on random rational elements.

Basis vectors alone cannot tell a bilinear form from one that ignores the
size of a coefficient, so the elements here are random rational
combinations, and the checks are exact equalities.
"""

import pytest
from hypothesis import given, settings, strategies as st

from magicsquare.compalg import build_split_algebra
from magicsquare.magic import build_magic_algebra
from magicsquare.triality import triality_algebra
from tests_helpers import k_form

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
