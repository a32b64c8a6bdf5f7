import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st
from tests_helpers import (dense_action, fraction_view, full_rank, omega_pair, reference_cubic,
                           reference_symplectic_gram, rep_defect_column)

from magicsquare.modules import (
    GModule,
    build_V_module,
    build_W_module,
    cubic_invariance_defect,
    symplectic_invariance_defect,
)


def _vector(rng, n):
    return [Fraction(rng.randint(-2, 2)) for _ in range(n)]


@pytest.mark.parametrize("tag,a", [("R", 1), ("C", 2), ("H", 4), ("O", 8)])
def test_V_dimensions(tag, a):
    assert build_V_module(tag).dimension == 6 * a + 8


@pytest.mark.parametrize("tag,a", [("R", 1), ("C", 2), ("H", 4), ("O", 8)])
def test_W_dimensions(tag, a):
    assert build_W_module(tag).dimension == 3 * a + 3


@pytest.mark.parametrize("tag", ["R", "C", "H", "O"])
def test_V_representation_axiom_exhaustive_small(tag):
    mod = build_V_module(tag)
    g = mod.parent
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            assert not mod.representation_defect(i, j)


@pytest.mark.parametrize("tag", ["H", "O"])
def test_V_representation_axiom_sampled(tag):
    mod = build_V_module(tag)
    g = mod.parent
    rng = random.Random(11)
    for _ in range(200):
        assert not mod.representation_defect(rng.randrange(g.dim), rng.randrange(g.dim))


@pytest.mark.parametrize("tag", ["R", "C", "H", "O"])
def test_W_representation_axiom_exhaustive_small(tag):
    mod = build_W_module(tag)
    g = mod.parent
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            assert not mod.representation_defect(i, j)


@pytest.mark.parametrize("tag", ["H", "O"])
def test_W_representation_axiom_sampled(tag):
    mod = build_W_module(tag)
    g = mod.parent
    rng = random.Random(13)
    for _ in range(200):
        assert not mod.representation_defect(rng.randrange(g.dim), rng.randrange(g.dim))


@pytest.mark.parametrize("tag", ["R", "C", "H", "O"])
def test_symplectic_form(tag):
    mod = build_V_module(tag)
    g = mod.parent
    n = mod.dimension
    gram = mod.form_data
    assert all(gram[r][c] == -gram[c][r] for r in range(n) for c in range(n))
    assert full_rank(gram)
    rng = random.Random(17)
    exhaustive = tag in ("R", "C")
    samples = range(g.dim) if exhaustive else [rng.randrange(g.dim) for _ in range(60)]
    for x in samples:
        for _ in range(4 if exhaustive else 3):
            v = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            w = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            xv = mod.act_basis(x, v)
            xw = mod.act_basis(x, w)
            assert omega_pair(mod, xv, w) + omega_pair(mod, v, xw) == 0


@pytest.mark.parametrize("tag", ["C", "O"])
def test_symplectic_invariance_defect_is_the_dense_pairing(tag):
    # The check visits the nonzero Gram entries only; with one action entry
    # changed its defects are nonzero, and they equal the dense pairing's.
    mod = build_V_module(tag)
    n = mod.dimension
    gram = mod.form_data
    assert mod.form_entries == {(r, c): x for r in range(n) for c, x in enumerate(gram[r])
                                if x != 0}
    assert gram == reference_symplectic_gram(mod)
    rng = random.Random(23)
    t = rng.randrange(mod.parent.dim)
    j, col = next(iter(mod.actions[t].items()))
    mod.actions[t][j] = _bump_first_entry(col)
    try:
        defects = []
        for _ in range(20):
            x = rng.choice([t, rng.randrange(mod.parent.dim)])
            v = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            w = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            xv, xw = mod.act_basis(x, v), mod.act_basis(x, w)
            defects.append(symplectic_invariance_defect(mod, x, v, w))
            assert defects[-1] == omega_pair(mod, xv, w) + omega_pair(mod, v, xw)
        assert any(defects)
    finally:
        mod.actions[t][j] = col


@pytest.mark.parametrize("tag", ["R", "C", "H", "O"])
def test_cubic_form(tag):
    mod = build_W_module(tag)
    g = mod.parent
    n = mod.dimension
    rng = random.Random(19)
    exhaustive = tag in ("R", "C")
    samples = range(g.dim) if exhaustive else [rng.randrange(g.dim) for _ in range(60)]
    bad = 0
    for x in samples:
        for _ in range(4 if exhaustive else 3):
            v = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            if cubic_invariance_defect(mod, x, v) != 0:
                bad += 1
    assert bad == 0
    ones = [Fraction(1)] * n
    assert mod.form_value(ones, ones, ones) == reference_cubic(mod, ones, ones, ones) != 0


@pytest.mark.parametrize("tag,a,cubic_entries", [("R", 1, 5), ("C", 2, 9), ("H", 4, 21),
                                                 ("O", 8, 57)])
def test_form_entries_are_the_nonzero_coefficients(tag, a, cubic_entries):
    # V: 6a entries on the A_s @ U_s pairs and 8 on UUU.  W: the line
    # monomial, one per nonzero e_p e_q and 3a for the x_s Q(X_s, X_s).
    for mod, count, arity in ((build_V_module(tag), 6 * a + 8, 2),
                              (build_W_module(tag), cubic_entries, 3)):
        assert len(mod.form_entries) == count
        assert all(len(key) == arity and c != 0 for key, c in mod.form_entries.items())


@pytest.mark.parametrize("tag", ["R", "C", "H", "O"])
def test_symmetrized_form_value_is_the_reference_cubic(tag):
    mod = build_W_module(tag)
    rng = random.Random(29)
    for _ in range(30):
        u, v, w = (_vector(rng, mod.dimension) for _ in range(3))
        if u == v or v == w or u == w:
            continue
        sym = sum(mod.form_value(*p) for p in permutations((u, v, w))) / 6
        assert sym == reference_cubic(mod, u, v, w)


@pytest.mark.parametrize("tag", ["C", "O"])
def test_cubic_invariance_defect_is_the_reference_cubic(tag):
    # With one action entry changed the defects are nonzero, and they equal
    # the polarization C~(x.v, v, v) of the reference cubic.
    mod = build_W_module(tag)
    n = mod.dimension
    rng = random.Random(37)
    t = rng.randrange(mod.parent.dim)
    j, col = next(iter(mod.actions[t].items()))
    mod.actions[t][j] = _bump_first_entry(col)
    try:
        defects = []
        for _ in range(20):
            x = rng.choice([t, rng.randrange(mod.parent.dim)])
            v = _vector(rng, n)
            defects.append(cubic_invariance_defect(mod, x, v))
            assert defects[-1] == reference_cubic(mod, mod.act_basis(x, v), v, v)
        assert any(defects)
    finally:
        mod.actions[t][j] = col


def test_invariance_defects_refuse_the_other_form_kind():
    v, w = build_V_module("C"), build_W_module("C")
    vv, wv = [Fraction(1)] * v.dimension, [Fraction(1)] * w.dimension
    with pytest.raises(ValueError, match="cubic form, not a symplectic"):
        symplectic_invariance_defect(w, 0, wv, wv)
    with pytest.raises(ValueError, match="symplectic form, not a cubic"):
        cubic_invariance_defect(v, 0, vv)
    with pytest.raises(ValueError, match="cubic form has no Gram"):
        w.form_data


def test_form_value_refuses_the_wrong_vectors():
    w = build_W_module("C")
    ones = [Fraction(1)] * w.dimension
    with pytest.raises(ValueError, match="cubic form takes 3 vectors"):
        w.form_value(ones, ones)
    with pytest.raises(ValueError, match="element dimension mismatch"):
        w.form_value(ones, ones, ones[1:])


def test_module_refuses_form_entries_of_mixed_arity():
    w = build_W_module("R")
    for entries in ({}, {(0, 1): Fraction(1), (0, 1, 2): Fraction(1)}, {(0,): Fraction(1)}):
        with pytest.raises(ValueError, match="all pairs or all triples"):
            GModule(w.parent, w.dimension, w.actions, w.denominator, entries)


def test_module_refuses_a_denominator_the_parent_does_not_divide():
    w = build_W_module("C")
    assert w.parent.denominator == 2
    with pytest.raises(ValueError, match="not a multiple of the parent's"):
        GModule(w.parent, w.dimension, w.actions, 3, w.form_entries)


def test_form_kinds():
    assert build_V_module("C").form_kind == "symplectic"
    assert build_W_module("C").form_kind == "cubic"


@pytest.mark.parametrize("build", [build_V_module, build_W_module])
@pytest.mark.parametrize("tag", ["R", "C", "H", "O"])
def test_actions_store_no_zeros(build, tag):
    for m in build(tag).actions:
        assert all(col and all(type(c) is int and c != 0 for _, c in col) for col in m.values())


@pytest.mark.parametrize("build,dens", [(build_V_module, (2, 2, 2, 4)),
                                        (build_W_module, (3, 6, 6, 12))])
def test_action_denominator_is_the_least_common_one(build, dens):
    # D is the least common multiple of the parent's D_g and the
    # denominators of the rho(b_i) entries, read back from the integers.
    for tag, d in zip("RCHO", dens):
        mod = build(tag)
        assert mod.denominator == d
        view = fraction_view(mod.actions, d)
        assert d == lcm(mod.parent.denominator,
                        *(x.denominator for m in view for col in m.values() for x in col.values()))


@pytest.mark.parametrize("build", [build_V_module, build_W_module])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_representation_defect_detects_a_changed_entry(build, data):
    # g(R,H) = sp6 and g(R,C) = sl3 are simple with no subalgebra of
    # codimension 1, so changing one entry of one action always breaks
    # the representation axiom on some basis pair.
    mod = build("R")
    n = mod.parent.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    t, j, col = _change_one_entry(mod, data)
    try:
        assert any(mod.representation_defect(i, k) for i, k in pairs)
    finally:
        mod.actions[t][j] = col
    assert not any(mod.representation_defect(i, k) for i, k in pairs)


@pytest.mark.parametrize("build", [build_V_module, build_W_module])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_representation_defect_is_the_fraction_reference(build, data):
    # With one integer entry changed, the table's kernel on D rho and
    # D [b_i, b_j] flags exactly the ordered pairs whose Fraction defect
    # has a nonzero column.
    mod = build("R")
    g = mod.parent
    t, j, col = _change_one_entry(mod, data)
    try:
        view = fraction_view(mod.actions, mod.denominator)
        flagged = 0
        for i in range(g.dim):
            for k in range(g.dim):
                br = g.bracket_basis(i, k)
                exact = any(rep_defect_column(view, br, i, k, c) for c in range(mod.dimension))
                assert mod.representation_defect(i, k) == exact
                flagged += exact
        assert flagged
    finally:
        mod.actions[t][j] = col


def _bump_first_entry(col):
    """The integer column col with 1 added to its first entry."""
    (r, old), *rest = col
    return ((r, old + 1), *rest)


def _change_one_entry(mod, data):
    """Set one drawn entry of one action to another nonzero integer; returns
    (t, j, the old column) to restore mod.actions[t][j]."""
    entries = [(t, j, pos) for t, m in enumerate(mod.actions) for j, col in m.items()
               for pos in range(len(col))]
    t, j, pos = data.draw(st.sampled_from(entries))
    col = mod.actions[t][j]
    r, old = col[pos]
    new = data.draw(st.integers(-6, 6).filter(lambda x: x not in (0, old)))
    mod.actions[t][j] = col[:pos] + ((r, new),) + col[pos + 1:]
    return t, j, col


def test_act_basis_rejects_wrong_length():
    w = build_W_module("C")
    for bad in ([Fraction(1)], [Fraction(1)] * (w.dimension + 2)):
        with pytest.raises(ValueError, match="element dimension mismatch"):
            w.act_basis(0, bad)


def test_act_basis_refuses_an_index_outside_the_parent_basis():
    w = build_W_module("C")
    v = [Fraction(1)] * w.dimension
    assert w.act_basis(w.parent.dim - 1, v) is not None
    for i in (-1, w.parent.dim):
        with pytest.raises(IndexError, match="out of range"):
            w.act_basis(i, v)


def test_representation_defect_refuses_an_index_outside_the_parent_basis():
    w = build_W_module("C")
    n = w.parent.dim
    assert not w.representation_defect(n - 1, 0)
    for i, j in ((-1, 0), (0, -1), (n, 0), (0, n)):
        with pytest.raises(IndexError, match="out of range"):
            w.representation_defect(i, j)


def test_act_basis_divides_by_the_denominator():
    # rho(b_i) e_j read back through act_basis is the stored column over D.
    for mod in (build_V_module("O"), build_W_module("O")):
        for i in (0, mod.parent.dim // 2, mod.parent.dim - 1):
            for j, col in mod.actions[i].items():
                e = [Fraction(0)] * mod.dimension
                e[j] = Fraction(1)
                image = mod.act_basis(i, e)
                assert {r: x for r, x in enumerate(image) if x} == {
                    r: Fraction(c, mod.denominator) for r, c in col}


def _rational_vector(rng, n):
    """Entries over 2, 3 and 4 by position, numerators prime to 6, some zero."""
    return [Fraction(rng.choice((-5, -1, 0, 1, 7)), (2, 3, 4)[i % 3]) for i in range(n)]


@pytest.mark.parametrize("tag", ["C", "O"])
def test_invariance_defects_on_rational_vectors(tag):
    # Vectors over 2, 3 and 4, scaled to integers inside the checks, against
    # the dense Fraction references: the Gram pairing for V, the reference
    # cubic for W, the action applied as a dense Fraction matrix.  One
    # action entry is changed, so that some defects are nonzero.
    rng = random.Random(41)
    for mod in (build_V_module(tag), build_W_module(tag)):
        n = mod.dimension
        t = rng.randrange(mod.parent.dim)
        j, col = next(iter(mod.actions[t].items()))
        mod.actions[t][j] = _bump_first_entry(col)
        try:
            defects = []
            for _ in range(20):
                x = rng.choice([t, rng.randrange(mod.parent.dim)])
                v, w = _rational_vector(rng, n), _rational_vector(rng, n)
                assert {c.denominator for c in v + w if c} == {2, 3, 4}
                if mod.form_kind == "symplectic":
                    defects.append(symplectic_invariance_defect(mod, x, v, w))
                    expected = (omega_pair(mod, dense_action(mod, x, v), w)
                                + omega_pair(mod, v, dense_action(mod, x, w)))
                    assert mod.form_value(v, w) == omega_pair(mod, v, w)
                else:
                    defects.append(cubic_invariance_defect(mod, x, v))
                    expected = reference_cubic(mod, dense_action(mod, x, v), v, v)
                    assert mod.form_value(v, v, v) == reference_cubic(mod, v, v, v)
                assert defects[-1] == expected
            assert any(defects) and not all(defects)
        finally:
            mod.actions[t][j] = col
