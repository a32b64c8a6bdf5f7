import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from magicsquare import magic
from magicsquare.linalg import int_rep_defect_pair
from magicsquare.magic import H_SUBALGEBRA_DIMS, MAGIC_DIMS, build_magic_algebra
from magicsquare.roots import dynkin_type, extract_root_datum
from tests_helpers import (describe_index, fraction_table, fraction_view, full_rank, gram_matrix,
                           reference_invariant_form, reference_jacobi_count, rep_defect_column)

ALL_PAIRS = [(A, B) for A in "RCHO" for B in "RCHO"]


def test_all_sixteen_dimensions():
    for A, B in ALL_PAIRS:
        g = build_magic_algebra(A, B)
        assert g.dim == MAGIC_DIMS[(g.a, g.b)], (A, B)


def test_bracket_grading_rules():
    g = build_magic_algebra("C", "H")
    rng = random.Random(0)
    # [theta_A, u_i @ v_i] = theta_i(u) @ v_i lands in the same slot
    for k in range(g.dA):
        for slot in range(3):
            i = g.idx_tA(k)
            j = g.idx_m(slot, 0, 1)
            sv = g.bracket_basis(i, j)
            lo = g.dA + g.dB + slot * g.a * g.b
            hi = lo + g.a * g.b
            assert all(lo <= t < hi for t in sv)
    # [slot1, slot2] lands in slot3 only
    for p in range(g.a):
        for q in range(g.b):
            sv = g.bracket_basis(g.idx_m(0, p, q), g.idx_m(1, (p + 1) % g.a, q))
            lo = g.dA + g.dB + 2 * g.a * g.b
            assert all(t >= lo for t in sv)


def test_bracket_antisymmetry_sampled():
    # On the Fraction view, and on the stored integer columns, whose mirror
    # is the negated tuple; `bracket` of two basis vectors reads the view.
    g = build_magic_algebra("H", "H")
    tab = fraction_table(g)
    ints = g.table()
    rng = random.Random(1)
    for _ in range(300):
        i, j = rng.randrange(g.dim), rng.randrange(g.dim)
        assert {k: -v for k, v in tab[i].get(j, {}).items()} == tab[j].get(i, {})
        assert tuple((k, -c) for k, c in ints[i].get(j, ())) == ints[j].get(i, ())
        br = tab[i].get(j, {})
        assert g.bracket(g.basis_element(i), g.basis_element(j)) == [
            br.get(k, 0) for k in range(g.dim)]
    x = [Fraction(rng.randint(-2, 2)) for _ in range(g.dim)]
    assert g.bracket(x, x) == g.zero()


def test_jacobi_exhaustive_small():
    for A, B in [("R", "R"), ("R", "C"), ("C", "C"), ("R", "H"), ("C", "H")]:
        g = build_magic_algebra(A, B)
        assert g.jacobi_exhaustive() == 0, (A, B)


def test_jacobi_sampled_large():
    for A, B in [("H", "O"), ("O", "O")]:
        g = build_magic_algebra(A, B)
        assert g.jacobi_sample(20000, seed=7) == 0


def test_jacobi_defect_detects_corruption():
    g = build_magic_algebra("R", "C")
    tab = g.table()
    i, j = g.idx_tB(0), g.idx_m(0, 0, 0)
    saved = tab[i].get(j)
    try:
        tab[i][j] = ((g.idx_m(0, 0, 1), 17),)
        assert g.jacobi_exhaustive() > 0
    finally:
        if saved:
            tab[i][j] = saved
        else:
            tab[i].pop(j, None)
    assert g.jacobi_exhaustive() == 0


def _jacobi_sum_count(g):
    """Triples i<j<k with [[i,j],k] + [[j,k],i] + [[k,i],j] != 0, term by term."""
    tab = fraction_table(g)

    def bracket_with(sv, k):
        out = {}
        for p, c in sv.items():
            for t, v in tab[p].get(k, {}).items():
                out[t] = out.get(t, 0) + c * v
        return out

    bad = 0
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                total = {}
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for t, v in bracket_with(tab[x].get(y, {}), z).items():
                        total[t] = total.get(t, 0) + v
                bad += any(total.values())
    return bad


CC_INDEX = st.integers(0, 15)
# Columns written into the stored integer table of g(C,C), whose D is 2: an
# odd value is a Fraction view entry with denominator 2.
SPARSE_VECTORS = st.dictionaries(CC_INDEX, st.integers(-4, 4).filter(lambda c: c != 0),
                                 max_size=3)
ODD = st.sampled_from([-3, -1, 1, 3])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_jacobi_exhaustive_counts_corrupted_table(data):
    # Jacobi through the representation check counts the same triples as the
    # Jacobi sum on any antisymmetric table, including corrupted ones.
    g = build_magic_algebra("C", "C")
    assert g.dim == 16
    tab = g.table()
    pairs = data.draw(st.lists(st.tuples(CC_INDEX, CC_INDEX).filter(lambda p: p[0] < p[1]),
                               min_size=1, max_size=3, unique=True))
    saved = [(i, j, tab[i].get(j), tab[j].get(i)) for i, j in pairs]
    try:
        for i, j in pairs:
            sv = data.draw(SPARSE_VECTORS)
            for a, b, sign in ((i, j, 1), (j, i, -1)):
                if sv:
                    tab[a][b] = tuple((k, sign * c) for k, c in sv.items())
                else:
                    tab[a].pop(b, None)
        assert g.jacobi_exhaustive() == _jacobi_sum_count(g)
    finally:
        for i, j, sij, sji in saved:
            for a, b, sv in ((i, j, sij), (j, i, sji)):
                if sv is None:
                    tab[a].pop(b, None)
                else:
                    tab[a][b] = sv
    assert g.jacobi_exhaustive() == 0


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_int_kernel_is_the_scaled_fraction_defect(data):
    # On corrupted stored g(C,C) tables, one of whose new entries is odd,
    # the pair kernel's entry (k, s) is D^2 times the Fraction defect of the
    # view, for every i, j and every k > j, and it holds no column k <= j;
    # from first_k = 0 on it does the same for every k.
    g = build_magic_algebra("C", "C")
    n, d = g.dim, g.denominator
    assert d == 2
    tab = g.table()
    pairs = data.draw(st.lists(st.tuples(CC_INDEX, CC_INDEX).filter(lambda p: p[0] < p[1]),
                               min_size=1, max_size=3, unique=True))
    saved = [(i, j, tab[i].get(j), tab[j].get(i)) for i, j in pairs]
    try:
        for m, (i, j) in enumerate(pairs):
            sv = data.draw(SPARSE_VECTORS)
            if m == 0:
                sv[data.draw(CC_INDEX)] = data.draw(ODD)
            for a, b, sign in ((i, j, 1), (j, i, -1)):
                if sv:
                    tab[a][b] = tuple((k, sign * c) for k, c in sv.items())
                else:
                    tab[a].pop(b, None)
        view = fraction_table(g)
        assert any(c.denominator == d for row in view for col in row.values()
                   for c in col.values())
        for i in range(n):
            for j in range(n):
                # The default first column j + 1, and the all-k form the
                # derivation certificate runs, k <= j included.
                for first_k in (None, 0):
                    lo = j + 1 if first_k is None else 0
                    scaled = int_rep_defect_pair(tab, tab[i].get(j, ()), i, j, first_k)
                    assert all(key // n >= lo for key in scaled)
                    for k in range(lo, n):
                        exact = rep_defect_column(view, view[i].get(j, {}), i, j, k)
                        assert ({s: scaled[k * n + s] for s in range(n) if scaled.get(k * n + s)}
                                == {s: d * d * c for s, c in exact.items()})
    finally:
        for i, j, sij, sji in saved:
            for a, b, sv in ((i, j, sij), (j, i, sji)):
                if sv is None:
                    tab[a].pop(b, None)
                else:
                    tab[a][b] = sv


def _sl2_on_binary_forms(n):
    """e, h, f of sl2 as integer column maps on the n + 1 binary forms of
    degree n (h v_k = (n - 2k) v_k, f v_k = v_(k+1), e v_k = k (n - k + 1) v_(k-1)),
    and the bracket table D [b_i, b_j] of sl2 in the same order, D = 1."""
    e = {k: ((k - 1, k * (n - k + 1)),) for k in range(1, n + 1)}
    h = {k: ((k, n - 2 * k),) for k in range(n + 1) if n != 2 * k}
    f = {k: ((k + 1, 1),) for k in range(n)}
    br = {(0, 1): ((0, -2),), (0, 2): ((1, 1),), (1, 2): ((2, -2),)}
    br.update({(j, i): tuple((k, -c) for k, c in col) for (i, j), col in list(br.items())})
    return [e, h, f], br


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 6), d=st.integers(1, 3), change=st.booleans(), data=st.data())
def test_int_kernel_keys_a_module_with_more_rows_than_maps(n, d, change, data):
    # Three maps on n + 1 > 3 forms: entry (k, s) is keyed k (n + 1) + s, so
    # no two entries collide, and every column is D^2 times the Fraction
    # defect, nonzero somewhere iff one entry was changed.
    maps, br = _sl2_on_binary_forms(n)
    rows = [{j: tuple((k, d * c) for k, c in col) for j, col in m.items()} for m in maps]
    if change:
        t = data.draw(st.integers(0, 2))
        j = data.draw(st.sampled_from(sorted(rows[t])))
        (k, c), = rows[t][j]
        rows[t][j] = ((k, c + data.draw(st.sampled_from([-1, 1]))),)
    view = fraction_view(rows, d)
    dim = n + 1
    nonzero = False
    for i in range(3):
        for j in range(3):
            col = tuple((k, d * c) for k, c in br.get((i, j), ()))
            scaled = int_rep_defect_pair(rows, col, i, j, 0, dim)
            exact_br = {k: Fraction(c) for k, c in br.get((i, j), ())}
            for k in range(dim):
                exact = rep_defect_column(view, exact_br, i, j, k)
                assert ({s: scaled[k * dim + s] for s in range(dim) if scaled.get(k * dim + s)}
                        == {s: d * d * x for s, x in exact.items()})
                nonzero = nonzero or bool(exact)
            assert all(0 <= key < dim * dim for key in scaled)
    assert nonzero == change


def _corrupt_one_sided(tab, edits):
    """Set the stored column tab[a][b] to the integer entries sv for each
    (a, b, sv), leaving tab[b][a] alone; returns the undo list."""
    saved = [(a, b, tab[a].get(b)) for a, b, _ in edits]
    for a, b, sv in edits:
        if sv:
            tab[a][b] = tuple(sv.items())
        else:
            tab[a].pop(b, None)
    return saved


def _restore(tab, saved):
    for a, b, sv in reversed(saved):
        if sv is None:
            tab[a].pop(b, None)
        else:
            tab[a][b] = sv


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pair_kernel_counts_one_sided_corruptions(data):
    # Each edit sets [b_a, b_b] alone, so the table stops being antisymmetric;
    # the first two edits carry odd values (denominator D = 2 in the view).
    # The pair kernel counts the same triples i<j<k as the per-triple
    # reference.
    g = build_magic_algebra("C", "C")
    tab = g.table()
    cells = data.draw(st.lists(st.tuples(CC_INDEX, CC_INDEX), min_size=2, max_size=4, unique=True))
    edits = []
    for m, (a, b) in enumerate(cells):
        sv = data.draw(SPARSE_VECTORS)
        if m < 2:
            sv[data.draw(CC_INDEX)] = data.draw(ODD)
        edits.append((a, b, sv))
    saved = _corrupt_one_sided(tab, edits)
    try:
        assert g.jacobi_exhaustive() == reference_jacobi_count(g)
    finally:
        _restore(tab, saved)
    assert g.jacobi_exhaustive() == 0


def test_pair_kernel_counts_corrupted_g_ro():
    # g(R,O) = f4 (dim 52, D = 2): one-sided edits of the stored integer
    # columns, two with odd values (denominator 2 in the view), one on a pair
    # whose bracket was zero, one on the diagonal and one that deletes a
    # nonzero bracket.
    g = build_magic_algebra("R", "O")
    assert g.dim == 52 and g.denominator == 2
    tab = g.table()
    x = g.idx_m(0, 0, 1)
    y = g.idx_m(1, 0, 3)
    edits = [
        (g.idx_tB(0), x, {g.idx_m(0, 0, 2): 1, g.idx_m(0, 0, 5): -6}),
        (x, y, {g.idx_tB(3): 3}),
        (y, y, {g.idx_m(2, 0, 4): 2}),
        (g.idx_tB(1), g.idx_tB(5), {}),
    ]
    assert tab[g.idx_tB(1)].get(g.idx_tB(5)) and y not in tab[x] and y not in tab[y]
    saved = _corrupt_one_sided(tab, edits)
    try:
        count = g.jacobi_exhaustive()
        assert count > 0
        assert count == reference_jacobi_count(g)
    finally:
        _restore(tab, saved)
    assert g.jacobi_exhaustive() == 0


def _corrupt(tab, data, antisymmetric):
    """Edit the stored g(C,C) table as the tests above do: set [b_i, b_j] and
    [b_j, b_i] = -[b_i, b_j] on pairs i < j, or set single cells [b_a, b_b]
    alone; the first two edits carry odd values.  Returns the undo list of
    `_restore`."""
    cell = st.tuples(CC_INDEX, CC_INDEX)
    if antisymmetric:
        cell = cell.filter(lambda p: p[0] < p[1])
    cells = data.draw(st.lists(cell, min_size=2, max_size=3 if antisymmetric else 4,
                               unique=True))
    edits = []
    for m, (a, b) in enumerate(cells):
        sv = data.draw(SPARSE_VECTORS)
        if m < 2:
            sv[data.draw(CC_INDEX)] = data.draw(ODD)
        edits.append((a, b, sv))
        if antisymmetric:
            edits.append((b, a, {k: -c for k, c in sv.items()}))
    return _corrupt_one_sided(tab, edits)


@settings(max_examples=40, deadline=None)
@given(antisymmetric=st.booleans(), data=st.data())
def test_jacobi_certificate_on_corrupted_tables(antisymmetric, data):
    # The lemma of jacobi_exhaustive: a certificate that holds leaves no
    # failing triple, with or without antisymmetry.  On an antisymmetric table
    # the Jacobi sum is alternating, so no failing triple i<j<k means every
    # defect vanishes and the certificate must hold.
    g = build_magic_algebra("C", "C")
    tab = g.table()
    saved = _corrupt(tab, data, antisymmetric)
    try:
        certified = g.jacobi_certificate()
        count = reference_jacobi_count(g)
        if certified:
            assert count == 0
        if antisymmetric:
            assert certified == (count == 0)
        assert g.jacobi_exhaustive() == count
    finally:
        _restore(tab, saved)
    assert g.jacobi_certificate()


def _stored_pair(tab):
    """A stored column (i, j), i < j, of the g(C,C) table."""
    return next((i, j) for i, row in enumerate(tab) for j in row if i < j)


@pytest.mark.parametrize("kind", ["one-sided", "diagonal", "mirror-missing"])
def test_alternating_pass_refuses_a_table_that_is_not(kind):
    # The certificate halves its columns only on a table proved alternating;
    # each corruption breaks that, so the certificate fails and the count,
    # which assumes no antisymmetry, runs on the corrupted table.
    g = build_magic_algebra("C", "C")
    tab = g.table()
    i, j = _stored_pair(tab)
    if kind == "one-sided":
        edits = [(i, j, {k: 3 * c for k, c in tab[i][j]})]
    elif kind == "diagonal":
        edits = [(i, i, {j: 1})]
    else:
        edits = [(j, i, {})]
    saved = _corrupt_one_sided(tab, edits)
    try:
        assert not g.jacobi_certificate()
        assert g.jacobi_exhaustive() == reference_jacobi_count(g)
    finally:
        _restore(tab, saved)
    assert g.jacobi_certificate()


P = 2 ** 31 - 1


def _closure_rank_mod_p(g, gens):
    """Rank mod the prime P of the closure of gens under their ad, by breadth
    first search.  Full rank proves the closure over Q is g: every vector is
    the reduction of a vector of that closure with denominators prime to P."""
    tab = [{j: {k: c.numerator * pow(c.denominator, -1, P) % P for k, c in col.items()}
            for j, col in row.items()} for row in fraction_table(g)]
    pivots = {}

    def independent(v):
        v = dict(v)
        while v:
            lead = min(v)
            if lead not in pivots:
                inv = pow(v[lead], -1, P)
                pivots[lead] = {k: c * inv % P for k, c in v.items()}
                return True
            f = v[lead]
            for k, c in pivots[lead].items():
                x = (v.get(k, 0) - f * c) % P
                if x:
                    v[k] = x
                else:
                    v.pop(k, None)
        return False

    queue = [{s: 1} for s in gens if independent({s: 1})]
    while queue and len(pivots) < g.dim:
        v = queue.pop(0)
        for s in gens:
            w = {}
            for j, x in v.items():
                for k, c in tab[s].get(j, {}).items():
                    w[k] = (w.get(k, 0) + x * c) % P
            w = {k: c for k, c in w.items() if c}
            if independent(w):
                queue.append(w)
    return len(pivots)


@pytest.mark.parametrize("A,B", ALL_PAIRS)
def test_jacobi_certificate_holds_on_every_algebra(A, B, monkeypatch):
    # The greedy generators close up to g, each ad s is a derivation, and so
    # the triple count never runs on a correct table: every pair-kernel call
    # of jacobi_exhaustive is a certificate one, on the columns k > j of one
    # generator i and one row j, one call per generator and row.  The simple
    # root vectors and the lowest-root vector come first, so a simple g takes
    # rank + 1 of them (the affine Chevalley generators e_0, ..., e_r).
    g = build_magic_algebra(A, B)
    gens = g.jacobi_generators()
    assert len(set(gens)) == len(gens)
    assert _closure_rank_mod_p(g, gens) == g.dim
    if (A, B) == ("O", "O"):
        assert len(gens) == 9
    if (A, B) != ("R", "R"):
        rd = extract_root_datum(g)
        if "x" not in dynkin_type(rd):
            assert len(gens) == rd.rank + 1
    assert g.jacobi_certificate()
    calls = []

    def kernel(rows, br, i, j, first_k=None):
        out = int_rep_defect_pair(rows, br, i, j, first_k)
        calls.append((i, j, first_k, all(key // len(rows) > j for key in out)))
        return out

    monkeypatch.setattr(magic, "int_rep_defect_pair", kernel)
    assert g.jacobi_exhaustive() == 0
    assert len(calls) == len(gens) * g.dim
    assert {(i, j) for i, j, _, _ in calls} == {(s, y) for s in gens for y in range(g.dim)}
    assert all(first_k is None and above for _, _, first_k, above in calls)


@pytest.mark.parametrize("A,B", ALL_PAIRS)
def test_table_stores_no_zeros(A, B):
    # Every stored value is a nonzero int, and column (j, i) negates (i, j).
    tab = build_magic_algebra(A, B).table()
    for i, row in enumerate(tab):
        assert all(col and all(type(c) is int and c != 0 for _, c in col) for col in row.values())
        for j, col in row.items():
            assert tab[j][i] == tuple((k, -c) for k, c in col)


# D by rows A = R, C, H, O and columns B = R, C, H, O.
DENOMINATORS = {"R": (1, 1, 1, 2), "C": (1, 2, 2, 4), "H": (1, 2, 2, 4), "O": (2, 4, 4, 4)}


@pytest.mark.parametrize("A,B", ALL_PAIRS)
def test_table_denominator_is_the_least_common_one(A, B):
    g = build_magic_algebra(A, B)
    d = g.denominator
    assert d == DENOMINATORS[A]["RCHO".index(B)]
    # The view's entries have lcm D: no smaller scale makes them integers.
    dens = {c.denominator for row in fraction_table(g) for col in row.values()
            for c in col.values()}
    assert lcm(*dens) == d


def test_invariant_form_symmetric_and_invariant():
    g = build_magic_algebra("H", "O")
    rng = random.Random(2)
    for _ in range(200):
        z, x, y = (g.basis_element(rng.randrange(g.dim)) for _ in range(3))
        assert g.invariant_form(x, y) == g.invariant_form(y, x)
        zx, zy = g.bracket(z, x), g.bracket(z, y)
        assert g.invariant_form(zx, y) + g.invariant_form(x, zy) == 0


@pytest.mark.parametrize("A,B", [("R", "R"), ("C", "H"), ("R", "O"), ("O", "O")])
def test_invariant_form_matches_the_dense_reference(A, B):
    # K over its nonzero entries, on dense and on sparse input, against the
    # block-by-block sum of `tests_helpers`, on random sparse elements.
    g = build_magic_algebra(A, B)
    rng = random.Random(3)
    for _ in range(40):
        x, y = ({rng.randrange(g.dim): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(rng.randint(0, 12))} for _ in range(2))
        dx, dy = ([v.get(k, Fraction(0)) for k in range(g.dim)] for v in (x, y))
        expected = reference_invariant_form(g, dx, dy)
        assert g.invariant_form(dx, dy) == expected
        assert g.invariant_form_sparse(x, y) == expected


def test_invariant_form_sparse_refuses_an_index_outside_the_basis():
    g = build_magic_algebra("R", "C")
    assert g.invariant_form_sparse({0: Fraction(1)}, {g.dim - 1: Fraction(1)}) is not None
    for x, y in (({-1: Fraction(1)}, {}), ({}, {g.dim: Fraction(1)})):
        with pytest.raises(IndexError, match="out of range"):
            g.invariant_form_sparse(x, y)


def test_invariant_form_nondegenerate_ch():
    g = build_magic_algebra("C", "H")
    assert full_rank(gram_matrix(g))


def test_h_subalgebras():
    for A, B in ALL_PAIRS:
        g = build_magic_algebra(A, B)
        for slot in range(3):
            assert g.h_subalgebra_closed(slot), (A, B, slot)
        expected = H_SUBALGEBRA_DIMS.get((g.a, g.b))
        if expected is not None:
            assert len(g.h_subalgebra_indices(0)) == expected


def test_h_subalgebra_refuses_a_slot_outside_0_1_2():
    # Slot -1 used to wrap to 2, and slot 3 to raise a bare IndexError.
    g = build_magic_algebra("C", "H")
    for slot in (-1, 3):
        for method in (g.h_subalgebra_indices, g.h_subalgebra_closed):
            with pytest.raises(ValueError, match="slot must be 0, 1 or 2"):
                method(slot)


def test_negative_indices_and_counts_are_refused():
    g = build_magic_algebra("R", "C")
    assert g.basis_element(g.dim - 1)[-1] == 1
    for i in (-1, g.dim):
        with pytest.raises(IndexError, match="out of range"):
            g.basis_element(i)
    assert g.jacobi_sample(0) == 0
    with pytest.raises(ValueError, match="count must be >= 0"):
        g.jacobi_sample(-1)


def test_center_trivial():
    for A, B in ALL_PAIRS:
        g = build_magic_algebra(A, B)
        assert g.center_dim() == 0, (A, B)


def test_center_dim_counts_a_basis_vector_with_no_brackets():
    # Clearing b_0's row and column of g(C,C) makes b_0 central, and nothing else.
    g = build_magic_algebra("C", "C")
    tab = g.table()
    saved = [dict(row) for row in tab]
    try:
        tab[0].clear()
        for row in tab:
            row.pop(0, None)
        assert g.center_dim() == 1
    finally:
        for row, old in zip(tab, saved):
            row.clear()
            row.update(old)
    assert g.center_dim() == 0


def test_jacobi_sample_counts_failing_triples_on_a_corrupted_table():
    # Tripling [b_a, b_b] wherever a + b is a multiple of 3 breaks Jacobi on
    # some of the sampled triples of g(C,C).
    g = build_magic_algebra("C", "C")
    tab = g.table()
    saved = [(a, b, col) for a in range(g.dim) for b, col in tab[a].items() if (a + b) % 3 == 0]
    try:
        for a, b, col in saved:
            tab[a][b] = tuple((k, 3 * c) for k, c in col)
        assert 0 < g.jacobi_sample(100, seed=0) <= 100
    finally:
        for a, b, col in saved:
            tab[a][b] = col
    assert g.jacobi_sample(100, seed=0) == 0


def test_g_rr_is_the_rotation_algebra():
    g = build_magic_algebra("R", "R")
    assert g.dim == 3
    assert g.bracket_basis(0, 1) == {2: Fraction(1)}
    assert g.bracket_basis(1, 2) == {0: Fraction(1)}
    assert g.bracket_basis(2, 0) == {1: Fraction(1)}


def test_bracket_basis_refuses_an_index_outside_the_basis():
    g = build_magic_algebra("R", "C")
    assert g.bracket_basis(g.dim - 1, 0) == fraction_table(g)[g.dim - 1].get(0, {})
    for i, j in ((-1, 0), (0, -1), (g.dim, 0), (0, g.dim)):
        with pytest.raises(IndexError, match="out of range"):
            g.bracket_basis(i, j)


def test_jacobi_defect_basis_refuses_an_index_outside_the_basis():
    g = build_magic_algebra("R", "C")
    assert g.jacobi_defect_basis(g.dim - 1, 0, 1) == {}
    for triple in ((-1, 0, 1), (0, -1, 1), (0, 1, -1), (g.dim, 0, 1), (0, 1, g.dim)):
        with pytest.raises(IndexError, match="out of range"):
            g.jacobi_defect_basis(*triple)


def test_magic_element_roundtrip():
    g = build_magic_algebra("R", "C")
    names = [describe_index(g, i) for i in range(g.dim)]
    assert names[0].startswith("tB") or names[0].startswith("tA") or names[0].startswith("m")
    assert len(set(names)) == g.dim


def test_operations_reject_wrong_length():
    g = build_magic_algebra("C", "C")
    e = g.basis_element(5)
    for bad in ([Fraction(1)], e + [Fraction(1)]):
        for x, y in ((bad, e), (e, bad)):
            with pytest.raises(ValueError, match="element dimension mismatch"):
                g.bracket(x, y)
            with pytest.raises(ValueError, match="element dimension mismatch"):
                g.invariant_form(x, y)
