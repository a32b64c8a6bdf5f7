import random
from fractions import Fraction

import pytest

from magicsquare.compalg import TAGS, AlgebraTag, CompAlg, build_split_algebra, parse_tag
from magicsquare.linalg import mat_mul, transpose
from magicsquare.magic import build_magic_algebra
from magicsquare.roots import datum_for, triality_datum
from magicsquare.triality import psi, triality_algebra
from tests_helpers import is_associative_triple, satisfies_triality


def rand_elt(rng, n, lo=-3, hi=3):
    return [Fraction(rng.randint(lo, hi)) for _ in range(n)]


@pytest.fixture(scope="module", params=list("RCHO"))
def alg(request):
    return build_split_algebra(request.param)


def test_tags():
    assert [TAGS[t].dim for t in "RCHO"] == [1, 2, 4, 8]
    with pytest.raises(ValueError):
        parse_tag("X")


# Each cached constructor, its tag argument in each slot; the other slot holds C.
CONSTRUCTORS = {
    "build_split_algebra": build_split_algebra,
    "triality_algebra": triality_algebra,
    "build_magic_algebra(x, C)": lambda x: build_magic_algebra(x, "C"),
    "build_magic_algebra(C, x)": lambda x: build_magic_algebra("C", x),
    "triality_datum": triality_datum,
    "datum_for(x, C)": lambda x: datum_for(x, "C"),
    "datum_for(C, x)": lambda x: datum_for("C", x),
}


@pytest.mark.parametrize("tag", "OH")
@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_cached_constructors_read_every_spelling_of_a_tag(name, tag):
    make = CONSTRUCTORS[name]
    spellings = [tag.lower(), f" {tag} ", TAGS[tag], build_split_algebra(tag)]
    assert all(make(x) is make(tag) for x in spellings)
    for bad in (8, None, "X", AlgebraTag("O", 4)):
        with pytest.raises(ValueError, match="unknown composition algebra tag"):
            make(bad)


def test_unit_and_conjugation(alg):
    n = alg.dim
    for i in range(n):
        e = alg.basis_element(i)
        assert alg.multiply(alg.unit, e) == e
        assert alg.multiply(e, alg.unit) == e
    assert alg.conjugate(alg.unit) == alg.unit
    assert alg.qform(alg.unit, alg.unit) == 1


def test_products_are_single_terms(alg):
    for row in alg.ctable:
        for sv in row:
            assert len(sv) <= 1
            for c in sv.values():
                assert abs(c) == 1


def test_composition_law_exhaustive_on_basis(alg):
    n = alg.dim
    for i in range(n):
        for j in range(n):
            x, y = alg.basis_element(i), alg.basis_element(j)
            xy = alg.multiply(x, y)
            assert alg.qform(xy, xy) == alg.qform(x, x) * alg.qform(y, y)


def test_composition_law_random(alg):
    rng = random.Random(1)
    for _ in range(200):
        x, y = rand_elt(rng, alg.dim), rand_elt(rng, alg.dim)
        xy = alg.multiply(x, y)
        assert alg.qform(xy, xy) == alg.qform(x, x) * alg.qform(y, y)


def test_norm_via_conjugation(alg):
    rng = random.Random(2)
    for _ in range(50):
        x = rand_elt(rng, alg.dim)
        xxbar = alg.multiply(x, alg.conjugate(x))
        assert xxbar == [alg.qform(x, x) * c for c in alg.unit]


def test_moufang_adjacent_identities(alg):
    rng = random.Random(3)
    for _ in range(40):
        x, y = rand_elt(rng, alg.dim), rand_elt(rng, alg.dim)
        q = alg.qform(x, x)
        assert alg.multiply(alg.conjugate(x), alg.multiply(x, y)) == [q * c for c in y]
        assert alg.multiply(alg.multiply(y, x), alg.conjugate(x)) == [q * c for c in y]


def test_conjugation_anti_automorphism(alg):
    rng = random.Random(4)
    for _ in range(40):
        x, y = rand_elt(rng, alg.dim), rand_elt(rng, alg.dim)
        assert alg.conjugate(alg.conjugate(x)) == x
        assert alg.conjugate(alg.multiply(x, y)) == \
            alg.multiply(alg.conjugate(y), alg.conjugate(x))


def test_associativity_profile():
    rng = random.Random(5)
    for tag in "RCH":
        a = build_split_algebra(tag)
        for _ in range(30):
            x, y, z = (rand_elt(rng, a.dim) for _ in range(3))
            assert is_associative_triple(a, x, y, z), tag
    o = build_split_algebra("O")
    witness = False
    for _ in range(200):
        x, y, z = (rand_elt(rng, 8) for _ in range(3))
        if not is_associative_triple(o, x, y, z):
            witness = True
            break
    assert witness, "octonions unexpectedly associative"


def test_gram_is_hyperbolic_paired(alg):
    n = alg.dim
    for i in range(n):
        nz = [j for j in range(n) if alg.gram[i][j] != 0]
        assert len(nz) == 1
        assert alg.partner[alg.partner[i]] == i


def dense(alg, sv):
    return [sv.get(k, Fraction(0)) for k in range(alg.dim)]


def test_slot_product_matches_multiply_and_conjugate(alg):
    # e_p in slot s times e_q in slot s+1: e_p e_q, e_q conj(e_p), conj(e_q) e_p.
    mul, conj, e = alg.multiply, alg.conjugate, alg.basis_element
    rules = (lambda p, q: mul(e(p), e(q)),
             lambda p, q: mul(e(q), conj(e(p))),
             lambda p, q: mul(conj(e(q)), e(p)))
    for s, rule in enumerate(rules):
        for p in range(alg.dim):
            for q in range(alg.dim):
                sv = alg.slot_product(s, p, q)
                assert all(c != 0 for c in sv.values())
                assert dense(alg, sv) == rule(p, q)


def test_slot_product_backward_rule(alg):
    # The module maps A_s x A_{s+2} -> A_{s+1} read slot_product(s+2, y, p):
    # conj(e_p) e_y, e_y e_p and e_p conj(e_y) for s = 0, 1, 2.
    mul, conj, e = alg.multiply, alg.conjugate, alg.basis_element
    rules = (lambda p, y: mul(conj(e(p)), e(y)),
             lambda p, y: mul(e(y), e(p)),
             lambda p, y: mul(e(p), conj(e(y))))
    for s, rule in enumerate(rules):
        for p in range(alg.dim):
            for y in range(alg.dim):
                assert dense(alg, alg.slot_product((s + 2) % 3, y, p)) == rule(p, y)


def test_slot_product_rejects_a_slot_outside_0_1_2(alg):
    with pytest.raises(ValueError):
        alg.slot_product(3, 0, 0)


def test_indices_outside_the_basis_raise(alg):
    # Negative indices used to wrap to the last basis vector.
    n = alg.dim
    for s in range(3):
        for p, q in ((-1, 0), (0, -1), (n, 0), (0, n)):
            with pytest.raises(IndexError, match="out of range"):
                alg.slot_product(s, p, q)
    for i in (-1, n):
        with pytest.raises(IndexError, match="out of range"):
            alg.basis_element(i)


def test_conjugation_must_be_a_signed_permutation():
    c = build_split_algebra("C")
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match="signed permutation"):
        CompAlg(c.tag, c.ctable, [[half, half], [half, -half]], c.gram, c.unit)
    with pytest.raises(ValueError, match="signed permutation"):
        CompAlg(c.tag, c.ctable, [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]],
                c.gram, c.unit)


def test_dump_schema(alg):
    d = alg.dump()
    assert set(d) == {"dim", "tag", "unit", "structure_constants", "gram", "conjugation"}
    assert d["dim"] == alg.dim


def test_dimension_mismatch_errors():
    a = build_split_algebra("C")
    with pytest.raises(ValueError):
        a.multiply([Fraction(1)], [Fraction(1), Fraction(0)])
    with pytest.raises(ValueError):
        a.qform([Fraction(1)], [Fraction(1), Fraction(0)])


def test_psi1_basic():
    rng = random.Random(7)
    for tag in "CHO":
        a = build_split_algebra(tag)
        u = rand_elt(rng, a.dim)
        assert psi(triality_algebra(a), 1, u, u).is_zero()
    c = build_split_algebra("C")
    t = psi(triality_algebra(c), 1, c.basis_element(0), c.basis_element(1))
    assert not t.is_zero()
    for m in (t.component(1), t.component(2), t.component(3)):
        assert m[0][1] == 0 and m[1][0] == 0  # diagonal triple


def test_psi1_lands_in_so_q_and_triality():
    o = build_split_algebra("O")
    rng = random.Random(8)
    for _ in range(20):
        u, v = rand_elt(rng, 8, -2, 2), rand_elt(rng, 8, -2, 2)
        t = psi(triality_algebra(o), 1, u, v)
        for i in (1, 2, 3):
            m = t.component(i)
            mtq = mat_mul(transpose(m), o.gram)
            qm = mat_mul(o.gram, m)
            assert all(mtq[r][c] + qm[r][c] == 0 for r in range(8) for c in range(8))
        assert satisfies_triality(o, t)
