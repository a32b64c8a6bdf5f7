"""The magic square Lie algebras g(A,B) built from two composition algebras.

g(A,B) = t(A) x t(B)  +  A_1@B_1  +  A_2@B_2  +  A_3@B_3, with bracket:

  * t(A) x t(B) acts on A_i@B_i through the i-th projections,
  * two elements of the same A_i@B_i bracket into t(A) x t(B) through the
    quadratic-form contractions and the dual maps Psi_i,
  * mixed slots multiply into the third slot, by the one cyclic rule of
    `CompAlg.slot_product` on each factor:
        [u1@v1, u2@v2] = u1 u2 @ v1 v2
        [u2@v2, u3@v3] = u3 conj(u2) @ v3 conj(v2)
        [u3@v3, u1@v1] = conj(u1) u3 @ conj(v1) v3

The bracket table over the concatenated basis is built once, cached and
stored once: the structure constants are exact rationals with a small
common denominator D (4 on e8), and row i is D ad(b_i) as an integer column
map (`linalg.IntMap`), applied by `linalg.int_apply_into`.  The builder
fixes D first, from the few distinct values of its rational inputs, and
fills the table on integers.  Readers that
return rationals divide by D where the value leaves the table; spans and
zero patterns do not see the scale.  Jacobi is the representation axiom of
ad, checked by `linalg.int_rep_defect_pair`, the kernel that also checks
the V/W modules of `modules` (stored in the same format):
`jacobi_exhaustive` proves it for every triple from a generating set of
derivations (`jacobi_generators`: the simple root vectors and the
lowest-root vector, rank + 1 on every simple g(A,B), 9 of the 248 basis
vectors on e8; the lemma and proof are in its docstring), and counts the
failing triples only
when that certificate fails.  The invariant form K has one evaluation,
over its nonzero entries (`invariant_form_sparse`), which the dense
`invariant_form` calls.  Dimensions land on the classical 4x4 table.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .compalg import AlgebraTag, CompAlg, TagLike, parse_tag
from .linalg import (
    F0,
    F1,
    Echelon,
    IntCol,
    IntMap,
    SVec,
    int_apply_into,
    int_rep_defect_pair,
    int_vectors,
    sparse,
)
from .triality import TrialityAlgebra, triality_algebra

MagicElement = List[Fraction]

# Expected dimensions of the sixteen algebras, by (dim A, dim B).
MAGIC_DIMS = {
    (1, 1): 3, (1, 2): 8, (1, 4): 21, (1, 8): 52,
    (2, 1): 8, (2, 2): 16, (2, 4): 35, (2, 8): 78,
    (4, 1): 21, (4, 2): 35, (4, 4): 66, (4, 8): 133,
    (8, 1): 52, (8, 2): 78, (8, 4): 133, (8, 8): 248,
}

# Expected dimensions of the maximal-rank subalgebras h = t(A) x t(B) + A_i @ B_i
# where the type table lists them (sl2xsp4, so9, ..., so16); unambiguous cells only.
H_SUBALGEBRA_DIMS = {
    (1, 4): 13, (1, 8): 36, (2, 4): 19, (2, 8): 46,
    (4, 1): 13, (4, 2): 19, (4, 4): 34, (4, 8): 69,
    (8, 1): 36, (8, 2): 46, (8, 4): 69, (8, 8): 120,
}


def _values(vectors: Iterable[Dict[int, int]]) -> Set[int]:
    """The distinct entries of integer vectors."""
    return {x for v in vectors for x in v.values()}


def _product_denominator(xs: Iterable[int], ys: Iterable[int], d: int) -> int:
    """The least common denominator of the products x y / d, x in xs and y in ys."""
    return lcm(*(d // gcd(x * y, d) for x in xs for y in ys))


class MagicAlgebra:
    def __init__(self, tag_a: AlgebraTag, tag_b: AlgebraTag):
        self.tA: TrialityAlgebra = triality_algebra(tag_a)
        self.tB: TrialityAlgebra = triality_algebra(tag_b)
        self.algA: CompAlg = self.tA.alg
        self.algB: CompAlg = self.tB.alg
        self.a = self.algA.dim
        self.b = self.algB.dim
        self.dA = self.tA.dim
        self.dB = self.tB.dim
        self.dim = self.dA + self.dB + 3 * self.a * self.b
        self._table: Optional[List[IntMap]] = None
        self._form: Optional[List[SVec]] = None

    # -- index layout -----------------------------------------------------------

    def idx_tA(self, k: int) -> int:
        return k

    def idx_tB(self, k: int) -> int:
        return self.dA + k

    def idx_m(self, slot: int, p: int, q: int) -> int:
        return self.dA + self.dB + slot * self.a * self.b + p * self.b + q

    def zero(self) -> MagicElement:
        return [F0] * self.dim

    def basis_element(self, i: int) -> MagicElement:
        if not 0 <= i < self.dim:
            raise IndexError(f"basis index out of range: {i}")
        v = self.zero()
        v[i] = F1
        return v

    # -- bracket table -----------------------------------------------------------

    def table(self) -> List[IntMap]:
        """D ad(b_i) for every basis index i: tab[i][j] holds the (k, c) pairs
        of D [b_i, b_j], zeros left out, and tab[j][i] their negation."""
        if self._table is None:
            self._table = self._build_table()
        return self._table

    @property
    def denominator(self) -> int:
        """D, the least common denominator of the structure constants."""
        self.table()
        return self._denominator

    def _build_table(self) -> List[IntMap]:
        dim, a, b, dA = self.dim, self.a, self.b, self.dA
        algA, algB = self.algA, self.algB
        tab: List[IntMap] = [dict() for _ in range(dim)]

        # Every rational input, converted once to integers over its own least
        # denominator (`linalg.int_vectors`): the brackets and the Psi tables
        # of each factor, the pairing values Q(e_p, e_partner p) of each
        # algebra and the slot products.  A stored value is D times one input,
        # or D times a product x y / d of two, an exact integer once D clears
        # it.  D, the least common denominator of the stored values, comes
        # from the few distinct products.
        factors = ((self.tA, 0), (self.tB, dA))
        pairs = [[(k, l) for k in range(t.dim) for l in range(k + 1, t.dim)] for t, _ in factors]
        brackets = [int_vectors([t.bracket_coords(k, l) for k, l in ps])
                    for (t, _), ps in zip(factors, pairs)]
        psi = []
        for t, _ in factors:
            tables = [t.psi_table(i) for i in (1, 2, 3)]
            cols, d = int_vectors([sv for table in tables for sv in table.values()])
            cols = iter(cols)
            psi.append(([dict(zip(table, cols)) for table in tables], d))
        (psiA, dpA), (psiB, dpB) = psi
        ((qA,), dqA), ((qB,), dqB) = (int_vectors([dict(enumerate(alg.pairing_value))])
                                      for alg in (algA, algB))
        products = [(int_vectors([algA.slot_product(s, p, p2) for p in range(a) for p2 in range(a)]),
                     int_vectors([algB.slot_product(s, q, q2) for q in range(b) for q2 in range(b)]))
                    for s in range(3)]
        d_psi = (dpA * dqB, dpB * dqA)
        d_prod = [dx * dy for (_, dx), (_, dy) in products]
        self._denominator = D = lcm(
            *(d for _, d in brackets),
            _product_denominator(_values(sv for t in psiA for sv in t.values()), qB.values(), d_psi[0]),
            _product_denominator(_values(sv for t in psiB for sv in t.values()), qA.values(), d_psi[1]),
            *(_product_denominator(_values(xs), _values(ys), d)
              for ((xs, _), (ys, _)), d in zip(products, d_prod)))

        def put(i: int, j: int, col: IntCol) -> None:
            if col:
                tab[i][j] = col
                tab[j][i] = tuple((k, -c) for k, c in col)

        # Each factor t of t(A) x t(B): its own brackets, and each triple
        # moving its leg of every A_s @ B_s (`TrialityTriple.leg_action`),
        # whose integers are the entries: every basis triple has D = 1.
        legA = [[[self.idx_m(s, p, q) for q in range(b)] for p in range(a)] for s in range(3)]
        legB = [[[self.idx_m(s, p, q) for p in range(a)] for q in range(b)] for s in range(3)]
        for (t, off), ps, (cols, d), leg in zip(factors, pairs, brackets, (legA, legB)):
            f = D // d
            for (k, l), col in zip(ps, cols):
                put(off + k, off + l, tuple((off + i, f * c) for i, c in col.items()))
            for k, x in enumerate(t.basis):
                for j, col in x.leg_action(leg).items():
                    put(off + k, j, tuple((i, D * c) for i, c in col))

        # Same slot: quadratic-form contraction into t(A) x t(B) via Psi.  Each
        # Gram column has one nonzero entry, at the pairing partner, so only
        # pairs with q2 = partner[q] or p2 = partner[p] can contract: the
        # t(A) part D Q_B(e_q, e_q2) Psi_slot(e_p ^ e_p2), the t(B) part
        # D Q_A(e_p, e_p2) Psi_slot(e_q ^ e_q2) on the t(B) indices.
        pA, pB = algA.partner, algB.partner
        for slot in range(3):
            for p in range(a):
                for q in range(b):
                    i1 = self.idx_m(slot, p, q)
                    pairs_pq = ({(x, pB[q]) for x in range(a)} | {(pA[p], y) for y in range(b)})
                    for p2, q2 in sorted(pairs_pq):
                        i2 = self.idx_m(slot, p2, q2)
                        if i2 <= i1:
                            continue
                        col: IntCol = ()
                        if q2 == pB[q] and p != p2:
                            c = D * qB[q] * (1 if p < p2 else -1)
                            sv = psiA[slot].get((min(p, p2), max(p, p2)), {})
                            col += tuple((k, c * x // d_psi[0]) for k, x in sv.items())
                        if p2 == pA[p] and q != q2:
                            c = D * qA[p] * (1 if q < q2 else -1)
                            sv = psiB[slot].get((min(q, q2), max(q, q2)), {})
                            col += tuple((dA + k, c * x // d_psi[1]) for k, x in sv.items())
                        put(i1, i2, col)

        # Mixed slots multiply into the remaining slot by CompAlg.slot_product:
        # [m_s(p,q), m_{s+1}(p2,q2)] = A-product @ B-product in slot s+2.
        # A zero factor product stores nothing, so it is skipped
        # (9,216 of the 12,288 pairs on g(O,O)).
        for s, (((prodA, _), (prodB, _)), d) in enumerate(zip(products, d_prod)):
            s1, s2 = (s + 1) % 3, (s + 2) % 3
            for p in range(a):
                for p2 in range(a):
                    xs = prodA[p * a + p2]
                    if not xs:
                        continue
                    for q in range(b):
                        for q2 in range(b):
                            ys = prodB[q * b + q2]
                            if ys:
                                put(self.idx_m(s, p, q), self.idx_m(s1, p2, q2),
                                    tuple((self.idx_m(s2, k, l), D * x * y // d)
                                          for k, x in xs.items() for l, y in ys.items()))
        return tab

    # -- operations ---------------------------------------------------------------

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> MagicElement:
        """[x, y] = sum_i x_i ad(b_i) y, formed as D [x, y] on the table."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("element dimension mismatch")
        tab = self.table()
        ys = sparse(y)
        out: SVec = {}
        for i, xi in enumerate(x):
            if xi:
                int_apply_into(out, tab[i], ys, xi)
        return [Fraction(out[k], self._denominator) if out.get(k) else F0
                for k in range(self.dim)]

    def bracket_basis(self, i: int, j: int) -> SVec:
        """[b_i, b_j] as a sparse vector, for basis indices in 0..dim-1."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"basis index out of range: ({i}, {j})")
        d = self.denominator
        return {k: Fraction(c, d) for k, c in self.table()[i].get(j, ())}

    def jacobi_defect_basis(self, i: int, j: int, k: int) -> SVec:
        """[b_k,[b_i,b_j]] + [b_i,[b_j,b_k]] + [b_j,[b_k,b_i]], minus the Jacobi sum."""
        tab = self.table()
        out: SVec = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            int_apply_into(out, tab[z], self.bracket_basis(x, y))
        return {s: v / self._denominator for s, v in out.items() if v}

    def jacobi_generators(self) -> List[int]:
        """A set S of basis indices whose closure under the ad s, s in S, spans g.

        The closure C is the smallest subspace that contains S and is closed
        under ad s for every s in S.  Candidates come in this order: the basis
        vectors whose weight is a simple root, then the lowest-root vector,
        then every other one by increasing nnz of ad(b_i), ties by index.
        The weights are read as integers off the diagonal of the Cartan rows
        of t(A) and t(B); positive means lex > 0, and a simple root is a
        positive weight that is not a sum of two positive ones.  The simple
        root vectors and the lowest-root vector are the images of the affine
        Chevalley generators e_1, ..., e_r, e_0 and generate a simple g (Kac,
        Infinite-dimensional Lie algebras, ch. 7), so S has rank + 1 elements
        there; on g(C,C) = A2 x A2 the nnz tail completes S, and g(R,R) has
        no weights, so its candidates are the tail alone.  The order is only
        a heuristic: a wrong weight costs generators, never soundness.  A
        candidate joins S when it does not reduce to zero against the
        echelon of C so far.  Then ad of the new generator is
        applied to every vector already in C, and ad of every generator to
        every vector that joins C, each result kept when it reduces to
        something nonzero, until C is closed or spans g.  Each kept vector
        is an iterated ad s of a generator, so it lies in C, and every basis
        vector is a candidate, so the kept vectors end spanning g: C = g.
        The arithmetic is exact, on the current table; its scale D changes
        no span.
        """
        tab = self.table()
        n = self.dim
        # The weight of b_i: D times the eigenvalues of ad h on it, h over the
        # Cartan basis vectors of t(A) and t(B), read off the diagonal.
        cartan = [*range(self.tA.cartan_dim), *range(self.dA, self.dA + self.tB.cartan_dim)]
        weights = [tuple(next((c for k, c in tab[h].get(i, ()) if k == i), 0) for h in cartan)
                   for i in range(n)]
        zero = (0,) * len(cartan)
        # A positive root that is not simple is a simple root plus a positive
        # root (Humphreys §10.2), and each summand is lex-smaller than the
        # sum, so in increasing lex order the simple roots before a root
        # decide it.
        positive = sorted({w for w in weights if w > zero})
        members = set(positive)
        simple: Set[tuple] = set()
        for w in positive:
            if not any(tuple(x - y for x, y in zip(w, a)) in members for a in simple):
                simple.add(w)
        lowest = min(weights)

        def order(i: int) -> tuple:
            if weights[i] in simple:
                return (0, i)
            if weights[i] == lowest < zero:
                return (1, i)
            return (2, sum(map(len, tab[i].values())), i)

        span = Echelon()
        gens: List[int] = []
        vecs: List[SVec] = []
        for c in sorted(range(n), key=order):
            if len(span) == n:
                break
            if not span.add({c: 1}):
                continue
            gens.append(c)
            todo = [(c, v) for v in vecs]
            vecs.append({c: 1})
            todo.extend((s, vecs[-1]) for s in gens)
            while todo and len(span) < n:
                s, v = todo.pop()
                w: SVec = {}
                int_apply_into(w, tab[s], v, 1)
                if span.add(w):
                    vecs.append(w)
                    todo.extend((t, w) for t in gens)
        return gens

    def jacobi_certificate(self) -> bool:
        """True when the table is alternating and ad s is a derivation for
        every s in `jacobi_generators`.

        Then the table satisfies Jacobi on every triple (see
        `jacobi_exhaustive`).
        """
        tab = self.table()
        # One exact pass proves the stored table alternating: no row i stores
        # column i, and every stored tab[i][j] has tab[j][i] its negation.
        # Each pair is compared from its smaller index; the larger one only
        # checks that the pair is stored there too.
        for i, row in enumerate(tab):
            if i in row:
                return False
            for j, col in row.items():
                if j < i:
                    if i not in tab[j]:
                        return False
                elif tab[j].get(i) != tuple((k, -c) for k, c in col):
                    return False
        # Defect (s, y, k) is Leibniz for ad s at (b_y, b_k).  On an
        # alternating table it is alternating in y, k, so the columns k > y
        # (the kernel's default) cover every pair.
        for s in self.jacobi_generators():
            row_s = tab[s]
            for y in range(self.dim):
                if any(int_rep_defect_pair(tab, row_s.get(y, ()), s, y).values()):
                    return False
        return True

    def jacobi_exhaustive(self) -> int:
        """Number of basis triples i<j<k with nonzero defect (0 for a Lie algebra).

        Lemma.  Let D = {x : ad x is a derivation of the bracket}; ad x is
        linear in x, so D is a subspace.  If x1, x2 are in D, Leibniz for
        ad x1 at (x2, z) reads [x1, [x2, z]] = [[x1, x2], z] + [x2, [x1, z]],
        that is ad[x1, x2] = [ad x1, ad x2]; a commutator of derivations is a
        derivation, so [x1, x2] is in D.  Hence for a set S of basis vectors
        in D, D contains S and is closed under ad s for every s in S, so it
        contains their closure C.  If C = g, every ad x is a derivation, and
        every rep defect (i, j, k) -- Leibniz for ad b_i at (b_j, b_k) --
        vanishes in every order, so no triple i<j<k fails.  The lemma uses
        no antisymmetry of the table.

        So the count first tries `jacobi_certificate`: once one exact pass
        proves the table alternating, the Leibniz defect d_s(y, k) of ad s is
        alternating in y, k, so each s of `jacobi_generators` is checked on
        the columns k > y of every row y.  Only if that fails does
        `linalg.int_rep_defect_pair` run per pair i<j on the columns k > j,
        adding up the distinct k whose column is nonzero, with no antisymmetry
        assumed; both read the stored table, whose defect is D^2 times the
        Fraction one, so the count is exact.
        """
        if self.jacobi_certificate():
            return 0
        n = self.dim
        tab = self.table()
        bad = 0
        for i in range(n):
            row_i = tab[i]
            for j in range(i + 1, n):
                out = int_rep_defect_pair(tab, row_i.get(j, ()), i, j)
                if any(out.values()):
                    bad += len({key // n for key, v in out.items() if v})
        return bad

    def jacobi_sample(self, count: int, seed: int = 0) -> int:
        if count < 0:
            raise ValueError("jacobi_sample: count must be >= 0")
        rng = random.Random(seed)
        n = self.dim
        bad = 0
        for _ in range(count):
            i = rng.randrange(n)
            j = rng.randrange(n)
            k = rng.randrange(n)
            if self.jacobi_defect_basis(i, j, k):
                bad += 1
        return bad

    # -- invariant form -----------------------------------------------------------

    def invariant_form(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        """K = K_t(A) + K_t(B) + sum_i Q_A @ Q_B on the slots."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("element dimension mismatch")
        return self.invariant_form_sparse(sparse(x), sparse(y))

    def invariant_form_sparse(self, x: SVec, y: SVec) -> Fraction:
        """K(x, y) for sparse x, y, over the nonzero entries of K."""
        if any(not 0 <= i < self.dim for v in (x, y) for i in v):
            raise IndexError("basis index out of range")
        rows = self._form_rows()
        out = F0
        for i, a in x.items():
            for j, c in rows[i].items():
                b = y.get(j)
                if b:
                    out += a * c * b
        return out

    def _form_rows(self) -> List[SVec]:
        """K(b_i, .) for every basis index i, zeros left out.

        K_t(A) and K_t(B) on their blocks; on the slots, m_s(p, q) pairs
        only with m_s(partner p, partner q), with value Q_A Q_B there.
        """
        if self._form is None:
            rows: List[SVec] = []
            for off, t in ((0, self.tA), (self.dA, self.tB)):
                rows.extend({off + c: v for c, v in enumerate(row) if v} for row in t.k_matrix())
            vA, vB = self.algA.pairing_value, self.algB.pairing_value
            pA, pB = self.algA.partner, self.algB.partner
            for slot in range(3):
                for p in range(self.a):
                    for q in range(self.b):
                        rows.append({self.idx_m(slot, pA[p], pB[q]): vA[p] * vB[q]})
            self._form = rows
        return self._form

    # -- structure checks ----------------------------------------------------------

    def h_subalgebra_indices(self, slot: int) -> List[int]:
        if slot not in (0, 1, 2):
            raise ValueError("slot must be 0, 1 or 2")
        idx = list(range(self.dA + self.dB))
        idx += [self.idx_m(slot, p, q) for p in range(self.a) for q in range(self.b)]
        return idx

    def h_subalgebra_closed(self, slot: int) -> bool:
        idx = set(self.h_subalgebra_indices(slot))
        tab = self.table()
        for i in idx:
            for j, col in tab[i].items():
                if j in idx and any(k not in idx for k, _ in col):
                    return False
        return True

    def center_dim(self) -> int:
        """dim of {x : [x, g] = 0} via incremental elimination (0 expected)."""
        tab = self.table()
        n = self.dim
        span = Echelon()
        for j in range(n):
            rows: Dict[int, SVec] = {}
            for i in range(n):
                for k, c in tab[i].get(j, ()):
                    rows.setdefault(k, {})[i] = c
            for row in rows.values():
                if span.add(row) and len(span) == n:
                    return 0
        return n - len(span)


def build_magic_algebra(tag_a: TagLike, tag_b: TagLike) -> MagicAlgebra:
    """The one g(A,B) of the process for each pair of tag names."""
    return _magic_algebra(parse_tag(tag_a).name, parse_tag(tag_b).name)


@lru_cache(maxsize=None)
def _magic_algebra(name_a: str, name_b: str) -> MagicAlgebra:
    return MagicAlgebra(parse_tag(name_a), parse_tag(name_b))
