"""Triality Lie algebras t(A) and the dual maps Psi_i.

t(A) is computed as the nullspace of the infinitesimal triality constraint
    theta3(x y) = theta1(x) y + x theta2(y)   for all x, y in A,
inside so(Q)^3; the known type table (0, 2-dim abelian, sl2^3, so8) is a
test expectation, not an input.  The constraint rows are read off the
structure constants of A as sparse rows, one per coefficient e_r of the
relation on e_i, e_j, and only the nonzero ones (320 of 512 for t(O)) go
to the sparse exact elimination of `linalg.nullspace`, whose sparse kernel
vectors, rescaled to primitive integer vectors, combine the so(Q) basis maps
placed in each slot.  The basis puts a basis of the diagonal (Cartan) part
first, found by a second sparse nullspace, and completes it greedily with
one incremental echelon; coordinates in it come from one `SolveCache`,
built on first use (pivot-position solves with an exact reconstruction
check), sparse in and out.  Each element is stored in the one map format
of `linalg`: D theta_i as integer column maps (column j is D theta_i(e_j),
no zeros stored) over the least common denominator D of the triple, which
is 1 on every basis triple and 2 on the t(O) chart.  `combine` takes
sparse coefficients, `psi_coords` returns them, and the bracket (one
integer commutator per slot, the representation kernel
`linalg.int_rep_defect_pair` with an empty bracket, which `bracket_coords`
hands to the integer solve as flat entries), the trace form of K, the leg
actions (`leg_action`) and the consumers in `magic`, `modules` and `roots`
read the maps; `int_flat` gives their integers in one flat layout.  The
views `component`, `diagonal`, `sparse_flat`, `coords` and `from_coords`
give Fractions.

The invariant form K on t(A) is -1 / (2a + 8) times the sum S of the three
componentwise trace forms, a = dim A.  The dual maps Psi_i are defined by
products in A: with sigma(x) = Q(u, x) v - Q(v, x) u,

  * Psi_1(u ^ v) = (4 sigma, x -> conj(v)(u x) - conj(u)(v x),
                    x -> v(conj(u) x) - u(conj(v) x)),
  * Psi_2(u ^ v) = (x -> (x u) conj(v) - (x v) conj(u), 4 sigma,
                    x -> (x conj(u)) v - (x conj(v)) u),
  * Psi_3(u ^ v) = (x -> v(conj(u) x) - u(conj(v) x),
                    x -> (x conj(u)) v - (x conj(v)) u, 4 sigma),

built on the basis pairs e_p ^ e_q, p < q, where the exact span check of
the solve proves that each lies in t(A).  That Psi_i is the K-dual of slot i,

  * K(Psi_i(u ^ v), theta) = Q(theta_i(u), v)   for i = 1, 2, 3,

and that Psi_2 = tau^2 Psi_1 and Psi_3(u ^ v) = tau Psi_1(conj u ^ conj v)
for the conjugation-twisted shift tau(theta1, theta2, theta3) =
(theta2, C theta3 C, C theta1 C), C the conjugation of A, are tests, on
every basis pair.

K and the Psi tables serve only the bracket table of `magic` and the
invariant form that `verify` checks on it, and are built on first use, as
is the solver.  Root data and the series descriptors never read them: they
take their Gram off the chart weights (`roots.trace_gram`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .compalg import CompAlg, TagLike, build_split_algebra, parse_tag
from .exact import rat_str
from .linalg import (
    F0,
    Echelon,
    Entries,
    IntMap,
    Mat,
    SVec,
    SolveCache,
    Vec,
    axpy,
    int_maps,
    int_rep_defect_pair,
    nullspace,
    primitive_integer_vector,
    sparse,
    zeros,
)


@dataclass(frozen=True)
class TrialityTriple:
    """(theta1, theta2, theta3) in so(Q)^3 as D times the n x n components.

    thetas[i - 1] is the integer column map of D theta_i (`linalg.int_maps`),
    column j the pairs of D theta_i(e_j) in increasing row order, zero
    entries and zero columns left out, and D is the least common
    denominator, so two triples are equal iff their maps and D are.  The
    views divide by D; `component` is the one dense view, for
    `TrialityAlgebra.dump`.
    """
    thetas: Tuple[IntMap, IntMap, IntMap]
    n: int
    denominator: int

    def _theta(self, i: int) -> IntMap:
        if i not in (1, 2, 3):
            raise ValueError("slot index must be 1, 2 or 3")
        return self.thetas[i - 1]

    def component(self, i: int) -> Mat:
        out = zeros(self.n, self.n)
        for j, col in self._theta(i).items():
            for r, x in col:
                out[r][j] = Fraction(x, self.denominator)
        return out

    def int_flat(self) -> Dict[int, int]:
        """D times the nonzero entries of the three components, entry (r, s)
        of theta_i at ((i - 1) n + r) n + s: the stored integers."""
        n = self.n
        return {(i * n + r) * n + s: x for i, m in enumerate(self.thetas)
                for s, col in m.items() for r, x in col}

    def sparse_flat(self) -> SVec:
        """`int_flat` divided by D."""
        d = self.denominator
        return {k: Fraction(x, d) for k, x in self.int_flat().items()}

    def diagonal(self, i: int) -> Vec:
        """The diagonal entries of theta_i."""
        m = self._theta(i)
        return [Fraction(dict(m.get(p, ())).get(p, 0), self.denominator) for p in range(self.n)]

    def is_zero(self) -> bool:
        return not any(self.thetas)

    def leg_action(self, legs: Sequence[Sequence[Sequence[int]]]) -> IntMap:
        """D times the triple acting on three legs, slot s moving leg s, as an
        integer column map over the triple's D.

        legs[s][p] lists the indices of e_p in leg s, no index twice, in the same
        order for every p; column legs[s][p][pos] is D theta_s(e_p) at position pos."""
        return {j: tuple((legs[s][r][pos], c) for r, c in col)
                for s, theta in enumerate(self.thetas)
                for p, col in theta.items()
                for pos, j in enumerate(legs[s][p])}


def _triple(entries: Sequence[Entries], n: int) -> TrialityTriple:
    """The triple with the given (row, col) -> value entries of its three components."""
    maps, d = int_maps(entries)
    return TrialityTriple(tuple(maps), n, d)


def combine(coeffs: SVec, triples: Sequence[TrialityTriple]) -> TrialityTriple:
    """sum_k coeffs[k] triples[k] for sparse coeffs and a nonempty list of triples."""
    entries: Tuple[Entries, Entries, Entries] = ({}, {}, {})
    for k, c in coeffs.items():
        if not 0 <= k < len(triples):
            raise IndexError(f"basis index out of range: {k}")
        c = Fraction(c, triples[k].denominator)
        for acc, m in zip(entries, triples[k].thetas):
            for j, col in m.items():
                for r, x in col:
                    acc[r, j] = acc.get((r, j), 0) + c * x
    return _triple(entries, triples[0].n)


def _commutator(x: TrialityTriple, y: TrialityTriple) -> Dict[int, int]:
    """D_x D_y [x, y] as integer flat entries, laid out as `int_flat`.

    Slot by slot, `int_rep_defect_pair` with an empty bracket is the
    commutator keyed j n + r (column j, row r); each entry moves to
    `int_flat`'s key (i n + r) n + j.  Entries that cancel stay as zeros.
    """
    n = x.n
    return {(i * n + key % n) * n + key // n: v
            for i, pair in enumerate(zip(x.thetas, y.thetas))
            for key, v in int_rep_defect_pair(pair, (), 0, 1, 0, n).items()}


def triality_bracket(x: TrialityTriple, y: TrialityTriple) -> TrialityTriple:
    """Componentwise commutator; t(A) is closed under it, scaled by 1 / (D_x D_y)
    off `_commutator`; entries that cancel are dropped by `int_maps`."""
    n, d = x.n, x.denominator * y.denominator
    entries: Tuple[Entries, Entries, Entries] = ({}, {}, {})
    for key, v in _commutator(x, y).items():
        i, rj = divmod(key, n * n)
        entries[i][divmod(rj, n)] = Fraction(v, d)
    return _triple(entries, n)


class TrialityAlgebra:
    """t(A) with a basis (Cartan-adapted), bracket data, and the K form and
    Psi maps in closed form; the duality of Psi and the tau relations are
    tests, not part of the construction."""

    def __init__(self, alg: CompAlg):
        self.alg = alg
        self.basis, self.cartan_dim = self._compute_basis()
        self.dim = len(self.basis)
        self._bracket_cache: Dict[Tuple[int, int], SVec] = {}
        self._psi_tables: Optional[List[Dict[Tuple[int, int], SVec]]] = None
        self._k_matrix: Optional[Mat] = None

    # -- basis ----------------------------------------------------------------

    def _compute_basis(self) -> Tuple[List[TrialityTriple], int]:
        """Basis of t(A), Cartan-first, and the number of Cartan elements."""
        alg = self.alg
        n = alg.dim
        so_maps, so_d = alg.so_q_basis()
        d = len(so_maps)
        # Unknowns: coordinates of (theta1, theta2, theta3) in the so(Q) basis.
        # Row (i, j, r) is the e_r coefficient of
        #   theta3(e_i e_j) - theta1(e_i) e_j - e_i theta2(e_j),
        # read off the structure constants with D theta(e_s) = sum_t m[s][t] e_t
        # for the integer column map m of each so(Q) basis matrix; the maps
        # share D, so the scale changes no kernel vector.
        ct = alg.ctable
        rows: Dict[int, SVec] = {}

        def add(key: int, k: int, x: Fraction) -> None:
            row = rows.setdefault(key, {})
            row[k] = row.get(k, F0) + x

        for k, m in enumerate(so_maps):
            for s, col in m.items():
                for t, c in col:
                    for j in range(n):
                        for r, x in ct[t][j].items():
                            add((s * n + j) * n + r, k, -c * x)
                        for r, x in ct[j][t].items():
                            add((j * n + s) * n + r, d + k, -c * x)
            for i in range(n):
                for j in range(n):
                    for s, x in ct[i][j].items():
                        for r, y in m.get(s, ()):
                            add((i * n + j) * n + r, 2 * d + k, x * y)
        # units[i d + k] is so(Q) map k in slot i + 1.
        units = [TrialityTriple(tuple(m if c == i else {} for c in range(3)), n, so_d)
                 for i in range(3) for m in so_maps]
        basis = [combine(primitive_integer_vector(v), units)
                 for v in nullspace(list(rows.values()), 3 * d)]
        return self._cartan_first(basis)

    def _cartan_first(self, basis: List[TrialityTriple]) -> Tuple[List[TrialityTriple], int]:
        """Reorder so that a basis of the diagonal (Cartan) subspace comes first.

        The Cartan basis is followed by the vectors of `basis`, in order, that
        are independent of those chosen before them; independence is read
        off one `linalg.Echelon` of the chosen flats, so each candidate is
        reduced once against the rows already there.  Returns the reordered
        basis and the dimension of the Cartan subspace.
        """
        # Conditions: off-diagonal entries of all three components vanish;
        # the row of entry (i, r, s) holds that entry of each basis triple,
        # read as the stored integer: every basis triple has D = 1.
        rows: Dict[Tuple[int, int, int], SVec] = {}
        for k, t in enumerate(basis):
            for i, m in enumerate(t.thetas):
                for s, col in m.items():
                    for r, x in col:
                        if r != s:
                            rows.setdefault((i, r, s), {})[k] = x
        cartan_coords = nullspace(list(rows.values()), len(basis))
        cartan = [combine(primitive_integer_vector(v), basis) for v in cartan_coords]
        # Complete greedily to a full basis: take b when its flat does not
        # reduce to zero against the echelon of the flats chosen before it.
        echelon = Echelon()
        chosen = [t for t in cartan + basis if echelon.add(t.int_flat())]
        assert chosen[:len(cartan)] == cartan and len(chosen) == len(basis)
        return chosen, len(cartan)

    # -- coordinates and bracket ------------------------------------------------

    @cached_property
    def _solver(self) -> SolveCache:
        """The solver for coordinates in the basis, built on first use: root
        extraction and the series rows never solve."""
        # Every basis triple has D = 1: its integers are its entries.
        return SolveCache([t.int_flat() for t in self.basis])

    def sparse_coords(self, t: TrialityTriple) -> SVec:
        """Sparse coordinates of a triple in the stored basis (raises if outside t(A))."""
        if t.n != self.alg.dim:
            raise ValueError("element dimension mismatch")
        return self._solver.solve(t.sparse_flat())

    def coords(self, t: TrialityTriple) -> Vec:
        """`sparse_coords` as a dense vector of length dim."""
        x = self.sparse_coords(t)
        return [x.get(k, F0) for k in range(self.dim)]

    def from_coords(self, v: Sequence[Fraction]) -> TrialityTriple:
        if len(v) != self.dim:
            raise ValueError("element dimension mismatch")
        return self._from_sparse_coords(sparse(v))

    def _from_sparse_coords(self, coeffs: SVec) -> TrialityTriple:
        """The triple with sparse coordinates coeffs; zero if empty, as for all of t(R)."""
        if not coeffs:
            return TrialityTriple(({}, {}, {}), self.alg.dim, 1)
        return combine(coeffs, self.basis)

    def bracket_coords(self, k: int, l: int) -> SVec:
        """Sparse coordinates of [basis_k, basis_l]; cached."""
        out = self._bracket_cache.get((k, l))
        if out is not None:
            return out
        if not (0 <= k < self.dim and 0 <= l < self.dim):
            raise IndexError(f"t({self.alg.tag.name}) basis index out of range: ({k}, {l})")
        # Every basis triple has D = 1, so the integers are the entries.
        out = self._solver.solve(_commutator(self.basis[k], self.basis[l]))
        self._bracket_cache[(k, l)] = out
        self._bracket_cache[(l, k)] = {i: -c for i, c in out.items()}
        return out

    # -- invariant form and Psi ---------------------------------------------------

    def _calibrate(self) -> None:
        """K and the three Psi tables, each from its closed form.

        K = -S / (2a + 8) for the sum S of the trace forms tr(x_i y_i) over
        the slots i = 1, 2, 3 and a = dim A.  For a basis pair u = e_p,
        v = e_q, p < q, the three slots of Psi_i(u ^ v) are 4 sigma, with
        sigma(x) = Q(u, x) v - Q(v, x) u, in slot i, and two of the product
        maps, each antisymmetrised in (u, v):

            Psi_1 = (4 sigma, conj(v)(u x), v(conj(u) x)),
            Psi_2 = ((x u) conj(v), 4 sigma, (x conj(u)) v),
            Psi_3 = (v(conj(u) x), (x conj(u)) v, 4 sigma).

        Every map is read through `CompAlg.slot_product` on integers, as
        basis products are 0 or +-1 times a basis vector, and its entries,
        laid out as `TrialityTriple.int_flat`, go to the integer solve of
        t(A), whose exact span check proves that Psi_i(u ^ v) lies in t(A).
        Each table maps (p, q) to the sparse coordinates of Psi_i(e_p ^ e_q),
        zero images left out.
        """
        alg = self.alg
        n = alg.dim
        # prod[s][p][q] = (k, c) for slot_product(s, p, q) = c e_k, None for 0.
        prod = [[[next(((k, int(c)) for k, c in alg.slot_product(s, p, q).items()), None)
                  for q in range(n)] for p in range(n)] for s in range(3)]

        def mul(s: int, x: Optional[Tuple[int, int]], y: Optional[Tuple[int, int]]):
            """Slot product s of two signed basis vectors (k, c); None for 0."""
            if x is None or y is None:
                return None
            z = prod[s][x[0]][y[0]]
            return z and (z[0], z[1] * x[1] * y[1])

        # 4 Q(e_p, e_x), an integer: the Gram entries are +-1/2 (1 on R).
        four_q = [[int(4 * g) for g in row] for row in alg.gram]
        maps = (lambda u, v, x: mul(2, mul(0, u, x), v),   # conj(v)(u x)
                lambda u, v, x: mul(0, v, mul(2, x, u)),   # v(conj(u) x)
                lambda u, v, x: mul(1, v, mul(0, x, u)),   # (x u) conj(v)
                lambda u, v, x: mul(0, mul(1, u, x), v),   # (x conj(u)) v
                lambda u, v, x: (v[0], four_q[u[0]][x[0]]) if four_q[u[0]][x[0]] else None)
        # The map in each slot of Psi_1, Psi_2, Psi_3; map 4, antisymmetrised,
        # is 4 sigma.
        slots = ((4, 0, 1), (2, 4, 3), (1, 3, 4))
        tables: List[Dict[Tuple[int, int], SVec]] = [{}, {}, {}]
        for p in range(n):
            for q in range(p + 1, n):
                u, v = (p, 1), (q, 1)
                images = [[(m(u, v, (x, 1)), m(v, u, (x, 1))) for x in range(n)] for m in maps]
                for table, row in zip(tables, slots):
                    flat: Dict[int, int] = {}
                    for i, m in enumerate(row):
                        for x, pair in enumerate(images[m]):
                            for image, sign in zip(pair, (1, -1)):
                                if image:
                                    key = (i * n + image[0]) * n + x
                                    flat[key] = flat.get(key, 0) + sign * image[1]
                    coords = self._solver.solve(flat)
                    if coords:
                        table[(p, q)] = coords
        # Entry (r, s) of theta_i of each basis triple, keyed (i, r, s): the
        # stored integer, as every basis triple has D = 1.
        entries = [{(i, r, s): x for i, m in enumerate(t.thetas) for s, col in m.items()
                    for r, x in col} for t in self.basis]
        k = -(2 * n + 8)
        self._k_matrix = [[Fraction(sum(x * ey.get((i, s, r), 0) for (i, r, s), x in ex.items()),
                                    k) for ey in entries] for ex in entries]
        self._psi_tables = tables

    def psi_table(self, i: int) -> Dict[Tuple[int, int], SVec]:
        """(p, q) -> sparse coordinates of Psi_i(e_p ^ e_q), p < q, zero images left out."""
        if i not in (1, 2, 3):
            raise ValueError("Psi slot index must be 1, 2 or 3")
        if self._psi_tables is None:
            self._calibrate()
        return self._psi_tables[i - 1]

    def psi_coords(self, i: int, u: Sequence[Fraction], v: Sequence[Fraction]) -> SVec:
        """Sparse coordinates in the t(A) basis of Psi_i(u ^ v), no zero stored."""
        if len(u) != self.alg.dim or len(v) != self.alg.dim:
            raise ValueError("element dimension mismatch")
        acc: SVec = {}
        for (p, q), sv in self.psi_table(i).items():
            c = u[p] * v[q] - u[q] * v[p]
            if c:
                axpy(acc, c, sv)
        return acc

    def k_matrix(self) -> Mat:
        if self._k_matrix is None:
            self._calibrate()
        return self._k_matrix

    def cartan_basis(self) -> List[TrialityTriple]:
        return self.basis[:self.cartan_dim]

    def dump(self) -> dict:
        return {
            "algebra": self.alg.tag.name,
            "dim": self.dim,
            "cartan_dim": self.cartan_dim,
            "basis": [
                {
                    "theta1": [[rat_str(x) for x in row] for row in t.component(1)],
                    "theta2": [[rat_str(x) for x in row] for row in t.component(2)],
                    "theta3": [[rat_str(x) for x in row] for row in t.component(3)],
                }
                for t in self.basis
            ],
        }


def triality_algebra(alg: TagLike) -> TrialityAlgebra:
    """The one t(A) of the process for each tag name."""
    return _triality_algebra(parse_tag(alg).name)


@lru_cache(maxsize=None)
def _triality_algebra(name: str) -> TrialityAlgebra:
    return TrialityAlgebra(build_split_algebra(name))


def psi(ta: TrialityAlgebra, i: int, u: Sequence[Fraction], v: Sequence[Fraction]) -> TrialityTriple:
    return ta._from_sparse_coords(ta.psi_coords(i, u, v))
