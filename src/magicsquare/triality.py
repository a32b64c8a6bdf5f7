"""Triality Lie algebras t(A) and the dual maps Psi_i.

t(A) is computed as the nullspace of the infinitesimal triality constraint
    theta3(x y) = theta1(x) y + x theta2(y)   for all x, y in A,
inside so(Q)^3; the known type table (0, 2-dim abelian, sl2^3, so8) is a
test expectation, not an input.  The constraint rows are read off the
structure constants of A, one row per coefficient e_r of the relation on
e_i, e_j.  The basis puts a basis of the diagonal (Cartan) part first and
completes it greedily with one incremental echelon; coordinates in it come
from one `SolveCache` (pivot-position solves with an exact reconstruction
check).

The invariant form on t(A) is a single rational multiple of the sum of the
three componentwise trace forms; the multiple, and the normalization of the
dual maps Psi_i, are solved for so that

  * K(Psi_1(u ^ v), theta) = Q(theta_1(u), v)          (duality),
  * Psi_1(u ^ v)_2 x  =  conj(v)(u x) - conj(u)(v x)   (bracket scale).

The order-3 symmetry is the conjugation-twisted shift
    tau(theta1, theta2, theta3) = (theta2, C theta3 C, C theta1 C)
with C the conjugation of A; the plain shift does not preserve the triality
relation in these split models, the twisted one does, and this is asserted
at construction time.  Psi_2 = tau^2 Psi_1 and Psi_3(u^v) = tau Psi_1(conj u ^ conj v).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .compalg import AlgebraTag, CompAlg, build_split_algebra, parse_tag
from .exact import rat_str
from .linalg import (
    F0,
    F1,
    Mat,
    SVec,
    SolveCache,
    Vec,
    axpy,
    bilinear,
    commutator,
    mat_mul,
    mat_vec,
    nullspace,
    primitive_integer_vector,
    trace_of_product,
    zeros,
)


@dataclass(frozen=True)
class TrialityTriple:
    theta1: tuple
    theta2: tuple
    theta3: tuple

    @staticmethod
    def from_mats(m1: Mat, m2: Mat, m3: Mat) -> "TrialityTriple":
        tup = lambda m: tuple(tuple(row) for row in m)
        return TrialityTriple(tup(m1), tup(m2), tup(m3))

    def mats(self) -> Tuple[Mat, Mat, Mat]:
        lst = lambda m: [list(row) for row in m]
        return lst(self.theta1), lst(self.theta2), lst(self.theta3)

    def component(self, i: int) -> Mat:
        return [list(row) for row in (self.theta1, self.theta2, self.theta3)[i - 1]]

    def flat(self) -> Vec:
        out: Vec = []
        for m in (self.theta1, self.theta2, self.theta3):
            for row in m:
                out.extend(row)
        return out

    def is_zero(self) -> bool:
        return all(all(all(x == 0 for x in row) for row in m)
                   for m in (self.theta1, self.theta2, self.theta3))

    def scale(self, c: Fraction) -> "TrialityTriple":
        sc = lambda m: tuple(tuple(c * x for x in row) for row in m)
        return TrialityTriple(sc(self.theta1), sc(self.theta2), sc(self.theta3))

    def add(self, other: "TrialityTriple") -> "TrialityTriple":
        ad = lambda m, n: tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(m, n))
        return TrialityTriple(ad(self.theta1, other.theta1),
                              ad(self.theta2, other.theta2),
                              ad(self.theta3, other.theta3))


def combine(coeffs: Sequence[Fraction], triples: Sequence[TrialityTriple]) -> TrialityTriple:
    """The linear combination sum_i coeffs[i] triples[i] of a nonempty list of triples."""
    n = len(triples[0].theta1)
    acc = [zeros(n, n) for _ in range(3)]
    for c, t in zip(coeffs, triples):
        if c == 0:
            continue
        for m, src in zip(acc, (t.theta1, t.theta2, t.theta3)):
            for row, src_row in zip(m, src):
                for j, x in enumerate(src_row):
                    if x != 0:
                        row[j] += c * x
    return TrialityTriple.from_mats(*acc)


def triality_bracket(x: TrialityTriple, y: TrialityTriple) -> TrialityTriple:
    """Componentwise matrix commutator; t(A) is closed under it."""
    a1, a2, a3 = x.mats()
    b1, b2, b3 = y.mats()
    return TrialityTriple.from_mats(commutator(a1, b1), commutator(a2, b2), commutator(a3, b3))


def satisfies_triality(alg: CompAlg, t: TrialityTriple) -> bool:
    """theta3(e_i e_j) == theta1(e_i) e_j + e_i theta2(e_j) on all basis pairs."""
    n = alg.dim
    m1, m2, m3 = t.mats()
    for i in range(n):
        col1 = [m1[r][i] for r in range(n)]
        for j in range(n):
            col2 = [m2[r][j] for r in range(n)]
            prod = alg.ctable[i][j]
            lhs = [F0] * n
            for k, c in prod.items():
                for r in range(n):
                    lhs[r] += c * m3[r][k]
            rhs = alg.multiply(col1, alg.basis_element(j))
            rhs2 = alg.multiply(alg.basis_element(i), col2)
            if any(lhs[r] != rhs[r] + rhs2[r] for r in range(n)):
                return False
    return True


class TrialityAlgebra:
    """t(A) with a basis (Cartan-adapted), bracket data, K form and Psi maps."""

    def __init__(self, alg: CompAlg):
        self.alg = alg
        self.basis, self.cartan_dim = self._compute_basis()
        self.dim = len(self.basis)
        if self.dim:
            self._solver = SolveCache([t.flat() for t in self.basis])
        self._bracket_cache: Dict[Tuple[int, int], Vec] = {}
        self._psi_tables: Optional[List[Dict[Tuple[int, int], Vec]]] = None
        self._k_matrix: Optional[Mat] = None

    # -- basis ----------------------------------------------------------------

    def _compute_basis(self) -> Tuple[List[TrialityTriple], int]:
        """Basis of t(A), Cartan-first, and the number of Cartan elements."""
        alg = self.alg
        n = alg.dim
        so_basis = alg.so_q_basis()
        d = len(so_basis)
        if d == 0:
            return [], 0
        # Unknowns: coordinates of (theta1, theta2, theta3) in the so(Q) basis.
        # Row (i, j, r) is the e_r coefficient of
        #   theta3(e_i e_j) - theta1(e_i) e_j - e_i theta2(e_j),
        # read off the structure constants with theta(e_s) = sum_t m[t][s] e_t.
        ct = alg.ctable
        rows: List[Vec] = [[F0] * (3 * d) for _ in range(n ** 3)]
        for k, m in enumerate(so_basis):
            for t in range(n):
                for s, c in enumerate(m[t]):
                    if not c:
                        continue
                    for j in range(n):
                        for r, x in ct[t][j].items():
                            rows[(s * n + j) * n + r][k] -= c * x
                        for r, x in ct[j][t].items():
                            rows[(j * n + s) * n + r][d + k] -= c * x
            for i in range(n):
                for j in range(n):
                    for s, x in ct[i][j].items():
                        for r in range(n):
                            if m[r][s]:
                                rows[(i * n + j) * n + r][2 * d + k] += x * m[r][s]
        basis = []
        for v in nullspace(rows, 3 * d):
            v = primitive_integer_vector(v)
            mats = []
            for c in range(3):
                coords = v[c * d:(c + 1) * d]
                m = [[F0] * n for _ in range(n)]
                for k, x in enumerate(coords):
                    if x == 0:
                        continue
                    mk = so_basis[k]
                    for r in range(n):
                        for s in range(n):
                            if mk[r][s] != 0:
                                m[r][s] += x * mk[r][s]
                mats.append(m)
            basis.append(TrialityTriple.from_mats(*mats))
        return self._cartan_first(basis)

    def _cartan_first(self, basis: List[TrialityTriple]) -> Tuple[List[TrialityTriple], int]:
        """Reorder so that a basis of the diagonal (Cartan) subspace comes first.

        The Cartan basis is followed by the vectors of `basis`, in order, that
        are independent of those chosen before them; independence is read
        off one incremental echelon of the chosen flats, so each candidate is
        reduced once against the rows already there.  Returns the reordered
        basis and the dimension of the Cartan subspace.
        """
        if not basis:
            return basis, 0
        n = self.alg.dim
        flats = [t.flat() for t in basis]
        # Conditions: off-diagonal entries of all three components vanish.
        off_positions = [c * n * n + r * n + s
                         for c in range(3) for r in range(n) for s in range(n) if r != s]
        rows = [[f[pos] for f in flats] for pos in off_positions]
        cartan_coords = nullspace(rows, len(basis))
        cartan = [combine(primitive_integer_vector(v), basis) for v in cartan_coords]
        # Complete greedily to a full basis: keep the chosen flats in echelon
        # form, each row zero at the pivots of the rows before it, and take b
        # when its flat does not reduce to zero against them.
        echelon: List[Tuple[int, SVec]] = []

        def independent(t: TrialityTriple) -> bool:
            v = {i: x for i, x in enumerate(t.flat()) if x}
            for p, row in echelon:
                c = v.get(p)
                if c:
                    axpy(v, -c, row)
            if not v:
                return False
            p = min(v)
            inv = 1 / v[p]
            echelon.append((p, {i: x * inv for i, x in v.items()}))
            return True

        chosen = [t for t in cartan + basis if independent(t)]
        assert chosen[:len(cartan)] == cartan and len(chosen) == len(basis)
        return chosen, len(cartan)

    # -- coordinates and bracket ------------------------------------------------

    def coords(self, t: TrialityTriple) -> Vec:
        """Coordinates of a triple in the stored basis (raises if outside t(A))."""
        if self.dim == 0:
            if not t.is_zero():
                raise ValueError("nonzero triple in trivial t(A)")
            return []
        return self._solver.solve(t.flat())

    def from_coords(self, v: Sequence[Fraction]) -> TrialityTriple:
        if self.dim == 0:
            z = zeros(self.alg.dim, self.alg.dim)
            return TrialityTriple.from_mats(z, z, z)
        return combine(v, self.basis)

    def bracket_coords(self, k: int, l: int) -> Vec:
        """Coordinates of [basis_k, basis_l]; cached."""
        if (k, l) in self._bracket_cache:
            return self._bracket_cache[(k, l)]
        out = self.coords(triality_bracket(self.basis[k], self.basis[l]))
        self._bracket_cache[(k, l)] = out
        self._bracket_cache[(l, k)] = [-c for c in out]
        return out

    # -- order-3 symmetry --------------------------------------------------------

    def cyclic_shift(self, t: TrialityTriple, check: bool = True) -> TrialityTriple:
        """tau(theta) = (theta2, C theta3 C, C theta1 C); verified order 3.

        The naive shift (theta2, theta3, theta1) fails the triality relation
        in these split models; conjugating the two moved slots repairs it.
        """
        cj = self.alg.conj_matrix
        tw = lambda m: mat_mul(cj, mat_mul(m, cj))
        m1, m2, m3 = t.mats()
        out = TrialityTriple.from_mats(m2, tw(m3), tw(m1))
        if check and not satisfies_triality(self.alg, out):
            raise ValueError("cyclic_shift output fails the triality relation")
        return out

    # -- invariant form and Psi ---------------------------------------------------

    def trace_form(self, i: int) -> Mat:
        """Gram matrix of (x, y) -> trace(x_i y_i) on the stored basis."""
        mats = [t.component(i) for t in self.basis]
        return [[trace_of_product(a, b) for b in mats] for a in mats]

    def _calibrate(self) -> None:
        """Solve for the K normalization and the Psi_1 table simultaneously."""
        alg = self.alg
        n = alg.dim
        d = self.dim
        if d == 0:
            self._k_matrix = []
            self._psi_tables = [{}, {}, {}]
            return
        t_sum = self.trace_form(1)
        for i in (2, 3):
            extra = self.trace_form(i)
            t_sum = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(t_sum, extra)]
        sum_solver = SolveCache([[t_sum[r][c] for r in range(d)] for c in range(d)])
        raw: Dict[Tuple[int, int], Vec] = {}
        for p in range(n):
            for q in range(p + 1, n):
                ep, eq = alg.basis_element(p), alg.basis_element(q)
                f = []
                for t in self.basis:
                    m1 = t.component(1)
                    f.append(alg.qform(mat_vec(m1, ep), eq))
                raw[(p, q)] = sum_solver.solve(f)
        # Scale so that Psi_1(u ^ v)_2 x = conj(v)(u x) - conj(u)(v x) exactly.
        scale = None
        for (p, q), coords in raw.items():
            t = self.from_coords(coords)
            m2 = t.component(2)
            u, v = alg.basis_element(p), alg.basis_element(q)
            cu, cv = alg.conjugate(u), alg.conjugate(v)
            for j in range(n):
                x = alg.basis_element(j)
                target = [a - b for a, b in
                          zip(alg.multiply(cv, alg.multiply(u, x)),
                              alg.multiply(cu, alg.multiply(v, x)))]
                got = [m2[r][j] for r in range(n)]
                for tg, gt in zip(target, got):
                    if tg != 0 or gt != 0:
                        if gt == 0:
                            raise ValueError("Psi_1 slot-2 not proportional to the product map")
                        ratio = tg / gt
                        if scale is None:
                            scale = ratio
                        elif scale != ratio:
                            raise ValueError("inconsistent Psi_1 normalization ratios")
        if scale is None:
            scale = F1
        # K = (1/scale) * (tr1 + tr2 + tr3): duality K(Psi1(u^v), th) = Q(th_1 u, v).
        inv = 1 / scale
        self._k_matrix = [[inv * t_sum[r][c] for c in range(d)] for r in range(d)]
        tab1 = {pq: [scale * c for c in coords] for pq, coords in raw.items()}
        tab2 = {}
        tab3 = {}
        for (p, q), coords in tab1.items():
            t = self.from_coords(coords)
            tab2[(p, q)] = self.coords(self.cyclic_shift(self.cyclic_shift(t, check=False), check=False))
            u = alg.conjugate(alg.basis_element(p))
            v = alg.conjugate(alg.basis_element(q))
            t_conj = self.from_coords(self._wedge_sum(tab1, u, v))
            tab3[(p, q)] = self.coords(self.cyclic_shift(t_conj, check=False))
        self._psi_tables = [tab1, tab2, tab3]

    def _wedge_sum(self, table: Dict[Tuple[int, int], Vec], u: Sequence[Fraction],
                   v: Sequence[Fraction]) -> Vec:
        """sum over p < q of (u_p v_q - u_q v_p) table[(p, q)]: a map on u ^ v."""
        n = self.alg.dim
        acc = [F0] * self.dim
        for p in range(n):
            for q in range(p + 1, n):
                c = u[p] * v[q] - u[q] * v[p]
                if c == 0:
                    continue
                for k, x in enumerate(table[(p, q)]):
                    acc[k] += c * x
        return acc

    def psi_coords(self, i: int, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
        """Coordinates in the t(A) basis of Psi_i(u ^ v)."""
        if i not in (1, 2, 3):
            raise ValueError("Psi slot index must be 1, 2 or 3")
        if self._psi_tables is None:
            self._calibrate()
        return self._wedge_sum(self._psi_tables[i - 1], u, v)

    def k_matrix(self) -> Mat:
        if self._k_matrix is None:
            self._calibrate()
        return self._k_matrix

    def k_form_coords(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        """K on two coordinate vectors in the stored basis."""
        return bilinear(self.k_matrix(), x, y)

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


def triality_algebra(alg: CompAlg | AlgebraTag | str) -> TrialityAlgebra:
    """The one t(A) of the process for each tag name."""
    if isinstance(alg, str):
        alg = parse_tag(alg)
    return _triality_algebra(alg.tag.name if isinstance(alg, CompAlg) else alg.name)


@lru_cache(maxsize=None)
def _triality_algebra(name: str) -> TrialityAlgebra:
    return TrialityAlgebra(build_split_algebra(name))


def psi(ta: TrialityAlgebra, i: int, u: Sequence[Fraction], v: Sequence[Fraction]) -> TrialityTriple:
    return ta.from_coords(ta.psi_coords(i, u, v))
