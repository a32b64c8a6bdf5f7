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

The invariant form K on t(A) is a single rational multiple of the sum of the
three componentwise trace forms.  Psi_i is the K-dual of slot i:

  * K(Psi_i(u ^ v), theta) = Q(theta_i(u), v)   for i = 1, 2, 3   (duality),

solved on the basis pairs e_p ^ e_q, p < q.  K is shared by the three
slots, so one multiple serves all of them; it is fixed on slot 1 by

  * Psi_1(u ^ v)_2 x  =  conj(v)(u x) - conj(u)(v x)   (bracket scale).

The tables this gives also satisfy Psi_2 = tau^2 Psi_1 and
Psi_3(u ^ v) = tau Psi_1(conj u ^ conj v) for the conjugation-twisted shift
tau(theta1, theta2, theta3) = (theta2, C theta3 C, C theta1 C), C the
conjugation of A; the test suite checks this on every basis pair.
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
    nullspace,
    primitive_integer_vector,
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


class TrialityAlgebra:
    """t(A) with a basis (Cartan-adapted), bracket data, K form and Psi maps."""

    def __init__(self, alg: CompAlg):
        self.alg = alg
        self.basis, self.cartan_dim = self._compute_basis()
        self.dim = len(self.basis)
        if self.dim:
            self._solver = SolveCache([t.flat() for t in self.basis])
        self._bracket_cache: Dict[Tuple[int, int], Vec] = {}
        self._psi_tables: Optional[List[Dict[Tuple[int, int], SVec]]] = None
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

    # -- invariant form and Psi ---------------------------------------------------

    def _calibrate(self) -> None:
        """Solve for K and the three Psi tables from the one duality rule.

        K is 1/scale times the sum S of the trace forms tr(x_i y_i) over the
        slots i = 1, 2, 3.  For each slot i and basis pair p < q, the
        coordinates c of Psi_i(e_p ^ e_q) solve S c = scale f, with
        f[k] = Q(theta^k_i e_p, e_q) = sum_r theta^k_i[r][p] gram[r][q] read
        off the entries of basis triple k.  The scale makes
        Psi_1(u ^ v)_2 x = conj(v)(u x) - conj(u)(v x); K is shared by the
        slots, so it serves all three.  Each table maps (p, q) to the sparse
        coordinates of Psi_i(e_p ^ e_q), zero images left out.
        """
        alg = self.alg
        n = alg.dim
        d = self.dim
        if d == 0:
            self._k_matrix = []
            self._psi_tables = [{}, {}, {}]
            return
        gram = alg.gram
        comps = [(t.theta1, t.theta2, t.theta3) for t in self.basis]
        # tr(x_i y_i) = sum over the nonzero entries x_i[r][s] of x_i[r][s] y_i[s][r].
        entries = [[(i, r, s, x) for i, m in enumerate(ms) for r, row in enumerate(m)
                    for s, x in enumerate(row) if x] for ms in comps]
        t_sum = [[sum((x * my[i][s][r] for i, r, s, x in ex if my[i][s][r]), F0)
                  for my in comps] for ex in entries]
        sum_solver = SolveCache([[t_sum[r][c] for r in range(d)] for c in range(d)])
        raw: List[Dict[Tuple[int, int], Vec]] = []
        for i in range(3):
            table = {}
            for p in range(n):
                for q in range(p + 1, n):
                    f = [sum((ms[i][r][p] * gram[r][q] for r in range(n) if gram[r][q]), F0)
                         for ms in comps]
                    table[(p, q)] = sum_solver.solve(f)
            raw.append(table)
        # Scale so that Psi_1(u ^ v)_2 x = conj(v)(u x) - conj(u)(v x) exactly.
        scale = None
        for (p, q), coords in raw[0].items():
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
        inv = 1 / scale
        self._k_matrix = [[inv * t_sum[r][c] for c in range(d)] for r in range(d)]
        self._psi_tables = []
        for solved in raw:
            table = {}
            for pq, coords in solved.items():
                sv = {k: scale * c for k, c in enumerate(coords) if c}
                if sv:
                    table[pq] = sv
            self._psi_tables.append(table)

    def psi_table(self, i: int) -> Dict[Tuple[int, int], SVec]:
        """(p, q) -> sparse coordinates of Psi_i(e_p ^ e_q), p < q, zero images left out."""
        if i not in (1, 2, 3):
            raise ValueError("Psi slot index must be 1, 2 or 3")
        if self._psi_tables is None:
            self._calibrate()
        return self._psi_tables[i - 1]

    def psi_coords(self, i: int, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
        """Coordinates in the t(A) basis of Psi_i(u ^ v)."""
        acc = [F0] * self.dim
        for (p, q), sv in self.psi_table(i).items():
            c = u[p] * v[q] - u[q] * v[p]
            if c:
                for k, x in sv.items():
                    acc[k] += c * x
        return acc

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
