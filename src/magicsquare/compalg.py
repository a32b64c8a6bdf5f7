"""Split composition algebras of dimension 1, 2, 4, 8 over the rationals.

C is R + R, written in its two orthogonal idempotents (1, 0) and (0, 1),
which the conjugation swaps.  H and O come from C by Cayley-Dickson
doubling with split sign, which keeps this idempotent-pair (hyperbolic)
basis: the quadratic form's Gram matrix is anti-diagonal in 2x2 blocks and
the diagonal matrices inside so(Q) form a split Cartan-friendly torus.
Products of basis elements are always 0 or +/- a basis element; the
composition law is verified exhaustively by the test suite rather than
assumed.  The conjugation is a signed permutation of the basis, read off
once per algebra; `CompAlg.slot_product` is the one place where the mixed
triality slots multiply through it.

Conventions: qform is the polarized norm, qform(x, x) = x * conj(x) read
off in the unit direction, and qform(e, e) = 1 for the unit e.  In the
hyperbolic basis the nonzero Gram entries are +/- 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple, Union

from .exact import rat_str
from .linalg import (
    F0,
    F1,
    IntMap,
    Mat,
    SVec,
    Vec,
    identity,
    int_maps,
    mat_vec,
    nullspace,
)


@dataclass(frozen=True)
class AlgebraTag:
    name: str
    dim: int


R_TAG = AlgebraTag("R", 1)
C_TAG = AlgebraTag("C", 2)
H_TAG = AlgebraTag("H", 4)
O_TAG = AlgebraTag("O", 8)

TAGS = {"R": R_TAG, "C": C_TAG, "H": H_TAG, "O": O_TAG}
# The tag of each dimension; an integral Fraction finds its tag too.
TAG_BY_DIM = {t.dim: t for t in TAGS.values()}
# What the cached constructors take for an algebra; `parse_tag` reads each kind.
TagLike = Union[AlgebraTag, "CompAlg", str]


def parse_tag(name: TagLike) -> AlgebraTag:
    """The tag of a name (any case, padded), of an `AlgebraTag` or of a `CompAlg`:
    the one tag rule of the cached constructors; ValueError on anything else."""
    tag = name.tag if isinstance(name, CompAlg) else name
    if tag in TAGS.values():
        return tag
    key = tag.strip().upper() if isinstance(tag, str) else None
    if key not in TAGS:
        raise ValueError(f"unknown composition algebra tag {name!r}; expected R, C, H or O")
    return TAGS[key]


AlgElement = List[Fraction]


def _one_per_column(mat: Mat, error: str) -> List[Tuple[int, Fraction]]:
    """(j, mat[j][i]) for the single nonzero entry of each column i; ValueError(error) otherwise."""
    out = []
    for i in range(len(mat)):
        nz = [(j, row[i]) for j, row in enumerate(mat) if row[i] != 0]
        if len(nz) != 1:
            raise ValueError(error)
        out.append(nz[0])
    return out


class CompAlg:
    """A split composition algebra with exact rational structure constants."""

    def __init__(self, tag: AlgebraTag, ctable: List[List[SVec]], conj: Mat,
                 gram: Mat, unit: Vec):
        self.tag = tag
        self.dim = tag.dim
        self.ctable = ctable          # ctable[i][j] = sparse product e_i * e_j
        self.conj_matrix = conj
        self.gram = gram
        self.unit = unit
        # (partner[i], gram[partner[i]][i]) for the unique nonzero entry of
        # each Gram column i (partner[i] = i for dim 1).
        self._pairing = _one_per_column(gram, "gram is not hyperbolic-paired")
        self.partner = [j for j, _ in self._pairing]
        # conj[i] = (j, c) with conj(e_i) = c e_j.
        self.conj = _one_per_column(conj, "conjugation is not a signed permutation")

    # -- algebra operations --------------------------------------------------

    def multiply(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> AlgElement:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("element dimension mismatch")
        out = [F0] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if xi:
                row = self.ctable[i]
                for j, yj in ys:
                    for k, c in row[j].items():
                        out[k] += xi * yj * c
        return out

    def slot_product(self, s: int, p: int, q: int) -> SVec:
        """e_p in triality slot s times e_q in slot s+1, landing in slot s+2.

        The cyclic rule of the mixed slots: e_p e_q, e_q conj(e_p) and
        conj(e_q) e_p for s = 0, 1, 2.
        """
        if not (0 <= p < self.dim and 0 <= q < self.dim):
            raise IndexError(f"basis index out of range: ({p}, {q})")
        if s == 0:
            return self.ctable[p][q]
        if s == 1:
            j, c = self.conj[p]
            return {k: c * x for k, x in self.ctable[q][j].items()}
        if s == 2:
            j, c = self.conj[q]
            return {k: c * x for k, x in self.ctable[j][p].items()}
        raise ValueError(f"triality slot {s} is not 0, 1 or 2")

    def conjugate(self, x: Sequence[Fraction]) -> AlgElement:
        if len(x) != self.dim:
            raise ValueError("element dimension mismatch")
        return mat_vec(self.conj_matrix, x)

    def qform(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("element dimension mismatch")
        # x^T G y over the one nonzero entry of each Gram column.
        out = F0
        for i, (j, c) in enumerate(self._pairing):
            if x[j] and y[i]:
                out += x[j] * c * y[i]
        return out

    def basis_element(self, i: int) -> AlgElement:
        if not 0 <= i < self.dim:
            raise IndexError(f"basis index out of range: {i}")
        v = [F0] * self.dim
        v[i] = F1
        return v

    # -- so(Q) ----------------------------------------------------------------

    def so_q_basis(self) -> Tuple[List[IntMap], int]:
        """Basis of {M : M^T Q + Q M = 0} as the integer column maps D M
        (column j is D M e_j) and their common denominator D."""
        n = self.dim
        rows = []
        for r in range(n):
            for c in range(r, n):
                # equation (M^T Q + Q M)[r][c] = 0, unknowns M[i][j] flattened
                row: SVec = {}
                for k in range(n):
                    if self.gram[k][c] != 0:
                        row[k * n + r] = row.get(k * n + r, F0) + self.gram[k][c]
                    if self.gram[r][k] != 0:
                        row[k * n + c] = row.get(k * n + c, F0) + self.gram[r][k]
                rows.append(row)
        return int_maps([{divmod(k, n): x for k, x in v.items()} for v in nullspace(rows, n * n)])

    def dump(self) -> dict:
        return {
            "dim": self.dim,
            "tag": self.tag.name,
            "unit": [rat_str(c) for c in self.unit],
            "structure_constants": [
                [{str(k): rat_str(c) for k, c in self.ctable[i][j].items()}
                 for j in range(self.dim)]
                for i in range(self.dim)
            ],
            "gram": [[rat_str(c) for c in row] for row in self.gram],
            "conjugation": [[rat_str(c) for c in row] for row in self.conj_matrix],
        }


# -- Cayley-Dickson construction ---------------------------------------------


def _base_r() -> CompAlg:
    ctable = [[{0: F1}]]
    return CompAlg(R_TAG, ctable, identity(1), [[F1]], [F1])


def _double(alg: CompAlg) -> Tuple[List[List[SVec]], Mat, Mat, Vec]:
    """Split Cayley-Dickson double: (a,b)(c,d) = (ac + d conj(b), conj(a) d + c b).

    With conj(e_i) = c e_k, the basis products in the quadrants (h, h') =
    (0,0), (0,1), (1,0), (1,1) are e_i e_j, c e_k e_j, e_j e_i and c e_j e_k,
    in half (h + h') mod 2.
    """
    n = alg.dim
    m = 2 * n

    def basis_prod(ih: int, i: int, jh: int, j: int) -> SVec:
        k, c = alg.conj[i]
        x, y, sign = ((i, j, F1), (k, j, c), (j, i, F1), (j, k, c))[2 * ih + jh]
        half = n * ((ih + jh) % 2)
        return {t + half: sign * v for t, v in alg.ctable[x][y].items()}

    ctable = [[basis_prod(*divmod(i, n), *divmod(j, n)) for j in range(m)] for i in range(m)]
    conj = [[F0] * m for _ in range(m)]
    for r in range(n):
        for c in range(n):
            conj[r][c] = alg.conj_matrix[r][c]
    for r in range(n):
        conj[n + r][n + r] = -F1
    gram = [[F0] * m for _ in range(m)]
    for r in range(n):
        for c in range(n):
            gram[r][c] = alg.gram[r][c]
            gram[n + r][n + c] = -alg.gram[r][c]
    unit = list(alg.unit) + [F0] * n
    return ctable, conj, gram, unit


def build_split_algebra(tag: TagLike) -> CompAlg:
    """The split composition algebra of the given tag, in its hyperbolic basis.

    There is one CompAlg per tag name in a process.
    """
    return _split_algebra(parse_tag(tag).name)


@lru_cache(maxsize=None)
def _split_algebra(name: str) -> CompAlg:
    if name == "R":
        return _base_r()
    # C = R + R: two orthogonal idempotents, swapped by the conjugation.
    half = Fraction(1, 2)
    c_alg = CompAlg(C_TAG, [[{0: F1}, {}], [{}, {1: F1}]], [[F0, F1], [F1, F0]],
                    [[F0, half], [half, F0]], [F1, F1])
    if name == "C":
        return c_alg
    ct, cj, gm, un = _double(c_alg)
    h_alg = CompAlg(H_TAG, ct, cj, gm, un)
    if name == "H":
        return h_alg
    ct, cj, gm, un = _double(h_alg)
    return CompAlg(O_TAG, ct, cj, gm, un)
