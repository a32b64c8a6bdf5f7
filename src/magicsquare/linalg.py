"""Small exact linear algebra toolkit over Fraction.

Dense matrices are lists of lists of Fraction; sparse vectors (`SVec`) are
dict[int, Fraction] with no zero stored.  `Echelon` is the one elimination
on sparse rows, whose forward step `rref` shares; `nullspace` and
`SolveCache` go through `rref` and never form a dense row (the t(O)
triality constraint has 320 nonzero rows of 84 columns, about two entries
each).  `int_inverse` is the one elimination of a dense square matrix:
fraction-free on integers, it inverts the Gram, Cartan and chart matrices
of `roots` and gives their leading minors.
Every linear map of the package (the so(Q) basis, the components of a t(A)
triple, D ad(b_i) in the bracket table and D rho(b_i) in a module) is stored
one way: D times the map, for a common denominator D, as an integer column
map (`IntMap`), column j the tuple of the (k, c) pairs of the image of
basis vector j, zero columns left out.  `int_maps` builds such maps from
(row, col) -> value entries, `int_column` one column from a sparse vector,
`int_apply_into` is the one apply and `int_rep_defect_pair` the one
representation-axiom kernel; with an empty bracket it is the commutator,
which is how `triality` brackets t(A).  `int_vectors` scales sparse rational vectors
to integers over their least denominator, and `int_rows` dense ones (the
root data of `roots` run on those integer keys, with `int_mat_vec` and
`int_dot`): `SolveCache` solves on its
columns and its inverse in that form, and the bracket table and the module
forms convert their inputs with it.  Zero tests go by truthiness (`if c:`), which
holds for int and Fraction entries alike and calls no `Fraction.__eq__`;
`bilinear` and `mat_vec` raise ValueError on a vector whose length does not
fit the matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

Vec = List[Fraction]
Mat = List[Vec]
SVec = Dict[int, Fraction]
# A matrix as its (row, col) -> value entries, the input of `int_maps`.
Entries = Dict[Tuple[int, int], Fraction]
# An integer column map: column j as the tuple of its nonzero (k, c) pairs.
IntCol = Tuple[Tuple[int, int], ...]
IntMap = Dict[int, IntCol]

F0 = Fraction(0)
F1 = Fraction(1)


def zeros(n: int, m: int) -> Mat:
    return [[F0] * m for _ in range(n)]


def identity(n: int) -> Mat:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = F1
    return out


def transpose(a: Mat) -> Mat:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c == 0:
                continue
            bt = b[t]
            for j in range(m):
                if bt[j] != 0:
                    oi[j] += c * bt[j]
    return out


def mat_vec(a: Mat, v: Sequence[Fraction]) -> Vec:
    """A v; ValueError when v's length is not the row length of A."""
    n = len(v)
    if any(len(row) != n for row in a):
        raise ValueError("mat_vec: vector length differs from the matrix's")
    nonzero = [j for j in range(n) if v[j]]
    return [sum((row[j] * v[j] for j in nonzero), F0) for row in a]


def bilinear(gram: Mat, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    """x^T G y for a dense Gram matrix G; ValueError when x or y does not fit G."""
    if len(x) != len(gram) or any(len(row) != len(y) for row in gram):
        raise ValueError("bilinear: vector length differs from the matrix's")
    ys = [(c, b) for c, b in enumerate(y) if b]
    out = F0
    for r, a in enumerate(x):
        if a:
            row = gram[r]
            for c, b in ys:
                if row[c]:
                    out += a * row[c] * b
    return out


def sparse(v: Sequence[Fraction]) -> SVec:
    """The nonzero entries of a dense vector, keyed by position."""
    return {i: c for i, c in enumerate(v) if c}


def axpy(out: SVec, c: Fraction, v: SVec) -> None:
    """out += c v in place, dropping the entries that cancel to zero."""
    for k, x in v.items():
        nv = out.get(k, F0) + c * x
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)


def _eliminate(row: SVec, c: Fraction, pivot: SVec) -> None:
    """row -= c pivot in place, dropping what cancels; no multiply when c is +-1."""
    if c == 1:
        terms = ((k, -x) for k, x in pivot.items())
    elif c == -1:
        terms = pivot.items()
    else:
        terms = ((k, -c * x) for k, x in pivot.items())
    for k, x in terms:
        old = row.get(k)
        if old is None:
            row[k] = x
        else:
            nv = old + x
            if nv:
                row[k] = nv
            else:
                del row[k]


class Echelon:
    """An incremental row echelon of sparse vectors over Q.

    Each stored row is keyed by its pivot, its least index, where it is 1.
    `add` clears the leading entry of a copy of v (zero entries dropped)
    against the row with that pivot until the lead is no pivot, so v reduces
    to zero iff it lies in the span of the rows; otherwise the rest, scaled
    by F1 / lead, is stored, so a stored row is Fraction even for integer
    input.  This forward step is the one elimination on sparse rows: `rref`
    back-substitutes its rows.
    """

    def __init__(self) -> None:
        self.rows: Dict[int, SVec] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, v: SVec) -> bool:
        """Store v if it is independent of the rows; True if it was."""
        rows = self.rows
        row = {k: c for k, c in v.items() if c}
        while row:
            lead = min(row)
            pivot = rows.get(lead)
            if pivot is None:
                inv = F1 / row[lead]
                rows[lead] = {k: x * inv for k, x in row.items()}
                return True
            _eliminate(row, row[lead], pivot)
        return False


def int_column(col: SVec, d: int) -> IntCol:
    """d col as the tuple of its (k, c) pairs, for a d that every denominator divides."""
    return tuple((k, x.numerator * (d // x.denominator)) for k, x in col.items())


def int_maps(entries: Sequence[Entries], d: int = 1) -> Tuple[List[IntMap], int]:
    """The maps with the given (row, col) -> value entries as integer column
    maps D m, with D the least multiple of d that clears their denominators.

    Zero values and empty columns are left out, and each column lists its
    rows in increasing order, so equal maps over equal D store equal pairs.
    """
    d = lcm(d, *(x.denominator for m in entries for x in m.values() if x))
    maps = []
    for m in entries:
        cols: Dict[int, SVec] = {}
        for (r, j), x in sorted(m.items()):
            if x:
                cols.setdefault(j, {})[r] = x
        maps.append({j: int_column(col, d) for j, col in cols.items()})
    return maps, d


def int_apply_into(out: SVec, m: IntMap, v: SVec, c: Fraction = F1) -> None:
    """out += c m v for an integer column map m, leaving what cancels as zeros;
    on an int v and an int c every entry stays an int."""
    for j, x in v.items():
        col = m.get(j)
        if col:
            x *= c
            for k, y in col:
                out[k] = out.get(k, 0) + x * y


def int_rep_defect_pair(rows: Sequence[IntMap], br: IntCol, i: int, j: int,
                        first_k: Optional[int] = None, dim: Optional[int] = None) -> Dict[int, int]:
    """The representation defect of the pair i, j on integer maps rows[t] = D A_t.

    With br = D [b_i, b_j], column k is D^2 ([A_i, A_j] - sum_t br_t A_t) e_k,
    for every k >= first_k (default j + 1); for ad it is minus the Jacobi sum
    of i, j, k.  Entry (k, s) is keyed k dim + s, dim the dimension the maps
    act on (default len(rows), as for ad), so no two entries collide.
    Entries that cancel stay as zeros: column k vanishes iff none is nonzero.
    """
    n = len(rows) if dim is None else dim
    if first_k is None:
        first_k = j + 1
    out: Dict[int, int] = {}
    get = out.get
    for left, right, sign in ((rows[i], j, 1), (rows[j], i, -1)):
        # sign A_left A_right: column k of A_right, then A_left on each entry.
        for k, col_k in rows[right].items():
            if k < first_k:
                continue
            base = k * n
            for t, x in col_k:
                col = left.get(t)
                if col:
                    x *= sign
                    for s, y in col:
                        key = base + s
                        out[key] = get(key, 0) + x * y
    for t, x in br:
        for k, col in rows[t].items():
            if k < first_k:
                continue
            base = k * n
            for s, y in col:
                key = base + s
                out[key] = get(key, 0) - x * y
    return out


def rref(rows: Sequence[SVec]) -> Tuple[List[SVec], List[int]]:
    """Reduced row echelon form of sparse rows; returns (rows, pivot columns).

    The forward step is `Echelon.add` on each row; then each row, in
    decreasing pivot order, clears its entries at the later pivots against
    the rows already reduced.  The reduced rows come in increasing pivot
    order, each with a 1 at its pivot and no zero stored.
    """
    echelon = Echelon()
    for row in rows:
        echelon.add(row)
    red = echelon.rows
    pivots = sorted(red)
    for p in reversed(pivots):
        row = red[p]
        for q in [q for q in row if q != p and q in red]:
            _eliminate(row, row[q], red[q])
    return [red[p] for p in pivots], pivots


def nullspace(rows: List[SVec], ncols: int) -> List[SVec]:
    """Basis of {x : A x = 0} for the sparse rows of A with ncols columns.

    One sparse vector per free (non-pivot) column of the RREF, in increasing
    order: that variable 1, inserted first, and each pivot variable minus
    its reduced row's entry at the free column, where that entry is nonzero.
    """
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = {c: {c: F1} for c in range(ncols) if c not in pivot_set}
    for pc, row in zip(pivots, red):
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = -x
    return list(basis.values())


class SolveCache:
    """Repeated exact solves expressing sparse vectors in a fixed independent column set.

    The n columns of A are sparse vectors; m, one past their largest index,
    is the offset of the identity block.  One rref of the sparse rows of
    [A^T | I] finds n pivot positions P, rows of A on which the columns are
    independent, and the inverse of A_P, the n x n restriction of A to
    those rows (leads go by least index, so only the two blocks' relative
    order matters).  Solving A x = b runs on integers: D_A A and the
    columns of D_inv (A_P)^-1, for their least denominators D_A and D_inv,
    are made once, with the solver.  b is scaled to B = L b by the lcm L of
    its denominators, X = D_inv (A_P)^-1 B_P is accumulated on ints from the
    columns at the nonzero entries of B on P, and the reconstruction is
    checked exactly, on ints: A x = b for x = X / (D_inv L) iff
    (D_A A) X = D_A D_inv B.  Since A_P is invertible, it holds iff b lies
    in the span.  x comes back as `Fraction`s; b and x are sparse, no zero
    stored.
    """

    def __init__(self, columns: Sequence[SVec]):
        self.columns: List[SVec] = list(columns)
        m = 1 + max((k for col in self.columns for k in col), default=-1)
        red, pivots = rref([{**col, m + j: F1} for j, col in enumerate(self.columns)])
        if pivots and pivots[-1] >= m:
            raise ValueError("SolveCache: columns are not independent")
        # red = E [A^T | I] with E A^T = I on the pivot columns, so the right
        # block E is the transpose of (A_P)^-1: row r of it is column r.
        self.pivots = pivots
        self._position = {p: r for r, p in enumerate(pivots)}
        self.inverse_columns: List[SVec] = [{k - m: x for k, x in row.items() if k >= m}
                                            for row in red]
        # (D_A A, D_A) and (D_inv (A_P)^-1, D_inv) by `int_vectors`.
        self._integers = int_vectors(self.columns), int_vectors(self.inverse_columns)

    def solve(self, b: SVec) -> SVec:
        """Coefficients x with columns @ x = b; raises if b is outside the span."""
        (columns, d_cols), (inverse, d_inv) = self._integers
        (big,), scale = int_vectors([b])
        x: Dict[int, int] = {}
        for i, c in big.items():
            r = self._position.get(i)
            if r is not None:
                for j, y in inverse[r].items():
                    x[j] = x.get(j, 0) + c * y
        s = d_cols * d_inv
        residual = {i: s * c for i, c in big.items()}
        for j, xj in x.items():
            if xj:
                for k, a in columns[j].items():
                    residual[k] = residual.get(k, 0) - xj * a
        if any(residual.values()):
            raise ValueError("SolveCache.solve: vector outside column span")
        d = d_inv * scale
        return {j: Fraction(xj, d) for j, xj in x.items() if xj}


def int_vectors(vectors: Sequence[SVec]) -> Tuple[List[Dict[int, int]], int]:
    """The vectors times the least D that clears their denominators, as int
    dicts in the same key order with no zero stored, and D; entries may be
    int or Fraction."""
    d = lcm(*{x.denominator for v in vectors for x in v.values()})
    if d == 1:
        return [{k: x.numerator for k, x in v.items() if x} for v in vectors], d
    return [{k: x.numerator * (d // x.denominator) for k, x in v.items() if x}
            for v in vectors], d


def int_rows(vectors: Sequence[Sequence[Fraction]]) -> Tuple[List[Tuple[int, ...]], int]:
    """Dense vectors times the least D that clears their denominators, as int
    tuples in the same order, and D; entries may be int or Fraction."""
    d = lcm(*{x.denominator for v in vectors for x in v})
    if d == 1:
        return [tuple(x.numerator for x in v) for v in vectors], d
    return [tuple(x.numerator * (d // x.denominator) for x in v) for v in vectors], d


def int_mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> List[int]:
    """A v for an integer matrix and vector, over the nonzero entries of v."""
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    return [sum(row[j] * x for j, x in nonzero) for row in a]


def int_dot(x: Sequence[int], y: Sequence[int]) -> int:
    """x . y for integer vectors, over the nonzero entries of x."""
    return sum(a * b for a, b in zip(x, y) if a)


def int_inverse(a: Sequence[Sequence[int]]) -> Tuple[List[List[int]], int, List[int]]:
    """(Q, d, minors) with A^-1 = Q / d for a square integer matrix A.

    Fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22 (1968) 565-578) on
    the rows of [A | I]: step k swaps into place the first row from k on
    with a nonzero entry in column k, its pivot p, and sets every other row
    r to (p r - r_k P) / p', P the pivot row and p' the previous pivot (1 at
    first), an exact division.  The left block ends as d I, d the last pivot
    (+-det A), and the right block is Q.  Until the first swap the k-th
    pivot is the k-th leading minor of A, and `minors` lists those: the
    leading minors up to the first zero one.  ValueError when A is not
    square or is singular.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("int_inverse: matrix is not square")
    m = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)]
    prev, minors = 1, []
    for k in range(n):
        swap = next((i for i in range(k, n) if m[i][k]), None)
        if swap is None:
            raise ValueError("int_inverse: matrix is singular")
        m[k], m[swap] = m[swap], m[k]
        if swap == k == len(minors):  # no swap so far: the pivot is a leading minor
            minors.append(m[k][k])
        row, pivot = m[k], m[k][k]
        m = [r if r is row else [(pivot * x - r[k] * y) // prev for x, y in zip(r, row)]
             for r in m]
        prev = pivot
    return [row[n:] for row in m], prev, minors


def primitive_integer_vector(v: SVec) -> SVec:
    """Rescale a sparse rational vector to integer entries with content 1.

    The scale is the lcm of the denominators over the gcd of the numerators
    of the nonzero entries; its sign makes the entry at the least index
    positive, whatever the order of the keys.  Stored zeros are dropped.
    """
    nonzero = {k: x for k, x in v.items() if x}
    if not nonzero:
        return {}
    den = lcm(*(x.denominator for x in nonzero.values()))
    num = gcd(*(x.numerator for x in nonzero.values()))
    if nonzero[min(nonzero)] < 0:
        num = -num
    return {k: Fraction(x.numerator * (den // x.denominator) // num) for k, x in nonzero.items()}
