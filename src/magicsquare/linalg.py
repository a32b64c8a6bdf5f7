"""Small exact linear algebra toolkit over Fraction.

Dense matrices are lists of lists of Fraction; sparse vectors are
dict[int, Fraction] with no zero values stored.  A linear map acting on a
Lie algebra or on a module is a column map: dict[int, SVec] whose entry j
is the image of basis vector j, with zero columns left out; `columns`
builds one from (row, col) -> value entries, and `map_combination` adds
scaled maps.  `Echelon` is the one incremental row echelon of sparse
vectors, for independence tests and rank counts.  For the Jacobi check a
list of column maps is scaled to integers by the lcm of its denominators
(`scaled_int_columns`), and the representation defect of a pair i, j is
formed on all columns k from a first one on at once (`int_rep_defect_pair`).
Sizes in this package stay below a few hundred, so straightforward Gaussian
elimination is fine.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

Vec = List[Fraction]
Mat = List[Vec]
SVec = Dict[int, Fraction]
ColMap = Dict[int, SVec]
# A matrix as its (row, col) -> value entries, the input of `columns`.
Entries = Dict[Tuple[int, int], Fraction]
# A column map scaled to integers, as a list: row[j] is None or the (k, c)
# pairs of column j.
IntCol = Tuple[Tuple[int, int], ...]
IntCols = List[Optional[IntCol]]

F0 = Fraction(0)
F1 = Fraction(1)


def zeros(n: int, m: int) -> Mat:
    return [[F0] * m for _ in range(n)]


def identity(n: int) -> Mat:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = F1
    return out


def mat_copy(a: Mat) -> Mat:
    return [row[:] for row in a]


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
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j] != 0), F0) for row in a]


def bilinear(gram: Mat, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    """x^T G y for a dense Gram matrix G."""
    out = F0
    for r, a in enumerate(x):
        if a == 0:
            continue
        row = gram[r]
        for c, b in enumerate(y):
            if b != 0 and row[c] != 0:
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


def apply_into(out: SVec, m: ColMap, v: SVec, c: Fraction = F1) -> None:
    """out += c m v for a column map m and a sparse vector v."""
    for j, x in v.items():
        col = m.get(j)
        if col:
            axpy(out, c * x, col)


def map_combination(coeffs: Sequence[Fraction], maps: Sequence[ColMap]) -> ColMap:
    """sum_k coeffs[k] maps[k] as a column map, dropping what cancels to zero."""
    out: ColMap = {}
    for c, m in zip(coeffs, maps):
        if c:
            for j, col in m.items():
                axpy(out.setdefault(j, {}), c, col)
                if not out[j]:
                    del out[j]
    return out


def columns(m: Entries) -> ColMap:
    """The column map of a matrix given by its (row, col) -> value entries.

    Zero values are dropped, so a column whose entries all cancel is left out.
    """
    out: ColMap = {}
    for (i, j), x in m.items():
        if x:
            out.setdefault(j, {})[i] = x
    return out


class Echelon:
    """An incremental row echelon of sparse vectors over Q.

    Each stored row is keyed by its pivot, its least index, where it is 1.
    `add` clears the leading entry of a copy of v against the row with that
    pivot until the lead is no pivot, so v reduces to zero iff it lies in
    the span of the rows; otherwise the rest, scaled to lead 1, is stored.
    """

    def __init__(self) -> None:
        self.rows: Dict[int, SVec] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, v: SVec) -> bool:
        """Store v if it is independent of the rows; True if it was."""
        rows = self.rows
        row = dict(v)
        while row:
            lead = min(row)
            pivot = rows.get(lead)
            if pivot is None:
                inv = 1 / row[lead]
                rows[lead] = {k: c * inv for k, c in row.items()}
                return True
            axpy(row, -row[lead], pivot)
        return False


def rep_defect_column(maps: Sequence[ColMap], br: SVec, i: int, j: int, k: int) -> SVec:
    """([A_i, A_j] - sum_t br_t A_t) e_k for the column maps A_t = maps[t].

    With br = [b_i, b_j] this is the representation axiom on the pair i, j,
    read off one column; b -> A_b is a representation iff it vanishes for
    every i, j, k.  For the bracket table itself (A_t = ad b_t) it is minus
    the Jacobi sum of the triple i, j, k.
    """
    out: SVec = {}
    apply_into(out, maps[i], maps[j].get(k, {}))
    apply_into(out, maps[j], maps[i].get(k, {}), -F1)
    for t, c in br.items():
        col = maps[t].get(k)
        if col:
            axpy(out, -c, col)
    return out


def scaled_int_columns(maps: Sequence[ColMap],
                       n: int) -> Tuple[int, List[IntCols], List[List[int]]]:
    """D, the lcm of every denominator in maps, each map times D as IntCols of
    length n, and the sorted nonzero columns of each map."""
    d = 1
    for m in maps:
        for col in m.values():
            for c in col.values():
                d = lcm(d, c.denominator)
    # One shared (k, c) tuple per distinct pair (e8: 736 of 17184 entries).
    pairs: Dict[Tuple[int, int], Tuple[int, int]] = {}
    out = []
    for m in maps:
        row: IntCols = [None] * n
        for j, col in m.items():
            row[j] = tuple(pairs.setdefault(p, p) for p in
                           ((k, c.numerator * (d // c.denominator)) for k, c in col.items()))
        out.append(row)
    return d, out, [sorted(m) for m in maps]


def int_rep_defect_pair(rows: Sequence[IntCols], nonzero: Sequence[List[int]],
                        br: Optional[IntCol], i: int, j: int,
                        first_k: Optional[int] = None) -> Dict[int, int]:
    """`rep_defect_column` for every k >= first_k at once, on integer maps rows[t] = D A_t.

    first_k defaults to j + 1.  br = D [b_i, b_j], and rows and nonzero are
    as `scaled_int_columns` gives them.  Entry (k, s) of the defect is keyed
    k n + s, n = len(rows), and is D^2 times the Fraction one; entries that
    cancel stay as zeros, so column k vanishes iff none of its values is
    nonzero.
    """
    n = len(rows)
    if first_k is None:
        first_k = j + 1
    out: Dict[int, int] = {}
    get = out.get
    for left, right, sign in ((rows[i], j, 1), (rows[j], i, -1)):
        # sign A_left A_right: column k of A_right, then A_left on each entry.
        row = rows[right]
        cols = nonzero[right]
        for k in cols[bisect_left(cols, first_k):]:
            base = k * n
            for t, x in row[k]:
                col = left[t]
                if col:
                    x *= sign
                    for s, y in col:
                        key = base + s
                        out[key] = get(key, 0) + x * y
    for t, x in br or ():
        row = rows[t]
        cols = nonzero[t]
        for k in cols[bisect_left(cols, first_k):]:
            base = k * n
            for s, y in row[k]:
                key = base + s
                out[key] = get(key, 0) - x * y
    return out


def rref(rows: Mat) -> tuple[Mat, List[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    a = mat_copy(rows)
    n = len(a)
    m = len(a[0]) if a else 0
    pivots: List[int] = []
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, n) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv if x else x for x in a[r]]
        for i in range(n):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return a[:r], pivots


def nullspace(rows: Mat, ncols: Optional[int] = None) -> List[Vec]:
    """Basis of {x : A x = 0} from the RREF, free variables set to 1."""
    m = ncols if ncols is not None else (len(rows[0]) if rows else 0)
    if not rows:
        return [e_vector(m, i) for i in range(m)]
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(m) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [F0] * m
        v[fc] = F1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def e_vector(n: int, i: int) -> Vec:
    v = [F0] * n
    v[i] = F1
    return v


class SolveCache:
    """Repeated exact solves expressing vectors in a fixed independent column set.

    One rref of [A^T | I] (A has the n given columns, of length m) finds n
    pivot positions P, rows of A on which the columns are independent, and
    the inverse of A_P, the n x n restriction of A to those rows.  Solving
    A x = b is then x = (A_P)^-1 b_P, followed by the exact reconstruction
    check A x == b: since A_P is invertible, it holds iff b lies in the span.
    The rows of (A_P)^-1 and the columns of A are kept as sparse vectors,
    and b is given as one.
    """

    def __init__(self, columns: Mat):
        n = len(columns)
        m = len(columns[0]) if columns else 0
        red, pivots = rref([list(col) + e_vector(n, j) for j, col in enumerate(columns)])
        if pivots and pivots[-1] >= m:
            raise ValueError("SolveCache: columns are not independent")
        # red = E [A^T | I] with E A^T = I on the pivot columns, so the right
        # block E is the transpose of (A_P)^-1.
        self.pivots = pivots
        self.inverse_rows: List[SVec] = [{r: row[m + j] for r, row in enumerate(red) if row[m + j]}
                                         for j in range(n)]
        self.columns: List[SVec] = [sparse(col) for col in columns]

    def solve(self, b: SVec) -> Vec:
        """Coefficients x with columns @ x = b for a sparse b; raises if b is outside the span."""
        bp = [b.get(i, F0) for i in self.pivots]
        x = [sum((c * bp[r] for r, c in row.items() if bp[r]), F0) for row in self.inverse_rows]
        residual = dict(b)
        for xj, col in zip(x, self.columns):
            if xj:
                axpy(residual, -xj, col)
        if residual:
            raise ValueError("SolveCache.solve: vector outside column span")
        return x


def det(a: Mat) -> Fraction:
    """Determinant by fraction-free style elimination over Fraction."""
    n = len(a)
    m = mat_copy(a)
    out = F1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return F0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


def inverse(a: Mat) -> Mat:
    n = len(a)
    aug = [a[i][:] + e_vector(n, i) for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("inverse: matrix is singular")
    return [row[n:] for row in red]


def primitive_integer_vector(v: Sequence[Fraction]) -> Vec:
    """Rescale a rational vector to integer entries with content 1.

    The sign is normalized so the first nonzero entry is positive.
    """
    denoms = [x.denominator for x in v if x != 0]
    if not denoms:
        return list(v)
    mult = 1
    for d in denoms:
        mult = mult * d // gcd(mult, d)
    ints = [int(x * mult) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    first = next(x for x in ints if x != 0)
    if first < 0:
        ints = [-x for x in ints]
    return [Fraction(x) for x in ints]
