from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import gcd, prod

from magicsquare.exact import gen_binomial, rat
from magicsquare.linalg import F0, axpy, bilinear, int_maps, mat_mul, mat_vec, sparse, zeros
from magicsquare.modules import V_OMEGA_WEIGHTS, W_CUBIC_COEFFS
from magicsquare.roots import RootDatum, basis_weights, builtin_datum, cartan_chart
from magicsquare.series import F1, HALF, VARIETY_RAYS, hilbert_ray
from magicsquare.triality import TrialityTriple, combine


def e_vector(n, i):
    """The i-th standard basis vector of length n, dense."""
    v = [F0] * n
    v[i] = Fraction(1)
    return v


def dense_matrix(m, n, d=1):
    """The map of an integer column map m = D M (column j is D M e_j) over
    D = d, as a dense n x n matrix."""
    out = [[F0] * n for _ in range(n)]
    for j, col in m.items():
        for r, x in col:
            out[r][j] = Fraction(x, d)
    return out


def dense_mats(t):
    """The three components of a triple as dense matrices."""
    return tuple(dense_matrix(m, t.n, t.denominator) for m in t.thetas)


def dense_flat(t):
    """The three components of a triple, dense and flattened row by row."""
    return [x for m in dense_mats(t) for row in m for x in row]


def triple_from_mats(m1, m2, m3):
    """The triple whose components are the three dense matrices, in the
    canonical form: least D, rows in increasing order, no zero stored."""
    maps, d = int_maps([{(r, s): x for r, row in enumerate(m) for s, x in enumerate(row)}
                        for m in (m1, m2, m3)])
    return TrialityTriple(tuple(maps), len(m1), d)


def reference_bilinear(gram, x, y):
    """x^T G y term by term over the entries of G, skipping the terms with a zero factor."""
    return sum((x[r] * row[c] * y[c] for r, row in enumerate(gram) if x[r] != 0
                for c in range(len(y)) if row[c] != 0 and y[c] != 0), Fraction(0))


def omega_pair(mod, p, q):
    """Pair two module vectors through the module's Gram-matrix form."""
    return reference_bilinear(mod.form_data, p, q)


def reference_symplectic_gram(mod):
    """The Gram matrix of V's symplectic form, summed term by term over
    d_s * omega (x) Q on each A_s @ U_s (index 2a s + 2p + eps) and
    d0 * omega^(x)3 on UUU (index 6a + 4 al + 2 be + ga), omega(u0, u1) = 1."""
    alg = mod.parent.algA
    a = alg.dim
    d0, *ds = V_OMEGA_WEIGHTS

    def omega(x, y):
        return F0 if x == y else (F1 if (x, y) == (0, 1) else -F1)

    gram = zeros(mod.dimension, mod.dimension)
    for s in range(3):
        for p in range(a):
            for p2 in range(a):
                for e1 in range(2):
                    for e2 in range(2):
                        gram[2 * a * s + 2 * p + e1][2 * a * s + 2 * p2 + e2] += (
                            ds[s] * alg.gram[p][p2] * omega(e1, e2))
    for i in range(8):
        for j in range(8):
            w = d0
            for k in range(3):
                w *= omega((i >> k) & 1, (j >> k) & 1)
            gram[6 * a + i][6 * a + j] += w
    return gram


def reference_cubic(mod, u, v, w):
    """The symmetric trilinear polarization of W's invariant cubic
    C = 4 x1 x2 x3 - Q(X1 X2, X3) + x1 Q(X1,X1) - x2 Q(X2,X2) + x3 Q(X3,X3),
    through `CompAlg.multiply` and `qform` on the A-slot lists (X_s at
    indices s a .. s a + a - 1, x_s at 3a + s) over all six argument orders."""
    alg = mod.parent.algA
    a = alg.dim
    total = F0
    c_lines, c_theta, c1, c2, c3 = W_CUBIC_COEFFS
    for x, y, z in permutations((u, v, w)):
        total += c_lines * x[3 * a] * y[3 * a + 1] * z[3 * a + 2]
        x1, y2, z3 = x[:a], y[a:2 * a], z[2 * a:3 * a]
        total += c_theta * alg.qform(alg.multiply(x1, y2), z3)
        for s, cs in ((0, c1), (1, c2), (2, c3)):
            total += cs * x[3 * a + s] * alg.qform(y[s * a:(s + 1) * a], z[s * a:(s + 1) * a])
    return total / 6


def reference_invariant_form(g, x, y):
    """K on two dense elements of g(A,B), block by block: the K matrices of
    t(A) and t(B), and on each slot the pairing of m_s(p, q) with
    m_s(partner p, partner q) by Q_A Q_B."""
    dA, dAB = g.dA, g.dA + g.dB
    out = (bilinear(g.tA.k_matrix(), x[:dA], y[:dA])
           + bilinear(g.tB.k_matrix(), x[dA:dAB], y[dA:dAB]))
    gA, gB = g.algA.gram, g.algB.gram
    pA, pB = g.algA.partner, g.algB.partner
    for slot in range(3):
        for p in range(g.a):
            for q in range(g.b):
                out += (x[g.idx_m(slot, p, q)] * gA[p][pA[p]] * gB[q][pB[q]]
                        * y[g.idx_m(slot, pA[p], pB[q])])
    return out


def is_associative_triple(alg, x, y, z):
    """(x y) z == x (y z) in the composition algebra alg."""
    return alg.multiply(alg.multiply(x, y), z) == alg.multiply(x, alg.multiply(y, z))


def mul_scalar(lfp, c):
    """Multiply the scalar of a LinearFactorProduct by c in place."""
    lfp.scalar *= rat(c)


def k_form(t, x, y):
    """The invariant form K of t(A) on two triples, through their coordinates."""
    return bilinear(t.k_matrix(), t.coords(x), t.coords(y))


def chart_k_inverse(t):
    """The inverse of K on `cartan_chart(t)`, through `k_matrix` and `coords`."""
    coords = [t.coords(h) for h in cartan_chart(t)]
    return reference_inverse([[bilinear(t.k_matrix(), x, y) for y in coords] for x in coords])


def reference_gram(g):
    """The Gram of g(A,B) from K: the inverses of K on the charts of t(B)
    and t(A) as diagonal blocks (t(B) first), which K leaves orthogonal,
    scaled so the longest roots have squared length 2 (K may be negative
    definite)."""
    gB, gA = chart_k_inverse(g.tB), chart_k_inverse(g.tA)
    gram = [row + [F0] * len(gA) for row in gB] + [[F0] * len(gB) + row for row in gA]
    keys, d = basis_weights(g)
    roots = [[Fraction(x, d) for x in w] for w in keys if any(w)]
    scale = 2 / max((bilinear(gram, r, r) for r in roots), key=abs)
    return [[scale * x for x in row] for row in gram]


def slot_trace_sum(t):
    """S[r][c] = sum over the slots i of tr(x_i y_i) for x = basis r and
    y = basis c of t(A), through dense Fraction matrices."""
    n, mats = t.alg.dim, [dense_mats(b) for b in t.basis]
    return [[sum((x[i][r][c] * y[i][c][r] for i in range(3) for r in range(n) for c in range(n)
                  if x[i][r][c]), F0) for y in mats] for x in mats]


def reference_calibration(t):
    """K and the three Psi tables of t(A) solved from the duality rule
    K(Psi_i(u ^ v), theta) = Q(theta_i(u), v): the reference for the closed
    forms of `TrialityAlgebra._calibrate`.

    K = S / scale for the slot trace sum S; the coordinates c of
    Psi_i(e_p ^ e_q), p < q, solve S c = scale f with
    f[k] = Q(theta^k_i e_p, e_q), by `reference_inverse` of S.  The one scale
    makes Psi_1(u ^ v)_2 x = conj(v)(u x) - conj(u)(v x) on every basis pair
    and basis vector x; ValueError when no one scale does.  Returns
    (K, [table_1, table_2, table_3]), each table (p, q) -> sparse
    coordinates, zero images left out."""
    alg, n = t.alg, t.alg.dim
    s = slot_trace_sum(t)
    s_inv = reference_inverse(s) if s else []
    mats = [dense_mats(b) for b in t.basis]
    e = [e_vector(n, p) for p in range(n)]
    raw = [{(p, q): mat_vec(s_inv, [alg.qform(mat_vec(m[i], e[p]), e[q]) for m in mats])
            for p in range(n) for q in range(p + 1, n)} for i in range(3)]
    scale = None
    for (p, q), c in raw[0].items():
        got = dense_combination(c, t.basis)[1]
        for j in range(n):
            target = [a - b for a, b in zip(
                alg.multiply(alg.conjugate(e[q]), alg.multiply(e[p], e[j])),
                alg.multiply(alg.conjugate(e[p]), alg.multiply(e[q], e[j])))]
            for r in range(n):
                if target[r] or got[r][j]:
                    if not got[r][j]:
                        raise ValueError("Psi_1 slot 2 is not proportional to the product map")
                    ratio = target[r] / got[r][j]
                    if scale is not None and ratio != scale:
                        raise ValueError("inconsistent Psi_1 normalization ratios")
                    scale = ratio
    scale = F1 if scale is None else scale
    k = [[x / scale for x in row] for row in s]
    tables = [{pq: sparse([scale * x for x in c]) for pq, c in table.items() if any(c)}
              for table in raw]
    return k, tables


def so8_with_exceptional_markers():
    """Builtin so8 with the exceptional markers from its fundamental weights:
    g = w2, X2 = w1 + w3 + w4, X3 = 2 w1 + 2 w4, Y2star = 2 w1."""
    rd = builtin_datum("so8")
    w1, w2, w3, w4 = rd.fundamental_weights()
    markers = {"adjoint": rd.markers["adjoint"], "g": w2,
               "X2": tuple(a + b + c for a, b, c in zip(w1, w3, w4)),
               "X3": tuple(2 * a + 2 * b for a, b in zip(w1, w4)),
               "Y2star": tuple(2 * a for a in w1)}
    return RootDatum("so8", rd.rank, rd.positive_roots, rd.gram, markers)


def satisfies_triality(alg, t):
    """theta3(e_i e_j) == theta1(e_i) e_j + e_i theta2(e_j) on all basis pairs."""
    n = alg.dim
    m1, m2, m3 = dense_mats(t)
    for i in range(n):
        col1 = [m1[r][i] for r in range(n)]
        for j in range(n):
            col2 = [m2[r][j] for r in range(n)]
            lhs = [F0] * n
            for k, c in alg.ctable[i][j].items():
                for r in range(n):
                    lhs[r] += c * m3[r][k]
            rhs = alg.multiply(col1, alg.basis_element(j))
            rhs2 = alg.multiply(alg.basis_element(i), col2)
            if any(lhs[r] != rhs[r] + rhs2[r] for r in range(n)):
                return False
    return True


def cyclic_shift(alg, t):
    """The twisted shift tau(theta) = (theta2, C theta3 C, C theta1 C), C the conjugation.

    The plain rotation (theta2, theta3, theta1) leaves t(A) in these split
    models; conjugating the two moved slots keeps the triality relation.
    """
    cj = alg.conj_matrix
    m1, m2, m3 = dense_mats(t)
    return triple_from_mats(m2, mat_mul(cj, mat_mul(m3, cj)), mat_mul(cj, mat_mul(m1, cj)))


def commutator(a, b):
    """ab - ba for dense matrices, subtracting only the nonzero terms of ba from ab.

    The dense reference for the column-map commutator of `triality_bracket`.
    """
    out = mat_mul(a, b)
    for oi, bi in zip(out, b):
        for t, c in enumerate(bi):
            if c == 0:
                continue
            for j, x in enumerate(a[t]):
                if x != 0:
                    oi[j] -= c * x
    return out


def dense_combination(coeffs, triples):
    """sum_i coeffs[i] triples[i] as three dense matrices, entry by entry."""
    n = triples[0].n
    out = tuple([[F0] * n for _ in range(n)] for _ in range(3))
    for c, t in zip(coeffs, triples):
        for acc, m in zip(out, dense_mats(t)):
            for acc_row, row in zip(acc, m):
                for s, x in enumerate(row):
                    acc_row[s] += c * x
    return out


def stores_no_zero(t):
    """No component of the triple stores an empty column or a zero entry, and
    each column lists its rows in increasing order."""
    return all(col and all(c for _, c in col) and [r for r, _ in col] == sorted(r for r, _ in col)
               for m in t.thetas for col in m.values())


def describe_index(g, i):
    """Name of basis index i of a magic algebra g: tA[k], tB[k] or m<slot>[p,q]."""
    if i < g.dA:
        return f"tA[{i}]"
    if i < g.dA + g.dB:
        return f"tB[{i - g.dA}]"
    i -= g.dA + g.dB
    slot, rest = divmod(i, g.a * g.b)
    p, q = divmod(rest, g.b)
    return f"m{slot + 1}[{p},{q}]"


def gram_matrix(g):
    """The invariant form of a magic algebra g on its basis, as a dense matrix."""
    basis = [g.basis_element(i) for i in range(g.dim)]
    return [[g.invariant_form(x, y) for y in basis] for x in basis]


def reference_rref(rows):
    """Dense reduced row echelon form: (rows, pivot columns), by column-wise pivoting.

    The reference for the sparse `linalg.rref`; an RREF is unique, so both
    must agree exactly on the nonzero rows.
    """
    a = [row[:] for row in rows]
    n = len(a)
    m = len(a[0]) if a else 0
    pivots = []
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


def reference_nullspace(rows, ncols):
    """Basis of {x : A x = 0} for dense rows, read off `reference_rref`, free variables set to 1."""
    red, pivots = reference_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [F0] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def leibniz_det(m):
    """The determinant as the signed sum over permutations."""
    n, out = len(m), Fraction(0)
    for p in permutations(range(n)):
        sign = (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        out += sign * prod((m[i][p[i]] for i in range(n)), start=Fraction(1))
    return out


def reference_inverse(a):
    """The inverse of a dense square matrix from `reference_rref` of [A | I]."""
    n = len(a)
    red, pivots = reference_rref([row[:] + [Fraction(int(i == j)) for j in range(n)]
                                  for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ValueError("singular")
    return [row[n:] for row in red]


def reference_solver(cols):
    """A dense Fraction solve in the span of independent dense columns A, by
    the normal equations: x = (A^T A)^-1 A^T b, then A x = b checked entry by
    entry; ValueError when b is outside the span.  The reference for
    `linalg.SolveCache`, with no pivot positions and no integer scaling."""
    m = len(cols[0])
    gram_inv = reference_inverse([[sum((u[i] * v[i] for i in range(m) if u[i] and v[i]), F0)
                                   for v in cols] for u in cols])

    def solve(b):
        atb = [sum((col[i] * b[i] for i in range(m) if b[i] and col[i]), F0) for col in cols]
        x = [sum((g * c for g, c in zip(row, atb) if g and c), F0) for row in gram_inv]
        if [sum((xj * col[i] for xj, col in zip(x, cols) if xj and col[i]), F0)
                for i in range(m)] != list(b):
            raise ValueError("outside the span")
        return x

    return solve


def dense_action(mod, x, v):
    """rho(b_x) v for a module, through the dense Fraction matrix of its action."""
    return mat_vec(dense_matrix(mod.actions[x], mod.dimension, mod.denominator), v)


def reference_primitive_integer_vector(v):
    """v scaled by the lcm of all denominators, divided by the gcd, first nonzero entry positive."""
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
    if next(x for x in ints if x != 0) < 0:
        ints = [-x for x in ints]
    return [Fraction(x) for x in ints]


def full_rank(a):
    """A dense matrix has rank equal to its number of rows, by `reference_rref`."""
    return len(reference_rref(a)[1]) == len(a)


def reference_triality_basis(alg):
    """t(A)'s Cartan-first basis and Cartan dimension by the direct construction.

    The constraint rows come from `alg.multiply` on basis vectors, the
    elimination is the dense `reference_rref`, and the Cartan-first
    completion runs one `reference_rref` per candidate on the whole trial
    set.  `TrialityAlgebra` must give the same basis, triple for triple.
    """
    n = alg.dim
    so_maps, so_d = alg.so_q_basis()
    so_basis = [dense_matrix(m, n, so_d) for m in so_maps]
    d = len(so_basis)
    if d == 0:
        return [], 0
    rows = []
    for i in range(n):
        ei = alg.basis_element(i)
        for j in range(n):
            ej = alg.basis_element(j)
            prod = alg.ctable[i][j]
            for r in range(n):
                row = [F0] * (3 * d)
                for k, m in enumerate(so_basis):
                    col = [m[t][i] for t in range(n)]
                    row[k] -= alg.multiply(col, ej)[r]
                    col = [m[t][j] for t in range(n)]
                    row[d + k] -= alg.multiply(ei, col)[r]
                    row[2 * d + k] += sum((c * m[r][kk] for kk, c in prod.items()), F0)
                rows.append(row)
    basis = []
    for v in reference_nullspace(rows, 3 * d):
        v = reference_primitive_integer_vector(v)
        mats = []
        for c in range(3):
            m = [[F0] * n for _ in range(n)]
            for k, x in enumerate(v[c * d:(c + 1) * d]):
                for r in range(n):
                    for s in range(n):
                        m[r][s] += x * so_basis[k][r][s]
            mats.append(m)
        basis.append(triple_from_mats(*mats))
    flats = [dense_flat(t) for t in basis]
    off_positions = [c * n * n + r * n + s
                     for c in range(3) for r in range(n) for s in range(n) if r != s]
    rows = [[f[pos] for f in flats] for pos in off_positions]
    cartan = [combine(sparse(reference_primitive_integer_vector(v)), basis)
              for v in reference_nullspace(rows, len(basis))]
    chosen = list(cartan)
    for b in basis:
        if full_rank([dense_flat(t) for t in chosen] + [dense_flat(b)]):
            chosen.append(b)
    return chosen, len(cartan)


def reference_simple_roots(rd):
    """The simple roots of a datum by comparing every pair of positive roots.

    A positive root is simple when no other positive root leaves a positive
    root when subtracted from it; they come in decreasing chart order.
    """
    pos = set(rd.positive_roots)
    simple = []
    for a in rd.positive_roots:
        decomposable = False
        for b in rd.positive_roots:
            c = tuple(x - y for x, y in zip(a, b))
            if any(c) and c in pos:
                decomposable = True
                break
        if not decomposable:
            simple.append(a)
    simple.sort(reverse=True)
    return simple


def reference_frame(rd):
    """The frame of a datum on Fractions, by the scan of `RootDatum._frame`
    on chart coordinates and the Gram itself: the positive roots by
    increasing (alpha, rho), rho half their Fraction sum; a root is simple
    unless it is a simple root found so far plus a root already seen.
    Returns the simple roots (decreasing chart order), the Cartan matrix,
    the rows 2 G alpha_i / (alpha_i, alpha_i) whose product with a weight is
    its Dynkin labels, the simple-root coordinates of each positive root and
    the norms (alpha_i, alpha_i)."""
    roots, gram = rd.positive_roots, rd.gram
    rho = [sum(c, F0) / 2 for c in zip(*roots)]
    height = mat_vec(roots, mat_vec(gram, rho))
    sign = -1 if sum(height) < 0 else 1
    seen = {tuple([F0] * rd.rank): {}}
    simple, ip = [], {}
    for k in sorted(range(len(roots)), key=lambda k: sign * height[k]):
        for i, s in enumerate(simple):
            c = seen.get(tuple(x - y for x, y in zip(roots[k], roots[s])))
            if c is not None:
                seen[tuple(roots[k])] = {**c, i: c.get(i, 0) + 1}
                break
        else:
            n, ga = len(simple), mat_vec(gram, roots[k])
            simple.append(k)
            for i, s in enumerate(simple):
                ip[i, n] = ip[n, i] = sum((x * y for x, y in zip(roots[s], ga)), F0)
            seen[tuple(roots[k])] = {n: 1}
    order = sorted(range(len(simple)), key=lambda i: roots[simple[i]], reverse=True)
    return {
        "simple": [roots[simple[i]] for i in order],
        "cartan": [[2 * ip[i, j] / ip[j, j] for j in order] for i in order],
        "label_rows": [[2 * x / ip[i, i] for x in mat_vec(gram, roots[simple[i]])]
                       for i in order],
        "coords": [tuple(seen[tuple(r)].get(i, 0) for i in order) for r in roots],
        "norms": [ip[i, i] for i in order],
    }


def reference_weyl_dim(rd, w):
    """prod (w + rho, alpha) / (rho, alpha) over the positive roots, in chart coordinates."""
    rho = rd.rho
    num = den = Fraction(1)
    for a in rd.positive_roots:
        ga = [(t, x) for t, x in enumerate(mat_vec(rd.gram, a)) if x]
        ra = sum((rho[t] * x for t, x in ga), F0)
        num *= ra + sum((w[t] * x for t, x in ga), F0)
        den *= ra
    return num / den


def fraction_view(maps, d):
    """Integer column maps D A_t as the Fraction column maps A_t."""
    return [{j: {k: Fraction(c, d) for k, c in col} for j, col in m.items()} for m in maps]


def fraction_table(g):
    """The bracket table of g as Fractions: tab[i][j] = [b_i, b_j] as a sparse vector."""
    return fraction_view(g.table(), g.denominator)


def rep_defect_column(maps, br, i, j, k):
    """([A_i, A_j] - sum_t br_t A_t) e_k for the Fraction column maps A_t = maps[t].

    With br = [b_i, b_j] this is the representation axiom on the pair i, j,
    read off one column; b -> A_b is a representation iff it vanishes for
    every i, j, k.  For the bracket table itself (A_t = ad b_t) it is minus
    the Jacobi sum of the triple i, j, k.  The reference of
    `linalg.int_rep_defect_pair`, applying the maps by its own `axpy` loop.
    """
    out = {}
    for left, right, sign in ((i, j, F1), (j, i, -F1)):
        for t, x in maps[right].get(k, {}).items():
            col = maps[left].get(t)
            if col:
                axpy(out, sign * x, col)
    for t, c in br.items():
        col = maps[t].get(k)
        if col:
            axpy(out, -c, col)
    return out


def int_rep_defect_column(rows, br, i, j, k):
    """`rep_defect_column` on integer maps rows[t] = D A_t with br = D [b_i, b_j], one triple.

    The result is D^2 times the Fraction defect; entries that cancel stay as
    zeros, so the column vanishes iff no value is nonzero.
    """
    out = {}
    for t, x in rows[j].get(k, ()):
        for s, y in rows[i].get(t, ()):
            out[s] = out.get(s, 0) + x * y
    for t, x in rows[i].get(k, ()):
        for s, y in rows[j].get(t, ()):
            out[s] = out.get(s, 0) - x * y
    for t, x in br:
        for s, y in rows[t].get(k, ()):
            out[s] = out.get(s, 0) - x * y
    return out


def reference_jacobi_count(g):
    """Triples i<j<k whose per-triple integer defect column is nonzero."""
    n = g.dim
    tab = g.table()
    return sum(any(int_rep_defect_column(tab, tab[i].get(j, ()), i, j, k).values())
               for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n))


def falling_factorial(x, k):
    """x (x-1) ... (x-k+1), exact."""
    if k < 0:
        raise ValueError("falling_factorial: k must be >= 0")
    x = rat(x)
    out = Fraction(1)
    for i in range(k):
        out *= (x - i)
    return out


def reference_adjoint_cartan_power(k, a):
    """dim g^(k) along the exceptional series, each binomial a separate gen_binomial product."""
    if k < 0:
        raise ValueError("k must be >= 0")
    a = rat(a)
    if 3 * a + 5 == 0:
        raise ZeroDivisionError("pole at 3a+5 = 0")
    b = gen_binomial
    num = b(k + 2 * a + 3, k) * b(k + Fraction(5, 2) * a + 3, k) * b(k + 3 * a + 4, k)
    den = b(k + a / 2 + 1, k) * b(k + a + 1, k)
    if den == 0:
        raise ZeroDivisionError("pole in the binomial denominator")
    return (3 * a + 2 * k + 5) / (3 * a + 5) * num / den


# The dimension of each orbit variety, typed from the paper: an independent
# reference for `series.ray_degree`, which reads it off the descriptor rows.
VARIETY_DIMENSIONS = {
    "ad": lambda a: 6 * a + 9,
    "fplanes": lambda a: 9 * a + 11,
    "flines": lambda a: 11 * a + 9,
    "fpoints": lambda a: 9 * a + 6,
    "subexc_ad": lambda a: 4 * a + 1,
    "subexc_X": lambda a: 3 * a + 3,
    "subexc_X_printed": lambda a: 3 * a + 3,
    "subexc_flines": lambda a: 5 * a + 2,
    "subexc_flines_printed": lambda a: 5 * a + 2,
}


def reference_degree_from_hilbert(variety, a):
    """(dim X)! times the leading Hilbert coefficient: a pointwise Fraction finite
    difference with a running Fraction binomial, "ad" from separate closed forms."""
    a = rat(a)
    d = VARIETY_DIMENSIONS[variety](a)
    if d.denominator != 1:
        raise ValueError("variety dimension not integral here")
    if d < 0:
        raise ValueError(f"variety dimension {d} is negative here")
    d = int(d)
    if variety == "ad":
        values = [reference_adjoint_cartan_power(k, a) for k in range(d + 1)]
    else:
        values = hilbert_ray(*VARIETY_RAYS[variety], a, d)
    acc = F0
    sign = 1 if d % 2 == 0 else -1
    binom = F1
    for i in range(d + 1):
        acc += sign * binom * values[i]
        sign = -sign
        binom = binom * (d - i) / (i + 1)
    return acc


def is_palindromic(poly):
    """True iff the coefficient list of a QPoly reads the same both ways."""
    return poly.coeffs == poly.coeffs[::-1]


def reference_q_product(exps):
    """prod (1 - q^n)^e_n for e_n >= 0 by plain convolution, as a coefficient list."""
    out = [1]
    for n, e in exps.items():
        factor = [1] + [0] * (n - 1) + [-1]
        for _ in range(e):
            prod = [0] * (len(out) + n)
            for i, x in enumerate(out):
                for j, y in enumerate(factor):
                    prod[i + j] += x * y
            out = prod
    while out and out[-1] == 0:
        out.pop()
    return out


def unit_root(c):
    """The intervals of one root at (rho, alpha) = c, a form (c0, c1) in the parameter a."""
    return ((c, c),)


def afold_class(c):
    """The intervals of an a-fold class around c: its root at c and its a - 1
    roots at c - a/2 + 1, ..., c + a/2 - 1."""
    return (c, c), ((c[0] + 1, c[1] - HALF), (c[0] - 1, c[1] + HALF))


def recompute_exceptional_rows():
    """Regenerate the 24 exceptional rows from hand-rolled so8 data."""
    eps = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]

    def dot(x, y):
        return sum(Fraction(a) * Fraction(b) for a, b in zip(x, y))

    pos_roots = []
    for i in range(4):
        for j in range(i + 1, 4):
            for s in (1, -1):
                pos_roots.append(tuple(Fraction(eps[i][t] + s * eps[j][t])
                                       for t in range(4)))
    spinor = []
    for s2 in (1, -1):
        for s3 in (1, -1):
            for s4 in (1, -1):
                spinor.append((HALF, s2 * HALF, s3 * HALF, s4 * HALF))
    sigma = [tuple(map(Fraction, e)) for e in eps] + spinor
    rho = (Fraction(3), Fraction(2), Fraction(1), Fraction(0))
    gamma = (Fraction(5, 2), HALF, HALF, HALF)
    markers = [(1, 1, 0, 0), (2, 1, 1, 0), (3, 1, 1, 1), (2, 0, 0, 0)]
    rows = []
    for alpha in pos_roots:
        pair = tuple(int(dot(m, alpha)) for m in markers)
        rows.append((pair, unit_root((dot(rho, alpha), dot(gamma, alpha)))))
    for beta in sigma:
        pair = tuple(int(dot(m, beta)) for m in markers)
        rows.append((pair, afold_class((dot(rho, beta), dot(gamma, beta)))))
    return rows


def recompute_subexceptional_rows():
    """Regenerate the 9 subexceptional rows from sl2 x sl2 x sl2 data."""
    def dot(x, y):
        return sum(Fraction(a) * Fraction(b) for a, b in zip(x, y)) * HALF

    alphas = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
    gammas = []
    for i in range(3):
        for j in range(i + 1, 3):
            for s in (1, -1):
                w = [0, 0, 0]
                w[i] = 1
                w[j] = s
                gammas.append(tuple(w))
    rho = (1, 1, 1)
    gamma = (2, 1, 0)
    markers = [(2, 0, 0), (1, 1, 1), (2, 2, 0)]
    rows = []
    for alpha in alphas:
        pair = tuple(int(dot(m, alpha)) for m in markers)
        rows.append((pair, unit_root((dot(rho, alpha), dot(gamma, alpha)))))
    for beta in gammas:
        pair = tuple(int(dot(m, beta)) for m in markers)
        rows.append((pair, afold_class((dot(rho, beta), dot(gamma, beta)))))
    return rows


def recompute_severi_rows():
    """Regenerate the 3 Severi rows from the plane z1+z2+z3 = 0 metric."""
    third = Fraction(1, 3)
    sixth = Fraction(1, 6)
    gram = [[third if i == j else -sixth for j in range(3)] for i in range(3)]

    def dot(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(3) for j in range(3))

    omegas = [(F1, F0, F0), (F0, F1, F0), (F0, F0, F1)]

    def diff(i, j):
        return tuple(omegas[i][t] - omegas[j][t] for t in range(3))

    w = tuple(2 * c for c in omegas[0])
    wstar = tuple(-2 * c for c in omegas[2])
    gamma = diff(0, 2)
    rows = []
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        beta = diff(i, j)
        pair = (int(dot(w, beta)), int(dot(wstar, beta)))
        rows.append((pair, afold_class((F0, dot(gamma, beta)))))
    return rows


def rows_match(rows, expected):
    """Multiset equality of descriptor rows with (pairings, intervals) pairs."""
    return sorted((r.pairings, r.intervals) for r in rows) == sorted(expected)


def so_family_root_pairings(t):
    """Counter of ((theta, alpha), (rho, alpha)) over the positive roots alpha of
    D_{t+2} with (theta, alpha) != 0, theta = e1 + e2 the highest root."""
    n = t + 2
    rho = [n - 1 - i for i in range(n)]
    out = Counter()
    for i in range(n):
        for j in range(i + 1, n):
            for s in (1, -1):
                alpha = [0] * n
                alpha[i], alpha[j] = 1, s
                pairing = alpha[0] + alpha[1]
                if pairing:
                    out[pairing, sum(r * x for r, x in zip(rho, alpha))] += 1
    return out
