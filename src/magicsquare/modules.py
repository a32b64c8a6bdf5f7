"""Distinguished modules over the middle rows of the square.

V(A), a g(A,H)-module of dimension 6a+8, is built on
    A_1@U_1 + A_2@U_2 + A_3@U_3 + U_1@U_2@U_3,
where U_1, U_2, U_3 are the defining 2-dimensional representations of the
three sl2 factors of t(H); it carries an invariant symplectic form.

W(A), a g(A,C+C)-module of dimension 3a+3, is built on
    A_1@L_1 + A_2@L_2 + A_3@L_3 + M_1 + M_2 + M_3
with L_i, M_i weight lines of the 2-torus t(C+C); it carries an invariant
cubic form x1 x2 x3 + theta(X1, X2, X3) built from the triality trilinear
Q(X1 X2, conj X3).

The graded pieces are glued by quadratic-form contractions, read off the
pairing partner of each basis vector, and by the slot multiplications of
`CompAlg.slot_product`, the rule the parent bracket uses: the forward map
A_s x A_{s+1} -> A_{s+2} is slot_product(s, p, y), the backward map
A_s x A_{s+2} -> A_{s+1} is slot_product(s+2, y, p).  The relative scalars
below were calibrated once by making the representation axiom hold on the
smallest members (a = 1) and are re-verified for every A by the test suite.
t(A) moves the A legs by `TrialityTriple.leg_action`, as in the parent
bracket; every other action is accumulated as (row, col) -> value entries
and turned into a column map by `linalg.columns`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Dict, List, Sequence, Tuple

from .linalg import (
    F0,
    F1,
    ColMap,
    Entries,
    SolveCache,
    SVec,
    Vec,
    apply_into,
    columns,
    map_combination,
    rep_defect_column,
    sparse,
    zeros,
)
from .magic import MagicAlgebra, build_magic_algebra
from .roots import cartan_chart, factor_weights, line_weights, slot_weights

# Contraction scalars for the V-module maps, in the order
#   (UUU -> A_s@U_s, A_s@U_s -> UUU, A_{s+1} -> A_{s+2}, A_{s+2} -> A_{s+1});
# fixed by the representation axiom on g(R,H) (unique in the searched gauge)
# and reused for every A.
V_SCALARS: Tuple[Fraction, ...] = (Fraction(1), Fraction(-2), Fraction(1), Fraction(1))
# Symplectic weights: Omega = d0 * Omega_UUU + sum_i d_i * (omega_i @ Q_i);
# solved from the invariance condition (unique up to scale).
V_OMEGA_WEIGHTS: Tuple[Fraction, ...] = (Fraction(1, 2), Fraction(1), Fraction(1), Fraction(1))

# Scalars for the W-module maps, per slot and orientation:
#   plus-orientation (M_{s+2} -> A_s, A_s -> M_{s+1}, A_{s+1} -> A_{s+2})
#   minus-orientation (M_{s+1} -> A_s, A_s -> M_{s+2}, A_{s+2} -> A_{s+1}).
# Solved symbolically from the representation axiom on g(R,C+C) (a
# one-parameter gauge family; this integral representative is fixed).
W_SCALARS_PLUS: Tuple[Tuple[Fraction, ...], ...] = (
    (Fraction(-2), Fraction(1), Fraction(-1)),
    (Fraction(2), Fraction(1), Fraction(1)),
    (Fraction(-2), Fraction(1), Fraction(1)),
)
W_SCALARS_MINUS: Tuple[Tuple[Fraction, ...], ...] = (
    (Fraction(-2), Fraction(1), Fraction(1)),
    (Fraction(-2), Fraction(-1), Fraction(-1)),
    (Fraction(-2), Fraction(1), Fraction(-1)),
)
# Invariant cubic in this gauge (solved, unique up to scale):
#   C = 4 x1 x2 x3 - Q(X1 X2, X3) + x1 Q(X1,X1) - x2 Q(X2,X2) + x3 Q(X3,X3).
# The two-term shape x1 x2 x3 + theta(X1,X2,X3) admits no invariant scalar at
# all; the determinant-style mixed terms are required, and the trilinear part
# is the unconjugated Q(X1 X2, X3).
W_CUBIC_COEFFS: Tuple[Fraction, ...] = (
    Fraction(4), Fraction(-1), Fraction(1), Fraction(-1), Fraction(1),
)


@dataclass
class GModule:
    parent: MagicAlgebra
    dimension: int
    actions: List[ColMap]       # rho(b_i) as a column map, per parent basis element
    form_kind: str              # "symplectic" | "cubic"
    form_data: object           # Gram matrix, or trilinear evaluator
    # The nonzero entries of a symplectic Gram, the ones its invariance
    # check visits (56 of 3,136 on V(O)); empty for a cubic form.
    form_entries: Entries = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.form_entries = ({(r, c): x for r, row in enumerate(self.form_data)
                              for c, x in enumerate(row) if x}
                             if self.form_kind == "symplectic" else {})

    def act_basis(self, i: int, v: Sequence[Fraction]) -> Vec:
        """rho(b_i) v for the parent basis element b_i, i in 0..parent.dim-1."""
        if not 0 <= i < len(self.actions):
            raise IndexError(f"parent basis index out of range: {i}")
        if len(v) != self.dimension:
            raise ValueError("element dimension mismatch")
        out: SVec = {}
        apply_into(out, self.actions[i], sparse(v))
        return [out.get(r, F0) for r in range(self.dimension)]

    def representation_defect(self, i: int, j: int) -> bool:
        """True if rho([b_i,b_j]) != [rho(b_i), rho(b_j)] for parent basis i, j."""
        br = self.parent.bracket_basis(i, j)
        return any(rep_defect_column(self.actions, br, i, j, k) for k in range(self.dimension))


# -- sl2 structure of the t(H) factors -----------------------------------------


def _sl2_factor_bases(g: MagicAlgebra) -> List[Dict[str, SVec]]:
    """For B = H: sparse coordinates (in the t(B) basis) of e, h, f per sl2 factor.

    h is the chart element h_fi of factor fi; e and f are the basis vectors
    of weight +2 and -2 under it, with f scaled so that [e, f] = h.
    """
    tb = g.tB
    weights = factor_weights(tb)
    out = []
    for fi, h in enumerate(cartan_chart(tb)):  # factor fi acts trivially on slot fi+1
        hc = tb.sparse_coords(h)
        found = [[k for k, w in enumerate(weights) if w[fi] == c] for c in (2, -2)]
        if any(len(ks) != 1 for ks in found):
            raise ValueError("sl2 weight space not one-dimensional")
        (k,), (l,) = found
        ef = tb.bracket_coords(k, l)
        ratio = ef.get(min(hc), F0) / hc[min(hc)] if hc else None
        if not ratio:
            raise ValueError("degenerate sl2 triple")
        # normalize [e,f] = h
        if {t: c / ratio for t, c in ef.items()} != hc:
            raise ValueError("sl2 normalization failed")
        out.append({"h": hc, "e": {k: F1}, "f": {l: 1 / ratio}})
    return out


def _tensor_identification(g: MagicAlgebra, factors) -> List[SolveCache]:
    """Per slot s: the solver over the columns T_(2*eps+del), the coordinates in
    the H basis of the vector identified with u_eps(j) @ u_del(k), j,k the
    acting factors; it raises if the four are dependent."""
    tb = g.tB
    out = []
    for s in range(3):
        j, k = [i for i in range(3) if i != s]
        pos = {(w[j], w[k]): t for t, w in enumerate(slot_weights(tb)[s])}
        if len(pos) != 4:
            raise ValueError("slot weights are degenerate")
        # Lowering operators of the two factors, acting in slot s+1.
        slot_maps = [t.thetas[s] for t in tb.basis]
        fj, fk = (map_combination(factors[i]["f"], slot_maps) for i in (j, k))
        base = {pos[(F1, F1)]: F1}
        cols: List[SVec] = [base, {}, {}, {}]  # order: ++, +-, -+, --
        apply_into(cols[1], fk, base)
        apply_into(cols[2], fj, base)
        apply_into(cols[3], fk, cols[2])
        out.append(SolveCache(cols))
    return out


# -- the V module ------------------------------------------------------------------


class _VIndex:
    """Basis layout: (slot s, p, eps) for A_s @ U_s and (alpha,beta,gamma) for UUU."""

    def __init__(self, a: int):
        self.a = a
        self.dim = 6 * a + 8

    def au(self, s: int, p: int, eps: int) -> int:
        return s * 2 * self.a + p * 2 + eps

    def uuu(self, al: int, be: int, ga: int) -> int:
        return 6 * self.a + 4 * al + 2 * be + ga


def build_V_module(tag_a: str) -> GModule:
    """The distinguished symplectic module of g(A,H), dimension 6a+8."""
    g = build_magic_algebra(tag_a, "H")
    algA = g.algA
    a = algA.dim
    ix = _VIndex(a)
    dim = ix.dim
    factors = _sl2_factor_bases(g)
    tensors = _tensor_identification(g, factors)
    c1, c2, c3, c4 = V_SCALARS

    def omega(x: int, y: int) -> Fraction:
        # symplectic pairing of u_x, u_y in a 2-dim slot: omega(u0, u1) = 1
        if x == y:
            return F0
        return F1 if (x, y) == (0, 1) else -F1

    # t(A) moves the A leg of each A_s @ U_s, in the order of the U_s basis.
    legs = [[(ix.au(s, p, 0), ix.au(s, p, 1)) for p in range(a)] for s in range(3)]
    actions = [t.leg_action(legs) for t in g.tA.basis]

    # t(B) acts through the sl2 factor decomposition on the U legs.
    factor_cols = []
    for f in factors:
        factor_cols.extend([f["h"], f["e"], f["f"]])
    fact_solver = SolveCache(factor_cols)
    sl2_mats = {"h": [[F1, F0], [F0, -F1]], "e": [[F0, F1], [F0, F0]],
                "f": [[F0, F0], [F1, F0]]}

    for b in range(g.tB.dim):
        coords = fact_solver.solve({b: F1})
        m: Entries = defaultdict(Fraction)
        for fi in range(3):
            for wi, which in enumerate(("h", "e", "f")):
                coeff = coords.get(3 * fi + wi)
                if coeff is None:
                    continue
                u = sl2_mats[which]
                # on A_s @ U_s with s = fi
                for p in range(a):
                    for r in range(2):
                        for cc in range(2):
                            if u[r][cc] != 0:
                                m[ix.au(fi, p, r), ix.au(fi, p, cc)] += coeff * u[r][cc]
                # on UUU, slot fi of the triple tensor
                for al in range(2):
                    for be in range(2):
                        for ga in range(2):
                            idx = [al, be, ga]
                            for r in range(2):
                                if u[r][idx[fi]] != 0:
                                    jdx = list(idx)
                                    jdx[fi] = r
                                    m[ix.uuu(*jdx), ix.uuu(*idx)] += coeff * u[r][idx[fi]]
        actions.append(columns(m))

    # Mixed slots: e_p @ w with w in the H slot identified as u_eps(j) @ u_del(k).
    pA = algA.partner
    for s in range(3):
        jf, kf = [i for i in range(3) if i != s]
        s1, s2 = (s + 1) % 3, (s + 2) % 3
        for p in range(a):
            # (3) A_{s+1} @ U_{s+1} -> A_{s+2} @ U_{s+2} and (4) back.
            mults = ((s1, s2, c3, [algA.slot_product(s, p, y) for y in range(a)]),
                     (s2, s1, c4, [algA.slot_product(s2, y, p) for y in range(a)]))
            for q in range(4):
                m: Entries = defaultdict(Fraction)
                # decompose the H basis vector q into tensor coordinates
                tens = tensors[s].solve({q: F1})  # coords over ++, +-, -+, --
                for ci, coeff in sorted(tens.items()):
                    eps, dl = divmod(ci, 2)
                    # (1) UUU -> A_s @ U_s
                    for al in range(2):
                        for be in range(2):
                            for ga in range(2):
                                idx = [al, be, ga]
                                w = omega(eps, idx[jf]) * omega(dl, idx[kf])
                                if w == 0:
                                    continue
                                m[ix.au(s, p, idx[s]), ix.uuu(al, be, ga)] += c1 * coeff * w
                    # (2) A_s @ U_s -> UUU; Q(e_p, e_x) is nonzero only at x = partner[p]
                    for us in range(2):
                        idx = [None, None, None]
                        idx[s] = us
                        idx[jf] = eps
                        idx[kf] = dl
                        m[ix.uuu(*idx), ix.au(s, pA[p], us)] += c2 * coeff * algA.gram[p][pA[p]]
                    for src, dst, cs, prods in mults:
                        # U_src is the factor j or k matching index src
                        pair_eps, out_eps = (eps, dl) if src == jf else (dl, eps)
                        for y, prod in enumerate(prods):
                            for r, pv in prod.items():
                                for u in range(2):
                                    w = cs * coeff * omega(pair_eps, u) * pv
                                    if w != 0:
                                        m[ix.au(dst, r, out_eps), ix.au(src, y, u)] += w
                actions.append(columns(m))

    # Invariant symplectic form.
    d0, d1, d2, d3 = V_OMEGA_WEIGHTS
    gram = zeros(dim, dim)
    ds = (d1, d2, d3)
    for s in range(3):
        for p in range(a):
            for p2 in range(a):
                qv = algA.gram[p][p2]
                if qv == 0:
                    continue
                for e1 in range(2):
                    for e2 in range(2):
                        w = omega(e1, e2)
                        if w != 0:
                            gram[ix.au(s, p, e1)][ix.au(s, p2, e2)] += ds[s] * qv * w
    for al in range(2):
        for be in range(2):
            for ga in range(2):
                for al2 in range(2):
                    for be2 in range(2):
                        for ga2 in range(2):
                            w = omega(al, al2) * omega(be, be2) * omega(ga, ga2)
                            if w != 0:
                                gram[ix.uuu(al, be, ga)][ix.uuu(al2, be2, ga2)] += d0 * w
    return GModule(g, dim, actions, "symplectic", gram)


# -- the W module -------------------------------------------------------------------


class _WIndex:
    def __init__(self, a: int):
        self.a = a
        self.dim = 3 * a + 3

    def al(self, s: int, p: int) -> int:   # A_s @ L_s
        return s * self.a + p

    def line(self, s: int) -> int:         # M_s = L_s^{-2}-dual line (x_s coordinate)
        return 3 * self.a + s


def build_W_module(tag_a: str) -> GModule:
    """The distinguished cubic module of g(A, C+C), dimension 3a+3."""
    g = build_magic_algebra(tag_a, "C")
    algA = g.algA
    a = algA.dim
    ix = _WIndex(a)
    dim = ix.dim
    chart = cartan_chart(g.tB)
    # Signed slot weights (against the chart torus) and the line weights.
    diffs, omega_lines = line_weights(g.tB)

    # t(A) moves the A leg of each A_s @ L_s.
    legs = [[(ix.al(s, p),) for p in range(a)] for s in range(3)]
    actions = [t.leg_action(legs) for t in g.tA.basis]

    # The torus t(B) acts by weights: -w_s on A_s @ L_s, +2 w_s on the lines.
    # t(C+C) is its own Cartan, so every basis element is a chart combination.
    chart_solver = SolveCache([g.tB.sparse_coords(h) for h in chart])
    for b in range(g.tB.dim):
        chart_coords = chart_solver.solve({b: F1})
        m: Entries = defaultdict(Fraction)
        for s in range(3):
            wt = sum((c * omega_lines[s][i] for i, c in chart_coords.items()), F0)
            for p in range(a):
                m[ix.al(s, p), ix.al(s, p)] += -wt
            m[ix.line(s), ix.line(s)] += 2 * wt
        actions.append(columns(m))

    # Mixed slots.
    pA = algA.partner
    for s in range(3):
        s1, s2 = (s + 1) % 3, (s + 2) % 3
        for p in range(a):
            for q in range(2):
                # orientation: does this monomial carry weight +diffs[s] or -diffs[s]?
                if slot_weights(g.tB)[s][q] == diffs[s]:
                    src, dst, (w1, w2, w3) = s1, s2, W_SCALARS_PLUS[s]
                    prods = [algA.slot_product(s, p, y) for y in range(a)]
                else:
                    src, dst, (w1, w2, w3) = s2, s1, W_SCALARS_MINUS[s]
                    prods = [algA.slot_product(s2, y, p) for y in range(a)]
                m: Entries = defaultdict(Fraction)
                # M_dst -> A_s @ L_s
                m[ix.al(s, p), ix.line(dst)] += w1
                # A_s -> M_src; Q(e_p, e_x) is nonzero only at x = partner[p]
                m[ix.line(src), ix.al(s, pA[p])] += w2 * algA.gram[p][pA[p]]
                # A_src -> A_dst
                for y, prod in enumerate(prods):
                    for r, pv in prod.items():
                        m[ix.al(dst, r), ix.al(src, y)] += w3 * pv
                actions.append(columns(m))

    def cubic(u: Sequence[Fraction], v: Sequence[Fraction], w: Sequence[Fraction]) -> Fraction:
        """Symmetric trilinear polarization of the invariant cubic."""
        total = F0
        c_lines, c_theta, c1, c2, c3 = W_CUBIC_COEFFS
        for x, y, z in permutations((u, v, w)):
            total += c_lines * x[ix.line(0)] * y[ix.line(1)] * z[ix.line(2)]
            x1 = [x[ix.al(0, p)] for p in range(a)]
            y2 = [y[ix.al(1, p)] for p in range(a)]
            z3 = [z[ix.al(2, p)] for p in range(a)]
            total += c_theta * algA.qform(algA.multiply(x1, y2), z3)
            for s, cs in ((0, c1), (1, c2), (2, c3)):
                xs = [y[ix.al(s, p)] for p in range(a)]
                zs = [z[ix.al(s, p)] for p in range(a)]
                total += cs * x[ix.line(s)] * algA.qform(xs, zs)
        return total / 6

    return GModule(g, dim, actions, "cubic", cubic)


# -- validation helpers ----------------------------------------------------------------


def symplectic_invariance_defect(mod: GModule, x_idx: int, v: Vec, w: Vec) -> Fraction:
    """Omega(x.v, w) + Omega(v, x.w), over the nonzero Gram entries; zero for invariance."""
    xv = mod.act_basis(x_idx, v)
    xw = mod.act_basis(x_idx, w)
    out = F0
    for (r, c), x in mod.form_entries.items():
        if xv[r] and w[c]:
            out += xv[r] * x * w[c]
        if v[r] and xw[c]:
            out += v[r] * x * xw[c]
    return out


def cubic_invariance_defect(mod: GModule, x_idx: int, v: Vec) -> Fraction:
    """d/dt C(v + t x.v) at t=0 = 3 C~(x.v, v, v); zero for invariance."""
    cubic = mod.form_data
    xv = mod.act_basis(x_idx, v)
    return cubic(xv, v, v)
