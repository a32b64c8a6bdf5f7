"""Distinguished modules over the middle rows of the square.

V(A), a g(A,H)-module of dimension 6a+8, is built on
    A_1@U_1 + A_2@U_2 + A_3@U_3 + U_1@U_2@U_3,
where U_1, U_2, U_3 are the defining 2-dimensional representations of the
three sl2 factors of t(H); it carries an invariant symplectic form.

W(A), a g(A,C+C)-module of dimension 3a+3, is built on
    A_1@L_1 + A_2@L_2 + A_3@L_3 + M_1 + M_2 + M_3
with L_i, M_i weight lines of the 2-torus t(C+C); it carries the invariant cubic
    C = 4 x1 x2 x3 - Q(X1 X2, X3) + x1 Q(X1,X1) - x2 Q(X2,X2) + x3 Q(X3,X3),
x_s the coordinate on M_s and X_s the A-vector of A_s@L_s.

The graded pieces are glued by quadratic-form contractions, read off the
pairing partner of each basis vector, and by the slot multiplications of
`CompAlg.slot_product`, the rule the parent bracket uses: the forward map
A_s x A_{s+1} -> A_{s+2} is slot_product(s, p, y), the backward map
A_s x A_{s+2} -> A_{s+1} is slot_product(s+2, y, p).  The relative scalars
below were calibrated once by making the representation axiom hold on the
smallest members (a = 1) and are re-verified for every A by the test suite.
t(A) moves the A legs by `TrialityTriple.leg_action`, as in the parent
bracket; every action is accumulated as (row, col) -> value entries and
stored by `linalg.int_maps` in the parent table's format, D rho(b_i) as an
integer `linalg.IntMap`, D the lcm of its denominators and the table's D_g
(2, 2, 2, 4 on V(R, C, H, O); 3, 6, 6, 12 on W), so the table's kernel
checks the representation axiom.  The lowering operators that identify an
H slot with U @ U are t(H) triples, applied by `linalg.int_apply_into`.  Each
invariant form is stored once, as its nonzero coefficients read off the
construction (`GModule.form_entries`), and checked by one invariance defect.
Both evaluate on integers: the entries over their least denominator, the
vectors scaled by one lcm, the actions as stored, so each value is one
integer over one denominator, returned as one `Fraction`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Dict, List, Sequence, Tuple

from .linalg import (
    F0,
    F1,
    Entries,
    IntMap,
    Mat,
    SolveCache,
    SVec,
    Vec,
    int_apply_into,
    int_column,
    int_maps,
    int_rep_defect_pair,
    int_vectors,
    sparse,
    zeros,
)
from .magic import MagicAlgebra, build_magic_algebra
from .roots import cartan_chart, chart_denominator, factor_weights, line_weights, slot_weights
from .triality import TrialityAlgebra, combine

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


# An invariant form as its nonzero coefficients: (r, c) -> Omega_rc for a
# symplectic form, (r, c, s) -> T_rcs for a cubic one, C(v) = sum T_rcs v_r v_c v_s.
FormEntries = Dict[Tuple[int, ...], Fraction]
FORM_KINDS = {2: "symplectic", 3: "cubic"}


@dataclass
class GModule:
    parent: MagicAlgebra
    dimension: int
    actions: List[IntMap]  # D rho(b_i) per parent basis element, in the table's format
    denominator: int  # D, a multiple of the parent table's
    # The invariant form, the only entries its evaluation and invariance
    # check visit: 56 on V(O), 57 on W(O).
    form_entries: FormEntries
    form_arity: int = field(init=False, repr=False)  # vectors the form takes

    def __post_init__(self) -> None:
        if self.denominator % self.parent.denominator:
            raise ValueError("the module's denominator is not a multiple of the parent's")
        arities = {len(key) for key in self.form_entries}
        if len(arities) != 1 or not arities <= FORM_KINDS.keys():
            raise ValueError("form entries must be all pairs or all triples")
        (self.form_arity,) = arities

    @property
    def form_kind(self) -> str:
        """"symplectic" or "cubic", by the arity of the form entries."""
        return FORM_KINDS[self.form_arity]

    @cached_property
    def form_data(self) -> Mat:
        """The dense Gram matrix of a symplectic form."""
        if self.form_kind != "symplectic":
            raise ValueError(f"a {self.form_kind} form has no Gram matrix")
        gram = zeros(self.dimension, self.dimension)
        for (r, c), x in self.form_entries.items():
            gram[r][c] = x
        return gram

    def form_value(self, *vectors: Sequence[Fraction]) -> Fraction:
        """Sum over the entries (key, c) of c * prod_p vectors[p][key[p]]."""
        if len(vectors) != self.form_arity:
            raise ValueError(f"a {self.form_kind} form takes {self.form_arity} vectors")
        if any(len(v) != self.dimension for v in vectors):
            raise ValueError("element dimension mismatch")
        big, scale = int_vectors([sparse(v) for v in vectors])
        entries, d = self._int_form
        return Fraction(_int_form_value(entries, big), d * scale ** self.form_arity)

    @cached_property
    def _int_form(self) -> Tuple[Dict[Tuple[int, ...], int], int]:
        """The form entries times their least denominator d, as ints, and d."""
        (entries,), d = int_vectors([self.form_entries])
        return entries, d

    def act_basis(self, i: int, v: Sequence[Fraction]) -> Vec:
        """rho(b_i) v for the parent basis element b_i, i in 0..parent.dim-1."""
        if not 0 <= i < len(self.actions):
            raise IndexError(f"parent basis index out of range: {i}")
        if len(v) != self.dimension:
            raise ValueError("element dimension mismatch")
        out: SVec = {}
        int_apply_into(out, self.actions[i], sparse(v))
        return [out[r] / self.denominator if out.get(r) else F0 for r in range(self.dimension)]

    def representation_defect(self, i: int, j: int) -> bool:
        """True if rho([b_i,b_j]) != [rho(b_i), rho(b_j)] for parent basis i, j,
        checked on every column by the table's kernel."""
        br = int_column(self.parent.bracket_basis(i, j), self.denominator)
        return any(int_rep_defect_pair(self.actions, br, i, j, 0, self.dimension).values())


def _leg_entries(t: TrialityAlgebra, legs: Sequence[Sequence[Sequence[int]]]) -> List[Entries]:
    """The (row, col) -> value entries of each basis triple of t moving the
    legs (`TrialityTriple.leg_action`), read as its integers: every basis
    triple has D = 1."""
    return [{(r, j): c for j, col in b.leg_action(legs).items() for r, c in col} for b in t.basis]


# -- sl2 structure of the t(H) factors -----------------------------------------


def _sl2_factor_bases(g: MagicAlgebra) -> List[Dict[str, SVec]]:
    """For B = H: sparse coordinates (in the t(B) basis) of e, h, f per sl2 factor.

    h is the chart element h_fi of factor fi; e and f are the basis vectors
    of weight +2 and -2 under it, with f scaled so that [e, f] = h.
    """
    tb = g.tB
    weights, den = factor_weights(tb), chart_denominator(tb)
    out = []
    for fi, h in enumerate(cartan_chart(tb)):  # factor fi acts trivially on slot fi+1
        hc = tb.sparse_coords(h)
        found = [[k for k, w in enumerate(weights) if w[fi] == c * den] for c in (2, -2)]
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
    den = chart_denominator(tb)
    out = []
    for s in range(3):
        j, k = [i for i in range(3) if i != s]
        pos = {(w[j], w[k]): t for t, w in enumerate(slot_weights(tb)[s])}
        if len(pos) != 4:
            raise ValueError("slot weights are degenerate")
        # Lowering operators of the two factors, acting in slot s+1.
        fj, fk = (combine(factors[i]["f"], tb.basis) for i in (j, k))
        base = {pos[(den, den)]: F1}
        cols: List[SVec] = [base, {}, {}, {}]  # order: ++, +-, -+, --
        for col, f, v in ((cols[1], fk, base), (cols[2], fj, base), (cols[3], fk, cols[2])):
            int_apply_into(col, f.thetas[s], v, Fraction(1, f.denominator))
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
    factors = _sl2_factor_bases(g)
    tensors = _tensor_identification(g, factors)
    c1, c2, c3, c4 = V_SCALARS
    sign = (F1, -F1)

    def omega(x: int, y: int) -> Fraction:
        # symplectic pairing of u_x, u_y in a 2-dim slot: omega(u0, u1) = 1
        return F0 if x == y else sign[x]

    # t(A) moves the A leg of each A_s @ U_s, in the order of the U_s basis.
    legs = [[(ix.au(s, p, 0), ix.au(s, p, 1)) for p in range(a)] for s in range(3)]
    actions = _leg_entries(g.tA, legs)

    # t(B) acts through the sl2 factor decomposition on the U legs.
    fact_solver = SolveCache([f[w] for f in factors for w in ("h", "e", "f")])
    sl2_mats = ({(0, 0): F1, (1, 1): -F1}, {(0, 1): F1}, {(1, 0): F1})  # h, e, f on U
    for b in range(g.tB.dim):
        m: Entries = defaultdict(Fraction)
        for ci, coeff in sorted(fact_solver.solve({b: F1}).items()):
            fi, wi = divmod(ci, 3)
            for (r, cc), x in sl2_mats[wi].items():
                # on A_s @ U_s with s = fi, and on slot fi of UUU
                for p in range(a):
                    m[ix.au(fi, p, r), ix.au(fi, p, cc)] += coeff * x
                for idx in product(range(2), repeat=3):
                    if idx[fi] == cc:
                        jdx = list(idx)
                        jdx[fi] = r
                        m[ix.uuu(*jdx), ix.uuu(*idx)] += coeff * x
        actions.append(m)

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
                    for idx in product(range(2), repeat=3):
                        w = omega(eps, idx[jf]) * omega(dl, idx[kf])
                        if w:
                            m[ix.au(s, p, idx[s]), ix.uuu(*idx)] += c1 * coeff * w
                    # (2) A_s @ U_s -> UUU; Q(e_p, e_x) is nonzero only at x = partner[p]
                    for us in range(2):
                        idx = [0] * 3
                        idx[s], idx[jf], idx[kf] = us, eps, dl
                        m[ix.uuu(*idx), ix.au(s, pA[p], us)] += c2 * coeff * algA.gram[p][pA[p]]
                    for src, dst, cs, prods in mults:
                        # U_src is the factor j or k matching index src
                        # and pairs through omega(pair_eps, u), nonzero at u = 1 - pair_eps
                        pair_eps, out_eps = (eps, dl) if src == jf else (dl, eps)
                        u, w = 1 - pair_eps, cs * coeff * sign[pair_eps]
                        for y, prod in enumerate(prods):
                            for r, pv in prod.items():
                                m[ix.au(dst, r, out_eps), ix.au(src, y, u)] += w * pv
                actions.append(m)

    # Invariant symplectic form: d_s * omega (x) Q on A_s @ U_s pairs (p, eps)
    # with (partner p, 1 - eps), and d0 * omega^(x)3 on UUU pairs each triple
    # with its complement; omega(u0, u1) = 1 = -omega(u1, u0).
    d0, *ds = V_OMEGA_WEIGHTS
    form: FormEntries = {}
    for s in range(3):
        for p in range(a):
            for e in range(2):
                form[ix.au(s, p, e), ix.au(s, pA[p], 1 - e)] = (
                    ds[s] * algA.gram[p][pA[p]] * sign[e])
    for al, be, ga in product(range(2), repeat=3):
        form[ix.uuu(al, be, ga), ix.uuu(1 - al, 1 - be, 1 - ga)] = (
            d0 * sign[al] * sign[be] * sign[ga])
    return GModule(g, ix.dim, *int_maps(actions, g.denominator), form)


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
    # Signed slot weights (against the chart torus) and the line weights.
    diffs, omega_lines = line_weights(g.tB)

    # t(A) moves the A leg of each A_s @ L_s.
    legs = [[(ix.al(s, p),) for p in range(a)] for s in range(3)]
    actions = _leg_entries(g.tA, legs)

    # The torus t(B) acts by weights: -w_s on A_s @ L_s, +2 w_s on the lines.
    # t(C+C) is its own Cartan, so every basis element is a chart combination.
    chart_solver = SolveCache([g.tB.sparse_coords(h) for h in cartan_chart(g.tB)])
    for b in range(g.tB.dim):
        chart_coords = chart_solver.solve({b: F1})
        m: Entries = defaultdict(Fraction)
        for s in range(3):
            wt = sum((c * omega_lines[s][i] for i, c in chart_coords.items()), F0)
            for p in range(a):
                m[ix.al(s, p), ix.al(s, p)] += -wt
            m[ix.line(s), ix.line(s)] += 2 * wt
        actions.append(m)

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
                actions.append(m)

    # Invariant cubic, one entry per monomial of the five W_CUBIC_COEFFS
    # families: Q(X1 X2, X3) pairs each component e_k of e_p e_q with
    # e_{partner k} in X3, and x_s Q(X_s, X_s) pairs e_p with e_{partner p}.
    c_lines, c_theta, *cs = W_CUBIC_COEFFS
    qp = [algA.gram[p][pA[p]] for p in range(a)]
    form: FormEntries = {(ix.line(0), ix.line(1), ix.line(2)): c_lines}
    for p in range(a):
        for q in range(a):
            for k, c in algA.ctable[p][q].items():
                form[ix.al(0, p), ix.al(1, q), ix.al(2, pA[k])] = c_theta * c * qp[k]
    for s in range(3):
        for p in range(a):
            form[ix.line(s), ix.al(s, p), ix.al(s, pA[p])] = cs[s] * qp[p]
    return GModule(g, ix.dim, *int_maps(actions, g.denominator), form)


# -- validation helpers ----------------------------------------------------------------


def _int_form_value(entries: Dict[Tuple[int, ...], int], vectors: Sequence[Dict[int, int]]) -> int:
    """Sum over the integer entries (key, c) of c * prod_p vectors[p][key[p]],
    on sparse integer vectors."""
    out = 0
    for key, c in entries.items():
        for v, r in zip(vectors, key):
            x = v.get(r)
            if not x:
                break
            c *= x
        else:
            out += c
    return out


def _invariance_defect(mod: GModule, kind: str, x_idx: int, vectors: Sequence[Vec]) -> Fraction:
    """The sum over the positions p of the form with vectors[p] replaced by
    rho(b_x) vectors[p], zero for invariance.

    The distinct vectors are scaled to integers by one lcm L, and D rho(b_x)
    is applied once to each, on ints; every term then carries the scale
    d D L^arity (d the form's denominator), so the sum is one integer over it.
    """
    if mod.form_kind != kind:
        raise ValueError(f"the module carries a {mod.form_kind} form, not a {kind} one")
    if not 0 <= x_idx < len(mod.actions):
        raise IndexError(f"parent basis index out of range: {x_idx}")
    if any(len(v) != mod.dimension for v in vectors):
        raise ValueError("element dimension mismatch")
    distinct = {id(v): v for v in vectors}
    big, scale = int_vectors([sparse(v) for v in distinct.values()])
    big = dict(zip(distinct, big))
    moved = {}
    for key, v in big.items():
        moved[key] = out = {}
        int_apply_into(out, mod.actions[x_idx], v, 1)
    entries, d = mod._int_form
    total = sum(_int_form_value(entries, [moved[id(u)] if q == p else big[id(u)]
                                         for q, u in enumerate(vectors)])
                for p in range(len(vectors)))
    return Fraction(total, d * mod.denominator * scale ** len(vectors))


def symplectic_invariance_defect(mod: GModule, x_idx: int, v: Vec, w: Vec) -> Fraction:
    """Omega(x.v, w) + Omega(v, x.w); zero for invariance."""
    return _invariance_defect(mod, "symplectic", x_idx, (v, w))


def cubic_invariance_defect(mod: GModule, x_idx: int, v: Vec) -> Fraction:
    """d/dt C(v + t x.v) at t=0, over 3: C~(x.v, v, v); zero for invariance."""
    return _invariance_defect(mod, "cubic", x_idx, (v, v, v)) / 3
