"""Root data: extraction from magic-square algebras, builtin catalog, Weyl formula.

Coordinates of an extracted datum are eigenvalue tuples against a normalized
Cartan basis (the chart) taken inside t(A) x t(B), with the t(B)-side
coordinates first.  The chart elements are diagonal in every slot, so the
grading of g(A,B) by their torus is read straight off the matrices, once per
t(A): `slot_weights` holds the slot diagonals, `factor_weights` the weight of
each basis vector of t(A) (which must be a weight vector), and
`basis_weights` the weight of each basis index of g(A,B), whose nonzero
entries are the roots.  Positivity is plain lexicographic order on the
coordinates, which realizes the series orderings (the fixed-side root
contributions dominate).  The inner product comes from the invariant form
restricted to the chart, rescaled so the longest roots have squared length 2.

Builtin data for A-D-E-F-G types use simple-root coordinates with the
standard normalization and carry their fundamental weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .compalg import parse_tag
from .exact import rat_str
from .linalg import (
    F0,
    F1,
    Mat,
    Vec,
    bilinear,
    inverse,
    mat_vec,
    nullspace,
)
from .magic import MagicAlgebra, build_magic_algebra
from .triality import TrialityAlgebra, TrialityTriple, combine

Weight = Tuple[Fraction, ...]


class ExtractionError(ValueError):
    pass


def _tup(v: Sequence) -> Weight:
    return tuple(Fraction(x) for x in v)


@dataclass
class RootDatum:
    name: str
    rank: int
    positive_roots: List[Weight]
    gram: Mat
    markers: Dict[str, Weight] = field(default_factory=dict)

    def __post_init__(self):
        self._simple: Optional[List[Weight]] = None
        self._rho: Optional[Weight] = None
        self._fund: Optional[List[Weight]] = None
        self._simple_inv: Optional[Mat] = None
        self._weyl: Optional[List[Tuple[Fraction, List[Tuple[int, Fraction]]]]] = None

    # -- basic geometry ---------------------------------------------------------

    def inner(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        return bilinear(self.gram, x, y)

    def pairing(self, w: Sequence[Fraction], alpha: Sequence[Fraction]) -> Fraction:
        """<w, alpha-check> = 2 (w, alpha) / (alpha, alpha)."""
        return 2 * self.inner(w, alpha) / self.inner(alpha, alpha)

    @property
    def rho(self) -> Weight:
        if self._rho is None:
            acc = [F0] * self.rank
            for r in self.positive_roots:
                for i, c in enumerate(r):
                    acc[i] += c
            self._rho = _tup(c / 2 for c in acc)
        return self._rho

    def simple_roots(self) -> List[Weight]:
        if self._simple is None:
            pos = set(self.positive_roots)
            simple = []
            for a in self.positive_roots:
                decomposable = False
                for b in self.positive_roots:
                    c = tuple(x - y for x, y in zip(a, b))
                    if any(c) and c in pos:
                        decomposable = True
                        break
                if not decomposable:
                    simple.append(a)
            simple.sort(reverse=True)
            self._simple = simple
        return self._simple

    def cartan_matrix(self) -> List[List[int]]:
        simple = self.simple_roots()
        out = []
        for a in simple:
            row = []
            for b in simple:
                v = self.pairing(a, b)
                if v.denominator != 1:
                    raise ValueError("non-integer Cartan pairing; bad extraction")
                row.append(int(v))
            out.append(row)
        return out

    def fundamental_weights(self) -> List[Weight]:
        """omega_i with <omega_i, alpha_j-check> = delta_ij."""
        if self._fund is None:
            simple = self.simple_roots()
            n = self.rank
            if len(simple) != n:
                raise ValueError("simple root count differs from rank")
            rows = [[self.pairing_base(j, i) for j in range(n)] for i in range(n)]
            # omega_i = sum_j x_j alpha_j; constraint sum_j x_j <alpha_j, alpha_i-check> = delta.
            inv = inverse(rows)
            self._fund = []
            for i in range(n):
                w = [F0] * n
                for j in range(n):
                    if inv[j][i] != 0:
                        for t in range(n):
                            w[t] += inv[j][i] * simple[j][t]
                self._fund.append(_tup(w))
        return self._fund

    def pairing_base(self, j: int, i: int) -> Fraction:
        simple = self.simple_roots()
        return self.pairing(simple[j], simple[i])

    def weight_from_fund(self, labels: Sequence[int]) -> Weight:
        fw = self.fundamental_weights()
        if len(labels) != self.rank:
            raise ValueError(f"expected {self.rank} Dynkin labels")
        w = [F0] * self.rank
        for c, omega in zip(labels, fw):
            if c:
                for t in range(self.rank):
                    w[t] += c * omega[t]
        return _tup(w)

    def highest_root(self) -> Weight:
        return max(self.positive_roots)

    def is_dominant_integral(self, w: Sequence[Fraction]) -> bool:
        for a in self.simple_roots():
            p = self.pairing(w, a)
            if p.denominator != 1 or p < 0:
                return False
        return True

    # -- Weyl dimension formula ---------------------------------------------------

    def _weyl_factors(self) -> List[Tuple[Fraction, List[Tuple[int, Fraction]]]]:
        """((rho, alpha), nonzero entries of G alpha) for each positive root alpha."""
        if self._weyl is None:
            rho = self.rho
            self._weyl = []
            for a in self.positive_roots:
                ga = [(t, x) for t, x in enumerate(mat_vec(self.gram, a)) if x]
                self._weyl.append((sum((rho[t] * x for t, x in ga), F0), ga))
        return self._weyl

    def weyl_dim(self, w: Sequence[Fraction]) -> int:
        if not self.is_dominant_integral(w):
            raise ValueError(f"weight {tuple(map(rat_str, w))} is not dominant integral")
        num = F1
        den = F1
        for ra, ga in self._weyl_factors():
            num *= ra + sum((w[t] * x for t, x in ga), F0)
            den *= ra
        out = num / den
        if out.denominator != 1 or out <= 0:
            raise ValueError("Weyl dimension did not come out a positive integer")
        return int(out)

    # -- weight multiplicities (Freudenthal recursion) ------------------------------

    def _to_dominant(self, w: Weight) -> Weight:
        simple = self.simple_roots()
        w = list(w)
        moved = True
        while moved:
            moved = False
            for a in simple:
                p = self.pairing(w, a)
                if p < 0:
                    for t in range(self.rank):
                        w[t] -= p * a[t]
                    moved = True
        return _tup(w)

    def _simple_coords(self, v: Weight) -> Optional[Vec]:
        """Coordinates of v in the simple-root basis, or None if not in the lattice."""
        if self._simple_inv is None:
            simple = self.simple_roots()
            cols = [[simple[j][i] for j in range(self.rank)] for i in range(self.rank)]
            self._simple_inv = inverse(cols)
        return mat_vec(self._simple_inv, list(v))

    def weight_multiplicity(self, lam: Sequence[Fraction], mu: Sequence[Fraction]) -> int:
        lam = _tup(lam)
        if not self.is_dominant_integral(lam):
            raise ValueError("highest weight is not dominant integral")
        rho = self.rho
        lam_norm = self.inner([a + b for a, b in zip(lam, rho)],
                              [a + b for a, b in zip(lam, rho)])
        memo: Dict[Weight, Fraction] = {lam: F1}

        def mult(nu: Weight) -> Fraction:
            nu = self._to_dominant(nu)
            if nu in memo:
                return memo[nu]
            diff = tuple(a - b for a, b in zip(lam, nu))
            coords = self._simple_coords(diff)
            if coords is None or any(c.denominator != 1 or c < 0 for c in coords):
                memo[nu] = F0
                return F0
            denom = lam_norm - self.inner([a + b for a, b in zip(nu, rho)],
                                          [a + b for a, b in zip(nu, rho)])
            if denom == 0:
                # nu is in the Weyl orbit of lam only if nu == lam (both dominant).
                memo[nu] = F1 if nu == lam else F0
                return memo[nu]
            acc = F0
            for a in self.positive_roots:
                j = 1
                while True:
                    shifted = tuple(x + j * y for x, y in zip(nu, a))
                    m = mult(shifted)
                    if m == 0:
                        # Once we leave the weight system along a root we stay out.
                        break
                    acc += m * self.inner(shifted, a)
                    j += 1
            memo[nu] = 2 * acc / denom
            return memo[nu]

        out = mult(_tup(mu))
        if out.denominator != 1 or out < 0:
            raise ValueError("multiplicity did not come out a nonnegative integer")
        return int(out)

    # -- serialization ---------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "rank": self.rank,
            "gram": [[rat_str(c) for c in row] for row in self.gram],
            "positive_roots": [[rat_str(c) for c in r] for r in self.positive_roots],
            "markers": {k: [rat_str(c) for c in v] for k, v in self.markers.items()},
        }

    @staticmethod
    def from_json(data: object) -> "RootDatum":
        """The datum of a to_json object; ValueError naming the field if malformed."""
        if not isinstance(data, dict):
            raise ValueError("root datum: expected a JSON object")
        rank = data.get("rank")
        if type(rank) is not int or rank < 1:
            raise ValueError("root datum: 'rank' must be a positive integer")

        def vector(where: str, v: object) -> Weight:
            if not isinstance(v, list) or len(v) != rank:
                raise ValueError(f"root datum: {where} must be a list of {rank} rationals")
            try:
                return _tup(v)
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise ValueError(f"root datum: {where} holds a non-rational entry") from None

        def vectors(key: str) -> List[Weight]:
            items = data.get(key)
            if not isinstance(items, list):
                raise ValueError(f"root datum: {key!r} must be a list")
            return [vector(f"{key}[{i}]", v) for i, v in enumerate(items)]

        gram = vectors("gram")
        if len(gram) != rank:
            raise ValueError(f"root datum: 'gram' must have {rank} rows")
        gram = [list(row) for row in gram]
        roots = vectors("positive_roots")
        for i, r in enumerate(roots):
            if bilinear(gram, r, r) == 0:  # `pairing` divides by it
                raise ValueError(f"root datum: positive_roots[{i}] has (alpha, alpha) = 0")
        markers = data.get("markers", {})
        if not isinstance(markers, dict):
            raise ValueError("root datum: 'markers' must be an object")
        rd = RootDatum(
            name=data.get("name", "datum"),
            rank=rank,
            positive_roots=roots,
            gram=gram,
            markers={k: vector(f"markers[{k!r}]", v) for k, v in markers.items()},
        )
        # The roots and their negatives must be closed under the simple
        # reflections; s(-b) = -s(b), so reflecting the positive ones suffices.
        system = set(roots) | {tuple(-c for c in r) for r in roots}
        for a in rd.simple_roots():
            ga = mat_vec(gram, a)
            coroot = [2 * c / rd.inner(a, a) for c in ga]  # <b, a-check> = b . coroot
            for j, b in enumerate(roots):
                p = sum((x * y for x, y in zip(b, coroot) if x and y), F0)
                if tuple(x - p * y for x, y in zip(b, a)) not in system:
                    raise ValueError(
                        f"root datum: 'positive_roots' is not a positive system: reflecting "
                        f"positive_roots[{j}] in positive_roots[{roots.index(a)}] gives no root")
        return rd


# -- Dynkin classification --------------------------------------------------------


def dynkin_type(rd: RootDatum) -> str:
    """Type label such as 'E8', 'F4', 'C3', or 'A2xA2' for products."""
    simple = rd.simple_roots()
    n = len(simple)
    a = rd.cartan_matrix()
    adj = {i: [j for j in range(n) if j != i and a[i][j] != 0] for i in range(n)}
    seen: set = set()
    labels = []
    for start in range(n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    comp.append(j)
                    queue.append(j)
        labels.append(_classify_component(rd, a, adj, sorted(comp)))
    return "x".join(sorted(labels))


def _classify_component(rd: RootDatum, a: List[List[int]], adj, comp: List[int]) -> str:
    simple = rd.simple_roots()
    n = len(comp)
    if n == 1:
        return "A1"
    edges = [(i, j) for i in comp for j in adj[i] if j > i and j in comp]
    prods = {e: a[e[0]][e[1]] * a[e[1]][e[0]] for e in edges}
    maxp = max(prods.values())
    degs = {i: len([j for j in adj[i] if j in comp]) for i in comp}
    if maxp == 3:
        return "G2"
    if maxp == 2:
        if n == 2:
            return "B2"
        lengths = {i: rd.inner(simple[i], simple[i]) for i in comp}
        long_count = sum(1 for i in comp if lengths[i] == max(lengths.values()))
        if n == 4:
            double = [e for e, p in prods.items() if p == 2][0]
            if degs[double[0]] == 2 and degs[double[1]] == 2:
                return "F4"
        return f"B{n}" if long_count == n - 1 else f"C{n}"
    # simply laced
    if max(degs.values()) <= 2:
        return f"A{n}"
    hub = next(i for i in comp if degs[i] == 3)
    arms = []
    for j in adj[hub]:
        if j not in comp:
            continue
        length = 1
        prev, cur = hub, j
        while True:
            nxt = [k for k in adj[cur] if k != prev and k in comp]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return f"D{n}"
    if arms == [1, 2, 2]:
        return "E6"
    if arms == [1, 2, 3]:
        return "E7"
    if arms == [1, 2, 4]:
        return "E8"
    raise ValueError(f"unrecognized Dynkin diagram with arms {arms}")


# -- Cartan charts for the triality factors -----------------------------------------


@lru_cache(maxsize=None)
def cartan_chart(t: TrialityAlgebra) -> Tuple[TrialityTriple, ...]:
    """Normalized Cartan basis whose slot actions give the series coordinates."""
    tag = t.alg.tag.name
    if tag == "R":
        return ()
    cartan = t.cartan_basis()
    if tag == "C":
        return _chart_from_reps(t, cartan, [(1, 0), (2, 0)])
    if tag == "H":
        return _chart_h(t, cartan)
    return _chart_from_reps(t, cartan, [(1, k) for k in range(len(_pair_reps(t)))])


def _pair_reps(t: TrialityAlgebra) -> List[int]:
    alg = t.alg
    return [i for i in range(alg.dim) if i < alg.partner[i]]


def _chart_from_reps(t: TrialityAlgebra, cartan, specs) -> Tuple[TrialityTriple, ...]:
    """Dualize the Cartan basis to the diagonal functionals given by specs.

    specs is a list of (slot, pair-representative-index); the returned basis
    h_1..h_r satisfies: slot-diagonal of h_j at the k-th spec position = delta_jk.
    """
    tag = t.alg.tag.name
    reps = _pair_reps(t)
    m = []
    for h in cartan:
        row = []
        for slot, r in specs:
            pos = reps[r] if tag == "O" else 0
            row.append(h.component(slot)[pos][pos])
        m.append(row)
    # h_j = sum_i c[i][j] cartan_i with M^T c = I.
    c = inverse([list(col) for col in zip(*m)])
    return tuple(combine([row[j] for row in c], cartan) for j in range(len(specs)))


def _chart_h(t: TrialityAlgebra, cartan) -> Tuple[TrialityTriple, ...]:
    """Cartan basis h_1, h_2, h_3 of t(H): h_i spans the factor trivial on slot i."""
    out = []
    n = t.alg.dim
    for slot in range(1, 4):
        # Solve for combinations whose slot-`slot` component vanishes.
        rows = []
        for pos in range(n):
            rows.append([h.component(slot)[pos][pos] for h in cartan])
        kernel = nullspace(rows, len(cartan))
        if len(kernel) != 1:
            raise ExtractionError("t(H) factor extraction failed")
        h = combine(kernel[0], cartan)
        # Normalize: the nontrivial slots act with eigenvalues +/-1.
        val = None
        for s in range(1, 4):
            if s == slot:
                continue
            comp = h.component(s)
            for pos in range(n):
                if comp[pos][pos] != 0:
                    val = comp[pos][pos]
                    break
            if val is not None:
                break
        h = h.scale(1 / val)
        out.append(h)
    return tuple(out)


# -- the torus grading ---------------------------------------------------------------


@lru_cache(maxsize=None)
def slot_weights(t: TrialityAlgebra) -> Tuple[Tuple[Weight, ...], ...]:
    """Weights of the slots of t against its chart: [s][p] is that of e_p in slot s + 1.

    Entry j of a weight is the (p, p) entry of the slot component of the
    j-th chart element; every chart element must be diagonal.
    """
    chart = cartan_chart(t)
    n = t.alg.dim
    out = []
    for slot in range(1, 4):
        comps = [h.component(slot) for h in chart]
        if any(m[r][c] for m in comps for r in range(n) for c in range(n) if r != c):
            raise ExtractionError("Cartan chart element is not diagonal")
        out.append(tuple(_tup(m[p][p] for m in comps) for p in range(n)))
    return tuple(out)


@lru_cache(maxsize=None)
def factor_weights(t: TrialityAlgebra) -> Tuple[Weight, ...]:
    """The weight of each basis vector of t under ad(chart), read off its entries.

    ad(h) scales entry (r, c) of a slot component by d_r - d_c, with d the
    slot diagonal of h, so a basis vector is a weight vector iff every
    nonzero entry of its three components gives the same difference.
    """
    weights = slot_weights(t)
    out = []
    for k, b in enumerate(t.basis):
        found = {tuple(x - y for x, y in zip(d[r], d[c]))
                 for d, m in zip(weights, (b.theta1, b.theta2, b.theta3))
                 for r, row in enumerate(m) for c, x in enumerate(row) if x}
        if len(found) != 1:
            raise ExtractionError(
                f"basis vector {k} of t({t.alg.tag.name}) is not a weight vector of the chart")
        out.append(found.pop())
    return tuple(out)


def basis_weights(g: MagicAlgebra) -> List[Weight]:
    """The weight of every basis index of g(A,B), in datum coordinates (t(B) side first).

    g is graded by the torus of t(A) x t(B): each factor keeps its own
    weights, and e_p @ e_q in slot s has the slot weight of e_q in t(B)
    followed by that of e_p in t(A).
    """
    zeroA = tuple([F0] * len(cartan_chart(g.tA)))
    zeroB = tuple([F0] * len(cartan_chart(g.tB)))
    sA, sB = slot_weights(g.tA), slot_weights(g.tB)
    out = [zeroB + w for w in factor_weights(g.tA)]
    out += [w + zeroA for w in factor_weights(g.tB)]
    out += [sB[s][q] + sA[s][p] for s in range(3) for p in range(g.a) for q in range(g.b)]
    return out


# -- extraction ---------------------------------------------------------------------


def extract_root_datum(g: MagicAlgebra, name: Optional[str] = None) -> RootDatum:
    """Root datum of g(A,B): coordinates (t(B)-side first), lex positivity.

    The roots are the nonzero entries of `basis_weights`.
    """
    chartA = cartan_chart(g.tA)
    chartB = cartan_chart(g.tB)
    rA, rB = len(chartA), len(chartB)
    rank = rA + rB
    if rank == 0:
        raise ExtractionError(
            "g(R,R) carries no split Cartan inside t(A) x t(B); over the rationals "
            "this integral form is anisotropic (ad eigenvalues are imaginary)")
    roots = [w for w in basis_weights(g) if any(w)]
    if len(roots) != g.dim - rank:
        raise ExtractionError(
            f"root count {len(roots)} != dim - rank = {g.dim - rank}")
    if len(set(roots)) != len(roots):
        raise ExtractionError("repeated roots; extraction degenerate")
    positive = sorted((r for r in roots if r > tuple([F0] * rank)), reverse=True)
    if 2 * len(positive) != len(roots):
        raise ExtractionError("positivity did not split the roots in half")

    # Invariant form restricted to the chart Cartan (t(B) block first), inverted,
    # long roots -> 2.
    kc = [[F0] * rank for _ in range(rank)]
    for t, chart, off in ((g.tB, chartB, 0), (g.tA, chartA, rB)):
        coords = [t.coords(h) for h in chart]
        for i, x in enumerate(coords):
            for j, y in enumerate(coords):
                kc[off + i][off + j] = t.k_form_coords(x, y)
    gram = inverse(kc)
    # K restricted to this Cartan may be negative definite; normalize so the
    # longest roots have squared length exactly +2.
    longest = max((bilinear(gram, r, r) for r in positive), key=abs)
    scale = 2 / longest
    rd = RootDatum(name or f"g({g.algA.tag.name},{g.algB.tag.name})",
                   rank, positive, [[scale * x for x in row] for row in gram])
    rd.markers = _markers_for(g, rd, rB)
    return rd


def _markers_for(g: MagicAlgebra, rd: RootDatum, rB: int) -> Dict[str, Weight]:
    rank = rd.rank
    tag = g.algB.tag.name

    def emb(*coords: Fraction) -> Weight:
        return _tup(list(coords) + [F0] * (rank - rB))

    markers: Dict[str, Weight] = {"adjoint": rd.highest_root()}
    if tag == "O":
        # epsilon coordinates; omega1 = e1, omega2 = e1+e2, omega4 = (1,1,1,1)/2.
        markers["g"] = emb(F1, F1, F0, F0)
        markers["X2"] = emb(Fraction(2), F1, F1, F0)
        markers["X3"] = emb(Fraction(3), F1, F1, F1)
        markers["Y2star"] = emb(Fraction(2), F0, F0, F0)
    elif tag == "H":
        markers["g"] = emb(Fraction(2), F0, F0)
        markers["V"] = emb(F1, F1, F1)
        markers["V2"] = emb(Fraction(2), Fraction(2), F0)
    elif tag == "C":
        omegas = sorted(line_weights(g.tB)[1], reverse=True)
        markers["W"] = emb(*[2 * c for c in omegas[0]])
        markers["Wstar"] = emb(*[-2 * c for c in omegas[2]])
    return markers


def line_weights(t: TrialityAlgebra) -> Tuple[List[Weight], List[Weight]]:
    """Slot weights d_s and line weights w_s of t(C) against its 2-element chart.

    The weight of slot s (that of its first basis vector) is +/- a
    difference of the three line weights w_1, w_2, w_3, which sum to zero.
    The first sign choice whose signed slot weights d_s sum to zero fixes
    the d_s; the w_s are their third-differences, in slot order.
    """
    b = [slot_weights(t)[slot][0] for slot in range(3)]
    for signs in ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (1, -1, -1),
                  (-1, 1, -1), (-1, -1, 1), (1, 1, 1), (-1, -1, -1)):
        d = [tuple(s * c for c in w) for s, w in zip(signs, b)]
        if all(sum(col) == 0 for col in zip(*d)):
            third = Fraction(1, 3)
            omegas = [tuple(third * (d[i][c] - d[j][c]) for c in range(2))
                      for i, j in ((2, 1), (0, 2), (1, 0))]
            return d, omegas
    raise ExtractionError("line-slot weights do not sum to zero under any signs")


def datum_for(tag_a: str, tag_b: str) -> RootDatum:
    """Extracted root datum for g(A,B); g(R,R) falls back to builtin A1.

    The (R,R) integral form is anisotropic over Q (its invariant form is
    definite), so no rational Cartan splits it; the abstract type is still
    sl2 and the builtin A1 datum stands in for oracle purposes.  There is
    one datum per pair of tag names in a process.
    """
    return _datum_for(parse_tag(tag_a).name, parse_tag(tag_b).name)


@lru_cache(maxsize=None)
def _datum_for(name_a: str, name_b: str) -> RootDatum:
    if (name_a, name_b) == ("R", "R"):
        rd = builtin_datum("a1")
        return RootDatum("g(R,R)~a1", rd.rank, rd.positive_roots, rd.gram, dict(rd.markers))
    return extract_root_datum(build_magic_algebra(name_a, name_b))


# -- builtin catalog -----------------------------------------------------------------


_SERIES_ALIASES = {
    "sl2": "a1", "sl3": "a2", "sl4": "a3", "sl5": "a4", "sl6": "a5",
    "sp6": "c3", "so7": "b3", "so8": "d4", "so9": "b4", "so10": "d5",
    "so12": "d6", "so14": "d7", "so16": "d8", "so6": "d3",
}


def _simple_gram(kind: str, n: int) -> Mat:
    """(alpha_i, alpha_j) in the Bourbaki normalization (long roots length^2 2).

    For any bond the pairing of adjacent simple roots is -max(|a_i|^2, |a_j|^2)/2.
    """
    two = Fraction(2)
    one = Fraction(1)
    if kind == "A":
        norms, edges = [two] * n, [(i, i + 1) for i in range(n - 1)]
    elif kind == "B":
        norms, edges = [two] * (n - 1) + [one], [(i, i + 1) for i in range(n - 1)]
    elif kind == "C":
        norms, edges = [one] * (n - 1) + [two], [(i, i + 1) for i in range(n - 1)]
    elif kind == "D":
        norms = [two] * n
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    elif kind == "E":
        # Bourbaki: chain 1-3-4-5-...-n with node 2 attached to node 4.
        norms = [two] * n
        edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    elif kind == "F":
        norms, edges = [two, two, one, one], [(0, 1), (1, 2), (2, 3)]
    elif kind == "G":
        norms, edges = [Fraction(2, 3), two], [(0, 1)]
    else:
        raise ValueError(kind)
    g = [[F0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = norms[i]
    for i, j in edges:
        g[i][j] = g[j][i] = -max(norms[i], norms[j]) / 2
    return g


def _close_roots(gram: Mat, n: int) -> List[Weight]:
    """All roots as the reflection closure of the simple roots (simple-root coords)."""
    simples = [_tup([F1 if j == i else F0 for j in range(n)]) for i in range(n)]

    roots = set(simples) | {tuple(-c for c in s) for s in simples}
    frontier = list(roots)
    while frontier:
        nxt = []
        for r in frontier:
            for s in simples:
                p = 2 * bilinear(gram, r, s) / bilinear(gram, s, s)
                refl = tuple(rc - p * sc for rc, sc in zip(r, s))
                if refl not in roots:
                    roots.add(refl)
                    nxt.append(refl)
        frontier = nxt
    return sorted(roots)


@lru_cache(maxsize=None)
def builtin_datum(name: str) -> RootDatum:
    """Standard root datum (simple-root coordinates, Bourbaki conventions)."""
    key = name.strip().lower()
    key = _SERIES_ALIASES.get(key, key)
    kind, num = key[0].upper(), key[1:]
    if kind not in "ABCDEFG" or not num.isdigit():
        raise ValueError(f"unknown builtin datum {name!r}")
    n = int(num)
    checks = {"E": (6, 8), "F": (4, 4), "G": (2, 2), "A": (1, 30),
              "B": (2, 30), "C": (2, 30), "D": (3, 30)}
    lo, hi = checks[kind]
    if not (lo <= n <= hi):
        raise ValueError(f"rank out of range for builtin datum {name!r}")
    gram = _simple_gram(kind, n)
    roots = _close_roots(gram, n)
    zero = tuple([F0] * n)
    positive = sorted((r for r in roots if all(c >= 0 for c in r) and r != zero),
                      reverse=True)
    if 2 * len(positive) != len(roots):
        raise ValueError("builtin positivity failed")
    rd = RootDatum(key, n, positive, gram)
    rd.markers["adjoint"] = rd.highest_root()
    if key == "d4":
        fw = rd.fundamental_weights()
        rd.markers["g"] = fw[1]
        rd.markers["X2"] = _tup(a + b + c for a, b, c in zip(fw[0], fw[2], fw[3]))
        rd.markers["X3"] = _tup(2 * a + 2 * b for a, b in zip(fw[0], fw[3]))
        rd.markers["Y2star"] = _tup(2 * a for a in fw[0])
    return rd
