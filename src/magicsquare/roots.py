"""Root data: extraction from magic-square algebras, builtin catalog, Weyl formula.

A `RootDatum` is given by its positive roots, as `Fraction` tuples in chart
coordinates, and a Gram matrix.  From these it derives once, the same way for
every source, an integer frame: the simple roots, the Cartan matrix, the
simple-root coordinates of each positive root and the integer rows that give
Dynkin labels, from one scan by increasing (alpha, rho).  The scan runs on
integer keys: each root times the least common denominator D of the roots,
against the Gram times the least L that clears its denominators, so every
inner product is an int, (alpha, beta) times L D^2.  Dominance, the Weyl
formula, Freudenthal's recursion, the reflection closures and `dynkin_type`
run on that frame; `positive_roots`, `gram`, the markers and the JSON are
the `Fraction` boundary.  `dynkin_type` names each component of the Cartan
matrix from its rank r, its positive-root count N and its short simple
roots (lengths up to sign): simply laced, A_r if 2N = r(r + 1), D_r if
N = r(r - 1), else E_r; otherwise G2 at length ratio 3, F4 at rank 4 with
two short, B_r with one short and C_r with more.

An extracted datum's chart is a normalized Cartan basis inside t(A) x t(B),
t(B)-side coordinates first.  Its elements are diagonal in every slot, so the
grading of g(A,B) is read straight off the integer maps of the chart triples,
once per t(A): `slot_weights`, `factor_weights` and `basis_weights`, integer
keys over the chart's one denominator (`chart_denominator`), whose nonzero
entries are the roots.  Positivity is lexicographic order on the keys, which
is that on the chart coordinates.  There is one Gram rule, `trace_gram`: the
inverse of sum_k k k^T over the keys of the weights of a representation, its
trace form, as an integer matrix over its determinant.  Over the weights of
a basis of g(A,B) it is the Killing form, rescaled so the longest roots have
squared length 2.  Every dense square matrix here (that sum, the Cartan
matrix, the dual of a Cartan basis, a Gram tested for definiteness) goes
through the one fraction-free elimination `linalg.int_inverse`.  The
markers are `chart_markers` of t(B), padded with zeros.  `triality_datum`
builds t(A)'s own datum the same way from its `factor_weights`, and the
series descriptors take `trace_gram` of the slot weights of t(B); none of
them reads the invariant form K.  Builtin data use simple-root coordinates
in the Bourbaki normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .compalg import TagLike, parse_tag
from .exact import rat_str
from .linalg import (
    F0,
    F1,
    Mat,
    bilinear,
    int_dot,
    int_inverse,
    int_mat_vec,
    int_rows,
    mat_vec,
    nullspace,
    sparse,
)
from .magic import MagicAlgebra, build_magic_algebra
from .triality import TrialityAlgebra, TrialityTriple, combine, triality_algebra

Weight = Tuple[Fraction, ...]
# A weight as integers over a denominator that its caller keeps.
Key = Tuple[int, ...]


class ExtractionError(ValueError):
    pass


def _tup(v: Sequence) -> Weight:
    return tuple(Fraction(x) for x in v)


def _quotient(n: int, d: int):
    """n / d as an int when d divides n, else as a Fraction."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _reflect(cartan: Sequence[Sequence[int]], c: Tuple[int, ...], i: int) -> Tuple[int, ...]:
    """s_i on simple-root coordinates, c - <c, alpha_i-check> e_i, from a Cartan matrix."""
    p = sum(x * row[i] for x, row in zip(c, cartan) if x)
    return c[:i] + (c[i] - p,) + c[i + 1:]


def _is_definite(gram: Sequence[Key]) -> bool:
    """True when the symmetric integer Gram is positive or negative definite:
    Sylvester's criterion on the leading minors M_k of `int_inverse`, every
    one nonzero and the ratios M_k / M_(k-1) (M_0 = 1) of one sign.
    """
    try:
        minors = int_inverse(gram)[2]
    except ValueError:
        return False
    signs = {(m > 0) == (prev > 0) for prev, m in zip([1, *minors], minors)}
    return len(minors) == len(gram) and len(signs) == 1


@dataclass
class RootDatum:
    name: str
    rank: int
    positive_roots: List[Weight]
    gram: Mat
    markers: Dict[str, Weight] = field(default_factory=dict)

    def __post_init__(self):
        self._rho: Optional[Weight] = None
        self._simple: Optional[List[Weight]] = None  # set, with the frame, by `_frame`
        self._marker_labels: Dict[Weight, Tuple[int, ...]] = {}

    # -- basic geometry ---------------------------------------------------------

    def inner(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        return bilinear(self.gram, x, y)

    def pairing(self, w: Sequence[Fraction], alpha: Sequence[Fraction]) -> Fraction:
        """<w, alpha-check> = 2 (w, alpha) / (alpha, alpha)."""
        return 2 * self.inner(w, alpha) / self.inner(alpha, alpha)

    @property
    def rho(self) -> Weight:
        if self._rho is None:
            keys, den = int_rows(self.positive_roots)
            self._rho = tuple(Fraction(sum(c), 2 * den) for c in zip(*keys))
        return self._rho

    def _frame(self) -> None:
        """Simple roots, Cartan matrix and simple-root coordinates, from one scan.

        Everything runs on the integer keys D alpha of the positive roots,
        D their least common denominator, and the Gram G times the least
        L > 0 that clears its denominators: key_a . LG key_b is
        (alpha, beta) times L D^2 > 0, which leaves every ratio and sign
        below as it is.  The positive roots go by increasing (alpha, rho),
        the key of alpha against LG times the sum of the keys.  A root is
        simple unless subtracting a simple root found so far leaves a root
        already seen, and then its coordinates are that root's plus one;
        every non-simple positive root has this form (Humphreys §10.2).  The
        simple roots end in decreasing chart order.
        """
        if self._simple is not None:
            return
        roots = self.positive_roots
        keys, den = int_rows(roots)
        gram, _ = int_rows(self.gram)
        total = int_mat_vec(gram, tuple(sum(c) for c in zip(*keys)))  # LG 2 D rho
        height = [int_dot(k, total) for k in keys]
        sign = -1 if sum(height) < 0 else 1  # a negative definite Gram
        # key -> coordinates; the zero key makes a repeated simple root
        # come out as that simple root.
        seen: Dict[Key, Dict[int, int]] = {tuple([0] * self.rank): {}}
        simple: List[int] = []  # root indices, in the order found
        rows: List[List[int]] = []  # LG key, per simple root
        ip: Dict[Tuple[int, int], int] = {}  # (alpha_i, alpha_j) L D^2 between them
        for k in sorted(range(len(roots)), key=lambda k: sign * height[k]):
            for i, s in enumerate(simple):
                c = seen.get(tuple(x - y for x, y in zip(keys[k], keys[s])))
                if c is not None:
                    seen[keys[k]] = {**c, i: c.get(i, 0) + 1}
                    break
            else:
                n, row = len(simple), int_mat_vec(gram, keys[k])
                simple.append(k)
                rows.append(row)
                for i, s in enumerate(simple):
                    ip[i, n] = ip[n, i] = int_dot(keys[s], row)
                seen[keys[k]] = {n: 1}
        order = sorted(range(len(simple)), key=lambda i: keys[simple[i]], reverse=True)
        self._simple = [roots[simple[i]] for i in order]
        self._cartan = [[_quotient(2 * ip[i, j], ip[j, j]) for j in order] for i in order]
        # <w, alpha_i-check> = 2 D (w . LG key_i) / (key_i . LG key_i) for a
        # weight w: the row 2 D LG key_i over the positive denominator, reduced.
        self._label_rows = []
        for i in order:
            num, q = [2 * den * x for x in rows[i]], ip[i, i]
            g = gcd(q, *num) * (1 if q > 0 else -1)
            self._label_rows.append((tuple(x // g for x in num), q // g))
        self._coords = [tuple(seen[key].get(i, 0) for i in order) for key in keys]
        scale = gcd(*(ip[i, i] for i in order))
        self._norms = [ip[i, i] // scale for i in order]  # |alpha_j|^2, up to a factor > 0
        # (j, c_j |alpha_j|^2) over the nonzero coordinates of each positive root
        self._coroot_terms = [[(j, x * h) for j, (x, h) in enumerate(zip(c, self._norms)) if x]
                              for c in self._coords]
        self._rho_product = prod(sum(x for _, x in m) for m in self._coroot_terms)

    def simple_roots(self) -> List[Weight]:
        self._frame()
        return self._simple

    def cartan_matrix(self) -> List[List[int]]:
        """[<alpha_i, alpha_j-check>] over the simple roots, in `simple_roots` order."""
        self._frame()
        if any(type(x) is not int for row in self._cartan for x in row):
            raise ValueError("non-integer Cartan pairing; bad extraction")
        return [list(row) for row in self._cartan]

    def root_coords(self) -> List[Tuple[int, ...]]:
        """Simple-root coordinates of each positive root, in `positive_roots` order."""
        self._frame()
        return self._coords

    def dynkin_labels(self, w: Sequence[Fraction]) -> Tuple[Fraction, ...]:
        """<w, alpha_i-check> for the simple roots, in `simple_roots` order."""
        return tuple(Fraction(n, d) for n, d in self._label_pairs(w))

    def _label_pairs(self, w: Sequence[Fraction]) -> List[Tuple[int, int]]:
        """(n, d) with <w, alpha_i-check> = n / d and d > 0, per simple root:
        the integer label rows against the key of w over its own denominator."""
        if len(w) != self.rank:
            raise ValueError("dynkin_labels: vector length differs from the rank")
        self._frame()
        (key,), den = int_rows([w])
        return [(int_dot(key, row), den * q) for row, q in self._label_rows]

    def _cartan_inverse(self) -> Tuple[List[List[int]], int]:
        """(Q, d) with Q / d the inverse of the Cartan matrix, by `int_inverse`;
        ValueError unless the simple roots span the weights."""
        if len(self.simple_roots()) != self.rank:
            raise ValueError("simple root count differs from rank")
        return int_inverse(self.cartan_matrix())[:2]

    def fundamental_weights(self) -> List[Weight]:
        """omega_i = sum_j X_ij alpha_j, with X = Q / d the inverse of the Cartan matrix."""
        q, d = self._cartan_inverse()
        columns = list(zip(*self._simple))
        return [tuple(mat_vec(columns, [Fraction(x, d) for x in row])) for row in q]

    def weight_from_fund(self, labels: Sequence[int]) -> Weight:
        fw = self.fundamental_weights()
        if len(labels) != self.rank:
            raise ValueError(f"expected {self.rank} Dynkin labels")
        return _tup(mat_vec(list(zip(*fw)), labels))

    def highest_root(self) -> Weight:
        return max(self.positive_roots)

    def marker_labels(self, name: str) -> Tuple[int, ...]:
        """The Dynkin labels of markers[name], as ints; computed once per marker weight."""
        w = tuple(self.markers[name])
        labels = self._marker_labels.get(w)
        if labels is None:
            labels = self._marker_labels[w] = self._dominant_labels(w)
        return labels

    def _dominant_labels(self, w: Sequence[Fraction]) -> Tuple[int, ...]:
        """The Dynkin labels of w as ints; ValueError unless w is dominant integral."""
        labels = self._label_pairs(w)
        if any(n % d or n < 0 for n, d in labels):
            raise ValueError(f"weight {tuple(map(rat_str, w))} is not dominant integral")
        return tuple(n // d for n, d in labels)

    # -- Weyl dimension formula ---------------------------------------------------

    def weyl_dim(self, w: Sequence[Fraction]) -> int:
        """prod over positive alpha of (w + rho, alpha) / (rho, alpha)."""
        return self.weyl_dim_labels(self._dominant_labels(w))

    def weyl_dim_labels(self, labels: Sequence[int]) -> int:
        """The Weyl dimension of the weight with these nonnegative integer Dynkin labels,
        one per simple root; ValueError on another count or a negative label.

        With alpha = sum_j c_j alpha_j and lambda the labels, the factor of
        alpha is sum_j m_j (lambda_j + 1) / sum_j m_j with m_j = c_j |alpha_j|^2,
        proportional to the coroot coordinates of alpha.
        """
        self._frame()
        if len(labels) != len(self._norms):
            raise ValueError(f"expected {len(self._norms)} Dynkin labels, got {len(labels)}")
        if min(labels) < 0:
            raise ValueError(f"Dynkin labels {tuple(labels)} are not dominant")
        lam = [x + 1 for x in labels]
        num = 1
        for m in self._coroot_terms:
            num *= sum(x * lam[j] for j, x in m)
        out = Fraction(num, self._rho_product)
        if out.denominator != 1 or out <= 0:
            raise ValueError("Weyl dimension did not come out a positive integer")
        return int(out)

    # -- weight multiplicities (Freudenthal recursion) ------------------------------

    def weight_multiplicity(self, lam: Sequence[Fraction], mu: Sequence[Fraction]) -> int:
        """Freudenthal's recursion on nu = lam - sum_j c_j alpha_j, keyed by the integers c.

        With Dynkin labels nu_j and h_j = |alpha_j|^2 (times a common scale,
        which cancels), (nu, sum_j a_j alpha_j) is
        sum_j a_j h_j nu_j / 2, and |lam + rho|^2 - |nu + rho|^2 is
        sum_j c_j h_j (lam_j + nu_j + 2) / 2.
        """
        try:
            top = self._dominant_labels(lam)
        except ValueError:
            raise ValueError("highest weight is not dominant integral") from None
        q, det = self._cartan_inverse()
        cartan, n = self._cartan, len(top)
        d = [t - x for t, x in zip(top, self.dynkin_labels(mu))]
        # lam - mu = sum_j c_j alpha_j with c = X^T d, X = Q / det.
        start = [sum((x * y for x, y in zip(col, d) if x), F0) / det for col in zip(*q)]
        if any(x.denominator != 1 for x in start):
            return 0  # lam - mu is not in the root lattice
        h = self._norms
        roots = [(a, [sum(x * row[j] for x, row in zip(a, cartan)) for j in range(n)])
                 for a in self._coords]
        memo: Dict[Tuple[int, ...], Fraction] = {}

        def mult(c: Tuple[int, ...]) -> Fraction:
            nu = [t - sum(x * row[j] for x, row in zip(c, cartan)) for j, t in enumerate(top)]
            while min(nu) < 0:  # reflect into the dominant chamber
                i = nu.index(min(nu))
                c = c[:i] + (c[i] + nu[i],) + c[i + 1:]
                nu = [x - nu[i] * y for x, y in zip(nu, cartan[i])]
            if c not in memo:
                denom = sum(x * y * (t + v + 2) for x, y, t, v in zip(c, h, top, nu))
                if min(c) < 0 or denom == 0:
                    # Below lam, or in its Weyl orbit and so lam itself (both dominant).
                    memo[c] = F0 if min(c) < 0 or any(c) else F1
                else:
                    acc = F0
                    for a, al in roots:
                        k = 1
                        # Once we leave the weight system along a root we stay out.
                        while m := mult(tuple(x - k * y for x, y in zip(c, a))):
                            acc += m * sum(x * y * (v + k * z)
                                           for x, y, v, z in zip(a, h, nu, al))
                            k += 1
                    memo[c] = 2 * acc / denom
            return memo[c]

        out = mult(tuple(x.numerator for x in start))
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
        for i in range(rank):
            for j in range(i + 1, rank):
                if gram[i][j] != gram[j][i]:
                    raise ValueError(f"root datum: 'gram' is not symmetric: gram[{i}][{j}] = "
                                     f"{rat_str(gram[i][j])}, gram[{j}][{i}] = {rat_str(gram[j][i])}")
        roots = vectors("positive_roots")
        # (alpha, alpha), up to a factor > 0, on the integer keys of the roots
        # and of the Gram, over the nonzero entries of each; the frame divides by it.
        keys, _ = int_rows(roots)
        int_gram, _ = int_rows(gram)
        gram_rows = [[(t, c) for t, c in enumerate(row) if c] for row in int_gram]
        for i, r in enumerate(keys):
            if sum(x * c * r[t] for s, x in enumerate(r) if x for t, c in gram_rows[s] if r[t]) == 0:
                raise ValueError(f"root datum: positive_roots[{i}] has (alpha, alpha) = 0")
        if not _is_definite(int_gram):
            raise ValueError("root datum: 'gram' is not definite")
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
        coords = rd.root_coords()
        system = set(coords) | {tuple(-x for x in c) for c in coords}
        for i, a in enumerate(rd.simple_roots()):
            for j, c in enumerate(coords):
                if _reflect(rd._cartan, c, i) not in system:
                    raise ValueError(
                        f"root datum: 'positive_roots' is not a positive system: reflecting "
                        f"positive_roots[{j}] in positive_roots[{roots.index(a)}] gives no root")
        # `weyl_dim` needs <rho, alpha-check> = 1; repeated roots or 2 alpha break it.
        for a, p in zip(rd.simple_roots(), rd.dynkin_labels(rd.rho)):
            if p != 1:
                raise ValueError(
                    f"root datum: 'positive_roots' is not a positive system: <rho, alpha-check> "
                    f"= {rat_str(p)} for positive_roots[{roots.index(a)}], not 1")
        return rd


# -- Dynkin classification --------------------------------------------------------


def dynkin_type(rd: RootDatum) -> str:
    """Type label such as 'E8', 'F4', 'C3', or 'A2xA2' for products.

    The simple roots split into components by Cartan adjacency.  A component
    of rank r is named from N, its positive roots (those supported on it),
    and its short simple roots, with lengths read up to sign: simply laced,
    A_r if 2N = r(r + 1), D_r if N = r(r - 1), else E_r; length ratio 3, G2;
    rank 4 with two short, F4; else B_r with one short and C_r with more.
    So a rank-2 component with a double bond is B2, and D3 is A3.
    """
    a = rd.cartan_matrix()
    comp = list(range(len(a)))  # a component label per simple root
    for i, row in enumerate(a):
        for j in range(i):
            if row[j]:
                old = comp[i]
                comp = [comp[j] if c == old else c for c in comp]
    labels = []
    for label in set(comp):
        nodes = [i for i, c in enumerate(comp) if c == label]
        r = len(nodes)
        n = sum(1 for c in rd.root_coords() if any(c[i] for i in nodes))
        norms = [abs(rd._norms[i]) for i in nodes]
        short = sum(1 for h in norms if h < max(norms))
        if not short:
            kind = "A" if 2 * n == r * (r + 1) else "D" if n == r * (r - 1) else "E"
        elif max(norms) == 3 * min(norms):
            kind = "G"
        elif r == 4 and short == 2:
            kind = "F"
        else:
            kind = "B" if short == 1 else "C"
        labels.append(f"{kind}{r}")
    return "x".join(sorted(labels))


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
    reps = _pair_reps(t)
    # h_j = sum_i c[i][j] cartan_i with M^T c = I: M^T = mt / L, so c = L Q / d.
    mt, scale = int_rows([[h.diagonal(slot)[reps[r]] for h in cartan] for slot, r in specs])
    q, d, _ = int_inverse(mt)
    return tuple(combine(sparse([Fraction(scale * row[j], d) for row in q]), cartan)
                 for j in range(len(specs)))


def _chart_h(t: TrialityAlgebra, cartan) -> Tuple[TrialityTriple, ...]:
    """Cartan basis h_1, h_2, h_3 of t(H): h_i spans the factor trivial on slot i."""
    out = []
    for slot in range(1, 4):
        # Solve for combinations whose slot-`slot` component vanishes.
        rows = [sparse(row) for row in zip(*(h.diagonal(slot) for h in cartan))]
        kernel = nullspace(rows, len(cartan))
        if len(kernel) != 1:
            raise ExtractionError("t(H) factor extraction failed")
        h = combine(kernel[0], cartan)
        # Normalize: the nontrivial slots act with eigenvalues +/-1.
        val = next(x for s in range(1, 4) if s != slot for x in h.diagonal(s) if x)
        h = combine({0: 1 / val}, [h])
        out.append(h)
    return tuple(out)


# -- the torus grading ---------------------------------------------------------------


def chart_denominator(t: TrialityAlgebra) -> int:
    """The least common denominator of the chart of t: the lcm of the D of its
    triples, 2 on t(O) and 1 on the others.  The chart weights of t are
    integer keys over it."""
    return lcm(*(h.denominator for h in cartan_chart(t)))


@lru_cache(maxsize=None)
def slot_weights(t: TrialityAlgebra) -> Tuple[Tuple[Key, ...], ...]:
    """Weights of the slots of t against its chart: [s][p] is that of e_p in slot s + 1.

    Entry j of a weight is the (p, p) entry of the slot component of the
    j-th chart element, read off its integer map: a key over
    `chart_denominator(t)`.  Every chart element must be diagonal.
    """
    chart, den = cartan_chart(t), chart_denominator(t)
    out = []
    for slot in range(3):
        if any(r != c for h in chart for c, col in h.thetas[slot].items() for r, _ in col):
            raise ExtractionError("Cartan chart element is not diagonal")
        # column p of a diagonal map is the one pair (p, D theta_pp)
        diags = [{p: col[0][1] * (den // h.denominator) for p, col in h.thetas[slot].items()}
                 for h in chart]
        out.append(tuple(tuple(dg.get(p, 0) for dg in diags) for p in range(t.alg.dim)))
    return tuple(out)


@lru_cache(maxsize=None)
def factor_weights(t: TrialityAlgebra) -> Tuple[Key, ...]:
    """The weight of each basis vector of t under ad(chart), read off its
    entries, as a key over `chart_denominator(t)`.

    ad(h) scales entry (r, c) of a slot component by d_r - d_c, with d the
    slot diagonal of h, so a basis vector is a weight vector iff every
    nonzero entry of its three components gives the same difference.
    """
    weights = slot_weights(t)
    out = []
    for k, b in enumerate(t.basis):
        found = {tuple(x - y for x, y in zip(d[r], d[c]))
                 for d, m in zip(weights, b.thetas) for c, col in m.items() for r, _ in col}
        if len(found) != 1:
            raise ExtractionError(
                f"basis vector {k} of t({t.alg.tag.name}) is not a weight vector of the chart")
        out.append(found.pop())
    return tuple(out)


def basis_weights(g: MagicAlgebra) -> Tuple[List[Key], int]:
    """The weight of every basis index of g(A,B), in datum coordinates (t(B)
    side first), as keys over D, and D: the lcm of the chart denominators.

    g is graded by the torus of t(A) x t(B): each factor keeps its own
    weights, and e_p @ e_q in slot s has the slot weight of e_q in t(B)
    followed by that of e_p in t(A).
    """
    dA, dB = chart_denominator(g.tA), chart_denominator(g.tB)
    den = lcm(dA, dB)
    zeroA = tuple([0] * len(cartan_chart(g.tA)))
    zeroB = tuple([0] * len(cartan_chart(g.tB)))

    def scaled(ws, d):
        return [tuple(x * (den // d) for x in w) for w in ws]

    sA = [scaled(ws, dA) for ws in slot_weights(g.tA)]
    sB = [scaled(ws, dB) for ws in slot_weights(g.tB)]
    out = [zeroB + w for w in scaled(factor_weights(g.tA), dA)]
    out += [w + zeroA for w in scaled(factor_weights(g.tB), dB)]
    out += [sB[s][q] + sA[s][p] for s in range(3) for p in range(g.a) for q in range(g.b)]
    return out, den


def trace_gram(keys: Sequence[Key]) -> Tuple[List[List[int]], int]:
    """The inverse of sum_k k k^T over a multiset of integer weight keys, as
    an integer matrix Q over a denominator c > 0: the inverse is Q / c, by
    `int_inverse`.  The sum is positive definite, so no row is swapped and c
    is its determinant.

    Over the weights of a representation the sum is its trace form
    tr(x y) on the chart, and its inverse the form it induces on weights;
    over the weights of a basis of g it is the Killing form.  With keys
    D w of chart weights w the sum is D^2 times the trace form, so for chart
    weights x and y, (D x) . Q (D y) is c (x, y), and the Gram on chart
    coordinates is D^2 Q / c.
    """
    cols = list(zip(*keys))
    form = [[sum(x * y for x, y in zip(u, v) if x) for v in cols] for u in cols]
    return int_inverse(form)[:2]


def chart_markers(t: TrialityAlgebra) -> Dict[str, Weight]:
    """The marker weights of the series along the row of t, in chart coordinates.

    The O and H markers are typed here once, in chart coordinates: on D4 = t(O)
    epsilon coordinates, omega1 = e1, omega2 = e1 + e2, omega4 = (1, 1, 1, 1)/2;
    on t(H) the Dynkin labels of its three sl2 factors.  On t(C), W and Wstar
    are twice the extreme line weights of `line_weights`.
    """
    tag = t.alg.tag.name
    if tag == "O":
        marks = {"g": (1, 1, 0, 0), "X2": (2, 1, 1, 0), "X3": (3, 1, 1, 1), "Y2star": (2, 0, 0, 0)}
    elif tag == "H":
        marks = {"g": (2, 0, 0), "V": (1, 1, 1), "V2": (2, 2, 0)}
    elif tag == "C":
        omegas = sorted(line_weights(t)[1], reverse=True)
        marks = {"W": [2 * c for c in omegas[0]], "Wstar": [-2 * c for c in omegas[2]]}
    else:
        marks = {}
    return {name: _tup(w) for name, w in marks.items()}


# -- extraction ---------------------------------------------------------------------


def _datum_from_weights(name: str, keys: Sequence[Key], den: int,
                        markers: Dict[str, Weight]) -> RootDatum:
    """The root datum of a Lie algebra from the chart weights of its basis,
    given as integer keys over den > 0.

    The roots are the nonzero weights: one weight must be zero per chart
    coordinate, no root may repeat, and lex positivity must take half of
    them; all three read the keys, whose order is that of the weights.
    The Gram is that of `trace_gram(keys)` on chart coordinates, scaled so
    the longest roots have squared length 2: with Q its integer matrix,
    2 den^2 Q / max k . Q k over the positive keys k.  The roots and the
    Gram become Fractions only here.  The markers are padded with zeros to
    the rank, and "adjoint" is the highest root.
    """
    roots = [w for w in keys if any(w)]
    if not roots:
        raise ExtractionError(f"{name} has no roots")
    rank = len(roots[0])
    if len(roots) != len(keys) - rank:
        raise ExtractionError(
            f"root count {len(roots)} != dim - rank = {len(keys) - rank}")
    if len(set(roots)) != len(roots):
        raise ExtractionError("repeated roots; extraction degenerate")
    positive = sorted((r for r in roots if r > tuple([0] * rank)), reverse=True)
    if 2 * len(positive) != len(roots):
        raise ExtractionError("positivity did not split the roots in half")
    q, _ = trace_gram(keys)
    top = max(int_dot(r, int_mat_vec(q, r)) for r in positive)
    scale = 2 * den * den
    gram = [[Fraction(scale * x, top) for x in row] for row in q]
    rd = RootDatum(name, rank, [tuple(Fraction(x, den) for x in r) for r in positive], gram)
    rd.markers = {"adjoint": rd.positive_roots[0],
                  **{k: w + tuple([F0] * (rank - len(w))) for k, w in markers.items()}}
    return rd


def extract_root_datum(g: MagicAlgebra) -> RootDatum:
    """Root datum of g(A,B): coordinates (t(B)-side first), lex positivity.

    The roots are the nonzero entries of `basis_weights`, and the Gram is
    the inverse of the Killing form of g(A,B) on that chart.  The markers
    are those of t(B).  g(R,R) has no roots on its chart: over the
    rationals its integral form is anisotropic (ad eigenvalues are
    imaginary).
    """
    return _datum_from_weights(f"g({g.algA.tag.name},{g.algB.tag.name})",
                               *basis_weights(g), chart_markers(g.tB))


def triality_datum(tag: TagLike) -> RootDatum:
    """The root datum of t(A) itself, from its `factor_weights`; one per tag name.

    t(O) gives D4 with the four O markers of `chart_markers`, the exceptional
    series at a = 0.  ExtractionError for R and C: t(R) and t(C) have no roots.
    """
    return _triality_datum(parse_tag(tag).name)


@lru_cache(maxsize=None)
def _triality_datum(name: str) -> RootDatum:
    t = triality_algebra(name)
    return _datum_from_weights(f"t({name})", factor_weights(t), chart_denominator(t),
                               chart_markers(t))


def line_weights(t: TrialityAlgebra) -> Tuple[List[Key], List[Weight]]:
    """Slot weights d_s and line weights w_s of t(C) against its 2-element chart.

    The weight of slot s (that of its first basis vector) is +/- a
    difference of the three line weights w_1, w_2, w_3, which sum to zero.
    The first sign choice whose signed slot weights d_s sum to zero fixes
    the d_s, keys over `chart_denominator(t)` as `slot_weights`; the w_s
    are their third-differences, in slot order and chart coordinates.
    """
    b = [slot_weights(t)[slot][0] for slot in range(3)]
    for signs in ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (1, -1, -1),
                  (-1, 1, -1), (-1, -1, 1), (1, 1, 1), (-1, -1, -1)):
        d = [tuple(s * c for c in w) for s, w in zip(signs, b)]
        if all(sum(col) == 0 for col in zip(*d)):
            third = 3 * chart_denominator(t)
            omegas = [tuple(Fraction(d[i][c] - d[j][c], third) for c in range(2))
                      for i, j in ((2, 1), (0, 2), (1, 0))]
            return d, omegas
    raise ExtractionError("line-slot weights do not sum to zero under any signs")


def datum_for(tag_a: TagLike, tag_b: TagLike) -> RootDatum:
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


def _close_roots(cartan: List[List[int]]) -> List[Tuple[int, ...]]:
    """The positive roots in simple-root coordinates: the simple roots closed under the
    simple reflections, which permute the positive roots other than alpha_i."""
    n = len(cartan)
    roots = {tuple(int(j == i) for j in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(n):
                refl = _reflect(cartan, r, i)
                if min(refl) >= 0 and refl not in roots:
                    roots.add(refl)
                    nxt.append(refl)
        frontier = nxt
    return sorted(roots)


def builtin_datum(name: str) -> RootDatum:
    """Standard root datum (simple-root coordinates, Bourbaki conventions).

    The name is stripped, lower-cased and resolved through the aliases
    (sl3 is a2, so8 is d4, ...) before the cache, so every spelling of one
    datum gives one object, named by its canonical key.
    """
    key = name.strip().lower()
    key = _SERIES_ALIASES.get(key, key)
    kind, num = key[:1].upper(), key[1:]
    if kind not in "ABCDEFG" or not num.isdecimal():
        raise ValueError(f"unknown builtin datum {name!r}")
    n = int(num)
    checks = {"E": (6, 8), "F": (4, 4), "G": (2, 2), "A": (1, 30),
              "B": (2, 30), "C": (2, 30), "D": (3, 30)}
    lo, hi = checks[kind]
    if not (lo <= n <= hi):
        raise ValueError(f"rank out of range for builtin datum {name!r}")
    return _builtin_datum(kind, n)


@lru_cache(maxsize=None)
def _builtin_datum(kind: str, n: int) -> RootDatum:
    gram = _simple_gram(kind, n)
    cartan = [[int(2 * x / gram[j][j]) for j, x in enumerate(row)] for row in gram]
    positive = [_tup(r) for r in sorted(_close_roots(cartan), reverse=True)]
    rd = RootDatum(f"{kind.lower()}{n}", n, positive, gram)
    rd.markers["adjoint"] = rd.highest_root()
    return rd
