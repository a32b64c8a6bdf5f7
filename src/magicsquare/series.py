"""Closed-form dimension series over exact rationals.

The central object is a series descriptor: a table of root classes, each
carrying the pairings of the distinguished marker weights with that class
and the intervals over which (rho, alpha), rho the half-sum of positive
roots, runs on it.  An interval (lo, hi) is a pair of linear forms in the
series parameter and holds one root at each (rho, alpha) = lo, lo + 1, ...,
hi.  A uniform product over the descriptor implements the Weyl dimension
formula for any member of the series at once: each interval contributes
prod_{0 <= t < x} (hi + 1 + t) / (lo + t), x the marker pairing times the
chosen exponents.

  * a unit root is the interval [c, c], c = u + a v, with factor (c + x) / c;
  * an a-fold class (one per weight class of the varying-algebra slots, a
    positive roots each) is [c, c] plus [c - a/2 + 1, c + a/2 - 1], whose
    factor is the ratio C(c+x+a/2-1, x) / C(c+x-a/2, x) of generalized
    binomials;
  * the orthogonal family so(2t+4) is the same kind of table in t.

The exceptional, subexceptional and Severi descriptors are not typed in:
their rows are read off t(O), t(H) and t(C) on first use (`_triality_rows`).
The positive roots of t(B) are the unit roots and its positive slot weights
the a-fold classes, with u = (rho_t(B), beta), v = (gamma, beta), gamma half
the sum of the positive slot weights, in the Gram `roots.trace_gram` of all
the slot weights, scaled so that they have squared length 1.  Each
descriptor names the marker that each exponent symbol multiplies; the
markers' chart coordinates come from `roots.chart_markers`, the source that
extraction pads too.  Only `SO_FAMILY` keeps literal intervals.

The paper's closed forms are also provided verbatim as printed (suffix
_printed where they differ from the validated variants); the crosscheck
harness compares each against the Weyl oracle and records the outcome.  The
printed products in k (the Hilbert functions of the orbit varieties, the
subexceptional powers and so(2t+4)'s closed form) are one table `_PRINTED`
of factor data, read by one evaluator: a scalar, ratios (mk + c)/c and
binomials C(mk + c, mk), each c linear in the parameter.  The printed degrees
of the closed orbits are a second such table `_DEGREES`, read by
`degree_formulas`: a scalar, powers b^(c0 + c1 a) and factorial ratios
(x0 + x1 a)! / (y0 + y1 a)!.  A corrected form is its printed entry with
the correcting factors changed, typed once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import comb, lcm
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .exact import (
    LinearFactorProduct,
    LinearForm,
    QPoly,
    RatLike,
    check_counts,
    factorial_ratio,
    gen_binomial,
    q_product,
    rat,
)
from .linalg import int_dot, int_mat_vec, int_rows
from .roots import chart_denominator, chart_markers, factor_weights, slot_weights, trace_gram
from .triality import triality_algebra

F0 = Fraction(0)
F1 = Fraction(1)
HALF = Fraction(1, 2)


class _TermProduct:
    """Running product of linear terms, with exact cancellation of zero terms.

    Nonzero terms multiply into the integer pair num/den; zero terms are only
    counted, numerator minus denominator.  This is what multiset cancellation
    of the two term lists gives: more zeros downstairs is a pole, more
    upstairs is the value 0, and equal counts cancel: a zero term upstairs
    and one downstairs are dropped as a pair, instead of giving 0/0.  That
    is not the limit in the parameter.  At a = 0 the second interval of an
    a-fold class is [c + 1, c - 1]; its factor c / (c + x) cancels the first
    interval's, and that is why the classes that are empty there count as 1:
    at r = 1 the exceptional series gives 840, the Weyl dimension of so8's
    X3, while its a -> 0 limit is 2520.  The binomials of the printed
    formulas (`_PRINTED`) run through it as well, and so
    hilbert_X3_printed(1, 0) is 840 too; their prefactors do not, and a
    prefactor term that vanishes stays a ZeroDivisionError.
    """

    __slots__ = ("num", "den", "zeros")

    def __init__(self) -> None:
        self.num = 1
        self.den = 1
        self.zeros = 0

    def mul_interval(self, n: int, d: int, step: int, lo: int, hi: int) -> None:
        """Multiply by prod_{lo <= t < hi} (n/step + t) / (d/step + t).

        The step cancels between two nonzero terms; a term left alone by a
        zero is top / step or step / bottom.
        """
        for t in range(lo, hi):
            top, bottom = n + t * step, d + t * step
            if top:
                self.num *= top
            else:
                self.zeros += 1
                self.num *= step
            if bottom:
                self.den *= bottom
            else:
                self.zeros -= 1
                self.den *= step

    def value(self) -> Optional[Fraction]:
        """The product; None if it is a pole."""
        ratio = Fraction(self.num, self.den)
        # Keep the reduced pair, so num and den stay small along a long ray.
        self.num, self.den = ratio.numerator, ratio.denominator
        if self.zeros < 0:
            return None
        return F0 if self.zeros else ratio


Form = Tuple[Fraction, Fraction]  # c0 + c1 * parameter
Interval = Tuple[Form, Form]


@dataclass(frozen=True)
class DescriptorRow:
    """A class of positive roots with the same marker pairings.

    Each interval (lo, hi) of linear forms in the parameter holds one root
    at each (rho, alpha) = lo, lo + 1, ..., hi, so its Weyl factor at marker
    pairing x is prod_{0 <= t < x} (hi + 1 + t) / (lo + t).  A unit root is
    [c, c], its factor (c + x) / c; an a-fold class is [c, c] plus
    [c - a/2 + 1, c + a/2 - 1].
    """

    pairings: Tuple[int, ...]
    intervals: Tuple[Interval, ...]
    # Per interval (D, D lo0, D lo1, D (hi0 + 1), D hi1), D the lcm of the denominators.
    _scaled: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        scaled = []
        for (l0, l1), (h0, h1) in self.intervals:
            forms = (l0, l1, h0 + 1, h1)
            den = lcm(*(c.denominator for c in forms))
            scaled.append((den, *(int(c * den) for c in forms)))
        object.__setattr__(self, "_scaled", tuple(scaled))

    def interval_starts(self, a: Fraction) -> List[Tuple[int, int, int]]:
        """Triples (n, d, D), one per interval: n/D = hi(a) + 1 and d/D = lo(a),
        so the interval's factor at pairing x is prod_{0 <= t < x} (n/D + t) / (d/D + t).
        With a = p/q, D is q times the lcm of the forms' denominators."""
        p, q = a.numerator, a.denominator
        return [(h0 * q + h1 * p, l0 * q + l1 * p, den * q) for den, l0, l1, h0, h1 in self._scaled]


@dataclass
class SeriesDescriptor:
    """A series: markers[sym] names the marker weight that the exponent sym
    multiplies, in exponent order, and make_rows(markers) gives the rows on
    their first read."""

    name: str
    markers: Dict[str, str]
    make_rows: Callable[[Mapping[str, str]], List[DescriptorRow]]
    param: str = "a"

    @property
    def symbols(self) -> Tuple[str, ...]:
        return tuple(self.markers)

    @cached_property
    def rows(self) -> List[DescriptorRow]:
        return self.make_rows(self.markers)


@dataclass
class SeriesResult:
    value: Optional[Fraction]
    pole: bool = False

    @property
    def integrality(self) -> bool:
        return (not self.pole and self.value is not None
                and self.value.denominator == 1 and self.value > 0)


def _interval(lo, hi) -> Interval:
    return (Fraction(lo[0]), Fraction(lo[1])), (Fraction(hi[0]), Fraction(hi[1]))


def _triality_rows(tag: str, markers: Mapping[str, str]) -> List[DescriptorRow]:
    """The rows of the series along the row of B = tag, from t(B) alone.

    On the chart of t(B), with the Gram `trace_gram` of the slot weights
    scaled so that every slot weight has squared length 1, each positive
    root beta of t(B) is a unit root and each positive slot weight beta,
    slot by slot, an a-fold class, at (rho, alpha) = c = u + a v with
    u = (rho_t(B), beta) and v = (gamma, beta), gamma half the sum of the
    positive slot weights.  The pairings are those of the markers with
    beta.  All of them are ratios of integer pairings of keys; only u and v
    become Fractions.  ValueError when the slot weights differ in length or
    a pairing is not an integer.
    """
    t = triality_algebra(tag)
    den = chart_denominator(t)
    weights = [w for ws in slot_weights(t) for w in ws]
    q, _ = trace_gram(weights)
    zero = tuple([0] * len(q))
    units = [w for w in factor_weights(t) if w > zero]
    slots = [w for w in weights if w > zero]
    # Every pairing is a ratio of x . Q y on the keys, the Gram up to a factor
    # > 0: twice rho and gamma are sums of keys, and a marker that is m / mden
    # in chart coordinates, m an integer vector, has the key den m / mden.
    lengths = {int_dot(w, int_mat_vec(q, w)) for w in slots}
    if len(lengths) != 1:
        raise ValueError(f"the slot weights of t({tag}) differ in length")
    length = lengths.pop()
    rho, gamma = ([sum(c) for c in zip(zero, *ws)] for ws in (units, slots))
    chart = chart_markers(t)
    marks, mden = int_rows([chart[m] for m in markers.values()])
    rows = []
    for fold, betas in ((False, units), (True, slots)):
        for beta in betas:
            qb = int_mat_vec(q, beta)
            pairings = [divmod(den * int_dot(m, qb), mden * length) for m in marks]
            if any(r for _, r in pairings):
                raise ValueError(f"a marker pairs with the weight "
                                 f"{tuple(Fraction(x, den) for x in beta)} of t({tag}) "
                                 "to a non-integer")
            u, v = (Fraction(int_dot(w, qb), 2 * length) for w in (rho, gamma))
            ivs = ((u, v), (u, v)), ((u + 1, v - HALF), (u - 1, v + HALF))
            rows.append(DescriptorRow(tuple(x for x, _ in pairings), ivs if fold else ivs[:1]))
    return rows


EXCEPTIONAL = SeriesDescriptor("exceptional", {"p": "g", "q": "X2", "r": "X3", "s": "Y2star"},
                               partial(_triality_rows, "O"))
SUBEXCEPTIONAL = SeriesDescriptor("subexceptional", {"p": "g", "q": "V", "r": "V2"},
                                  partial(_triality_rows, "H"))
SEVERI = SeriesDescriptor("severi", {"p": "W", "pstar": "Wstar"}, partial(_triality_rows, "C"))

# Orthogonal family so(2t+4): the roots pairing with the highest root, three
# single roots at 2t+1, t, t+1 and the intervals [1, 2t-1], [2, 2t].
SO_FAMILY = SeriesDescriptor("so-family", {"k": "adjoint"}, lambda markers: [
    DescriptorRow((2,), (_interval((1, 2), (1, 2)),)),
    DescriptorRow((1,), (_interval((0, 1), (0, 1)), _interval((1, 1), (1, 1)),
                         _interval((1, 0), (-1, 2)), _interval((2, 0), (0, 2)))),
], param="t")


# -- the generic evaluator ---------------------------------------------------------


def _exponent_list(d: SeriesDescriptor, exponents: Mapping[str, int]) -> List[int]:
    """The exponents in the order of d.symbols, 0 where not given; ValueError
    on a symbol that d lacks or an exponent that is not an integer >= 0."""
    for s in exponents:
        _symbol_index(d, s)
    exps = [exponents.get(s, 0) for s in d.symbols]
    for s, e in zip(d.symbols, exps):
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"exponents must be nonnegative integers, got {s} = {e!r}")
    return exps


def _symbol_index(d: SeriesDescriptor, sym: str) -> int:
    if sym not in d.symbols:
        raise ValueError(f"unknown exponent symbol {sym!r}; the series has {', '.join(d.symbols)}")
    return d.symbols.index(sym)


def evaluate_series(d: SeriesDescriptor, exponents: Mapping[str, int],
                    a: RatLike) -> SeriesResult:
    """Weyl-product evaluation of the series at given exponents and parameter."""
    a = rat(a)
    exps = _exponent_list(d, exponents)
    prod = _TermProduct()
    for row in d.rows:
        x = sum(t * e for t, e in zip(row.pairings, exps))
        for num, den, step in row.interval_starts(a):
            prod.mul_interval(num, den, step, 0, x)
    value = prod.value()
    return SeriesResult(value, pole=value is None)


def series_factors(d: SeriesDescriptor, exponents: Mapping[str, int]) -> LinearFactorProduct:
    """The product that evaluate_series evaluates, as linear forms in the parameter.

    It depends on the exponents only: a single-root interval [c, c] gives the
    one factor (c + x) / c, x the row's marker pairing, and any other
    interval (lo, hi) its terms (hi + 1 + t) / (lo + t) for t < x.
    """
    exps = _exponent_list(d, exponents)
    p = d.param
    lfp = LinearFactorProduct()
    for row in d.rows:
        x = sum(t * e for t, e in zip(row.pairings, exps))
        for (l0, l1), (h0, h1) in row.intervals:
            if (l0, l1) == (h0, h1):
                lfp.mul_factor(LinearForm.make(l0 + x, **{p: l1}), 1)
                lfp.mul_factor(LinearForm.make(l0, **{p: l1}), -1)
            else:
                for t in range(x):
                    lfp.mul_factor(LinearForm.make(h0 + 1 + t, **{p: h1}), 1)
                    lfp.mul_factor(LinearForm.make(l0 + t, **{p: l1}), -1)
    return lfp


def hilbert_ray(d: SeriesDescriptor, sym: str, a: RatLike,
                kmax: int) -> List[Optional[Fraction]]:
    """evaluate_series(d, {sym: k}, a).value for k = 0..kmax, in one pass.

    Step k -> k+1 multiplies one running product by the terms t in
    [p k, p (k+1)) of each row's intervals, p the row's pairing with sym, so
    the ray costs O(kmax) row steps instead of O(kmax^2) for kmax+1 separate
    evaluations.  None stands for a pole.
    """
    check_counts(0, k=kmax)
    a = rat(a)
    i = _symbol_index(d, sym)
    steps = [(num, den, step, row.pairings[i]) for row in d.rows if row.pairings[i]
             for num, den, step in row.interval_starts(a)]
    prod = _TermProduct()
    values = []
    for k in range(kmax + 1):
        if k:
            for num, den, step, pairing in steps:
                prod.mul_interval(num, den, step, pairing * (k - 1), pairing * k)
        values.append(prod.value())
    return values


# -- closed forms: exceptional series ------------------------------------------------


def lambda_of_a(a: RatLike) -> Fraction:
    a = rat(a)
    if a == -2:
        raise ZeroDivisionError("lambda undefined at a = -2")
    return Fraction(-2) / (a + 2)


def adjoint_cartan_ray(a: RatLike, kmax: int) -> List[Fraction]:
    """dim g^(k) along the exceptional series for k = 0..kmax, exact in a.

    dim g^(k) = (3a+2k+5)/(3a+5) * C(k+2a+3, k) C(k+5a/2+3, k) C(k+3a+4, k)
    / (C(k+a/2+1, k) C(k+a+1, k)); step k multiplies the binomial ratio by
    (2a+3+k)(5a/2+3+k)(3a+4+k) / (k (a/2+1+k)(a+1+k)).
    """
    check_counts(0, k=kmax)
    a = rat(a)
    if 3 * a + 5 == 0:
        raise ZeroDivisionError("pole at 3a+5 = 0")
    ratio = F1
    values = [F1]
    for k in range(1, kmax + 1):
        bottom = k * (a / 2 + 1 + k) * (a + 1 + k)
        if bottom == 0:
            raise ZeroDivisionError("pole in the binomial denominator")
        ratio *= (2 * a + 3 + k) * (5 * a / 2 + 3 + k) * (3 * a + 4 + k) / bottom
        values.append((3 * a + 2 * k + 5) / (3 * a + 5) * ratio)
    return values


def adjoint_cartan_power(k: int, a: RatLike) -> Fraction:
    """dim g^(k) along the exceptional series, exact in the parameter a."""
    return adjoint_cartan_ray(a, k)[-1]


def deligne_Yk_printed(k: int, lam: RatLike) -> Fraction:
    """The lambda-parametrized product exactly as printed (overall sign slip)."""
    check_counts(0, k=k)
    lam = rat(lam)
    if lam == 0 or lam == -6:
        raise ZeroDivisionError("pole at lambda in {0, -6}")
    pref = ((2 * k - 1) * lam - 6)
    denom = lam ** k * (lam + 6)
    for j in range(1, k + 1):
        denom *= j
    out = pref / denom
    for j in range(1, k + 1):
        out *= ((j - 1) * lam - 4) * ((j - 2) * lam - 5) * ((j - 2) * lam - 6)
        out /= (j * lam - 1) * ((j - 1) * lam - 2)
    return out


def deligne_Yk(k: int, lam: RatLike) -> Fraction:
    """dim Y_k as a function of the inverse Coxeter parameter.

    The substitution 3a+5 = -(lambda+6)/lambda into the a-form shows the
    printed lambda-product carries a global factor -1; this returns the
    sign-corrected value, which matches adjoint_cartan_power(k, a) under
    lambda = -2/(a+2).
    """
    return -deligne_Yk_printed(k, lam)


def qdim_adjoint_cartan_power(k: int, a: RatLike) -> QPoly:
    """q-analog of dim g^(k); requires integral exponents (a even, >= 0).

    The prefactor (1 - q^(3a+2k+5)) / (1 - q^(3a+5)) and the five Gauss
    binomials [l+k choose k]_q, l = 2a+3, 5a/2+3, 3a+4 upstairs and
    a/2+1, a+1 downstairs, are one count of (1 - q^n) exponents.
    """
    check_counts(0, k=k)
    a = rat(a)
    if a.denominator != 1 or a < 0 or a % 2 != 0:
        raise ValueError("q-analog needs a an even nonnegative integer")
    a = int(a)
    exps = Counter({3 * a + 2 * k + 5: 1})
    exps[3 * a + 5] -= 1
    for l, e in ((2 * a + 3, 1), (5 * a // 2 + 3, 1), (3 * a + 4, 1), (a // 2 + 1, -1), (a + 1, -1)):
        for i in range(1, k + 1):
            exps[l + i] += e
            exps[i] -= e
    try:
        return q_product(exps)
    except ValueError:
        raise ValueError(f"the q-analog is not a polynomial at a = {a}, k = {k}") from None


# -- the paper's printed products in k -------------------------------------------------


# Each formula as printed, typed once as data: a scalar, the prefactor ratios
# (m, c0, c1), each (m k + c) / c, and the binomials (m, c0, c1, +-1), each
# C(m k + c, m k) upstairs or downstairs, where c = c0 + c1 x and x is the
# formula's parameter, a or, for so(2t+4), t.  A printed 1 / (k + 1) is
# C(k + 1, k) downstairs.
_PRINTED = {
    "X2": (1, [(1, 1, 1), (1, 2, 1), (2, 3, 2), (3, 4, 3), (3, 5, 3)],
           [(1, 1, 3 * HALF, 1), (1, 2, 3 * HALF, 1), (1, 1, 2, 1), (1, 2, 2, 1),
            (1, 1, 0, -1), (1, 0, HALF, -1), (1, 1, HALF, -1),
            (2, 3, 5 * HALF, 1), (2, 3, 3, 1), (2, 2, 1, -1), (2, 2, 3 * HALF, -1)]),
    "X3": (1, [(2, 1, 3 * HALF), (2, 2, 3 * HALF), (2, 3, 3 * HALF),
               (4, 3, 3), (4, 4, 3), (4, 5, 3)],
           [(1, 0, 1, 1), (1, 1, 1, 1), (1, 2, 1, 1),
            (1, -1, 3 * HALF, 1), (1, 0, 3 * HALF, 1), (1, 1, 3 * HALF, 1),
            (1, 1, 0, -1), (1, 2, 0, -1), (1, -1, HALF, -1), (1, 0, HALF, -1), (1, 1, HALF, -1),
            (2, 1, 2, 1), (2, 2, 2, 1), (2, 3, 2, 1), (2, 0, 1, -1), (2, 1, 1, -1), (2, 2, 1, -1),
            (3, 3, 5 * HALF, 1), (3, 2, 3, 1), (3, 3, 3 * HALF, -1), (3, 2, 2, -1)]),
    "Y2star": (1, [(2, 3, 5 * HALF)],
               [(1, 0, 2, 1), (1, 1, 2, 1), (1, 3, 2, 1), (1, 2, 5 * HALF, 1),
                (1, -1, HALF, -1), (1, 1, HALF, -1), (1, 2, HALF, -1), (1, 1, 1, -1), (1, 3, 1, -1),
                (2, 5, 3, 1), (2, 0, 2, -1)]),
    "subexc_g": (1, [(2, 1, 2)],
                 [(1, -1, 3 * HALF, 1), (1, 1, 3 * HALF, 1), (1, 0, 2, 1),
                  (1, -1, HALF, -1), (1, 1, HALF, -1)]),
    "subexc_V": (2, [(1, 1, 1)], [(1, 1, 2, 1), (1, 1, 3 * HALF, 1), (1, 1, HALF, -1)]),
    "subexc_V2": (1, [(4, 2, 3)],
                  [(1, 1, 1, 1), (1, 0, 3 * HALF, 1), (1, -1, 3 * HALF, 1), (1, 0, 1, 1),
                   (1, 0, HALF, -1), (1, -1, HALF, -1), (1, 1, 0, -1),
                   (2, 1, 2, 1), (2, 0, 1, -1)]),
    "so_family": (1, [(2, 1, 2), (1, 0, 1), (1, 1, 1)],
                  [(1, 1, 0, -1), (1, -1, 2, 1), (1, 0, 2, 1)]),
}
# subexc_V with its prefactor fixed (`subexc_V_corrected`): the scalar 1 for
# the printed 2, and one more ratio (2k + 2 + a) / (2 + a).
_V = _PRINTED["subexc_V"]
_PRINTED["subexc_V_corrected"] = (1, [*_V[1], (2, 2, 1)], _V[2])


def _printed(name: str, k: int, x: RatLike) -> Fraction:
    """The printed formula _PRINTED[name] at k and parameter x.

    The prefactor is a plain product, so a ratio whose c vanishes raises
    ZeroDivisionError.  Every binomial C(mk+c, mk) = prod_{i=1..mk} (c+i)/i
    is expanded into its terms, and a zero term upstairs is dropped with one
    downstairs (`_TermProduct`), where verbatim evaluation would divide 0 by
    0; more zeros downstairs is a pole, ZeroDivisionError.  This is not the
    limit in the parameter: at a = 0, hilbert_X3_printed(1, 0) is 840, like
    the descriptor, while the a -> 0 limit is 2520.
    """
    check_counts(0, k=k)
    x = rat(x)
    scalar, ratios, binomials = _PRINTED[name]
    value = Fraction(scalar)
    for m, c0, c1 in ratios:
        c = c0 + c1 * x
        value *= (m * k + c) / c
    prod = _TermProduct()
    # C(mk+c, mk) = prod_{0 <= t < mk} (c + 1 + t) / (1 + t), over c's denominator
    for m, c0, c1, sign in binomials:
        c = c0 + c1 * x
        top, bottom = c.numerator + c.denominator, c.denominator
        if sign < 0:
            top, bottom = bottom, top
        prod.mul_interval(top, bottom, c.denominator, 0, m * k)
    binomial = prod.value()
    if binomial is None:
        raise ZeroDivisionError("pole in binomial denominator")
    return value * binomial


def hilbert_X2_printed(k: int, a: RatLike) -> Fraction:
    return _printed("X2", k, a)


def hilbert_X3_printed(k: int, a: RatLike) -> Fraction:
    return _printed("X3", k, a)


def hilbert_Y2star_printed(k: int, a: RatLike) -> Fraction:
    return _printed("Y2star", k, a)


def subexc_g_printed(k: int, a: RatLike) -> Fraction:
    return _printed("subexc_g", k, a)


def subexc_V_printed(k: int, a: RatLike) -> Fraction:
    return _printed("subexc_V", k, a)


def subexc_V_corrected(k: int, a: RatLike) -> Fraction:
    """dim V^(k) with the prefactor fixed against the Weyl oracle.

    The shipped tables's (2a+2k+2)/(a+1) prefactor contradicts dim V = 6a+8
    already at k=1; (k+a+1)(a+2k+2)/((a+1)(a+2)) restores the series.
    """
    return _printed("subexc_V_corrected", k, a)


def subexc_V2_printed(k: int, a: RatLike) -> Fraction:
    return _printed("subexc_V2", k, a)


# -- Severi series ------------------------------------------------------------------


def severi_dim(p: int, pstar: int, a: RatLike) -> SeriesResult:
    check_counts(0, p=p, pstar=pstar)
    a = rat(a)
    if a == 0:
        return SeriesResult(None, pole=True)
    h = a / 2
    b = gen_binomial
    pref = (2 * p + a) * (p + pstar + a) * (2 * pstar + a) / a ** 3
    num = b(p + a - 1, p) * b(p + pstar + 3 * h - 1, p + pstar) * b(pstar + a - 1, pstar)
    den = b(p + pstar + h, p + pstar)
    if den == 0:
        return SeriesResult(None, pole=True)
    value = pref * num / den
    # The printed product and the descriptor product are the same formula;
    # assert they agree whenever both are finite.
    res = evaluate_series(SEVERI, {"p": p, "pstar": pstar}, a)
    if res.value is not None and res.value != value:
        raise AssertionError("severi closed form disagrees with its descriptor")
    return SeriesResult(value)


# -- orthogonal family and the generalized third row ----------------------------------


def _so_family_args(k: int, t: int) -> None:
    check_counts(0, k=k)
    check_counts(1, t=t)


def so_family_dim(k: int, t: int) -> SeriesResult:
    """dim so(2t+4)^(k), closed form as printed."""
    _so_family_args(k, t)
    return SeriesResult(_printed("so_family", k, t))


def so_family_interval(k: int, t: int) -> SeriesResult:
    """The same dimension from the interval descriptor (independent route)."""
    _so_family_args(k, t)
    return evaluate_series(SO_FAMILY, {"k": k}, t)


def thirdrow_dim(k: int, r: int, a: RatLike) -> SeriesResult:
    """dim of the k-th adjoint Cartan power in the generalized third row."""
    check_counts(0, k=k)
    check_counts(2, r=r)
    a = rat(a)
    b = gen_binomial
    pref_den = a * (r - 1) + 1
    if pref_den == 0:
        return SeriesResult(None, pole=True)
    num = (b(k + a * r / 2 - 1, k) * b(k + a * r - a, k)
           * b(k + (a * r - a) / 2, k) * b(k + a * r + 1 - 3 * a / 2, k))
    den = (b(k + a / 2 - 1, k) * b(k + a * r / 2 + 1 - a, k)
           * b(k + (a * r - a) / 2, k))
    if den == 0:
        return SeriesResult(None, pole=True)
    return SeriesResult((2 * k + a * (r - 1) + 1) / pref_den * num / den)


# -- degrees of the closed orbits ------------------------------------------------------


# Each printed degree typed once as data: a scalar, the powers (b, c0, c1),
# each b^(c0 + c1 a), and the factorial ratios (x0, x1, y0, y1, +-1), each
# ((x0 + x1 a)! / (y0 + y1 a)!)^(+-1).  A bare linear factor c is the ratio
# c! / (c - 1)!: 1 / (2a + 1) is (1, 2, 0, 2, -1).
_DEGREES = {
    "ad": (2, [], [(9, 6, 5, 3, 1), (3, 5 * HALF, 1, HALF, -1), (3, 2, 1, 1, -1)]),
    "fplanes": (9, [(2, 3, 3)], [(11, 9, 5, 3, 1), (1, 2, 0, 1, -1), (1, 3 * HALF, 0, HALF, -1),
                                 (3, 5 * HALF, 1, HALF, -1), (3, 2, 0, 0, -1)]),
    "flines": (1, [(2, 6, 3), (3, 0, 2)], [(9, 11, 3, 2, 1), (-1, 3 * HALF, -1, HALF, -1),
                                           (1, 3 * HALF, 0, HALF, -1), (3, 5 * HALF, 1, HALF, -1)]),
    "fpoints": (1, [(2, 6, 1)], [(9, 6, 5, 3, 1), (1, HALF, 0, 0, 1), (3, 2, 1, 1, -1),
                                 (1, 2, 3, 1, -1), (2, 5 * HALF, 2, HALF, -1)]),
    "subexc_ad": (2, [], [(1, 2, 0, 2, -1), (1, 4, 0, 2, 1), (-1, 3 * HALF, -1, HALF, -1),
                          (1, 3 * HALF, 1, HALF, -1)]),
    "subexc_X_printed": (2, [], [(3, 3, 1, 2, 1), (1, 3 * HALF, 1, HALF, -1)]),
    "subexc_flines_printed": (1, [(2, 3, 1)], [(2, 5, 2, 3, 1), (0, 3 * HALF, 0, HALF, -1),
                                               (-1, 3 * HALF, -1, HALF, -1), (1, 1, 0, 0, -1),
                                               (1, 2, 0, 0, -1)]),
}
# The printed subexc_X inherits the V^(k) prefactor slip (`subexc_V_corrected`);
# one more factor ((a + 2)! / a!)^-1 = 1 / ((a + 1)(a + 2)) fixes it.
_X = _DEGREES["subexc_X_printed"]
_DEGREES["subexc_X"] = (*_X[:2], [*_X[2], (2, 1, 0, 1, -1)])
# As printed, subexc_flines divides by (3a + 2)! through (5a + 2)! / (3a + 2)!; the
# leading-coefficient oracle shows it must be the bare linear factor 3a + 2, as
# in the neighbouring adjoint degree: (5a + 2)! / 0! times (3a + 2)^-1.
_FLINES = _DEGREES["subexc_flines_printed"]
_DEGREES["subexc_flines"] = (*_FLINES[:2], [(2, 5, 0, 0, 1), (2, 3, 1, 3, -1), *_FLINES[2][1:]])


def degree_formulas(variety: str, a: RatLike) -> Fraction:
    """Exact degree of the named closed orbit: the entry _DEGREES[variety] at a.

    The scalar, the powers and the factorial ratios multiply in the entry's
    order, so the first factor that fails raises: a ratio whose gap is not a
    nonnegative integer a ValueError (`factorial_ratio`), a vanishing ratio
    downstairs a ZeroDivisionError.
    """
    a = rat(a)
    if variety not in _DEGREES:
        raise ValueError(f"unknown variety {variety!r}")
    scalar, powers, ratios = _DEGREES[variety]
    value = Fraction(scalar)
    for b, c0, c1 in powers:
        value *= Fraction(b) ** (c0 + c1 * a)
    for x0, x1, y0, y1, sign in ratios:
        ratio = factorial_ratio(x0 + x1 * a, y0 + y1 * a)
        value = value * ratio if sign > 0 else value / ratio
    return value


# Hilbert function of each orbit variety, as the ray of one marker symbol
# through a descriptor; the variety's dimension is the ray's degree in k
# (`ray_degree`).
VARIETY_RAYS = {
    "ad": (EXCEPTIONAL, "p"),
    "fplanes": (EXCEPTIONAL, "q"),
    "flines": (EXCEPTIONAL, "r"),
    "fpoints": (EXCEPTIONAL, "s"),
    "subexc_ad": (SUBEXCEPTIONAL, "p"),
    "subexc_X": (SUBEXCEPTIONAL, "q"),
    "subexc_X_printed": (SUBEXCEPTIONAL, "q"),
    "subexc_flines": (SUBEXCEPTIONAL, "r"),
    "subexc_flines_printed": (SUBEXCEPTIONAL, "r"),
}


def ray_degree(d: SeriesDescriptor, sym: str, a: RatLike) -> Fraction:
    """The degree in k of the sym ray at a: the number hi - lo + 1 of roots,
    summed over the intervals of the rows that pair with sym, over the
    common denominator of their `interval_starts`."""
    a = rat(a)
    i = _symbol_index(d, sym)
    starts = [s for row in d.rows if row.pairings[i] for s in row.interval_starts(a)]
    den = lcm(*(step for _, _, step in starts))
    return Fraction(sum((num - lo) * (den // step) for num, lo, step in starts), den)


def degree_from_hilbert(variety: str, a: RatLike) -> Fraction:
    """(dim X)! times the leading k-coefficient of the Hilbert function.

    The leading coefficient is extracted by exact finite differences, an
    independent route from the factorial-ratio degree formulas.
    """
    if variety not in VARIETY_RAYS:
        raise ValueError(f"unknown variety {variety!r}")
    a = rat(a)
    d = ray_degree(*VARIETY_RAYS[variety], a)
    if d.denominator != 1:
        raise ValueError("variety dimension not integral here")
    if d < 0:
        raise ValueError(f"variety dimension {d} is negative here")
    d = int(d)
    values = hilbert_ray(*VARIETY_RAYS[variety], a, d)
    # (-1)^(d-i) C(d,i) f(i), summed over the common denominator of the f(i)
    den = lcm(*(v.denominator for v in values))
    return Fraction(sum((-1) ** (d - i) * comb(d, i) * v.numerator * (den // v.denominator)
                        for i, v in enumerate(values)), den)


# -- lattice predicate ------------------------------------------------------------------


def admissible_weight(o: Sequence[int]) -> bool:
    """True iff o1 w1 + o2 w2 + o3 w3 + o4 w4 lies in the index-four sublattice.

    ValueError unless o holds exactly four integer labels.
    """
    o = tuple(o)
    if len(o) != 4 or not all(isinstance(c, int) and not isinstance(c, bool) for c in o):
        raise ValueError(f"expected four integer Dynkin labels, got {o!r}")
    o1, _, o3, o4 = o
    return (o1 + o3) % 2 == 0 and (o1 + o4) % 2 == 0 and (o3 + o4) % 2 == 0
