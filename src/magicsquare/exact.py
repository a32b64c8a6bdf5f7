"""Exact rational arithmetic primitives.

Everything in this package computes over Python's `fractions.Fraction`
or `int`; no floating point is used anywhere.  This module provides the
generalized binomial coefficient (rational upper argument), factorial
ratios with half-integer arguments paired so the gap is an integer,
q-analogs as integer products of factors (1 - q^n)^(+-1) (Gauss
q-binomials among them), and a factored product-of-linear-forms container
used for provenance and factor counting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Union

RatLike = Union[Fraction, int, str]


def rat(x: RatLike) -> Fraction:
    """Coerce ints, 'n/d' strings and Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def rat_str(x: Fraction) -> str:
    """Serialize a rational as 'n/d', or 'n' when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Fraction:
    """Parse 'n', 'n/d' or a decimal; malformed text or a zero denominator is a ValueError."""
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def check_counts(least: int, **values: int) -> None:
    """Raise ValueError, naming the argument, unless every value is an int >= least."""
    for name, v in values.items():
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{name} must be an integer, got {v!r}")
    if min(values.values()) < least:
        raise ValueError(f"{' and '.join(values)} must be >= {least}")


def gen_binomial(x: RatLike, k: int) -> Fraction:
    """Generalized binomial: prod_{i=1..k} (x - k + i) / i, with rational x.

    Agrees with the ordinary binomial coefficient for integer x >= k >= 0.
    """
    check_counts(0, k=k)
    x = rat(x)
    num = Fraction(1)
    for i in range(1, k + 1):
        num *= (x - k + i)
        num /= i
    return num


def factorial_ratio(x: RatLike, y: RatLike) -> Fraction:
    """x!/y! computed as prod_{j=1..x-y} (y + j), requiring x - y a nonneg integer.

    Half-integer factorials are never evaluated on their own; a formula
    whose factorial gap is not a nonnegative integer is being evaluated
    outside its rational domain, which is an error here.
    """
    x = rat(x)
    y = rat(y)
    gap = x - y
    if gap.denominator != 1 or gap < 0:
        raise ValueError(
            f"factorial_ratio: x - y must be a nonnegative integer, got {rat_str(gap)}"
        )
    out = Fraction(1)
    for j in range(1, int(gap) + 1):
        out *= (y + j)
    return out


class QPoly:
    """Polynomial in q with integer coefficients (dense, trimmed)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):  # coeffs[i] is the q^i coefficient
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise ValueError(f"QPoly: coefficients must be ints, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def at_one(self) -> int:
        return sum(self.coeffs)

    def has_nonneg_coeffs(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                q = "q" if i == 1 else f"q^{i}"
                terms.append(q if c == 1 else f"{c}*{q}")
        return " + ".join(terms).replace("+ -", "- ")


def q_product(exps: Mapping[int, int]) -> QPoly:
    """prod_n (1 - q^n)^(e_n) over a map n -> e_n, on integer coefficients.

    The factors with e_n > 0 are multiplied in first, each as a shift and
    subtract.  Each factor with e_n < 0 is then divided out by the running
    sum c_i += c_(i-n), the power series of c / (1 - q^n) up to the degree
    of c; it is the polynomial quotient iff its top n coefficients vanish,
    and anything else raises ValueError.
    """
    if any(n < 1 for n in exps):
        raise ValueError(f"q_product: a factor 1 - q^n needs n >= 1, got n = {min(exps)}")
    c = [1]
    for n, e in exps.items():
        for _ in range(e):
            c.extend([0] * n)
            for i in range(len(c) - 1, n - 1, -1):
                c[i] -= c[i - n]
    for n, e in exps.items():
        for _ in range(-e):
            for i in range(n, len(c)):
                c[i] += c[i - n]
            if any(c[-n:]):
                raise ValueError(f"q_product: 1 - q^{n} does not divide the product")
            del c[-n:]
    return QPoly(c)


def gauss_binomial(l: int, k: int) -> QPoly:
    """The Gauss polynomial [l+k choose k]_q = prod_{i=1..k} (1-q^{l+i})/(1-q^i)."""
    check_counts(0, l=l, k=k)
    exps = Counter()
    for i in range(1, k + 1):
        exps[l + i] += 1
        exps[i] -= 1
    return q_product(exps)


# ---------------------------------------------------------------------------
# Products of linear forms in named symbols (display / factor-count metadata).
# Evaluation of formulas always goes through gen_binomial products; this
# container only records the factorization and can re-evaluate it as a check.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearForm:
    """const + sum coeff_s * s over named symbols, exact coefficients."""

    const: Fraction
    coeffs: tuple  # sorted tuple of (symbol, Fraction) with nonzero Fraction

    @staticmethod
    def make(const: RatLike = 0, **coeffs: RatLike) -> "LinearForm":
        items = tuple(
            sorted((s, rat(c)) for s, c in coeffs.items() if rat(c) != 0)
        )
        return LinearForm(rat(const), items)

    def eval(self, assignment: Mapping[str, RatLike]) -> Fraction:
        out = self.const
        for s, c in self.coeffs:
            if s not in assignment:
                raise KeyError(f"LinearForm.eval: no value for symbol {s!r}")
            out += c * rat(assignment[s])
        return out

    def __str__(self) -> str:
        def term(s: str, c: Fraction) -> str:
            mag = abs(c)
            body = "" if mag.numerator == 1 else str(mag.numerator)
            body += s if mag.denominator == 1 else f"{s}/{mag.denominator}"
            return ("+ " if c > 0 else "- ") + body

        parts = []
        if self.const != 0 or not self.coeffs:
            parts.append(rat_str(self.const))
        parts.extend(term(s, c) for s, c in self.coeffs)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text


@dataclass
class LinearFactorProduct:
    """scalar * prod factor^exp with linear-form factors; exp < 0 means denominator."""

    scalar: Fraction = field(default_factory=lambda: Fraction(1))
    factors: list = field(default_factory=list)  # list of (LinearForm, int)

    def mul_factor(self, form: LinearForm, exp: int = 1) -> None:
        # Constant factors are kept: the factor counts of the series formulas
        # count degenerate linear forms too.
        if exp == 0:
            return
        self.factors.append((form, exp))

    def numerator_count(self) -> int:
        """Number of non-constant linear factors upstairs, with multiplicity."""
        return sum(e for _, e in self.factors if e > 0)

    def denominator_count(self) -> int:
        return sum(-e for _, e in self.factors if e < 0)

    def eval(self, assignment: Mapping[str, RatLike]) -> Fraction:
        out = self.scalar
        for form, exp in self.factors:
            v = form.eval(assignment)
            if v == 0 and exp < 0:
                raise ZeroDivisionError(f"pole: factor ({form}) vanishes")
            out *= v ** exp
        return out

    def __str__(self) -> str:
        num = [f"({f})" + (f"^{e}" if e > 1 else "") for f, e in self.factors if e > 0]
        den = [f"({f})" + (f"^{-e}" if e < -1 else "") for f, e in self.factors if e < 0]
        text = rat_str(self.scalar)
        if num:
            text += " * " + " ".join(num)
        if den:
            text += " / [" + " ".join(den) + "]"
        return text
