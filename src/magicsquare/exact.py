"""Exact rational arithmetic primitives.

Everything in this package computes over Python's `fractions.Fraction`;
no floating point is used anywhere.  This module provides the generalized
binomial coefficient (rational upper argument), factorial ratios with
half-integer arguments paired so the gap is an integer, Gauss q-binomials,
and a factored product-of-linear-forms container used for provenance and
factor counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Union

Rat = Fraction
RatLike = Union[Fraction, int, str]


def rat(x: RatLike) -> Fraction:
    """Coerce ints, 'n/d' strings and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x)


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


def gen_binomial(x: RatLike, k: int) -> Fraction:
    """Generalized binomial: prod_{i=1..k} (x - k + i) / i, with rational x.

    Agrees with the ordinary binomial coefficient for integer x >= k >= 0.
    """
    if k < 0:
        raise ValueError(f"gen_binomial: k must be >= 0, got {k}")
    x = rat(x)
    num = Fraction(1)
    for i in range(1, k + 1):
        num *= (x - k + i)
        num /= i
    return num


def falling_factorial(x: RatLike, k: int) -> Fraction:
    """x (x-1) ... (x-k+1), exact."""
    if k < 0:
        raise ValueError("falling_factorial: k must be >= 0")
    x = rat(x)
    out = Fraction(1)
    for i in range(k):
        out *= (x - i)
    return out


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
    """Polynomial in q with exact rational coefficients (dense, trimmed)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):  # coeffs[i] is the q^i coefficient
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @staticmethod
    def one() -> "QPoly":
        return QPoly([1])

    @staticmethod
    def monomial(n: int, c: RatLike = 1) -> "QPoly":
        return QPoly([0] * n + [rat(c)])

    @staticmethod
    def one_minus_q_pow(n: int) -> "QPoly":
        """1 - q^n."""
        if n == 0:
            return QPoly()
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        out[n] = Fraction(-1)
        return QPoly(out)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __add__(self, other: "QPoly") -> "QPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return QPoly(out)

    def divexact(self, other: "QPoly") -> "QPoly":
        """Exact polynomial division; raises if the remainder is nonzero."""
        if other.is_zero():
            raise ZeroDivisionError("QPoly division by zero polynomial")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        out = [Fraction(0)] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            out[i - d] = q
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] -= q * b
        if any(c != 0 for c in rem):
            raise ValueError("QPoly.divexact: division is not exact")
        return QPoly(out)

    def eval(self, q: RatLike) -> Fraction:
        q = rat(q)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * q + c
        return out

    def at_one(self) -> Fraction:
        return sum(self.coeffs, Fraction(0))

    def is_palindromic(self) -> bool:
        return self.coeffs == self.coeffs[::-1]

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
                terms.append(rat_str(c))
            else:
                q = "q" if i == 1 else f"q^{i}"
                terms.append(q if c == 1 else f"{rat_str(c)}*{q}")
        return " + ".join(terms).replace("+ -", "- ")


def gauss_binomial(l: int, k: int) -> QPoly:
    """The Gauss polynomial [l+k choose k]_q = prod_{i=1..k} (1-q^{l+i})/(1-q^i)."""
    if l < 0 or k < 0:
        raise ValueError("gauss_binomial: l, k must be >= 0")
    out = QPoly.one()
    for i in range(1, k + 1):
        out = (out * QPoly.one_minus_q_pow(l + i)).divexact(QPoly.one_minus_q_pow(i))
    return out


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
            if mag == 1:
                body = s
            elif mag.denominator == 1:
                body = f"{mag.numerator}{s}"
            else:
                body = f"{mag.numerator}{s}/{mag.denominator}"
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
