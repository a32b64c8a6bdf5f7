import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from magicsquare.exact import (
    LinearFactorProduct,
    LinearForm,
    QPoly,
    factorial_ratio,
    gauss_binomial,
    gen_binomial,
    parse_rat,
    q_product,
    rat_str,
)
from magicsquare.series import (
    EXCEPTIONAL,
    SEVERI,
    SO_FAMILY,
    SUBEXCEPTIONAL,
    evaluate_series,
    series_factors,
)
from tests_helpers import falling_factorial, is_palindromic, mul_scalar, reference_q_product

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def test_gen_binomial_examples():
    assert gen_binomial(20, 1) == 20
    assert gen_binomial(Fraction(13, 2), 1) == Fraction(13, 2)
    assert gen_binomial(Fraction(11, 3), 2) == Fraction(44, 9)
    assert gen_binomial(Fraction(5), 0) == 1


def test_gen_binomial_matches_integer_binomial():
    from math import comb

    for x in range(31):
        for k in range(x + 1):
            assert gen_binomial(x, k) == comb(x, k)


@given(rationals, st.integers(min_value=0, max_value=10))
@settings(max_examples=100)
def test_gen_binomial_falling_factorial(x, k):
    fact = 1
    for i in range(1, k + 1):
        fact *= i
    assert gen_binomial(x, k) * fact == falling_factorial(x, k)


def test_gen_binomial_rejects_negative_k():
    with pytest.raises(ValueError):
        gen_binomial(3, -1)


def test_factorial_ratio():
    assert factorial_ratio(5, 3) == 20
    assert factorial_ratio(Fraction(7, 2), Fraction(3, 2)) == Fraction(35, 4)
    assert factorial_ratio(Fraction(9, 4), Fraction(9, 4)) == 1
    with pytest.raises(ValueError):
        factorial_ratio(Fraction(7, 2), 3)
    with pytest.raises(ValueError):
        factorial_ratio(2, 5)


def test_gauss_binomial_examples():
    assert gauss_binomial(1, 1) == QPoly([1, 1])
    assert gauss_binomial(2, 2) == QPoly([1, 1, 2, 1, 1])


def test_gauss_binomial_q1_limit():
    from math import comb

    for l in range(8):
        for k in range(8):
            assert gauss_binomial(l, k).at_one() == comb(l + k, k)


def test_gauss_binomial_palindromic_nonneg():
    for l in range(13):
        for k in range(13):
            g = gauss_binomial(l, k)
            assert is_palindromic(g)
            assert g.has_nonneg_coeffs()


@lru_cache(maxsize=None)
def partitions_in_box(j, k, l):
    """The number of partitions of j into at most k parts, each at most l."""
    if j == 0:
        return 1
    if k == 0 or l == 0:
        return 0
    # Either no part equals l, or remove one part equal to l.
    return partitions_in_box(j, k, l - 1) + (partitions_in_box(j - l, k - 1, l) if j >= l else 0)


exponent_maps = st.dictionaries(st.integers(min_value=1, max_value=12),
                                st.integers(min_value=0, max_value=3), max_size=5)


@given(exponent_maps)
@settings(max_examples=100)
def test_q_product_matches_convolution(exps):
    assert q_product(exps).coeffs == reference_q_product(exps)


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9))
@settings(max_examples=60)
def test_gauss_binomial_counts_partitions_in_a_box(l, k):
    g = gauss_binomial(l, k)
    assert g.degree == l * k
    assert g.coeffs == [partitions_in_box(j, k, l) for j in range(l * k + 1)]


def convolve(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


@given(exponent_maps, st.lists(st.integers(min_value=1, max_value=3), min_size=12, max_size=12))
@settings(max_examples=100)
def test_q_product_divides_exactly(den, mult):
    # (1 - q^n) divides (1 - q^(m n)), so prod (1-q^(m_n n))^e_n / (1-q^n)^e_n is a polynomial
    # whose product with the denominators gives back the numerators.
    num = Counter()
    for n, e in den.items():
        num[mult[n - 1] * n] += e
    exps = num.copy()
    for n, e in den.items():
        exps[n] -= e
    quotient = q_product(exps).coeffs
    assert convolve(quotient, reference_q_product(den)) == reference_q_product(num)


def test_q_product_rejects_non_polynomials():
    # 1/(1-q), (1-q^2)/(1-q^3) and (1-q^2)/(1-q)^3 are no polynomials; 1 - q^0 is no factor.
    for exps in ({1: -1}, {2: 1, 3: -1}, {2: 1, 1: -3}, {0: 1}, {-1: 1}):
        with pytest.raises(ValueError):
            q_product(exps)


def test_qpoly_holds_only_int_coefficients():
    assert QPoly([1, 2, 0, 0]).coeffs == [1, 2]
    assert repr(QPoly([1, -2, 0, 3])) == "1 - 2*q + 3*q^3"
    for bad in (Fraction(1), 1.0, "1"):
        with pytest.raises(ValueError):
            QPoly([1, bad])


def test_rat_strings():
    assert rat_str(Fraction(3)) == "3"
    assert rat_str(Fraction(-5, 2)) == "-5/2"
    assert parse_rat("-5/2") == Fraction(-5, 2)


def test_linear_form_prints_unit_fractions_without_a_numerator():
    # A numerator of 1 is not printed: +-1/2 a prints as a/2, not 1a/2.
    assert str(LinearForm.make(3, a=Fraction(1, 2))) == "3 + a/2"
    assert str(LinearForm.make(0, a=Fraction(1, 2))) == "a/2"
    assert str(LinearForm.make(1, a=Fraction(-1, 2))) == "1 - a/2"
    assert str(LinearForm.make(0, a=Fraction(-1, 3))) == "- a/3"
    assert str(LinearForm.make(4, a=Fraction(3, 2), b=-1)) == "4 + 3a/2 - b"
    assert str(LinearForm.make(0, a=2)) == "2a"


def test_linear_factor_product_eval():
    lfp = LinearFactorProduct()
    mul_scalar(lfp, Fraction(3, 2))
    lfp.mul_factor(LinearForm.make(1, a=2))      # 1 + 2a
    lfp.mul_factor(LinearForm.make(0, a=1), -1)  # 1/a
    assert lfp.eval({"a": Fraction(2)}) == Fraction(3, 2) * 5 / 2
    with pytest.raises(ZeroDivisionError):
        lfp.eval({"a": Fraction(0)})
    assert lfp.numerator_count() == 1
    assert lfp.denominator_count() == 1


def test_linear_factor_product_matches_series_value():
    # evaluation of the factored form equals the formula value at 50
    # assignments that avoid poles
    rng = random.Random(7)
    checked = 0
    while checked < 50:
        exps = {s: rng.randint(0, 2) for s in ("p", "q", "r", "s")}
        a = Fraction(rng.randint(1, 15), rng.choice([1, 1, 2]))
        res = evaluate_series(EXCEPTIONAL, exps, a)
        if res.pole:
            continue
        try:
            v = series_factors(EXCEPTIONAL, exps).eval({"a": a})
        except ZeroDivisionError:
            continue
        assert v == res.value
        checked += 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([EXCEPTIONAL, SUBEXCEPTIONAL, SEVERI, SO_FAMILY]),
       st.lists(st.integers(0, 3), min_size=4, max_size=4), rationals)
def test_series_factors_evaluate_to_the_series_value(d, exponents, a):
    # The factored form, built apart from the value, evaluates to the value
    # wherever no denominator factor vanishes.
    exps = dict(zip(d.symbols, exponents))
    try:
        v = series_factors(d, exps).eval({d.param: a})
    except ZeroDivisionError:
        return
    assert v == evaluate_series(d, exps, a).value
