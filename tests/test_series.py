import hashlib
import random
import re
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from magicsquare import series as S
from magicsquare.compalg import TAGS
from magicsquare.exact import factorial_ratio, gauss_binomial, gen_binomial
from magicsquare.roots import cartan_chart, datum_for
from magicsquare.series import (
    EXCEPTIONAL,
    SEVERI,
    SO_FAMILY,
    SUBEXCEPTIONAL,
    VARIETY_RAYS,
    adjoint_cartan_power,
    adjoint_cartan_ray,
    admissible_weight,
    degree_formulas,
    degree_from_hilbert,
    deligne_Yk,
    deligne_Yk_printed,
    evaluate_series,
    hilbert_X3_printed,
    hilbert_ray,
    lambda_of_a,
    qdim_adjoint_cartan_power,
    ray_degree,
    series_factors,
    severi_dim,
    so_family_dim,
    so_family_interval,
    subexc_V_corrected,
    subexc_V_printed,
    subexc_V2_printed,
    subexc_g_printed,
    thirdrow_dim,
)
from magicsquare.triality import triality_algebra
from tests_helpers import (
    VARIETY_DIMENSIONS,
    falling_factorial,
    is_palindromic,
    recompute_exceptional_rows,
    recompute_severi_rows,
    recompute_subexceptional_rows,
    reference_adjoint_cartan_power,
    reference_degree_from_hilbert,
    rows_match,
    so_family_root_pairings,
)

F = Fraction


def test_descriptor_row_counts():
    # A unit root is one interval; an a-fold class is two.
    assert len(EXCEPTIONAL.rows) == 24
    assert sum(len(r.intervals) == 1 for r in EXCEPTIONAL.rows) == 12
    assert len(SUBEXCEPTIONAL.rows) == 9
    assert sum(len(r.intervals) == 2 for r in SUBEXCEPTIONAL.rows) == 6
    assert len(SEVERI.rows) == 3
    assert sum(len(r.intervals) for r in SO_FAMILY.rows) == 5


def test_descriptor_recomputation_from_root_data():
    assert rows_match(EXCEPTIONAL.rows, recompute_exceptional_rows())
    assert rows_match(SUBEXCEPTIONAL.rows, recompute_subexceptional_rows())
    assert rows_match(SEVERI.rows, recompute_severi_rows())


@pytest.mark.parametrize("tag_b,d", [("O", EXCEPTIONAL), ("H", SUBEXCEPTIONAL), ("C", SEVERI)])
@pytest.mark.parametrize("tag_a", "RCHO")
def test_descriptor_rows_expand_to_the_extracted_roots(tag_a, tag_b, d):
    # At a = dim A the rows' intervals hold, with their marker pairings,
    # exactly the positive roots of g(A,B) whose t(B) part is nonzero, under
    # the extracted Gram scaled so that the shortest t(B) parts (the slot
    # weights) have squared length 1.
    rd = datum_for(tag_a, tag_b)
    a = TAGS[tag_a].dim
    rank_b = len(cartan_chart(triality_algebra(tag_b)))
    roots = [r for r in rd.positive_roots if any(r[:rank_b])]
    pad = (F(0),) * (rd.rank - rank_b)
    scale = 1 / min(rd.inner(r[:rank_b] + pad, r[:rank_b] + pad) for r in roots)
    markers = [rd.markers[m] for m in d.markers.values()]
    extracted = Counter((tuple(scale * rd.inner(m, r) for m in markers), scale * rd.inner(rd.rho, r))
                        for r in roots)
    expanded = Counter()
    for row in d.rows:
        for (l0, l1), (h0, h1) in row.intervals:
            lo = l0 + l1 * a
            count = h0 + h1 * a - lo + 1  # 0 for an a-fold class's second interval at a = 1
            assert count.denominator == 1 and count >= 0
            for j in range(int(count)):
                expanded[row.pairings, lo + j] += 1
    assert expanded == extracted


@pytest.mark.parametrize("t", range(1, 7))
def test_so_family_intervals_recomputed_from_root_data(t):
    # Each interval [lo, hi] at t holds one root at each (rho, alpha) in lo..hi.
    expanded = Counter()
    for row in SO_FAMILY.rows:
        for (l0, l1), (h0, h1) in row.intervals:
            lo, hi = l0 + l1 * t, h0 + h1 * t
            assert lo.denominator == hi.denominator == 1
            for x in range(int(lo), int(hi) + 1):
                expanded[row.pairings[0], x] += 1
    assert expanded == so_family_root_pairings(t)


@pytest.mark.parametrize("k", range(5))
def test_so_family_factors_telescope_the_single_roots(k):
    # The three single roots give one factor each; the two long intervals
    # one per term, so 2k + 3 factors upstairs and downstairs.
    factored = series_factors(SO_FAMILY, {"k": k})
    assert factored.numerator_count() == factored.denominator_count() == 2 * k + 3
    for t in range(1, 7):
        assert factored.eval({"t": t}) == so_family_dim(k, t).value


def test_adjoint_cartan_power_spot_values():
    assert adjoint_cartan_power(1, 8) == 248
    assert adjoint_cartan_power(2, 8) == 27000
    assert adjoint_cartan_power(1, 1) == 52
    assert adjoint_cartan_power(1, 0) == 28
    assert adjoint_cartan_power(2, 0) == 300
    assert adjoint_cartan_power(1, F(-2, 3)) == 14
    assert adjoint_cartan_power(2, F(-2, 3)) == 77
    assert adjoint_cartan_power(1, -1) == 8
    assert adjoint_cartan_power(1, F(-4, 3)) == 3


def test_deligne_lambda_identity():
    for k in range(1, 5):
        for a in (F(-4, 3), F(-1), F(-2, 3), F(0), F(1), F(2), F(4), F(8)):
            assert deligne_Yk(k, lambda_of_a(a)) == adjoint_cartan_power(k, a)
    assert deligne_Yk(1, F(-1, 5)) == 248
    assert deligne_Yk_printed(1, F(-1, 5)) == -248
    assert lambda_of_a(0) == -1


def test_lambda_poles():
    with pytest.raises(ZeroDivisionError):
        lambda_of_a(-2)
    with pytest.raises(ZeroDivisionError):
        deligne_Yk(1, 0)


def test_evaluate_series_spot_values():
    spots = [({"p": 1}, 8, 248), ({"q": 1}, 8, 30380), ({"r": 1}, 8, 2450240),
             ({"s": 1}, 8, 3875), ({"p": 2}, 8, 27000), ({"p": 1}, 0, 28),
             ({"q": 1}, 0, 350), ({"r": 1}, 0, 840), ({"s": 1}, 0, 35),
             ({"p": 1}, 1, 52), ({"s": 1}, 2, 650)]
    for exps, a, val in spots:
        assert evaluate_series(EXCEPTIONAL, exps, a).value == val
    assert evaluate_series(SUBEXCEPTIONAL, {"p": 1}, 8).value == 133
    assert evaluate_series(SUBEXCEPTIONAL, {"q": 1}, 8).value == 56
    assert evaluate_series(SUBEXCEPTIONAL, {"r": 1}, 8).value == 1539


def test_factored_counts_raw_rule():
    for exps in ({"p": 1}, {"q": 1}, {"r": 1}, {"s": 1}, {"p": 2}, {"r": 2},
                 {"p": 1, "q": 1}, {"q": 1, "s": 1}):
        factored = series_factors(EXCEPTIONAL, exps)
        p, q, r, s = (exps.get(x, 0) for x in "pqrs")
        expect = 24 + 6 * p + 12 * q + 18 * r + 10 * s
        assert factored.numerator_count() == expect
        assert factored.denominator_count() == expect
    for exps in ({"p": 1}, {"q": 1}, {"r": 1}, {"p": 1, "r": 1}):
        factored = series_factors(SUBEXCEPTIONAL, exps)
        p, q, r = (exps.get(x, 0) for x in "pqr")
        expect = 9 + 4 * p + 3 * q + 6 * r
        assert factored.numerator_count() == expect
        assert factored.denominator_count() == expect


def test_series_pole_reporting():
    # a doubly-degenerate point resolves by cancellation instead of 0/0
    res = evaluate_series(SUBEXCEPTIONAL, {"p": 1}, F(-1, 2))
    assert not res.pole and res.value is not None
    # genuine poles are reported as structured results, never exceptions
    sr = severi_dim(1, 0, 0)
    assert sr.pole and sr.value is None
    assert thirdrow_dim(1, 2, 4).value == 28  # the 2-row quaternionic member
    with pytest.raises(ZeroDivisionError):
        adjoint_cartan_power(1, F(-5, 3))
    # unpaired denominator zero on a raw descriptor row
    from magicsquare.series import DescriptorRow, SeriesDescriptor
    zero = (F(0), F(0))
    toy = SeriesDescriptor("toy", {"p": "adjoint"}, lambda markers: [DescriptorRow((1,), ((zero, zero),))])
    res = evaluate_series(toy, {"p": 1}, 3)
    assert res.pole


def test_qdim_properties():
    for a in (0, 2, 4, 8):
        for k in (1, 2):
            qp = qdim_adjoint_cartan_power(k, a)
            assert qp.at_one() == adjoint_cartan_power(k, a)
            assert is_palindromic(qp)
            assert qp.has_nonneg_coeffs()
    qp = qdim_adjoint_cartan_power(1, 0)
    assert qp.degree == 10 and qp.at_one() == 28
    with pytest.raises(ValueError):
        qdim_adjoint_cartan_power(1, 1)
    with pytest.raises(ValueError):
        qdim_adjoint_cartan_power(1, -2)


# sha256 of the sorted lines "<a> <k> <q-analog>" for a in 0, 2, 4, 6, 8 and k in 0..5,
# recorded with the dense rational long division that q_product replaced.
QDIM_DIGEST = "4775846faf371ba2b2620c133031c3a83fb782945d31880196cd0a5cf9bcfc26"


def test_qdim_digest_is_pinned():
    lines = sorted(f"{a} {k} {qdim_adjoint_cartan_power(k, a)}"
                   for a in (0, 2, 4, 6, 8) for k in range(6))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == QDIM_DIGEST


@pytest.mark.parametrize("a", [0, 1])
def test_qdim_negative_k_is_rejected_first(a):
    # The exponent check comes before the parameter check, as in the other series.
    with pytest.raises(ValueError, match=r"^k must be >= 0$"):
        qdim_adjoint_cartan_power(-1, a)


def test_printed_hilbert_functions_vs_series():
    for a in (0, 1, 2, 4, 8):
        for k in (1, 2):
            assert S.hilbert_X2_printed(k, a) == \
                evaluate_series(EXCEPTIONAL, {"q": k}, a).value
            assert S.hilbert_X3_printed(k, a) == \
                evaluate_series(EXCEPTIONAL, {"r": k}, a).value
    # the printed Y2star Hilbert function is a documented mismatch
    assert S.hilbert_Y2star_printed(1, 8) == F(3875, 168)
    assert evaluate_series(EXCEPTIONAL, {"s": 1}, 8).value == 3875


def test_subexceptional_printed_and_corrected():
    for a in (1, 2, 4, 8):
        for k in (1, 2, 3):
            assert subexc_g_printed(k, a) == \
                evaluate_series(SUBEXCEPTIONAL, {"p": k}, a).value
            assert subexc_V2_printed(k, a) == \
                evaluate_series(SUBEXCEPTIONAL, {"r": k}, a).value
            assert subexc_V_corrected(k, a) == \
                evaluate_series(SUBEXCEPTIONAL, {"q": k}, a).value
        assert subexc_V_corrected(1, a) == 6 * a + 8
        assert subexc_V_printed(1, a) != 6 * a + 8


def test_severi():
    assert severi_dim(1, 0, 8).value == 27
    assert severi_dim(1, 1, 8).value == 650
    assert severi_dim(0, 0, 5).value == 1
    rng = random.Random(5)
    for _ in range(20):
        p, ps = rng.randint(0, 3), rng.randint(0, 3)
        a = F(rng.randint(1, 9))
        assert severi_dim(p, ps, a).value == severi_dim(ps, p, a).value


def test_so_family_and_thirdrow():
    for t in range(1, 7):
        assert so_family_dim(1, t).value == (t + 2) * (2 * t + 3)
        for k in (1, 2, 3):
            assert so_family_dim(k, t).value == so_family_interval(k, t).value
    for k in (1, 2, 3):
        for a in (1, 2, 4, 8):
            assert thirdrow_dim(k, 3, a).value == subexc_g_printed(k, a)
    # r = 2, a = 2 lands on the 15-dimensional member
    assert thirdrow_dim(1, 2, 2).value == 15
    with pytest.raises(ValueError):
        thirdrow_dim(1, 1, 2)


def test_degree_formulas_validated():
    for a in (2, 4, 8):
        assert degree_formulas("ad", a) == degree_from_hilbert("ad", a)
        assert degree_formulas("fplanes", a) == degree_from_hilbert("fplanes", a)
    assert degree_formulas("ad", 2) == 151164
    for a in (1, 2, 4, 8):
        assert degree_formulas("subexc_ad", a) == degree_from_hilbert("subexc_ad", a)
        assert degree_formulas("subexc_X", a) == degree_from_hilbert("subexc_X", a)
        assert degree_formulas("subexc_flines", a) == \
            degree_from_hilbert("subexc_flines", a)
    assert degree_formulas("subexc_X", 4) == 286
    assert degree_formulas("subexc_ad", 1) == 32
    assert degree_formulas("subexc_flines", 1) == 1792


def test_degree_formulas_documented_mismatches():
    # stable findings: the printed lines/points degrees disagree with the
    # exact leading Hilbert coefficients
    for a in (2, 4, 8):
        assert degree_formulas("flines", a) != degree_from_hilbert("flines", a)
        assert degree_formulas("fpoints", a) != degree_from_hilbert("fpoints", a)
    v = degree_formulas("fpoints", 8)
    assert v.denominator != 1  # not even integral
    for a in (1, 2, 4, 8):
        printed = degree_formulas("subexc_X_printed", a)
        assert printed == degree_from_hilbert("subexc_X", a) * (a + 1) * (a + 2)
        ratio = degree_from_hilbert("subexc_flines", a) / \
            degree_formulas("subexc_flines_printed", a)
        # the misprint is exactly the factorial of the linear factor
        assert ratio == factorial_ratio(3 * a + 1, 0)


def test_degree_formulas_name_the_varieties_of_the_rays():
    assert set(S._DEGREES) == set(VARIETY_RAYS)


@pytest.mark.parametrize("variety,least", [("ad", -1), ("fplanes", -1), ("subexc_ad", 0),
                                           ("subexc_X", 0), ("subexc_flines", 0)])
def test_validated_degrees_are_the_hilbert_degrees_at_every_integer(variety, least):
    # Away from the composition algebras too: every integer a up to 60.
    for a in range(least, 61):
        assert degree_formulas(variety, a) == degree_from_hilbert(variety, a), a


def defined(fn, *args):
    """fn(*args), or None where it raises ValueError or ZeroDivisionError."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError):
        return None


def test_printed_lines_and_points_degrees_disagree_wherever_defined():
    # The documented suspects: wherever the printed form and the Hilbert
    # degree both exist, they differ.
    both = 0
    for variety in ("flines", "fpoints"):
        for a in range(-1, 61):
            printed = defined(degree_formulas, variety, a)
            oracle = defined(degree_from_hilbert, variety, a)
            if printed is not None and oracle is not None:
                both += 1
                assert printed != oracle, (variety, a)
    assert both == 61 + 30  # flines at 61 of the 62 integers, fpoints at 30
    # The printed values themselves; the suspect list quotes the one at a = 8.
    assert degree_formulas("flines", 2) == 559376779195777062430310400000
    assert [degree_formulas("fpoints", a) for a in (2, 4, 8)] == \
        [928751616, 313787535360, F(427090342525747200, 221)]


def test_corrected_subexceptional_degrees_differ_from_the_printed_by_their_factors():
    # printed subexc_X = (a+1)(a+2) corrected, and corrected subexc_flines =
    # printed (3a+1)!, wherever both sides are defined among a = n/d, d <= 8, |n| <= 40.
    pairs = 0
    for a in {F(n, d) for d in range(1, 9) for n in range(-40, 41)}:
        x, x_printed = (defined(degree_formulas, v, a) for v in ("subexc_X", "subexc_X_printed"))
        if x is not None and x_printed is not None:
            pairs += 1
            assert x_printed == (a + 1) * (a + 2) * x, a
        lines, printed = (defined(degree_formulas, v, a)
                          for v in ("subexc_flines", "subexc_flines_printed"))
        scale = defined(factorial_ratio, 3 * a + 1, 0)
        if lines is not None and printed is not None and scale is not None:
            pairs += 1
            assert lines == printed * scale, a
    assert pairs == 41 + 41


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raises."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("variety", sorted(VARIETY_DIMENSIONS))
@pytest.mark.parametrize("a", [0, 1, 2, 4, 8, F(-1), F(-1, 3), F(1, 2)])
def test_degree_from_hilbert_matches_pointwise_reference(variety, a):
    # The descriptor ray of each variety, "ad" included, and the integer
    # finite difference give the reference's value, or raise what it raises.
    assert outcome(degree_from_hilbert, variety, a) == \
        outcome(reference_degree_from_hilbert, variety, a)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from([F(-4, 3), F(-1), F(-2, 3), F(0), F(-5, 3), F(-4), F(-3)]),
                 st.fractions(min_value=-12, max_value=12, max_denominator=6)),
       st.integers(0, 12))
def test_adjoint_cartan_ray_matches_closed_form_pointwise(a, kmax):
    expected = [outcome(reference_adjoint_cartan_power, k, a) for k in range(kmax + 1)]
    assert [outcome(adjoint_cartan_power, k, a) for k in range(kmax + 1)] == expected
    ray = outcome(adjoint_cartan_ray, a, kmax)
    if isinstance(expected[-1], tuple):  # the ray raises what its last point raises
        assert ray == expected[-1]
    else:
        assert ray == expected


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from([F(-4, 3), F(-1), F(-2, 3), F(0), F(-5, 3), F(-4), F(-3)]),
                 st.fractions(min_value=-12, max_value=12, max_denominator=6)))
def test_ray_degree_is_the_typed_variety_dimension(a):
    # The rows give each variety's dimension at every rational a, poles and
    # negative a included, not only where a composition algebra sits.
    assert set(VARIETY_RAYS) == set(VARIETY_DIMENSIONS)
    for variety, ray in VARIETY_RAYS.items():
        assert ray_degree(*ray, a) == VARIETY_DIMENSIONS[variety](a)


@pytest.mark.parametrize("variety,a", [("flines", -1), ("fpoints", -1), ("ad", -2)])
def test_degree_from_hilbert_rejects_negative_dimension(variety, a):
    with pytest.raises(ValueError, match="negative"):
        degree_from_hilbert(variety, a)


def test_degree_oracle_values_are_integers():
    for variety in ("ad", "fplanes", "flines", "fpoints"):
        for a in (2, 4, 8):
            v = degree_from_hilbert(variety, a)
            assert v.denominator == 1 and v > 0
    # golden values, frozen after the first verified run
    assert degree_from_hilbert("fpoints", 8) == 566737444875521606631975195475968000
    assert degree_from_hilbert("flines", 2) == 14947805547426034483200


def _leading_term(desc, sym, a):
    """(degree, coefficient) of the leading k-power of the sym ray, from the rows.

    An interval [lo, hi] of n = hi - lo + 1 roots, in a row with pairing p > 0,
    contributes prod_{t < pk} (hi + 1 + t) / (lo + t), which grows like
    p^n / (lo (lo + 1) ... hi) k^n.  Needs a a positive integer.
    """
    i = desc.symbols.index(sym)
    degree, coeff = 0, F(1)
    for row in desc.rows:
        p = row.pairings[i]
        if not p:
            continue
        for (l0, l1), (h0, h1) in row.intervals:
            hi = h0 + a * h1
            n = int(hi - (l0 + a * l1)) + 1
            degree += n
            coeff *= F(p) ** n / falling_factorial(hi, n)
    return degree, coeff


@pytest.mark.parametrize("variety", ["ad", "fplanes", "flines", "fpoints",
                                     "subexc_ad", "subexc_X", "subexc_flines"])
def test_degree_from_descriptor_leading_coefficient(variety):
    # Third route to the degrees: the closed-form leading coefficient of the
    # descriptor product against the finite differences of the Hilbert function.
    desc, sym = VARIETY_RAYS[variety]
    for a in ((1, 2, 4, 8) if variety.startswith("subexc") else (2, 4, 8)):
        degree, coeff = _leading_term(desc, sym, a)
        assert degree == VARIETY_DIMENSIONS[variety](a)
        assert factorial(degree) * coeff == degree_from_hilbert(variety, a)


def _multiset_value(desc, exps, a):
    """The series value from its full term lists, equal terms cancelled first."""
    e = [exps.get(s, 0) for s in desc.symbols]
    num, den = [], []
    for row in desc.rows:
        x = sum(p * k for p, k in zip(row.pairings, e))
        for (l0, l1), (h0, h1) in row.intervals:
            num += [h0 + a * h1 + 1 + t for t in range(x)]
            den += [l0 + a * l1 + t for t in range(x)]
    left = Counter(num)
    left.subtract(den)
    top = prod(t ** n for t, n in left.items() if n > 0)
    bottom = prod(t ** -n for t, n in left.items() if n < 0)
    return None if bottom == 0 else F(top) / bottom


# Values of a where zero terms cancel or leave a pole somewhere on a ray.
DEGENERATE_A = [F(0), F(-1), F(-2), F(-4, 3), F(-2, 3), F(1, 2)]


@st.composite
def rays(draw):
    desc = draw(st.sampled_from([EXCEPTIONAL, SUBEXCEPTIONAL, SEVERI, SO_FAMILY]))
    sym = draw(st.sampled_from(desc.symbols))
    a = draw(st.one_of(st.sampled_from(DEGENERATE_A),
                       st.fractions(min_value=-6, max_value=10, max_denominator=6)))
    return desc, sym, a, draw(st.integers(0, 12))


@settings(max_examples=60, deadline=None)
@given(rays())
def test_hilbert_ray_matches_pointwise(ray):
    desc, sym, a, kmax = ray
    values = hilbert_ray(desc, sym, a, kmax)
    assert values == [evaluate_series(desc, {sym: k}, a).value for k in range(kmax + 1)]
    assert values == [_multiset_value(desc, {sym: k}, a) for k in range(kmax + 1)]


def test_degree_rejects_nonintegral_gap():
    with pytest.raises(ValueError):
        degree_formulas("fpoints", 1)


def test_admissible_weight():
    assert admissible_weight((0, 1, 0, 0))
    assert not admissible_weight((1, 0, 0, 0))
    assert admissible_weight((2, 0, 0, 0))
    assert admissible_weight((1, 3, 1, 2)) is False
    assert admissible_weight((1, 0, 1, 1))
    assert admissible_weight((0, 5, 2, 2))
    assert admissible_weight([-1, 0, 1, -1])
    # A label that is not an integer is refused, not truncated; so is a wrong length.
    for bad in ((Fraction(1, 2), 0, 0, 0), (0, 0, 0, 1.5), (Fraction(2), 0, 0, 0),
                (True, 0, 1, 1), (0, 1, 0), (0, 1, 0, 0, 0), ()):
        with pytest.raises(ValueError, match="four integer Dynkin labels"):
            admissible_weight(bad)


def test_integrality_screen_on_series_grid():
    for a in (0, 1, 2, 4, 8):
        for exps in ({"p": 1}, {"q": 1}, {"r": 1}, {"s": 1}, {"p": 1, "s": 1}):
            res = evaluate_series(EXCEPTIONAL, exps, a)
            assert res.integrality, (exps, a)
    for a in (1, 2, 4, 8):
        for exps in ({"p": 1}, {"q": 2}, {"r": 1}):
            assert evaluate_series(SUBEXCEPTIONAL, exps, a).integrality


@pytest.mark.parametrize("exponents, message", [
    ({"p": 1.5}, r"got p = 1\.5"),
    ({"p": Fraction(1)}, r"got p = Fraction\(1, 1\)"),
    ({"p": True}, r"got p = True"),
    ({"q": -1}, r"got q = -1"),
    ({"z": 3}, r"unknown exponent symbol 'z'"),
], ids=["float", "fraction", "bool", "negative", "unknown-symbol"])
def test_exponents_are_refused_unless_known_and_integral(exponents, message):
    # Neither is truncated or ignored: p = 1.5 is not p = 1 (52), and z = 3
    # is not the empty exponent list (1).
    with pytest.raises(ValueError, match=message):
        evaluate_series(EXCEPTIONAL, exponents, 1)
    with pytest.raises(ValueError, match=message):
        series_factors(EXCEPTIONAL, exponents)


def test_hilbert_ray_refuses_an_unknown_symbol():
    with pytest.raises(ValueError, match=r"unknown exponent symbol 'z'; the series has p, q, r, s"):
        hilbert_ray(EXCEPTIONAL, "z", 1, 3)


def test_thirdrow_refuses_a_non_integral_r():
    with pytest.raises(ValueError, match=r"r must be an integer, got 2\.5"):
        thirdrow_dim(1, 2.5, 1)


def test_so_family_interval_checks_like_the_closed_form():
    for k, t, message in ((1, 0, "t must be >= 1"), (-1, 1, "k must be >= 0")):
        for route in (so_family_dim, so_family_interval):
            with pytest.raises(ValueError, match=message):
                route(k, t)


def test_deligne_Yk_refuses_negative_k_like_the_a_form():
    for route in (deligne_Yk, deligne_Yk_printed, adjoint_cartan_power):
        with pytest.raises(ValueError, match=r"^k must be >= 0$"):
            route(-1, 1)


COUNT_ROUTES = {
    "adjoint_cartan_power": ("k", lambda c: adjoint_cartan_power(c, 8)),
    "adjoint_cartan_ray": ("k", lambda c: adjoint_cartan_ray(8, c)),
    "deligne_Yk": ("k", lambda c: deligne_Yk(c, F(-1, 5))),
    "qdim": ("k", lambda c: qdim_adjoint_cartan_power(c, 8)),
    "thirdrow-k": ("k", lambda c: thirdrow_dim(c, 3, 8)),
    "thirdrow-r": ("r", lambda c: thirdrow_dim(1, c, 8)),
    "severi-p": ("p", lambda c: severi_dim(c, 0, 8)),
    "severi-pstar": ("pstar", lambda c: severi_dim(0, c, 8)),
    "so_family-k": ("k", lambda c: so_family_dim(c, 1)),
    "so_family-t": ("t", lambda c: so_family_dim(1, c)),
    "so_family_interval-t": ("t", lambda c: so_family_interval(1, c)),
    "hilbert_ray": ("k", lambda c: hilbert_ray(EXCEPTIONAL, "p", 1, c)),
    **{f.__name__: ("k", lambda c, f=f: f(c, 8))
       for f in (S.hilbert_X2_printed, S.hilbert_X3_printed, S.hilbert_Y2star_printed,
                 subexc_g_printed, subexc_V_printed, subexc_V_corrected, subexc_V2_printed)},
    "gen_binomial": ("k", lambda c: gen_binomial(3, c)),
    "gauss_binomial-l": ("l", lambda c: gauss_binomial(c, 1)),
    "gauss_binomial-k": ("k", lambda c: gauss_binomial(1, c)),
}


@pytest.mark.parametrize("value", [1.5, True, F(1)], ids=["float", "bool", "fraction"])
@pytest.mark.parametrize("route", sorted(COUNT_ROUTES))
def test_counts_that_are_not_integers_are_refused(route, value):
    # Neither truncated nor let through to a TypeError: True is not k = 1.
    name, call = COUNT_ROUTES[route]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("call", [lambda: severi_dim(1, 0, -2),
                                  lambda: thirdrow_dim(1, 3, F(-1, 2)),
                                  lambda: thirdrow_dim(1, 3, 0)],
                         ids=["severi-binomial", "thirdrow-prefactor", "thirdrow-binomial"])
def test_closed_form_poles_are_results(call):
    # severi at a = -2 and thirdrow at a = 0 meet a zero binomial denominator;
    # thirdrow at a = -1/2 a zero prefactor denominator a (r - 1) + 1.
    res = call()
    assert res.pole and res.value is None


@settings(max_examples=60, deadline=None)
@given(st.integers(-9, 48))
def test_adjoint_ray_through_the_descriptor_is_the_closed_form(m):
    # Every a = n/d with d <= 12 at which the ad variety's dimension 6a + 9 is
    # an integer is m/6; on -3/2 <= a <= 8 the descriptor's p ray, which
    # degree_from_hilbert reads for "ad", is the closed form at every k.
    a = F(m, 6)
    dim = int(6 * a + 9)
    assert hilbert_ray(EXCEPTIONAL, "p", a, dim) == \
        [reference_adjoint_cartan_power(k, a) for k in range(dim + 1)]


def test_hilbert_ray_refuses_negative_k_like_the_adjoint_ray():
    for call in (lambda: hilbert_ray(EXCEPTIONAL, "p", 1, -1), lambda: adjoint_cartan_ray(1, -1)):
        with pytest.raises(ValueError, match=r"^k must be >= 0$"):
            call()


def test_degree_from_hilbert_refuses_an_unknown_variety_like_degree_formulas():
    for route in (degree_from_hilbert, degree_formulas):
        with pytest.raises(ValueError, match=r"unknown variety 'zz'"):
            route("zz", 1)
    with pytest.raises(ValueError, match=r"unknown variety 'nope'"):
        degree_from_hilbert("nope", 2)


def test_paired_zero_terms_are_dropped_not_the_limit():
    # At a = 0, r = 1 the descriptor and the printed X3 Hilbert function
    # both drop their paired zero terms: the classes empty at a = 0 count
    # as 1, which gives 840, so8's X3 Weyl dimension.  The value tends to
    # 2520 as a -> 0 from either side.
    assert evaluate_series(EXCEPTIONAL, {"r": 1}, 0).value == 840
    assert hilbert_X3_printed(1, 0) == 840
    for eps in (Fraction(1, 10**6), Fraction(-1, 10**6)):
        for value in (evaluate_series(EXCEPTIONAL, {"r": 1}, eps).value, hilbert_X3_printed(1, eps)):
            assert abs(value - 2520) < Fraction(1, 100)


@pytest.mark.parametrize("f,k,a", [
    (S.hilbert_X2_printed, 3, -5), (S.hilbert_X3_printed, 2, F(-14, 3)),
    (S.hilbert_Y2star_printed, 1, F(-6, 5)), (subexc_g_printed, 1, F(-1, 2)),
    (subexc_V_printed, 0, -1), (subexc_V_corrected, 1, -4), (subexc_V2_printed, 1, F(-2, 3)),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_a_printed_prefactor_keeps_its_own_poles(f, k, a):
    # The prefactor of a printed formula is a plain product: a zero in it is
    # not dropped against a zero of the binomials, nor (k + c) / c against
    # itself at c = 0, as the paired zero terms of the binomials are.
    with pytest.raises(ZeroDivisionError):
        f(k, a)


PRINTED_DESCRIPTOR_PAIRS = [
    (S.hilbert_X2_printed, EXCEPTIONAL, "q"), (S.hilbert_X3_printed, EXCEPTIONAL, "r"),
    (subexc_g_printed, SUBEXCEPTIONAL, "p"), (subexc_V_corrected, SUBEXCEPTIONAL, "q"),
    (subexc_V2_printed, SUBEXCEPTIONAL, "r"),
]


@settings(max_examples=150, deadline=None)
@given(st.fractions(min_value=-40, max_value=40, max_denominator=12), st.integers(0, 4))
def test_printed_forms_agree_with_the_descriptor_rows(a, k):
    # Off the grids of the crosscheck: wherever both sides are finite, poles
    # and paired zero terms included.
    for f, d, sym in PRINTED_DESCRIPTOR_PAIRS:
        rows = evaluate_series(d, {sym: k}, a).value
        try:
            printed = f(k, a)
        except ZeroDivisionError:
            continue
        assert rows is None or printed == rows, f.__name__
    # The printed V prefactor is 2 (a + 2) / (a + 2k + 2) times the corrected one.
    try:
        printed, corrected = subexc_V_printed(k, a), subexc_V_corrected(k, a)
    except ZeroDivisionError:
        return
    assert printed * (a + 2 * k + 2) == corrected * 2 * (a + 2)


def test_triality_rows_refuse_chart_data_that_give_no_descriptor(monkeypatch):
    slots = S.slot_weights(triality_algebra("H"))
    # A marker at half a chart weight pairs with the slot weights to 1/2.
    monkeypatch.setattr(S, "chart_markers", lambda t: {"g": (F(1), F(0), F(0))})
    with pytest.raises(ValueError, match="to a non-integer"):
        S._triality_rows("H", {"p": "g"})
    monkeypatch.undo()
    longer = tuple(tuple(2 * x for x in w) for w in slots[2])
    monkeypatch.setattr(S, "slot_weights", lambda t: (slots[0], slots[1], longer))
    with pytest.raises(ValueError, match="differ in length"):
        S._triality_rows("H", SUBEXCEPTIONAL.markers)
