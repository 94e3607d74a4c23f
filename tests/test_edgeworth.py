import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekit.cumulants import cumulants_to_moments
from edgekit.edgeworth import (
    EdgeworthExpansion,
    build_expansion,
    correction_coefficient,
    correction_polynomial,
    enumerate_correction_tuples,
    expansion_from_cumulants,
    hermite_coefficients,
    tuple_hermite_order,
)
from edgekit.models import builtin_model
from numpy.polynomial import Polynomial

from edgekit.special import (
    gaussian_moment,
    gaussian_partial_moments,
    hermite,
    normal_cdf,
    normal_pdf,
)
from edgekit.transport import expectation_via_cdf


def coefficient_distance(a, b):
    """Max absolute coefficient difference of two polynomials."""
    ca, cb = a.coef.tolist(), b.coef.tolist()
    width = max(len(ca), len(cb))
    ca += [0.0] * (width - len(ca))
    cb += [0.0] * (width - len(cb))
    return max(abs(x - y) for x, y in zip(ca, cb))


# -- tuple combinatorics -----------------------------------------------------


def tuple_weight(tup):
    return sum(l * k for l, k in enumerate(tup, start=1))


def test_tuple_enumeration_low_weights():
    assert enumerate_correction_tuples(1) == ((1,),)
    assert enumerate_correction_tuples(2) == ((2,), (0, 1))
    assert enumerate_correction_tuples(3) == ((3,), (1, 1), (0, 0, 1))


def test_tuple_enumeration_counts_are_partition_numbers():
    # number of multiplicity tuples of weight j = p(j)
    expected = {4: 5, 5: 7, 6: 11, 7: 15}
    for j, cnt in expected.items():
        tups = enumerate_correction_tuples(j)
        assert len(tups) == cnt
        assert all(tuple_weight(t) == j for t in tups)
        assert all(t[-1] != 0 for t in tups)


def test_hermite_order_identity():
    for j in range(1, 7):
        for t in enumerate_correction_tuples(j):
            count = sum(t)
            assert tuple_hermite_order(t) == j + 2 * count


def test_classical_coefficients():
    from fractions import Fraction

    assert correction_coefficient((1,)) == Fraction(1, 6)
    assert correction_coefficient((0, 1)) == Fraction(1, 24)
    assert correction_coefficient((2,)) == Fraction(1, 72)
    assert correction_coefficient((1, 1)) == Fraction(1, 144)
    assert correction_coefficient((0, 0, 1)) == Fraction(1, 120)


# -- correction polynomials --------------------------------------------------


def test_first_corrections_match_classical_forms():
    c1, c2 = 0.37, -1.4  # gamma3/sigma^2, gamma4/sigma^2
    h1 = correction_polynomial(1, [c1])
    assert np.allclose(h1.coef, (c1 / 6.0) * hermite(2).coef)
    h2 = correction_polynomial(2, [c1, c2])
    ref = (c2 / 24.0) * hermite(3) + (c1**2 / 72.0) * hermite(5)
    assert np.allclose(h2.coef, ref.coef)


def test_hermite_coefficients_roundtrip():
    p = 0.3 * hermite(5) - 1.1 * hermite(2) + 0.25
    coefs = hermite_coefficients(p)
    assert coefs[5] == pytest.approx(0.3)
    assert coefs[2] == pytest.approx(-1.1)
    assert coefs[0] == pytest.approx(0.25)
    back = Polynomial([0.0])
    for k, c in coefs.items():
        back = back + c * hermite(k)
    assert np.allclose(back.coef, p.coef)


# -- expansions --------------------------------------------------------------


def test_rademacher_order4_charfn_closed_form():
    m = builtin_model("rademacher")
    e = build_expansion(m, 4, 4)
    # kappa4(S_4)/sigma^4 = -1/2: P(z) = z^4 * (-1/2)/24
    t = np.linspace(-3.0, 3.0, 13)
    ref = np.exp(-0.5 * t**2) * (1.0 - t**4 / 48.0)
    assert np.allclose(e.charfn(t).real, ref, atol=1e-14)
    assert np.allclose(e.charfn(t).imag, 0.0, atol=1e-14)


def test_skewed_model_first_poly():
    m = builtin_model("elliptic2")
    n = 16
    e = build_expansion(m, n, 3)
    c1 = m.cumulant(n, 3) / m.sigma2(n)
    ref = (c1 / 6.0) * hermite(2)
    assert coefficient_distance(e.polys[0], ref) < 1e-14


def test_pdf_is_cdf_derivative():
    m = builtin_model("elliptic2")
    e = build_expansion(m, 12, 5)
    x = np.linspace(-5.0, 5.0, 41)
    h = 1e-5
    fd = (e.cdf(x + h) - e.cdf(x - h)) / (2.0 * h)
    assert np.max(np.abs(fd - e.pdf(x))) < 1e-8


def test_charfn_matches_quadrature_transform():
    m = builtin_model("elliptic2")
    e = build_expansion(m, 10, 4)
    # int e^{itx} pdf(x) dx by wide fine trapezoid
    x = np.linspace(-14.0, 14.0, 20001)
    pdf = e.pdf(x)
    for t in (0.0, 0.7, 2.3):
        num = np.trapezoid(pdf * np.exp(1j * t * x), x)
        assert abs(num - e.charfn(t)) < 1e-9


def test_moment_matching_through_order():
    # moments of the corrected measure match the true ones for q <= r + 2
    m = builtin_model("elliptic2")
    n, order = 12, 5
    e = build_expansion(m, n, order)
    sig = m.sigma(n)
    moments = [1.0] + cumulants_to_moments(m.cumulants(n, order))
    for q in range(order + 1):
        true = moments[q] / sig**q
        if q <= order:
            assert e.moment(q) == pytest.approx(true, abs=1e-12), "q=%d" % q


def _abs_moment_scale(e, q):
    """2 M_q + sum_j sigma^-j sum_i 2 |d_ji| M_{q+i}: the size of the closed form's terms."""
    deg = max(p.degree() for p in e.density_polys)
    half = gaussian_partial_moments(q + deg, 0.0, np.inf)
    total = 2.0 * half[q]
    for j, poly in enumerate(e.density_polys, start=1):
        total += sum(2.0 * abs(c) * half[q + i] for i, c in enumerate(poly.coef)) * e.sigma ** (-j)
    return total


def _abs_moment_cases():
    elliptic = build_expansion(builtin_model("elliptic2"), 12, 5)
    skewed = expansion_from_cumulants([0.0, 9.0, 4.5, -6.0, 11.0])  # sigma = 3
    return [(name, e.truncated(r)) for name, e in (("elliptic2", elliptic), ("skewed", skewed))
            for r in (1, 2, 3)]


def test_abs_moment_matches_mpmath_and_cdf_quadrature():
    mp = pytest.importorskip("mpmath")
    u = np.finfo(float).eps / 2
    for name, e in _abs_moment_cases():
        with mp.workdps(20):
            # psi(x) + psi(-x) = 2 phi(x) (1 + sum_j sigma^-j even part of D_j(x))
            even = [mp.mpf(0)] * (1 + max(p.degree() for p in e.density_polys))
            even[0] = mp.mpf(1)
            for j, poly in enumerate(e.density_polys, start=1):
                for i, c in enumerate(poly.coef[::2]):
                    even[2 * i] += mp.mpf(c) * mp.mpf(e.sigma) ** (-j)
        for q in range(1, 7):
            got = e.abs_moment(q)
            with mp.workdps(20):
                ref = mp.quad(lambda x: 2 * mp.npdf(x) * mp.polyval(even[::-1], x) * x**q, [0, mp.inf])
            assert abs(got - float(ref)) <= 64 * u * _abs_moment_scale(e, q), (name, e.corrections, q)
            if name == "skewed":  # the CDF quadrature is slow; one model covers it
                via_cdf = expectation_via_cdf(
                    e.cdf, lambda x: abs(x) ** q,
                    lambda x, q=q: q * abs(x) ** (q - 1) * math.copysign(1.0, x),
                )
                assert got == pytest.approx(via_cdf, abs=1e-7), (name, e.corrections, q)


def test_abs_moment_even_orders_are_the_signed_moments():
    for _, e in _abs_moment_cases():
        for q in (0, 2, 4, 6):
            assert e.abs_moment(q) == e.moment(q)
    with pytest.raises(ValueError):
        e.abs_moment(1.5)
    with pytest.raises(ValueError):
        e.abs_moment(-1)


def test_moment_orders_that_are_not_whole_are_refused_by_name():
    # 2.5 % 2 reads as odd, so a non-whole q once summed to 0.0
    e = builtin_model("elliptic2").expansion(16, 1)
    assert e.moment(2.0) == e.moment(2) and e.abs_moment(3.0) == e.abs_moment(3)
    for q in (2.5, 0.5, math.nan):
        with pytest.raises(ValueError, match=r"moment order q must be a whole number, got %s" % q):
            e.moment(q)
        with pytest.raises(ValueError, match=r"absolute moment order q must be a whole number, got %s" % q):
            e.abs_moment(q)
    with pytest.raises(ValueError, match="moment order q must be nonnegative, got -2"):
        e.moment(-2)


def test_gaussian_moment_closed_forms():
    # E|Z|^q of the expansion with no corrections
    mp = pytest.importorskip("mpmath")
    normal = EdgeworthExpansion(1.0, ())
    for q in range(0, 13):
        ref = mp.mpf(2) ** (mp.mpf(q) / 2) * mp.gamma(mp.mpf(q + 1) / 2) / mp.sqrt(mp.pi)
        assert normal.abs_moment(q) == pytest.approx(float(ref), rel=4e-16)
        assert gaussian_moment(q) == (float(math.prod(range(q - 1, 0, -2))) if q % 2 == 0 else 0.0)


def _normals():
    """Expansions with no corrections: built directly, from two cumulants, and truncated."""
    model = builtin_model("elliptic2")
    return [
        EdgeworthExpansion(1.0, ()),
        expansion_from_cumulants([0.0, 9.0]),
        build_expansion(model, 16, 2),
        build_expansion(model, 16, 5).truncated(0),
    ]


def test_expansion_with_no_corrections_is_the_normal_to_the_bit():
    x = np.concatenate([np.linspace(-60.0, 60.0, 1201), [-1e3, -40.0, -39.99, 39.99, 40.0, 1e3]])
    t = np.linspace(-9.0, 9.0, 181)
    for e in _normals():
        assert e.corrections == 0 and e.polys == () and e.density_polys == ()
        assert np.array_equal(e.cdf(x), normal_cdf(x))
        assert np.array_equal(e.sf(x), normal_cdf(-x))
        assert np.array_equal(e.pdf(x), normal_pdf(x))
        assert e.cdf(0.3) == normal_cdf(0.3) and isinstance(e.cdf(0.3), float)
        assert np.array_equal(e.charfn(t), np.exp(-0.5 * t**2))
        for q in range(0, 13):
            assert e.moment(q) == gaussian_moment(q)
            half = 2.0 * float(gaussian_partial_moments(q, 0.0, np.inf)[q])
            assert e.abs_moment(q) == (gaussian_moment(q) if q % 2 == 0 else half), q


def test_expansion_orders_below_two_are_refused():
    with pytest.raises(ValueError, match="cumulants"):
        expansion_from_cumulants([0.0])
    with pytest.raises(ValueError, match="expansion order"):
        build_expansion(builtin_model("elliptic2"), 16, 1)
    with pytest.raises(ValueError, match=r"corrections r must be in \[0, m - 2 = 2\], got -1"):
        build_expansion(builtin_model("elliptic2"), 16, 4).truncated(-1)


def test_truncation_keeps_coefficients():
    m = builtin_model("elliptic2")
    e = build_expansion(m, 12, 6)
    t1 = e.truncated(2)
    assert t1.corrections == 2
    for a, b in zip(t1.polys, e.polys[:2]):
        assert coefficient_distance(a, b) == 0.0
    # truncation to r matches a direct lower-order build
    direct = build_expansion(m, 12, 4)
    for a, b in zip(t1.polys, direct.polys):
        assert coefficient_distance(a, b) < 1e-15


def test_expansion_rejects_uncentered():
    with pytest.raises(ValueError):
        expansion_from_cumulants([0.5, 1.0, 0.1, 0.0])


def test_cdf_tails_saturate():
    m = builtin_model("rademacher")
    e = build_expansion(m, 16, 4)
    assert e.cdf(-60.0) == pytest.approx(0.0, abs=1e-300)
    assert e.cdf(60.0) == pytest.approx(1.0, abs=1e-15)
    assert e.cdf(1e8) == 1.0
    assert np.isfinite(e.pdf(1e8))


def test_sf_complements_cdf_and_keeps_the_upper_tail():
    e = build_expansion(builtin_model("elliptic2"), 16, 4)
    x = np.linspace(-6.0, 6.0, 121)
    assert np.max(np.abs(e.sf(x) + e.cdf(x) - 1.0)) < 1e-15
    # past x = 8.3 the cdf rounds to 1, while the tail keeps its relative accuracy
    assert e.cdf(9.0) == 1.0
    mp = pytest.importorskip("mpmath")
    corr = float(e.correction_sum(np.array([9.0]), e.polys)[0])
    ref = mp.ncdf(-9) + mp.npdf(9) * corr
    assert 0.0 < e.sf(9.0) == pytest.approx(float(ref), rel=1e-13)


# -- gaussian-correction structure, property style ---------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-0.6, 0.6),
    st.floats(-0.8, 0.8),
    st.floats(1.0, 30.0),
)
def test_density_transform_pair_consistency(c1, c2, sigma2):
    """The Fourier route and the Hermite route give the same function."""
    kap = [0.0, sigma2, c1 * sigma2, c2 * sigma2]
    e = expansion_from_cumulants(kap)
    t = np.linspace(-2.0, 2.0, 9)
    x = np.linspace(-12.0, 12.0, 4801)
    pdf = e.pdf(x)
    num = np.trapezoid(pdf[None, :] * np.exp(1j * t[:, None] * x[None, :]), x, axis=1)
    assert np.max(np.abs(num - e.charfn(t))) < 1e-7


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5))
def test_gaussian_case_has_no_corrections(j):
    # all scaled cumulants zero: H_j = 0 identically
    p = correction_polynomial(j, [0.0] * j)
    assert p.coef.tolist() == [0.0]


# -- stationary geometry -----------------------------------------------------


def test_shape_rates_and_limit_polys():
    # kappa_k ~ n p_k + q_k: the scaled cumulants tend to beta_l = p_{l+2}/p_2
    p = np.array([0.0, 0.8, 0.3, -0.5])
    beta = p[2:] / p[1]
    assert beta == pytest.approx([0.375, -0.625])
    h1 = correction_polynomial(1, list(beta))
    assert np.allclose(h1.coef, (beta[0] / 6.0) * hermite(2).coef)


def test_iid_limit_polys_are_exact_at_every_n():
    # iid chain: q = 0, so the finite-n polynomial equals the limit
    m = builtin_model("rademacher")
    from edgekit.cumulants import fit_stationary

    fit = fit_stationary(m, (8, 16, 24, 32, 48), kmax=4)
    beta = fit.p[2:] / fit.p[1]
    e = build_expansion(m, 32, 4)
    for j in (1, 2):
        lim = correction_polynomial(j, list(beta))
        assert coefficient_distance(e.polys[j - 1], lim) < 1e-7


def test_stationary_prediction_converges_to_exact():
    m = builtin_model("elliptic2")
    from edgekit.cumulants import fit_stationary

    fit = fit_stationary(m, (8, 12, 16, 24, 32, 48, 64), kmax=4)
    gaps = []
    for n in (16, 32, 64):
        exact = build_expansion(m, n, 4)
        pred = expansion_from_cumulants([n * fit.p[k] + fit.q[k] for k in range(4)])
        gaps.append(
            max(
                coefficient_distance(a, b)
                for a, b in zip(exact.polys, pred.polys)
            )
        )
    assert gaps[2] < gaps[0]
    assert gaps[2] < 1e-6


def test_first_poly_distance_to_limit_scales_like_sigma2():
    # H_{1,n} - H_1 = (alpha_1/sigma_n^2) He_2 / 6 under exact affine growth
    m = builtin_model("elliptic2")
    from edgekit.cumulants import fit_stationary

    fit = fit_stationary(m, (8, 12, 16, 24, 32, 48, 64), kmax=3)
    beta = fit.p[2:] / fit.p[1]
    alpha = fit.q[2:] - fit.q[1] * beta  # scaled kappa_{l+2} = beta_l + alpha_l/sigma_n^2
    lim = correction_polynomial(1, list(beta))
    for n in (32, 64):
        e = build_expansion(m, n, 3)
        gap = coefficient_distance(e.polys[0], lim)
        pred = abs(alpha[0]) / m.sigma2(n) / 6.0 * max(abs(c) for c in hermite(2).coef)
        assert gap == pytest.approx(pred, rel=2e-2)
