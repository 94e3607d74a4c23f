import math

import numpy as np
import pytest

from edgekit.special import (
    gaussian_derivative,
    gaussian_partial_moments,
    hermite,
    hermite_value,
    normal_cdf,
    normal_pdf,
)

XGRID = np.linspace(-8.0, 8.0, 161)


# --- hermite family ---------------------------------------------------------

def test_hermite_low_orders_exact():
    assert hermite(0).coef.tolist() == [1.0]
    assert hermite(1).coef.tolist() == [0.0, 1.0]
    assert hermite(2).coef.tolist() == [-1.0, 0.0, 1.0]
    assert hermite(3).coef.tolist() == [0.0, -3.0, 0.0, 1.0]
    # He_4 = x^4 - 6x^2 + 3
    assert hermite(4).coef.tolist() == [3.0, 0.0, -6.0, 0.0, 1.0]


def test_hermite_coefficients_are_the_rounded_closed_form():
    # He_k = sum_j (-1)^j k! / (2^j j! (k - 2j)!) x^(k - 2j), each coefficient rounded once
    for k in range(65):
        want = [0.0] * (k + 1)
        for j in range(k // 2 + 1):
            c = math.factorial(k) // (2**j * math.factorial(j) * math.factorial(k - 2 * j))
            want[k - 2 * j] = float((-1) ** j * c)
        assert hermite(k).coef.tolist() == want, k


def test_hermite_cap():
    hermite(64)
    with pytest.raises(ValueError):
        hermite(65)
    with pytest.raises(ValueError):
        hermite(-1)


def test_hermite_orders_that_are_not_whole_are_refused_by_name():
    # a whole float is read as the int it is
    assert hermite(3.0).coef.tolist() == hermite(3).coef.tolist()
    assert hermite_value(3.0, 0.3) == hermite_value(3, 0.3)
    for k in (1.5, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"hermite order k must be a whole number, got %s" % k):
            hermite(k)
        with pytest.raises(ValueError, match=r"hermite order k must be a whole number, got %s" % k):
            hermite_value(k, 0.3)
    with pytest.raises(ValueError, match=r"hermite order must be in \[0, 64\], got 65"):
        hermite_value(65.0, 0.3)


def test_hermite_value_matches_coefficients():
    for k in range(0, 13):
        p = hermite(k)
        assert np.allclose(hermite_value(k, XGRID), p(XGRID), rtol=1e-10, atol=1e-8)


def test_hermite_recurrence_identity():
    # He_{k+1}(x) = x He_k(x) - k He_{k-1}(x) on a grid
    for k in range(1, 20):
        lhs = hermite_value(k + 1, XGRID)
        rhs = XGRID * hermite_value(k, XGRID) - k * hermite_value(k - 1, XGRID)
        scale = 1.0 + np.abs(lhs)
        assert np.all(np.abs(lhs - rhs) <= 1e-10 * scale)


def test_hermite_orthogonality():
    # int He_j He_k phi dx = k! delta_jk, via Gauss-Hermite_e quadrature
    # (exact for polynomial integrands of this degree)
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    weights = weights / np.sqrt(2.0 * np.pi)
    for j in range(11):
        for k in range(j, 11):
            val = np.sum(weights * hermite_value(j, nodes) * hermite_value(k, nodes))
            expect = float(math.factorial(k)) if j == k else 0.0
            assert abs(val - expect) <= 1e-8 * max(1.0, float(math.factorial(k)))


# --- gaussian primitives ----------------------------------------------------

def test_normal_pdf_cdf_known_values():
    assert abs(normal_pdf(0.0) - 0.3989422804014327) < 1e-15
    assert abs(normal_cdf(0.0) - 0.5) < 1e-15
    assert abs(normal_cdf(1.0) - 0.8413447460685429) < 1e-14


def test_normal_cdf_quadrature_oracle():
    # 0.5 + int_0^x phi, composite Gauss-Legendre panels, against normal_cdf
    glx, glw = np.polynomial.legendre.leggauss(24)
    for x in [0.25, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0]:
        edges = np.linspace(0.0, x, 16)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            total += half * np.sum(glw * normal_pdf(mid + half * glx))
        assert abs(normal_cdf(x) - (0.5 + total)) < 1e-14
        assert abs(normal_cdf(-x) - (0.5 - total)) < 1e-14


def test_normal_cdf_symmetry_and_monotone():
    vals = normal_cdf(XGRID)
    assert np.all(np.diff(vals) > 0)
    assert np.all(np.abs(vals + normal_cdf(-XGRID) - 1.0) < 1e-14)


def test_normal_cdf_rejects_nan():
    with pytest.raises(ValueError):
        normal_cdf(float("nan"))


def test_gaussian_derivative_low_orders():
    x = XGRID
    assert np.allclose(gaussian_derivative(0, x), normal_pdf(x), atol=1e-15)
    assert np.allclose(gaussian_derivative(1, x), -x * normal_pdf(x), atol=1e-14)
    assert np.allclose(
        gaussian_derivative(2, x), (x * x - 1.0) * normal_pdf(x), atol=1e-13
    )


def _fd2_order4(g, x, h):
    # 4th-order central stencil for the second derivative
    return (
        -g(x + 2 * h) + 16 * g(x + h) - 30 * g(x) + 16 * g(x - h) - g(x - 2 * h)
    ) / (12 * h**2)


def test_gaussian_derivative_fd_oracle():
    # phi^(k) must match a finite-difference second derivative of phi^(k-2),
    # anchored at k=1,2 with differences of phi itself
    h = 2e-3
    x = np.linspace(-4.0, 4.0, 41)
    fd1 = (normal_pdf(x + h) - normal_pdf(x - h)) / (2 * h)
    assert np.all(np.abs(fd1 - gaussian_derivative(1, x)) <= 1e-6 * (1 + np.abs(x)))
    fd2 = _fd2_order4(normal_pdf, x, h)
    assert np.all(np.abs(fd2 - gaussian_derivative(2, x)) <= 1e-6 * (1 + np.abs(x)) ** 2)
    for k in range(3, 13):
        fd = _fd2_order4(lambda t: gaussian_derivative(k - 2, t), x, h)
        tol = 1e-6 * (1 + np.abs(x)) ** k
        assert np.all(np.abs(fd - gaussian_derivative(k, x)) <= tol)


def test_gaussian_partial_moments_against_quadrature():
    glx, glw = np.polynomial.legendre.leggauss(48)
    for a, b in [(-1.0, 2.0), (0.0, 0.5), (-6.0, -1.0), (1.0, 7.5)]:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        y = mid + half * glx
        mom = gaussian_partial_moments(10, a, b)
        for k in range(11):
            ref = half * np.sum(glw * y**k * normal_pdf(y))
            assert abs(mom[k] - ref) < 1e-12 * (1 + abs(ref))


def test_gaussian_partial_moments_infinite_range():
    mom = gaussian_partial_moments(8, -np.inf, np.inf)
    # E Z^k: 0 for odd, (k-1)!! for even
    expect = [1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0, 105.0]
    assert np.allclose(mom, expect, atol=1e-13)
