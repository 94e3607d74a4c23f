"""Higher-order Gaussian corrections for normalized sums.

The order-m approximation to the law of W = S_n/sigma_n is

    F(x) = Phi(x) - phi(x) * sum_{j=1}^{m-2} sigma_n^(-j) H_j(x)

where each correction polynomial H_j collects one power of the expansion
parameter; order m = 2 has none and is the standard normal. Its terms
are indexed by multiplicity tuples (k_1, .., k_L) with sum l*k_l = j:
the tuple contributes

    [prod_l 1/(k_l! ((l+2)!)^k_l)] * [prod_l (kappa_{l+2}/sigma^2)^k_l]
        * He_{k-1},   k = sum_l (l+2) k_l = j + 2 sum_l k_l.

With j = 1 and j = 2 this reproduces the familiar skewness and kurtosis
corrections (coefficients 1/6, 1/24, 1/72).
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial

from .cumulants import whole_number
from .special import (
    gaussian_moment,
    gaussian_partial_moments,
    hermite,
    normal_cdf,
    normal_pdf,
)

__all__ = [
    "enumerate_correction_tuples",
    "correction_coefficient",
    "correction_polynomial",
    "hermite_coefficients",
    "EdgeworthExpansion",
    "build_expansion",
    "expansion_from_cumulants",
]

_ORDER_MIN = 3
_ORDER_MAX = 16
_X_CLAMP = 40.0


@lru_cache(maxsize=None)
def enumerate_correction_tuples(j):
    """Multiplicity tuples (k_1, .., k_L) with sum l*k_l = j, k_L != 0.

    Deterministic order, first coordinate greedy: j = 3 gives
    (3,), (1, 1), (0, 0, 1).
    """
    if j < 1:
        raise ValueError("weight must be at least 1")
    out = []

    def rec(part, rem, acc):
        if rem == 0:
            last = len(acc)
            while last > 0 and acc[last - 1] == 0:
                last -= 1
            out.append(tuple(acc[:last]))
            return
        if part > rem:
            return
        for cnt in range(rem // part, -1, -1):
            rec(part + 1, rem - part * cnt, acc + [cnt])

    rec(1, j, [])
    return tuple(out)


def tuple_hermite_order(tup):
    """k = sum (l+2) k_l = weight + 2 * count."""
    return sum((l + 2) * k for l, k in enumerate(tup, start=1))


@lru_cache(maxsize=None)
def correction_coefficient(tup):
    """Exact combinatorial weight prod 1/(k_l! ((l+2)!)^k_l)."""
    c = Fraction(1)
    for l, k in enumerate(tup, start=1):
        c /= Fraction(math.factorial(k)) * Fraction(math.factorial(l + 2)) ** k
    return c


def correction_polynomial(j, scaled_cumulants):
    """H_j built from scaled cumulants c_l = kappa_{l+2}(S_n)/sigma_n^2.

    `scaled_cumulants[l-1]` is c_l; orders up to l = j are used.
    """
    if len(scaled_cumulants) < j:
        raise ValueError("weight %d needs scaled cumulants up to order %d" % (j, j + 2))
    acc = np.zeros(3 * j)  # He_{k-1} with k <= 3j
    for tup in enumerate_correction_tuples(j):
        coef = float(correction_coefficient(tup))
        for l, k in enumerate(tup, start=1):
            coef *= scaled_cumulants[l - 1] ** k
        if coef != 0.0:
            he = hermite(tuple_hermite_order(tup) - 1).coef
            acc[: he.size] += coef * he
    return Polynomial(acc).trim()


def hermite_coefficients(poly):
    """Expand a polynomial over He_0, He_1, ... (exact triangular solve)."""
    residual = poly.coef.tolist()
    out = {}
    for deg in range(len(residual) - 1, -1, -1):
        c = residual[deg]
        if c == 0.0:
            continue
        out[deg] = c
        for exp, hc in enumerate(hermite(deg).coef.tolist()):
            residual[exp] -= c * hc
    return out


class EdgeworthExpansion:
    """Order-m corrected Gaussian approximation for a normalized sum.

    Holds the correction polynomials H_1..H_{m-2} (numpy Polynomials) and
    the scale sigma_n; evaluation never re-derives them, so a truncation
    shares the exact coefficients of the full build. With no polynomials
    it is the standard normal, to the bit.
    """

    def __init__(self, sigma, polys):
        if not sigma > 0.0:
            raise ValueError("sigma must be positive")
        check_corrections(len(polys), _ORDER_MAX)
        self.sigma = float(sigma)
        self.polys = tuple(polys)
        x = Polynomial((0.0, 1.0))
        # pdf(x) = phi(x) [1 + sum_j sigma^-j (x H_j - H_j')], from
        # He_k = x He_{k-1} - He_{k-1}'
        self.density_polys = tuple(x * h - h.deriv() for h in self.polys)
        self._hermite_coefs = tuple(hermite_coefficients(d) for d in self.density_polys)

    @property
    def corrections(self):
        return len(self.polys)

    def truncated(self, r):
        """Keep only corrections of weight <= r (same coefficients); r = 0 keeps none."""
        return EdgeworthExpansion(self.sigma, self.polys[: check_corrections(r, self.corrections + 2)])

    def correction_sum(self, x, polys):
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for j, p in enumerate(polys, start=1):
            acc += self.sigma ** (-j) * p(x)
        return acc

    def cdf(self, x):
        xa = np.clip(np.asarray(x, dtype=float), -_X_CLAMP, _X_CLAMP)
        out = normal_cdf(xa) - normal_pdf(xa) * self.correction_sum(xa, self.polys)
        return out if np.ndim(out) else float(out)

    def sf(self, x):
        """1 - cdf(x) as Phi(-x) plus the corrections, with no cancellation in the upper tail."""
        xa = np.clip(np.asarray(x, dtype=float), -_X_CLAMP, _X_CLAMP)
        out = normal_cdf(-xa) + normal_pdf(xa) * self.correction_sum(xa, self.polys)
        return out if np.ndim(out) else float(out)

    def pdf(self, x):
        xa = np.clip(np.asarray(x, dtype=float), -_X_CLAMP, _X_CLAMP)
        out = normal_pdf(xa) * (1.0 + self.correction_sum(xa, self.density_polys))
        return out if np.ndim(out) else float(out)

    def charfn(self, t):
        """exp(-t^2/2) (1 + P(it)) with P read off the density polynomials; t's shape is kept."""
        shape = np.shape(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        it = 1j * t
        acc = np.ones(t.shape, dtype=complex)
        for j, coefs in enumerate(self._hermite_coefs, start=1):
            w = self.sigma ** (-j)
            for k, b in coefs.items():
                acc += w * b * it**k
        out = np.exp(-0.5 * t**2) * acc
        return out.reshape(shape) if shape else complex(out[0])

    def moment(self, q):
        """Exact q-th moment of the signed measure."""
        q = whole_number(q, "moment order q")
        if q < 0:
            raise ValueError("moment order q must be nonnegative, got %d" % q)
        total = gaussian_moment(q)
        for j, coefs in enumerate(self._hermite_coefs, start=1):
            w = self.sigma ** (-j)
            for k, b in coefs.items():
                total += w * b * _hermite_projection(q, k)
        return total

    def abs_moment(self, q):
        """Exact q-th absolute moment int |x|^q psi(x) dx of the signed measure.

        With psi = phi (1 + sum_i d_i x^i), d_0 = 1 and the d_i the
        sigma-weighted density polynomial coefficients, the terms are
        int |x|^q x^i phi = (1 + (-1)^i) M_{q+i}(0, inf) in Gaussian
        partial moments. Even q is a polynomial moment: it goes through
        the integer Hermite route of `moment` and equals it exactly.
        """
        q = whole_number(q, "absolute moment order q")
        if q < 0:
            raise ValueError("absolute moment order q must be nonnegative, got %d" % q)
        if q % 2 == 0:
            return self.moment(q)
        deg = max((p.degree() for p in self.density_polys), default=0)
        half = gaussian_partial_moments(q + deg, 0.0, np.inf)
        total = 2.0 * half[q]
        for j, poly in enumerate(self.density_polys, start=1):
            w = self.sigma ** (-j)
            for i, d in enumerate(poly.coef[::2]):
                total += w * 2.0 * d * half[q + 2 * i]
        return total


def _hermite_projection(q, k):
    """int x^q He_k(x) phi(x) dx, exactly."""
    if k > q or (q - k) % 2:
        return 0.0
    s = (q - k) // 2
    return float(math.factorial(q) // (2**s * math.factorial(s)))


def check_order(m):
    """An expansion order m as an int; refused unless whole and in [_ORDER_MIN, _ORDER_MAX]."""
    if not _ORDER_MIN <= whole_number(m, "expansion order m") <= _ORDER_MAX:
        raise ValueError("expansion order must be in [%d, %d], got %d" % (_ORDER_MIN, _ORDER_MAX, m))
    return int(m)


def check_corrections(r, m):
    """The corrections r of an order-m expansion as an int; refused unless whole and in [0, m - 2]."""
    if not 0 <= whole_number(r, "corrections r") <= m - 2:
        raise ValueError("corrections r must be in [0, m - 2 = %s], got %d" % (m - 2, r))
    return int(r)


def build_expansion(model, n, m):
    """Order-m expansion (2 <= m <= 16) for S_n/sigma_n from exact model cumulants."""
    if not 2 <= m <= _ORDER_MAX:
        raise ValueError("expansion order must be in [2, %d]" % _ORDER_MAX)
    kappas = [float(k) for k in model.cumulants(n, m)]
    return expansion_from_cumulants(kappas)


def expansion_from_cumulants(kappas):
    """Expansion of order m = len(kappas) from cumulants of the raw sum; m = 2 is the Gaussian."""
    m = len(kappas)
    if not 2 <= m <= _ORDER_MAX:
        raise ValueError("need between 2 and %d cumulants" % _ORDER_MAX)
    sigma2 = kappas[1]
    if not sigma2 > 0.0:
        raise ValueError("second cumulant must be positive")
    sigma = math.sqrt(sigma2)
    if abs(kappas[0]) > 1e-8 * sigma:
        raise ValueError("first cumulant %g is not zero; center the sum" % kappas[0])
    scaled = [kappas[l + 1] / sigma2 for l in range(1, m - 1)]
    polys = [correction_polynomial(j, scaled) for j in range(1, m - 1)]
    return EdgeworthExpansion(sigma, polys)
