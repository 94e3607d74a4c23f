"""Hermite polynomials and Gaussian primitives.

Everything downstream (correction polynomials, expansion evaluation,
quantile coupling) reduces to polynomial algebra against the standard
normal weight, so this module keeps those primitives in one place.
Hermite polynomials are the probabilists' family: He_{k+1} = x He_k - k He_{k-1}.
"""

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial
from scipy import special as _sp

from .cumulants import whole_number

__all__ = [
    "hermite",
    "hermite_value",
    "normal_pdf",
    "normal_cdf",
    "gaussian_derivative",
    "gaussian_partial_moments",
    "gaussian_moment",
]

_HERMITE_MAX = 64


def hermite(k):
    """Probabilists' Hermite polynomial He_k as a numpy Polynomial.

    Coefficients are built with integer arithmetic before conversion to
    float, so they are exact as long as they fit a double (k <= 64 is
    supported; beyond that coefficient growth makes the dense form
    meaningless and a ValueError is raised).
    """
    k = whole_number(k, "hermite order k")
    if not 0 <= k <= _HERMITE_MAX:
        raise ValueError("hermite order must be in [0, %d], got %r" % (_HERMITE_MAX, k))
    return Polynomial(_hermite_coef(k))


@lru_cache(maxsize=None)
def _hermite_coef(k):
    """Ascending coefficients of He_k, exact in int until one rounding to float."""
    prev, cur = [0], [1]
    for j in range(k):
        # He_{j+1} = x He_j - j He_{j-1}
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= j * c
        prev, cur = cur, nxt
    return tuple(float(c) for c in cur)


def hermite_value(k, x):
    """Evaluate He_k(x) by the three-term recurrence (stable for large k)."""
    k = whole_number(k, "hermite order k")
    if not 0 <= k <= _HERMITE_MAX:
        raise ValueError("hermite order must be in [0, %d], got %r" % (_HERMITE_MAX, k))
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev if prev.ndim else float(prev)
    cur = x.copy()
    for j in range(1, k):
        prev, cur = cur, x * cur - j * prev
    return cur if cur.ndim else float(cur)


def normal_pdf(x):
    x = _check_finite(x)
    out = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return out if out.ndim else float(out)


def normal_cdf(x):
    """Standard normal CDF via the complementary error function.

    Accurate to ~1e-16 relative in the body and in both tails; the naive
    0.5*(1+erf) form loses the lower tail and is deliberately avoided.
    """
    x = _check_finite(x)
    out = _sp.ndtr(x)
    return out if out.ndim else float(out)


def _check_finite(x):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("argument must be finite")
    return x


def gaussian_derivative(k, x):
    """k-th derivative of the standard normal density.

    Uses phi^(k)(x) = (-1)^k He_k(x) phi(x) with He_k evaluated by
    recurrence, so no dense coefficients enter and the result stays
    accurate for k up to the hermite cap.
    """
    sign = -1.0 if k % 2 else 1.0
    x = _check_finite(x)
    out = sign * hermite_value(k, x) * normal_pdf(x)
    return out if np.ndim(out) else float(out)


def gaussian_partial_moments(kmax, a, b):
    """Partial moments M_k = int_a^b y^k phi(y) dy for k = 0..kmax.

    Stable two-term recurrence:
        M_0 = Phi(b) - Phi(a)
        M_1 = phi(a) - phi(b)
        M_k = a^{k-1} phi(a) - b^{k-1} phi(b) + (k-1) M_{k-2}
    Infinite endpoints are allowed (their boundary terms vanish). a and b
    broadcast against each other; the result has shape (kmax + 1,) + their
    shape, so scalar endpoints give a vector of kmax + 1 moments.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    bad = ~(a <= b)
    if np.any(bad):
        raise ValueError("need a <= b, got (%g, %g)" % (a[bad].flat[0], b[bad].flat[0]))
    fin_a, fin_b = np.isfinite(a), np.isfinite(b)
    a0, b0 = np.where(fin_a, a, 0.0), np.where(fin_b, b, 0.0)
    phi_a = np.where(fin_a, normal_pdf(a0), 0.0)
    phi_b = np.where(fin_b, normal_pdf(b0), 0.0)
    cdf_a = np.where(fin_a, normal_cdf(a0), a > 0.0)
    cdf_b = np.where(fin_b, normal_cdf(b0), b > 0.0)
    out = np.empty((kmax + 1,) + a.shape)
    out[0] = cdf_b - cdf_a
    if kmax >= 1:
        out[1] = phi_a - phi_b
    pow_a, pow_b = 1.0, 1.0
    for k in range(2, kmax + 1):
        pow_a = pow_a * a0
        pow_b = pow_b * b0
        out[k] = pow_a * phi_a - pow_b * phi_b + (k - 1) * out[k - 2]
    return out


def gaussian_moment(q):
    """E[Z^q] for integer q >= 0: (q-1)!! for even q, 0 for odd, exactly."""
    if q % 2:
        return 0.0
    return float(math.factorial(q) // (2 ** (q // 2) * math.factorial(q // 2)))
