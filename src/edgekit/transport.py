"""Transport distances between one-dimensional laws.

Wasserstein distances are computed through the quantile coupling

    W_p(F, G)^p = int_0^1 |F^{-1}(u) - G^{-1}(u)|^p du,

exactly where the structure allows it (lattice vs lattice, lattice vs
Gaussian via partial moments) and by high-accuracy quadrature otherwise.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .models.lattice import LatticeDistribution
from .special import gaussian_partial_moments

__all__ = [
    "GaussianLaw",
    "wasserstein_distance",
    "wasserstein_lattice_lattice",
    "wasserstein_lattice_gaussian",
    "lp_cdf_distance",
    "wasserstein_upper_bound",
    "expectation_via_cdf",
    "gaussian_coupling",
]

_QTAIL = 1e-14  # quantile-domain tail cut; integrand tails are O(|ndtri|^p * _QTAIL)
_GAP_CELL = 0.75  # widest panel of the CDF-gap integral


@dataclass(frozen=True)
class GaussianLaw:
    """Normal law N(mean, sd^2) exposing the distribution protocol."""

    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        if not self.sd > 0.0:
            raise ValueError("sd must be positive")

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=float) - self.mean) / self.sd)

    def quantile(self, u):
        return self.mean + self.sd * ndtri(np.asarray(u, dtype=float))

    def density(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))


def wasserstein_distance(a, b, p=1):
    """W_p between two laws, exact when the pair structure allows.

    Finite p >= 1, not necessarily an integer. Exact routes exist for
    integer p on lattice/lattice and lattice/Gaussian pairs. Anything else
    uses quantile-domain quadrature and requires `quantile` on both laws.
    """
    if not 1 <= p < math.inf:
        raise ValueError("p must be finite and >= 1, got %r" % (p,))
    if isinstance(p, int) or float(p).is_integer():
        p_int = int(p)
        lat_a = isinstance(a, LatticeDistribution)
        lat_b = isinstance(b, LatticeDistribution)
        if lat_a and lat_b:
            return wasserstein_lattice_lattice(a, b, p_int)
        if lat_a and isinstance(b, GaussianLaw):
            return wasserstein_lattice_gaussian(a, b, p_int)
        if lat_b and isinstance(a, GaussianLaw):
            return wasserstein_lattice_gaussian(b, a, p_int)
        return _wasserstein_quantile_quadrature(a, b, p_int)
    return _wasserstein_quantile_quadrature(a, b, float(p))


def wasserstein_lattice_lattice(a, b, p=1):
    """Exact W_p for two finitely supported laws via the merged partition."""
    _check_normalized(a)
    _check_normalized(b)
    cums = np.union1d(np.cumsum(a.masses), np.cumsum(b.masses))
    cums = cums[(cums > 0.0) & (cums <= 1.0)]
    if cums[-1] < 1.0:
        cums = np.append(cums, 1.0)
    widths = np.diff(np.concatenate([[0.0], cums]))
    mids = cums - 0.5 * widths
    xa = a.quantile(mids)
    xb = b.quantile(mids)
    total = float(np.sum(widths * np.abs(xa - xb) ** p))
    return total ** (1.0 / p)


def wasserstein_lattice_gaussian(lat, gauss, p=1):
    """Exact W_p between a lattice law and N(mean, sd^2).

    On each quantile cell the lattice side is the constant x_i while the
    Gaussian side runs over [z_{i-1}, z_i]; the cell integral reduces to
    Gaussian partial moments. Odd p splits a cell at z = x_i where the
    sign of the difference flips.
    """
    _check_normalized(lat)
    if not (isinstance(p, int) and p >= 1):
        raise ValueError("p must be a positive integer")
    cums = np.concatenate([[0.0], np.cumsum(lat.masses)])
    cums[-1] = 1.0
    with np.errstate(divide="ignore"):
        zs = ndtri(np.clip(cums, 0.0, 1.0))  # cell edges in standard units
    total = 0.0
    sd, mean = gauss.sd, gauss.mean
    for i in range(lat.masses.size):
        if lat.masses[i] <= 0.0:
            continue
        x = lat.offset + lat.step * i
        z1, z2 = zs[i], zs[i + 1]
        # standardized cut where the difference changes sign
        zc = (x - mean) / sd
        if p % 2 and z1 < zc < z2:
            total += abs(_signed_cell_integral(x, mean, sd, z1, zc, p))
            total += abs(_signed_cell_integral(x, mean, sd, zc, z2, p))
        elif p % 2:
            total += abs(_signed_cell_integral(x, mean, sd, z1, z2, p))
        else:
            total += _signed_cell_integral(x, mean, sd, z1, z2, p)
    return total ** (1.0 / p)


def _signed_cell_integral(x, mean, sd, z1, z2, p):
    """int_{z1}^{z2} (mean + sd w - x)^p phi(w) dw."""
    moms = gaussian_partial_moments(p, z1, z2)
    c = mean - x
    acc = 0.0
    for k in range(p + 1):
        acc += math.comb(p, k) * sd**k * c ** (p - k) * moms[k]
    return acc


def _check_normalized(lat):
    if abs(lat.total_mass - 1.0) > 1e-9:
        raise ValueError("lattice law is not normalized (mass %r)" % lat.total_mass)


def _quantile_panels():
    """Log-spaced symmetric partition of (0,1) resolving both tails."""
    lows = [_QTAIL * 10.0**k for k in range(13)]  # 1e-14 .. 1e-2
    left = lows + [0.05, 0.1, 0.2, 0.35, 0.5]
    right = [1.0 - u for u in reversed(left[:-1])]
    return np.array(left + right)


def _wasserstein_quantile_quadrature(a, b, p):
    edges = _quantile_panels()
    for d in (a, b):
        edges = np.union1d(edges, _quantile_jump_levels(d))
    nodes, weights = np.polynomial.legendre.leggauss(32)

    def gl(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        u = mid + half * nodes
        qa = np.asarray(a.quantile(u), dtype=float)
        qb = np.asarray(b.quantile(u), dtype=float)
        return half * float(np.sum(weights * np.abs(qa - qb) ** p))

    coarse = [gl(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    # quantile functions may jump inside a panel (atoms of a or b);
    # refine until each panel's estimate stabilizes
    tol = 1e-11 * max(sum(coarse), 1e-300)

    def refine(lo, hi, val, depth):
        mid = 0.5 * (lo + hi)
        v1, v2 = gl(lo, mid), gl(mid, hi)
        if depth >= 38 or abs(v1 + v2 - val) <= tol * max(1.0, (hi - lo) / (edges[-1] - edges[0])):
            return v1 + v2
        return refine(lo, mid, v1, depth + 1) + refine(mid, hi, v2, depth + 1)

    total = sum(
        refine(lo, hi, v, 0) for (lo, hi), v in zip(zip(edges[:-1], edges[1:]), coarse)
    )
    return total ** (1.0 / p)


def _quantile_jump_levels(d):
    """Interior CDF levels where a law's quantile function jumps."""
    masses = getattr(d, "masses", None)
    if masses is None:
        return np.empty(0)
    cums = np.cumsum(np.asarray(masses, dtype=float))
    return cums[(cums > _QTAIL) & (cums < 1.0 - _QTAIL)]


# -- CDF-gap functionals -----------------------------------------------------


def lp_cdf_distance(a, b, p=1):
    """(int |F_a - F_b|^p dx)^{1/p}, the L^p(dx) gap between two CDFs.

    At p = 1 this is also W_1; for larger p it measures how the pointwise
    CDF discrepancy accumulates in an average rather than uniform sense.
    """
    if not 1 <= p < math.inf:
        raise ValueError("p must be finite and >= 1, got %r" % (p,))
    return _gap_integral(a, b, float(p)) ** (1.0 / p)


def wasserstein_upper_bound(a, b, p=1):
    """Upper estimate of W_p through int |F_a - F_b|^{1/p} dx.

    Coincides with W_1 at p = 1 and dominates the quantile coupling for
    larger p. Also valid when one side is a signed generalized CDF (an
    expansion), which is the route that extends transport estimates past
    proper probability laws. Both sides must carry the same total mass.
    """
    if not 1 <= p < math.inf:
        raise ValueError("p must be finite and >= 1, got %r" % (p,))
    mass_a = float(getattr(a, "total_mass", 1.0))
    mass_b = float(getattr(b, "total_mass", 1.0))
    if abs(mass_a - mass_b) > 1e-9:
        raise ValueError("total masses differ (%r vs %r); the bound needs F(inf) = G(inf)" % (mass_a, mass_b))
    return _gap_integral(a, b, 1.0 / float(p))


def _support_window(dist, fallback):
    lo = hi = None
    if isinstance(dist, LatticeDistribution):
        s = dist.support
        lo, hi = float(s[0]), float(s[-1])
    elif isinstance(dist, GaussianLaw):
        lo, hi = dist.mean - 9.0 * dist.sd, dist.mean + 9.0 * dist.sd
    elif hasattr(dist, "breaks"):
        lo, hi = float(dist.breaks[0]), float(dist.breaks[-1])
    if lo is None:
        return fallback
    return min(lo, fallback[0]), max(hi, fallback[1])


def _gap_edges(a, b, lo, hi):
    """Panel edges: support breakpoints plus CDF crossing locations."""
    pts = {lo, hi}
    for d in (a, b):
        if isinstance(d, LatticeDistribution):
            pts.update(float(v) for v in d.support)
        elif hasattr(d, "breaks"):
            pts.update(float(v) for v in d.breaks)
    # where a flat stretch of a lattice CDF meets the other side's range,
    # |F - G| touches zero; split panels there so the kink of |.|^(1/p)
    # sits on an edge
    for lat, other in ((a, b), (b, a)):
        if isinstance(lat, LatticeDistribution) and hasattr(other, "quantile"):
            cums = np.cumsum(lat.masses)
            for c in cums[(cums > 1e-15) & (cums < 1.0 - 1e-15)]:
                x = float(np.asarray(other.quantile(c), dtype=float))
                if lo < x < hi:
                    pts.add(x)
    return np.array(sorted(p for p in pts if lo <= p <= hi))


def _gap_integral(a, b, expo):
    """int |F_a(x) - F_b(x)|^expo dx over kink-aware panels.

    The window covers [-12, 12] and both supports (9 sd for a Gaussian).
    """
    lo, hi = _support_window(b, _support_window(a, (-12.0, 12.0)))
    edges = _gap_edges(a, b, lo, hi)
    # wide panels (tails, sparse breakpoints) get split so the fixed
    # Gauss rule keeps resolving the integrand's curvature
    refined = [edges[0]]
    for x1, x2 in zip(edges[:-1], edges[1:]):
        parts = max(1, int(math.ceil((x2 - x1) / _GAP_CELL)))
        refined.extend(x1 + (x2 - x1) * (k + 1) / parts for k in range(parts))
    edges = np.asarray(refined)
    nodes, weights = np.polynomial.legendre.leggauss(48)
    total = 0.0
    for x1, x2 in zip(edges[:-1], edges[1:]):
        if x2 - x1 <= 0.0:
            continue
        mid = 0.5 * (x1 + x2)
        half = 0.5 * (x2 - x1)
        x = mid + half * nodes
        gap = np.abs(np.asarray(a.cdf(x), dtype=float) - np.asarray(b.cdf(x), dtype=float))
        total += half * float(np.sum(weights * gap**expo))
    return total


# -- expectations through the CDF --------------------------------------------


def expectation_via_cdf(cdf, h, h_deriv, tol=1e-7, span=60.0):
    """E[h(X)] = h(0) + int_0^inf h'(1-F) dx - int_-inf^0 h' F dx.

    Works from the CDF alone; the two half-line integrals are evaluated
    adaptively. Intended for smooth CDFs (expansions, Gaussians); step
    CDFs converge too but slowly. Scans use the closed-form moments of
    `EdgeworthExpansion`; this stays as an independent oracle for them,
    and imports scipy.integrate only when called.
    """
    from scipy import integrate

    up, up_err = integrate.quad(
        lambda x: h_deriv(x) * (1.0 - float(np.asarray(cdf(x)))), 0.0, span,
        epsabs=tol / 4.0, limit=300,
    )
    dn, dn_err = integrate.quad(
        lambda x: h_deriv(x) * float(np.asarray(cdf(x))), -span, 0.0,
        epsabs=tol / 4.0, limit=300,
    )
    if up_err + dn_err > tol:
        raise ValueError("requested tolerance %g not reached (error %g)" % (tol, up_err + dn_err))
    return h(0.0) + up - dn


# -- Gaussian coupling through variance blocking ------------------------------


def gaussian_coupling(model, n, p=2, target=None):
    """W_p(law(S_n), N(0, a_n)), a_n the variance in complete blocks.

    a_n comes from `model.blocking`. For a healthy blocking the remainder
    b_n stays bounded while a_n tracks sigma_n^2, so the distance over
    sigma_n vanishes.
    """
    a = float(model.blocking(n, target=target).a[n])
    if a <= 0.0:
        raise ValueError("blocking captured no variance; larger n or smaller target")
    return float(wasserstein_lattice_gaussian(model.distribution(n), GaussianLaw(0.0, math.sqrt(a)), p))
