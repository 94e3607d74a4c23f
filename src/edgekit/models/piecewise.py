"""Piecewise-polynomial densities with exact convolution.

Pieces keep their coefficients in a local coordinate centered on the
piece. That makes the representation numerically benign: the local
coefficients of an n-fold convolution are Taylor coefficients of a
smooth density and stay moderate, where a global monomial basis would
cancel catastrophically already around n = 20.

Evaluation gathers rows of zero-padded coefficient arrays, `_C` for the
density and `_A` for its antiderivative from each midpoint, and runs one
Horner pass over them; quantile solves by safeguarded Newton in the cell
found from the cumulative masses.
"""

import math

import numpy as np

__all__ = ["PiecewisePolyDistribution", "iid_sum"]

_IID_CAP = 64
_CHARFN_DERIV_CAP = 16
_TRIM_REL = 1e-17
_NEWTON_CAP = 128  # steps per quantile; bisection alone needs ~52

_binom_cache = {}


def _binom_matrix(n):
    """B[k, j] = C(k, j) for j <= k, else 0, as floats."""
    if n not in _binom_cache:
        ks = range(n)
        _binom_cache[n] = np.array([[math.comb(k, j) for j in ks] for k in ks], dtype=float)
    return _binom_cache[n]


def _shift_poly(a, delta):
    """Coefficients of p(v + delta) given those of p(u)."""
    a = np.asarray(a, dtype=float)
    d = a.size
    if d == 1 or delta == 0.0:
        return a.copy()
    B = _binom_matrix(d)
    kk, jj = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    with np.errstate(invalid="ignore"):
        P = np.where(kk >= jj, np.power(delta, np.maximum(kk - jj, 0)), 0.0)
    return a @ (B * P)


def _horner(rows, u):
    """Polynomials rows[..., :] (ascending powers) evaluated at u, row by row."""
    acc = rows[..., -1]
    for k in range(rows.shape[-1] - 2, -1, -1):
        acc = acc * u + rows[..., k]
    return acc


def _trim_coeffs(a, w):
    """Drop trailing coefficients that cannot affect values on [-w, w]."""
    a = np.asarray(a, dtype=float)
    pw = w ** np.arange(a.size)
    scale = float(np.sum(np.abs(a) * pw))
    if scale == 0.0:
        return np.zeros(1)
    keep = a.size
    while keep > 1 and abs(a[keep - 1]) * pw[keep - 1] < _TRIM_REL * scale:
        keep -= 1
    return a[:keep].copy()


class PiecewisePolyDistribution:
    """Density that is polynomial on each cell of a finite grid.

    breaks is the ascending grid; coeffs[i] are the local coefficients of
    the density on [breaks[i], breaks[i+1]] around that cell's midpoint.
    """

    def __init__(self, breaks, coeffs):
        breaks = np.asarray(breaks, dtype=float)
        if breaks.ndim != 1 or breaks.size < 2:
            raise ValueError("need at least one cell")
        scale = float(np.max(np.abs(breaks))) + 1.0
        if np.min(np.diff(breaks)) <= 1e-12 * scale:
            raise ValueError("breakpoints must be strictly increasing")
        if len(coeffs) != breaks.size - 1:
            raise ValueError("%d cells but %d coefficient sets" % (breaks.size - 1, len(coeffs)))
        self.breaks = breaks
        self.coeffs = [np.atleast_1d(np.asarray(c, dtype=float)) for c in coeffs]
        self.centers = 0.5 * (breaks[1:] + breaks[:-1])
        self.halfwidths = 0.5 * (breaks[1:] - breaks[:-1])
        self._C = np.zeros((len(self.coeffs), max(c.size for c in self.coeffs)))
        for i, c in enumerate(self.coeffs):
            self._C[i, : c.size] = c
        self._A = np.pad(self._C / np.arange(1, self._C.shape[1] + 1), ((0, 0), (1, 0)))
        self._base = _horner(self._A, -self.halfwidths)  # antiderivative at each left edge
        masses = _horner(self._A, self.halfwidths) - self._base
        self._cum = np.concatenate([[0.0], np.cumsum(masses)])

    @classmethod
    def uniform(cls, lo=-1.0, hi=1.0):
        if not hi > lo:
            raise ValueError("empty support")
        return cls([lo, hi], [[1.0 / (hi - lo)]])

    # -- evaluation ----------------------------------------------------------

    def _eval(self, rows, x):
        """Cell of each x and that cell's row of `rows` evaluated at x."""
        idx = np.clip(np.searchsorted(self.breaks, x, side="right") - 1, 0, len(self.coeffs) - 1)
        return idx, _horner(rows[idx], x - self.centers[idx])

    def density(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        inside = (x >= self.breaks[0]) & (x <= self.breaks[-1])
        out[inside] = self._eval(self._C, x[inside])[1]
        return out if out.size > 1 else float(out[0])

    def cdf(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.where(x >= self.breaks[-1], self._cum[-1], 0.0)
        mid = (x >= self.breaks[0]) & (x < self.breaks[-1])
        idx, anti = self._eval(self._A, x[mid])
        out[mid] = self._cum[idx] + (anti - self._base[idx])
        return out if out.size > 1 else float(out[0])

    def quantile(self, u):
        """Smallest x with cdf(x) >= u, for nonnegative densities.

        Newton steps in the cell i found from the cumulative masses solve
        P_i(v) = u - cum_i + P_i(-w_i); a step that leaves the bracket or
        fails to halve the step before last is replaced by bisection.
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.where(u <= 0.0, self.breaks[0], self.breaks[-1])
        live = (u > 0.0) & (u < self._cum[-1])
        i = np.searchsorted(self._cum, u[live], side="left") - 1
        w, center, rest = self.halfwidths[i], self.centers[i], u[live] - self._cum[i]
        rows, target = self._A[i], rest + self._base[i]
        tol = 4.0 * np.finfo(float).eps * (np.abs(center) + w)
        lo, hi, step, older = -w, w, 2.0 * w, 2.0 * w
        v = w * (2.0 * rest / (self._cum[i + 1] - self._cum[i]) - 1.0)  # 0 < rest <= mass_i
        done = np.zeros(v.shape, dtype=bool)
        for _ in range(_NEWTON_CAP):
            if done.all():
                break
            g = _horner(rows, v) - target
            lo, hi = np.where(g < 0.0, v, lo), np.where(g < 0.0, hi, v)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = g / self.density(center + v)
            ok = (v - newton >= lo) & (v - newton <= hi) & (abs(newton) <= 0.5 * abs(older))
            older, step = step, np.where(ok, newton, v - 0.5 * (lo + hi))
            done |= g == 0.0
            v = np.where(done, v, v - step)
            done |= (np.abs(step) <= tol) | (hi - lo <= tol)
        out[live] = np.clip(center + v, self.breaks[i], self.breaks[i + 1])
        return out if out.size > 1 else float(out[0])

    @property
    def total_mass(self):
        return float(self._cum[-1])

    def validate(self):
        if abs(self.total_mass - 1.0) > 1e-10:
            raise ValueError("total mass %r not 1 within 1e-10" % self.total_mass)
        u = np.linspace(-1.0, 1.0, 33) * self.halfwidths[:, None]
        vals = _horner(self._C[:, None, :], u)
        if np.min(vals) < -1e-12:
            raise ValueError("density dips to %g on cell %d" % (np.min(vals), vals.argmin() // 33))
        return self

    # -- moments -------------------------------------------------------------

    def moment(self, q):
        """Raw moment E[X^q] by exact per-cell integration."""
        total = 0.0
        for i, (c, w) in enumerate(zip(self.centers, self.halfwidths)):
            for j in range(q + 1):
                mono = self._monomial_integral(i, j, -w, w)
                total += math.comb(q, j) * c ** (q - j) * mono
        return total

    def abs_moment(self, q):
        total = 0.0
        for i, (c, w) in enumerate(zip(self.centers, self.halfwidths)):
            lo_x, hi_x = c - w, c + w
            if lo_x >= 0.0 or hi_x <= 0.0:
                segs = [(-w, w, 1.0 if lo_x >= 0.0 else (-1.0) ** q)]
            else:
                segs = [(-w, -c, (-1.0) ** q), (-c, w, 1.0)]
            for ulo, uhi, sign in segs:
                for j in range(q + 1):
                    mono = self._monomial_integral(i, j, ulo, uhi)
                    total += sign * math.comb(q, j) * c ** (q - j) * mono
        return total

    def _monomial_integral(self, i, j, ulo, uhi):
        """int_ulo^uhi u^j p_i(u) du."""
        c = self.coeffs[i]
        k = np.arange(c.size) + j + 1.0
        return float(np.sum(c * (uhi**k - ulo**k) / k))

    @property
    def mean(self):
        return self.moment(1)

    @property
    def variance(self):
        mu = self.mean
        return self.moment(2) - mu * mu

    # -- transforms ----------------------------------------------------------

    def charfn_deriv(self, t, k=0):
        """k-th derivative of the characteristic function.

            psi^(k)(t) = int x^k (i)^k e^{itx} p(x) dx

        Cells are subdivided so the local oscillation stays below ~2 and a
        short exponential series converges to machine precision; no
        recurrences that lose digits at small t.
        """
        if not 0 <= k <= _CHARFN_DERIV_CAP:
            raise ValueError("derivative order must be in [0, %d]" % _CHARFN_DERIV_CAP)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        tmax = float(np.max(np.abs(t))) if t.size else 0.0
        out = np.zeros(t.shape, dtype=complex)
        for i, (c, w) in enumerate(zip(self.centers, self.halfwidths)):
            # g(u) = (c+u)^k p(u)
            if k:
                gk = np.array([math.comb(k, j) * c ** (k - j) for j in range(k + 1)])
                g = np.convolve(gk, self.coeffs[i])
            else:
                g = self.coeffs[i]
            out += np.exp(1j * t * c) * _osc_integral(g, w, t, tmax)
        out *= 1j**k
        return out if out.size > 1 else complex(out[0])

    def scale(self, s):
        """Distribution of s*X for s > 0."""
        if not s > 0.0:
            raise ValueError("scale factor must be positive")
        # p_Y(y) = p(y/s)/s; local u_Y = s u
        coeffs = [c / s ** (np.arange(c.size) + 1.0) for c in self.coeffs]
        return PiecewisePolyDistribution(self.breaks * s, coeffs)

    def shift(self, delta):
        return PiecewisePolyDistribution(self.breaks + delta, [c.copy() for c in self.coeffs])

    # -- convolution ---------------------------------------------------------

    def convolve(self, other):
        """Exact distribution of the sum of independent draws."""
        contribs = []
        cuts = []
        for i in range(len(self.coeffs)):
            for j in range(len(other.coeffs)):
                c = self.centers[i] + other.centers[j]
                for s_lo, s_hi, cf in _pair_convolve(
                    self.coeffs[i], self.halfwidths[i], other.coeffs[j], other.halfwidths[j]
                ):
                    contribs.append((c + s_lo, c + s_hi, cf))
                    cuts.append(c + s_lo)
                    cuts.append(c + s_hi)
        grid = _snap_unique(np.array(cuts))
        cells = [None] * (grid.size - 1)
        tol = 1e-9 * (float(np.max(np.abs(grid))) + 1.0)
        for lo, hi, cf in contribs:
            il = int(np.searchsorted(grid, lo + tol) - 1)
            ih = int(np.searchsorted(grid, hi - tol) - 1)
            src_mid = 0.5 * (lo + hi)
            for cell in range(il, ih + 1):
                cell_mid = 0.5 * (grid[cell] + grid[cell + 1])
                add = _shift_poly(cf, cell_mid - src_mid)
                prev = cells[cell]
                cells[cell] = add if prev is None else np.polynomial.polynomial.polyadd(prev, add)
        out_coeffs = []
        for cell, cf in enumerate(cells):
            w = 0.5 * (grid[cell + 1] - grid[cell])
            out_coeffs.append(_trim_coeffs(cf if cf is not None else np.zeros(1), w))
        return PiecewisePolyDistribution(grid, out_coeffs)


def iid_sum(base, n):
    """Exact n-fold convolution of `base` with itself.

    Desk-scale engine: n is capped at 64; larger sums exceed the intended
    resource envelope and raise.
    """
    if not 1 <= n <= _IID_CAP:
        raise ValueError("iid convolution supports 1 <= n <= %d, got %r" % (_IID_CAP, n))
    acc = base
    for _ in range(n - 1):
        acc = acc.convolve(base)
    return acc


# -- pair convolution of local pieces ---------------------------------------


def _pair_convolve(p, w, q, h):
    """Convolve density pieces P (on [-w,w]) and Q (on [-h,h]).

    Returns sub-pieces (s_lo, s_hi, coeffs local to the sub-piece midpoint)
    of the function s -> int P(u) Q(s-u) du, where s is relative to the sum
    of the parent centers. Limits follow from overlap of the supports:
    u in [max(-w, s-h), min(w, s+h)].
    """
    dp, dq = p.size - 1, q.size - 1
    # bivariate coefficients of P(u) Q(s-u): axis 0 powers of u, axis 1 of s
    m = np.zeros((dq + 1, dq + 1))
    for b in range(dq + 1):
        for tpow in range(b + 1):
            m[tpow, b - tpow] += q[b] * math.comb(b, tpow) * (-1.0) ** tpow
    full = np.zeros((dp + dq + 1, dq + 1))
    for a in range(dp + 1):
        full[a : a + dq + 1, :] += p[a] * m
    # antiderivative in u
    anti = np.zeros((dp + dq + 2, dq + 1))
    anti[1:, :] = full / np.arange(1, dp + dq + 2)[:, None]

    def eval_linear(alpha, beta):
        # substitute u = alpha*s + beta, returning coefficients in s
        acc = np.zeros(anti.shape[0] + anti.shape[1])
        pow_poly = np.array([1.0])
        for ku in range(anti.shape[0]):
            term = np.convolve(pow_poly, anti[ku, :])
            acc[: term.size] += term
            pow_poly = np.convolve(pow_poly, np.array([beta, alpha]))
        return acc

    big = w + h
    mid = abs(w - h)
    regimes = []
    # rising overlap
    regimes.append((-big, -mid, (1.0, h), (0.0, -w)))
    # full overlap of the narrower piece
    if mid > 1e-14 * big:
        if w <= h:
            regimes.append((-mid, mid, (0.0, w), (0.0, -w)))
        else:
            regimes.append((-mid, mid, (1.0, h), (1.0, -h)))
    # falling overlap
    regimes.append((mid, big, (0.0, w), (1.0, -h)))
    out = []
    for s_lo, s_hi, (ua, ub), (la, lb) in regimes:
        if s_hi - s_lo <= 1e-14 * big:
            continue
        poly_s = eval_linear(ua, ub) - eval_linear(la, lb)
        s_mid = 0.5 * (s_lo + s_hi)
        local = _shift_poly(poly_s, s_mid)
        out.append((s_lo, s_hi, _trim_coeffs(local, 0.5 * (s_hi - s_lo))))
    return out


def _snap_unique(points, rel=1e-9):
    points = np.sort(points)
    tol = rel * (float(np.max(np.abs(points))) + 1.0)
    keep = [points[0]]
    for x in points[1:]:
        if x - keep[-1] > tol:
            keep.append(x)
    return np.array(keep)


def _osc_integral(g, w, t, tmax):
    """int_{-w}^{w} g(u) e^{i t u} du for an array of t."""
    nsub = max(1, int(math.ceil(tmax * w / 2.0)))
    hw = w / nsub
    u0s = -w + hw * (2.0 * np.arange(nsub) + 1.0)
    out = np.zeros(t.shape, dtype=complex)
    jmax = 30
    for u0 in u0s:
        gl = _shift_poly(g, u0)
        # moments int_{-hw}^{hw} v^j gl(v) dv
        a = np.arange(gl.size)
        mom = np.empty(jmax + 1)
        for j in range(jmax + 1):
            k = a + j + 1.0
            mom[j] = float(np.sum(gl * (hw**k - (-hw) ** k) / k))
        it = 1j * t
        term = np.ones(t.shape, dtype=complex)
        acc = np.full(t.shape, mom[0], dtype=complex)
        for j in range(1, jmax + 1):
            term = term * it / j
            if mom[j] != 0.0:
                acc += mom[j] * term
        out += np.exp(1j * t * u0) * acc
    return out
