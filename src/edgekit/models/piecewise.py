"""Piecewise-polynomial densities with exact convolution.

Pieces keep their coefficients in a local coordinate centered on the
piece. That makes the representation numerically benign: the local
coefficients of an n-fold convolution are Taylor coefficients of a
smooth density and stay moderate, where a global monomial basis would
cancel catastrophically already around n = 20.

Evaluation gathers rows of zero-padded coefficient arrays, `_C` for the
density and `_A` for its antiderivative from each midpoint, and runs one
Horner pass over them. The masses left of each cell (`_cum`) and from
each cell on (`_surv`) give the CDF and the survival mass each from its
own side. `_A` and the masses are built on first use. quantile solves by
safeguarded Newton in the cell found from the cumulative masses.

Convolution works on whole tables too. The pair convolution is linear in
one factor's coefficients, so the cells of equal halfwidth go through it
as one block, and the sub-pieces are placed on the new grid, recentered
and summed as arrays; the law is built from the summed table as it is.
"""

import functools
import math

import numpy as np
from numpy.polynomial import legendre
from scipy.special import spherical_jn

from .lattice import _charfn_orders

__all__ = ["PiecewisePolyDistribution"]

_TRIM_REL = 1e-17
_NEWTON_CAP = 128  # steps per quantile; bisection alone needs ~52


@functools.lru_cache(maxsize=None)
def _binom_matrix(n):
    """B[k, j] = C(k, j) for j <= k, else 0, as read-only floats."""
    out = np.array([[math.comb(k, j) for j in range(n)] for k in range(n)], dtype=float)
    out.flags.writeable = False
    return out


def _shift_matrix(d, delta):
    """M with a @ M the coefficients of p(v + delta), for a the d coefficients of p.

    An array of deltas gives one matrix per delta.
    """
    k = np.arange(d)
    expo = k[:, None] - k
    with np.errstate(invalid="ignore"):
        powers = np.power(np.asarray(delta)[..., None], k)  # delta^0 .. delta^(d-1), each once
    return _binom_matrix(d) * np.where(expo >= 0, powers[..., np.maximum(expo, 0)], 0.0)


def _shift_matrices():
    """`_shift_matrix` for scalar deltas, each distinct (d, delta) built once.

    Keyed by the delta's bits, so -0.0 and 0.0 stay apart.
    """
    built = {}

    def shift(d, delta):
        key = d, float(delta).hex()
        if key not in built:
            built[key] = _shift_matrix(d, delta)
        return built[key]

    return shift


def _horner(rows, u):
    """Polynomials rows[..., :] (ascending powers) evaluated at u, row by row."""
    acc = rows[..., -1]
    for k in range(rows.shape[-1] - 2, -1, -1):
        acc = acc * u + rows[..., k]
    return acc


def _trim_rows(rows, w):
    """Zero, row by row, the trailing coefficients that cannot affect values on [-w, w].

    A trailing coefficient goes while its |a_k| w^k is below _TRIM_REL times
    the row's sum of them; an all-zero row keeps one. w is one halfwidth or
    one per row. Returns the kept lengths.
    """
    mag = np.abs(rows) * np.reshape(w, (-1, 1)) ** np.arange(rows.shape[1])
    scale = mag.sum(axis=1)
    small = mag < _TRIM_REL * scale[:, None]
    keep = rows.shape[1] - np.logical_and.accumulate(small[:, ::-1], axis=1).sum(axis=1)
    keep = np.where(scale == 0.0, 1, np.maximum(keep, 1))
    rows[np.arange(rows.shape[1]) >= keep[:, None]] = 0.0
    return keep


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
        coeffs = [np.atleast_1d(np.asarray(c, dtype=float)) for c in coeffs]
        table = np.zeros((len(coeffs), max(c.size for c in coeffs)))
        for i, c in enumerate(coeffs):
            table[i, : c.size] = c
        self._setup(breaks, table, coeffs)

    @classmethod
    def _from_table(cls, breaks, table, keep):
        """The law on the grid `breaks` whose cell i has coefficients table[i, :keep[i]], the rest of its row zero."""
        law = cls.__new__(cls)
        table = table[:, : keep.max()]
        law._setup(breaks, table, [row[:k] for row, k in zip(table, keep.tolist())])
        return law

    def _setup(self, breaks, table, coeffs):
        """Set the grid and the coefficient table `_C`, its rows zero past each cell's coefficients."""
        self.breaks = breaks
        self.coeffs = coeffs
        self.centers = 0.5 * (breaks[1:] + breaks[:-1])
        self.halfwidths = 0.5 * (breaks[1:] - breaks[:-1])
        self._C = table
        self._weights = {}  # Legendre weights of the charfn per order (`_charfn_weights`)

    # The antiderivative tables are built on first use: a law that only
    # feeds the next convolution never reads them.

    @functools.cached_property
    def _A(self):
        """Antiderivative rows, each from its cell's midpoint."""
        out = np.zeros((self._C.shape[0], self._C.shape[1] + 1))
        out[:, 1:] = self._C / np.arange(1, self._C.shape[1] + 1)
        return out

    @functools.cached_property
    def _ends(self):
        """The antiderivative at each cell's left edge (row 0) and right edge (row 1)."""
        return _horner(self._A, np.stack([-self.halfwidths, self.halfwidths]))

    @functools.cached_property
    def _cum(self):
        """Mass left of each cell, and the total last."""
        return np.concatenate([[0.0], np.cumsum(self._ends[1] - self._ends[0])])

    @functools.cached_property
    def _surv(self):
        """Mass from each cell on, and 0.0 last."""
        return np.concatenate([np.cumsum((self._ends[1] - self._ends[0])[::-1])[::-1], [0.0]])

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

    def _cell_density(self, idx, v):
        """Density at local coordinates v of cells idx."""
        return _horner(self._C[idx], v)

    def _cell_masses(self, idx, v):
        """CDF and survival mass at local coordinates v of cells idx, from one Horner pass.

        Each tail mass is built from the side it belongs to, the CDF from the
        masses left of the cell and the survival from those right of it, so
        neither loses digits to 1 - the other.
        """
        anti = _horner(self._A[idx], v)
        return self._cum[idx] + (anti - self._ends[0, idx]), self._surv[idx + 1] + (self._ends[1, idx] - anti)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = (x >= self.breaks[0]) & (x <= self.breaks[-1])
        out[inside] = self._eval(self._C, x[inside])[1]
        return out if out.ndim else float(out)

    def cdf(self, x):
        out = self._masses(np.asarray(x, dtype=float))[0]
        return out if out.ndim else float(out)

    def sf(self, x):
        """P(X > x) from the masses right of its cell: past the median, 1 - cdf(x) is rounding noise."""
        out = self._masses(np.asarray(x, dtype=float))[1]
        return out if out.ndim else float(out)

    def _masses(self, x):
        """CDF and survival mass at the points x, any shape, from one Horner pass (`_cell_masses`)."""
        mid = (x >= self.breaks[0]) & (x < self.breaks[-1])
        cdf = np.where(x >= self.breaks[-1], self._cum[-1], 0.0)
        sf = np.where(x < self.breaks[0], self._surv[0], 0.0)
        idx = np.searchsorted(self.breaks, x[mid], side="right") - 1
        cdf[mid], sf[mid] = self._cell_masses(idx, x[mid] - self.centers[idx])
        return cdf, sf

    def quantile(self, u):
        """Smallest x with cdf(x) >= u, for nonnegative densities.

        Newton steps in the cell i found from the cumulative masses solve
        P_i(v) = u - cum_i + P_i(-w_i); a step that leaves the bracket or
        fails to halve the step before last is replaced by bisection.
        """
        u = np.asarray(u, dtype=float)
        out = np.where(u <= 0.0, self.breaks[0], self.breaks[-1])
        live = (u > 0.0) & (u < self._cum[-1])
        i = np.searchsorted(self._cum, u[live], side="left") - 1
        w, center, rest = self.halfwidths[i], self.centers[i], u[live] - self._cum[i]
        rows, target = self._A[i], rest + self._ends[0, i]
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
        return out if out.ndim else float(out)

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
        """k-th derivative of the characteristic function, in closed form.

            psi^(k)(t) = int x^k (i)^k e^{itx} p(x) dx

        On the cell [c - w, c + w], x^k p(x) in the cell coordinate
        v = (x - c)/w is a Legendre series sum_l b_l P_l(v), and
        int_{-1}^{1} P_l(v) e^{iav} dv = 2 i^l j_l(a) (DLMF 18.17), so the
        cell adds i^k w e^{itc} sum_l 2 i^l b_l j_l(tw): O(T (degree + k))
        work at every t, with no subdivision and no truncation.

        A sequence of orders k gives one row per order, with the bits of one
        call per order: each cell makes one table of j_l(tw) for l up to its
        degree plus the top order, and reads the weights of each order from
        `_charfn_weights`.
        """
        orders = _charfn_orders(k)
        shape = np.shape(t)
        t = np.asarray(t, dtype=float).ravel()
        weights = [self._charfn_weights(j) for j in orders.tolist()]
        out = np.zeros((orders.size,) + t.shape, dtype=complex)
        for i, (c, w, p) in enumerate(zip(self.centers, self.halfwidths, self.coeffs)):
            bessel = spherical_jn(np.arange(p.size + int(orders.max()))[:, None], w * t)
            phase = np.exp(1j * t * c)
            for row, cells in zip(out, weights):
                row += phase * (cells[i] @ bessel[: cells[i].size])
        if np.ndim(k):
            return out.reshape(orders.shape + shape)
        return out[0].reshape(shape) if shape else complex(out[0, 0])

    def _charfn_weights(self, k):
        """Per cell, the weights 2 w i^(l+k) b_l of `charfn_deriv` at order k, built once per order."""
        if k not in self._weights:
            cells = self._weights[k] = []
            for c, w, p in zip(self.centers, self.halfwidths, self.coeffs):
                xk = [math.comb(k, j) * c ** (k - j) * w**j for j in range(k + 1)]  # (c + wv)^k
                b = legendre.poly2leg(np.convolve(xk, p * w ** np.arange(p.size)))
                l = np.arange(b.size)
                cells.append(2.0 * w * b * np.array([1, 1j, -1, -1j])[(l + k) % 4])
        return self._weights[k]

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
        """Exact distribution of the sum of independent draws.

        Cells of self with the same halfwidth form one block, so the pair
        convolution runs once per (block, cell of other) on whole coefficient
        tables. Each sub-piece row lands on every grid cell it covers,
        recentered there when the midpoints differ, and the rows are summed
        per cell in (self cell, other cell, regime) order.
        """
        parts, shift = [], _shift_matrices()
        for w in np.unique(self.halfwidths):
            cells = np.flatnonzero(self.halfwidths == w)
            for j, (q, h) in enumerate(zip(other._C, other.halfwidths)):
                c = self.centers[cells] + other.centers[j]
                pair = (cells * len(other.coeffs) + j) * 3
                for r, (s_lo, s_hi, table) in enumerate(_pair_convolve(self._C[cells], w, q, h, shift)):
                    parts.append((pair + r, c + s_lo, c + s_hi, table))
        key, lo, hi, rows = (np.concatenate(x) for x in zip(*parts))
        order = np.argsort(key)
        lo, hi, rows = lo[order], hi[order], rows[order]
        grid = _snap_unique(np.concatenate([lo, hi]))
        tol = 1e-9 * (float(np.max(np.abs(grid))) + 1.0)
        first = np.searchsorted(grid, lo + tol) - 1
        count = np.maximum(np.searchsorted(grid, hi - tol) - first, 0)
        src = np.repeat(np.arange(lo.size), count)
        cell = first[src] + np.arange(src.size) - np.repeat(np.cumsum(count) - count, count)
        delta = 0.5 * (grid[cell] + grid[cell + 1]) - 0.5 * (lo + hi)[src]
        placed = rows[src]
        moved = delta != 0.0
        if moved.any():
            placed[moved] = np.einsum("rk,rkj->rj", placed[moved], _shift_matrix(rows.shape[1], delta[moved]))
        out = np.zeros((grid.size - 1, rows.shape[1]))
        np.add.at(out, cell, placed)
        return PiecewisePolyDistribution._from_table(grid, out, _trim_rows(out, 0.5 * np.diff(grid)))


# -- pair convolution of local pieces ---------------------------------------


def _pair_convolve(p, w, q, h, shift):
    """Convolve density pieces P (rows of p, each on [-w,w]) with Q (on [-h,h]).

    Returns sub-pieces (s_lo, s_hi, table) of s -> int P(u) Q(s-u) du, where
    s is relative to the sum of the parent centers and table holds, row for
    row of p, the coefficients local to the sub-piece midpoint. Limits follow
    from overlap of the supports: u in [max(-w, s-h), min(w, s+h)]. The map
    from p is linear, so every row goes through the same matrices; `shift`
    builds their shift matrices (`_shift_matrices`, shared by the calls of
    one convolution).
    """
    dp, dq = p.shape[1] - 1, q.size - 1
    # bivariate coefficients of Q(s-u): axis 0 powers of u, axis 1 of s
    t, sp = np.indices((dq + 1, dq + 1))
    b = np.minimum(t + sp, dq)
    m = np.where(t + sp <= dq, q[b] * _binom_matrix(dq + 1)[b, t] * (-1.0) ** t, 0.0)
    # P(u) Q(s-u) per row: axis 1 powers of u, axis 2 of s
    full = np.zeros((p.shape[0], dp + dq + 1, dq + 1))
    for tpow in range(dq + 1):
        full[:, tpow : tpow + dp + 1, :] += p[:, :, None] * m[tpow]
    # antiderivative in u; its terms have total degree <= dp + dq + 1
    size = dp + dq + 2
    anti = np.zeros((p.shape[0], size, dq + 1))
    anti[:, 1:, :] = full / np.arange(1, size)[:, None]

    def substitute(alpha, beta):
        # u = alpha*s + beta in the antiderivative: (alpha s + beta)^ku = sum_j g[ku, j] s^j
        g = shift(size, beta) * alpha ** np.arange(size)
        acc = np.zeros((p.shape[0], size))
        for l in range(dq + 1):
            acc[:, l:] += (anti[:, :, l] @ g)[:, : size - l]
        return acc

    big, mid = w + h, abs(w - h)
    # rising overlap, full overlap of the narrower piece, falling overlap
    regimes = [(-big, -mid, (1.0, h), (0.0, -w))]
    if mid > 1e-14 * big:
        regimes.append((-mid, mid, (0.0, w), (0.0, -w)) if w <= h else (-mid, mid, (1.0, h), (1.0, -h)))
    regimes.append((mid, big, (0.0, w), (1.0, -h)))
    out = []
    for s_lo, s_hi, upper, lower in regimes:
        if s_hi - s_lo <= 1e-14 * big:
            continue
        local = (substitute(*upper) - substitute(*lower)) @ shift(size, 0.5 * (s_lo + s_hi))
        _trim_rows(local, 0.5 * (s_hi - s_lo))
        out.append((s_lo, s_hi, local))
    return out


def _snap_unique(points, rel=1e-9):
    points = np.sort(points).tolist()
    tol = rel * (max(-points[0], points[-1]) + 1.0)
    keep = [points[0]]
    for x in points[1:]:
        if x - keep[-1] > tol:
            keep.append(x)
    return np.array(keep)
