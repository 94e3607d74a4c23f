"""Exact finitely supported distributions on an arithmetic lattice."""

import math

import numpy as np

from ..cumulants import whole_numbers

__all__ = ["LatticeDistribution"]

_CHARFN_DERIV_CAP = 16


def _charfn_orders(k):
    """Orders k (one, or a 1-d sequence) as a 1-d int array; each must be whole and in [0, _CHARFN_DERIV_CAP]."""
    orders = np.array(whole_numbers(np.ravel(k).tolist(), "derivative order k"), dtype=int)
    if np.ndim(k) > 1 or not orders.size or not 0 <= orders.min() <= orders.max() <= _CHARFN_DERIV_CAP:
        raise ValueError("derivative order must be in [0, %d]" % _CHARFN_DERIV_CAP)
    return orders


class LatticeDistribution:
    """Distribution supported on offset + k*step, k = 0..len(masses)-1.

    masses are probabilities; construction validates nonnegativity (within
    1e-15) and finiteness but not normalization, so partial mass vectors
    can be represented.
    """

    def __init__(self, offset, step, masses):
        masses = np.asarray(masses, dtype=float)
        if masses.ndim != 1 or masses.size == 0:
            raise ValueError("masses must be a nonempty 1-d array")
        if not np.all(np.isfinite(masses)):
            raise ValueError("masses must be finite")
        if masses.min() < -1e-15:
            raise ValueError("negative mass %g" % masses.min())
        if not (step > 0.0) or not np.isfinite(step):
            raise ValueError("step must be positive and finite")
        self.offset = float(offset)
        self.step = float(step)
        self.masses = np.clip(masses, 0.0, None)
        self.masses.flags.writeable = False
        self._cum = np.concatenate([[0.0], np.cumsum(self.masses)])
        self._tail = np.append(np.cumsum(self.masses[::-1])[::-1], 0.0)  # suffix sums

    # -- basic structure ----------------------------------------------------

    @property
    def support(self):
        return self.offset + self.step * np.arange(self.masses.size)

    @property
    def total_mass(self):
        return float(self._cum[-1])

    # -- moments ------------------------------------------------------------

    def moment(self, q):
        """Raw moment E[X^q], exact up to float summation."""
        return float(np.sum(self.masses * self.support**q))

    def abs_moment(self, q):
        return float(np.sum(self.masses * np.abs(self.support) ** q))

    @property
    def mean(self):
        return self.moment(1)

    @property
    def variance(self):
        mu = self.mean
        return float(np.sum(self.masses * (self.support - mu) ** 2))

    # -- distribution functions ---------------------------------------------

    def cdf(self, x):
        """P(X <= x), right-continuous."""
        idx = np.searchsorted(self.support, np.asarray(x, dtype=float), side="right")
        out = self._cum[idx]
        return out if out.ndim else float(out)

    def cdf_left(self, x):
        """P(X < x), the left limit of the CDF."""
        idx = np.searchsorted(self.support, np.asarray(x, dtype=float), side="left")
        out = self._cum[idx]
        return out if out.ndim else float(out)

    def sf(self, x):
        """P(X > x) from the suffix sums: past the median, 1 - cdf(x) is rounding noise."""
        idx = np.searchsorted(self.support, np.asarray(x, dtype=float), side="right")
        out = self._tail[idx]
        return out if out.ndim else float(out)

    def quantile(self, u):
        """Left-continuous generalized inverse inf{x : F(x) >= u}."""
        u = np.asarray(u, dtype=float)
        cum = self._cum[1:]
        idx = np.searchsorted(cum, np.minimum(u, cum[-1]), side="left")
        idx = np.minimum(idx, self.masses.size - 1)
        out = self.support[idx]
        return out if out.ndim else float(out)

    # -- transforms ---------------------------------------------------------

    def charfn_deriv(self, t, k=0):
        """k-th derivative of the characteristic function,

            psi^(k)(t) = sum_j w_j exp(i t x_j),   w_j = p(x_j) (i x_j)^k,

        at a scalar t or on an equispaced 1-d grid t_m = t_0 + m dt, m < T.
        A sequence of orders k gives one row per order, all from one chirp,
        one kernel transform and one FFT pair along the rows, with the bits
        of one call per order.

        Bluestein's chirp-z transform: index the support from the cell J
        nearest 0, x_j = x_J + h (j - J), and write theta = h dt. Then
        m (j - J) = (m^2 + (j-J)^2 - (m-j+J)^2)/2 turns the sum into one
        linear convolution of chirps c_l = exp(i theta l^2/2),

            psi^(k)(t_m) = exp(i t_m x_J) c_m
                           sum_j [w_j exp(i t_0 h (j-J)) c_{j-J}] conj(c_{m-j+J}),

        done by FFT in O(L log L) time and O(L) memory, L the next power
        of two >= N + T - 1 for N support cells.

        Rounding, per grid point, u the unit roundoff (argued bound; the
        tests check it against the direct sum and exact references):
          - the three length-L FFTs of the convolution contribute about
            u log2(L) sum|w| per entry (each transform's normwise bound,
            Higham, Accuracy and Stability of Numerical Algorithms, 2nd
            ed., Thm 24.2, with every output bounded by sum|w|);
          - each term's phase is off by a few u |t| |x_j - x_J|, the
            conditioning of t x_j itself: the chirp phases are reduced
            exactly (`_chirp`), x_J sits within h/2 of 0, and the grid
            t_0 + m theta/h the transform evaluates departs from the
            given t_m by the rounding of linspace, dt and theta, about
            5 u |t_m|.
        The direct sum's own rounding (t x_j, and x_j itself) is of the
        same form, so both routes agree to
        8 u log2(L) sum|w| + 16 u max|t| sum|w_j|(|x_j| + h).
        """
        orders = _charfn_orders(k)
        t = np.asarray(t, dtype=float)
        grid = _equispaced(t)
        if not grid.size:
            return np.zeros((orders.shape if np.ndim(k) else ()) + t.shape, dtype=complex)
        size = self.masses.size
        npts = grid.size
        h = self.step
        jc = int(min(max(round(-self.offset / h), 0), size - 1))
        rel = np.arange(size) - jc
        theta = (grid[-1] - grid[0]) / (npts - 1) * h if npts > 1 else 0.0
        chirp = _chirp(theta, max(jc + 1, size - jc, npts + jc))
        fft_len = 1 << (size + npts - 2).bit_length()
        # the FFTs run along the rows; every elementwise product is taken
        # row by row, as a lone order takes it: numpy's complex multiply
        # rounds differently when it broadcasts a row down a column
        phase, head = np.exp(1j * (grid[0] * h) * rel), chirp[np.abs(rel)]
        y = np.stack([self.masses * (1j * self.support) ** j * phase * head for j in orders.tolist()])
        kernel = np.fft.fft(np.conj(chirp[np.abs(np.arange(size + npts - 1) - (size - 1 - jc))]), fft_len)
        conv = np.fft.ifft(np.stack([row * kernel for row in np.fft.fft(y, fft_len)]))
        out = np.stack([row[size - 1 : size - 1 + npts] * chirp[:npts] for row in conv])
        tail = np.exp(1j * grid * (self.offset + h * jc))
        for row in out:
            row *= tail
        if np.ndim(k):
            return out.reshape(orders.shape + t.shape)
        return out[0].reshape(t.shape) if t.ndim else complex(out[0, 0])

    # -- algebra ------------------------------------------------------------

    def scale(self, c):
        """Distribution of c*X for c > 0."""
        if not c > 0:
            raise ValueError("scale factor must be positive")
        return LatticeDistribution(self.offset * c, self.step * c, self.masses)

    def csv_rows(self):
        """(value, mass) pairs for export, zero-mass cells skipped."""
        live = self.masses > 0.0
        return list(zip(self.support[live].tolist(), self.masses[live].tolist()))


def _equispaced(t):
    """t as a 1-d grid, refused unless it is a scalar or equispaced (an empty grid passes).

    A grid passes when it lies within 16 u (|t_0| + |t_last|) of the line
    through its end points: `linspace`, and a linspace divided by a
    scale, stay within a few u of it.
    """
    if t.ndim > 1:
        raise ValueError("t must be a scalar or a 1-d grid, got shape %r" % (t.shape,))
    grid = np.atleast_1d(t)
    if not np.all(np.isfinite(grid)):
        raise ValueError("t must be a finite grid")
    if grid.size > 2:
        line = np.linspace(grid[0], grid[-1], grid.size)
        tol = 8.0 * np.finfo(float).eps * (abs(grid[0]) + abs(grid[-1]))
        if np.max(np.abs(grid - line)) > tol:
            raise ValueError("t must be an equispaced grid (linspace); got uneven spacing")
    return grid


def _chirp(theta, size):
    """exp(i theta l^2 / 2) for l = 0..size-1 with exact argument reduction.

    l^2 is an exact integer below 2^b. theta splits into a head with
    53 - b significant bits, whose product with l^2/2 is exact, and a
    tail below 2^(b-53) |theta|; libm reduces the exact head phase, so
    each value carries a few u of error however large theta l^2 grows,
    where the naive theta * l**2 / 2 is off by u theta l^2 / 2.
    """
    sq = np.arange(size, dtype=float) ** 2
    keep = 53 - ((size - 1) ** 2).bit_length()
    mant, ex = math.frexp(theta)
    head = math.ldexp(round(math.ldexp(mant, keep)), ex - keep)
    return np.exp(1j * ((0.5 * head) * sq)) * np.exp(1j * ((0.5 * (theta - head)) * sq))
