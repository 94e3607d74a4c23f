"""Exact finitely supported distributions on an arithmetic lattice."""

import numpy as np

__all__ = ["LatticeDistribution"]

_CHARFN_DERIV_CAP = 16


class LatticeDistribution:
    """Distribution supported on offset + k*step, k = 0..len(masses)-1.

    masses are probabilities; construction validates nonnegativity (within
    1e-15) and finiteness but not normalization, so partial mass vectors
    can be represented. `validate()` asserts the normalized case.
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

    # -- basic structure ----------------------------------------------------

    @property
    def support(self):
        return self.offset + self.step * np.arange(self.masses.size)

    @property
    def total_mass(self):
        return float(self._cum[-1])

    def validate(self):
        if abs(self.total_mass - 1.0) > 1e-12:
            raise ValueError("total mass %r not 1 within 1e-12" % self.total_mass)
        return self

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
        """k-th derivative of the characteristic function, exactly:

            psi^(k)(t) = sum_x p(x) (i x)^k exp(i t x)
        """
        if not 0 <= k <= _CHARFN_DERIV_CAP:
            raise ValueError("derivative order must be in [0, %d]" % _CHARFN_DERIV_CAP)
        t = np.asarray(t, dtype=float)
        x = self.support
        ph = np.exp(1j * np.multiply.outer(t, x))
        out = ph @ (self.masses * (1j * x) ** k)
        return out if out.ndim else complex(out)

    # -- algebra ------------------------------------------------------------

    def shift(self, c):
        return LatticeDistribution(self.offset + c, self.step, self.masses)

    def centered(self):
        return self.shift(-self.mean)

    def scale(self, c):
        """Distribution of c*X for c > 0."""
        if not c > 0:
            raise ValueError("scale factor must be positive")
        return LatticeDistribution(self.offset * c, self.step * c, self.masses)

    def convolve(self, other):
        """Distribution of the sum of independent draws (steps must match)."""
        if abs(self.step - other.step) > 1e-9 * max(self.step, other.step):
            raise ValueError(
                "incompatible lattice steps %g and %g" % (self.step, other.step)
            )
        return LatticeDistribution(
            self.offset + other.offset,
            self.step,
            np.convolve(self.masses, other.masses),
        )

    def csv_rows(self):
        """(value, mass) pairs for export, zero-mass cells skipped."""
        return [
            (float(v), float(m))
            for v, m in zip(self.support, self.masses)
            if m > 0.0
        ]
