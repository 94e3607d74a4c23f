"""Model wrappers and the builtin model registry.

A model bundles a family of partial-sum laws indexed by the number of
steps n, with caching, exact cumulants, and characteristic-function
derivatives. Two kinds exist: finite-state chains, whose laws come from
the lattice dynamic program and whose cumulants come from the
transfer-operator series, and iid sums of a piecewise-polynomial base
density evaluated by exact convolution.
"""

import functools
import math

import numpy as np

from ..cumulants import moments_to_cumulants
from ..edgeworth import _ORDER_MAX, build_expansion, check_corrections
from .lattice import _charfn_orders
from .markov import (
    MarkovChainSpec,
    _check_kmax,
    _cumulant_series,
    _series_mul,
    _series_power,
    _SeriesStore,
    _squarings,
    _variance_decomposition,
    exact_distribution,
)
from .piecewise import PiecewisePolyDistribution

__all__ = [
    "ChainModel",
    "IIDContinuousModel",
    "builtin_model",
    "builtin_model_names",
    "decaying_observable_chain",
]


class _CumulantModel:
    """sigma and expansions of S_n from the model's `cumulants(n, kmax)`.

    Only the law comes from the engine that builds it. An expansion is
    named by its corrections r; r = 0 is the standard normal. One build
    per n is kept, the one with the most corrections asked for so far, and
    each truncation of it is made once: corrections 1..r of any build have
    the same bits (kappa_k does not depend on the order asked for), so a
    scan gets the numbers a build at order r + 2 would give.
    """

    def expansion(self, n, r):
        """Corrections 1..r (`check_corrections` at m = 16) of the expansion of S_n/sigma_n (`build_expansion`)."""
        r = check_corrections(r, _ORDER_MAX)
        # the build of each n is kept under n, its truncations under (n, r)
        if (n, r) not in self._expansions:
            top = self._expansions.get(n)
            if top is None or top.corrections < r:
                top = self._expansions[n] = build_expansion(self, n, r + 2)
            self._expansions[n, r] = top if r == top.corrections else top.truncated(r)
        return self._expansions[n, r]

    def cumulant(self, n, k):
        return self.cumulants(n, k)[k - 1]

    def sigma2(self, n):
        return self.cumulant(n, 2)

    def sigma(self, n):
        return math.sqrt(self.sigma2(n))


class ChainModel(_CumulantModel):
    """Partial sums of observables along a finite-state chain.

    `builder(n)` must return a MarkovChainSpec with n steps; its
    observables are used as given, since both engines center S_n
    themselves. Results are cached per n. Cumulants and sigma come from
    `cumulant_series`, which builds no law: one series per n is kept, at
    the highest order asked for so far. The model's series engines
    (cumulants, blocking) share one `_SeriesStore`, so every n reads one
    step series per run and one set of its squares.
    """

    kind = "chain"
    is_lattice = True

    def __init__(self, name, builder, max_steps=None):
        self.name = name
        self._builder = builder
        self.max_steps = max_steps
        self._specs = {}
        self._dists = {}
        self._kappas = {}
        self._expansions = {}
        self._blockings = {}
        # keyed by ids of arrays the specs hold; it keeps them alive itself
        self._store = _SeriesStore()

    def spec(self, n):
        if n < 1 or (self.max_steps is not None and n > self.max_steps):
            hi = self.max_steps if self.max_steps is not None else "inf"
            raise ValueError("n=%r outside [1, %s] for model %s" % (n, hi, self.name))
        if n not in self._specs:
            spec = self._builder(n)
            if spec.n_steps != n:
                raise ValueError("builder for %s returned %d steps, wanted %d" % (self.name, spec.n_steps, n))
            self._specs[n] = spec
        return self._specs[n]

    def distribution(self, n):
        if n not in self._dists:
            self._dists[n] = exact_distribution(self.spec(n))
        return self._dists[n]

    def cumulants(self, n, kmax):
        kmax = _check_kmax(kmax)
        if len(self._kappas.get(n, ())) < kmax:
            self._kappas[n] = _cumulant_series(self.spec(n), kmax, self._store)
        return self._kappas[n][:kmax]

    def charfn_deriv(self, n, t, k=0):
        """Derivatives of the characteristic function of the n-step sum; a sequence k gives a row per order."""
        return self.distribution(n).charfn_deriv(t, k)

    def blocking(self, n, target=None):
        key = (n, target)
        if key not in self._blockings:
            self._blockings[key] = _variance_decomposition(self.spec(n), target, self._store)
        return self._blockings[key]


class IIDContinuousModel(_CumulantModel):
    """Sums of iid draws from a piecewise-polynomial density.

    The base is centered on construction; cumulants of the sum follow by
    additivity, distributions by exact convolution. Desk-scale engine:
    laws stop at max_steps; larger sums exceed the intended resource
    envelope and raise.
    """

    kind = "iid"
    is_lattice = False
    max_steps = 64

    def __init__(self, name, base):
        self.name = name
        mu = base.mean
        if abs(mu) > 0.0:
            base = base.shift(-mu)
        self.base = base
        self._dists = {1: base}
        self._expansions = {}
        self._base_moment_cache = {}

    def distribution(self, n):
        if not 1 <= n <= self.max_steps:
            raise ValueError("n=%r outside [1, %d] for model %s" % (n, self.max_steps, self.name))
        if n not in self._dists:
            have = max(m for m in self._dists if m <= n)
            acc = self._dists[have]
            for m in range(have + 1, n + 1):
                acc = acc.convolve(self.base)
                self._dists[m] = acc
        return self._dists[n]

    def base_moment(self, q):
        if q not in self._base_moment_cache:
            self._base_moment_cache[q] = self.base.moment(q)
        return self._base_moment_cache[q]

    def base_cumulants(self, kmax):
        return moments_to_cumulants([self.base_moment(q) for q in range(1, kmax + 1)])

    def cumulants(self, n, kmax):
        return [n * kap for kap in self.base_cumulants(_check_kmax(kmax))]

    def charfn_deriv(self, n, t, k=0):
        """k-th derivative of psi^n: the one-state case of the chain series.

        The Taylor series of psi about each t, truncated at h^k, is raised
        to the n by binary powering. No logarithms, so zeros of psi on the
        t grid are harmless. A sequence k gives one row per order from one
        power at the top order: coefficient j of a truncated product does
        not depend on the truncation.
        """
        orders, shape = _charfn_orders(k), np.shape(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        rows = self.base.charfn_deriv(t, range(int(orders.max()) + 1))
        base = np.stack([row / math.factorial(j) for j, row in enumerate(rows)])
        mul = functools.partial(_series_mul, op=np.multiply)
        power = _series_power(_squarings(base, lambda p: mul(p, p)), n, mul)
        out = np.stack([math.factorial(j) * power[j] for j in orders.tolist()])
        if np.ndim(k):
            return out.reshape(orders.shape + shape)
        return out[0].reshape(shape) if shape else complex(out[0].flat[0])


# -- builders ----------------------------------------------------------------


def decaying_observable_chain(name, kernel, amplitudes):
    """Chain with observables a_j * s(X_{j+1}), s = +1 on state 0, -1 elsewhere.

    `amplitudes(j)` gives the step-j amplitude (steps numbered from 1).
    The chain starts uniform. The sign pattern keeps every partial sum on
    a lattice whenever the amplitudes do.
    """
    kernel = np.asarray(kernel, dtype=float)
    nstates = kernel.shape[0]
    signs = -np.ones(nstates)
    signs[0] = 1.0
    initial = np.full(nstates, 1.0 / nstates)

    shared = {}  # one observable array per amplitude, not one per step

    def make(n):
        observables = []
        for j in range(1, n + 1):
            a = amplitudes(j)
            if a not in shared:
                shared[a] = np.tile(a * signs, (nstates, 1))
            observables.append(shared[a])
        return MarkovChainSpec(initial, (kernel,) * n, tuple(observables), name=name)

    return ChainModel(name, make)


def _staircase_amplitude(beta):
    """Power-of-two staircase tracking j^(-beta) within a factor of 2.

    Dyadic amplitudes keep every partial sum on an exact lattice the
    dynamic program can enumerate; a genuine power law would force an
    astronomically fine common lattice.
    """

    def amp(j):
        return 2.0 ** (-math.floor(beta * math.log2(j))) if j > 1 else 1.0

    return amp


def _rademacher_model():
    kernel = np.array([[0.5, 0.5], [0.5, 0.5]])
    values = np.array([[1.0, -1.0], [1.0, -1.0]])
    initial = np.array([0.5, 0.5])

    def make(n):
        return MarkovChainSpec.homogeneous(initial, kernel, values, n, name="rademacher")

    return ChainModel("rademacher", make)


def _elliptic2_model():
    # stationary for this kernel: (0.6, 0.4); observable reads the target
    # state indicator, centered to mean zero
    kernel = np.array([[0.8, 0.2], [0.3, 0.7]])
    initial = np.array([0.6, 0.4])
    values = np.array([[-0.4, 0.6], [-0.4, 0.6]])

    def make(n):
        return MarkovChainSpec.homogeneous(initial, kernel, values, n, name="elliptic2")

    return ChainModel("elliptic2", make)


def _symmetric2_model():
    kernel = np.array([[0.65, 0.35], [0.35, 0.65]])
    return decaying_observable_chain("symmetric2", kernel, _staircase_amplitude(0.5))


def _flip2_model():
    # period-2 kernels: genuinely inhomogeneous, so single-geometry
    # stationary fits must be rejected
    k_a = np.array([[0.9, 0.1], [0.2, 0.8]])
    k_b = np.array([[0.3, 0.7], [0.6, 0.4]])
    values = np.array([[1.0, -1.0], [1.0, -1.0]])
    initial = np.array([0.5, 0.5])

    def make(n):
        kernels = tuple(k_a if j % 2 == 0 else k_b for j in range(n))
        return MarkovChainSpec(initial, kernels, (values,) * n, name="flip2")

    return ChainModel("flip2", make)


def _uniform_model():
    return IIDContinuousModel("uniform", PiecewisePolyDistribution.uniform(-1.0, 1.0))


_BUILTINS = {
    "rademacher": _rademacher_model,
    "uniform": _uniform_model,
    "elliptic2": _elliptic2_model,
    "symmetric2": _symmetric2_model,
    "flip2": _flip2_model,
}


def builtin_model_names():
    return sorted(_BUILTINS) + ["decay:<beta>"]


def builtin_model(token):
    """Look up a builtin model by name; fresh instance each call."""
    if token in _BUILTINS:
        return _BUILTINS[token]()
    if token.startswith("decay:"):
        try:
            beta = float(token.split(":", 1)[1])
        except ValueError:
            raise ValueError("malformed decay model token %r" % token) from None
        if not 0.0 <= beta < 0.5:
            raise ValueError("decay exponent must satisfy 0 <= beta < 1/2, got %r" % beta)
        kernel = np.array([[0.65, 0.35], [0.35, 0.65]])
        return decaying_observable_chain("decay:%g" % beta, kernel, _staircase_amplitude(beta))
    raise ValueError("unknown model %r; builtins: %s" % (token, ", ".join(builtin_model_names())))
