"""Finite-state inhomogeneous Markov chains with additive functionals.

The central object is the centered functional

    S_n = sum_j (f_j(X_j, X_{j+1}) - E f_j(X_j, X_{j+1})).

Two engines serve it. Its exact law comes from dynamic programming over
(state, lattice cell); the only approximation there is the snap of
observable values to a common arithmetic lattice, validated to 1e-9.
Its cumulants and variance profiles come from the perturbed transfer
operator as truncated power series, with no lattice and no table.
Everything is deterministic.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..cumulants import moments_to_cumulants
from .lattice import LatticeDistribution

__all__ = [
    "MarkovChainSpec",
    "EllipticityReport",
    "BlockingReport",
    "exact_distribution",
    "cumulant_series",
    "ellipticity_check",
    "psi_mixing_coefficient",
    "variance_profile",
    "variance_decomposition",
    "load_chain_spec",
    "save_chain_spec",
]

_ROW_TOL = 1e-12
_SNAP_DENOM = 10**6
_SNAP_TOL = 1e-9
# Largest DP table, in (state, cell) entries, a sweep may allocate, with the
# largest power of a powered run counted beside it. A step holds the old
# table and the new one; its other temporaries are one row or one product
# chunk. Two float64 tables of 2**24 cells take 256 MiB.
_CELL_BUDGET = 2**24
# OpenBLAS runs a product of at most 2**18 multiply-adds on the calling thread
_BLAS_SERIAL = 2**18
# and a dot product of at most 10**4 terms (`_convolve_into`)
_DOT_BLOCK = 2048
# Route costs in seconds, measured on a 2-core AVX2 Xeon VM: one call of a
# numpy operation from Python, one multiply-add inside a BLAS product or,
# with the underflow of far-tail products, inside a dot product, one output
# of np.convolve, and one row element added in place on a table wider than
# the L1 cache.
_CALL = 2e-6
_GEMM_MAD = 0.05e-9
_DOT_MAD = 0.3e-9
_CONV_OUT = 8e-9
_ROW_ADD = 1.5e-9


@dataclass(frozen=True)
class MarkovChainSpec:
    """Time-inhomogeneous chain on finite state spaces with observables.

    kernels[j] maps states at time j to states at time j+1 and must be
    row-stochastic; observables[j] has the same shape and holds the
    per-transition values f_j(x, y). Homogeneous chains are built by
    repeating one kernel/observable reference, so memory stays flat.
    """

    initial: np.ndarray
    kernels: tuple
    observables: tuple
    name: str = ""

    def __init__(self, initial, kernels, observables, name=""):
        initial = np.asarray(initial, dtype=float)
        kernels = tuple(np.asarray(k, dtype=float) for k in kernels)
        observables = tuple(np.asarray(f, dtype=float) for f in observables)
        if len(kernels) == 0:
            raise ValueError("need at least one step")
        if len(kernels) != len(observables):
            raise ValueError(
                "%d kernels but %d observables" % (len(kernels), len(observables))
            )
        if initial.ndim != 1:
            raise ValueError("initial law must be a vector")
        if abs(initial.sum() - 1.0) > _ROW_TOL or initial.min() < -1e-15:
            raise ValueError("initial law must be a probability vector")
        size = initial.size
        checked = set()  # homogeneous chains repeat one kernel: check each once
        for j, (k, f) in enumerate(zip(kernels, observables)):
            if k.ndim != 2 or k.shape[0] != size:
                raise ValueError("kernel %d has shape %r, expected %d rows" % (j, k.shape, size))
            if f.shape != k.shape:
                raise ValueError("observable %d shape %r != kernel shape %r" % (j, f.shape, k.shape))
            if id(k) not in checked:
                checked.add(id(k))
                rows = k.sum(axis=1)
                if np.max(np.abs(rows - 1.0)) > _ROW_TOL or k.min() < -1e-15:
                    raise ValueError("kernel %d is not row-stochastic within 1e-12" % j)
            size = k.shape[1]
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "observables", observables)
        object.__setattr__(self, "name", name)

    @property
    def n_steps(self):
        return len(self.kernels)

    @property
    def state_counts(self):
        return [self.initial.size] + [k.shape[1] for k in self.kernels]

    @classmethod
    def homogeneous(cls, initial, kernel, observable, n, name=""):
        kernel = np.asarray(kernel, dtype=float)
        observable = np.asarray(observable, dtype=float)
        return cls(initial, (kernel,) * n, (observable,) * n, name=name)

    def prefix(self, n):
        """The chain restricted to its first n steps."""
        if not 1 <= n <= self.n_steps:
            raise ValueError("prefix length %r outside [1, %d]" % (n, self.n_steps))
        return MarkovChainSpec(
            self.initial, self.kernels[:n], self.observables[:n], name=self.name
        )

    def marginals(self):
        """Law of X_j for j = 0..n."""
        out = [self.initial]
        nu = self.initial
        for k in self.kernels:
            nu = nu @ k
            out.append(nu)
        return out

    def step_means(self):
        """E f_j(X_j, X_{j+1}) for each step, exactly."""
        return _step_means(self, self.observables)[0]


def _step_means(spec, *sequences):
    """E g_j(X_j, X_{j+1}) per step, one array for each sequence g of per-step arrays.

    The marginals are walked run by run, a run being equal consecutive
    steps (one kernel and one array of each sequence): within it the laws
    nu K^i, i < r, come by doubling (`_run_laws`), and (K o g) 1 is formed
    once per run and array.
    """
    out = [[] for _ in sequences]
    law = spec.initial
    steps = zip(spec.kernels, *sequences)
    for _, run in itertools.groupby(steps, key=lambda step: tuple(map(id, step))):
        kernel, *arrays = next(run)
        laws = _run_laws(law, kernel, 1 + sum(1 for _ in run))
        for acc, g in zip(out, arrays):
            acc.append(laws @ (kernel * g).sum(axis=1))
        law = laws[-1] @ kernel
    return [np.concatenate(acc) for acc in out]


def _run_laws(law, kernel, count):
    """law K^i for i = 0..count - 1, one per row, in O(log count) products.

    Each doubling appends the rows so far times K^m, m the row count.
    Squaring doubles the rounding error of a power's row sums at every
    level (elliptic2's nu K^(2^15) gained 1.1e-12 of mass), so each power's
    rows are rescaled to sum to 1. That moves K^m by at most m delta
    relative, delta the kernel's row-sum defect, and leaves row i within
    i S u of the exact law plus that much, as stepping one kernel at a
    time would (S states, u the unit roundoff).
    """
    laws, power = law[None, :], kernel
    while laws.shape[0] < count:
        laws = np.concatenate([laws, laws[: count - laws.shape[0]] @ power])
        power = power @ power
        power /= power.sum(axis=1, keepdims=True)
    return laws


# -- lattice snap ------------------------------------------------------------


def _common_lattice(observables):
    """Common step d and per-step integer shifts for all observable values.

    Values within each step are taken relative to that step's minimum, so
    only differences need to be commensurable. Returns (d, diffs,
    shift_arrays, snaps): diffs[j] is f_j - min f_j, and snaps[j] is
    max |diffs[j] - k d| of step j. Each distinct observable array is
    snapped once, steps that repeat an array share its diff array, and
    steps whose shifts agree share one shift array, so a sweep can key
    per-step work on their identity.
    """
    # homogeneous chains repeat one array per step: visit each array once
    distinct = {id(f): f for f in observables}
    diffs = {key: f - float(f.min()) for key, f in distinct.items()}
    flat = np.concatenate([darr.ravel() for darr in diffs.values()])
    nonzero = flat[np.abs(flat) > _SNAP_TOL]
    step = Fraction(0)
    for v in np.unique(nonzero):
        fr = Fraction(float(v)).limit_denominator(_SNAP_DENOM)
        if abs(float(fr) - float(v)) > _SNAP_TOL:
            raise ValueError(
                "observable difference %r does not lie on a rational lattice "
                "(denominator cap %d, tolerance %g)" % (float(v), _SNAP_DENOM, _SNAP_TOL)
            )
        step = fr if step == 0 else Fraction(
            math.gcd(step.numerator * fr.denominator, fr.numerator * step.denominator),
            step.denominator * fr.denominator,
        )
    d = float(step)
    shared = {}
    snapped = {}
    snap = {}
    for key, darr in diffs.items():
        k = np.rint(darr / d) if d else np.zeros(darr.shape)
        snap[key] = float(np.max(np.abs(darr - k * d)))
        if snap[key] > _SNAP_TOL:
            raise ValueError("observable values fail the lattice snap at step %g" % d)
        k = k.astype(np.int64)
        snapped[key] = shared.setdefault((k.shape, k.tobytes()), k)
    keys = [id(f) for f in observables]
    return d, [diffs[k] for k in keys], [snapped[k] for k in keys], [snap[k] for k in keys]


# -- exact engines -----------------------------------------------------------


def exact_distribution(spec):
    """Exact law of the centered functional S_n as a LatticeDistribution.

    DP over (state, lattice cell) of the lattice parts f_j - min f_j; no
    cell is dropped. The sweep goes over runs of equal steps: a run is
    either raised to its length at once by binary powering (`_Power`) or
    stepped through (`_Moves`), whichever `_sweep_plan` prices lower.
    Cell 0 sits at -sum_j E[f_j - min f_j], one math.fsum of the per-step
    means, so S_n is centered once, here, and the law never carries the
    raw size of the observables.

    Masses carry the relative error bounded in `_mean_tolerance` only
    while they stay in the normal float range. Masses below about
    2.2e-308 carry no relative accuracy in either route: stepping rounds
    them toward the smallest subnormal 5e-324, which sticks (0.8 * 2**-1074
    rounds back up) even where the exact mass is far smaller, while
    powering underflows them to 0, so the two routes end the support at
    different cells. The result must have mean 0 within the float error
    of the sweep (see `_mean_tolerance`) plus the snap error of every
    step, which moves each value and so the mean by at most that much;
    otherwise the centering is wrong and the run aborts.
    """
    d, diffs, runs, snaps = _sweep_plan(spec)
    if d == 0.0:
        # degenerate: every f_j is constant, so S_n is a.s. 0
        return LatticeDistribution(0.0, 1.0, [1.0])
    table = spec.initial[:, None].copy()
    for step, count in runs:
        for _ in range(count):
            table = step.apply(table)
    means, lattice_means = _step_means(spec, spec.observables, diffs)
    origin = -math.fsum(lattice_means.tolist())  # value of cell 0
    masses = table.sum(axis=0)
    nz = np.nonzero(masses)[0]
    lo, hi_nz = int(nz[0]), int(nz[-1])
    dist = LatticeDistribution(origin + d * lo, d, masses[lo : hi_nz + 1])
    sweep = sum(count * step.error for step, count in runs)
    tol = _mean_tolerance(spec, means, dist.masses.size, sweep) + sum(snaps)
    if abs(dist.mean) > tol:
        raise ValueError("centered functional has mean %g, expected 0 within %g" % (dist.mean, tol))
    return dist


def _sweep_plan(spec):
    """Lattice step, per-step lattice parts, runs and snap errors of one DP sweep.

    The steps split into runs of equal (kernel, shift array) pairs, and
    each run becomes one (step, count) pair of the plan: a `_Power` that
    raises the table through the whole run (count 1), or a `_Moves`
    applied count times, whichever costs less for the run's shape and the
    table width it starts from. A move list is built once per distinct
    (kernel, shift array) pair and a power once per pair and run length:
    homogeneous chains build one of each. The ids used as keys are safe
    only while the spec and its shift arrays are alive, so the cache dies
    with this call. The chain is refused before any table exists if its
    table, with the largest powered polynomial beside it, could outgrow
    _CELL_BUDGET: the table of any run of steps is at most max(states) *
    (1 + sum of the steps' widest shifts), and the powers of a run of r
    steps hold at most S_in * S_out * (r w / g + 1) cells each.
    """
    d, diffs, shifts, snaps = _common_lattice(spec.observables)
    moves, powers, runs = {}, {}, []
    columns, polys = 1, 0
    steps = zip(spec.kernels, shifts)
    for _, run in itertools.groupby(steps, key=lambda step: (id(step[0]), id(step[1]))):
        kernel, shift = next(run)
        count = 1 + sum(1 for _ in run)
        key = (id(kernel), id(shift))
        if key not in moves:
            moves[key] = _Moves(kernel, shift)
        if key + (count,) not in powers:
            powers[key + (count,)] = _Power(kernel, shift, count)
        power = powers[key + (count,)]
        if power.cost(columns) < moves[key].cost(count, columns):
            runs.append((power, 1))
            polys = max(polys, power.cells)
        else:
            runs.append((moves[key], count))
        columns += count * moves[key].width
    cells = max(spec.state_counts) * columns + polys
    if cells > _CELL_BUDGET:
        raise ValueError(
            "lattice step %g needs up to %d DP cells, above the budget of %d; "
            "only the law needs the table: cumulants, expand and scan-stationary "
            "need none" % (d, cells, _CELL_BUDGET)
        )
    return d, diffs, runs, snaps


def _mean_tolerance(spec, means, cells, sweep):
    """First-order forward error bound on the computed mean of S_n.

    n steps, S states, K support cells, u = eps/2 the unit roundoff, the
    step means E f_j in `means`, F = sum_j max|f_j - E f_j|, delta the
    largest row-sum defect of the initial law and the kernels (at most
    1e-12 by validation), and `sweep` the relative error the sweep's runs
    add to every mass (`_Moves.error` per step, `_Power.error` per run).
    The masses carry relative error <= sweep + S u + (n+1) delta after the
    sum over states. The lattice parts f_j - min f_j lie in
    [0, 2 max|f_j - E f_j|], so their means, their partial sums and the
    cell values d c stay within 2F. Each mean comes from a marginal with
    relative error <= n S u (`_run_laws`) and two S-term sums, so the
    fsum origin is off by <= ((n + 2) S + 1) u 2F + 2 n delta F, and a
    support value by 3 u F more. The K-term mean sum adds <= (K+1) u F.
    With |value| <= F the total is below
    4 (sweep + (n S / 2 + n) eps + (n+1) delta + (K+S+2) eps) F, which for
    a sweep of `_Moves` alone is the 4 (n (S+1) eps + ...) F of stepping.
    """
    n, states = spec.n_steps, max(spec.state_counts)
    # rounding is monotone, so max|f - mu| in float is the larger end
    ends = {key: (float(f.min()), float(f.max()))
            for key, f in {id(f): f for f in spec.observables}.items()}
    scale = sum(max(ends[id(f)][1] - mu, mu - ends[id(f)][0])
                for f, mu in zip(spec.observables, means.tolist()))
    kernels = {id(k): k for k in spec.kernels}.values()
    defect = max([abs(float(spec.initial.sum()) - 1.0)]
                 + [float(np.max(np.abs(k.sum(axis=1) - 1.0))) for k in kernels])
    eps = np.finfo(float).eps
    return 4.0 * (sweep + (n * states / 2 + n) * eps + (n + 1) * defect
                  + (cells + states + 2) * eps) * scale


class _Power:
    """A run of `length` equal steps at once: the table times P(z)^length.

    Row x of the table is the polynomial sum_c table[x, c] z^c, and one
    step multiplies the row vector by the matrix polynomial
    P(z) = K o z^D of the kernel K and the integer shifts D. With g the
    gcd of the live shifts, P(z) = Q(z^g), so each stride phase of the
    table (the cells c = phi mod g) is a row vector of its own, multiplied
    by Q(z)^length, whose degree is only length w / g for w the widest
    live shift. Q is raised by binary powering: v <- v Q^(2^k) for each
    set bit k of the length, squaring in between. Every polynomial product
    is a direct convolution of nonnegative coefficients (`_poly_matmul`),
    so no cancellation happens and the masses keep a relative error bound:

    a product of polynomials with relative errors e_a and e_b, each output
    coefficient one summation tree over at most S (L + 1) nonnegative
    products for L the lower degree, errs by <= e_a + e_b + S (L + 1) u.
    Squaring from Q^m to Q^(2m) so gives e_2m <= 2 e_m + S (m w/g + 1) u,
    e_(2^b) <= S u (b 2^(b-1) w/g + 2^b - 1), and applying Q^(2^b) to the
    table adds e_(2^b) + S (2^b w/g + 1) u = S u 2^b ((b/2 + 1) w/g + 1).
    Over the set bits of r this is at most
    S r ((B/2 + 1) w/g + 1) u, B = floor(log2 r): `error`.
    """

    def __init__(self, kernel, shifts, length):
        self.kernel = kernel
        live = kernel != 0.0
        self.stride = max(1, int(np.gcd.reduce(shifts[live])))
        self.exponents = np.where(live, shifts // self.stride, 0)
        self.reduced = int(self.exponents.max())
        self.length = length
        self.width = self.stride * self.reduced
        bits = length.bit_length() - 1
        self.error = (max(kernel.shape) * length * ((bits / 2 + 1) * self.reduced + 1)
                      * np.finfo(float).eps / 2)
        self.cells = kernel.size * (length * self.reduced + 1)  # bounds every power of Q

    def cost(self, columns):
        """Estimated seconds to apply the run to a table `columns` wide."""
        n_in, n_out = self.kernel.shape
        phase = -(-columns // self.stride)
        size, length, total = self.reduced + 1, self.length, 0.0
        while True:
            if length & 1:
                total += self.stride * n_in * n_out * _convolve_cost(phase, size)
                phase += size - 1
            length >>= 1
            if not length:
                return total
            total += n_in * n_out * n_out * _convolve_cost(size, size)
            size = 2 * size - 1

    def apply(self, table):
        n_in, hi = table.shape
        g = self.stride
        # v[phi, x] is row x of stride phase phi
        if g == 1:
            v = table[None]
        else:
            padded = np.zeros((n_in, -(-hi // g) * g))
            padded[:, :hi] = table
            v = np.ascontiguousarray(padded.reshape(n_in, -1, g).transpose(2, 0, 1))
        # Q(z), built here: the plan prices and budgets a run before any table exists
        power = np.zeros(self.kernel.shape + (self.reduced + 1,))
        xs, ys = np.nonzero(self.kernel)
        power[xs, ys, self.exponents[xs, ys]] = self.kernel[xs, ys]
        length = self.length
        while True:
            if length & 1:
                v = _poly_matmul(v, power)
            length >>= 1
            if not length:
                break
            power = _poly_matmul(power, power)
        out = v.transpose(1, 2, 0).reshape(v.shape[1], -1)
        return out[:, : hi + self.length * self.width]


def _poly_matmul(a, b):
    """Product of matrices of polynomials, a[x, k] and b[k, y] coefficient arrays.

    out[x, y] = sum_k a[x, k] * b[k, y], each product by `_convolve_into`
    and the sum in increasing k. Each polynomial is cut to its span of
    nonzero coefficients first: far tails underflow to exact zeros, which
    would otherwise be multiplied through every later product.
    """
    out = np.zeros((a.shape[0], b.shape[1], a.shape[2] + b.shape[2] - 1))
    (lo_a, hi_a), (lo_b, hi_b) = _spans(a), _spans(b)
    for x, row in enumerate(a):
        for k, p in enumerate(row):
            i, j = lo_a[x][k], hi_a[x][k]
            if j:
                for y, (lo, hi) in enumerate(zip(lo_b[k], hi_b[k])):
                    if hi:
                        _convolve_into(out[x, y, i + lo :], p[i:j], b[k, y, lo:hi])
    return out


def _spans(p):
    """First and one-past-last index of the nonzero coefficients of each p[x, y], as lists.

    An all-zero polynomial gets the span (0, 0).
    """
    live = p != 0.0
    lo = live.argmax(axis=2)
    hi = np.where(live.any(axis=2), p.shape[2] - live[:, :, ::-1].argmax(axis=2), 0)
    return lo.tolist(), hi.tolist()


def _convolve_into(out, a, b):
    """Add the coefficients of the polynomial product a * b to out[: a.size + b.size - 1].

    The shorter factor is cut into pieces of at most _DOT_BLOCK
    coefficients, so np.convolve forms every output from BLAS dot
    products of at most that many terms: OpenBLAS hands longer dot
    products to worker threads, which changes the bits with the thread
    count. Pieces of 2048 coefficients also keep both operands of a dot
    product in L1; on a 2-core AVX2 VM they ran at 0.13 ns per
    multiply-add against 0.22 ns uncut.
    """
    if a.size < b.size:
        a, b = b, a
    for i in range(0, b.size, _DOT_BLOCK):
        piece = b[i : i + _DOT_BLOCK]
        out[i : i + a.size + piece.size - 1] += np.convolve(a, piece)


def _convolve_cost(m, n):
    """Estimated seconds of `_convolve_into` on factors of m and n coefficients."""
    return 2 * _CALL + (m + n) * _CONV_OUT + m * n * _DOT_MAD


class _Moves:
    """One DP step, new[y, c] = sum_x K[x, y] table[x, c - s(x, y)], grouped by shift.

    The nonzero pairs with shift s form a matrix M_s; a dense group adds
    M_s^T @ table into the slice of new that starts at column s, a sparse
    one adds p * table[x] into row y pair by pair, in the (x, y) order of
    the textbook loop. Measured on a 2-core AVX2 Xeon VM, per table
    column a product costs S_out * S_in multiply-adds inside BLAS (about
    0.05 ns each) plus one add pass over S_out rows (about 0.7 ns each),
    and a pair costs one multiply and one add pass over its row (about
    0.75 ns). So a group of nnz pairs is dense when 16 nnz >= S_out
    (16 + S_in): the wide-table limit, rounded toward pairs. On narrow
    tables a pair's fixed Python cost favours products more, so there the
    rule errs toward pairs, where the whole step is cheap anyway.

    Products run over column chunks of at most _BLAS_SERIAL multiply-adds
    each, so BLAS never hands them to worker threads. On the 2-core VM,
    one 64 x 64 x 1000 product took 12 to 40 ms for the first few dozen
    calls of a process while the workers woke (0.2 ms on one thread), and
    the thread count changed the last bits of tail masses; chunked, the
    bytes are the same whatever the BLAS thread count.

    Every new entry is one summation tree over at most S_in nonnegative
    products, so a step adds at most S_in u to the relative error of a
    mass: `error`.
    """

    def __init__(self, kernel, shifts):
        n_in, n_out = kernel.shape
        self.states_in, self.states = n_in, n_out
        self.width = int(shifts.max())
        self.chunk = max(1, _BLAS_SERIAL // (n_in * n_out))
        self.dense = []
        live = kernel != 0.0
        sparse = live.copy()
        values, counts = np.unique(shifts[live], return_counts=True)
        for s, nnz in zip(values.tolist(), counts.tolist()):
            if 16 * nnz >= n_out * (16 + n_in):
                group = live & (shifts == s)
                self.dense.append((s, np.where(group, kernel, 0.0).T.copy()))
                sparse &= ~group
        xs, ys = np.nonzero(sparse)
        self.sparse = list(zip(xs.tolist(), ys.tolist(),
                               shifts[xs, ys].tolist(), kernel[xs, ys].tolist()))
        self.error = n_in * np.finfo(float).eps / 2

    def cost(self, count, columns):
        """Estimated seconds of `count` steps from a table `columns` wide."""
        n_in, n_out = self.states_in, self.states
        per_column = (len(self.dense) * (n_in * n_out * _GEMM_MAD + n_out * _ROW_ADD)
                      + len(self.sparse) * _ROW_ADD)
        calls = len(self.dense) * (1 + columns // self.chunk) + len(self.sparse)
        return count * (calls * _CALL + (columns + (count - 1) * self.width / 2) * per_column)

    def apply(self, table):
        hi = table.shape[1]
        new = np.zeros((self.states, hi + self.width))
        for s, mt in self.dense:
            dst = new[:, s : s + hi]
            for c in range(0, hi, self.chunk):
                dst[:, c : c + self.chunk] += mt @ table[:, c : c + self.chunk]
        for x, y, s, p in self.sparse:
            new[y, s : s + hi] += p * table[x]
        return new


# -- transfer-operator series ------------------------------------------------


def cumulant_series(spec, kmax):
    """kappa_1..kappa_kmax of S_n from the perturbed transfer operator.

    E exp(z S_n) = nu_0 prod_j M_j(z) 1, M_j(z) = K_j o exp(z F_j), each a
    power series truncated at z^kmax; a run of equal steps is raised to
    its length by binary powering. Every product is divided by a scalar
    series whose log joins an accumulator (`_scaled_mul`), so no raw
    moment of S_n is formed, and kappa_k = k! [z^k] of the logs summed by
    math.fsum. kappa_1 is 0.0: S_n is centered by definition. Coefficient
    k depends only on coefficients <= k, so kappa_k has the same bits
    whatever kmax is asked for.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    v = np.zeros((kmax + 1, 1, spec.initial.size))
    v[0, 0] = spec.initial
    acc = (v, [])
    for _, run in itertools.groupby(_step_series(spec, kmax), key=id):
        run = list(run)
        acc = _scaled_mul(acc, _series_power((run[0], []), len(run), _scaled_mul))
    return [0.0] + [math.fsum(t[k] for t in acc[1]) for k in range(1, kmax)]


def variance_profile(spec):
    """Var(S_k) for k = 1..n, the per-prefix order-2 series (index 0 holds 0.0)."""
    return np.array([0.0] + list(_running_variances(_step_series(spec, 2), spec.initial)))


def _step_series(spec, kmax):
    """M_j(z) for every step, shape (kmax + 1, S_in, S_out).

    Each observable is shifted by its midrange first: kappa_k, k >= 2, is
    shift invariant, and the z^k coefficient stays within (range/2)^k / k!.
    Steps whose kernel and shifted observable agree share one array, so a
    run of equal steps is a run of one object.
    """
    shifted, interned, built = {}, {}, {}
    for f in {id(f): f for f in spec.observables}.values():
        g = f - 0.5 * (float(f.max()) + float(f.min()))
        shifted[id(f)] = interned.setdefault((g.shape, g.tobytes()), g)
    out = []
    for kernel, f in zip(spec.kernels, spec.observables):
        g = shifted[id(f)]
        if (id(kernel), id(g)) not in built:
            coeffs = [kernel]
            for b in range(1, kmax + 1):
                coeffs.append(coeffs[-1] * g / b)
            built[id(kernel), id(g)] = np.stack(coeffs)
        out.append(built[id(kernel), id(g)])
    return out


def _series_mul(a, b, op=np.matmul):
    """Truncated product of power series with array coefficients a[k], b[k].

    Coefficient k is op(a[i], b[k - i]) summed over i <= k in one fixed
    order, on arrays whose shapes depend on k alone, so it comes out the
    same bits whatever the truncation order.
    """
    return np.stack([op(a[: k + 1], b[k::-1]).sum(axis=0) for k in range(len(a))])


def _series_power(base, length, mul):
    """base**length (length >= 1) by binary powering under the product `mul`."""
    out = None
    while True:
        if length & 1:
            out = base if out is None else mul(out, base)
        length >>= 1
        if not length:
            return out
        base = mul(base, base)


def _scaled_mul(a, b):
    """Product of (series, logs) pairs, each standing for series * exp(sum of logs).

    The product is divided by s(z), its mean row sum, whose constant term
    is 1 up to rounding as kernels are stochastic; log s is
    `moments_to_cumulants` on k! s_k / s_0. A square doubles its log terms
    instead of repeating them: doubling is exact, and the list stays
    O(log length) long.
    """
    p = _series_mul(a[0], b[0])
    s = np.array([c.sum(axis=-1).mean() for c in p])
    q = np.empty_like(p)
    q[0] = p[0] / s[0]
    for k in range(1, len(p)):
        q[k] = (p[k] - np.tensordot(s[1 : k + 1], q[k - 1 :: -1], axes=1)) / s[0]
    log = np.array(moments_to_cumulants([math.factorial(k) * s[k] / s[0] for k in range(1, len(p))]))
    return q, ([2.0 * t for t in a[1]] if a is b else a[1] + b[1]) + [log]


def _running_variances(steps, law):
    """Var of the sum over steps[0..j], j = 0, 1, .., from X at law `law`.

    The order-2 case of `_scaled_mul`, written out because it runs once
    per step: the row series v(z) times M(z) is divided by its total
    s(z), and log s adds 2 s_2/s_0 - (s_1/s_0)^2 to the variance. The
    terms are summed with Neumaier compensation, so values keep their
    digits however long the run.
    """
    v = np.zeros((3, law.size))
    v[0] = law
    total = comp = 0.0
    for series in steps:
        r = np.matmul(v, series)  # r[b, i] = v_i M_b
        p = (r[0, 0], r[0, 1] + r[1, 0], r[0, 2] + r[1, 1] + r[2, 0])
        s0, s1, s2 = (float(c.sum()) for c in p)
        q0 = p[0] / s0
        q1 = (p[1] - s1 * q0) / s0
        v = np.stack((q0, q1, (p[2] - s1 * q1 - s2 * q0) / s0))
        x = 2.0 * s2 / s0 - (s1 / s0) ** 2
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
        yield total + comp


# -- structural checks -------------------------------------------------------


@dataclass(frozen=True)
class EllipticityReport:
    """Uniform ellipticity of the kernels w.r.t. uniform reference measures.

    sup_density is the largest one-step transition density, min_two_step the
    smallest two-step density; the chain is elliptic when densities are
    bounded above and two-step densities are bounded below by eps > 0.
    """

    sup_density: float
    min_two_step: float
    eps_upper: float  # largest eps compatible with the density upper bound
    elliptic: bool
    worst_step: int

    @property
    def eps(self):
        return min(self.eps_upper, self.min_two_step)


def ellipticity_check(spec):
    # densities w.r.t. the uniform law on each state space
    sup_d = 0.0
    for k in spec.kernels:
        sup_d = max(sup_d, float(k.max()) * k.shape[1])
    min_two = np.inf
    worst = 0
    for j in range(spec.n_steps - 1):
        k1, k2 = spec.kernels[j], spec.kernels[j + 1]
        mid = k1.shape[1]
        # two-step density of X_{j+2} given X_j w.r.t. uniform on its space
        dens = (k1 * mid) @ (k2 * k2.shape[1]) / mid
        m = float(dens.min())
        if m < min_two:
            min_two, worst = m, j
    if spec.n_steps == 1:
        min_two = float((spec.kernels[0] * spec.kernels[0].shape[1]).min())
    return EllipticityReport(
        sup_density=sup_d,
        min_two_step=min_two,
        eps_upper=1.0 / sup_d,
        elliptic=bool(min_two > 0.0),
        worst_step=worst,
    )


def psi_mixing_coefficient(spec, j, gap=1):
    """psi-mixing coefficient between sigma(X_j) and sigma(X_{j+gap}).

        psi = sup_{A,B} | P(A and B) / (P(A) P(B)) - 1 |

    over events with positive probability. The ratio is a mediant of the
    atom ratios J_ab / (p_a q_b), a in A and b in B, so it lies between
    their least and greatest: the sup is attained at a pair of atoms.
    """
    if gap < 1:
        raise ValueError("gap must be >= 1")
    if not 0 <= j <= spec.n_steps - gap:
        raise ValueError("no pair (X_%d, X_%d) in this chain" % (j, j + gap))
    px = spec.marginals()[j]
    trans = spec.kernels[j]
    for step in range(j + 1, j + gap):
        trans = trans @ spec.kernels[step]
    joint = px[:, None] * trans
    py = joint.sum(axis=0)
    ok = np.outer(px > 0.0, py > 0.0)
    ratio = joint[ok] / np.outer(px, py)[ok]
    return float(np.max(np.abs(ratio - 1.0)))


# -- variance blocking -------------------------------------------------------


@dataclass(frozen=True)
class BlockingReport:
    """Greedy partition of steps into intervals of variance in [A, 2A].

    a[k] is the variance captured by complete blocks within the first k
    steps, b[k] = Var(S_k) - a[k] the boundary remainder. The greedy
    construction makes a monotone whenever the target A dominates the
    step-to-step covariance scale; `a_monotone` records the check.
    """

    target: float
    blocks: tuple  # (start, end) step index pairs, inclusive, 0-based
    block_variances: tuple
    sigma2: np.ndarray  # Var(S_k), k = 0..n
    a: np.ndarray
    b: np.ndarray
    overshoot: float
    a_monotone: bool


def variance_decomposition(spec, target=None):
    """Greedy variance blocking of `spec`; see BlockingReport.

    Var(S_k) and every block variance come from order-2 transfer-operator
    series (`variance_profile`, `_greedy_block_end`); no law is built.
    """
    sigma2 = variance_profile(spec)
    if sigma2[-1] <= 0.0:
        raise ValueError("degenerate functional: Var(S_n) = 0")
    step_vars = _step_variances(spec)
    if target is None:
        target = 4.0 * float(np.max(step_vars)) + 1.0
    if target <= 0.0:
        raise ValueError("blocking target must be positive")
    steps = _step_series(spec, 2)
    margs = spec.marginals()
    blocks = []
    block_vars = []
    start = 0
    n = spec.n_steps
    while start < n:
        end, var = _greedy_block_end(steps, margs[start], start, target)
        if var is None:  # tail too small to reach the target: stays in b
            break
        blocks.append((start, end))
        block_vars.append(var)
        start = end + 1
    overshoot = max([v - 2.0 * target for v in block_vars], default=0.0)
    a = np.zeros(n + 1)
    for _, end in blocks:  # a_k is Var(S) at the end of the last block done by step k
        a[end + 1 :] = sigma2[end + 1]
    return BlockingReport(
        target=float(target),
        blocks=tuple(blocks),
        block_variances=tuple(block_vars),
        sigma2=sigma2,
        a=a,
        b=sigma2 - a,
        overshoot=float(max(0.0, overshoot)),
        a_monotone=bool(np.all(np.diff(a) >= -1e-12)),
    )


def _step_variances(spec):
    margs = spec.marginals()
    return np.array([
        float(margs[j] @ (k * (f - mu) ** 2) @ np.ones(k.shape[1]))
        for j, (k, f, mu) in enumerate(zip(spec.kernels, spec.observables, spec.step_means()))
    ])


def _greedy_block_end(steps, start_law, start, target):
    """Extend a block from `start` until its own variance reaches the target.

    `steps` are the chain's order-2 step series and `start_law` the law of
    X_start; block variances are shift invariant, so they refer to the
    same functional the chain-level decomposition uses.
    """
    for j, var in enumerate(_running_variances(steps[start:], start_law), start):
        if var >= target:
            return j, var
    return None, None


# -- chain spec files --------------------------------------------------------


def load_chain_spec(path):
    """Read a chain description file.

    Sections: [meta] (name, steps), [initial] (one probability row), then
    [kernel.J] / [observable.J] blocks holding row-major matrices, each
    optionally followed by `repeat = R` to stand for R consecutive steps.
    """
    sections = _read_sections(path)
    meta = dict(sections.get("meta", []))
    if "initial" not in sections:
        raise ValueError("chain file is missing the [initial] section")
    _, rows = _parse_rows(sections["initial"])
    if len(rows) != 1:
        raise ValueError("[initial] must hold exactly one probability row")
    initial = np.array(rows[0])
    kernels = _collect_matrices(sections, "kernel")
    observables = _collect_matrices(sections, "observable")
    steps = int(meta.get("steps", len(kernels)))
    if len(kernels) != steps or len(observables) != steps:
        raise ValueError(
            "expected %d steps, found %d kernels and %d observables"
            % (steps, len(kernels), len(observables))
        )
    return MarkovChainSpec(
        initial, tuple(kernels), tuple(observables), name=meta.get("name", "")
    )


def save_chain_spec(spec, path):
    lines = ["[meta]"]
    if spec.name:
        lines.append("name = %s" % spec.name)
    lines.append("steps = %d" % spec.n_steps)
    lines.append("")
    lines.append("[initial]")
    lines.append(" ".join("%.17g" % v for v in spec.initial))
    idx = 1
    pairs = zip(spec.kernels, spec.observables)
    for _, run in itertools.groupby(pairs, key=lambda pair: tuple(map(id, pair))):
        (kernel, obs), *rest = run
        count = 1 + len(rest)
        for tag, mat in (("kernel", kernel), ("observable", obs)):
            lines.append("")
            lines.append("[%s.%d]" % (tag, idx))
            for row in mat:
                lines.append(" ".join("%.17g" % v for v in row))
            if count > 1:
                lines.append("repeat = %d" % count)
        idx += count
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_sections(path):
    sections = {}
    current = None
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip().lower()
                sections.setdefault(current, [])
            elif current is None:
                raise ValueError("content before the first section header: %r" % line)
            elif "=" in line:
                key, val = (s.strip() for s in line.split("=", 1))
                sections[current].append((key.lower(), val))
            else:
                sections[current].append((None, line))
    return sections


def _parse_rows(entries):
    """Split section entries into (key/value pairs, matrix rows)."""
    kv = []
    rows = []
    for key, val in entries:
        if key is None:
            rows.append([float(tok) for tok in val.replace(",", " ").split()])
        else:
            kv.append((key, val))
    return kv, rows


def _collect_matrices(sections, tag):
    indexed = []
    for name, entries in sections.items():
        if not name.startswith(tag + "."):
            continue
        idx = int(name.split(".", 1)[1])
        kv, rows = _parse_rows(entries)
        repeat = int(dict(kv).get("repeat", 1))
        if repeat < 1:
            raise ValueError("repeat must be >= 1 in [%s]" % name)
        if not rows:
            raise ValueError("[%s] holds no matrix rows" % name)
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix in [%s]" % name)
        indexed.append((idx, np.asarray(rows, dtype=float), repeat))
    indexed.sort(key=lambda item: item[0])
    out = []
    expect = 1
    for idx, mat, repeat in indexed:
        if idx != expect:
            raise ValueError(
                "%s sections must be consecutive; got index %d, expected %d"
                % (tag, idx, expect)
            )
        out.extend([mat] * repeat)  # shared reference: repeat groups survive a save
        expect = idx + repeat
    return out
