"""Finite-state inhomogeneous Markov chains with additive functionals.

The central object is the exact distribution of the centered functional

    S_n = sum_j (f_j(X_j, X_{j+1}) - E f_j(X_j, X_{j+1}))

computed by dynamic programming over (state, lattice cell). Everything
is deterministic; the only approximation is the snap of observable
values to a common arithmetic lattice, which is validated to 1e-9.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import LatticeDistribution

__all__ = [
    "MarkovChainSpec",
    "EllipticityReport",
    "PsiMixingResult",
    "BlockingReport",
    "exact_distribution",
    "enumerate_distribution",
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
_PSI_EXACT_CAP = 12
# Largest DP table, in (state, cell) entries, a sweep may allocate. A step
# holds the old table and the new one; its other temporaries are one row or
# one product chunk. Two float64 tables of 2**24 cells take 256 MiB.
_CELL_BUDGET = 2**24
# OpenBLAS runs a product of at most 2**18 multiply-adds on the calling thread
_BLAS_SERIAL = 2**18


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
        for j, (k, f) in enumerate(zip(kernels, observables)):
            if k.ndim != 2 or k.shape[0] != size:
                raise ValueError("kernel %d has shape %r, expected %d rows" % (j, k.shape, size))
            if f.shape != k.shape:
                raise ValueError("observable %d shape %r != kernel shape %r" % (j, f.shape, k.shape))
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
        margs = self.marginals()
        return np.array(
            [
                float(margs[j] @ (k * f) @ np.ones(k.shape[1]))
                for j, (k, f) in enumerate(zip(self.kernels, self.observables))
            ]
        )


# -- lattice snap ------------------------------------------------------------


def _common_lattice(observables):
    """Common step d and per-step integer shifts for all observable values.

    Values within each step are taken relative to that step's minimum, so
    only differences need to be commensurable; the per-step base offsets are
    carried in float. Returns (d, bases, shift_arrays). Each distinct
    observable array is snapped once, and steps whose shifts agree share
    one shift array, so a sweep can key per-step work on its identity.
    """
    # homogeneous chains repeat one array per step: visit each array once
    distinct = {id(f): f for f in observables}
    mins = {key: float(f.min()) for key, f in distinct.items()}
    diffs = {key: f - mins[key] for key, f in distinct.items()}
    bases = [mins[id(f)] for f in observables]
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
    for key, darr in diffs.items():
        k = np.rint(darr / d) if d else np.zeros(darr.shape)
        if np.max(np.abs(darr - k * d)) > _SNAP_TOL:
            raise ValueError("observable values fail the lattice snap at step %g" % d)
        k = k.astype(np.int64)
        snapped[key] = shared.setdefault((k.shape, k.tobytes()), k)
    return d, bases, [snapped[id(f)] for f in observables]


# -- exact engines -----------------------------------------------------------


def exact_distribution(spec):
    """Exact law of the centered functional S_n as a LatticeDistribution.

    DP over (state, lattice cell); no cell is dropped. The result must
    have mean 0 within the float error of the sweep (see `_mean_tolerance`),
    otherwise the centering is wrong and the run aborts.
    """
    dist, _ = _run_dp(spec, want_profile=False)
    return dist


def variance_profile(spec):
    """Var(S_k) for k = 1..n from one DP sweep (index 0 holds 0.0)."""
    _, prof = _run_dp(spec, want_profile=True)
    return prof


def _sweep_plan(spec):
    """Lattice step, per-step base offsets and move lists of one DP sweep.

    A move list is built once per distinct (kernel, shift array) pair of
    the sweep: homogeneous chains build one. The ids used as keys are
    safe only while the spec and its shift arrays are alive, so the cache
    dies with this call. The chain is refused before any table exists if
    its table could outgrow _CELL_BUDGET: the table of any run of steps
    is at most max(states) * (1 + sum of the steps' widest shifts).
    """
    d, bases, shifts = _common_lattice(spec.observables)
    built = {}
    moves = []
    for kernel, shift in zip(spec.kernels, shifts):
        key = (id(kernel), id(shift))
        if key not in built:
            built[key] = _Moves(kernel, shift)
        moves.append(built[key])
    cells = max(spec.state_counts) * (1 + sum(m.width for m in moves))
    if cells > _CELL_BUDGET:
        raise ValueError(
            "lattice step %g needs up to %d DP cells, above the budget of %d; "
            "cumulant-only work needs the transfer-operator series engine planned "
            "in ROADMAP.md item 3, which keeps no table" % (d, cells, _CELL_BUDGET)
        )
    return d, bases, moves


def _run_dp(spec, want_profile):
    d, bases, moves = _sweep_plan(spec)
    means = spec.step_means()
    if d == 0.0:
        # degenerate: S_n is a.s. the constant sum(bases) - sum(means) = 0
        dist = LatticeDistribution(0.0, 1.0, [1.0])
        prof = np.zeros(spec.n_steps + 1)
        return dist, prof
    table = spec.initial[:, None].copy()
    offset = 0.0  # value of cell 0 for the running uncentered lattice sum
    prof = np.zeros(spec.n_steps + 1) if want_profile else None
    for j, step in enumerate(moves):
        table = step.apply(table)
        offset += bases[j] - means[j]
        if want_profile:
            m = table.sum(axis=0)
            vals = offset + d * np.arange(table.shape[1])
            tot = m.sum()
            mu = float(m @ vals) / tot
            prof[j + 1] = float(m @ (vals - mu) ** 2) / tot
    masses = table.sum(axis=0)
    nz = np.nonzero(masses)[0]
    lo, hi_nz = int(nz[0]), int(nz[-1])
    dist = LatticeDistribution(offset + d * lo, d, masses[lo : hi_nz + 1])
    tol = _mean_tolerance(spec, dist.masses.size)
    if abs(dist.mean) > tol:
        raise ValueError("centered functional has mean %g, expected 0 within %g" % (dist.mean, tol))
    return dist, prof


def _mean_tolerance(spec, cells):
    """First-order forward error bound on the computed mean of S_n.

    n steps, S states, K support cells, F = sum_j max|f_j|, and delta the
    largest row-sum defect of the initial law and the kernels (at most
    1e-12 by validation). Every DP entry is a sum of at most S nonnegative
    products K[x, y] table[x, .], so masses carry relative error
    <= n(S+1) eps + S eps + (n+1) delta. The shift-grouped step keeps
    that bound: BLAS may sum a group in any order and with fused
    multiply-adds, and the group sums then go into the new table, but
    that is still one summation tree over at most S nonnegative products.
    Any such tree errs by at most S eps relative to first order: a term
    meets one rounded product and at most S - 1 rounded additions on its
    path (an FMA rounds once for both), and the zero entries of a group
    matrix add nothing and round nothing.
    Partial sums of base_j - mean_j stay within 2F, so support values are
    off by <= (2n+4) eps F. The K-term mean sum adds <= (K+1) eps; the
    step means, from marginals pushed through the kernels, add
    <= (nS + 2S + 1) eps F + n delta F. With |value| <= 2F the total is
    below 4 (n(S+1) eps + (n+1) delta + (K+S+2) eps) F for n, S, K >= 1.
    """
    n, states = spec.n_steps, max(spec.state_counts)
    # homogeneous chains repeat one array per step: visit each array once
    observables = {id(f): f for f in spec.observables}
    peak = {key: float(np.abs(f).max()) for key, f in observables.items()}
    scale = sum(peak[id(f)] for f in spec.observables)
    kernels = {id(k): k for k in spec.kernels}.values()
    defect = max([abs(float(spec.initial.sum()) - 1.0)]
                 + [float(np.max(np.abs(k.sum(axis=1) - 1.0))) for k in kernels])
    eps = np.finfo(float).eps
    return 4.0 * (n * (states + 1) * eps + (n + 1) * defect + (cells + states + 2) * eps) * scale


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
    """

    def __init__(self, kernel, shifts):
        n_in, n_out = kernel.shape
        self.states = n_out
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


def enumerate_distribution(spec):
    """Brute-force path enumeration oracle (small chains only).

    Returns sorted (value, probability) pairs of the centered functional,
    merging values that agree within 1e-11.
    """
    sizes = spec.state_counts
    n = spec.n_steps
    if np.prod([float(s) for s in sizes]) > 5e5:
        raise ValueError("path enumeration is for small chains only")
    means = spec.step_means()
    acc = {}

    def walk(j, x, prob, total):
        if prob == 0.0:
            return
        if j == n:
            acc[total] = acc.get(total, 0.0) + prob
            return
        k = spec.kernels[j]
        f = spec.observables[j]
        for y in range(k.shape[1]):
            walk(j + 1, y, prob * k[x, y], total + f[x, y] - means[j])

    for x0 in range(sizes[0]):
        walk(0, x0, float(spec.initial[x0]), 0.0)
    vals = sorted(acc)
    merged = []
    for v in vals:
        if merged and abs(v - merged[-1][0]) <= 1e-11:
            merged[-1] = (merged[-1][0], merged[-1][1] + acc[v])
        else:
            merged.append((v, acc[v]))
    return merged


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


@dataclass(frozen=True)
class PsiMixingResult:
    value: float
    exact: bool
    note: str = ""


def psi_mixing_coefficient(spec, j, gap=1):
    """psi-mixing coefficient between sigma(X_j) and sigma(X_{j+gap}).

        psi = sup_{A,B} | P(A and B) / (P(A) P(B)) - 1 |

    over events with positive probability. Exact subset enumeration up to
    12 states per side; larger spaces fall back to single atoms, which
    only bounds psi from below (flagged in the result).
    """
    if gap < 1:
        raise ValueError("gap must be >= 1")
    if not 0 <= j <= spec.n_steps - gap:
        raise ValueError("no pair (X_%d, X_%d) in this chain" % (j, j + gap))
    margs = spec.marginals()
    px = margs[j]
    trans = spec.kernels[j]
    for step in range(j + 1, j + gap):
        trans = trans @ spec.kernels[step]
    joint = px[:, None] * trans
    py = joint.sum(axis=0)
    a, b = joint.shape
    if max(a, b) <= _PSI_EXACT_CAP:
        ua = _subset_indicators(a)
        ub = _subset_indicators(b)
        pa = ua @ px
        pb = ub @ py
        keep_b = pb > 0.0
        val = 0.0
        # chunk over A-subsets to keep the P(A and B) matrix small
        for lo in range(0, ua.shape[0], 1024):
            rows = slice(lo, lo + 1024)
            pab = ua[rows] @ joint @ ub[keep_b].T
            pa_rows = pa[rows]
            keep_a = pa_rows > 0.0
            if not keep_a.any():
                continue
            ratio = pab[keep_a] / np.outer(pa_rows[keep_a], pb[keep_b])
            val = max(val, float(np.max(np.abs(ratio - 1.0))))
        return PsiMixingResult(value=val, exact=True)
    ok = np.outer(px > 0.0, py > 0.0)
    ratio = joint[ok] / np.outer(px, py)[ok]
    return PsiMixingResult(
        value=float(np.max(np.abs(ratio - 1.0))),
        exact=False,
        note="atom pairs only (state space above the exact-enumeration cap); lower bound",
    )


def _subset_indicators(n):
    masks = np.arange(1, 2**n, dtype=np.int64)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(float)


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


def variance_decomposition(spec, target=None, sigma2=None):
    """Greedy variance blocking of `spec`; see BlockingReport.

    `sigma2` is the Var(S_k) profile when the caller already swept the
    chain for it (`_run_dp(spec, want_profile=True)` also yields the law);
    otherwise one `variance_profile` sweep runs here.
    """
    if sigma2 is None:
        sigma2 = variance_profile(spec)
    if sigma2[-1] <= 0.0:
        raise ValueError("degenerate functional: Var(S_n) = 0")
    step_vars = _step_variances(spec)
    if target is None:
        target = 4.0 * float(np.max(step_vars)) + 1.0
    if target <= 0.0:
        raise ValueError("blocking target must be positive")
    plan = _sweep_plan(spec)
    means = spec.step_means()
    margs = spec.marginals()
    blocks = []
    block_vars = []
    start = 0
    n = spec.n_steps
    while start < n:
        end, var = _greedy_block_end(spec, margs[start], start, target, plan, means)
        if var is None:  # tail too small to reach the target: stays in b
            break
        blocks.append((start, end))
        block_vars.append(var)
        start = end + 1
    overshoot = max([v - 2.0 * target for v in block_vars], default=0.0)
    a = np.zeros(n + 1)
    b = np.zeros(n + 1)
    ends = [e for (_, e) in blocks]
    acc = 0.0
    bi = 0
    for k in range(1, n + 1):
        while bi < len(ends) and ends[bi] <= k - 1:
            acc = sigma2[ends[bi] + 1]
            bi += 1
        a[k] = acc
        b[k] = sigma2[k] - acc
    return BlockingReport(
        target=float(target),
        blocks=tuple(blocks),
        block_variances=tuple(block_vars),
        sigma2=sigma2,
        a=a,
        b=b,
        overshoot=float(max(0.0, overshoot)),
        a_monotone=bool(np.all(np.diff(a) >= -1e-12)),
    )


def _step_variances(spec):
    margs = spec.marginals()
    out = []
    for j, (k, f) in enumerate(zip(spec.kernels, spec.observables)):
        mu = float(margs[j] @ (k * f) @ np.ones(k.shape[1]))
        m2 = float(margs[j] @ (k * (f - mu) ** 2) @ np.ones(k.shape[1]))
        out.append(m2)
    return np.array(out)


def _greedy_block_end(spec, start_law, start, target, plan, means):
    """Extend a block from `start` until its own variance reaches the target.

    The block sum keeps the global per-step centering, so block variances
    refer to the same functional the chain-level decomposition uses.
    `plan` is the chain's `_sweep_plan`, whose cell budget also bounds
    every block.
    """
    d, bases, moves = plan
    table = start_law[:, None].copy()
    offset = 0.0
    for j in range(start, spec.n_steps):
        table = moves[j].apply(table)
        offset += bases[j] - means[j]
        m = table.sum(axis=0)
        vals = offset + d * np.arange(table.shape[1])
        mu = float(m @ vals)
        var = float(m @ (vals - mu) ** 2)
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
    groups = _group_repeats(list(zip(spec.kernels, spec.observables)))
    idx = 1
    for (kernel, obs), count in groups:
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


def _group_repeats(pairs):
    out = []
    for kernel, obs in pairs:
        if out and out[-1][0][0] is kernel and out[-1][0][1] is obs:
            out[-1][1] += 1
        else:
            out.append([(kernel, obs), 1])
    return [(pair, count) for pair, count in out]


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
