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

import bisect
import collections
import concurrent.futures
import functools
import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..cumulants import PROFILE_TOL, moments_to_cumulants, whole_number
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
# The refusal of a step series, or of the cumulants or variances it feeds, that overflows
_NOT_FINITE = ("cumulant %d of S_n is not finite: the observables' values are too far "
               "apart for the order-%d step series")
_SNAP_DENOM = 10**6
_SNAP_TOL = 1e-9
# Largest DP table, in (state, cell) entries, a sweep may allocate, with the
# most one product of a powered run holds counted beside it: each factor
# and its lifted tails, the output and up to two lift arrays of the
# output's size (`_Power.price`). The two halves of a sweep from both
# ends grow at once, on two threads, so both tables count: S (columns + 1)
# cells for S the most states, the product or the join (`_backward_half`)
# beside them. A step holds the old table and the new one, and a
# cells-major run (`_Moves.run`) also the table it started from; its other
# temporaries are one row or one chunk's products of every dense group
# (below 2**22 / (16 + S_in) cells), so two halves stepping at once hold
# at most what one sweep of the whole width does plus 3 S cells and those.
# A product split between two threads holds one np.convolve output more.
# Two float64 tables of 2**24 cells take 256 MiB.
_CELL_BUDGET = 2**24
# OpenBLAS runs a product of at most 2**18 multiply-adds on the calling thread
_BLAS_SERIAL = 2**18
# and a dot product of at most 10**4 terms (`_convolve_into`)
_DOT_BLOCK = 2048
# Powered products lift polynomial tails below 2**-511 by 2**563 (`_pieces`)
_LIFT_AT = 2.0**-511
_LIFT = 2.0**563
_UNLIFT = 2.0**-563
# Route costs in seconds, measured on a 2-core AVX2 Xeon VM: one call of a
# numpy operation from Python, one multiply-add inside a BLAS product or
# inside a dot product, one output of np.convolve, and one row element
# added in place on a table wider than the L1 cache.
_CALL = 2e-6
_GEMM_MAD = 0.05e-9
_DOT_MAD = 0.15e-9
_CONV_OUT = 8e-9
_ROW_ADD = 1.5e-9
# Priced seconds of work per numpy call below which two threads gain
# nothing (`_pays`): each call hands the GIL between them. On a 2-core
# AMD EPYC VM, backward halves of 16- to 64-state chains and powered
# products of 257 or more coefficients per polynomial ran 4-45% faster
# split from about 15 us per call; below it (stepping at S <= 12 and
# flip2, squares of 129 or fewer coefficients) they ran 8-79% slower.
# Calls are counted as a step makes them (`_Moves.calls`); no measured gate moved.
_HANDOFF = 15e-6
# Coefficients per power of z that a batch of order-2 rows may hold
_ROW_FLOATS = 2**16
# Shorter runs of equal steps are walked one step at a time, not doubled:
# at S = 3 doubling starts to pay at runs of 40 to 48 steps
_SHORT_RUN = 40
# Greedy blocking: a lockstep window holds this many coefficients per power
# of z of candidate rows (512 rows at S = 2). On a 2-core x86 VM a batched
# round costs about 40 us per distinct step series among the rows plus
# 0.4 us per row at S = 2, and a lone step 18 us, so on a homogeneous
# chain lockstep spends about 0.4 B us per chain step on blocks of B
# steps: a block that has run _LOCKSTEP_AGE steps (fewer where the rows
# meet several step series) walks on alone, and so do the blocks after
# one that long.
_LOCKSTEP_FLOATS = 1024
_LOCKSTEP_AGE = 32


@dataclass(frozen=True)
class MarkovChainSpec:
    """Time-inhomogeneous chain on finite state spaces with observables.

    kernels[j] maps states at time j to states at time j+1 and must be
    row-stochastic; observables[j] has the same shape and holds the
    per-transition values f_j(x, y). Homogeneous chains are built by
    repeating one kernel/observable reference, so memory stays flat.

    `runs`, the run form, is the one place steps are split into runs: a
    (kernel, observable, count) per maximal stretch of steps sharing both,
    split on content, so a chain written out step by step gets the runs
    and bits of its `repeat` form; its `_plan` numbers them for the engines.
    Kernel and initial entries in [-1e-15, 0) are clipped to 0.0 in a copy.
    Every entry must be finite (NaN passes every other check).
    """

    initial: np.ndarray
    kernels: tuple
    observables: tuple
    runs: tuple
    name: str = ""

    def __init__(self, initial, kernels, observables, name=""):
        initial = np.asarray(initial, dtype=float)
        given = tuple(kernels), tuple(observables)
        if len(given[0]) == 0:
            raise ValueError("need at least one step")
        if len(given[0]) != len(given[1]):
            raise ValueError("%d kernels but %d observables" % tuple(map(len, given)))
        if initial.ndim != 1:
            raise ValueError("initial law must be a vector")
        if not np.isfinite(initial).all():
            raise ValueError("initial law has a non-finite entry")
        if abs(initial.sum() - 1.0) > _ROW_TOL or initial.min() < -1e-15:
            raise ValueError("initial law must be a probability vector")
        # convert each distinct object once and number arrays equal in shape
        # and bytes alike; `given` holds the objects, so their ids stay unique
        n = len(given[0])
        arrays, codes = [], []
        for objs in given:
            ids = list(map(id, objs))
            distinct = dict(zip(ids, objs))
            interned, numbers = _numbered([np.asarray(a, dtype=float) for a in distinct.values()])
            number = dict(zip(distinct, numbers))
            arrays.append(interned)
            codes.append(np.fromiter(map(number.__getitem__, ids), np.intp, n))
        starts = (np.flatnonzero((codes[0][1:] != codes[0][:-1]) | (codes[1][1:] != codes[1][:-1])) + 1).tolist()
        codes = [c.tolist() for c in codes]
        # firsts: each observable's first step, which refusals name
        checked, clipped, firsts, numbered = {}, {}, {}, []
        size = initial.size
        for j, end in zip([0] + starts, starts + [n]):
            key = codes[0][j], codes[1][j]
            shape = checked.get(key)
            if shape is None or shape[0] != size:
                k, f = arrays[0][key[0]], arrays[1][key[1]]
                if k.ndim != 2 or k.shape[0] != size:
                    raise ValueError("kernel %d has shape %r, expected %d rows" % (j, k.shape, size))
                if f.shape != k.shape:
                    raise ValueError("observable %d shape %r != kernel shape %r" % (j, f.shape, k.shape))
                if key[1] not in firsts:
                    if not np.isfinite(f).all():
                        raise ValueError("observable %d has a non-finite entry" % j)
                    if not math.isfinite(float(f.max()) - float(f.min())):
                        # f - min f, which every engine takes, would overflow
                        raise ValueError("observable %d has values further apart than the float range" % j)
                    firsts[key[1]] = j
                if key[0] not in clipped:
                    if not np.isfinite(k).all():
                        raise ValueError("kernel %d has a non-finite entry" % j)
                    rows = k.sum(axis=1)
                    if np.max(np.abs(rows - 1.0)) > _ROW_TOL or k.min() < -1e-15:
                        raise ValueError("kernel %d is not row-stochastic within 1e-12" % j)
                    clipped[key[0]] = np.maximum(k, 0.0) if k.min() < 0.0 else k
                checked[key] = shape = k.shape
            rows, size = shape
            if end - j > 1 and rows != size:
                # the run's second step starts from the first one's columns
                raise ValueError("kernel %d has shape %r, expected %d rows" % (j + 1, (rows, size), size))
            numbered.append((*key, j, end - j))
        initial = np.maximum(initial, 0.0) if initial.min() < 0.0 else initial
        kernels = [clipped[i] for i in range(len(clipped))]
        states = max([initial.size] + [k.shape[1] for k in kernels])
        plan = _Plan(initial, states, kernels, arrays[1], [firsts[i] for i in range(len(firsts))], numbered)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "kernels", tuple(map(kernels.__getitem__, codes[0])))
        object.__setattr__(self, "observables", tuple(map(arrays[1].__getitem__, codes[1])))
        object.__setattr__(self, "runs", tuple((kernels[k], arrays[1][f], count) for k, f, _, count in numbered))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_plan", plan)

    @property
    def n_steps(self):
        return len(self.kernels)

    @property
    def state_counts(self):
        return [self.initial.size] + [k.shape[1] for k in self.kernels]

    @classmethod
    def homogeneous(cls, initial, kernel, observable, n, name=""):
        return cls(initial, (kernel,) * n, (observable,) * n, name=name)

    def prefix(self, n):
        """The chain restricted to its first n steps."""
        if not 1 <= n <= self.n_steps:
            raise ValueError("prefix length %r outside [1, %d]" % (n, self.n_steps))
        return MarkovChainSpec(
            self.initial, self.kernels[:n], self.observables[:n], name=self.name
        )


# A chain's runs as numbers, built once by `MarkovChainSpec`: the initial law,
# the most states, each distinct kernel and observable once in order of first
# step, each observable's first step and (kernel, observable, start, count) per run.
_Plan = collections.namedtuple("_Plan", "initial states kernels observables firsts runs")


def _numbered(arrays):
    """(distinct, numbers): arrays equal in shape and bytes kept once, and each given array's place among them."""
    distinct, numbers, seen = [], [], {}
    for a in arrays:
        key = a.shape, a.tobytes()
        if key not in seen:
            seen[key] = len(distinct)
            distinct.append(a)
        numbers.append(seen[key])
    return distinct, numbers


def _merged(keys, runs):
    """(distinct keys in order of first appearance, runs merged on them), one key per run of (..., start, count).

    A merged run is [number of its key, start, count] per maximal stretch of runs of one key: a split on it.
    """
    numbers, out = {}, []
    for key, (*_, start, count) in zip(keys, runs):
        number = numbers.setdefault(key, len(numbers))
        if out and out[-1][0] == number:
            out[-1][2] += count
        else:
            out.append([number, start, count])
    return list(numbers), out


def _squarings(base, square):
    """base, base^2, base^4, ...: each square built only when the next power is asked for.

    The one doubling schedule of the chain engines. Binary powering zips
    the bits of a length, lowest first, with it, and zip stops at the
    last bit; a doubling of prefixes takes the powers it needs. `square`
    passes its argument twice as one object, which `_poly_matmul` and
    `_scaled_mul` test for.
    """
    while True:
        yield base
        base = square(base)


def _step_means(chain, g):
    """E g_j(X_j, X_{j+1}) per step, for g one array per observable number of the plan.

    (K o g) 1 is formed once per distinct (kernel, observable) pair and
    taken against the laws of a run's steps (`_step_laws`) in one product.
    """
    laws = _step_laws(chain)
    means, rows = np.empty(laws.shape[0]), {}
    for k, f, start, count in chain.runs:
        if (k, f) not in rows:
            rows[k, f] = (chain.kernels[k] * g[f]).sum(axis=1)
        means[start : start + count] = laws[start : start + count, : rows[k, f].size] @ rows[k, f]
    return means


def _step_laws(chain):
    """The law of X_j at every step j, as row j of a table as wide as the most states.

    The plan's runs merged on their kernels are the one split of the laws
    of X_j, so every engine reads the same bits. Row i of a run is its
    first law times K^i, in O(log count) products: each doubling appends
    the rows so far times K^m, m the row count, the next power of
    `_squarings`. Squaring doubles the rounding error of a power's row
    sums at every level (elliptic2's nu K^(2^15) gained 1.1e-12 of mass),
    so each square's rows are rescaled to sum to 1. That moves K^m by at
    most m delta relative, delta the kernel's row-sum defect, and leaves
    the law of step j within j S u of the exact law plus that much, as
    stepping one kernel at a time would (S states, u the unit roundoff).
    """

    def square(power):
        power = power @ power
        power /= power.sum(axis=1, keepdims=True)
        return power

    kernels, runs = _merged([k for k, *_ in chain.runs], chain.runs)
    table, law = np.zeros((runs[-1][1] + runs[-1][2], chain.states)), chain.initial
    for i, start, count in runs:
        kernel, laws = chain.kernels[kernels[i]], law[None, :]
        for power in itertools.islice(_squarings(kernel, square), (count - 1).bit_length()):
            laws = np.concatenate([laws, laws[: count - laws.shape[0]] @ power])
        table[start : start + count, : laws.shape[1]] = laws
        law = laws[-1] @ kernel
    return table


# -- lattice snap ------------------------------------------------------------


def _common_lattice(observables, steps):
    """Common step d and integer shifts for the values of every observable array given.

    Values within each array are taken relative to its minimum, so only
    differences need to be commensurable. Returns (d, diffs, shifts,
    numbers, snaps): diffs[i] = f_i - min f_i, the distinct integer shift
    arrays, array i's place among them and max |diffs[i] - k d|. An array
    spanning more than 2^53 steps d is refused, named by its first step
    steps[i]: past 2^53 the shifts are no longer exact integers, and int64
    wraps at 2^63.
    """
    diffs = [f - float(f.min()) for f in observables]
    flat = np.concatenate([darr.ravel() for darr in diffs])
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
    shifts, snaps = [], []
    for j, darr in zip(steps, diffs):
        k = np.rint(darr / d) if d else np.zeros(darr.shape)
        if float(k.max()) > 2.0**53:
            raise ValueError("observable %d spans %.3g lattice steps of %g, past 2^53" % (j, float(k.max()), d))
        snaps.append(float(np.max(np.abs(darr - k * d))))
        if snaps[-1] > _SNAP_TOL:
            raise ValueError("observable values fail the lattice snap at step %g" % d)
        shifts.append(k.astype(np.int64))
    return (d, diffs, *_numbered(shifts), snaps)


# -- exact engines -----------------------------------------------------------


def exact_distribution(spec):
    """Exact law of the centered functional S_n as a LatticeDistribution.

    DP over (state, lattice cell) of the lattice parts f_j - min f_j; no
    cell is dropped. The sweep goes over the chain's runs (`_Plan`) merged
    on their (kernel, shift array) pairs: a run is either raised to its
    length at once by binary powering (`_Power`) or stepped through
    (`_Moves`), whichever `_sweep_plan` prices lower; either way one call
    applies the whole run, and every other pass is one per distinct step
    or per run. A trailing stretch of stepped runs may instead be swept
    backward from the all-ones column and joined to the forward table by
    one polynomial product (`_backward_half`), so that each sweep ends
    about half as wide. Where its price pays for a second thread
    (`_pays`), the backward half is swept on the worker thread while this
    one sweeps the forward plan, so both halves' tables and step buffers
    exist at once; `_sweep_plan` counts both against the cell budget.
    Large powered products split their outputs between the two threads
    (`_poly_matmul`). No route, plan or summation order depends on the
    threads, so the masses have the same bits either way. Cell 0 sits at
    -sum_j E[f_j - min f_j], one math.fsum of the per-step means, so S_n
    is centered once, here, and the law never carries the raw size of the
    observables.

    Masses carry the relative error bounded in `_mean_tolerance` only
    while they stay in the normal float range. Without a backward half
    that is the runs' `error` summed, plus S u for the sum over states.
    With one it is the forward runs' `error` plus the backward steps'
    `error` plus S (min(L_fwd, L_bwd) + 1) u, the join's: each output is
    one summation tree over at most S (L + 1) nonnegative products, L + 1
    the shorter table's width and S the states at the cut. Masses below
    about 2.2e-308 carry no relative accuracy in any route: stepping
    rounds them at every step, toward the smallest subnormal 5e-324,
    which sticks (0.8 * 2**-1074 rounds back up) even where the exact
    mass is far smaller, while each powered product and the join round
    them once (their tails are lifted out of the subnormal range,
    `_poly_matmul`), so the routes end the support at different cells.
    The result must have mean 0 within the float error of the sweep (see
    `_mean_tolerance`) plus the snap error of every step, which moves
    each value and so the mean by at most that much; otherwise the
    centering is wrong and the run aborts.
    """
    d, diffs, plan, back, snap = _sweep_plan(spec)
    if d == 0.0:
        # degenerate: every f_j is constant, so S_n is a.s. 0
        return LatticeDistribution(0.0, 1.0, [1.0])
    table = spec.initial[:, None].copy()
    sweep = sum(count * step.error for step, count in plan + back)
    if back:
        halves = [functools.partial(_swept, np.ones((back[0][0].states_in, 1)), back),
                  functools.partial(_swept, table, plan)]
        column, table = _together(halves) if _pays(*_back_price(back)) else [half() for half in halves]
        masses = _poly_matmul(table[None], column[:, None])[0, 0]
        sweep += table.shape[0] * (min(table.shape[1], column.shape[1]) + 1) * np.finfo(float).eps / 2
    else:
        masses = _swept(table, plan).sum(axis=0)
    means = _step_means(spec._plan, diffs)
    origin = -math.fsum(means.tolist())  # value of cell 0
    nz = np.nonzero(masses)[0]
    lo, hi_nz = int(nz[0]), int(nz[-1])
    dist = LatticeDistribution(origin + d * lo, d, masses[lo : hi_nz + 1])
    tol = _mean_tolerance(spec._plan, means, dist.masses.size, sweep) + snap
    if abs(dist.mean) > tol:
        raise ValueError("centered functional has mean %g, expected 0 within %g" % (dist.mean, tol))
    return dist


def _sweep_plan(spec):
    """Lattice step, lattice part per plan observable, forward and backward plans and summed snap error of a sweep.

    Each distinct observable is snapped once (`_common_lattice`) and the
    runs merge on their (kernel, shift array) pairs. A merged run becomes
    a `_Power` through the whole run (count 1) or a `_Moves` applied count
    times, whichever costs less for its shape and starting width; each is
    built once per distinct pair and run length. The chain is refused
    before any table exists if its table, with the most cells one powered
    product holds beside it (`_Power.price`), could outgrow _CELL_BUDGET:
    the table of any run of steps is at most max(states) * (1 + sum of the
    steps' widest shifts). The backward plan (`_backward_half`) is empty
    unless both halves' tables fit the budget at once, S (1 + the width)
    cells as the two threads of `exact_distribution` grow them side by
    side, with the join and any forward product's holdings beside them;
    the refusal counts that sum.
    """
    chain = spec._plan
    d, diffs, shifts, numbers, snaps = _common_lattice(chain.observables, chain.firsts)
    keys, runs = _merged([(k, numbers[f]) for k, f, _, _ in chain.runs], chain.runs)
    pairs = [(chain.kernels[k], shifts[s]) for k, s in keys]
    moves = [_Moves(*pair) for pair in pairs]
    powers, plan, stepped, columns, held = {}, [], [], 1, 0
    for i, _, count in runs:
        if (i, count) not in powers:
            powers[i, count] = _Power(*pairs[i], count)
        seconds, cells = powers[i, count].price(columns)
        if seconds < moves[i].cost(count, columns):
            plan.append((powers[i, count], 1))
            held = max(held, cells)
            stepped = []
        else:
            plan.append((moves[i], count))
            stepped.append((i, columns))
        columns += count * moves[i].width
    # with a backward half both tables grow at once, the forward one to
    # columns - w cells and the backward one to w + 1, w its width, and a
    # forward product's holdings come beside both
    room = _CELL_BUDGET - chain.states * (columns + 1)
    plan, back, joined = _backward_half(plan, stepped if held <= room else [], pairs, columns, room)
    cells = chain.states * (columns + bool(back)) + max(held, joined)
    if cells > _CELL_BUDGET:
        raise ValueError(
            "lattice step %g needs up to %d DP cells, above the budget of %d; "
            "only the law needs the table: cumulants, expand and scan-stationary "
            "need none" % (d, cells, _CELL_BUDGET)
        )
    return d, diffs, plan, back, sum(count * snaps[f] for _, f, _, count in chain.runs)


def _backward_half(plan, stepped, pairs, columns, room):
    """(forward plan, backward plan, cells the join holds) of a sweep from both ends.

    The law factors at any step h into the forward table alpha_h =
    nu P_1(z) ... P_h(z) and the backward column beta_h =
    P_(h+1)(z) ... P_n(z) 1: the mass of cell c is
    sum_x sum_(a+b=c) alpha_h[x, a] beta_h[x, b] (the forward-backward
    factorization of Baum, Petrie, Soules and Weiss, Ann. Math. Statist.
    41, 1970). A backward step is new[x, c] = sum_y K[x, y]
    old[y, c - D[x, y]], a `_Moves` of (K^T, D^T), built once per
    (kernel, shift array) pair `pairs[i]`. `stepped` holds (i, start
    columns) of the trailing stepped runs of `plan`, whose widths add up
    to `columns` - 1. The backward half takes them from the
    chain's end to the midpoint of the total width, splitting the run the
    midpoint lands in, and lists them in the order they are applied.
    Powered runs are never cut or transposed: their products cost by
    nonzero spans, which `_Power.price` does not see, so only the linear
    `_Moves.cost` and `_convolve_cost` price the split. It is taken when
    the backward steps from one column plus the join cost less than the
    same steps forward and the join (`_poly_matmul`: both tables and
    their lifted tails, the output and two lift arrays) fits in `room`
    cells, what the budget leaves beside both halves' tables; otherwise
    the plan comes back whole with no backward half.
    """
    half = (columns - 1) // 2
    forward, back, transposed = list(plan), [], {}
    width, saved = 0, 0.0
    for i, start in reversed(stepped):
        if width >= half:
            break
        moves, count = forward.pop()
        take = min(count, -(-(half - width) // moves.width)) if moves.width else count
        if take < count:
            forward.append((moves, count - take))
        if i not in transposed:
            # in C order, as the forward groups are: with a transposed view's
            # F-order groups, chain64's backward steps ran 10-30% slower
            transposed[i] = _Moves(*(np.ascontiguousarray(a.T) for a in pairs[i]))
        saved += moves.cost(take, start + (count - take) * moves.width)
        back.append((transposed[i], take))
        width += take * moves.width
    if not back:
        return plan, [], 0
    cut = back[-1][0].states  # states at the cut: rows of the first kernel past it
    spent = _back_price(back)[0] + cut * _convolve_cost(columns - width, width + 1)
    joined = 2 * cut * (columns + 1) + 3 * columns
    if spent >= saved or joined > room:
        return plan, [], 0
    return forward, back, joined


def _back_price(back):
    """Estimated seconds and numpy calls of the steps of a backward plan from the all-ones column."""
    seconds, calls, width = 0.0, 0, 0
    for step, count in back:
        seconds += step.cost(count, width + 1)
        calls += count * step.calls(width + 1)
        width += count * step.width
    return seconds, calls


def _pays(seconds, calls):
    """Whether work priced `seconds` in `calls` numpy calls gains from a second thread.

    Each call hands the GIL over once, and the hand-off of the work and
    of its result twice more: the price must pass _HANDOFF for each.
    """
    return seconds > _HANDOFF * (calls + 2)


def _swept(table, plan):
    """The table after every (step, count) of a plan, in order."""
    for step, count in plan:
        table = step.run(table, count)
    return table


@functools.lru_cache(maxsize=None)
def _worker():
    """The one worker thread of the chain DP, started by its first hand-off."""
    return concurrent.futures.ThreadPoolExecutor(1, thread_name_prefix="edgekit-dp")


def _together(jobs):
    """Results of the zero-argument calls `jobs`, in order: the last runs here, the others on the worker thread.

    A job the worker has not started once this thread is done is taken
    back and run here, so a busy worker (another caller's, or a backward
    half beside which a powered product is split) only costs the queueing.
    An exception of any job reaches the caller as it was raised; where the
    job run here raises, the others are cancelled or waited for first, so
    no work outlives the call.
    """
    futures = [_worker().submit(job) for job in jobs[:-1]]
    try:
        last = jobs[-1]()
    except BaseException:
        for future in futures:
            future.cancel()
        concurrent.futures.wait(futures)
        raise
    return [job() if future.cancel() else future.result() for job, future in zip(jobs, futures)] + [last]


def _mean_tolerance(chain, means, cells, sweep):
    """First-order forward error bound on the computed mean of S_n.

    n steps, S states, K support cells, u = eps/2 the unit roundoff, the
    step means E g_j of the lattice parts g_j = f_j - min f_j in `means`,
    F = sum_j max|g_j - E g_j| = sum_j max|f_j - E f_j|, delta the largest
    row-sum defect of the initial law and the kernels (at most 1e-12 by
    validation), and `sweep` the relative error the sweep's runs add to
    every mass (`_Moves.error` per step, `_Power.error` per run, and the
    join's S (min(L_fwd, L_bwd) + 1) u where a backward half is swept).
    The masses carry relative error <= sweep + S u + (n+1) delta after the
    sum over states (a join sums over states itself, so there the S u is
    counted twice). The lattice parts lie in [0, 2 max|g_j - E g_j|], so
    their means, their partial sums and the cell values d c stay within
    2F. Each mean comes from a marginal with relative error <= n S u
    (`_step_laws`) and two S-term sums, so the fsum origin is off by <=
    ((n + 2) S + 1) u 2F + 2 n delta F, and a support value by 3 u F more.
    The K-term mean sum adds <= (K+1) u F.
    With |value| <= F the total is below
    4 (sweep + (n S / 2 + n) eps + (n+1) delta + (K+S+2) eps) F, which for
    a sweep of `_Moves` alone is the 4 (n (S+1) eps + ...) F of stepping.
    """
    n, states = means.size, chain.states
    # g lies in [0, max f - min f]; rounding is monotone, so max|g - mu| is at an end
    spans = np.array([float(f.max()) - float(f.min()) for f in chain.observables])
    observables = [f for _, f, _, _ in chain.runs]
    hi = np.repeat(spans[observables], [count for *_, count in chain.runs])
    scale = float(np.maximum(hi - means, means).sum())
    defect = max([abs(float(chain.initial.sum()) - 1.0)]
                 + [float(np.max(np.abs(k.sum(axis=1) - 1.0))) for k in chain.kernels])
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
    live shift. Q is raised by binary powering over `_squarings`: v <- v
    Q^(2^k) for each set bit k of the length, lowest first. The squares'
    sizes and costs do not depend on the table, so they are priced once,
    when the power is built, from the same levels the run reads. Every
    polynomial product is a direct convolution of nonnegative
    coefficients (`_poly_matmul`), so no cancellation happens and the
    masses keep a relative error bound:

    a product of polynomials with relative errors e_a and e_b, each output
    coefficient one summation tree over at most S (L + 1) nonnegative
    products for L the lower degree, errs by <= e_a + e_b + S (L + 1) u.
    Squaring from Q^m to Q^(2m) so gives e_2m <= 2 e_m + S (m w/g + 1) u,
    e_(2^b) <= S u (b 2^(b-1) w/g + 2^b - 1), and applying Q^(2^b) to the
    table adds e_(2^b) + S (2^b w/g + 1) u = S u 2^b ((b/2 + 1) w/g + 1).
    Over the set bits of r this is at most
    S r ((B/2 + 1) w/g + 1) u, B = floor(log2 r): `error`.

    The lifted tails of `_poly_matmul` leave this bound as it is: each
    output is still one summation tree over the same nonnegative
    products, a product of lifted factors is the exact product times a
    power of two, and scaling by a power of two is exact, so only an
    output below 2**-1022 rounds once more, as a subnormal product would.
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
        # (bit k of the length, size of Q^(2^k), seconds of the square after
        # it, none after the top) per level k, lowest first, and the most a
        # square holds; a square's factors are one array
        n_in, n_out = kernel.shape
        digits = (length >> k & 1 for k in range(length.bit_length()))
        sizes = _squarings(self.reduced + 1, lambda s: 2 * s - 1)
        self.levels = [(bit, size, n_in * n_out * n_out * _convolve_cost(size, size) if k < bits else 0.0)
                       for k, (bit, size) in enumerate(zip(digits, sizes))]
        self.held = max([2 * n_in * n_out * size + 3 * n_in * n_out * (2 * size - 1)
                         for _, size, _ in self.levels[:-1]], default=0)

    def price(self, columns):
        """Estimated seconds to apply the run to a table `columns` wide, and the most cells a product holds.

        `_poly_matmul` holds each factor and its lifted tails, its output
        and up to two lift arrays of the output's size.
        """
        n_in, n_out = self.kernel.shape
        g = self.stride
        phase = -(-columns // g)
        seconds, held = 0.0, self.held
        # in the run's order: each level's application, then the square after it
        for bit, size, square in self.levels:
            if bit:
                seconds += g * n_in * n_out * _convolve_cost(phase, size)
                held = max(held, 2 * (g * n_in * phase + n_in * n_out * size)
                           + 3 * g * n_out * (phase + size - 1))
                phase += size - 1
            seconds += square
        return seconds, held

    def run(self, table, count):
        """The table after `count` passes of the whole run; a plan makes one."""
        # Q(z), built here: the plan prices and budgets a run before any table exists
        q = np.zeros(self.kernel.shape + (self.reduced + 1,))
        xs, ys = np.nonzero(self.kernel)
        q[xs, ys, self.exponents[xs, ys]] = self.kernel[xs, ys]
        g = self.stride
        for _ in range(count):
            n_in, hi = table.shape
            # v[phi, x] is row x of stride phase phi
            if g == 1:
                v = table[None]
            else:
                v = np.zeros((g, n_in, -(-hi // g)))
                for phase in range(g):
                    v[phase, :, : -(-(hi - phase) // g)] = table[:, phase::g]
            for (bit, _, _), power in zip(self.levels, _squarings(q, lambda p: _poly_matmul(p, p))):
                if bit:
                    v = _poly_matmul(v, power)
            out = v.transpose(1, 2, 0).reshape(v.shape[1], -1)
            table = out[:, : hi + self.length * self.width]
        return table


def _poly_matmul(a, b):
    """Product of matrices of polynomials, a[x, k] and b[k, y] coefficient arrays.

    out[x, y] = sum_k a[x, k] * b[k, y], each product by `_convolve_into`
    and the sum in increasing k. Each polynomial enters as its `_pieces`:
    a head and tails lifted by 2**563, so no product of two pieces falls
    below 2**-1022, where each one would cost a microcode assist. The
    products of each lift level (0, 1 or 2 lifted factors) add up apart
    and are scaled back once per output, level 2 as
    (level 2 * 2**-563 + level 1) * 2**-563. Outputs that no tail reaches
    keep the bits of one convolution of whole spans per pair.

    Outputs go in groups (`_output_groups`): one, or two of about equal
    price where the product's price pays for a second thread (`_pays`),
    the first filled on the worker thread beside the second
    (`_together`). Each output is written by one group only, with its
    calls in the same k-then-piece order, so its bits do not depend on
    the grouping.
    """
    shape = (a.shape[0], b.shape[1], a.shape[2] + b.shape[2] - 1)
    pieces_a = _pieces(a)
    pieces_b = pieces_a if b is a else _pieces(b)
    levels, grow = [np.zeros(shape)], threading.Lock()

    def fill(outputs):
        for x, y in outputs:
            for factor, other in zip(pieces_a[x], pieces_b):
                for (i, p, lift_p), (j, q, lift_q) in itertools.product(factor, other[y]):
                    level = lift_p + lift_q
                    if level >= len(levels):
                        with grow:  # both groups may reach a new level at once
                            while len(levels) <= level:
                                levels.append(np.zeros(shape))
                    _convolve_into(levels[level][x, y, i + j :], p, q)

    groups = _output_groups(pieces_a, pieces_b, a.shape[2], b.shape[2])
    _together([functools.partial(fill, group) for group in groups])
    out, lifted = levels[0], levels[-1]
    if len(levels) == 3:
        lifted *= _UNLIFT
        lifted += levels[1]
    if len(levels) > 1:
        lifted *= _UNLIFT
        out += lifted
    return out


def _output_groups(pieces_a, pieces_b, m, n):
    """The (x, y) outputs of a product of these pieces, in one group or in two of about equal price.

    Two where a second thread pays (`_pays`) for the `_convolve_cost` of
    the product's pairs of pieces; no pair costs more than one of whole
    factors of m and n coefficients, so below _HANDOFF none are priced.
    """
    outputs = [(x, y) for x in range(len(pieces_a)) for y in range(len(pieces_b[0]))]
    if len(outputs) < 2 or _convolve_cost(m, n) <= _HANDOFF:
        return [outputs]
    prices = [[_convolve_cost(p.size, q.size) for factor, other in zip(pieces_a[x], pieces_b)
               for (_, p, _), (_, q, _) in itertools.product(factor, other[y])] for x, y in outputs]
    totals = list(itertools.accumulate(map(math.fsum, prices)))
    if not _pays(totals[-1], sum(map(len, prices))):
        return [outputs]
    cut = min(max(1, bisect.bisect_left(totals, totals[-1] / 2)), len(outputs) - 1)
    return [outputs[:cut], outputs[cut:]]


def _pieces(p):
    """(offset, coefficients, lift) pieces of each polynomial p[x, y], as nested lists.

    The head runs from the first coefficient of magnitude >= _LIFT_AT to
    the last one; the nonzero coefficients around it are the tails, times
    2**563 (lift 1). Coefficients are probabilities, or within 1e-15 of 0
    below it (kernel and initial entries pass down to -1e-15), so the
    nonzero coefficients of a lifted tail and the ends of a head have
    magnitudes in [2**-511, 2**52): no product of two of them falls below
    2**-1022 or overflows. An all-zero polynomial has no pieces.
    """
    lo, hi = _spans(p != 0.0)
    head_lo, head_hi = _spans(np.abs(p) >= _LIFT_AT)
    out = []
    for x, row in enumerate(p):
        out.append([])
        for y, poly in enumerate(row):
            i, j = lo[x][y], hi[x][y]
            a, b = (head_lo[x][y], head_hi[x][y]) if head_hi[x][y] else (j, j)
            pieces = [(a, poly[a:b], 0)] if a < b else []
            pieces += [(s, poly[s:e] * _LIFT, 1) for s, e in ((i, a), (b, j)) if s < e]
            out[-1].append(pieces)
    return out


def _spans(live):
    """First and one-past-last index of the True entries of each live[x, y], as lists.

    A row with none gets the span (0, 0).
    """
    lo = live.argmax(axis=2)
    hi = np.where(live.any(axis=2), live.shape[2] - live[:, :, ::-1].argmax(axis=2), 0)
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
    bytes are the same whatever the BLAS thread count. The D dense groups
    are stacked into one (D, S_in, S_out) array, so one np.matmul makes a
    chunk's D products: numpy calls gemm for each with the shapes and
    strides of a lone product, which keeps its bits, and the interpreter
    lock is handed over once for them, not D times.

    Every new entry is one summation tree over at most S_in nonnegative
    products, so a step adds at most S_in u to the relative error of a
    mass: `error`.
    """

    def __init__(self, kernel, shifts):
        n_in, n_out = kernel.shape
        self.states_in, self.states = n_in, n_out
        self.width = int(shifts.max())
        self.chunk = max(1, _BLAS_SERIAL // (n_in * n_out))
        self.dense, groups = [], []
        live = kernel != 0.0
        sparse = live.copy()
        values, counts = np.unique(shifts[live], return_counts=True)
        for s, nnz in zip(values.tolist(), counts.tolist()):
            if 16 * nnz >= n_out * (16 + n_in):
                group = live & (shifts == s)
                self.dense.append(s)
                groups.append(np.where(group, kernel, 0.0))
                sparse &= ~group
        self.stack = np.array(groups).reshape(len(groups), n_in, n_out)
        xs, ys = np.nonzero(sparse)
        self.sparse = list(zip(xs.tolist(), ys.tolist(),
                               shifts[xs, ys].tolist(), kernel[xs, ys].tolist()))
        self.error = n_in * np.finfo(float).eps / 2

    def calls(self, columns):
        """Numpy calls of one step from a table `columns` wide: a product and D adds per chunk, one per pair."""
        return (bool(self.dense) + len(self.dense)) * (1 + columns // self.chunk) + len(self.sparse)

    def cost(self, count, columns):
        """Estimated seconds of `count` steps from a table `columns` wide, at one call per group and chunk."""
        n_in, n_out = self.states_in, self.states
        per_column = (len(self.dense) * (n_in * n_out * _GEMM_MAD + n_out * _ROW_ADD)
                      + len(self.sparse) * _ROW_ADD)
        calls = len(self.dense) * (1 + columns // self.chunk) + len(self.sparse)
        return count * (calls * _CALL + (columns + (count - 1) * self.width / 2) * per_column)

    def run(self, table, count):
        """The table after `count` steps.

        A chunk's products land in one buffer, reused across the run. A
        run of products alone goes cells-major: the table is transposed
        once in and once out, and each step walks row chunks of the
        transposed table, adding each group's product to a contiguous
        block of rows. A run with pairs stays state-major, each pair added
        along a row in the loop's (x, y) order: on the 2-core VM a pair's
        pass down a column of a transposed table of 16 to 64 states and
        3000 or more cells took 3 to 14 ns per cell, against 1 to 2 ns
        along a row. Its chunks are walked from the right, so each cell
        gets the groups' products in group order (ascending shifts).
        """
        rows = min(self.chunk, table.shape[1] + (count - 1) * self.width)  # the widest table read
        if self.sparse:
            products = np.empty((len(self.dense), self.states, rows))
            stack = self.stack.transpose(0, 2, 1)
            for _ in range(count):
                hi = table.shape[1]
                new = np.zeros((self.states, hi + self.width))
                for c in reversed(range(0, hi if self.dense else 0, self.chunk)):
                    part = products[:, :, : min(self.chunk, hi - c)]
                    np.matmul(stack, table[:, c : c + self.chunk], out=part)
                    for s, product in zip(self.dense, part):
                        new[:, c + s : c + s + product.shape[1]] += product
                for x, y, s, p in self.sparse:
                    new[y, s : s + hi] += p * table[x]
                table = new
            return table
        cells = table.T.copy()
        products = np.empty((len(self.dense), rows, self.states))
        for _ in range(count):
            hi = cells.shape[0]
            new = np.zeros((hi + self.width, self.states))
            for c in range(0, hi, self.chunk):
                # no name outlives the step holding a view of the old table
                part = products[:, : min(self.chunk, hi - c)]
                np.matmul(cells[c : c + self.chunk], self.stack, out=part)
                for s, product in zip(self.dense, part):
                    new[c + s : c + s + product.shape[0]] += product
            cells = new
        return cells.T.copy()


# -- transfer-operator series ------------------------------------------------


def cumulant_series(spec, kmax):
    """kappa_1..kappa_kmax of S_n from the perturbed transfer operator.

    E exp(z S_n) = nu_0 prod_j M_j(z) 1, M_j(z) = K_j o exp(z F_j), each a
    power series truncated at z^kmax; a run of equal steps (`_series_runs`)
    is raised to its length by binary powering over `_squarings`
    (`_series_power`). Every product is divided by a scalar series whose
    log joins one list for the whole chain (`_scaled_mul`), so no raw
    moment of S_n is formed and no term is copied per run, and kappa_k =
    k! [z^k] of the logs summed by math.fsum. kappa_1 is 0.0: S_n is
    centered by definition.
    Coefficient k depends only on coefficients <= k, so kappa_k has the
    same bits whatever kmax is asked for. A cumulant that is not finite
    (step series whose z^k coefficients (range/2)^k / k! overflow) is
    refused, naming the lowest such order.
    """
    return _cumulant_series(spec, _check_kmax(kmax), _SeriesStore())


def _check_kmax(kmax):
    """A top cumulant order as an int; refused unless whole and >= 1."""
    if whole_number(kmax, "cumulant order kmax") < 1:
        raise ValueError("cumulant order kmax must be >= 1, got %d" % kmax)
    return int(kmax)


def _cumulant_series(spec, kmax, store):
    """`cumulant_series`, kmax read by `_check_kmax`, with the step series and their squares from `store`."""
    try:
        series, runs = _series_runs(spec, kmax, store)
    except _SeriesOverflow as err:
        # kappa_k reads coefficients <= k alone, so the cumulants below the
        # overflowing order are those of the series below it, and the
        # refusal names the lowest that is not finite
        if err.order > 2:
            _cumulant_series(spec, err.order - 1, store)
        raise
    v = np.zeros((kmax + 1, 1, spec.initial.size))
    v[0, 0] = spec.initial
    logs = []
    with np.errstate(over="ignore", invalid="ignore"):  # the check of kappa below says so
        for i, _, count in runs:
            v, terms = _scaled_mul((v, []), _series_power(store.powers(series[i]), count, _scaled_mul))
            logs += terms
    kappas = [0.0] + [math.fsum(t[k] for t in logs) for k in range(1, kmax)]
    for k, kappa in enumerate(kappas, start=1):
        if not math.isfinite(kappa):
            raise ValueError(_NOT_FINITE % (k, k))
    return kappas


class _SeriesOverflow(ValueError):
    """The refusal of a step series whose z^order coefficients overflow."""

    def __init__(self, order):
        super().__init__(_NOT_FINITE % (order, order))
        self.order = order


class _SeriesStore:
    """Step series and the squares `_squarings` makes of them, each built once.

    A series is kept per (kernel, midrange-shifted observable, order),
    keyed by the kernel's id, which its entry keeps alive, and the
    observable's bytes; its squares are kept per series. A `ChainModel`
    owns one store for all its n, so every n shares one series and one set
    of squares; the public engines take a fresh store per call.
    """

    def __init__(self):
        self._series = {}  # (id(kernel), bytes of shifted f, order) -> (kernel, M)
        self._squares = {}  # id(M) -> (squares so far, the `_squarings` still to come)

    def series(self, kernel, g, kmax):
        """M(z) of shape (kmax + 1, S_in, S_out) for one step of kernel K and shifted observable g.

        The first order whose coefficients (range/2)^k / k! overflow is refused.
        """
        key = id(kernel), g.tobytes(), kmax  # g has the kernel's shape
        if key not in self._series:
            coeffs = [kernel]
            with np.errstate(over="ignore", invalid="ignore"):
                for b in range(1, kmax + 1):
                    coeffs.append(coeffs[-1] * g / b)
            bad = [k for k, c in enumerate(coeffs) if not np.isfinite(c).all()]
            if bad:
                raise _SeriesOverflow(bad[0])
            self._series[key] = kernel, np.stack(coeffs)
        return self._series[key][1]

    def powers(self, series):
        """(series, []), its square, its fourth power, ... under `_scaled_mul`, each built once."""
        if id(series) not in self._squares:
            self._squares[id(series)] = [], _squarings((series, []), lambda p: _scaled_mul(p, p))
        done, more = self._squares[id(series)]
        for k in itertools.count():
            if k == len(done):
                done.append(next(more))
            yield done[k]


def _series_runs(spec, kmax, store):
    """(series, runs): each distinct step series M(z) of the chain once, and its runs (`_Plan`) merged on them.

    M has shape (kmax + 1, S_in, S_out), from `store`. Each observable is
    shifted by its midrange first: kappa_k, k >= 2, is shift invariant,
    and the z^k coefficient stays within (range/2)^k / k!.
    """
    chain = spec._plan
    shifted = [f - 0.5 * (float(f.max()) + float(f.min())) for f in chain.observables]
    for g, step in zip(shifted, chain.firsts):
        if not np.isfinite(g).all():
            raise ValueError("observable %d overflows when shifted by its midrange" % step)
    shifted, numbers = _numbered(shifted)
    keys, runs = _merged([(k, numbers[f]) for k, f, _, _ in chain.runs], chain.runs)
    return [store.series(chain.kernels[k], shifted[g], kmax) for k, g in keys], runs


def _series_mul(a, b, op=np.matmul):
    """Truncated product of power series with array coefficients a[k], b[k].

    Coefficient k is op(a[i], b[k - i]) summed over i <= k in one fixed
    order, on arrays whose shapes depend on k alone, so it comes out the
    same bits whatever the truncation order.
    """
    return np.stack([op(a[: k + 1], b[k::-1]).sum(axis=0) for k in range(len(a))])


def _series_power(powers, length, mul):
    """base**length (length >= 1): the set-bit powers base^(2^k) of `powers`, multiplied lowest first by `mul`.

    `powers` is `_squarings` of the base, or a store's copy of it
    (`_SeriesStore.powers`); zip stops at the last bit.
    """
    bits = (length >> k & 1 for k in range(length.bit_length()))
    return functools.reduce(mul, (p for bit, p in zip(bits, powers) if bit))


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


def variance_profile(spec):
    """Var(S_k) for k = 0..n (index 0 holds 0.0), from the order-2 series.

    Every prefix comes by doubling within each run of equal steps
    (`_series_runs`, `_prefix_variances`); no law is built.
    """
    store = _SeriesStore()
    series, runs = _series_runs(spec, 2, store)
    return _prefix_variances(series, runs, spec.initial, store)


def _prefix_variances(series, runs, law, store):
    """Var of the sum over steps 0..k-1 for every k, from X_0 at `law`; index 0 holds 0.0.

    `series` and `runs` come from `_series_runs` at order 2. Within a run
    the rows v M^i, each divided by its total (`_order2_rows`), come by
    doubling as in `_step_laws`: rows [m, 2m) are rows [0, m) times P_m,
    the normalized M^m of `_scaled_mul` that `store.powers` yields next. A
    row's log terms are then those of its source row, those of P_m and the
    one its own division adds.
    The terms of P_m are doubled exactly and fsum'd to a pair (H, E)
    whose sum is theirs to within u^2, and each row carries its variance
    as such a pair, added to by vectorised TwoSum, so Var(S_k) keeps its
    digits however long the run. A block of rows holds at most
    _ROW_FLOATS coefficients per power of z and is doubled from the last
    row of the block before it. A run shorter than _SHORT_RUN steps does
    not pay for its powers and is walked one step at a time (`_walk`).
    """
    out = np.zeros(1 + sum(count for *_, count in runs))
    row = np.zeros((3, 1, law.size))
    row[0, 0] = law
    hi = lo = 0.0
    for i, start, count in runs:
        if count < _SHORT_RUN:
            for k, (row, hi, lo) in enumerate(_walk(row, hi, lo, itertools.repeat(series[i], count)), start + 1):
                out[k] = hi + lo
            continue
        cap = max(2, _ROW_FLOATS // max(series[i].shape[1:]))
        powers, squares = [], store.powers(series[i])
        done = 0
        while done < count:
            size = min(cap, count - done + 1)
            rows, his, los = row, np.array([hi]), np.array([lo])
            while his.size < size:
                m = his.size  # a power of two: 2**level
                level = m.bit_length() - 1
                if level == len(powers):
                    pair = next(squares)
                    terms = [t[1] for t in pair[1]]
                    big = math.fsum(terms)
                    powers.append((pair[0], big, math.fsum(terms + [-big])))
                power, big, small = powers[level]
                take = min(m, size - m)
                q, totals = _order2_rows(rows[:, :take], power)
                x = _log_variance(totals)
                h, e1 = _two_sum(his[:take], big)
                h, e2 = _two_sum(h, x)
                his = np.concatenate([his, h])
                los = np.concatenate([los, los[:take] + small + e1 + e2])
                # the last level needs no sources after it
                rows = q if his.size == size else np.concatenate([rows, q], axis=1)
            out[start + done + 1 : start + done + size] = his[1:] + los[1:]
            row, hi, lo = rows[:, -1:], float(his[-1]), float(los[-1])
            done += size - 1
    return out


def _walk(row, total, comp, steps):
    """(row, total, comp) after each of `steps`, walked one at a time from a lone row.

    `row` has shape (3, 1, width >= S_in of the first step) and (total,
    comp) is its variance as a `_two_sum` compensated sum in Python floats. Each step
    is `_order2_rows` on the row and the log term of its totals. OpenBLAS
    rounds a gemm row by the row count, so a lone row need not get a
    batch's bits (104 of 374 rows of random 5- and 17-state batches of 2
    to 32 rows differed in their last bits on one SkylakeX core): the
    blockings match `tests/reference_blocking.py` on that core, not by a
    BLAS guarantee (ROADMAP item 2).
    """
    for m in steps:
        row, totals = _order2_rows(row[:, :, : m.shape[1]], m)
        s0, s1, s2 = totals.ravel().tolist()
        total, err = _two_sum(total, 2.0 * s2 / s0 - (s1 / s0) ** 2)
        comp += err
        yield row, total, comp


def _order2_rows(v, series):
    """Rows v_r(z) = v[0, r] + v[1, r] z + v[2, r] z^2 times M(z), each divided by its total.

    Returns the quotients, shape (3, rows, S_out), and the totals s(z),
    shape (3, rows). For a given row count, row r gets the same bits
    whatever values the rows beside it hold: a row of a BLAS product does
    not depend on the values of the other rows, and every other operation
    is elementwise or a sum along one row. Only the six products v_i M_b
    with i + b <= 2 are kept, and the rows v_i with i + b > 2 are zeros in
    M_b's product: v_2 M_2 and the like would be discarded, and can
    overflow where every kept product is finite. Each product still has
    3 * rows rows, as the BLAS rounds a row by the row count (measured: 5
    and 17 states, 1 to 7 rows).
    """
    _, n_rows, n_in = v.shape
    rows = np.zeros((3, 3, n_rows, n_in))  # rows[b, i] = v_i where i + b <= 2
    rows[0] = v
    rows[1, :2] = v[:2]
    rows[2, 0] = v[0]
    prod = _rows_matmul(rows.reshape(3, -1, n_in), series).reshape(3, 3, n_rows, -1)
    # prod[b, i] = v_i M_b; p_k = sum over b + i = k, turned in place into the quotient
    p = prod[0]
    p0, p1, p2 = p
    tail = p[1:]
    tail += prod[1, :2]
    p2 += prod[2, 0]
    s = p.sum(axis=2)
    s0, s1, s2 = s[:, :, None]
    p0 /= s0
    p1 -= s1 * p0
    p1 /= s0
    p2 -= s1 * p1
    p2 -= s2 * p0
    p2 /= s0
    return p, s


def _log_variance(s):
    """2 s_2/s_0 - (s_1/s_0)^2 for each column of totals s(z): the variance log s adds.

    The square is libm's pow, which Python's float ** 2 calls, so a row
    gets the bits `_walk` gives it; numpy's square rounds
    differently in about one case in 1,200.
    """
    s0, s1, s2 = s
    square = np.fromiter(map(math.pow, (s1 / s0).tolist(), itertools.repeat(2.0)), float, s0.size)
    return 2.0 * s2 / s0 - square


def _rows_matmul(rows, series):
    """rows[b] @ series[b] for each b, stacked, in products of at most _BLAS_SERIAL multiply-adds."""
    chunk = max(1, _BLAS_SERIAL // (series.shape[1] * series.shape[2]))
    if rows.shape[1] <= chunk:
        return np.matmul(rows, series)
    out = np.empty((series.shape[0], rows.shape[1], series.shape[2]))
    for i in range(0, rows.shape[1], chunk):
        np.matmul(rows[:, i : i + chunk], series, out=out[:, i : i + chunk])
    return out


def _two_sum(a, b):
    """a + b and its rounding error, exactly, elementwise (Knuth's TwoSum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


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
    px = spec.initial
    for kernel in spec.kernels[:j]:
        px = px @ kernel
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

    One walk over the runs of equal order-2 step series (`_series_runs`),
    with the laws of their steps (`_step_laws`), gives the law of each X_j
    and the step variances behind the default target. Var(S_k) comes from
    the same runs (`_prefix_variances`, as in `variance_profile`), the
    blocks from walking every candidate start in lockstep
    (`_greedy_blocks`); no law of S_k is built.
    """
    return _variance_decomposition(spec, target, _SeriesStore())


def _check_target(target):
    """A blocking target: None (the engine's default) or finite and positive."""
    if target is not None and not (math.isfinite(target) and target > 0.0):
        raise ValueError("blocking target must be finite and positive, got %r" % target)
    return target


def _variance_decomposition(spec, target, store):
    """`variance_decomposition` with the step series and their squares taken from `store`."""
    target = _check_target(target)
    n = spec.n_steps
    series, runs = _series_runs(spec, 2, store)
    laws = _step_laws(spec._plan)
    step_var = 0.0
    for i, start, count in runs:
        m, run = series[i], laws[start : start + count, : series[i].shape[1]]
        # Var f_j = E g^2 - (E g)^2 for g = f_j less its midrange, |g| <= range / 2
        spread = 2.0 * (run @ m[2].sum(axis=1)) - (run @ m[1].sum(axis=1)) ** 2
        step_var = max(step_var, float(spread.max()))
    with np.errstate(over="ignore", invalid="ignore"):
        sigma2 = _prefix_variances(series, runs, spec.initial, store)
    if not np.isfinite(sigma2).all():
        raise ValueError(_NOT_FINITE % (2, 2))
    if sigma2[-1] <= 0.0:
        raise ValueError("degenerate functional: Var(S_n) = 0")
    if target is None:
        target = 4.0 * step_var + 1.0
    blocks, block_vars = _greedy_blocks(series, runs, laws, target)
    overshoot = max([v - 2.0 * target for v in block_vars], default=0.0)
    # a_k is Var(S) at the end of the last block done by step k (sigma2[0] = 0)
    done = np.zeros(n + 1, dtype=np.int64)
    for _, end in blocks:
        done[end + 1] = end + 1
    a = sigma2[np.maximum.accumulate(done)]
    return BlockingReport(
        target=float(target),
        blocks=tuple(blocks),
        block_variances=tuple(block_vars),
        sigma2=sigma2,
        a=a,
        b=sigma2 - a,
        overshoot=float(max(0.0, overshoot)),
        a_monotone=bool(np.all(np.diff(a) >= -PROFILE_TOL)),
    )


def _greedy_blocks(series, runs, laws, target):
    """Greedy blocks (start, end), inclusive, and their variances.

    A block starts at step 0, or right after the block before it, and ends
    at the first step where the variance of its own sum, from X_start at
    its law `laws[start]`, reaches `target`; a block that runs off the end
    is dropped. `series` and `runs` come from `_series_runs` at order 2.
    Each block's variance is summed as `_walk` sums it, from `_order2_rows`
    on its row, whose last bits can depend on the batch (see `_walk`).

    The walks run in lockstep: every candidate start c of a window walks
    its own block at once, round t taking row c through step c + t with
    one batched `_order2_rows` per distinct step series among the rows.
    From the head start h, the next start is the end of h's block plus
    one, so the chain is read off the rows as they resolve. Row c retires
    when it reaches the target, runs off the end, or can start no block:
    when c < h, or when h < c <= h + t + 1 while h's block, walked
    through step h + t, is still below the target. A round costs one
    batched product per distinct step series among the rows, so a window
    whose rows meet g distinct series allows blocks of _LOCKSTEP_AGE // g
    steps: once the head's block has run that long the other rows go and
    its row walks on alone (`_walk`), and so do the blocks after a
    block that long until one is shorter.
    """
    code = np.repeat([i for i, _, _ in runs], [count for _, _, count in runs])  # each step's series
    n, width = code.size, laws.shape[1]
    blocks, block_vars = [], []
    window = max(1, _LOCKSTEP_FLOATS // width)
    head = span = 0  # span: steps after the start of the last block
    while head < n:
        lo = head
        limit = _LOCKSTEP_AGE
        if len(series) > 1:
            limit //= np.unique(code[lo : lo + window]).size
        starts = np.arange(lo, min(n, lo + (window if span < limit else 1)))
        last = int(starts[-1])
        state = np.zeros((3, starts.size, width))
        state[0] = laws[starts]
        total = np.zeros(starts.size)
        comp = np.zeros(starts.size)
        ends = np.full(starts.size, -2)  # -2 walking, -1 ran off the end
        found = np.zeros(starts.size)
        for age in itertools.count():
            if last + age >= n:  # rows whose block runs off the end go
                live = int(np.searchsorted(starts, n - age))
                ends[starts[live:] - lo] = -1
                if not live:  # the head's among them
                    return blocks, block_vars
                starts, state, total, comp = starts[:live], state[:, :live], total[:live], comp[:live]
                last = int(starts[-1])
            if starts.size == 1:  # the head walks on alone; -1: it ran off the end
                ahead = map(series.__getitem__, code[head + age :])
                walk = enumerate(_walk(state, float(total[0]), float(comp[0]), ahead), head + age)
                ends[head - lo], found[head - lo] = next(
                    ((end, t + c) for end, (_, t, c) in walk if t + c >= target), (-1, 0.0))
                hit = None
            else:
                at = starts + age
                kinds = code[at]
                if kinds[0] == kinds[-1] and (len(series) == 1 or (kinds == kinds[0]).all()):
                    groups = ((kinds[0], slice(None)),)
                else:
                    groups = [(kind, np.flatnonzero(kinds == kind)) for kind in np.unique(kinds)]
                x = np.empty(starts.size)
                for kind, idx in groups:
                    m = series[kind]
                    q, totals = _order2_rows(state[:, idx, : m.shape[1]], m)
                    state[:, idx, : m.shape[2]] = q
                    x[idx] = _log_variance(totals)
                total, err = _two_sum(total, x)
                comp += err
                var = total + comp
                hit = var >= target
                ends[starts[hit] - lo] = at[hit]
                found[starts[hit] - lo] = var[hit]
            while head - lo < ends.size and ends[head - lo] != -2:
                end = int(ends[head - lo])
                if end < 0:
                    return blocks, block_vars
                blocks.append((head, end))
                block_vars.append(float(found[head - lo]))
                span = end - head
                head = end + 1
            if hit is None or head - lo >= ends.size:
                break
            keep = ~hit & ((starts == head) | ((starts > head + age + 1) & (age < limit)))
            if not keep.all():
                starts, state, total, comp = starts[keep], state[:, keep], total[keep], comp[keep]
                last = int(starts[-1])
    return blocks, block_vars


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
    """Write `spec` as a chain file: one [kernel.J] / [observable.J] pair per run of `spec.runs`."""
    lines = ["[meta]"] + (["name = %s" % spec.name] if spec.name else [])
    lines += ["steps = %d" % spec.n_steps, "", "[initial]", " ".join("%.17g" % v for v in spec.initial)]
    idx = 1
    for kernel, obs, count in spec.runs:
        for tag, mat in (("kernel", kernel), ("observable", obs)):
            lines += ["", "[%s.%d]" % (tag, idx)] + [" ".join("%.17g" % v for v in row) for row in mat]
            lines += ["repeat = %d" % count] if count > 1 else []
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
