import functools
import itertools
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from edgekit.cumulants import cumulants_to_moments, moments_to_cumulants
from edgekit.models import (
    ChainModel,
    LatticeDistribution,
    MarkovChainSpec,
    PiecewisePolyDistribution,
    builtin_model,
    builtin_model_names,
    cumulant_series,
    ellipticity_check,
    exact_distribution,
    load_chain_spec,
    psi_mixing_coefficient,
    save_chain_spec,
    variance_decomposition,
    variance_profile,
)
from edgekit.models.markov import (
    _common_lattice, _Moves, _order2_rows, _poly_matmul, _Power, _SeriesStore, _series_runs, _step_laws,
    _sweep_plan,
)
from edgekit.models.piecewise import _TRIM_REL, _shift_matrix, _snap_unique

from path_enumeration import enumerate_distribution, marginals, step_means
from reference_blocking import reference_blocks, reference_profile
from reference_dp import chunked_run, powered_error_bound, reference_law, textbook_step


# -- lattice basics ----------------------------------------------------------


def test_lattice_moments_and_cdf():
    d = LatticeDistribution(offset=-1.0, step=1.0, masses=[0.25, 0.5, 0.25])
    assert d.mean == pytest.approx(0.0, abs=1e-15)
    assert d.variance == pytest.approx(0.5, abs=1e-15)
    assert d.cdf(0.0) == pytest.approx(0.75)
    assert d.cdf_left(0.0) == pytest.approx(0.25)
    assert d.quantile(0.5) == pytest.approx(0.0)
    assert d.abs_moment(1) == pytest.approx(0.5)


def test_lattice_sf_is_the_suffix_sum():
    d = LatticeDistribution(offset=-1.0, step=1.0, masses=[0.25, 0.5, 0.25, 1e-20])
    assert d.sf(-2.0) == d.total_mass
    assert d.sf(0.0) == 0.25 + 1e-20  # 1 - cdf(0.0) would be 0.25
    assert d.sf(1.5) == 1e-20  # 1 - cdf(1.5) rounds to 0
    assert d.sf(2.0) == 0.0
    assert np.array_equal(d.sf(np.array([[-1.0], [0.5]])), [[0.75 + 1e-20], [0.25 + 1e-20]])


# -- lattice charfn by chirp-z ------------------------------------------------

_U = np.finfo(float).eps / 2  # unit roundoff


def _binomial_lattice(n, offset, step):
    masses = np.array([math.comb(n, j) for j in range(n + 1)], dtype=float) / 2.0**n
    return LatticeDistribution(offset, step, masses)


def _charfn_direct(dist, t, ks):
    """The dense sums sum_j p_j (i x_j)^k exp(i t x_j) that chirp-z replaced, one row per k."""
    x = dist.support
    w = np.stack([dist.masses * (1j * x) ** k for k in ks], axis=1)
    chunks = np.array_split(t, max(1, t.size // 2000))
    return np.concatenate([np.exp(1j * np.multiply.outer(c, x)) @ w for c in chunks]).T


def _charfn_bound(dist, t, k):
    """8 u log2(L) sum|w| + 16 u max|t| sum|w_j| (|x_j| + h): the argued bound."""
    x = dist.support
    aw = dist.masses * np.abs(x) ** k
    fft_len = 1 << (dist.masses.size + t.size - 2).bit_length()
    return (8 * _U * math.log2(fft_len) * aw.sum()
            + 16 * _U * np.max(np.abs(t)) * np.sum(aw * (np.abs(x) + dist.step)))


def _charfn_grid(npts, sigma):
    # the two grid shapes the scans use: the log-charfn profile window and
    # the tail-integral grid out to 8 sigma^3 (order m = 6)
    if npts == 241:
        return np.linspace(-7.0, 7.0, npts) / sigma
    return np.linspace(0.5, 8.0 * sigma**3, npts)


@pytest.mark.parametrize("npts", [241, 20001])
@pytest.mark.parametrize("n", [16, 64, 256, 512])
def test_lattice_charfn_chirp_z_matches_direct_sum(n, npts):
    # offset 0.1 - 0.15 n and step 0.3: 0 is not a support point
    d = _binomial_lattice(n, 0.1 - 0.15 * n, 0.3)
    t = _charfn_grid(npts, 0.15 * math.sqrt(n))
    ks = (0, 3, 8, 16)
    for k, ref in zip(ks, _charfn_direct(d, t, ks)):
        got = d.charfn_deriv(t, k)
        assert got.shape == t.shape
        assert np.max(np.abs(got - ref)) <= _charfn_bound(d, t, k), "k=%d" % k


@pytest.mark.parametrize("npts", [241, 20001])
@pytest.mark.parametrize("n", [16, 64, 256, 512])
def test_lattice_charfn_chirp_z_matches_mpmath_rademacher(n, npts):
    mp = pytest.importorskip("mpmath")
    d = _binomial_lattice(n, -float(n), 2.0)  # S_n of n Rademacher steps
    t = _charfn_grid(npts, math.sqrt(n))
    pick = np.unique(np.linspace(0, npts - 1, 9).astype(int))
    with mp.workdps(40):
        for k in (0, 3, 8, 16):
            got = d.charfn_deriv(t, k)[pick]
            ref = np.array([
                complex(mp.diff(lambda s: mp.cos(s) ** n, mp.mpf(float(v)), k)) for v in t[pick]
            ])
            err = np.max(np.abs(got - ref))
            assert err <= _charfn_bound(d, t, k), "k=%d" % k


def test_lattice_charfn_scalar_and_refusals():
    d = _binomial_lattice(8, -8.0, 2.0)
    val = d.charfn_deriv(0.3, 2)
    assert isinstance(val, complex)
    assert val == pytest.approx(complex(_charfn_direct(d, np.array([0.3]), [2])[0, 0]), abs=1e-14)
    assert d.charfn_deriv(np.array([0.1, 0.7]), 1) == pytest.approx(
        _charfn_direct(d, np.array([0.1, 0.7]), [1])[0], abs=1e-14
    )
    for bad in (np.array([0.0, 0.1, 0.3]), np.geomspace(0.1, 10.0, 50)):
        with pytest.raises(ValueError, match="equispaced"):
            d.charfn_deriv(bad, 1)
    with pytest.raises(ValueError, match="1-d"):
        d.charfn_deriv(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="derivative order"):
        d.charfn_deriv(0.0, 17)


def test_chirp_phase_is_reduced_exactly():
    mp = pytest.importorskip("mpmath")
    from edgekit.models.lattice import _chirp

    theta, size = 3.2, 40001  # a tail grid's theta; theta l^2 / 2 reaches 2.6e9
    got = _chirp(theta, size)
    with mp.workdps(40):
        for l in (1, 777, 20000, 40000):
            ref = mp.expj(mp.mpf(theta) * l * l / 2)
            assert abs(got[l] - complex(ref)) <= 4 * _U
    naive = np.exp(0.5j * theta * 40000.0**2)
    assert abs(naive - got[40000]) > 1e4 * _U  # what the split avoids


# -- chain DP vs path enumeration -------------------------------------------


def _random_chain(seed, n=5, states=3):
    rng = np.random.Generator(np.random.Philox(key=seed))
    initial = rng.random(states)
    initial /= initial.sum()
    kernels = []
    observables = []
    for _ in range(n):
        k = rng.random((states, states)) + 0.1
        k /= k.sum(axis=1, keepdims=True)
        kernels.append(k)
        observables.append(np.rint(rng.integers(-2, 3, size=(states, states))).astype(float))
    means = step_means(MarkovChainSpec(initial, tuple(kernels), tuple(observables)))
    observables = [f - mu for f, mu in zip(observables, means)]
    return MarkovChainSpec(initial, tuple(kernels), tuple(observables), name="random")


def _cycle3_chain(n):
    """Three kernels in turn, far from stationary at the start: a cycle of period 3, where flip2's is 2."""
    rng = np.random.Generator(np.random.PCG64(41))
    kernels = [rng.dirichlet(np.ones(3), size=3) for _ in range(3)]
    observables = [rng.integers(-2, 3, size=(3, 3)).astype(float) for _ in range(3)]
    observables[0].flat[:2] = (0.0, 1.0)
    return MarkovChainSpec([1.0, 0.0, 0.0], tuple(kernels[j % 3] for j in range(n)),
                           tuple(observables[j % 3] for j in range(n)), name="cycle3")


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_dp_matches_enumeration(seed):
    spec = _random_chain(seed)
    d = exact_distribution(spec)
    pairs = enumerate_distribution(spec)
    live = d.masses > 1e-15
    vals = d.support[live]
    masses = d.masses[live]
    assert len(pairs) == vals.size
    for (v, p), dv, dp_ in zip(pairs, vals, masses):
        assert dv == pytest.approx(v, abs=1e-9)
        assert dp_ == pytest.approx(p, abs=1e-12)


def test_dp_total_mass_and_mean():
    spec = _random_chain(21, n=7)
    d = exact_distribution(spec)
    assert d.total_mass == pytest.approx(1.0, abs=1e-12)
    assert abs(d.mean) < 1e-10


# -- shift-grouped DP step vs the textbook S^2 loop ---------------------------


def _sparse_kernel(rng, rows, cols, zero_frac):
    k = rng.random((rows, cols)) * (rng.random((rows, cols)) >= zero_frac)
    k[np.arange(rows), rng.integers(0, cols, size=rows)] += 0.1  # no empty row
    return k / k.sum(axis=1, keepdims=True)


def _rectangular_chain(seed, sizes, values=5):
    """Inhomogeneous chain whose state count changes at every step."""
    rng = np.random.Generator(np.random.PCG64(seed))
    kernels = tuple(_sparse_kernel(rng, a, b, 0.3) for a, b in zip(sizes[:-1], sizes[1:]))
    observables = tuple(rng.integers(0, values, size=k.shape).astype(float) for k in kernels)
    return MarkovChainSpec(np.full(sizes[0], 1.0 / sizes[0]), kernels, observables)


def _shared_kernel_chain(states, n):
    """One kernel array for every step, three observables with different shifts."""
    rng = np.random.Generator(np.random.PCG64([5, states]))
    kernel = _sparse_kernel(rng, states, states, 0.2)
    obs = [rng.integers(0, 3 + j, size=(states, states)).astype(float) for j in range(3)]
    return MarkovChainSpec(np.full(states, 1.0 / states), (kernel,) * n,
                           tuple(obs[j % 3] for j in range(n)))


def _homogeneous_chain(states, n, distinct_shifts=False):
    rng = np.random.Generator(np.random.PCG64([9, states]))
    kernel = _sparse_kernel(rng, states, states, 0.1)
    if distinct_shifts:
        obs = rng.permutation(states * states).reshape(states, states).astype(float)
    else:
        obs = rng.integers(-2, 3, size=(states, states)).astype(float)
    return MarkovChainSpec.homogeneous(rng.dirichlet(np.ones(states)), kernel, obs, n)


_LOOP_CHAINS = {
    "rectangular": lambda: _rectangular_chain(3, [2, 5, 1, 3, 16, 4, 64, 7, 3]),
    "rectangular-dense": lambda: _rectangular_chain(4, [16, 64, 32, 64, 16], values=3),
    "shared-kernel-s3": lambda: _shared_kernel_chain(3, 9),
    "shared-kernel-s16": lambda: _shared_kernel_chain(16, 9),
    "distinct-shifts-s16": lambda: _homogeneous_chain(16, 4, distinct_shifts=True),
    "s1": lambda: _rectangular_chain(6, [1] * 7),
    "s3": lambda: _homogeneous_chain(3, 12),
    "s16": lambda: _homogeneous_chain(16, 10),
    "s64": lambda: _homogeneous_chain(64, 5),
    "elliptic2": lambda: builtin_model("elliptic2").spec(40),
    "flip2": lambda: builtin_model("flip2").spec(40),
    "symmetric2": lambda: builtin_model("symmetric2").spec(40),
    "rademacher": lambda: builtin_model("rademacher").spec(40),
}


def _step_shifts(spec):
    """The lattice step and the integer shift array of every step, one array per distinct shift, as the sweep snaps them."""
    chain = spec._plan
    d, _, shifts, numbers, _ = _common_lattice(chain.observables, chain.firsts)
    return d, [shifts[numbers[f]] for _, f, _, count in chain.runs for _ in range(count)]


@pytest.mark.parametrize("name", sorted(_LOOP_CHAINS))
def test_grouped_dp_matches_loop(name):
    spec = _LOOP_CHAINS[name]()
    shifts = _step_shifts(spec)[1]
    table = ref = spec.initial[:, None]
    for kernel, shift in zip(spec.kernels, shifts):
        table, ref = _Moves(kernel, shift).run(table, 1), textbook_step(ref, kernel, shift)
        assert table.shape == ref.shape
        assert np.max(np.abs(table - ref)) <= 1e-15


def _runs(spec, shifts):
    """(kernel, shift array, length) of each run of equal consecutive steps."""
    out = []
    for kernel, shift in zip(spec.kernels, shifts):
        if out and out[-1][0] is kernel and out[-1][1] is shift:
            out[-1][2] += 1
        else:
            out.append([kernel, shift, 1])
    return out


# squaring a 64-state run costs 64^3 convolutions, a route no sweep picks for it
@pytest.mark.parametrize("name", sorted(set(_LOOP_CHAINS) - {"s64"}))
def test_powered_run_matches_loop(name):
    # every run raised at once, whichever route the sweep would pick:
    # stride phases, rectangular single steps, zero kernel entries
    spec = _LOOP_CHAINS[name]()
    shifts = _step_shifts(spec)[1]
    table = ref = spec.initial[:, None]
    bound = 0.0
    for kernel, shift, length in _runs(spec, shifts):
        power = _Power(kernel, shift, length)
        table = power.run(table, 1)
        for _ in range(length):
            ref = textbook_step(ref, kernel, shift)
        bound += power.error + length * max(kernel.shape) * _U
        live = ref > 0.0
        assert table.shape[0] == ref.shape[0]
        assert table.shape[1] <= ref.shape[1] and not ref[:, table.shape[1]:].any()
        assert np.all(np.abs(table - ref[:, : table.shape[1]]) <= bound * ref[:, : table.shape[1]])
        assert np.array_equal(table > 0.0, live[:, : table.shape[1]])


def test_powered_error_bound_is_the_derived_one():
    # S r ((B/2 + 1) w/g + 1) u for a run of r steps, B = floor(log2 r)
    kernel = np.full((3, 3), 1.0 / 3.0)
    shifts = np.array([[0, 4, 8], [4, 0, 4], [8, 8, 0]])
    for r, bits in ((1, 0), (2, 1), (3, 1), (4096, 12), (5000, 12)):
        power = _Power(kernel, shifts, r)
        assert (power.stride, power.reduced, power.width) == (4, 2, 8)
        assert power.error == 3 * r * ((bits / 2 + 1) * 2 + 1) * _U


def _price_cases():
    # elliptic2's kernel, the stride-4 kernel above and a rectangular single step
    elliptic2, rectangular = builtin_model("elliptic2").spec(1), _rectangular_chain(3, [2, 5])
    kernels = {
        "elliptic2": (elliptic2.kernels[0], _step_shifts(elliptic2)[1][0]),
        "stride4": (np.full((3, 3), 1.0 / 3.0), np.array([[0, 4, 8], [4, 0, 4], [8, 8, 0]])),
    }
    for columns in (1, 5, 33):
        for (name, (kernel, shifts)), length in itertools.product(kernels.items(), (1, 2, 3, 5, 7, 64, 100, 4097)):
            yield pytest.param(kernel, shifts, length, columns, id="%s-r%d-w%d" % (name, length, columns))
        shifts = _step_shifts(rectangular)[1][0]
        yield pytest.param(rectangular.kernels[0], shifts, 1, columns, id="2x5-r1-w%d" % columns)


@pytest.mark.parametrize("kernel,shifts,length,columns", _price_cases())
def test_power_price_holds_what_its_run_holds(kernel, shifts, length, columns, monkeypatch):
    # the run squares once per level below the top and applies each set
    # bit, and the most one product holds is what `price` charges the budget
    from edgekit.models import markov

    held = []
    poly_matmul = markov._poly_matmul

    def counted(a, b):
        out = poly_matmul(a, b)
        held.append(2 * (a.size + (0 if b is a else b.size)) + 3 * out.size)
        return out

    monkeypatch.setattr(markov, "_poly_matmul", counted)
    power = _Power(kernel, shifts, length)
    power.run(np.full((kernel.shape[0], columns), 1.0 / columns), 1)
    assert len(held) == bin(length).count("1") + length.bit_length() - 1
    assert max(held) == power.price(columns)[1]


def _tailed(rng, shape, size):
    """Polynomials falling from about 1 in the middle to 1e-320 at both ends, with zeros inside."""
    p = rng.uniform(0.5, 1.0, shape + (size,)) * 10.0 ** (-320 * np.abs(np.linspace(-1, 1, size)))
    p[..., size // 2 + 3] = 0.0  # in the head
    p[..., 2] = 0.0  # in a tail
    return p


def test_lifted_tail_products_match_exact_convolution():
    # factors spanning 1 down to 1e-320: outputs in the normal range are
    # within S (L + 1) u of the exact rational product (of the sum of
    # |products| where signs mix), where unlifted products below 2**-1022
    # would have lost them; a subnormal output rounds once more, by at
    # most half its spacing 2**-1074
    rng = np.random.Generator(np.random.PCG64(5))
    tiny, normal = Fraction(2) ** -1074, Fraction(2) ** -1022
    signed = _tailed(rng, (2, 2), 27) * rng.choice([-1.0, 1.0], size=(2, 2, 27))
    for a, b in [(_tailed(rng, (1, 1), 41), _tailed(rng, (1, 1), 33)),
                 (_tailed(rng, (2, 2), 29), _tailed(rng, (2, 3), 37)),
                 (_tailed(rng, (2, 2), 25), rng.uniform(0.5, 1.0, (2, 2, 9))),
                 (signed, signed)]:
        got = _poly_matmul(a, b)
        bound = a.shape[1] * min(a.shape[2], b.shape[2]) * _U
        seen = set()
        for x, y in itertools.product(range(a.shape[0]), range(b.shape[1])):
            exact = [Fraction(0)] * got.shape[2]
            scale = [Fraction(0)] * got.shape[2]
            for k in range(a.shape[1]):
                for i, p in enumerate(a[x, k].tolist()):
                    for j, q in enumerate(b[k, y].tolist()):
                        exact[i + j] += Fraction(p) * Fraction(q)
                        scale[i + j] += abs(Fraction(p) * Fraction(q))
            for g, e, m in zip(got[x, y].tolist(), exact, scale):
                slack = 0 if m >= normal else tiny / 2
                assert abs(Fraction(g) - e) <= Fraction(bound) * m + slack
                seen.add((m >= normal, 0 < m < Fraction(2) ** -900))
        assert (True, True) in seen and (False, True) in seen
    # kernel entries just below 0, as the spec lets through, are lifted by
    # magnitude too: two of them multiply to a finite level-2 product
    kernel = np.array([[1 + 4e-16, -4e-16], [-4e-16, 1 + 4e-16]])
    shifts, table = np.array([[0, 1], [1, 0]]), np.array([[0.5], [0.5]])
    power = _Power(kernel, shifts, 64)
    got, ref, scale = power.run(table, 1), table, table
    for _ in range(64):
        ref, scale = textbook_step(ref, kernel, shifts), textbook_step(scale, np.abs(kernel), shifts)
    assert np.all(np.abs(got - ref) <= (power.error + 64 * 2 * _U) * scale + 2.0**-1022)
    # factors without tails take one convolution per pair, with its bits
    a, b = rng.uniform(0.5, 1.0, (2, 2, 300)), rng.uniform(0.5, 1.0, (2, 2, 700))
    got = _poly_matmul(a, b)
    for x, y in itertools.product(range(2), range(2)):
        assert np.array_equal(got[x, y], np.convolve(a[x, 0], b[0, y]) + np.convolve(a[x, 1], b[1, y]))


def test_grouped_step_paths_and_zero_rows():
    # both the product and the pair path run, and zero rows of the table
    # and zero kernel entries contribute nothing; a run of r steps, cells-major
    # where it has products alone, matches r textbook steps within r S_in u
    rng = np.random.Generator(np.random.PCG64(17))
    for n_in, n_out, span in [(64, 64, 3), (16, 40, 2), (3, 5, 4), (1, 4, 2), (5, 1, 3), (3, 3, 3)]:
        kernel = _sparse_kernel(rng, n_in, n_out, 0.4)
        # shift 0 almost everywhere: one large group, a few small ones
        rare = rng.random(kernel.shape) < 0.05
        shifts = np.where(rare, rng.integers(1, span, size=kernel.shape), 0)
        table = rng.random((n_in, 150))  # wider than one product chunk at S = 64
        table[::3] = 0.0
        moves = _Moves(kernel, shifts)
        if n_in >= 16:
            assert moves.dense and moves.sparse
        got = moves.run(table, 1)
        assert np.max(np.abs(got - textbook_step(table, kernel, shifts))) <= 1e-15
        _assert_run_matches_steps(moves, table, kernel, shifts, 3 if n_in == n_out else 1)
    # products alone, over tables of one and of several 256-cell chunks
    kernel = rng.dirichlet(np.ones(32), size=32)
    shifts = rng.integers(0, 3, size=kernel.shape)
    moves = _Moves(kernel, shifts)
    assert len(moves.dense) == 3 and not moves.sparse
    for width in (1, 700):
        table = rng.random((32, width))
        table[::5] = 0.0
        _assert_run_matches_steps(moves, table, kernel, shifts, 5)


def _assert_run_matches_steps(moves, table, kernel, shifts, count):
    ref = table
    for _ in range(count):
        ref = textbook_step(ref, kernel, shifts)
    got = moves.run(table, count)
    assert got.shape == ref.shape and got.flags.c_contiguous
    assert np.all(np.abs(got - ref) <= count * kernel.shape[0] * _U * ref)


def _grouped_kernel(rng, states, common, rare=(), wide=0):
    """Dirichlet kernel with shifts drawn from `common`, a 3% share from `rare` and, if `wide`, a 10% share set to it."""
    kernel = rng.dirichlet(np.ones(states), size=states)
    shifts = rng.choice(common, size=kernel.shape)
    if rare:
        shifts = np.where(rng.random(kernel.shape) < 0.03, rng.choice(rare, size=kernel.shape), shifts)
    if wide:
        shifts = np.where(rng.random(kernel.shape) < 0.1, wide, shifts)
    return kernel, shifts


@pytest.mark.parametrize("layout", ["cells-major", "state-major"])
def test_batched_step_has_the_bits_of_one_product_per_chunk_and_group(layout):
    # every group's product of a chunk comes from one np.matmul; the adds
    # keep the per-chunk loop's order, so every entry keeps its bytes: on
    # one column, a part of a chunk, several chunks and a run that widens
    # past one, and with a shift (100) wider than a chunk (64 at S = 64)
    rng = np.random.Generator(np.random.PCG64(29))
    rare = (5, 6, 7, 8, 9) if layout == "state-major" else ()
    for states, wide in ((32, 0), (16, 0), (64, 100)):
        kernel, shifts = _grouped_kernel(rng, states, (0, 1, 2), rare, wide)
        moves = _Moves(kernel, shifts)
        assert len(moves.dense) >= 3 and bool(moves.sparse) == bool(rare)
        if wide:
            assert moves.width == max(moves.dense) == wide > moves.chunk
        for width in (1, moves.chunk // 2 + 1, 3 * moves.chunk + 7):
            table = rng.random((states, width))
            table[::5] = 0.0
            for count in (1, 3):
                got, want = moves.run(table, count), chunked_run(moves, table, count)
                assert got.shape == want.shape and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes(), (states, width, count)


_PLANS = {
    # (name, n): run-length codes of the forward and the backward plan,
    # ((step type, count), repeats) each
    ("rademacher", 4096): ([(("_Power", 1), 1)], []),
    ("elliptic2", 256): ([(("_Power", 1), 1)], []),
    ("elliptic2", 4096): ([(("_Power", 1), 1)], []),
    ("symmetric2", 8192): ([(("_Moves", 3), 1), (("_Moves", 12), 1), (("_Moves", 48), 1), (("_Power", 1), 4)], []),
    ("flip2", 64): ([(("_Moves", 1), 64)], []),
    ("flip2", 4096): ([(("_Moves", 1), 2048)], [(("_Moves", 1), 2048)]),
    ("decay:0.25", 8192): ([(("_Moves", 15), 1), (("_Power", 1), 3)], []),
    ("chain32", 256): ([(("_Moves", 128), 1)], [(("_Moves", 128), 1)]),
    ("chain64", 256): ([(("_Moves", 128), 1)], [(("_Moves", 128), 1)]),
}


@pytest.mark.parametrize("name, n", sorted(_PLANS))
def test_sweep_plans_keep_their_steps_and_counts(name, n):
    # the route prices are those of one product call per group and chunk,
    # so batching the products moves no run between stepping and powering
    spec = _perfbench_chain(int(name[5:]), n) if name.startswith("chain") else builtin_model(name).spec(n)
    _, _, plan, back, _ = _sweep_plan(spec)
    coded = [[(key, len(list(run))) for key, run in itertools.groupby((type(step).__name__, count) for step, count in half)]
             for half in (plan, back)]
    assert tuple(coded) == _PLANS[name, n]


def _step_moves(spec):
    shifts = _step_shifts(spec)[1]
    return [_Moves(kernel, shift) for kernel, shift in zip(spec.kernels, shifts)]


def test_products_only_for_large_shift_groups():
    # S = 2 groups stay pairs in loop order, so a stepped S = 2 run keeps
    # the loop's exact arithmetic; a few large groups become products
    for spec in (builtin_model("elliptic2").spec(8), _homogeneous_chain(16, 2, distinct_shifts=True)):
        assert all(not m.dense for m in _step_moves(spec))
    assert all(not m.sparse for m in _step_moves(_homogeneous_chain(64, 2)))


def test_sweep_plan_builds_one_move_list_per_kernel_observable_pair():
    # one run per homogeneous chain, one step object per distinct
    # (kernel, shift array) pair and run length
    homog = builtin_model("elliptic2").spec(64)
    assert [count for _, count in _sweep_plan(homog)[2]] == [1]
    # flip2 keeps its one observable array under its two kernels
    period2 = builtin_model("flip2").spec(64)
    assert len({id(f) for f in period2.observables}) == 1
    runs = _sweep_plan(period2)[2]
    assert len(runs) == 64 and len({id(step) for step, _ in runs}) == 2
    shared = _shared_kernel_chain(3, 9)
    assert len({id(step) for step, _ in _sweep_plan(shared)[2]}) == 3
    # swept from both ends, each half builds one step object per pair
    plan, back = _sweep_plan(builtin_model("flip2").spec(4096))[2:4]
    assert len(plan) + len(back) == 4096
    assert len({id(step) for step, _ in plan}) == len({id(step) for step, _ in back}) == 2


def test_fine_lattice_refused_before_allocating():
    # common step 1e-6 between steps worth 1 and 1.000001: about 10^6 cells
    # per step, some 8 GB of table at n = 512
    kernel = np.full((2, 2), 0.5)
    ones = np.array([[0.0, 1.0], [0.0, 1.0]])
    spec = MarkovChainSpec([0.5, 0.5], (kernel,) * 512, (ones, ones * 1.000001) * 256)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="lattice step 1e-06 needs up to .* budget.*need none"):
        exact_distribution(spec)
    assert time.perf_counter() - start < 1.0
    # the blocking needs no table: independent coin steps of variance 1/4 and 1.000001^2/4
    rep = variance_decomposition(spec)
    assert rep.sigma2[-1] == pytest.approx(64.0 * (1.0 + 1.000001**2), rel=1e-14)


def test_powered_run_refused_when_one_product_outgrows_the_budget(monkeypatch):
    from edgekit.models import markov

    # elliptic2 is one powered run; record what each product holds: each
    # factor and its lifted tails, the output and two lift arrays of its size
    spec = builtin_model("elliptic2").spec(4096)
    assert [type(step) for step, _ in _sweep_plan(spec)[2]] == [_Power]
    held, powers = [], []
    poly_matmul = markov._poly_matmul

    def counted(a, b):
        out = poly_matmul(a, b)
        held.append(2 * (a.size + (0 if b is a else b.size)) + 3 * out.size)
        powers.append(b.size)
        return out

    monkeypatch.setattr(markov, "_poly_matmul", counted)
    dist = exact_distribution(spec)
    table = max(spec.state_counts) * dist.masses.size
    # the table and the largest power fit: only the products' holdings exceed
    monkeypatch.setattr(markov, "_CELL_BUDGET", max(held) - 1)
    assert markov._CELL_BUDGET >= table + max(powers)

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(markov, "_poly_matmul", no_table)
    monkeypatch.setattr(_Power, "run", no_table)
    monkeypatch.setattr(_Moves, "run", no_table)
    with pytest.raises(ValueError, match="needs up to .* DP cells, above the budget"):
        exact_distribution(spec)


# -- builtin models, frozen values -------------------------------------------


def test_rademacher_matches_binomial():
    m = builtin_model("rademacher")
    d = m.distribution(8)
    # S_8 = 2*Binom(8, 1/2) - 8
    assert d.step == pytest.approx(2.0)
    assert np.allclose(d.masses, stats.binom.pmf(np.arange(9), 8, 0.5), atol=1e-14)
    assert m.sigma2(8) == pytest.approx(8.0)
    assert m.cumulant(8, 4) == pytest.approx(-16.0)


def test_uniform_small_n_closed_forms():
    m = builtin_model("uniform")
    # n=2: triangular on [-2, 2], density 1/2 at 0
    d2 = m.distribution(2)
    assert d2.density(0.0) == pytest.approx(0.5, abs=1e-14)
    assert d2.density(1.0) == pytest.approx(0.25, abs=1e-14)
    # n=3: symmetric, CDF(0) = 1/2
    assert m.distribution(3).cdf(0.0) == pytest.approx(0.5, abs=1e-13)
    # n=4: variance 4/3 via two routes
    d4 = m.distribution(4)
    assert d4.variance == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert m.sigma2(4) == pytest.approx(4.0 / 3.0, abs=1e-14)
    d4.validate()


def test_uniform_cumulant_rates():
    m = builtin_model("uniform")
    kap = m.base_cumulants(6)
    assert kap[1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert kap[3] == pytest.approx(-2.0 / 15.0, abs=1e-15)
    assert kap[5] == pytest.approx(16.0 / 63.0, abs=1e-14)


def test_elliptic2_against_enumeration():
    m = builtin_model("elliptic2")
    d = m.distribution(7)
    pairs = enumerate_distribution(m.spec(7))
    live = d.masses > 1e-15
    assert np.allclose(d.support[live], [p[0] for p in pairs], atol=1e-9)
    assert np.allclose(d.masses[live], [p[1] for p in pairs], atol=1e-12)


def test_symmetric2_is_symmetric_with_shrinking_step():
    m = builtin_model("symmetric2")
    d = m.distribution(24)
    assert abs(d.mean) < 1e-12
    # swap symmetry of the kernel and sign observable kills odd moments
    assert abs(d.moment(3)) < 1e-10
    assert d.step == pytest.approx(0.5)
    assert m.distribution(70).step == pytest.approx(0.25)


def test_spec_checks_each_kernel_once_and_names_the_first_bad_step():
    good = np.full((2, 2), 0.5)
    bad = np.array([[0.5, 0.5], [0.7, 0.4]])
    f = np.zeros((2, 2))
    with pytest.raises(ValueError, match="kernel 3 is not row-stochastic"):
        MarkovChainSpec([0.5, 0.5], (good,) * 3 + (bad,) * 4, (f,) * 7)
    with pytest.raises(ValueError, match="kernel 2 has shape"):
        MarkovChainSpec([0.5, 0.5], (good, good, np.full((3, 3), 1 / 3)) + (bad,), (f,) * 4)
    # a (kernel, observable) pair seen before is checked again where the
    # state count it meets has changed
    wide, square3, g = np.full((2, 3), 1 / 3), np.full((3, 3), 1 / 3), np.zeros((2, 3))
    with pytest.raises(ValueError, match=r"kernel 3 has shape \(2, 3\), expected 3 rows"):
        MarkovChainSpec([0.5, 0.5], (good, wide, square3, wide), (f, g, np.zeros((3, 3)), g))
    with pytest.raises(ValueError, match="observable 1 shape"):
        MarkovChainSpec([0.5, 0.5], (good,) * 3, (f, np.zeros((2, 3)), f))
    start = time.perf_counter()
    MarkovChainSpec.homogeneous([0.5, 0.5], good, f, 100_000)
    assert time.perf_counter() - start < 0.5
    # one object given for every step becomes one array
    spec = MarkovChainSpec([0.5, 0.5], [[[0.5, 0.5], [0.5, 0.5]]] * 5, [[[0, 1], [1, 0]]] * 5)
    assert len({id(k) for k in spec.kernels}) == len({id(f) for f in spec.observables}) == 1


def test_spec_refuses_non_finite_entries_and_names_the_step():
    # NaN passes every comparison of the other checks; a NaN observable
    # once read as a constant one and gave a point mass at 0
    good, f = np.full((2, 2), 0.5), np.zeros((2, 2))
    nan_kernel = np.array([[np.nan, 0.5], [0.5, 0.5]])
    for initial, kernels, observables, needle in (
        ([0.5, 0.5], (good, good, nan_kernel), (f,) * 3, "kernel 2 has a non-finite entry"),
        ([0.5, 0.5], (good,) * 3, (f, np.array([[np.nan, -1.0], [1.0, -1.0]]), f),
         "observable 1 has a non-finite entry"),
        ([0.5, 0.5], (good,) * 4, (f,) * 3 + (np.array([[np.inf, -1.0], [1.0, -1.0]]),),
         "observable 3 has a non-finite entry"),
        ([np.nan, 1.0], (good,) * 2, (f,) * 2, "initial law has a non-finite entry"),
        ([0.5, 0.5], (good,) * 3, (f, f, np.array([[1e308, -1e308], [1.0, -1.0]])),
         "observable 2 has values further apart than the float range"),
    ):
        with pytest.raises(ValueError, match=needle):
            MarkovChainSpec(initial, kernels, observables)
    # values 7e307 apart pass, but their midrange 1.35e308 overflows on the
    # way: the series refuses them by step instead of printing nan
    huge = np.array([[1.7e308, 1e308], [1e308, 1.7e308]])
    spec = MarkovChainSpec([0.5, 0.5], (good,) * 3, (f, huge, huge))
    with pytest.raises(ValueError, match="observable 1 overflows when shifted by its midrange"):
        cumulant_series(spec, 4)


def test_rounding_below_zero_in_kernels_and_initial_is_clipped_in_a_copy():
    # entries down to -1e-15 pass validation as rounding; the law refuses
    # negative masses, so the spec clips them, never in the caller's array
    kernel = np.array([[1 + 4e-16, -4e-16], [-4e-16, 1 + 4e-16]])
    initial = np.array([1.0, -1e-16])
    obs = np.array([[0.0, 1.0], [1.0, 0.0]])
    for n in (8, 64):
        spec = MarkovChainSpec.homogeneous(initial, kernel, obs, n)
        assert spec.kernels[0] is not kernel and spec.kernels[0].min() == 0.0
        assert spec.initial.min() == 0.0 and spec.kernels[0][0, 0] == kernel[0, 0]
        dist = exact_distribution(spec)  # raises unless the mean check passes
        assert np.all(dist.masses >= 0.0) and dist.total_mass == pytest.approx(1.0, abs=1e-12)
    assert kernel[0, 1] == -4e-16 and initial[1] == -1e-16
    # a kernel with no negative entry is kept as converted
    good = np.full((2, 2), 0.5)
    assert MarkovChainSpec.homogeneous([0.5, 0.5], good, obs, 3).kernels[0] is good


_REPEAT_FILE = """[meta]
name = cycle
steps = 9

[initial]
0.25 0.75

[kernel.1]
0.5 0.5
0.25 0.75
repeat = 4

[observable.1]
0 1
1 -1
repeat = 4

[kernel.5]
0.125 0.875
1 0

[observable.5]
0 1
1 -1

[kernel.6]
0.5 0.5
0.25 0.75
repeat = 4

[observable.6]
0 2
2 0
repeat = 4
"""


def test_run_form_expands_to_the_steps(tmp_path):
    path = tmp_path / "cycle.chain"
    path.write_text(_REPEAT_FILE)
    loaded = load_chain_spec(path)
    assert [count for _, _, count in loaded.runs] == [4, 1, 4]
    for spec in (builtin_model("flip2").spec(9), builtin_model("symmetric2").spec(300),
                 _shared_kernel_chain(3, 9), loaded):
        pairs = [(kernel, f) for kernel, f, count in spec.runs for _ in range(count)]
        assert len(pairs) == spec.n_steps
        assert all(k is a and f is b for (k, f), a, b in zip(pairs, spec.kernels, spec.observables))
        # maximal: adjacent runs differ in an object
        assert all(a[0] is not b[0] or a[1] is not b[1] for a, b in zip(spec.runs, spec.runs[1:]))
    assert len(builtin_model("flip2").spec(9).runs) == 9
    assert len(builtin_model("elliptic2").spec(100).runs) == 1
    # loaded and saved again, the file keeps its bytes
    save_chain_spec(loaded, tmp_path / "again.chain")
    assert (tmp_path / "again.chain").read_bytes() == path.read_bytes()


def test_a_chain_written_step_by_step_has_the_runs_and_bits_of_its_repeat_form(tmp_path):
    # each [kernel.J] / [observable.J] block is read into an array of its
    # own; runs split on content, so 512 equal blocks are one powered run
    spec = builtin_model("elliptic2").spec(512)
    save_chain_spec(spec, tmp_path / "repeat.chain")
    lines = ["[initial]", " ".join("%.17g" % v for v in spec.initial)]
    for j in range(1, 513):
        for tag, matrix in (("kernel", spec.kernels[0]), ("observable", spec.observables[0])):
            lines += ["[%s.%d]" % (tag, j)] + [" ".join("%.17g" % v for v in row) for row in matrix]
    (tmp_path / "spelled.chain").write_text("\n".join(lines) + "\n")
    spelled, repeat = (load_chain_spec(tmp_path / name) for name in ("spelled.chain", "repeat.chain"))
    assert [count for _, _, count in spelled.runs] == [count for _, _, count in repeat.runs] == [512]
    laws = [exact_distribution(chain) for chain in (spelled, repeat)]
    assert laws[0].offset == laws[1].offset and laws[0].masses.tobytes() == laws[1].masses.tobytes()
    assert cumulant_series(spelled, 8) == cumulant_series(repeat, 8)
    blockings = [variance_decomposition(chain) for chain in (spelled, repeat)]
    assert blockings[0].blocks == blockings[1].blocks
    assert blockings[0].block_variances == blockings[1].block_variances
    assert blockings[0].sigma2.tobytes() == blockings[1].sigma2.tobytes()


def test_observables_one_apart_share_the_sweep_and_the_series():
    # under one kernel, f and f + 1 have one shift array and one
    # midrange-shifted series, so their runs merge as one shared f's do
    rng = np.random.Generator(np.random.PCG64(17))
    kernel = _sparse_kernel(rng, 3, 3, 0.2)
    f = rng.integers(-2, 3, size=(3, 3)).astype(float)
    f.flat[:2] = (-2.0, 2.0)
    initial = np.full(3, 1.0 / 3.0)
    n, pair = 200, (f, f + 1.0)
    moved = MarkovChainSpec(initial, (kernel,) * n, tuple(pair[(j // 3) % 2] for j in range(n)))
    shared = MarkovChainSpec.homogeneous(initial, kernel, f, n)
    assert len(moved.runs) == 67
    plan, alone = _sweep_plan(moved)[2], _sweep_plan(shared)[2]
    assert len(plan) == 1 and [type(step) for step, _ in plan] == [type(step) for step, _ in alone]
    assert cumulant_series(moved, 8) == cumulant_series(shared, 8)
    assert np.array_equal(variance_profile(moved), variance_profile(shared))
    assert np.array_equal(exact_distribution(moved).masses, exact_distribution(shared).masses)


def test_decaying_chain_shares_one_observable_per_amplitude():
    spec = builtin_model("symmetric2").spec(8192)
    # staircase amplitudes 2^0 .. 2^-6 over j = 1..8192
    assert len({id(f) for f in spec.observables}) == 7


def test_builtin_registry():
    names = builtin_model_names()
    assert "rademacher" in names and "uniform" in names
    with pytest.raises(ValueError):
        builtin_model("no-such-model")
    with pytest.raises(ValueError):
        builtin_model("decay:0.7")
    d = builtin_model("decay:0.3")
    assert d.distribution(6).total_mass == pytest.approx(1.0, abs=1e-12)


# -- variance profile and blocking ------------------------------------------


def test_variance_profile_monotone():
    m = builtin_model("elliptic2")
    prof = variance_profile(m.spec(12))
    assert len(prof) == 13  # Var(S_k) for k = 0..12
    assert prof[-1] == pytest.approx(m.sigma2(12), abs=1e-12)
    assert all(b >= a - 1e-12 for a, b in zip(prof, prof[1:]))


def test_blocking_rademacher_quarters():
    m = builtin_model("rademacher")
    rep = m.blocking(16)
    # steps have unit variance; target 4*1+1 = 5 makes length-5 blocks
    assert rep.target == pytest.approx(5.0)
    rep4 = variance_decomposition(m.spec(16), target=4.0)
    # iid unit-variance steps: greedy blocks are exactly 4 steps long
    assert rep4.blocks[0] == (0, 3)
    assert np.allclose(rep4.a, 4.0 * (np.arange(17) // 4), atol=1e-12)
    assert rep4.a[16] + rep4.b[16] == pytest.approx(16.0, abs=1e-12)
    assert rep4.a_monotone


def test_blocking_block_variances_within_band():
    m = builtin_model("elliptic2")
    rep = m.blocking(40)
    assert rep.blocks == tuple((4 * i, 4 * i + 3) for i in range(10))
    for v in rep.block_variances[:-1]:
        assert rep.target - 1e-9 <= v <= 2.0 * rep.target + rep.overshoot + 1e-9
    assert rep.sigma2[-1] == pytest.approx(m.sigma2(40), rel=1e-12)


# -- transfer-operator series engine -----------------------------------------


def _bernoulli(kmax):
    """B_0..B_kmax as exact fractions (B_1 = -1/2)."""
    b = [Fraction(1)]
    for m in range(1, kmax + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / Fraction(m + 1))
    return b


def _coin_cumulants(kmax):
    """kappa_1..kappa_kmax of a fair +-1 coin, exactly: log cosh z.

    kappa_2j = 2^2j (2^2j - 1) B_2j / (2j); odd cumulants vanish.
    """
    b = _bernoulli(kmax)
    return [Fraction(0) if k % 2 else Fraction(2**k * (2**k - 1)) * b[k] / k
            for k in range(1, kmax + 1)]


@pytest.mark.parametrize("n", [1, 3, 512, 8192, 100_000])
def test_series_rademacher_matches_bernoulli_closed_form(n):
    kappas = cumulant_series(builtin_model("rademacher").spec(n), 16)
    for k, (got, exact) in enumerate(zip(kappas, _coin_cumulants(16)), start=1):
        if k % 2:
            assert got == 0.0
        else:
            ref = n * float(exact)
            assert abs(got - ref) <= 1e-12 * abs(ref), (k, got, ref)


def _moment_route_gap(spec, kappas, kmax):
    """Largest |kappa_k - raw-moment kappa_k| / sigma^k over k <= kmax, and its bound.

    The raw-moment route takes cumulants from moments of the DP law. Its
    masses carry relative error <= (2S + 2) n eps, the moment sum adds
    ceil(log2 N) + k eps relative to E|S|^k, and the moment-to-cumulant
    recursion sums k such terms, each at most E|S|^k: on the sigma^k
    scale the route is good to k ((2S + 2) n + k + log2 N + 2) eps E|W|^k.
    """
    dist = exact_distribution(spec)
    via_moments = moments_to_cumulants([dist.moment(q) for q in range(1, kmax + 1)])
    sigma = math.sqrt(kappas[1])
    states, n, cells = max(spec.state_counts), spec.n_steps, dist.masses.size
    worst = 0.0
    for k in range(1, kmax + 1):
        c = (2 * states + 2) * n + k + math.ceil(math.log2(cells)) + 2
        tol = k * c * np.finfo(float).eps * max(1.0, dist.abs_moment(k) / sigma**k)
        worst = max(worst, abs(kappas[k - 1] - via_moments[k - 1]) / sigma**k / tol)
    return worst


@pytest.mark.parametrize("name", ["elliptic2", "flip2", "symmetric2", "decay:0.3"])
@pytest.mark.parametrize("n", [5, 64, 256])
def test_series_matches_moment_route(name, n):
    spec = builtin_model(name).spec(n)
    assert _moment_route_gap(spec, cumulant_series(spec, 8), 8) <= 1.0


def test_series_on_changing_state_counts():
    spec = _rectangular_chain(3, [2, 5, 1, 3, 16, 4, 64, 7, 3])
    assert _moment_route_gap(spec, cumulant_series(spec, 8), 8) <= 1.0


def test_series_ignores_a_large_common_offset():
    spec = builtin_model("elliptic2").spec(256)
    lifted = MarkovChainSpec(spec.initial, spec.kernels,
                             tuple(f + 1e3 for f in spec.observables))
    assert _moment_route_gap(spec, cumulant_series(lifted, 8), 8) <= 1.0


@pytest.mark.parametrize("name", ["elliptic2", "flip2", "symmetric2", "cycle3"])
def test_series_order_k_does_not_depend_on_kmax(name):
    spec = _cycle3_chain(100) if name == "cycle3" else builtin_model(name).spec(100)
    full = cumulant_series(spec, 16)
    for k in range(1, 17):
        assert cumulant_series(spec, k) == full[:k]


@pytest.mark.parametrize("name", ["elliptic2", "flip2", "symmetric2", "rectangular"])
def test_variance_profile_matches_prefix_laws(name):
    spec = _rectangular_chain(3, [2, 5, 1, 3, 16, 4, 64, 7, 3, 5, 2, 4, 3]) \
        if name == "rectangular" else builtin_model(name).spec(12)
    prof = variance_profile(spec)
    assert prof[0] == 0.0
    for k in range(1, 13):
        assert prof[k] == pytest.approx(exact_distribution(spec.prefix(k)).variance, rel=1e-13)


def test_long_variance_profile_keeps_its_digits():
    # a plain running sum of 20000 log terms drifts by ~1e-13 relative here
    spec = builtin_model("elliptic2").spec(20_000)
    kappa2 = cumulant_series(spec, 2)[1]
    assert abs(variance_profile(spec)[-1] - kappa2) <= 4 * np.finfo(float).eps * kappa2


@pytest.mark.parametrize("name", ["elliptic2", "symmetric2"])
def test_variance_profile_keeps_its_digits_at_1e5(name):
    spec = builtin_model(name).spec(100_000)
    kappa2 = cumulant_series(spec, 2)[1]
    assert abs(variance_profile(spec)[-1] - kappa2) <= 4 * np.finfo(float).eps * kappa2


def _alternating_fine_chain():
    # the spec of test_fine_lattice_refused_before_allocating
    kernel = np.full((2, 2), 0.5)
    ones = np.array([[0.0, 1.0], [0.0, 1.0]])
    return MarkovChainSpec([0.5, 0.5], (kernel,) * 512, (ones, ones * 1.000001) * 256)


def _one_kernel_two_observables_chain():
    # runs of 37 steps alternate observables under one kernel: the laws of
    # X_j are doubled over the kernel's one run, not restarted per run
    kernel = np.array([[0.8, 0.2], [0.3, 0.7]])
    pair = np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([[0.0, 2.0], [1.0, 0.0]])
    return MarkovChainSpec([0.9, 0.1], (kernel,) * 1480, tuple(pair[j // 37 % 2] for j in range(1480)))


_BLOCKING_CASES = {
    "elliptic2": lambda: builtin_model("elliptic2").spec(1024),
    "rademacher": lambda: builtin_model("rademacher").spec(256),
    "flip2": lambda: builtin_model("flip2").spec(256),
    "symmetric2": lambda: builtin_model("symmetric2").spec(2048),
    "decay:0.3": lambda: builtin_model("decay:0.3").spec(1024),
    "alternating-fine": _alternating_fine_chain,
    "rectangular": lambda: _rectangular_chain(3, [2, 5, 1, 3, 16, 4, 64, 7, 3] * 8 + [2]),
    "rectangular-widest-last": lambda: _rectangular_chain(4, [3, 2, 4, 1, 3] * 6 + [9]),
    "random-kernels": lambda: _random_chain(11, n=300),
    "seeded-S8": lambda: _seeded_chain(8, 4, 600),
    "seeded-S32": lambda: _seeded_chain(32, 4, 200),
    "one-kernel-two-observables": _one_kernel_two_observables_chain,
    "cycle3": lambda: _cycle3_chain(4096),
}


@pytest.mark.parametrize("target", [None, 2.5])
@pytest.mark.parametrize("case", sorted(_BLOCKING_CASES))
def test_blocking_matches_the_per_start_walk(case, target):
    spec = _BLOCKING_CASES[case]()
    rep = variance_decomposition(spec, target=target)
    series, runs = _series_runs(spec, 2, _SeriesStore())
    steps = [series[i] for i, _, count in runs for _ in range(count)]
    # laws doubled within each run of one kernel, as wide as each step's kernel
    laws = [law[: m.shape[1]] for law, m in zip(_step_laws(spec._plan), steps)]
    blocks, block_vars = reference_blocks(steps, laws, rep.target)
    assert rep.blocks == tuple(blocks) and rep.block_variances == tuple(block_vars)
    # the old blocking started each block from the marginals stepped one nu @ K at a time;
    # the doubled laws of the seeded chains and of the one kernel's 1480 steps differ from those in the last bits
    old_blocks, old_vars = reference_blocks(steps, marginals(spec), rep.target)
    assert old_blocks == blocks
    if case.startswith("seeded") or case == "one-kernel-two-observables":
        assert np.all(np.abs(np.subtract(old_vars, block_vars)) <= 2 * np.spacing(old_vars))
    else:
        assert old_vars == block_vars
    walked = reference_profile(steps, spec.initial)
    assert np.array_equal(rep.sigma2, variance_profile(spec))
    assert np.all(np.abs(rep.sigma2 - walked) <= 2 * np.spacing(walked))


def test_blocking_walks_a_chain_of_distinct_steps_once(monkeypatch):
    # a lockstep round costs one batched product per distinct step series among
    # its rows, so where no two steps share one the blocks walk alone, and the
    # profile walks its runs of one step: each step is taken once by each
    from edgekit.models import markov

    calls = []
    order2_rows = markov._order2_rows
    monkeypatch.setattr(markov, "_order2_rows", lambda v, m: calls.append(1) or order2_rows(v, m))
    spec = _random_chain(11, n=2000)
    variance_decomposition(spec)
    assert len(calls) == 2 * spec.n_steps


def test_blocking_builds_its_step_series_once(monkeypatch):
    # the laws, the profile and the blocks all read one build of the order-2 series
    from edgekit.models import markov

    calls = []
    series_runs = markov._series_runs
    monkeypatch.setattr(markov, "_series_runs",
                        lambda spec, kmax, store: calls.append(kmax) or series_runs(spec, kmax, store))
    spec = _random_chain(11, n=300)
    rep = variance_decomposition(spec)
    assert calls == [2]
    monkeypatch.undo()
    assert np.array_equal(rep.sigma2, variance_profile(spec))


def test_chain_model_serves_lower_orders_from_one_series(monkeypatch):
    from edgekit.models import families

    calls = []

    def counted(spec, kmax, store):
        calls.append(kmax)
        return cumulant_series(spec, kmax)

    monkeypatch.setattr(families, "_cumulant_series", counted)
    m = builtin_model("elliptic2")
    k8 = m.cumulants(300, 8)
    assert m.cumulants(300, 4) == k8[:4] and m.sigma2(300) == k8[1]
    assert calls == [8]
    assert m.sigma(301) > 0.0 and m.cumulant(301, 6) != 0.0
    assert calls == [8, 2, 6]


def test_iid_charfn_deriv_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    model = builtin_model("uniform")
    t = np.array([0.25, 1.0, 2.5, math.pi, 4.0, 7.5])  # psi = sin t / t vanishes at pi
    for n in (1, 5, 16, 64):
        for k in (0, 1, 2, 4, 6):
            got = np.atleast_1d(model.charfn_deriv(n, t, k))
            ref = np.array([complex(mp.diff(lambda x: (mp.sin(x) / x) ** n, mp.mpf(float(v)), k))
                            for v in t])
            # |d^k psi^n| <= E|S_n|^k <= (E S_n^2j)^(k/2j) with 2j >= k even. Binary
            # powering runs at most 2 log2 n products of k + 1 terms each.
            even = 2 * max(1, (k + 1) // 2)
            scale = max(1.0, cumulants_to_moments(model.cumulants(n, even))[-1] ** (k / even))
            tol = 4 * (math.log2(n) + 1) * (k + 1) * np.finfo(float).eps * scale
            assert np.max(np.abs(got - ref)) <= tol, (n, k)


# -- ellipticity and mixing --------------------------------------------------


def test_ellipticity_uniform_kernel():
    m = builtin_model("rademacher")
    rep = ellipticity_check(m.spec(6))
    # kernel rows are the uniform measure: two-step density is exactly 1
    assert rep.min_two_step == pytest.approx(1.0, abs=1e-12)
    assert rep.elliptic
    assert rep.eps == pytest.approx(1.0, abs=1e-12)


def test_ellipticity_detects_bad_kernel():
    initial = np.array([0.5, 0.5])
    k = np.array([[1.0, 0.0], [0.0, 1.0]])
    f = np.array([[1.0, -1.0], [1.0, -1.0]])
    spec = MarkovChainSpec(initial, (k,) * 4, (f - f.mean(),) * 4)
    rep = ellipticity_check(spec)
    assert rep.min_two_step == pytest.approx(0.0, abs=1e-12)
    assert not rep.elliptic


def test_psi_mixing_identity_vs_uniform():
    initial = np.array([0.5, 0.5])
    f = np.array([[1.0, -1.0], [1.0, -1.0]])
    ident = MarkovChainSpec(initial, (np.eye(2),) * 4, (f,) * 4)
    unif = MarkovChainSpec(initial, (np.full((2, 2), 0.5),) * 4, (f,) * 4)
    r_ident = psi_mixing_coefficient(ident, 1)
    r_unif = psi_mixing_coefficient(unif, 1)
    # deterministic coupling: P(A and B) = 1/2 while P(A)P(B) = 1/4
    assert r_ident == pytest.approx(1.0, abs=1e-12)
    assert r_unif == pytest.approx(0.0, abs=1e-12)


def test_raw_flip2_law_equals_the_precentered_one():
    # the DP centers S_n itself: subtracting the step means beforehand
    # changes no bit of the law
    for n in (16, 64, 512):
        spec = builtin_model("flip2").spec(n)
        means = step_means(spec)
        centered = MarkovChainSpec(spec.initial, spec.kernels,
                                   tuple(f - mu for f, mu in zip(spec.observables, means)))
        raw, pre = exact_distribution(spec), exact_distribution(centered)
        assert np.array_equal(raw.masses, pre.masses)
        assert np.array_equal(raw.support, pre.support)


def test_exact_distribution_is_shift_invariant():
    # the law is built from f_j - min f_j alone, so observables of size 1e6
    # leave no rounding of that size in the support
    spec = builtin_model("elliptic2").spec(512)
    shifted = MarkovChainSpec.homogeneous(spec.initial, spec.kernels[0],
                                          spec.observables[0] + 1e6, 512)
    base, moved = exact_distribution(spec), exact_distribution(shifted)
    assert np.array_equal(moved.masses, base.masses)
    assert np.max(np.abs(moved.support - base.support)) <= 1e-10


def test_exact_distribution_rejects_wrong_centering(monkeypatch):
    from edgekit.models import markov

    exact_means = markov._step_means

    def off_by_1e6(chain, g):
        # the step-3 mean, so the origin is off
        means = exact_means(chain, g)
        means[3] += 1e-6
        return means

    # elliptic2 is one powered run; an S = 32 chain is stepped, from one
    # end at n = 16 and from both at n = 256
    for spec, route, back in ((builtin_model("elliptic2").spec(64), _Power, []),
                              (_perfbench_chain(32, 16), _Moves, []),
                              (_perfbench_chain(32, 256), _Moves, [_Moves])):
        plan = _sweep_plan(spec)
        assert [type(step) for step, _ in plan[2]] == [route]
        assert [type(step) for step, _ in plan[3]] == back
        exact_distribution(spec)
        with monkeypatch.context() as patch:
            patch.setattr(markov, "_step_means", off_by_1e6)
            with pytest.raises(ValueError, match="mean"):
                exact_distribution(spec)


def _perfbench_chain(states, n, seed=7):
    """A chain shaped like the benchmark's chain files: Dirichlet rows, values in -2..2."""
    rng = np.random.Generator(np.random.PCG64([seed, states]))
    initial = rng.dirichlet(np.ones(states))
    kernel = rng.dirichlet(np.ones(states), size=states)
    obs = rng.integers(-2, 3, size=(states, states)).astype(float)
    obs.flat[:3] = (-2.0, 2.0, 1.0)
    return MarkovChainSpec.homogeneous(initial, kernel, obs, n)


def test_routes_power_the_builtins_and_step_wide_chains():
    # the cost comparison powers every run of equal S = 2 steps long enough
    # to matter and steps the 32- and 64-state chains
    for name, n in (("rademacher", 4096), ("elliptic2", 4096), ("symmetric2", 8192),
                    ("decay:0.25", 8192), ("elliptic2", 100000)):
        runs = _sweep_plan(builtin_model(name).spec(n))[2]
        lengths = [step.length if type(step) is _Power else count for step, count in runs]
        assert all(type(step) is _Power for (step, _), r in zip(runs, lengths) if r >= 64), name
        assert sum(r for (step, _), r in zip(runs, lengths) if type(step) is _Power) > 0.99 * n, name
    for states in (32, 64):
        plan, back = _sweep_plan(_perfbench_chain(states, 256))[2:4]
        assert [type(step) for step, _ in plan] == [type(step) for step, _ in back] == [_Moves]


def _seeded_chain(states, width, n):
    """Homogeneous chain with Dirichlet rows and integer values 0..width, step 1."""
    rng = np.random.Generator(np.random.PCG64([23, states, width]))
    kernel = rng.dirichlet(np.ones(states), size=states)
    obs = rng.integers(0, width + 1, size=(states, states)).astype(float)
    obs.flat[:3] = (0.0, float(width), 1.0)
    return MarkovChainSpec.homogeneous(rng.dirichlet(np.ones(states)), kernel, obs, n)


_ORACLE_CASES = (
    [(name, n) for name in ("rademacher", "elliptic2", "symmetric2", "flip2", "decay:0.25")
     for n in (1, 2, 3, 64, 4096)]
    + [("symmetric2", 8192)]
    + [(name, n) for name in ("seeded-s2-w4", "seeded-s3-w2") for n in (1, 3, 64, 4096)]
    + [("cycle3", n) for n in (3, 64, 4096)]
)


@pytest.mark.parametrize("name,n", _ORACLE_CASES)
def test_exact_distribution_matches_reference_dp(name, n):
    if name.startswith("seeded"):
        states, width = (int(part[1:]) for part in name.split("-")[1:])
        spec = _seeded_chain(states, width, n)
    elif name == "cycle3":
        spec = _cycle3_chain(n)
    else:
        spec = builtin_model(name).spec(n)
    d, shifts = _step_shifts(spec)
    origin, ref = reference_law(spec, d, shifts)
    dist = exact_distribution(spec)
    lo = round((dist.offset - origin) / d)
    assert 0 <= lo and lo + dist.masses.size <= ref.size
    got = np.zeros(ref.size)
    got[lo : lo + dist.masses.size] = dist.masses
    # both sides' derived bounds; below the normal range neither side has one
    bound = powered_error_bound(spec, shifts) + n * max(spec.state_counts) * _U
    live = ref > 1e-300
    assert np.all(np.abs(got[live] - ref[live]) <= bound * ref[live])
    assert np.all(got[~live] <= 1e-300)


# -- sweeps from both ends ----------------------------------------------------


def _stepped_powered_stepped(n_power, n_step):
    """Distinct S = 2 steps, a homogeneous run the sweep powers, then distinct steps again."""
    rng = np.random.Generator(np.random.PCG64(31))
    kernel = np.array([[0.7, 0.3], [0.4, 0.6]])
    obs = np.array([[0.0, 1.0], [1.0, 2.0]])
    kernels = rng.random((2 * n_step, 2, 2)) + 0.1
    kernels = list(kernels / kernels.sum(axis=2, keepdims=True))
    values = list(rng.integers(0, 3, size=(2 * n_step, 2, 2)).astype(float))
    return MarkovChainSpec([0.5, 0.5], tuple(kernels[:n_step] + [kernel] * n_power + kernels[n_step:]),
                           tuple(values[:n_step] + [obs] * n_power + values[n_step:]))


_SPLIT_CHAINS = {
    **{"flip2-%d" % n: (lambda n=n: builtin_model("flip2").spec(n)) for n in (2, 3, 64, 4096)},
    **{"random-%d" % n: (lambda n=n: _random_chain(11, n)) for n in (2, 3, 64, 4096)},
    **{"cycle3-%d" % n: (lambda n=n: _cycle3_chain(n)) for n in (3, 64, 4096)},
    "chain32-256": lambda: _perfbench_chain(32, 256),
    "chain64-256": lambda: _perfbench_chain(64, 256),
    "rectangular": lambda: _rectangular_chain(3, [2, 5, 3, 4] * 30),
    "stepped-powered-stepped": lambda: _stepped_powered_stepped(2000, 40),
}


def _split_bound(plan, back):
    """The relative bound `exact_distribution` states for a two-ended sweep: both halves' steps, then the join."""
    widths = [1 + sum(count * getattr(step, "length", 1) * step.width for step, count in half)
              for half in (plan, back)]
    return sum(count * step.error for step, count in plan + back) + back[-1][0].states * (min(widths) + 1) * _U


@pytest.mark.parametrize("name", sorted(_SPLIT_CHAINS))
def test_two_ended_sweep_matches_reference_dp(name, monkeypatch):
    from edgekit.models import markov

    spec = _SPLIT_CHAINS[name]()
    _, _, plan, back, _ = _sweep_plan(spec)
    n = spec.n_steps
    # on the short chains the join costs more than the steps it saves
    assert bool(back) == (name not in ("flip2-2", "flip2-3", "flip2-64", "random-2", "random-3", "cycle3-3"))
    # the backward half steps transposed kernels only, never a powered run
    assert all(type(step) is _Moves for step, _ in back)
    assert sum(count for _, count in back) + sum(getattr(step, "length", count) for step, count in plan) == n
    sweeps = []
    tolerance = markov._mean_tolerance

    def recorded(spec, means, cells, sweep):
        sweeps.append(sweep)
        return tolerance(spec, means, cells, sweep)

    monkeypatch.setattr(markov, "_mean_tolerance", recorded)
    dist = exact_distribution(spec)
    d, shifts = _step_shifts(spec)
    origin, ref = reference_law(spec, d, shifts)
    lo = round((dist.offset - origin) / d)
    assert 0 <= lo and lo + dist.masses.size <= ref.size
    got = np.zeros(ref.size)
    got[lo : lo + dist.masses.size] = dist.masses
    if back:
        bound = _split_bound(plan, back)
        # the mean check is told the join's error too
        assert sweeps == [pytest.approx(bound, rel=1e-12, abs=0.0)]
    else:
        bound = powered_error_bound(spec, shifts)
    # plus the textbook DP's own n S u; below the normal range neither side has a bound
    bound += n * max(spec.state_counts) * _U
    live = ref > 1e-300
    assert np.all(np.abs(got[live] - ref[live]) <= bound * ref[live])
    assert np.all(got[~live] <= 1e-300)


def test_powered_runs_are_swept_forward_whole():
    # the width midpoint lies inside the powered run, so the backward half
    # takes the trailing stepped stretch whole and stops at the power
    spec = _stepped_powered_stepped(2000, 40)
    _, _, plan, back, _ = _sweep_plan(spec)
    assert [type(step) for step, _ in plan] == [_Moves] * 40 + [_Power]
    assert plan[-1][0].length == 2000
    assert [type(step) for step, _ in back] == [_Moves] * 40
    # each distinct (kernel, shift array) pair is transposed once
    homog = _sweep_plan(_perfbench_chain(8, 256))
    assert [count for _, count in homog[2]] == [128] and [count for _, count in homog[3]] == [128]


@pytest.mark.parametrize("name,n", [("rademacher", 4096), ("rademacher", 100000), ("elliptic2", 4096),
                                    ("elliptic2", 100000), ("symmetric2", 4096), ("symmetric2", 8192),
                                    ("symmetric2", 16384), ("symmetric2", 100000)])
def test_powered_builtins_take_no_backward_half(name, n):
    # their plans end in powered runs (or in a stepped stretch too short
    # to pay for a join), so the law is the forward table's column sum
    spec = builtin_model(name).spec(n)
    _, _, plan, back, _ = _sweep_plan(spec)
    assert back == []
    table = spec.initial[:, None].copy()
    for step, count in plan:
        table = step.run(table, count)
    masses = table.sum(axis=0)
    dist = exact_distribution(spec)
    lo = int(np.nonzero(masses)[0][0])
    assert np.array_equal(dist.masses, masses[lo : lo + dist.masses.size])


def test_join_is_charged_to_the_cell_budget(monkeypatch):
    from edgekit.models import markov

    # chain64 at n = 256: a table of 64 x 1025 cells, split at 513 + 513;
    # both halves' tables grow at once (64 x 1026 cells), and beside them
    # the join holds both tables and their lifted tails, its output and
    # two lift arrays of 1025 cells
    spec = _perfbench_chain(64, 256)
    halves, join = 64 * (513 + 513), 2 * 64 * 1026 + 3 * 1025
    monkeypatch.setattr(markov, "_CELL_BUDGET", halves + join)
    split = exact_distribution(spec)
    assert _sweep_plan(spec)[3]
    monkeypatch.setattr(markov, "_CELL_BUDGET", halves + join - 1)
    assert _sweep_plan(spec)[3] == []
    forward = exact_distribution(spec)
    # the two routes agree within both bounds
    assert np.allclose(split.masses, forward.masses, rtol=1e-12, atol=0.0)


def _no_table(monkeypatch):
    """Make every table-building call fail the test."""
    from edgekit.models import markov

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(markov, "_poly_matmul", no_table)
    monkeypatch.setattr(_Power, "run", no_table)
    monkeypatch.setattr(_Moves, "run", no_table)


def test_chain_just_past_the_budget_is_refused_before_any_table(monkeypatch):
    from edgekit.models import markov

    # chain64 at n = 256 swept forward alone holds 64 x 1025 cells: at
    # that budget it runs without a backward half, one cell less is refused
    spec = _perfbench_chain(64, 256)
    monkeypatch.setattr(markov, "_CELL_BUDGET", 64 * 1025)
    assert _sweep_plan(spec)[3] == []
    assert exact_distribution(spec).masses.size == 1025
    monkeypatch.setattr(markov, "_CELL_BUDGET", 64 * 1025 - 1)
    _no_table(monkeypatch)
    with pytest.raises(ValueError, match="needs up to 65600 DP cells, above the budget of 65599"):
        exact_distribution(spec)


def test_forward_product_is_charged_beside_both_halves(monkeypatch):
    from edgekit.models import markov

    # a powered run's product holds more than the join: a backward half is
    # taken only while both halves' tables fit beside that product, and
    # without one the chain still runs forward, not refused
    spec = _stepped_powered_stepped(2000, 40)
    plan, back = _sweep_plan(spec)[2:4]
    power = plan[-1][0]
    start = 1 + sum(count * step.width for step, count in plan[:-1])
    columns = start + power.length * power.width + sum(count * step.width for step, count in back)
    held = power.price(start)[1]
    assert held > 2 * 2 * (columns + 1) + 3 * columns  # the join's holdings
    monkeypatch.setattr(markov, "_CELL_BUDGET", 2 * (columns + 1) + held)
    assert _sweep_plan(spec)[3]
    monkeypatch.setattr(markov, "_CELL_BUDGET", 2 * (columns + 1) + held - 1)
    assert _sweep_plan(spec)[3] == []
    exact_distribution(spec)


_THREAD_CHAINS = {
    "chain64-256": lambda: _perfbench_chain(64, 256),
    "chain32-256": lambda: _perfbench_chain(32, 256, seed=3),
    "symmetric2-8192": lambda: builtin_model("symmetric2").spec(8192),
    "elliptic2-4096": lambda: builtin_model("elliptic2").spec(4096),
    "flip2-4096": lambda: builtin_model("flip2").spec(4096),
    "rectangular": lambda: _rectangular_chain(3, [2, 5, 3, 4] * 30),
    "stepped-powered-stepped": lambda: _stepped_powered_stepped(2000, 40),
}


@pytest.mark.parametrize("name", sorted(_THREAD_CHAINS))
def test_threaded_and_serial_sweeps_give_the_same_bits(name, monkeypatch):
    import threading

    from edgekit.models import markov

    # a hand-off constant of 0 hands every half and every product of two
    # or more outputs to the worker thread, an infinite one none
    spec = _THREAD_CHAINS[name]()
    beside = []
    together = markov._together

    def spied(jobs):
        def traced(job):
            beside.append(threading.get_ident() != threading.main_thread().ident)
            return job()

        return together([functools.partial(traced, job) for job in jobs])

    monkeypatch.setattr(markov, "_together", spied)
    monkeypatch.setattr(markov, "_HANDOFF", float("inf"))
    serial = exact_distribution(spec)
    assert not any(beside)
    monkeypatch.setattr(markov, "_HANDOFF", 0.0)
    threaded = exact_distribution(spec)
    assert threaded.offset == serial.offset
    assert threaded.masses.tobytes() == serial.masses.tobytes()
    if name != "rectangular":  # halves of a few microseconds may all run here
        assert any(beside)
    # the plan does not depend on the gate
    plans = []
    for handoff in (0.0, float("inf")):
        monkeypatch.setattr(markov, "_HANDOFF", handoff)
        _, _, plan, back, _ = _sweep_plan(spec)
        plans.append([(type(step), getattr(step, "width", None), count) for step, count in plan + back])
    assert plans[0] == plans[1]


class _Raised(Exception):
    pass


def test_backward_half_exception_reaches_the_caller(monkeypatch):
    import threading

    from edgekit.models import markov

    spec = _perfbench_chain(64, 256)
    swept = markov._swept
    raised = _Raised("backward half")

    def failing(table, plan):
        if threading.current_thread() is not threading.main_thread():
            raise raised
        return swept(table, plan)

    monkeypatch.setattr(markov, "_HANDOFF", 0.0)
    monkeypatch.setattr(markov, "_swept", failing)
    with pytest.raises(_Raised) as info:
        exact_distribution(spec)
    assert info.value is raised
    # a forward half that raises leaves no backward half running
    started, finished = [], []

    def forward_fails(table, plan):
        if threading.current_thread() is threading.main_thread():
            raise raised
        started.append(1)
        time.sleep(0.05)
        out = swept(table, plan)
        finished.append(1)
        return out

    monkeypatch.setattr(markov, "_swept", forward_fails)
    with pytest.raises(_Raised):
        exact_distribution(spec)
    assert len(started) == len(finished)
    # and the worker serves the next law
    monkeypatch.setattr(markov, "_swept", swept)
    assert exact_distribution(spec).masses.tobytes() == exact_distribution(spec).masses.tobytes()


def test_concurrent_callers_share_the_worker_and_keep_the_bits(monkeypatch):
    import sys
    import threading

    from edgekit.models import markov

    # six callers on two cores hand halves and product groups to the one
    # worker, or take them back while it is busy, with a short switch
    # interval; every law keeps the bits of a serial sweep
    specs = [_perfbench_chain(32, 128, seed=1), _perfbench_chain(16, 256, seed=2),
             builtin_model("symmetric2").spec(2048)]
    monkeypatch.setattr(markov, "_HANDOFF", float("inf"))
    want = [exact_distribution(spec).masses.tobytes() for spec in specs]
    monkeypatch.setattr(markov, "_HANDOFF", 0.0)
    got, errors = {i: [] for i in range(6)}, []

    def work(i):
        try:
            for _ in range(3):
                got[i].append(exact_distribution(specs[i % 3]).masses.tobytes())
        except BaseException as exc:
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors
    assert all(got[i] == [want[i % 3]] * 3 for i in range(6))


def test_scenario_laws_stay_on_the_calling_thread(monkeypatch):
    from edgekit.harness.scenario import _PRESETS
    from edgekit.models import markov

    def no_worker():
        raise AssertionError("a scenario law reached the worker thread")

    monkeypatch.setattr(markov, "_worker", no_worker)
    for text in _PRESETS.values():
        fields = dict(line.split(" = ") for line in text.splitlines())
        name = fields["model"].split(":")[1]
        if name == "uniform":
            continue
        for n in map(int, fields["n"].split(",")):
            exact_distribution(builtin_model(name).spec(n))


def _mp_lattice_origin(spec):
    """-sum_j E[f_j - min f_j] from a 40-digit walk of the marginals."""
    import mpmath

    with mpmath.workdps(40):
        law = [mpmath.mpf(float(v)) for v in spec.initial]
        total = mpmath.mpf(0)
        steps = {}
        for kernel, f in zip(spec.kernels, spec.observables):
            if (id(kernel), id(f)) not in steps:
                k = [[mpmath.mpf(float(v)) for v in row] for row in kernel]
                g = f - float(f.min())
                h = [mpmath.fdot(row, [mpmath.mpf(float(v)) for v in grow]) for row, grow in zip(k, g)]
                steps[id(kernel), id(f)] = list(zip(*k)), h
            columns, h = steps[id(kernel), id(f)]
            total += mpmath.fdot(law, h)
            law = [mpmath.fdot(law, col) for col in columns]
        return -total


@pytest.mark.parametrize("case", ["elliptic2-512", "elliptic2-32768", "chain8-4096"])
def test_support_origin_is_one_rounding_of_the_step_means(case):
    from edgekit.models import markov

    name, n = case.rsplit("-", 1)
    n = int(n)
    spec = builtin_model(name).spec(n) if name == "elliptic2" else _perfbench_chain(8, n)
    d, diffs = _sweep_plan(spec)[:2]
    dist = exact_distribution(spec)
    means = markov._step_means(spec._plan, diffs)
    origin = -sum(Fraction(m) for m in means.tolist())
    # the offset is cell lo: one rounding of the exact sum of the step means,
    # then one more when d * lo is added
    lo = round((Fraction(dist.offset) - origin) / Fraction(d))
    assert abs(Fraction(dist.offset) - origin - lo * Fraction(d)) <= Fraction(math.ulp(float(origin))) / 2 \
        + Fraction(math.ulp(dist.offset)) / 2
    if name == "elliptic2":
        # a stationary start: every lattice mean is 0.4 up to the kernel's
        # binary rounding, which leaks 1.1e-17 of mass per step
        assert abs(float(origin) + 0.4 * n) <= 2 * math.ulp(0.4 * n)
    # each mean is within (j S + 2 S + 1) u of its exact value (`_step_laws`),
    # far inside the n-ulp drift of a running sum
    states = max(spec.state_counts)
    if n <= 4096:
        ref = _mp_lattice_origin(spec)
        slack = sum((j * states + 2 * states + 1) * _U * abs(m) for j, m in enumerate(means.tolist()))
        assert abs(float(origin - Fraction(str(ref)))) <= slack + math.ulp(float(origin))


def _psi_by_subsets(joint):
    """sup over event pairs of |P(A and B) / (P(A) P(B)) - 1|, by enumerating every subset."""
    px, py = joint.sum(axis=1), joint.sum(axis=0)
    a, b = joint.shape
    ua = ((np.arange(1, 2**a)[:, None] >> np.arange(a)) & 1).astype(float)
    ub = ((np.arange(1, 2**b)[:, None] >> np.arange(b)) & 1).astype(float)
    pa, pb = ua @ px, ub @ py
    keep_a, keep_b = pa > 0.0, pb > 0.0
    ratio = (ua[keep_a] @ joint @ ub[keep_b].T) / np.outer(pa[keep_a], pb[keep_b])
    return float(np.max(np.abs(ratio - 1.0)))


def test_psi_mixing_is_the_atom_pair_max():
    rng = np.random.Generator(np.random.PCG64(40))
    for _ in range(40):
        a, b = rng.integers(2, 9, size=2)
        initial = rng.dirichlet(np.ones(a)) * (rng.random(a) > 0.2)
        initial = initial / initial.sum() if initial.sum() > 0.0 else np.full(a, 1.0 / a)
        kernel = rng.dirichlet(np.ones(b), size=a) * (rng.random((a, b)) > 0.3)
        kernel[np.arange(a), rng.integers(0, b, size=a)] += 0.05  # no empty row
        kernel /= kernel.sum(axis=1, keepdims=True)
        spec = MarkovChainSpec(initial, (kernel,), (np.zeros((a, b)),))
        got = psi_mixing_coefficient(spec, 0)
        ref = _psi_by_subsets(initial[:, None] * kernel)
        # both sides round a ratio near 1 + psi: compare in its ulps
        assert abs(got - ref) <= 4 * np.spacing(1.0 + ref), (got, ref)


def test_psi_mixing_decays_with_gap():
    m = builtin_model("elliptic2")
    spec = m.spec(8)
    vals = [psi_mixing_coefficient(spec, 2, gap=g) for g in (1, 2, 3)]
    assert vals[0] > vals[1] > vals[2] > 0.0
    # second-eigenvalue 1/2 drives the decay
    assert vals[1] / vals[0] == pytest.approx(0.5, abs=0.1)


# -- chain file round trip ---------------------------------------------------


def test_chain_file_roundtrip(tmp_path):
    spec = builtin_model("flip2").spec(6)
    path = tmp_path / "flip2.chain"
    save_chain_spec(spec, path)
    back = load_chain_spec(path)
    assert back.n_steps == 6
    assert np.allclose(back.initial, spec.initial)
    for a, b in zip(back.kernels, spec.kernels):
        assert np.allclose(a, b, atol=0, rtol=0)
    for a, b in zip(back.observables, spec.observables):
        assert np.allclose(a, b, atol=0, rtol=0)
    d1 = exact_distribution(spec)
    d2 = exact_distribution(back)
    assert np.allclose(d1.masses, d2.masses, atol=1e-15)


# -- piecewise engine --------------------------------------------------------


def test_piecewise_uniform_basics():
    u = PiecewisePolyDistribution.uniform(-1.0, 1.0)
    assert u.total_mass == pytest.approx(1.0, abs=1e-15)
    assert u.moment(2) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert u.abs_moment(1) == pytest.approx(0.5, abs=1e-15)
    assert u.cdf(0.5) == pytest.approx(0.75, abs=1e-15)
    assert u.quantile(0.75) == pytest.approx(0.5, abs=1e-9)


def _uniform_sum(n):
    """Law of the sum of n iid Uniform(-1, 1) draws, by exact convolution."""
    return builtin_model("uniform").distribution(n)


def test_iid_sum_matches_analytic_triangle():
    d2 = _uniform_sum(2)
    xs = np.linspace(-1.9, 1.9, 21)
    assert np.allclose(d2.density(xs), (2.0 - np.abs(xs)) / 4.0, atol=1e-13)


def test_iid_sum_moments_match_cumulant_route():
    d = _uniform_sum(6)
    assert d.total_mass == pytest.approx(1.0, abs=1e-12)
    assert d.moment(2) == pytest.approx(2.0, abs=1e-12)
    # kappa4 additivity: m4 = 3 sigma^4 + n kappa4
    assert d.moment(4) == pytest.approx(3.0 * 4.0 + 6.0 * (-2.0 / 15.0), abs=1e-11)
    d.validate()


_CHARFN_T = np.array([0.0, 1e-6, 0.3, 1.0, -2.5, 7.77, -31.4, 100.1, -999.9, 1234.5, 9999.75])


def test_piecewise_charfn_matches_mpmath_uniform():
    # the closed form keeps the error at rounding for every t, and
    # |psi^(k)| <= E|X|^k <= 1 sets the absolute scale
    mp = pytest.importorskip("mpmath")
    u = PiecewisePolyDistribution.uniform(-1.0, 1.0)
    with mp.workdps(40):
        for k in (0, 1, 2, 4, 8, 16):
            got = u.charfn_deriv(_CHARFN_T, k)
            ref = np.array([complex(mp.diff(mp.sinc, mp.mpf(float(t)), k)) for t in _CHARFN_T])
            assert np.max(np.abs(got - ref)) <= 1e-15, "k=%d" % k


def test_iid_sum_charfn_deriv_matches_closed_form():
    # the sum of three Uniform(-1, 1) draws has psi = (sin t / t)^3
    mp = pytest.importorskip("mpmath")
    d3 = _uniform_sum(3)
    with mp.workdps(40):
        for k in (0, 1, 2, 4, 8, 16):
            got = d3.charfn_deriv(_CHARFN_T, k)
            ref = np.array([complex(mp.diff(lambda s: mp.sinc(s) ** 3, mp.mpf(float(t)), k))
                            for t in _CHARFN_T])
            # |psi^(k)| <= E|S_3|^k <= max(1, E S_3^(k + k mod 2))
            scale = max(1.0, d3.moment(k + k % 2))
            assert np.max(np.abs(got - ref)) <= 4 * np.finfo(float).eps * scale, "k=%d" % k


def test_piecewise_charfn_at_zero_negative_and_scalar_t():
    # density 2x on [0, 1], over two cells: psi^(k)(0) = i^k E X^k = i^k 2/(k+2),
    # and a real X has psi^(k)(-t) = (-1)^k conj(psi^(k)(t))
    d = PiecewisePolyDistribution([0.0, 0.5, 1.0], [[0.5, 2.0], [1.5, 2.0]])
    t = np.array([0.4, 3.0, 250.0])
    for k in (0, 1, 3, 16):
        at0 = d.charfn_deriv(0.0, k)
        assert isinstance(at0, complex)
        assert at0 == pytest.approx(1j**k * 2.0 / (k + 2), abs=4e-16)
        pos, neg = d.charfn_deriv(t, k), d.charfn_deriv(-t, k)
        assert np.max(np.abs(neg - (-1) ** k * np.conj(pos))) <= 4e-16
        assert d.charfn_deriv(3.0, k) == pytest.approx(pos[1], abs=4e-16)
    with pytest.raises(ValueError, match="derivative order"):
        d.charfn_deriv(0.0, 17)


def _charfns():
    """The four characteristic functions, each as f(t, k) (the expansion's has order 0 only)."""
    lattice = builtin_model("elliptic2").distribution(16)
    uniform = builtin_model("uniform")
    piecewise, expansion = uniform.distribution(3), uniform.expansion(4, 1)
    return {
        "lattice": lattice.charfn_deriv,
        "piecewise": piecewise.charfn_deriv,
        "iid": lambda t, k=0: uniform.charfn_deriv(4, t, k),
        "edgeworth": lambda t, k=0: expansion.charfn(t),
    }


@pytest.mark.parametrize("name", ["lattice", "piecewise", "iid", "edgeworth"])
def test_charfns_keep_the_shape_of_t(name):
    # one rule for all four: an array t keeps its shape, empty and one
    # element included, a 0-d t gives a complex, and a sequence of orders
    # puts its axis in front; only the lattice's chirp refuses a 2-d t
    f = _charfns()[name]
    t = np.linspace(-2.0, 2.0, 6)
    full = f(t)
    assert isinstance(full, np.ndarray) and full.shape == (6,) and full.dtype == complex
    empty = f(np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,) and empty.dtype == complex
    one = f(t[1:2])
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert one[0] == pytest.approx(full[1], rel=1e-13, abs=1e-15)
    for scalar in (t[1], float(t[1]), np.array(t[1])):
        value = f(scalar)
        assert isinstance(value, complex) and value == pytest.approx(full[1], rel=1e-13, abs=1e-15)
    if name == "lattice":
        with pytest.raises(ValueError, match="1-d grid"):
            f(t.reshape(2, 3))
    else:
        assert np.allclose(f(t.reshape(2, 3)), full.reshape(2, 3), rtol=1e-13, atol=1e-15)
    if name != "edgeworth":
        assert f(np.array([]), [0, 1]).shape == (2, 0)
        assert f(t[1:2], [0, 1]).shape == (2, 1)
        assert f(t[1], [0, 1]).shape == (2,)


def test_iid_sum_cap():
    with pytest.raises(ValueError):
        _uniform_sum(65)


def test_piecewise_deep_convolution_stays_clean():
    d = _uniform_sum(32)
    assert d.total_mass == pytest.approx(1.0, abs=1e-10)
    d.validate()
    assert d.moment(2) == pytest.approx(32.0 / 3.0, rel=1e-12)
    # near-Gaussian center value
    sigma = math.sqrt(32.0 / 3.0)
    assert d.density(0.0) * sigma == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=5e-3)


# -- grouped convolution vs the per-pair route -------------------------------


def _trim_coeffs(a, w):
    """Drop trailing coefficients that cannot affect values on [-w, w]."""
    pw = w ** np.arange(a.size)
    scale = float(np.sum(np.abs(a) * pw))
    if scale == 0.0:
        return np.zeros(1)
    keep = a.size
    while keep > 1 and abs(a[keep - 1]) * pw[keep - 1] < _TRIM_REL * scale:
        keep -= 1
    return a[:keep].copy()


def _pair_oracle(p, w, q, h):
    """One pair of pieces, substituting the limits by a ladder of np.convolve calls."""
    dp, dq = p.size - 1, q.size - 1
    m = np.zeros((dq + 1, dq + 1))
    for b in range(dq + 1):
        for tpow in range(b + 1):
            m[tpow, b - tpow] += q[b] * math.comb(b, tpow) * (-1.0) ** tpow
    full = np.zeros((dp + dq + 1, dq + 1))
    for a in range(dp + 1):
        full[a : a + dq + 1, :] += p[a] * m
    anti = np.zeros((dp + dq + 2, dq + 1))
    anti[1:, :] = full / np.arange(1, dp + dq + 2)[:, None]

    def eval_linear(alpha, beta):
        acc = np.zeros(anti.shape[0] + anti.shape[1])
        pow_poly = np.array([1.0])
        for ku in range(anti.shape[0]):
            term = np.convolve(pow_poly, anti[ku, :])
            acc[: term.size] += term
            pow_poly = np.convolve(pow_poly, np.array([beta, alpha]))
        return acc

    big, mid = w + h, abs(w - h)
    regimes = [(-big, -mid, (1.0, h), (0.0, -w))]
    if mid > 1e-14 * big:
        if w <= h:
            regimes.append((-mid, mid, (0.0, w), (0.0, -w)))
        else:
            regimes.append((-mid, mid, (1.0, h), (1.0, -h)))
    regimes.append((mid, big, (0.0, w), (1.0, -h)))
    out = []
    for s_lo, s_hi, upper, lower in regimes:
        if s_hi - s_lo <= 1e-14 * big:
            continue
        local = eval_linear(*upper) - eval_linear(*lower)
        local = local @ _shift_matrix(local.size, 0.5 * (s_lo + s_hi))
        out.append((s_lo, s_hi, _trim_coeffs(local, 0.5 * (s_hi - s_lo))))
    return out


def _convolve_oracle(a, b):
    """The per-pair convolution: every (cell of a, cell of b) pair in turn.

    Returns the grid, the coefficient list and how many placements moved a
    sub-piece to a cell with a different midpoint.
    """
    contribs, cuts = [], []
    for i in range(len(a.coeffs)):
        for j in range(len(b.coeffs)):
            c = a.centers[i] + b.centers[j]
            for s_lo, s_hi, cf in _pair_oracle(a.coeffs[i], a.halfwidths[i], b.coeffs[j], b.halfwidths[j]):
                contribs.append((c + s_lo, c + s_hi, cf))
                cuts += [c + s_lo, c + s_hi]
    grid = _snap_unique(np.array(cuts))
    cells = [np.zeros(1) for _ in range(grid.size - 1)]
    tol = 1e-9 * (float(np.max(np.abs(grid))) + 1.0)
    moved = 0
    for lo, hi, cf in contribs:
        il = int(np.searchsorted(grid, lo + tol) - 1)
        ih = int(np.searchsorted(grid, hi - tol) - 1)
        for cell in range(il, ih + 1):
            delta = 0.5 * (grid[cell] + grid[cell + 1]) - 0.5 * (lo + hi)
            moved += delta != 0.0 and cf.size > 1
            cells[cell] = np.polynomial.polynomial.polyadd(cells[cell], cf @ _shift_matrix(cf.size, delta))
    coeffs = [_trim_coeffs(cf, 0.5 * (grid[i + 1] - grid[i])) for i, cf in enumerate(cells)]
    return grid, coeffs, moved


def _assert_matches_oracle(a, b, tol=1e-14):
    """Same grid, same kept lengths, coefficients within tol of the table's largest |a_k| w^k.

    The scale is the whole table's: recentering a sub-piece cancels about
    2^degree in its far-tail cells, where two summation orders agree only
    to that (4e-6 of such a cell at n = 64 of the uniform chain).
    """
    got = a.convolve(b)
    grid, coeffs, moved = _convolve_oracle(a, b)
    assert np.array_equal(got.breaks, grid)
    assert [c.size for c in got.coeffs] == [c.size for c in coeffs]
    want = np.array([np.pad(c, (0, got._C.shape[1] - c.size)) for c in coeffs])
    powers = got.halfwidths[:, None] ** np.arange(want.shape[1])
    assert np.max(np.abs(got._C - want) * powers) <= tol * np.max(np.abs(want) * powers)
    return got, moved


def test_grouped_convolution_matches_per_pair_uniform_chain():
    u = PiecewisePolyDistribution.uniform(-1.0, 1.0)
    acc, moves = u, 0
    for _ in range(63):
        acc, moved = _assert_matches_oracle(acc, u)
        moves += moved
    assert moves == 0 and len(acc.coeffs) == 64


# (breaks, coefficients, n, whether some placement is recentered); the shapes
# need not integrate to one, since the convolution is linear in each factor
_PIECEWISE_BASES = {
    # unequal widths and sloped pieces: three regimes
    "skewed": ([-1.0, -0.25, 1.5], [[0.4, 0.2], [0.4, -0.1]], 12, True),
    "zero-cell": ([0.0, 1.0, 2.0, 3.0], [[0.5], [0.0], [0.5]], 10, False),
    # two of the three halfwidths differ by 2^-11 only
    "three-halfwidths": ([-1.0, -0.5, 2.0**-10, 1.5], [[0.4], [0.5, 0.2], [0.3, 0.05, -0.08]], 7, True),
    "cubic": ([-1.0, 1.0], [[0.5, 0.25, -0.3, -0.2]], 10, False),
}


@pytest.mark.parametrize("name", sorted(_PIECEWISE_BASES))
def test_grouped_convolution_matches_per_pair(name):
    breaks, coeffs, n, recentered = _PIECEWISE_BASES[name]
    base = PiecewisePolyDistribution(breaks, coeffs)
    acc, moves = base, 0
    for _ in range(n - 1):
        acc, moved = _assert_matches_oracle(acc, base)
        moves += moved
    assert (moves > 0) == recentered


# -- piecewise evaluation and quantile ---------------------------------------

def _uniform_sum_exact(n, x):
    """Exact (density, cdf) at x of a sum of n Uniform(-1, 1) draws.

    Irwin-Hall in exact rational arithmetic: the sum is 2 T - n with T a
    sum of n Uniform(0, 1) draws, so its density is f_T(t) / 2 and its
    CDF F_T(t) at t = (x + n) / 2. For n = 2 this is the triangle
    (2 - |x|) / 4.
    """
    t = (Fraction(float(x)) + n) / 2
    if t <= 0 or t >= n:
        return 0.0, float(t >= n)
    ks = range(math.floor(t) + 1)
    pdf = sum((-1) ** k * math.comb(n, k) * (t - k) ** (n - 1) for k in ks)
    cdf = sum((-1) ** k * math.comb(n, k) * (t - k) ** n for k in ks)
    return float(pdf / (2 * math.factorial(n - 1))), float(cdf / math.factorial(n))


def _grid_with_breaks(d, per_cell=7):
    inner = np.linspace(d.breaks[0], d.breaks[-1], per_cell * (d.breaks.size - 1) + 1)
    outside = [d.breaks[0] - 0.5, d.breaks[-1] + 0.5]
    return np.unique(np.concatenate([inner, d.breaks, outside]))


@pytest.mark.parametrize("n", [2, 3, 6, 12, 32, 64])
def test_piecewise_irwin_hall_closed_form_on_breakpoint_grid(n):
    d = _uniform_sum(n)
    x = _grid_with_breaks(d)
    exact = np.array([_uniform_sum_exact(n, xi) for xi in x])
    assert np.max(np.abs(d.density(x) - exact[:, 0])) <= 1e-14
    assert np.max(np.abs(d.cdf(x) - exact[:, 1])) <= 1e-14


def _uniform_sum_tail(n, x):
    """Exact P(S > x), S a sum of n Uniform(-1, 1) draws: F_T(n - t) at t = (x + n) / 2, as a Fraction."""
    s = n - (Fraction(float(x)) + n) / 2
    if s <= 0 or s >= n:
        return Fraction(int(s >= n))
    return sum((-1) ** k * math.comb(n, k) * (s - k) ** n for k in range(math.floor(s) + 1)) / math.factorial(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12, 16])
def test_piecewise_sf_matches_exact_irwin_hall_tails(n):
    # the survival mass is read from the cells right of x, so it keeps
    # its relative digits down to a 1e-18 floor of the cell tables;
    # 1 - cdf stops at the 1e-16 spacing of the doubles below 1
    d = _uniform_sum(n)
    x = _grid_with_breaks(d)
    exact = [_uniform_sum_tail(n, xi) for xi in x]

    def within(values):
        return [abs(Fraction(float(v)) - e) <= Fraction(1e-10) * e + Fraction(1e-18) for v, e in zip(values, exact)]

    assert all(within(d.sf(x)))
    if n >= 8:
        assert not all(within(1.0 - d.cdf(x)))
    assert d.sf(d.breaks[0] - 1.0) == d._surv[0] and d.sf(d.breaks[-1]) == 0.0


@pytest.mark.parametrize("n", [1, 2, 12, 32])
def test_quantile_round_trip_and_monotone(n):
    d = _uniform_sum(n)
    u = np.concatenate(
        [np.logspace(-14, -2, 97), np.linspace(0.01, 0.99, 197), 1.0 - np.logspace(-2, -14, 97)]
    )
    x = d.quantile(u)
    assert np.all(np.abs(d.cdf(x) - u) <= 64.0 * np.finfo(float).eps * np.maximum(u, 1.0))
    assert np.all(np.diff(x) >= 0.0)


def test_quantile_support_ends():
    d = _uniform_sum(3)
    lo, hi = d.breaks[0], d.breaks[-1]
    assert d.quantile(0.0) == lo
    assert d.quantile(-0.25) == lo
    assert d.quantile(d.total_mass) == hi
    assert d.quantile(d.total_mass + 1e-9) == hi
    assert d.quantile(2.0) == hi
    out = d.quantile(np.array([0.0, 0.5, d.total_mass, 3.0]))
    assert out[0] == lo and out[2] == hi and out[3] == hi
    assert out[1] == pytest.approx(0.0, abs=1e-15)


def test_quantile_flat_stretch_returns_left_end():
    d = PiecewisePolyDistribution([0.0, 1.0, 2.0, 3.0], [[0.5], [0.0], [0.5]])
    assert d.cdf(1.5) == 0.5
    assert d.quantile(0.5) == 1.0
    assert d.quantile(np.array([0.25, 0.5, 0.75])).tolist() == [0.5, 1.0, 2.5]
    assert 2.0 < d.quantile(0.5 + 1e-12) < 2.0 + 1e-11
    assert 1.0 - 1e-11 < d.quantile(0.5 - 1e-12) < 1.0


@pytest.mark.parametrize("n", [2, 12, 32])
def test_quantile_matches_bisection_oracle(n):
    d = _uniform_sum(n)
    u = np.linspace(0.05, 0.95, 37)
    lo = np.full(u.shape, d.breaks[0])
    hi = np.full(u.shape, d.breaks[-1])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = d.cdf(mid) >= u
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    assert np.max(np.abs(d.quantile(u) - hi)) <= 1e-13


# -- one build per n ----------------------------------------------------------


@pytest.mark.parametrize("name", ["rademacher", "elliptic2", "symmetric2", "flip2"])
def test_lattice_charfn_orders_in_one_transform_equal_per_order_calls(name):
    model = builtin_model(name)
    for n in (1, 16, 64, 512):
        d = model.distribution(n)
        for t in (0.0, 0.37, np.array([0.37]), np.linspace(-3.0, 3.0, 241), np.linspace(0.5, 8.0, 257)):
            rows = d.charfn_deriv(t, range(9))
            assert rows.shape == (9,) + np.shape(t)
            for k in range(9):
                assert np.array_equal(rows[k], d.charfn_deriv(t, k)), (n, k)
            picked = model.charfn_deriv(n, t, [4, 1])
            assert np.array_equal(picked, rows[[4, 1]])
    with pytest.raises(ValueError):
        d.charfn_deriv(0.3, [0, 17])


def test_iid_charfn_orders_in_one_power_equal_per_order_calls():
    model = builtin_model("uniform")
    for n in (1, 5, 16, 64):
        for t in (0.25, np.array([0.25]), np.linspace(0.5, 7.5, 31)):
            rows = model.charfn_deriv(n, t, range(7))
            assert rows.shape == (7,) + np.shape(t)
            for k in range(7):
                assert np.array_equal(rows[k], np.reshape(model.charfn_deriv(n, t, k), np.shape(t))), (n, k)


def _charfn_one_order(d, t, k):
    """The closed-form charfn at one order, cell by cell, with fresh Legendre weights and Bessel table."""
    from scipy.special import spherical_jn

    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros(t.shape, dtype=complex)
    for c, w, p in zip(d.centers, d.halfwidths, d.coeffs):
        xk = [math.comb(k, j) * c ** (k - j) * w**j for j in range(k + 1)]
        b = np.polynomial.legendre.poly2leg(np.convolve(xk, p * w ** np.arange(p.size)))
        l = np.arange(b.size)
        weights = 2.0 * w * b * np.array([1, 1j, -1, -1j])[(l + k) % 4]
        out += np.exp(1j * t * c) * (weights @ spherical_jn(l[:, None], w * t))
    return out


_CHARFN_GRIDS = (0.0, 0.37, -2.5, np.array([0.37]), np.linspace(-3.0, 3.0, 241), np.array([1e-6, 40.0, -999.9]))


@pytest.mark.parametrize("law", sorted(_PIECEWISE_BASES) + ["uniform-1", "uniform-5", "uniform-16", "uniform-64"])
def test_piecewise_charfn_orders_in_one_call_equal_per_order_calls(law):
    # one Bessel table per cell and the weights of each (cell, order) built
    # once give the bits of a lone order built from scratch
    if law.startswith("uniform-"):
        d = _uniform_sum(int(law.split("-")[1]))
    else:
        d = PiecewisePolyDistribution(*_PIECEWISE_BASES[law][:2])
    for t in _CHARFN_GRIDS:
        rows = d.charfn_deriv(t, range(17))
        assert rows.shape == (17,) + np.shape(t)
        for k in range(17):
            want = _charfn_one_order(d, t, k)
            assert np.array_equal(np.reshape(rows[k], -1), want), (law, k)
            single = d.charfn_deriv(t, k)
            assert np.array_equal(np.reshape(single, -1), want), (law, k)
            assert isinstance(single, complex) == (np.ndim(t) == 0)
        assert np.array_equal(d.charfn_deriv(t, [16, 3, 3]), rows[[16, 3, 3]])
    for orders in ([], [0, 17], [-1, 2], 17, -1):
        with pytest.raises(ValueError, match="derivative order must be in"):
            d.charfn_deriv(0.5, orders)


def test_piecewise_charfn_builds_each_table_once(monkeypatch):
    from edgekit.models import piecewise

    calls = {"jn": 0, "leg": 0}
    jn, leg = piecewise.spherical_jn, piecewise.legendre.poly2leg
    monkeypatch.setattr(piecewise, "spherical_jn", lambda *a: calls.__setitem__("jn", calls["jn"] + 1) or jn(*a))
    monkeypatch.setattr(piecewise.legendre, "poly2leg",
                        lambda *a: calls.__setitem__("leg", calls["leg"] + 1) or leg(*a))
    model = builtin_model("uniform")
    t = np.linspace(0.1, 5.0, 50)
    for _ in range(3):
        model.charfn_deriv(8, t, range(5))
    # one base cell: one Bessel table per call, the weights of orders 0..4 once
    assert calls == {"jn": 3, "leg": 5}
    d = PiecewisePolyDistribution(*_PIECEWISE_BASES["three-halfwidths"][:2])
    calls.update(jn=0, leg=0)
    d.charfn_deriv(t, range(4))
    d.charfn_deriv(t, [5, 2])
    assert calls == {"jn": 3 + 3, "leg": 3 * 4 + 3 * 1}


def test_convolution_builds_each_shift_matrix_once_and_its_law_from_the_table(monkeypatch):
    from edgekit.models import piecewise

    built = []
    shift = piecewise._shift_matrix
    monkeypatch.setattr(piecewise, "_shift_matrix", lambda d, delta: built.append(np.ndim(delta)) or shift(d, delta))
    u = PiecewisePolyDistribution.uniform(-1.0, 1.0)
    acc = u
    for _ in range(15):
        built.clear()
        nxt = acc.convolve(u)
        # equal halfwidths: rising and falling regimes at centers -1 and 1,
        # whose substitutions read shifts by 1 and -1 too
        assert built == [0, 0]
        acc = nxt
    monkeypatch.undo()
    # the law built from the trimmed table has the public constructor's bits
    fresh = PiecewisePolyDistribution(acc.breaks, acc.coeffs)
    for name in ("_C", "_A", "_ends", "_cum", "_surv", "centers", "halfwidths"):
        assert np.array_equal(getattr(acc, name), getattr(fresh, name)), name
    assert [c.tobytes() for c in acc.coeffs] == [c.tobytes() for c in fresh.coeffs]
    # signed zeros stay apart
    shifts = piecewise._shift_matrices()
    plus, minus = shifts(4, 0.0), shifts(4, -0.0)
    assert plus is shifts(4, 0.0) and minus is not plus
    assert np.array_equal(np.signbit(minus), np.signbit(shift(4, -0.0)))
    assert np.signbit(minus).any() and not np.signbit(plus).any()


def test_shift_matrix_takes_each_power_once_with_the_bits_of_the_full_table():
    def full_table(d, delta):
        k = np.arange(d)
        expo = k[:, None] - k
        powers = np.where(expo >= 0, np.power(np.asarray(delta)[..., None, None], np.maximum(expo, 0)), 0.0)
        return np.array([[math.comb(i, j) for j in range(d)] for i in range(d)], dtype=float) * powers

    rng = np.random.default_rng(11)
    deltas = list(rng.standard_normal(12) * 10.0 ** rng.integers(-12, 4, 12))
    deltas += [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e300, -1e-300, rng.standard_normal(9)]
    with np.errstate(over="ignore", invalid="ignore"):
        for d in (1, 2, 5, 17, 34, 66):
            for delta in deltas:
                got, want = _shift_matrix(d, delta), full_table(d, delta)
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), (d, delta)


def test_chain_model_shares_series_squares_across_n():
    # n = 32..512 of one homogeneous chain: 9 squarings of its order-5 step
    # series in all, where a store per call squares 5 + 6 + 7 + 8 + 9 times
    model = builtin_model("elliptic2")
    ns = (32, 64, 128, 256, 512)
    for n in ns:
        model.cumulants(n, 5)
    (series,) = [m for _, m in model._store._series.values()]
    assert len(model._store._squares[id(series)][0]) == 1 + 9
    for n in ns:
        assert model.cumulants(n, 5) == cumulant_series(model.spec(n), 5)
        model.blocking(n)
    assert len(model._store._series) == 2  # the order-2 series of the blocking beside it
    for n in ns:
        fresh = variance_decomposition(model.spec(n))
        assert np.array_equal(model.blocking(n).sigma2, fresh.sigma2)
        assert model.blocking(n).blocks == fresh.blocks


def test_order2_rows_keep_the_bits_of_all_nine_products():
    # the reference forms v_i M_b for every i and b in one product and
    # discards three; zeroed rows in their place change no kept bit
    def nine(v, series):
        n_rows, n_in = v.shape[1:]
        prod = np.matmul(v.reshape(-1, n_in), series).reshape(3, 3, n_rows, -1)
        p = prod[0] + np.stack([np.zeros_like(prod[0, 0]), prod[1, 0], prod[1, 1]])
        p[2] += prod[2, 0]
        s = p.sum(axis=2)
        q = np.empty_like(p)
        q[0] = p[0] / s[0][:, None]
        q[1] = (p[1] - s[1][:, None] * q[0]) / s[0][:, None]
        q[2] = (p[2] - s[1][:, None] * q[1] - s[2][:, None] * q[0]) / s[0][:, None]
        return q, s

    rng = np.random.default_rng(4)
    for states in (2, 3, 5, 17):
        series = rng.random((3, states, states)) / states
        for n_rows in (1, 2, 3, 7, 40):
            v = rng.standard_normal((3, n_rows, states))
            got, want = _order2_rows(v.copy(), series), nine(v, series)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (states, n_rows)


def test_series_refuses_a_non_finite_cumulant_and_names_its_order():
    good = np.full((2, 2), 0.5)
    f = np.array([[1e200, -1e200], [1.0, -1.0]])
    spec = MarkovChainSpec([0.5, 0.5], (good,) * 4, (f,) * 4)
    # the variance profile checks no cumulant: the step series is refused
    # where it is built, and no engine lets numpy warn first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for engine in (lambda s: cumulant_series(s, 4), variance_profile, variance_decomposition):
            with pytest.raises(ValueError, match="cumulant 2 of S_n is not finite"):
                engine(spec)
    # 1e120 survives order 2 but (1e120)^3 does not
    f = np.array([[1e120, -1e120], [1.0, -1.0]])
    spec = MarkovChainSpec([0.5, 0.5], (good,) * 4, (f,) * 4)
    assert math.isfinite(cumulant_series(spec, 2)[1])
    with pytest.raises(ValueError, match="cumulant 3 of S_n is not finite"):
        cumulant_series(spec, 3)


def test_lattice_snap_refuses_shifts_past_2_to_the_53():
    good = np.full((2, 2), 0.5)
    f = np.array([[1.0, -1.0], [1.0, -1.0]])
    for width, ok in ((2.0**54, True), (2.0**55, False)):
        wide = np.array([[width, 0.0], [0.0, width]])
        spec = MarkovChainSpec([0.5, 0.5], (good,) * 5, (f, f, f, wide, wide))
        if ok:
            _, _, shifts, numbers, _ = _common_lattice([f, wide], [0, 3])
            assert shifts[numbers[1]].max() == 2**53
        else:
            with pytest.raises(ValueError, match="observable 3 spans 1.8e\\+16 lattice steps of 2, past 2\\^53"):
                exact_distribution(spec)
