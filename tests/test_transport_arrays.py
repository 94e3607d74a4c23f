"""The array-at-once CDF-gap integral against its per-panel loop.

The CDF-gap integral evaluates every panel in one pass over arrays. The
loop below takes one panel at a time, over the same edges, as a running
total would, and serves as an oracle: the array code must reproduce it
bit for bit. The integral must also not lift the rounding noise of the
masses: laws that differ by about 1e-16 give bounds that differ by less
than 1e-12.
"""

import math

import numpy as np
import pytest

from edgekit import transport
from edgekit.edgeworth import build_expansion
from edgekit.models import LatticeDistribution, builtin_model
from edgekit.special import gaussian_partial_moments
from edgekit.transport import (
    GaussianLaw,
    lp_cdf_distance,
    wasserstein_upper_bound,
)

NS = (16, 64, 512)
PS = (1, 2, 3, 4)


def _gap_integral_per_panel(a, b, expo):
    lo, hi = transport._support_window(b, transport._support_window(a, (-12.0, 12.0)))
    edges, cut = transport._end_weights(*transport._gap_edges(a, b, lo, hi), float(expo).is_integer())
    # rules for no crossing, a crossing at the left end, the right end, both
    rules = [np.polynomial.legendre.leggauss(48)]
    for alpha, beta in ((0.0, expo), (expo, 0.0), (expo, expo)):
        t, wt = transport._gauss_jacobi(48, alpha, beta)
        rules.append((t, wt / ((1.0 - t) ** alpha * (1.0 + t) ** beta)))
    refined, kinds = [edges[0]], []
    for i, (x1, x2) in enumerate(zip(edges[:-1], edges[1:])):
        parts = max(1, int(math.ceil((x2 - x1) / transport._GAP_CELL)))
        refined.extend(x1 + (x2 - x1) * (k + 1) / parts for k in range(parts))
        kinds.extend(int(cut[i] and k == 0) + 2 * int(cut[i + 1] and k == parts - 1) for k in range(parts))
    edges = np.asarray(refined)
    tails = hasattr(a, "sf") and hasattr(b, "sf")
    total = 0.0
    for x1, x2, kind in zip(edges[:-1], edges[1:], kinds):
        if x2 - x1 <= 0.0:
            continue
        nodes, weights = rules[kind]
        mid = 0.5 * (x1 + x2)
        half = 0.5 * (x2 - x1)
        x = mid + half * nodes
        fa = np.asarray(a.cdf(x), dtype=float)
        gap = np.abs(fa - np.asarray(b.cdf(x), dtype=float))
        if tails:
            # past the median of a, the gap of the survival functions
            upper = np.abs(np.asarray(a.sf(x), dtype=float) - np.asarray(b.sf(x), dtype=float))
            gap = np.where(fa > 0.5, upper, gap)
        total += half * float(np.sum(weights * gap**expo))
    return total


def _standardized(model, n):
    sigma = model.sigma(n)
    return model.distribution(n).scale(1.0 / sigma), sigma


@pytest.mark.parametrize("name", ["rademacher", "elliptic2"])
@pytest.mark.parametrize("n", NS)
def test_gap_integral_equals_per_panel_loop(name, n):
    model = builtin_model(name)
    norm, _ = _standardized(model, n)
    gauss = GaussianLaw(0.0, 1.0)
    for p in PS:
        assert wasserstein_upper_bound(norm, gauss, p) == _gap_integral_per_panel(norm, gauss, 1.0 / p)
    assert lp_cdf_distance(norm, gauss, 2) == _gap_integral_per_panel(norm, gauss, 2.0) ** 0.5


@pytest.mark.parametrize("n", NS)
def test_gap_integral_against_expansion_equals_per_panel_loop(n):
    model = builtin_model("elliptic2")
    norm, _ = _standardized(model, n)
    exp = build_expansion(model, n, 4).truncated(2)
    for p in PS:
        assert wasserstein_upper_bound(norm, exp, p) == _gap_integral_per_panel(norm, exp, 1.0 / p)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_piecewise_gap_integral_equals_per_panel_loop(n):
    # a piecewise law is read through its survival function past the median
    model = builtin_model("uniform")
    norm, _ = _standardized(model, n)
    for ref in (GaussianLaw(0.0, 1.0), model.expansion(n, 1), model.expansion(n, 2)):
        for p in PS:
            assert wasserstein_upper_bound(norm, ref, p) == _gap_integral_per_panel(norm, ref, 1.0 / p)
        assert lp_cdf_distance(norm, ref, 2) == _gap_integral_per_panel(norm, ref, 2.0) ** 0.5


def test_interior_zero_masses_equal_loops():
    lat = LatticeDistribution(-1.3, 0.7, [0.2, 0.0, 0.3, 0.0, 0.0, 0.15, 0.0, 0.35])
    for gauss in (GaussianLaw(0.0, 1.0), GaussianLaw(0.4, 0.6), GaussianLaw(-2.0, 3.0)):
        for p in PS:
            assert wasserstein_upper_bound(lat, gauss, p) == _gap_integral_per_panel(lat, gauss, 1.0 / p)


def test_gap_integral_blocks_do_not_change_the_bits(monkeypatch):
    norm, _ = _standardized(builtin_model("elliptic2"), 64)
    exp = build_expansion(builtin_model("elliptic2"), 64, 4).truncated(2)
    pairs = [(norm, GaussianLaw(0.0, 1.0)), (norm, exp)]
    whole = [wasserstein_upper_bound(a, b, p) for a, b in pairs for p in (1, 2, 3)]
    monkeypatch.setattr(transport, "_GAP_BLOCK", 7)
    assert [wasserstein_upper_bound(a, b, p) for a, b in pairs for p in (1, 2, 3)] == whole


def _reference_sets():
    # a piecewise law and a lattice law, each against N(0, 1), expansions
    # and a Gaussian whose window reaches past +-12; a lattice/Gaussian
    # pair's non-integer orders cannot share their Jacobi nodes
    uniform, elliptic = builtin_model("uniform"), builtin_model("elliptic2")
    pw, _ = _standardized(uniform, 8)
    lat, _ = _standardized(elliptic, 64)
    wide = GaussianLaw(0.4, 6.0)
    return [(pw, [GaussianLaw(0.0, 1.0), uniform.expansion(8, 1), uniform.expansion(8, 2), wide]),
            (lat, [GaussianLaw(0.0, 1.0), elliptic.expansion(64, 1), wide, GaussianLaw(0.2, 1.7)])]


def test_references_and_orders_in_one_call_equal_one_call_each(monkeypatch):
    monkeypatch.setattr(transport, "_GAP_BLOCK", 7)
    ps = (1, 1.5, 2, 3, 4.5)
    for a, refs in _reference_sets():
        got = wasserstein_upper_bound(a, tuple(refs), ps)
        assert got.shape == (len(refs), len(ps))
        assert got.tolist() == [[wasserstein_upper_bound(a, b, p) for p in ps] for b in refs]
        # an axis for each argument given as a sequence
        assert wasserstein_upper_bound(a, refs[0], ps).tolist() == got[0].tolist()
        assert wasserstein_upper_bound(a, refs, 2).tolist() == got[:, 2].tolist()
        assert wasserstein_upper_bound(a, refs[1:2], [3]).tolist() == [[got[1, 3]]]


def test_one_pass_serves_every_pair_that_shares_panels(monkeypatch):
    # a piecewise law's references share their panels at every order; a
    # lattice law's expansion does too, while N(0, 1) takes the crossings
    # graded at p = 2 and p = 3, each with its own Jacobi nodes
    calls = []
    inner = transport._gap_pass
    monkeypatch.setattr(transport, "_gap_pass", lambda *args: calls.append(args[-2]) or inner(*args))
    (pw, pw_refs), (lat, lat_refs) = _reference_sets()
    wasserstein_upper_bound(pw, pw_refs[:2], (1, 2, 3))
    assert calls == [{0: [0, 1, 2], 1: [0, 1, 2]}]
    calls.clear()
    wasserstein_upper_bound(lat, lat_refs[:2], (1, 2, 3))
    assert sorted(calls, key=str) == [{0: [0]}, {0: [1]}, {0: [2]}, {1: [0, 1, 2]}]


def test_sequence_forms_refuse_empty_non_finite_and_unequal_masses():
    lat = LatticeDistribution(-1.0, 2.0, [0.5, 0.5])
    gauss = GaussianLaw(0.0, 1.0)

    class _Half:
        total_mass = 0.5

    for refs, ps in (([], 1), ((), (1, 2)), ([gauss], []), (gauss, ())):
        with pytest.raises(ValueError, match="at least one reference and one order"):
            wasserstein_upper_bound(lat, refs, ps)
    for p in (math.inf, math.nan, 0.5):
        with pytest.raises(ValueError, match="finite and >= 1"):
            wasserstein_upper_bound(lat, [gauss], (1, p))
    with pytest.raises(ValueError, match=r"reference 1 \(_Half\): total masses differ by 0.5"):
        wasserstein_upper_bound(lat, [gauss, _Half()], (1, 2))


def test_partial_moments_broadcast_equal_scalar_calls():
    ends = [-np.inf, -40.0, -7.5, -1.0, -0.25, 0.0, 0.3, 1.0, 2.5, 9.0, np.inf]
    a, b = (np.array(v) for v in zip(*[(x, y) for x in ends for y in ends if x <= y]))
    assert np.any(a == b) and np.any(np.isinf(a)) and np.any(np.isinf(b))
    for kmax in (0, 1, 2, 5, 8):
        arr = gaussian_partial_moments(kmax, a, b)
        assert arr.shape == (kmax + 1, a.size)
        for i in range(a.size):
            scalar = gaussian_partial_moments(kmax, float(a[i]), float(b[i]))
            assert scalar.shape == (kmax + 1,)
            assert np.array_equal(arr[:, i], scalar)
    # broadcasting keeps the endpoints' shape after the moment axis
    grid = gaussian_partial_moments(3, np.array([[-1.0], [0.0]]), np.array([0.5, 1.0, np.inf]))
    assert grid.shape == (4, 2, 3)
    assert np.array_equal(grid[:, 1, 2], gaussian_partial_moments(3, 0.0, np.inf))
    with pytest.raises(ValueError, match="a <= b"):
        gaussian_partial_moments(2, np.array([0.0, 2.0]), np.array([1.0, 1.0]))


def test_upper_tail_edges_come_from_suffix_sums():
    norm, _ = _standardized(builtin_model("elliptic2"), 512)
    edges, _, _ = transport._gap_edges(norm, GaussianLaw(0.0, 1.0), -12.0, 12.0)
    suffix = np.cumsum(norm.masses[::-1])[::-1][1:]  # P(X > x_i)
    suffix = suffix[(suffix > 1e-15) & (suffix < 0.5)]
    assert np.isin(-transport.ndtri(suffix), edges).all()
    assert edges.max() > 7.5  # levels down to 1e-15 reach past the old 1 - 1e-15 cut


@pytest.mark.parametrize("n", [128, 256, 1024])
def test_gap_bound_does_not_lift_rounding_noise_of_the_masses(n):
    # binomial masses by per-step convolution: within 2.2e-15 of the
    # model's, with a total that differs from it by up to 8e-16
    model = builtin_model("rademacher")
    law = model.distribution(n)
    masses = np.array([1.0])
    for _ in range(n):
        masses = np.convolve(masses, [0.5, 0.5])
    assert np.allclose(masses, law.masses, rtol=3e-15, atol=0.0)
    sigma = model.sigma(n)
    gauss = GaussianLaw(0.0, 1.0)
    other = LatticeDistribution(law.offset, law.step, masses).scale(1.0 / sigma)
    for p in (2, 3):
        base = wasserstein_upper_bound(law.scale(1.0 / sigma), gauss, p)
        assert wasserstein_upper_bound(other, gauss, p) == pytest.approx(base, rel=1e-12, abs=0.0)


def test_gap_edges_weight_only_crossings_inside_a_flat_stretch():
    norm, _ = _standardized(builtin_model("rademacher"), 16)
    edges, cut = transport._end_weights(*transport._gap_edges(norm, GaussianLaw(0.0, 1.0), -12.0, 12.0), False)
    first = transport.ndtri(norm.masses[0])  # left of the first atom: F = 0 there, no zero of |F - G|
    assert first < norm.support[0] and first in edges and not cut[edges == first][0]
    inner = edges[cut]
    assert inner.size > 0
    k = np.searchsorted(norm.support, inner) - 1
    assert np.all((norm.support[k] < inner) & (inner < norm.support[k + 1]))


@pytest.mark.parametrize("name, n, p", [("rademacher", 16, 2), ("rademacher", 16, 3), ("elliptic2", 64, 2),
                                        ("elliptic2", 32, 2), ("elliptic2", 32, 3), ("elliptic2", 256, 2)])
def test_gap_bound_matches_mpmath_at_non_integer_exponent(name, n, p):
    # int |F - Phi|^(1/p) dx in 30 digits, split at the atoms and at the
    # crossings; survival functions past the median, as the bound takes them
    mp = pytest.importorskip("mpmath")
    model = builtin_model(name)
    norm, _ = _standardized(model, n)
    with mp.workdps(30):
        xs = [mp.mpf(float(v)) for v in norm.support]
        ws = [mp.mpf(float(v)) for v in norm.masses]
        pts = {min(mp.mpf(-12), xs[0]), max(mp.mpf(12), xs[-1])} | set(xs)
        for k in range(len(xs) - 1):
            low, high = mp.fsum(ws[: k + 1]), mp.fsum(ws[k + 1:])
            xc = mp.sqrt(2) * mp.erfinv(2 * min(low, high) - 1) * (1 if low <= high else -1)
            if xs[k] < xc < xs[k + 1]:
                pts.add(xc)
        pts = sorted(pts)
        ref = mp.mpf(0)
        for a, b in zip(pts[:-1], pts[1:]):
            low = mp.fsum(w for x, w in zip(xs, ws) if x <= (a + b) / 2)
            high = mp.fsum(w for x, w in zip(xs, ws) if x > (a + b) / 2)
            if low <= high:
                ref += mp.quad(lambda x: abs(low - mp.ncdf(x)) ** (mp.mpf(1) / p), [a, b])
            else:
                ref += mp.quad(lambda x: abs(high - mp.ncdf(-x)) ** (mp.mpf(1) / p), [a, b])
    got = wasserstein_upper_bound(norm, GaussianLaw(0.0, 1.0), p)
    assert abs(got - float(ref)) <= 1e-14 * float(ref)


@pytest.mark.parametrize("n", [16, 48])
@pytest.mark.parametrize("alpha, beta", [(0.0, 0.5), (0.5, 0.0), (1 / 3, 1 / 3), (0.0, 2.5), (0.0, 0.0)])
def test_gauss_jacobi_rule_is_exact_to_degree_2n_minus_1(n, alpha, beta):
    mp = pytest.importorskip("mpmath")
    t, w = transport._gauss_jacobi(n, alpha, beta)
    assert np.all(np.diff(t) > 0.0) and -1.0 < t[0] and t[-1] < 1.0 and np.all(w > 0.0)
    with mp.workdps(30):
        mass = float(mp.quad(lambda x: (1 - x) ** alpha * (1 + x) ** beta, [-1, 0, 1]))
    for j in (0, 1, 2, 7, 2 * n - 1):
        with mp.workdps(30):
            ref = mp.quad(lambda x: (1 - x) ** alpha * (1 + x) ** beta * x**j, [-1, 0, 1])
        # a node off by a few ulps moves t^j by j times that, relative to the weight's mass
        assert abs(float(np.dot(w, t**j)) - float(ref)) <= 1e-15 * (j + 1) * mass, j


def _per_node_index(support, mid, x):
    # every node read on its own
    return np.zeros(mid.size, dtype=int), np.arange(x.size), np.searchsorted(support, x.ravel(), side="right")


def test_lattice_read_once_per_panel_equals_the_per_node_read(monkeypatch):
    # either side may be the lattice; sparse supports leave panels wider
    # than _GAP_CELL to split, and p > 1 takes the end-weighted rules
    model = builtin_model("elliptic2")
    norm, _ = _standardized(model, 64)
    exp = build_expansion(model, 64, 4).truncated(2)
    sparse = LatticeDistribution(-3.1, 2.3, [0.1, 0.0, 0.45, 0.3, 0.0, 0.15])
    other = builtin_model("rademacher").distribution(9).scale(1.0 / 3.0)
    gauss = GaussianLaw(0.0, 1.0)
    pairs = [(norm, gauss), (gauss, norm), (norm, exp), (sparse, gauss), (gauss, sparse),
             (sparse, GaussianLaw(0.2, 1.7)), (norm, other), (sparse, other)]
    ps = (1, 1.5, 2, 3, 4.5)

    def bounds():
        return ([wasserstein_upper_bound(a, b, p) for a, b in pairs for p in ps]
                + [lp_cdf_distance(a, b, 2) for a, b in pairs])

    per_panel = bounds()
    monkeypatch.setattr(transport, "_panel_index", _per_node_index)
    assert bounds() == per_panel


def test_panel_read_takes_nodes_rounded_onto_an_edge_one_by_one():
    # in a panel two ulps wide, nodes round onto both of its edges
    x1 = 1.0
    x2 = np.nextafter(np.nextafter(x1, 2.0), 2.0)
    support = np.array([-1.0, x1, x2, 3.0])
    nodes = np.polynomial.legendre.leggauss(transport._GAP_NODES)[0]
    edges = np.array([-1.0, 0.5, x1, x2, 2.0, 3.0])
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    x = mid[:, None] + half[:, None] * nodes
    assert np.any(x[2] == x2)
    at, stray, idx = transport._panel_index(support, mid, x)
    assert 0 < stray.size < x.size
    full = np.repeat(at, x.shape[1])
    full[stray] = idx
    assert np.array_equal(full, np.searchsorted(support, x.ravel(), side="right"))
