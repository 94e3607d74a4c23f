import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekit import transport
from edgekit.edgeworth import build_expansion
from edgekit.harness.scans import scan_transport
from edgekit.models import LatticeDistribution, PiecewisePolyDistribution, builtin_model
from edgekit.transport import (
    GaussianLaw,
    expectation_via_cdf,
    gaussian_coupling,
    lp_cdf_distance,
    wasserstein_distance,
    wasserstein_lattice_gaussian,
    wasserstein_lattice_lattice,
    wasserstein_upper_bound,
)

_THREE_ATOMS = LatticeDistribution(-0.5, 1.0, [0.3, 0.4, 0.3])
_INTERIOR_ZERO = LatticeDistribution(-1.3, 0.7, [0.2, 0.0, 0.3, 0.0, 0.0, 0.15, 0.0, 0.35])


def test_point_mass_displacement():
    d0 = LatticeDistribution(0.0, 1.0, [1.0])
    da = LatticeDistribution(0.7, 1.0, [1.0])
    for p in (1, 1.5, 2, 3):
        assert wasserstein_distance(d0, da, p) == pytest.approx(0.7, abs=1e-14)


def test_translated_two_point():
    a = LatticeDistribution(-1.0, 2.0, [0.5, 0.5])
    b = LatticeDistribution(0.0, 2.0, [0.5, 0.5])
    for p in (1, 1.5, 2, 4):
        assert wasserstein_distance(a, b, p) == pytest.approx(1.0, abs=1e-14)


def test_lattice_lattice_partial_overlap():
    # move mass 1/4 from 0 to 1: W1 = 1/4, W2 = 1/2
    a = LatticeDistribution(0.0, 1.0, [0.75, 0.25])
    b = LatticeDistribution(0.0, 1.0, [0.5, 0.5])
    assert wasserstein_lattice_lattice(a, b, 1) == pytest.approx(0.25, abs=1e-14)
    assert wasserstein_lattice_lattice(a, b, 2) == pytest.approx(0.5, abs=1e-14)


def test_pairs_with_no_route_are_refused():
    # no scan builds these pairs; each is refused by name, in either order
    g = GaussianLaw(0.0, 1.0)
    lat = LatticeDistribution(-1.0, 2.0, [0.5, 0.5])
    pw = PiecewisePolyDistribution([-1.0, 1.0], [[0.5]])
    for a, b, names in ((g, GaussianLaw(0.6, 1.0), "GaussianLaw and GaussianLaw"),
                        (lat, pw, "LatticeDistribution and PiecewisePolyDistribution"),
                        (pw, lat, "PiecewisePolyDistribution and LatticeDistribution"),
                        (pw, pw, "PiecewisePolyDistribution and PiecewisePolyDistribution")):
        for p in (1, 1.5):
            with pytest.raises(ValueError, match="no W_p route between " + names):
                wasserstein_distance(a, b, p)


def test_two_point_vs_gaussian_closed_forms():
    r1 = LatticeDistribution(-1.0, 2.0, [0.5, 0.5])
    g = GaussianLaw(0.0, 1.0)
    # W2^2 = E[(|Z| - 1)^2] = 2 - 2 sqrt(2/pi)
    ref = math.sqrt(2.0 - 2.0 * math.sqrt(2.0 / math.pi))
    assert wasserstein_lattice_gaussian(r1, g, 2) == pytest.approx(ref, abs=1e-13)
    # W1 = 2 int_0^1 (Phi - 1/2) + 2 int_1^inf (1 - Phi)
    from scipy.special import ndtr

    ref1 = 2.0 * (ndtr(1.0) + math.exp(-0.5) / math.sqrt(2 * math.pi) - 0.8989422804014327)
    ref1 += 2.0 * (math.exp(-0.5) / math.sqrt(2 * math.pi) - (1.0 - ndtr(1.0)))
    assert wasserstein_lattice_gaussian(r1, g, 1) == pytest.approx(ref1, abs=1e-12)


def test_w1_equals_cdf_gap_area():
    m = builtin_model("rademacher")
    d = m.distribution(8)
    g = GaussianLaw(0.0, m.sigma(8))
    w1 = wasserstein_lattice_gaussian(d, g, 1)
    area = lp_cdf_distance(d, g, 1)
    assert w1 == pytest.approx(area, rel=1e-9)


def test_odd_p_cell_splitting():
    # mean shifted so lattice points fall inside Gaussian mass: at odd p
    # the cut at z* is the kink of |z - z*|^p
    mp = pytest.importorskip("mpmath")
    lat, g = _THREE_ATOMS, GaussianLaw(0.1, 0.8)
    z = transport.ndtri(np.cumsum(lat.masses))[:-1]
    stars = (lat.support - g.mean) / g.sd
    assert np.any((np.append(-np.inf, z) < stars) & (stars < np.append(z, np.inf)))
    ref, _ = _mp_lattice_gaussian(mp, lat, g, (3,))
    assert wasserstein_lattice_gaussian(lat, g, 3) == pytest.approx(ref[3], rel=1e-13, abs=0.0)


def test_cell_rules_are_cached_by_the_type_of_p():
    # 3 == 3.0: an untyped cache hands the piecewise route's Legendre-only
    # rules for p = 3 to a later call at p = 3.0, which needs the Jacobi ends
    mp = pytest.importorskip("mpmath")
    transport._cell_rules.cache_clear()
    uniform = builtin_model("uniform")
    wasserstein_distance(uniform.distribution(4), GaussianLaw(0.0, uniform.sigma(4)), 3)
    lat, g = _THREE_ATOMS, GaussianLaw(0.1, 0.8)
    ref, _ = _mp_lattice_gaussian(mp, lat, g, (3,))
    for p in (3, 3.0):
        assert transport._wasserstein_quantile_quadrature(lat, g, p) == pytest.approx(ref[3], rel=1e-13, abs=0.0)


def test_upper_bound_dominates_distance():
    g = GaussianLaw(0.0, 1.0)
    for model, n in (("rademacher", 4), ("rademacher", 16)):
        m = builtin_model(model)
        d = m.distribution(n)
        gs = GaussianLaw(0.0, m.sigma(n))
        for p in (1, 2):
            w = wasserstein_lattice_gaussian(d, gs, p)
            ub = wasserstein_upper_bound(d, gs, p)
            assert ub >= w - 1e-10
    # p=1 the bound IS W1
    r1 = LatticeDistribution(-1.0, 2.0, [0.5, 0.5])
    assert wasserstein_upper_bound(r1, g, 1) == pytest.approx(
        wasserstein_lattice_gaussian(r1, g, 1), rel=1e-9
    )


def _z_domain_reference(a, g, p, npts=400001):
    """W_p(a, g)^p = int |Q_a(Phi_g(z)) - z|^p dPhi_g(z), trapezoid in z.

    Independent of the quantile-domain machinery: the substitution moves
    the Gaussian tail singularity into a smooth weight.
    """
    from scipy.special import ndtr, ndtri

    z = np.linspace(-10.0, 10.0, npts)
    masses = getattr(a, "masses", None)
    if masses is not None:
        # Straddle each quantile jump so the trapezoid rule does not
        # smear the discontinuity over a full grid cell.
        levels = np.cumsum(np.asarray(masses, dtype=float))[:-1]
        levels = levels[(levels > 1e-300) & (levels < 1.0)]
        zj = ndtri(np.clip(levels, 1e-300, 1.0 - 1e-16))
        zj = zj[(zj > -10.0) & (zj < 10.0)]
        z = np.union1d(z, np.concatenate([zj - 1e-9, zj + 1e-9]))
    x = g.mean + g.sd * z
    u = np.clip(ndtr(z), 1e-300, 1.0)
    qa = np.asarray(a.quantile(u), dtype=float)
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return float(np.trapezoid(np.abs(qa - x) ** p * phi, z)) ** (1.0 / p)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5),
    st.floats(-0.5, 0.5),
    st.floats(0.7, 1.5),
)
def test_lattice_gaussian_matches_quadrature(masses, mean, sd):
    masses = np.asarray(masses)
    lat = LatticeDistribution(-1.0, 0.8, masses / masses.sum())
    g = GaussianLaw(mean, sd)
    for p in (1, 2):
        exact = wasserstein_lattice_gaussian(lat, g, p)
        ref = _z_domain_reference(lat, g, p, npts=100001)
        assert exact == pytest.approx(ref, rel=2e-5, abs=1e-8)


def test_piecewise_vs_gaussian_quadrature_route():
    d = builtin_model("uniform").distribution(12)
    g = GaussianLaw(0.0, math.sqrt(12.0 / 3.0))
    w2 = wasserstein_distance(d, g, 2)
    ref = _z_domain_reference(d, g, 2, npts=20001)
    assert w2 == pytest.approx(ref, rel=1e-5)
    assert 0.0 < w2 < 0.2


def _irwin_hall_cells(n):
    """Left-half cells of the sum of n Uniform(-1, 1), exactly.

    Each is (left edge, right end, integer coefficients of 2^n n! F in
    t = x - left edge): the exact rational cell over the common denominator,
    from F(x) = sum_k (-1)^k C(n, k) (x + n - 2k)^n / (2^n n!).
    """
    out = []
    for j in range(n):
        left = -n + 2 * j
        if left >= 0:
            break
        coef = [sum((-1) ** k * math.comb(n, k) * math.comb(n, m) * (2 * (j - k)) ** (n - m)
                    for k in range(j + 1)) for m in range(n + 1)]
        out.append((left, min(left + 2, 0), coef))
    return out


def _exact_poly(mp, coef, t, scale):
    """sum_m coef[m] t^m / scale at an mpf t >= 0, in exact integer arithmetic."""
    man, shift = int(t.man), -int(t.exp)
    if man == 0:
        return mp.mpf(coef[0]) / scale
    if shift <= 0:
        return mp.mpf(sum(c * (man << -shift) ** m for m, c in enumerate(coef))) / scale
    deg = len(coef) - 1
    acc = coef[-1]
    for m in range(deg - 1, -1, -1):
        acc = acc * man + (coef[m] << (shift * (deg - m)))
    return mp.ldexp(mp.mpf(acc), -shift * deg) / scale


def _normal_score(mp, u):
    """Phi^{-1}(u) for 0 < u <= 1/2, by Newton steps on log Phi."""
    from scipy.special import ndtri

    log_u = mp.log(u)
    z = mp.mpf(float(ndtri(float(u)))) if u > 1e-300 else -mp.sqrt(-2 * log_u)
    for _ in range(60):
        cdf = mp.ncdf(z)
        step = (mp.log(cdf) - log_u) * cdf / mp.npdf(z)
        z -= step
        if abs(step) < mp.mpf(10) ** (3 - mp.mp.dps):
            return z
    raise AssertionError("no convergence at u = %s" % u)


def _irwin_hall_w(mp, n, ps):
    """W_p(sum of n Uniform(-1, 1), N(0, n/3)) / sigma by per-cell mpmath quadrature.

    By symmetry W_p^p is twice the left half, int |x - sigma Phi^{-1}(F)|^p f
    dx. Each cell's crossings of x = sigma Phi^{-1}(F(x)) are located by
    mpmath root finding and split the cell for mp.quad. Cells with F below
    1e-40 are skipped: they hold under 1e-40 (n + 40 sigma)^p of W_p^p.
    """
    with mp.workdps(24):
        sd = mp.sqrt(mp.mpf(n) / 3)
        scale = mp.mpf(2**n * math.factorial(n))
        total = {p: mp.mpf(0) for p in ps}
        for left, right, coef in _irwin_hall_cells(n):
            dcoef = [m * c for m, c in enumerate(coef)][1:]
            if _exact_poly(mp, coef, mp.mpf(right - left), scale) < 1e-40:
                continue
            cache = {}

            def h_f(x):
                if x not in cache:
                    t = x - left
                    score = _normal_score(mp, _exact_poly(mp, coef, t, scale))
                    cache[x] = (x - sd * score, _exact_poly(mp, dcoef, t, scale))
                return cache[x]

            # the last point sits off x = 0, where h vanishes by symmetry
            grid = [left + (right - left) * mp.mpf(k) / 16 for k in range(1, 16)]
            grid.append(right - mp.mpf(10) ** -12)
            hs = [h_f(x)[0] for x in grid]
            cuts = [mp.findroot(lambda x: h_f(x)[0], (a, b), solver="anderson")
                    for a, b, ha, hb in zip(grid, grid[1:], hs, hs[1:]) if ha * hb < 0]
            for p in ps:
                total[p] += mp.quad(lambda x: abs(h_f(x)[0]) ** p * h_f(x)[1], [left] + cuts + [right])
        return {p: float((2 * total[p]) ** (1 / mp.mpf(p)) / sd) for p in ps}


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_piecewise_vs_gaussian_matches_mpmath_irwin_hall(n):
    # w_gaussian of scan_transport: W_p(S_n, N(0, sigma^2)) / sigma
    mp = pytest.importorskip("mpmath")
    ps = (1, 1.5, 2)
    ref = _irwin_hall_w(mp, n, ps)
    model = builtin_model("uniform")
    sigma = model.sigma(n)
    for p in ps:
        w = wasserstein_distance(model.distribution(n), GaussianLaw(0.0, sigma), p) / sigma
        assert w == pytest.approx(ref[p], rel=1e-10 if n == 4 or p == 1.5 else 1e-12, abs=0.0)


def _mp_lattice_gaussian(mp, lat, gauss, ps):
    """W_p(lat, N(mean, sd^2)) for each p by mpmath, one quantile cell at a time.

    Edges come from the exact left sums below the median and the exact
    suffix sums above it (Fractions of the float masses), each solved for z
    by Newton's method on mp.ncdf in 40 digits. Each cell is split at
    z* = (x_c - mean) / sd when z* lies in it. At integer p a piece is
    the binomial sum of (z - z*)^p over closed-form Gaussian partial
    moments in 40 digits, at other p an mp.quad in 20. A finite cell
    whose mass times sd^p |z* - z|^p at its far end is below 1e-24 is left
    out; those bounds must add up to less than 1e-16 of every W_p^p.
    Returns ({p: W_p}, z* and edges of the first cell).
    """
    from fractions import Fraction

    live = np.flatnonzero(lat.masses > 0.0)
    masses = [Fraction(float(m)) for m in lat.masses[live]]
    left = [Fraction(0)]
    for m in masses:
        left.append(left[-1] + m)
    right = [left[-1] - c for c in left]  # the suffix sums, exact as well
    with mp.workdps(40):

        def solve(level):
            z = mp.mpf(float(transport.ndtri(float(level))))
            level = mp.mpf(level.numerator) / level.denominator
            for _ in range(6):
                z -= (mp.ncdf(z) - level) / mp.npdf(z)
            return z

        def power(a, b, star, p):
            """int_a^b (z - star)^p phi(z) dz, star outside (a, b), through the partial moments."""

            def end(x, k):
                return 0 if mp.isinf(x) else x ** (k - 1) * mp.npdf(x)

            # M_0 from the tail on the cell's side of 0, M_k = (k - 1) M_{k-2} + [x^{k-1} phi]_b^a
            moms = [mp.ncdf(b) - mp.ncdf(a) if a + b <= 0 else mp.ncdf(-a) - mp.ncdf(-b), end(a, 1) - end(b, 1)]
            for k in range(2, p + 1):
                moms.append((k - 1) * moms[k - 2] + end(a, k) - end(b, k))
            return mp.fsum(mp.binomial(p, k) * (-star) ** (p - k) * moms[k] for k in range(p + 1))

        sd = mp.mpf(float(gauss.sd))
        edges = [-mp.inf if lo == 0 else mp.inf if up == 0 else solve(lo) if lo <= up else -solve(up)
                 for lo, up in zip(left, right)]
        stars = [(mp.mpf(float(x)) - float(gauss.mean)) / sd for x in lat.support[live]]
        root = mp.sqrt(2 * mp.pi)
        out = {}
        for p in ps:
            total = left_out = mp.mpf(0)
            for c, star in enumerate(stars):
                a, b = edges[c], edges[c + 1]
                if mp.isfinite(a) and mp.isfinite(b):
                    bound = float(masses[c]) * float(sd) ** p * float(max(abs(star - a), abs(star - b))) ** p
                    if bound < 1e-24:
                        left_out += bound
                        continue
                cuts = [a, star, b] if a < star < b else [a, b]
                for lo, hi in zip(cuts[:-1], cuts[1:]):
                    if isinstance(p, int):
                        total += abs(power(lo, hi, star, p)) * sd**p
                    else:
                        with mp.workdps(20):
                            total += mp.quad(lambda z: abs(star - z) ** p * mp.exp(-z * z / 2) / root, [lo, hi]) * sd**p
            assert left_out < 1e-16 * total
            out[p] = float(total ** (1 / mp.mpf(p)))
        return out, (float(stars[0]), float(edges[0]), float(edges[1]))


@pytest.mark.parametrize("name, n", [("rademacher", 4), ("rademacher", 16), ("rademacher", 64),
                                     ("elliptic2", 8), ("elliptic2", 64), ("elliptic2", 512),
                                     ("symmetric2", 256)])
def test_lattice_gaussian_at_non_integer_p_matches_mpmath(name, n):
    # scan_transport's w_gaussian pair, W_p(S_n, N(0, sigma^2)), at
    # orders where the quantile cells take Gauss-Jacobi ends and grading
    mp = pytest.importorskip("mpmath")
    model = builtin_model(name)
    law, sigma = model.distribution(n), model.sigma(n)
    ps = (1.5, 2.5, 3.5)
    ref, (star, lo, hi) = _mp_lattice_gaussian(mp, law, GaussianLaw(0.0, sigma), ps)
    if n <= 8:
        assert lo < star < hi  # z* of the first atom lies in the infinite left cell
    for p in ps:
        got = wasserstein_distance(law, GaussianLaw(0.0, sigma), p)
        assert abs(got - ref[p]) <= 1e-13 * ref[p], p


_SMALL_PAIRS = {
    "interior-zero-0": (_INTERIOR_ZERO, GaussianLaw(0.0, 1.0)),
    "interior-zero-1": (_INTERIOR_ZERO, GaussianLaw(0.4, 0.6)),
    "interior-zero-2": (_INTERIOR_ZERO, GaussianLaw(-2.0, 3.0)),
    "three-atoms": (_THREE_ATOMS, GaussianLaw(0.1, 0.8)),
}


@pytest.mark.parametrize("pair", ["rademacher-16", "rademacher-256", "elliptic2-32", "elliptic2-512",
                                  "symmetric2-512", *_SMALL_PAIRS])
def test_lattice_gaussian_at_integer_p_matches_mpmath(pair):
    # the Legendre rule over the quantile cells, cut at z*, against closed-form partial moments
    mp = pytest.importorskip("mpmath")
    if pair in _SMALL_PAIRS:
        law, gauss = _SMALL_PAIRS[pair]
    else:
        name, n = pair.split("-")
        model = builtin_model(name)
        law, gauss = model.distribution(int(n)), GaussianLaw(0.0, model.sigma(int(n)))
    ps = (1, 2, 3, 4)
    ref, _ = _mp_lattice_gaussian(mp, law, gauss, ps)
    for p in ps:
        got = wasserstein_lattice_gaussian(law, gauss, p)
        assert abs(got - ref[p]) <= 1e-13 * ref[p], p
        assert wasserstein_distance(gauss, law, p) == got


def test_w4_of_symmetric2_at_n_8192_keeps_its_digits():
    # _mp_lattice_gaussian(mpmath, law, GaussianLaw(0.0, sigma), (4,)) for
    # law, sigma = symmetric2 at n = 8192 gives 0.06797156337764733 (15 s);
    # binomial sums over float partial moments gave 0.0729548
    model = builtin_model("symmetric2")
    law, sigma = model.distribution(8192), model.sigma(8192)
    assert wasserstein_distance(law, GaussianLaw(0.0, sigma), 4) == pytest.approx(0.06797156337764733, rel=1e-13, abs=0.0)


def test_scan_transport_on_piecewise_laws_inverts_no_quantile(monkeypatch):
    def refuse(self, u):
        raise AssertionError("quantile inversion on the piecewise/Gaussian route")

    monkeypatch.setattr(PiecewisePolyDistribution, "quantile", refuse)
    rep = scan_transport(builtin_model("uniform"), (1, 1.5, 2), (4, 8, 16, 32))
    assert rep.bound_ok and rep.gaussian.shape == (4, 3)
    # either argument order takes the same route
    law, g = builtin_model("uniform").distribution(8), GaussianLaw(0.1, 1.5)
    for p in (1, 1.5, 2, 3):
        assert wasserstein_distance(g, law, p) == wasserstein_distance(law, g, p)


def _bisect_one_level(keeps_lo, lo, hi, w):
    while np.any(hi - lo > 4.0 * np.finfo(float).eps * (np.abs(lo) + w)):
        mid = 0.5 * (lo + hi)
        same = keeps_lo(mid)
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return lo, hi


def test_batched_bisection_has_the_bits_of_the_one_level_loop():
    rng = np.random.default_rng(5)
    for size in (0, 1, 2, 7):
        w = rng.uniform(0.5, 3.0, size)
        lo = -w * rng.uniform(0.0, 1.0, size)
        hi = w * rng.uniform(0.0, 1.0, size)
        root = lo + (hi - lo) * rng.uniform(0.0, 1.0, size)
        root[: size // 2] = lo[: size // 2]  # a root on a bracket's end
        strict = rng.uniform(size=size) < 0.5  # whether h at the root has lo's sign

        def keeps_lo(v, strict=strict, root=root):
            shape = (-1,) + (1,) * (v.ndim - 1)
            return np.where(strict.reshape(shape), v < root.reshape(shape), v <= root.reshape(shape))

        got = transport._bisect(keeps_lo, lo, hi, w)
        want = _bisect_one_level(keeps_lo, lo, hi, w)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), size


def test_piecewise_sign_cuts_evaluate_h_in_rounds_and_no_density(monkeypatch):
    # 16 sign-grid points per cell, then one evaluation of h per 8 bisection
    # levels (47 levels here, where one evaluation per level made 47 more);
    # the density is read only by the panels' Gauss rules
    calls = {"masses": 0, "density": 0}
    masses, density = PiecewisePolyDistribution._cell_masses, PiecewisePolyDistribution._cell_density

    def count(name, fn):
        return lambda *a: calls.__setitem__(name, calls[name] + 1) or fn(*a)

    monkeypatch.setattr(PiecewisePolyDistribution, "_cell_masses", count("masses", masses))
    monkeypatch.setattr(PiecewisePolyDistribution, "_cell_density", count("density", density))
    law = builtin_model("uniform").distribution(32)
    sigma = math.sqrt(law.variance)
    for p, rules in ((1, 1), (1.5, 4)):
        calls.update(masses=0, density=0)
        wasserstein_distance(law, GaussianLaw(0.0, sigma), p)
        # the sign grid, 6 rounds of bisection, 2 edge gradings, one per rule
        assert calls == {"masses": 1 + 6 + 2 + rules, "density": rules}, p


def test_piecewise_vs_gaussian_bounds_noise_cells():
    model = builtin_model("uniform")
    law, g = model.distribution(8), GaussianLaw(0.0, model.sigma(8))

    def with_far_cell(density):
        return PiecewisePolyDistribution(np.append(law.breaks[0] - 2.0, law.breaks),
                                         [np.array([density])] + law.coeffs)

    # a far cell of negative rounding-size mass is left out, its bound negligible
    for p in (1, 2):
        clean = wasserstein_distance(law, g, p)
        assert wasserstein_distance(with_far_cell(-1e-60), g, p) == pytest.approx(clean, rel=1e-14, abs=0.0)
    # one that could carry a visible share of W_p^p is refused
    with pytest.raises(ValueError, match="rounding noise"):
        wasserstein_distance(with_far_cell(-1e-12), g, 2)


def test_normalization_guard():
    bad = LatticeDistribution(0.0, 1.0, [0.5, 0.4])
    with pytest.raises(ValueError):
        wasserstein_lattice_lattice(bad, bad, 1)
    half = PiecewisePolyDistribution([-1.0, 1.0], [[0.25]])
    with pytest.raises(ValueError, match="not normalized"):
        wasserstein_distance(half, GaussianLaw(0.0, 1.0), 2)


def test_expectation_via_cdf_matches_exact_moments():
    m = builtin_model("elliptic2")
    e = build_expansion(m, 12, 5)
    for q in (1, 2, 3, 4):
        val = expectation_via_cdf(e.cdf, lambda x: x**q, lambda x, q=q: q * x ** (q - 1))
        assert val == pytest.approx(e.moment(q), abs=1e-7)


def test_expectation_via_cdf_gaussian():
    g = GaussianLaw(0.0, 1.0)
    m4 = expectation_via_cdf(g.cdf, lambda x: x**4, lambda x: 4 * x**3)
    assert m4 == pytest.approx(3.0, abs=1e-7)


def test_gaussian_coupling_shrinks_relatively():
    m = builtin_model("rademacher")
    ns = (16, 64, 256)
    rel = [gaussian_coupling(m, n, p=2, target=4.0) / m.sigma(n) for n in ns]
    assert rel[0] > rel[1] > rel[2]
    reps = [m.blocking(n, target=4.0) for n in ns]
    # remainder variance stays bounded by construction
    assert all(r.b[n] <= 2.0 * 4.0 + 1e-9 for n, r in zip(ns, reps))
    # a + b add back to the full variance
    for n, r in zip(ns, reps):
        assert r.a[n] + r.b[n] == pytest.approx(r.sigma2[n], abs=1e-9)
    # the distance is W_2 to N(0, a_n)
    law = m.distribution(64)
    ref = wasserstein_lattice_gaussian(law, GaussianLaw(0.0, math.sqrt(reps[1].a[64])), 2)
    assert gaussian_coupling(m, 64, p=2, target=4.0) == ref


def test_lp_cdf_distance_translation_and_oracle():
    g1 = GaussianLaw(0.0, 1.0)
    g2 = GaussianLaw(0.4, 1.0)
    # p=1: layer-cake identity, the area between translates is the shift
    assert lp_cdf_distance(g1, g2, 1) == pytest.approx(0.4, abs=1e-9)
    assert lp_cdf_distance(g1, g1, 2) == pytest.approx(0.0, abs=1e-12)
    # p=2 against a dense fixed-grid Riemann oracle
    m = builtin_model("rademacher")
    d = m.distribution(16)
    gs = GaussianLaw(0.0, m.sigma(16))
    x = np.linspace(-14.0, 14.0, 2000001)
    gap2 = (d.cdf(x) - gs.cdf(x)) ** 2
    oracle = math.sqrt(float(np.trapezoid(gap2, x)))
    assert lp_cdf_distance(d, gs, 2) == pytest.approx(oracle, rel=1e-4)


def test_wasserstein_monotone_in_p():
    lat = LatticeDistribution(-1.5, 1.0, [0.2, 0.3, 0.3, 0.2])
    g = GaussianLaw(0.1, 1.2)
    vals = [wasserstein_distance(lat, g, p) for p in (1, 1.5, 2, 3)]
    for lo, hi in zip(vals[:-1], vals[1:]):
        assert hi >= lo - 1e-9
    # non-integer p agrees with the z-domain reference
    assert vals[1] == pytest.approx(_z_domain_reference(lat, g, 1.5, npts=100001), rel=2e-5)


def test_metric_axioms_on_samples():
    a = LatticeDistribution(-1.0, 1.0, [0.25, 0.5, 0.25])
    b = LatticeDistribution(-0.5, 1.0, [0.4, 0.6])
    g = GaussianLaw(0.0, 1.0)
    for p in (1, 2):
        dab = wasserstein_distance(a, b, p)
        assert wasserstein_distance(b, a, p) == pytest.approx(dab, abs=1e-9)
        dag = wasserstein_distance(a, g, p)
        dbg = wasserstein_distance(b, g, p)
        assert dag <= dab + dbg + 1e-8
        assert dab <= dag + dbg + 1e-8


@pytest.mark.parametrize("p", [math.inf, math.nan, 0.5])
@pytest.mark.parametrize("fn", [wasserstein_distance, wasserstein_lattice_gaussian, lp_cdf_distance,
                                wasserstein_upper_bound])
def test_transport_orders_must_be_finite_and_at_least_one(fn, p):
    a = LatticeDistribution(-1.0, 2.0, [0.5, 0.5])
    with pytest.raises(ValueError, match="finite and >= 1"):
        fn(a, GaussianLaw(0.0, 1.0), p)


@pytest.mark.parametrize("fn", [lp_cdf_distance, wasserstein_upper_bound])
def test_cdf_gap_refuses_a_lattice_against_a_piecewise_law(fn):
    # no route puts the crossings of the lattice's flat stretches with the
    # piecewise CDF on panel edges; either order is refused by name
    lat = LatticeDistribution(-1.0, 2.0, [0.5, 0.5])
    pw = PiecewisePolyDistribution.uniform(-1.0, 1.0)
    for a, b in ((lat, pw), (pw, lat)):
        with pytest.raises(ValueError, match="no CDF-gap route between %s and %s"
                           % (type(a).__name__, type(b).__name__)):
            fn(a, b, 1)


def test_scan_transport_refuses_non_finite_orders():
    with pytest.raises(ValueError, match="finite"):
        scan_transport(builtin_model("rademacher"), (1, math.inf), (16, 32))


def test_upper_bound_rejects_mass_mismatch():
    half = LatticeDistribution(0.0, 1.0, [0.5])

    class _Half:
        total_mass = 0.5

        def cdf(self, x):
            return 0.5 * np.asarray(half.cdf(x))

    with pytest.raises(ValueError):
        wasserstein_upper_bound(_Half(), GaussianLaw(0.0, 1.0), 1)


_SHAPE_LAWS = {
    "lattice": lambda: builtin_model("elliptic2").distribution(16),
    "piecewise": lambda: builtin_model("uniform").distribution(4),
    "expansion": lambda: build_expansion(builtin_model("elliptic2"), 16, 4),
    "gaussian": lambda: GaussianLaw(0.3, 1.2),
}


@pytest.mark.parametrize("name", sorted(_SHAPE_LAWS))
def test_law_functions_keep_the_input_shape(name):
    # an array keeps its shape (empty, one element, 2-d); a 0-d input gives a float
    law = _SHAPE_LAWS[name]()
    points = np.array([-1.5, -0.2, 0.0, 0.4, 1.1, 2.5])
    levels = np.array([0.05, 0.2, 0.5, 0.7, 0.9, 0.99])
    methods = [m for m in ("cdf", "cdf_left", "sf", "pdf", "density", "quantile") if hasattr(law, m)]
    assert {"cdf", "sf"} <= set(methods)
    for method in methods:
        fn = getattr(law, method)
        x = levels if method == "quantile" else points
        full = fn(x)
        assert isinstance(full, np.ndarray) and full.shape == x.shape, method
        assert fn(np.array([])).shape == (0,), method
        one = fn(x[:1])
        assert isinstance(one, np.ndarray) and one.shape == (1,) and one[0] == full[0], method
        for scalar in (x[1], float(x[1]), np.array(x[1])):
            value = fn(scalar)
            assert isinstance(value, float) and np.ndim(value) == 0 and value == full[1], method
        grid = fn(x.reshape(2, 3))
        assert grid.shape == (2, 3) and np.array_equal(grid, full.reshape(2, 3)), method
