import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekit.edgeworth import build_expansion
from edgekit.harness.scans import scan_transport
from edgekit.models import LatticeDistribution, builtin_model
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


def test_point_mass_displacement():
    d0 = LatticeDistribution(0.0, 1.0, [1.0])
    da = LatticeDistribution(0.7, 1.0, [1.0])
    for p in (1, 2, 3):
        assert wasserstein_distance(d0, da, p) == pytest.approx(0.7, abs=1e-14)


def test_translated_two_point():
    a = LatticeDistribution(-1.0, 2.0, [0.5, 0.5])
    b = LatticeDistribution(0.0, 2.0, [0.5, 0.5])
    for p in (1, 2, 4):
        assert wasserstein_distance(a, b, p) == pytest.approx(1.0, abs=1e-14)


def test_lattice_lattice_partial_overlap():
    # move mass 1/4 from 0 to 1: W1 = 1/4, W2 = 1/2
    a = LatticeDistribution(0.0, 1.0, [0.75, 0.25])
    b = LatticeDistribution(0.0, 1.0, [0.5, 0.5])
    assert wasserstein_lattice_lattice(a, b, 1) == pytest.approx(0.25, abs=1e-14)
    assert wasserstein_lattice_lattice(a, b, 2) == pytest.approx(0.5, abs=1e-14)


def test_gaussian_shift_and_scale():
    g1 = GaussianLaw(0.0, 1.0)
    g2 = GaussianLaw(0.6, 1.0)
    g3 = GaussianLaw(0.0, 2.0)
    assert wasserstein_distance(g1, g2, 1) == pytest.approx(0.6, abs=1e-10)
    assert wasserstein_distance(g1, g2, 2) == pytest.approx(0.6, abs=1e-10)
    # equal means: W2 = |sd1 - sd2|
    assert wasserstein_distance(g1, g3, 2) == pytest.approx(1.0, abs=1e-9)


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
    # mean shifted so lattice points fall inside Gaussian mass: exercises
    # the sign-flip split for odd p against the quantile quadrature route
    lat = LatticeDistribution(-0.5, 1.0, [0.3, 0.4, 0.3])
    g = GaussianLaw(0.1, 0.8)

    class _Wrap:
        def quantile(self, u):
            return lat.quantile(u)

    exact = wasserstein_lattice_gaussian(lat, g, 3)
    quad = wasserstein_distance(_Wrap(), g, 3)
    assert exact == pytest.approx(quad, rel=1e-8)


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


def test_normalization_guard():
    bad = LatticeDistribution(0.0, 1.0, [0.5, 0.4])
    with pytest.raises(ValueError):
        wasserstein_lattice_lattice(bad, bad, 1)


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
@pytest.mark.parametrize("fn", [wasserstein_distance, lp_cdf_distance, wasserstein_upper_bound])
def test_transport_orders_must_be_finite_and_at_least_one(fn, p):
    a = LatticeDistribution(-1.0, 2.0, [0.5, 0.5])
    with pytest.raises(ValueError, match="finite and >= 1"):
        fn(a, GaussianLaw(0.0, 1.0), p)


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
