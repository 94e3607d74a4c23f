"""Acceptance gate: one test and one printed pass line per criterion.

Each test exercises the package end to end against closed-form anchors,
brute-force oracles, or the stated whole-range verdict rules, with the
stated runtime budgets enforced.
"""

import itertools
import math
import time

import numpy as np
import pytest

from edgekit.cumulants import (
    cumulants_to_moments,
    fit_stationary,
    moments_to_cumulants,
    tail_integral_check,
)
from edgekit.edgeworth import build_expansion, enumerate_correction_tuples
from edgekit.harness import (
    scan_assumptions,
    scan_coupling,
    scan_nonuniform,
    scan_stationarity,
    scan_transport,
)
from edgekit.models import (
    MarkovChainSpec,
    builtin_model,
    builtin_model_names,
    exact_distribution,
)
from edgekit.special import gaussian_derivative, hermite_value, normal_pdf
from edgekit.transport import GaussianLaw, expectation_via_cdf, wasserstein_distance

from path_enumeration import enumerate_distribution, step_means

_NS_FULL = (16, 32, 64, 128, 256, 512)


def _chain_corpus():
    """Deterministic 2- and 3-state chains with centered integer scores."""
    specs = []
    for states in (2, 3):
        for seed in (11, 12, 13):
            for steps in (3, 5, 8):
                rng = np.random.Generator(np.random.Philox(key=seed * 100 + states))
                initial = rng.random(states)
                initial /= initial.sum()
                kernels = []
                observables = []
                for _ in range(steps):
                    k = rng.random((states, states)) + 0.1
                    k /= k.sum(axis=1, keepdims=True)
                    kernels.append(k)
                    observables.append(rng.integers(-2, 3, size=(states, states)).astype(float))
                spec = MarkovChainSpec(initial, tuple(kernels), tuple(observables))
                means = step_means(spec)
                observables = [f - mu for f, mu in zip(observables, means)]
                specs.append(MarkovChainSpec(initial, tuple(kernels), tuple(observables)))
    for name in ("elliptic2", "flip2", "symmetric2", "rademacher"):
        specs.append(builtin_model(name).spec(8))
    return specs


def _weighted_sup(model, n, cdf_of_x, power):
    sigma = model.sigma(n)
    dist = model.distribution(n)
    x = np.linspace(-8.0, 8.0, 401)
    gap = np.abs(dist.cdf(sigma * x) - cdf_of_x(x))
    return float(np.max((1.0 + np.abs(x)) ** power * gap))


def test_criterion_01_exact_law_matches_path_enumeration():
    t0 = time.perf_counter()
    checked = 0
    for spec in _chain_corpus():
        d = exact_distribution(spec)
        pairs = enumerate_distribution(spec)
        live = d.masses > 1e-15
        vals = d.support[live]
        masses = d.masses[live]
        assert len(pairs) == vals.size
        for (v, p), dv, dm in zip(pairs, vals, masses):
            assert abs(dv - v) < 1e-9
            assert abs(dm - p) <= 1e-12
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print("criterion 1: PASS - %d chains, dp vs enumeration <= 1e-12, %.2fs" % (checked, elapsed))


def test_criterion_02_classical_iid_anchor():
    t0 = time.perf_counter()
    uni = builtin_model("uniform")
    rep = scan_nonuniform(uni, 3, 1, (4, 8, 16, 32))
    drop = rep.scaled[-1] / rep.scaled[0]
    assert drop <= 0.5

    full = build_expansion(uni, 32, 4)
    sup1 = _weighted_sup(uni, 32, full.truncated(1).cdf, 3)
    sup2 = _weighted_sup(uni, 32, full.truncated(2).cdf, 3)
    improvement = 1.0 - sup2 / sup1
    assert improvement >= 0.30

    # classical coefficients behind the corrections
    x = np.linspace(-4.0, 4.0, 161)
    sigma2 = uni.sigma2(32)
    k4 = uni.cumulant(32, 4)
    # kappa3 = 0 kills the first correction; the second is -He3/60 here
    assert float(np.max(np.abs(full.polys[0](x)))) < 1e-12
    expect2 = (k4 / (24.0 * sigma2)) * hermite_value(3, x)
    assert full.polys[1](x) == pytest.approx(expect2, abs=1e-12)
    assert k4 / (24.0 * sigma2) == pytest.approx(-1.0 / 60.0, rel=1e-12)

    ell = builtin_model("elliptic2")
    eexp = build_expansion(ell, 32, 4)
    es2 = ell.sigma2(32)
    ek3 = ell.cumulant(32, 3)
    ek4 = ell.cumulant(32, 4)
    expect1 = (ek3 / (6.0 * es2)) * hermite_value(2, x)
    expect2 = (ek4 / (24.0 * es2)) * hermite_value(3, x) + (
        ek3**2 / (72.0 * es2**2)
    ) * hermite_value(5, x)
    assert eexp.polys[0](x) == pytest.approx(expect1, rel=1e-10, abs=1e-12)
    assert eexp.polys[1](x) == pytest.approx(expect2, rel=1e-10, abs=1e-12)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        "criterion 2: PASS - weighted error drop %.2f, order-2 improvement %.0f%%, "
        "coefficients 1/6 1/24 1/72 confirmed, %.2fs" % (drop, 100 * improvement, elapsed)
    )


def test_criterion_03_nonuniform_normal_error_bounded():
    t0 = time.perf_counter()
    stats = {}
    for name in ("elliptic2", "rademacher"):
        rep = scan_nonuniform(builtin_model(name), 3, 0, _NS_FULL)
        ratio = float(np.max(rep.scaled) / np.median(rep.scaled))
        assert ratio <= 1.5
        assert rep.verdict == "bounded"
        stats[name] = ratio
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        "criterion 3: PASS - max/median %.3f (elliptic2) %.3f (rademacher), %.2fs"
        % (stats["elliptic2"], stats["rademacher"], elapsed)
    )


def test_criterion_04_transport_rate_and_cdf_gap_bound():
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("elliptic2", "rademacher"):
        rep = scan_transport(builtin_model(name), (1, 2), _NS_FULL, r=0, m=3)
        for j in range(len(rep.ps)):
            col = rep.gaussian_scaled[:, j]
            ratio = float(np.max(col) / np.median(col))
            worst = max(worst, ratio)
            assert ratio <= 1.5
        assert rep.bound_ok  # W_p <= integrated CDF-gap bound within 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print("criterion 4: PASS - worst max/median %.3f, bound holds on all pairs, %.2fs" % (worst, elapsed))


def test_criterion_05_symmetric_chain_transport_improves():
    sym = builtin_model("symmetric2")
    vals = {}
    for n in (32, 512):
        sd = sym.sigma(n)
        vals[n] = wasserstein_distance(sym.distribution(n), GaussianLaw(0.0, sd), 1)
    ratio = vals[512] / vals[32]
    assert ratio <= 0.5
    print("criterion 5: PASS - sigma*W1 ratio 512/32 = %.3f" % ratio)


def test_criterion_06_gaussian_coupling_distances_bounded():
    for name in ("elliptic2", "rademacher"):
        rep = scan_coupling(builtin_model(name), _NS_FULL, p=2)
        ratio = float(np.max(rep.distances) / np.median(rep.distances))
        assert ratio <= 1.5
        assert rep.a_monotone
        assert rep.b_bounded
    print("criterion 6: PASS - W2 to blocked normal bounded, a monotone, b within 2A+overshoot")


def test_criterion_07_moment_expansion_identities():
    uni = builtin_model("uniform")
    gaps = []
    for n in (4, 8, 16, 32):
        sd = uni.sigma(n)
        exact = uni.distribution(n).moment(4) / sd**4
        psi = build_expansion(uni, n, 4).truncated(2)
        via_int = expectation_via_cdf(psi.cdf, lambda t: t**4, lambda t: 4.0 * t**3)
        gaps.append(abs(exact - via_int) * sd**2)
    # the order-2 law reproduces the fourth moment exactly, so the scaled
    # gap is zero for every n: decrease holds degenerately at round-off
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-10
    assert max(gaps) <= 1e-10

    names = [n for n in builtin_model_names() if ":" not in n] + ["decay:0.3"]
    for name in names:
        model = builtin_model(name)
        n = min(64, model.max_steps or 64)
        w2 = model.distribution(n).moment(2) / model.sigma2(n)
        assert w2 == pytest.approx(1.0, abs=1e-8)
    print(
        "criterion 7: PASS - scaled 4th-moment gap <= %.1e (exact match), E[W^2]=1 on %d models"
        % (max(gaps), len(names))
    )


def test_criterion_08_assumption_checkers():
    names = [n for n in builtin_model_names() if ":" not in n] + ["decay:0.3"]
    for name in names:
        model = builtin_model(name)
        hi = min(128, model.max_steps or 128)
        ns = tuple(hi // 8 * k for k in (1, 2, 4, 8))
        rep = scan_assumptions(model, ns, m=4)
        assert rep.derivative.bounded, name

    tail_lattice = tail_integral_check(builtin_model("rademacher"), (16, 32, 64, 128, 256), m=3)
    assert not tail_lattice.vanishing
    tail_smooth = tail_integral_check(builtin_model("uniform"), (4, 8, 16, 32), m=3)
    assert tail_smooth.vanishing

    for model in ("rademacher", "elliptic2"):
        rep = scan_nonuniform(builtin_model(model), 4, 1, (8, 16))
        assert rep.flagged and "lattice" in rep.flag_reason
    assert not scan_nonuniform(builtin_model("rademacher"), 4, 0, (8, 16)).flagged
    print(
        "criterion 8: PASS - derivative bounds on %d models, lattice tail plateau vs "
        "smooth tail decay, r>=1 lattice flag" % len(names)
    )


def test_criterion_09_stationary_fit_and_shape():
    ell = builtin_model("elliptic2")
    ns = (32, 64, 128, 256, 512)
    fit = fit_stationary(ell, ns, kmax=4)
    r2 = np.abs(fit.residuals[:, 1])
    ratio = r2[ns.index(256)] / r2[ns.index(32)]
    assert ratio <= 0.1

    rep = scan_stationarity(ell, 4, ns)
    col = rep.scaled[:, 0]
    assert float(np.max(col) / np.median(col)) <= 1.5
    assert rep.order_verdicts[0] == "bounded"
    print(
        "criterion 9: PASS - variance-fit residual ratio %.2e, first-correction shape "
        "gap flat at %.4f" % (ratio, float(np.median(col)))
    )


def test_criterion_10_identity_suite():
    t0 = time.perf_counter()
    x = np.linspace(-4.0, 4.0, 81)

    # probabilists' polynomials against an independent coefficient route
    for k in range(13):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        ref = np.polynomial.hermite_e.hermeval(x, coeffs)
        assert hermite_value(k, x) == pytest.approx(ref, rel=1e-6, abs=1e-6)

    # Gaussian derivative identity, spot-checked by central differences
    for k in (1, 2, 3):
        h = 1e-3
        stencil = {1: ([-0.5, 0.0, 0.5], [-1, 0, 1]),
                   2: ([1.0, -2.0, 1.0], [-1, 0, 1]),
                   3: ([-0.5, 1.0, 0.0, -1.0, 0.5], [-2, -1, 0, 1, 2])}[k]
        w, offs = stencil
        fd = sum(c * normal_pdf(x + o * h) for c, o in zip(w, offs)) / h**k
        assert gaussian_derivative(k, x) == pytest.approx(fd, abs=1e-5)

    # transform pair: the expansion's charfn vs quadrature of its density
    exp = build_expansion(builtin_model("uniform"), 8, 4)
    xs = np.linspace(-12.0, 12.0, 20001)
    pdf = exp.pdf(xs)
    for t in (0.3, 1.1, 2.7):
        quad = np.trapezoid(np.exp(1j * t * xs) * pdf, xs)
        assert abs(exp.charfn(t) - quad) < 1e-6

    # moment <-> cumulant round trips
    # unit-scale cumulants keep the intermediate moments O(1); larger ones
    # lose digits to cancellation before the stated tolerance is reachable
    rng = np.random.Generator(np.random.Philox(key=5))
    for _ in range(20):
        kappas = (0.5 * rng.normal(size=8)).tolist()
        back = moments_to_cumulants(cumulants_to_moments(kappas))
        assert back == pytest.approx(kappas, abs=1e-12)

    # correction tuple enumeration against brute force
    for j in range(1, 9):
        brute = 0
        for combo in itertools.product(*(range(j // i + 1) for i in range(1, j + 1))):
            if sum(i * k for i, k in enumerate(combo, start=1)) == j:
                brute += 1
        assert len(list(enumerate_correction_tuples(j))) == brute

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print("criterion 10: PASS - hermite, gaussian-derivative, transform pair, "
          "round trips, tuple counts, %.2fs" % elapsed)
