import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgekit.cumulants import (
    bounded_last,
    bounded_max,
    cumulants_to_moments,
    decays,
    derivative_bound_check,
    fit_stationary,
    log_charfn_profile,
    log_derivatives,
    matched,
    moments_to_cumulants,
    tail_decays,
    tail_integral_check,
)
from edgekit.models import builtin_model


def test_moment_cumulant_known_pairs():
    # two-point +-1: m = (0,1,0,1) -> kappa = (0,1,0,-2)
    assert moments_to_cumulants([0.0, 1.0, 0.0, 1.0]) == pytest.approx([0.0, 1.0, 0.0, -2.0])
    # centered Gaussian: kappa = (0, s2, 0, 0) -> m4 = 3 s2^2
    assert cumulants_to_moments([0.0, 2.0, 0.0, 0.0]) == pytest.approx([0.0, 2.0, 0.0, 12.0])
    # Poisson(lam): all cumulants lam; m3 = lam + 3lam^2 + lam^3
    lam = 0.7
    m = cumulants_to_moments([lam] * 4)
    assert m[2] == pytest.approx(lam + 3 * lam**2 + lam**3, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=1, max_size=8))
def test_moment_cumulant_roundtrip(kappas):
    m = cumulants_to_moments(kappas)
    back = moments_to_cumulants(m)
    scale = max(1.0, max(abs(v) for v in m))
    assert all(abs(a - b) <= 1e-9 * scale for a, b in zip(kappas, back))


def test_log_derivatives_against_exp():
    # f = exp(g) with g a known cubic; compare symbolically derived values
    t = np.linspace(-0.8, 0.8, 7)
    g1 = 0.3 - 0.5 * t + 0.2 * t**2
    g2 = -0.5 + 0.4 * t
    g3 = np.full_like(t, 0.4)
    g = 0.1 + 0.3 * t - 0.25 * t**2 + (0.2 / 3.0) * t**3
    f = np.exp(g)
    f1 = g1 * f
    f2 = (g2 + g1**2) * f
    f3 = (g3 + 3 * g1 * g2 + g1**3) * f
    out = log_derivatives(np.stack([f, f1, f2, f3]))
    assert np.allclose(out[0], g1, atol=1e-12)
    assert np.allclose(out[1], g2, atol=1e-12)
    assert np.allclose(out[2], g3, atol=1e-11)


def test_log_derivatives_rejects_tiny_magnitude():
    with pytest.raises(ValueError):
        log_derivatives(np.array([[1e-13], [0.0]]))


def test_rademacher_profile_closed_form():
    # S_4/2 has charfn cos(t/2)^4: lam(t) = 4 ln|cos(t/2)| + t^2/2
    m = builtin_model("rademacher")
    prof = log_charfn_profile(m, 4, jmax=4, eps=1.0)
    t = prof.t
    assert t[-1] == pytest.approx(2.0)  # eps * sigma = 1 * 2
    ref = 4.0 * np.log(np.abs(np.cos(t / 2.0))) + t**2 / 2.0
    assert np.max(np.abs(prof.lam - ref)) < 1e-12
    i0 = t.size // 2
    assert prof.deriv(2)[i0] == pytest.approx(0.0, abs=1e-12)
    # lam'''' (0) = -1/2: fourth cumulant of S_4/2 is -8/16
    assert prof.deriv(4)[i0].real == pytest.approx(-0.5, abs=1e-10)


def test_profile_clips_at_magnitude_floor():
    # the window edge t = eps * sigma = pi is a grid sample on the charfn
    # zero of cos(t/2)^4; the 241-point grid keeps the sample before it
    m = builtin_model("rademacher")
    prof = log_charfn_profile(m, 4, jmax=2, eps=math.pi / 2.0)
    assert prof.clipped
    assert prof.t[-1] == pytest.approx(math.pi * 119.0 / 120.0, abs=1e-12)
    assert prof.eps_effective == pytest.approx(math.pi * 119.0 / 240.0, abs=1e-12)


def test_derivative_bounds_elliptic2():
    m = builtin_model("elliptic2")
    rep = derivative_bound_check(m, (8, 16, 32, 64), jmax=4, eps=1.0)
    assert rep.bounded
    assert rep.values.shape == (4, 4)


def test_tail_integral_separates_lattice_from_smooth():
    u = builtin_model("uniform")
    r = builtin_model("rademacher")
    tu = tail_integral_check(u, (8, 16, 32, 64), m=3)
    tr = tail_integral_check(r, (16, 32, 64, 128, 256), m=3)
    assert tu.vanishing
    assert not tr.vanishing
    # the lattice plateau sits well above zero
    assert tr.values[-1] > 1.0


def test_verdict_rules():
    assert bounded_max([1.0, 1.2, 0.9, 1.4]) and bounded_last([1.0, 1.2, 0.9, 1.4])
    # a spike in the middle fails the strict rule only
    assert not bounded_max([1.0, 1.0, 2.0, 1.0]) and bounded_last([1.0, 1.0, 2.0, 1.0])
    assert not bounded_last([1.0, 1.0, 1.0, 1.6])
    # rounding noise around zero stays bounded
    assert bounded_max([0.0, 0.0, 1e-13]) and bounded_last([0.0, 0.0, 1e-13])
    assert decays([1.0, 0.9, 0.7]) and not decays([1.0, 0.5, 0.9])
    assert decays([0.0, 0.0]) and not decays([0.0, 1e-3])
    assert tail_decays([4.0, 2.0, 1.0])
    assert not tail_decays([4.0, 2.0, 1.99])  # a plateau reached from above
    # a zero tail mass is an empty window, no evidence of decay
    assert not tail_decays([0.0, 1.0, 0.0]) and not tail_decays([1.0, 0.0, 0.0])
    assert not tail_decays([1.0])
    assert matched([1e-7, 5e-7]) and not matched([1e-7, 2e-6])


def test_fit_stationary_elliptic2():
    m = builtin_model("elliptic2")
    fit = fit_stationary(m, (8, 12, 16, 24, 32, 48, 64), kmax=4)
    assert fit.accepted
    # variance rate: Var(b) (1 + 2 sum_l lambda^l) with Var = 0.24, lambda = 1/2
    assert fit.p[1] == pytest.approx(0.72, abs=1e-6)
    assert abs(fit.p[0]) < 1e-10
    assert 0.0 < fit.delta < 0.9


def test_fit_stationary_rejects_alternating_kernels():
    m = builtin_model("flip2")
    fit = fit_stationary(m, tuple(range(16, 24)), kmax=4)
    assert not fit.accepted
    assert 2 in fit.rejected_orders


def test_fit_stationary_clean_iid_chain():
    m = builtin_model("rademacher")
    fit = fit_stationary(m, (8, 16, 24, 32, 48), kmax=4)
    assert fit.accepted
    assert fit.delta == pytest.approx(0.0, abs=1e-12)
    assert fit.p[1] == pytest.approx(1.0, abs=1e-10)
    assert fit.p[3] == pytest.approx(-2.0, abs=1e-8)
    assert abs(fit.q[1]) < 1e-8


def test_fit_stationary_needs_enough_points():
    m = builtin_model("rademacher")
    with pytest.raises(ValueError):
        fit_stationary(m, (8, 16, 32), kmax=4)


@pytest.mark.parametrize("bad", [16.5, math.nan, math.inf])
def test_diagnostics_refuse_sample_sizes_that_are_not_whole(bad):
    m = builtin_model("rademacher")
    ns = (8, bad, 32, 64)
    for check in (lambda: derivative_bound_check(m, ns, jmax=3),
                  lambda: tail_integral_check(m, ns, 4),
                  lambda: fit_stationary(m, ns, kmax=4)):
        with pytest.raises(ValueError, match="sample size n must be a whole number"):
            check()
    # a whole float is a sample size
    assert derivative_bound_check(m, (8.0, 16), jmax=3).ns == (8, 16)


@pytest.mark.parametrize("name", ["rademacher", "uniform"])
@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_profile_refuses_a_window_that_is_not_finite(name, eps):
    with pytest.raises(ValueError, match="eps must be finite"):
        log_charfn_profile(builtin_model(name), 8, 3, eps=eps)
