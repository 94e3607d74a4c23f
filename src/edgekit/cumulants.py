"""Cumulant calculus and log-characteristic-function diagnostics.

Everything here works on numbers or on a duck-typed model exposing
`sigma(n)`, `cumulants(n, kmax)`, and `charfn_deriv(n, t, k)` (k an order
or a sequence of orders); no model classes are imported, the engines
live in `edgekit.models`.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "moments_to_cumulants",
    "cumulants_to_moments",
    "log_derivatives",
    "LambdaProfile",
    "log_charfn_profile",
    "DerivativeBoundReport",
    "derivative_bound_check",
    "TailIntegralReport",
    "tail_integral_check",
    "StationaryFit",
    "fit_stationary",
    "BOUNDED_SLACK",
    "VANISH_DROP",
    "TAIL_DROP",
    "MATCH_FLOOR",
    "bounded_max",
    "bounded_last",
    "decays",
    "tail_decays",
    "matched",
]

# |f| below this is treated as a lost branch: the log profile stops there
_F_FLOOR = 1e-12
# beyond |t| ~ 7 the Gaussian factor is ~1e-11 and double precision noise
# overwhelms relative accuracy of the log derivatives
_T_CAP = 7.0
_JMAX_CAP = 9
_T_POINTS = 241  # odd, so t = 0 is a grid point
# the tail_integral_check window and its trapezoid points per unit of t
# (at least 257 and at most 20001 points)
_TAIL_CUT = 0.5
_TAIL_SPAN = 8.0
_TAIL_DENSITY = 64.0
# fit_stationary residuals below this fraction of max(1, |kappa_k|) are noise
_FIT_NOISE_REL = 1e-8


def whole_number(v, what):
    """`v` as an int; a value that is not a whole number is refused, naming `what`."""
    if not (math.isfinite(v) and v == math.floor(v)):
        raise ValueError("%s must be a whole number, got %r" % (what, v))
    return int(v)


def whole_numbers(values, what):
    """`values` as a tuple of ints, each read by `whole_number`."""
    return tuple(whole_number(v, what) for v in values)


def moments_to_cumulants(moments):
    """Cumulants kappa_1..kappa_K from raw moments m_1..m_K."""
    m = [float(x) for x in moments]
    kap = []
    for n in range(1, len(m) + 1):
        acc = m[n - 1]
        for j in range(1, n):
            acc -= math.comb(n - 1, j - 1) * kap[j - 1] * m[n - j - 1]
        kap.append(acc)
    return kap


def cumulants_to_moments(cumulants):
    """Raw moments m_1..m_K from cumulants kappa_1..kappa_K."""
    kap = [float(x) for x in cumulants]
    m = []
    for n in range(1, len(kap) + 1):
        acc = kap[n - 1]
        for j in range(1, n):
            acc += math.comb(n - 1, j - 1) * kap[j - 1] * m[n - j - 1]
        m.append(acc)
    return m


def log_derivatives(fder):
    """Derivatives of log f from derivatives of f.

    fder has rows f, f', .., f^(K); returns rows (log f)', .., (log f)^(K).
    Uses the Leibniz identity f^(n) = sum C(n-1,j) g^(j+1) f^(n-1-j)
    solved for the top term; the only division is by f itself.
    """
    fder = np.asarray(fder)
    kmax = fder.shape[0] - 1
    f0 = fder[0]
    if np.min(np.abs(f0)) < _F_FLOOR:
        raise ValueError("charfn magnitude below %g; shrink the t window" % _F_FLOOR)
    g = np.empty((kmax,) + fder.shape[1:], dtype=complex)
    for n in range(1, kmax + 1):
        acc = fder[n].astype(complex)
        for j in range(n - 1):
            acc -= math.comb(n - 1, j) * g[j] * fder[n - 1 - j]
        g[n - 1] = acc / f0
    return g


@dataclass(frozen=True)
class LambdaProfile:
    """Log charfn of the normalized sum, Gaussian part removed.

    lam(t) = log f_n(t) + t^2/2 where f_n(t) = charfn of S_n/sigma_n,
    with derivative rows 1..jmax; eps_effective = tmax/sigma_n.
    """

    n: int
    sigma: float
    t: np.ndarray
    lam: np.ndarray
    derivs: np.ndarray
    eps_effective: float
    clipped: bool

    def deriv(self, j):
        if not 1 <= j <= self.derivs.shape[0]:
            raise ValueError("have derivatives 1..%d" % self.derivs.shape[0])
        return self.derivs[j - 1]

    def sup_deriv(self, j):
        return float(np.max(np.abs(self.deriv(j))))


def _check_jmax(jmax):
    """The top log-charfn derivative order as an int; refused unless whole and in [1, _JMAX_CAP]."""
    if not 1 <= whole_number(jmax, "derivative order jmax") <= _JMAX_CAP:
        raise ValueError("jmax must be in [1, %d]" % _JMAX_CAP)
    return int(jmax)


def log_charfn_profile(model, n, jmax, eps=None, floor=None):
    """Evaluate the centered log charfn of S_n/sigma_n on a symmetric grid.

    The window is |t| <= min(eps*sigma_n, 7); it shrinks further if the
    charfn magnitude falls below the working floor, and `clipped` records
    that. The phase is unwound outward from t = 0. `floor` raises the
    magnitude floor above the default when the caller needs headroom.
    """
    jmax = _check_jmax(jmax)
    if eps is not None and not math.isfinite(eps):
        raise ValueError("eps must be finite, got %r" % (eps,))
    floor = _F_FLOOR if floor is None else max(float(floor), _F_FLOOR)
    sigma = model.sigma(n)
    tmax = _T_CAP if eps is None else min(eps * sigma, _T_CAP)
    if tmax <= 0.0:
        raise ValueError("empty t window")
    t = np.linspace(-tmax, tmax, _T_POINTS)
    rows = model.charfn_deriv(n, t / sigma, range(jmax + 1))
    fder = np.stack([row / sigma**k for k, row in enumerate(rows)])
    # keep the largest symmetric window around 0 where |f| stays workable
    mag = np.abs(fder[0])
    hi = _T_POINTS // 2
    while hi + 1 < _T_POINTS and mag[hi + 1] >= floor and mag[_T_POINTS - 2 - hi] >= floor:
        hi += 1
    clipped = hi < _T_POINTS - 1
    sl = slice(_T_POINTS - 1 - hi, hi + 1)
    t = t[sl]
    fder = fder[:, sl]
    center = t.size // 2
    phase = np.unwrap(np.angle(fder[0]))
    phase -= phase[center]
    lam = np.log(np.abs(fder[0])) + 1j * phase + 0.5 * t**2
    derivs = log_derivatives(fder)
    derivs[0] += t
    if derivs.shape[0] >= 2:
        derivs[1] += 1.0
    return LambdaProfile(
        n=n,
        sigma=sigma,
        t=t,
        lam=lam,
        derivs=derivs,
        eps_effective=float(t[-1] / sigma),
        clipped=clipped,
    )


# -- verdict rules -----------------------------------------------------------
#
# A rate claim becomes a verdict through one of five finite-sample rules,
# each applied to a row of scaled values ordered by sample size. These are
# their only definitions, and the constants below their only thresholds:
#
#   strict bounded   max <= BOUNDED_SLACK * median: a flat family passes
#   lenient bounded  last <= BOUNDED_SLACK * median: also admits a family
#                    that beats the claimed rate and decays outright
#   decay            the drop from first to last is at least VANISH_DROP
#   tail drop        decay, and a drop of at least TAIL_DROP over the final
#                    step: a plateau reached from above fails it
#   match floor      max <= MATCH_FLOOR: the values are rounding
#
# The bounded rules allow 1e-12 absolute so that rows of rounding noise
# around zero stay bounded. The other verdicts' tolerances sit here too:
# BOUND_TOL (W_p <= CDF-gap integral), COUPLING_TOL and PROFILE_TOL (the
# coupling's monotone a and bounded b), and the stationary fit's judge: a
# residual column decays when its last value is at most FIT_LAST_SHARE
# of its peak, its fitted rate at most FIT_RATE and its peak on the fitted
# half at most FIT_TAIL_SHARE of its peak.

BOUNDED_SLACK = 1.5
VANISH_DROP = 0.20
TAIL_DROP = 0.05
# Both sides of a matched moment column agree in exact arithmetic, so the
# gap is rounding. Signed columns, and absolute columns of even order
# (|W|^q = W^q), evaluate both sides from the same float cumulants
# (`cumulants_to_moments` against the expansion's Hermite closed forms),
# which costs a few u of E|W|^q scaled by sigma^max(r,1); neither reads
# the law. elliptic2 at r = 3 (sigma^3 <= 3.7e6 to n = 32768) measured
# <= 3.3e-9, 300 times below the floor. The floor is absolute while this
# rounding grows like sigma^r, so it holds at these sizes, not at every
# size. Odd absolute columns take the law's moments and carry a genuine
# gap that the floor is not meant to catch.
MATCH_FLOOR = 1e-6
BOUND_TOL = 1e-5
COUPLING_TOL = 1e-9
PROFILE_TOL = 1e-12
FIT_LAST_SHARE = 0.5
FIT_RATE = 0.9
FIT_TAIL_SHARE = 0.25


def bounded_max(values):
    """Strict bounded rule."""
    return bool(float(np.max(values)) <= BOUNDED_SLACK * float(np.median(values)) + 1e-12)


def bounded_last(values):
    """Lenient bounded rule."""
    return bool(float(values[-1]) <= BOUNDED_SLACK * float(np.median(values)) + 1e-12)


def _drop_fraction(values):
    """Relative drop from first to last; a row from 0 drops fully only back to 0."""
    first, last = float(values[0]), float(values[-1])
    if first <= 0.0:
        return 1.0 if last <= 0.0 else 0.0
    return (first - last) / first


def decays(values):
    """Decay rule."""
    return bool(_drop_fraction(values) >= VANISH_DROP)


def tail_decays(values):
    """Tail drop rule on nonnegative tail masses.

    A zero mass is an empty window, not evidence of decay, so the first
    and the second-to-last value must be positive.
    """
    return bool(
        len(values) >= 2 and values[0] > 0.0 and values[-2] > 0.0
        and decays(values) and _drop_fraction(values[-2:]) >= TAIL_DROP
    )


def matched(values):
    """Match floor rule."""
    return bool(float(np.max(values)) <= MATCH_FLOOR)


# -- diagnostics across n ----------------------------------------------------


@dataclass(frozen=True)
class DerivativeBoundReport:
    """Scaled sup of log-charfn derivatives across sample sizes.

    values[i, j-1] = sigma_n^(j-2) * sup_t |lam^(j)| for ns[i]; each order
    is judged by the lenient bounded rule.
    """

    ns: tuple
    jmax: int
    values: np.ndarray
    eps_effective: np.ndarray
    bounded: bool


def derivative_bound_check(model, ns, jmax, eps=None):
    ns = whole_numbers(ns, "sample size n")
    jmax = _check_jmax(jmax)
    # Rounding budget, from the chirp-z bound of LatticeDistribution.charfn_deriv:
    # a normalized derivative row k of f is off by about
    # delta = 8 u log2(L) E|W|^k, under 1.3e-14 E|W|^k while L <= 2^14
    # (chains to n = 8192), the phase term being smaller since |t x| <= 7 |W|.
    # Row j of log f divides by f up to j times, so near the clip edge
    # the error grows by about a digit per order: against mpmath's
    # n log cos(t/sqrt(n)) for rademacher, jmax = 3..8, the top row is off
    # by about 10^jmax * delta/|f|. A floor of 1e-12 * 10^jmax pays that
    # digit per order and holds the top row to about 1e-2 relative (measured
    # <= 8.4e-3 here, <= 6.0e-3 with the dense sum), far inside the
    # verdict's BOUNDED_SLACK.
    floor = _F_FLOOR * 10.0**jmax
    vals = np.empty((len(ns), jmax))
    eps_eff = np.empty(len(ns))
    for i, n in enumerate(ns):
        prof = log_charfn_profile(model, n, jmax, eps=eps, floor=floor)
        eps_eff[i] = prof.eps_effective
        for j in range(1, jmax + 1):
            vals[i, j - 1] = prof.sigma ** (j - 2) * prof.sup_deriv(j)
    return DerivativeBoundReport(
        ns=ns,
        jmax=jmax,
        values=vals,
        eps_effective=eps_eff,
        bounded=all(bounded_last(vals[:, j]) for j in range(jmax)),
    )


@dataclass(frozen=True)
class TailIntegralReport:
    """Scaled tail mass of the m-th charfn derivative across sample sizes."""

    ns: tuple
    m: int
    values: np.ndarray
    vanishing: bool


def tail_integral_check(model, ns, m):
    """Integrate |psi_n^(m)(t)/t| over _TAIL_CUT <= |t| <= _TAIL_SPAN sigma_n^(m-3).

    The result is scaled by sigma_n^(-2); a family whose smoothed tails
    die out keeps decreasing, while one with surviving oscillation mass
    flattens onto a plateau, which the tail drop rule tells apart.
    """
    ns = whole_numbers(ns, "sample size n")
    vals = np.empty(len(ns))
    for i, n in enumerate(ns):
        sigma = model.sigma(n)
        upper = _TAIL_SPAN * sigma ** (m - 3)
        if upper <= _TAIL_CUT:
            vals[i] = 0.0
            continue
        npts = int(min(max(257, _TAIL_DENSITY * (upper - _TAIL_CUT)), 20001)) | 1
        t = np.linspace(_TAIL_CUT, upper, npts)
        integrand = np.abs(np.atleast_1d(model.charfn_deriv(n, t, m))) / t
        vals[i] = 2.0 * float(np.trapezoid(integrand, t)) / sigma**2
    return TailIntegralReport(ns=ns, m=m, values=vals, vanishing=tail_decays(vals))


# -- stationary fit ----------------------------------------------------------


@dataclass(frozen=True)
class StationaryFit:
    """Affine-in-n description of cumulant growth with geometric transient.

    kappa_k(S_n) ~ n * p[k-1] + q[k-1] + O(delta^n). `accepted` is False
    when some order's residuals refuse to decay, which is the signature
    of genuinely non-stationary dynamics.
    """

    ns: tuple
    kmax: int
    p: np.ndarray
    q: np.ndarray
    residuals: np.ndarray
    delta: float
    accepted: bool
    rejected_orders: tuple


def fit_stationary(model, ns, kmax=4):
    """Fit kappa_k(S_n) = n p_k + q_k on the tail of `ns`, judge the rest.

    The line is fitted on the larger half of the sample sizes where the
    transient has died down; residuals over all of `ns` must then decay
    (last at most half the peak, log-slope clearly below zero) or sit at
    numerical noise. A fitted variance rate p_2 <= 0 raises: every later
    normalization divides by it.
    """
    ns = whole_numbers(ns, "sample size n")
    if len(ns) < 4:
        raise ValueError("need at least 4 sample sizes to judge a fit")
    kappas = np.array([model.cumulants(n, kmax) for n in ns], dtype=float)  # kmax read by the model's rule
    kmax = kappas.shape[1]
    narr = np.asarray(ns, dtype=float)
    half = len(ns) // 2
    p = np.empty(kmax)
    q = np.empty(kmax)
    residuals = np.empty_like(kappas)
    rejected = []
    deltas = [0.0]
    for k in range(kmax):
        coef = np.polyfit(narr[half:], kappas[half:, k], 1)
        p[k], q[k] = coef[0], coef[1]
        r = kappas[:, k] - (p[k] * narr + q[k])
        residuals[:, k] = r
        floor = _FIT_NOISE_REL * max(1.0, float(np.max(np.abs(kappas[:, k]))))
        peak = float(np.max(np.abs(r)))
        if peak <= floor:
            continue
        live = np.abs(r) > floor
        if np.count_nonzero(live) >= 2:
            slope = np.polyfit(narr[live], np.log(np.abs(r[live])), 1)[0]
            delta_k = math.exp(slope)
        else:
            delta_k = 0.0
        # an oscillating series lets least squares tilt the line so that
        # late residuals look small; demand the transient be dead where
        # the line was fitted, not merely at the last point
        tail_peak = float(np.max(np.abs(r[half:])))
        decays = (
            abs(r[-1]) <= FIT_LAST_SHARE * peak and delta_k <= FIT_RATE
            and tail_peak <= FIT_TAIL_SHARE * peak
        )
        if decays:
            deltas.append(min(delta_k, 1.0))
        else:
            rejected.append(k + 1)
    if p[1] <= 0.0:
        raise ValueError("fitted variance rate %g not positive; normalization undefined" % p[1])
    return StationaryFit(
        ns=ns,
        kmax=kmax,
        p=p,
        q=q,
        residuals=residuals,
        delta=float(max(deltas)),
        accepted=not rejected,
        rejected_orders=tuple(rejected),
    )
