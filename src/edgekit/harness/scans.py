"""Whole-range error scans over families of partial-sum laws.

Each scan walks a list of sample sizes and measures how the exact law
deviates from its Gaussian or corrected approximation: weighted sup
gaps of CDFs, transport distances, moment gaps, drift of correction
polynomials toward their large-n shapes, coupling costs, and the
regularity diagnostics that justify the corrections in the first place.

Verdicts are the finite-sample rules of `edgekit.cumulants`: bounded
(strict or lenient) for rates claimed at r = 0, decay for corrections of
order r >= 1, and the match floor for moment columns that are rounding.

Every verdict is recomputable from the rows its report carries. Each
report also renders its own one-line `summary()` for manifests and table
meta, and says through `failed()` whether it counts against an exit code.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..cumulants import (
    BOUND_TOL,
    COUPLING_TOL,
    DerivativeBoundReport,
    TailIntegralReport,
    bounded_last,
    bounded_max,
    cumulants_to_moments,
    decays,
    derivative_bound_check,
    fit_stationary,
    matched,
    tail_integral_check,
    whole_numbers,
)
from ..edgeworth import _ORDER_MAX, check_corrections, check_order, correction_polynomial
from ..special import normal_pdf
from ..transport import (
    GaussianLaw,
    _order,
    gaussian_coupling,
    wasserstein_distance,
    wasserstein_upper_bound,
)

__all__ = [
    "ErrorScanReport",
    "TransportScanReport",
    "MomentScanReport",
    "StationaryScanReport",
    "CouplingScanReport",
    "AssumptionScanReport",
    "scan_nonuniform",
    "scan_transport",
    "scan_moments",
    "scan_stationarity",
    "scan_coupling",
    "scan_assumptions",
]

_LATTICE_FLAG = "lattice CDF jumps of size ~1/sigma defeat corrections past order 0"
_GRID_POINTS = 401  # x grid of the weighted sup gap and of `expand`
_SHAPE_POINTS = 601  # x grid of the stationary shape gap, |x| <= 6


def _yn(flag):
    return "yes" if flag else "no"


def _word(ok, verdict):
    return verdict if ok else "not-" + verdict


def _rate_verdict(values, r, bounded):
    """(word, ok): the given bounded rule at r = 0, the decay rule at r >= 1."""
    ok = bounded(values) if r == 0 else decays(values)
    return _word(ok, "bounded" if r == 0 else "vanishing"), ok


class _Verdict:
    """Report mixin: an unpassed verdict counts against the exit code."""

    def failed(self):
        return not self.passed


def _check_ns(ns):
    """Sample sizes as a tuple of ints: at least two, each whole and >= 1, strictly increasing."""
    ns = whole_numbers(ns, "sample size n")
    if len(ns) < 2:
        raise ValueError("need at least two sample sizes to judge a trend")
    if min(ns) < 1:
        raise ValueError("sample sizes must be >= 1, got %r" % (ns,))
    if any(b <= a for a, b in zip(ns[:-1], ns[1:])):
        raise ValueError("sample sizes must be strictly increasing")
    return ns


def _check_ps(ps):
    """Transport orders as a tuple, each read by `transport._order`; at least one."""
    ps = tuple(map(_order, ps))
    if not ps:
        raise ValueError("need at least one transport order p")
    return ps


def _check_qs(qs):
    """Moment orders as a tuple of ints: at least one, each whole and >= 1."""
    qs = whole_numbers(qs, "moment order q")
    if not qs or min(qs) < 1:
        raise ValueError("moment orders q must be >= 1, got %r" % (qs,))
    return qs


# -- weighted sup of the CDF gap ----------------------------------------------


@dataclass(frozen=True)
class ErrorScanReport(_Verdict):
    """Weighted sup-norm gap between exact and corrected CDFs per n.

    raw[i] = sup_x (1+|x|)^m |F_n(x) - Psi_r(x)| over the scan grid, Psi_0 = Phi;
    scaled[i] multiplies by sigma_n (r = 0) or sigma_n^r (r >= 1).
    """

    model: str
    m: int
    r: int
    ns: tuple
    sigmas: np.ndarray
    raw: np.ndarray
    scaled: np.ndarray
    verdict: str
    flagged: bool
    flag_reason: str
    passed: bool

    def rows(self):
        header = ("n", "sigma", "weighted_sup", "scaled")
        data = [
            (n, self.sigmas[i], self.raw[i], self.scaled[i])
            for i, n in enumerate(self.ns)
        ]
        return header, data

    def summary(self):
        return "%s flagged=%s passed=%s" % (self.verdict, _yn(self.flagged), _yn(self.passed))

    def failed(self):
        # a flagged scan sits outside what the model can support
        return not self.passed and not self.flagged


def _x_grid(grid_max):
    """_GRID_POINTS evenly spaced points on [-grid_max, grid_max]; grid_max must be finite and positive."""
    if not (math.isfinite(grid_max) and grid_max > 0.0):
        raise ValueError("grid_max must be finite and positive, got %r" % (grid_max,))
    return np.linspace(-grid_max, grid_max, _GRID_POINTS)


def _weighted_sup_gap(dist, sigma, psi_cdf, m, x, is_lattice):
    gap = np.abs(np.asarray(dist.cdf(sigma * x), dtype=float) - np.asarray(psi_cdf(x), dtype=float))
    best = float(np.max((1.0 + np.abs(x)) ** m * gap))
    if is_lattice:
        # the sup over a staircase CDF is attained at its jumps; evaluate
        # both one-sided limits at every atom inside the window
        v = np.asarray(dist.support, dtype=float)
        xs = v / sigma
        keep = (xs >= x[0]) & (xs <= x[-1])
        v, xs = v[keep], xs[keep]
        if v.size:
            pv = np.asarray(psi_cdf(xs), dtype=float)
            w = (1.0 + np.abs(xs)) ** m
            right = np.abs(np.asarray(dist.cdf(v), dtype=float) - pv)
            left = np.abs(np.asarray(dist.cdf_left(v), dtype=float) - pv)
            best = max(best, float(np.max(w * np.maximum(left, right))))
    return best


def scan_nonuniform(model, m, r, ns, grid_max=8.0):
    """Weighted sup-gap scan of F_n against the order-r correction.

    r = 0 compares against the plain Gaussian and asks the sigma-scaled
    gap to stay bounded by the strict rule; r >= 1 compares against the
    corrected CDF and asks the sigma^r-scaled gap to decay. Lattice
    models cannot support corrections of order >= 1 (their CDF jumps are
    of the same size as the first correction), so those scans are flagged
    up front and the flag exempts them from scenario exit codes.
    """
    r = check_corrections(r, m)
    if r >= 1:
        m = check_order(m)
    ns = _check_ns(ns)
    x = _x_grid(grid_max)
    is_lattice = bool(getattr(model, "is_lattice", False))
    sigmas = np.empty(len(ns))
    raw = np.empty(len(ns))
    scaled = np.empty(len(ns))
    power = max(r, 1)
    for i, n in enumerate(ns):
        psi = model.expansion(n, r)  # first, so sigma reads the build's cumulants
        sigma = model.sigma(n)
        d = _weighted_sup_gap(model.distribution(n), sigma, psi.cdf, m, x, is_lattice)
        sigmas[i] = sigma
        raw[i] = d
        scaled[i] = sigma**power * d
    verdict, ok = _rate_verdict(scaled, r, bounded_max)
    flagged = is_lattice and r >= 1
    return ErrorScanReport(
        model=model.name,
        m=m,
        r=r,
        ns=ns,
        sigmas=sigmas,
        raw=raw,
        scaled=scaled,
        verdict=verdict,
        flagged=flagged,
        flag_reason=_LATTICE_FLAG if flagged else "",
        passed=ok,
    )


# -- transport distances ------------------------------------------------------


@dataclass(frozen=True)
class TransportScanReport(_Verdict):
    """W_p to the Gaussian and the CDF-integral distance to corrections.

    gaussian[i, j] = W_p(F_n, Phi) in normalized units for ns[i], ps[j];
    gaussian_scaled multiplies by sigma_n. bound[i, j] is the CDF-gap
    integral int |F_n - Phi|^{1/p} dx, which must dominate the coupling
    distance. For r >= 1 the corrected columns use the same integral
    functional against the order-r correction (the correction is a
    signed measure, so the quantile coupling does not apply), scaled by
    sigma_n^{r/p}.
    """

    model: str
    m: int
    r: int
    ps: tuple
    ns: tuple
    sigmas: np.ndarray
    gaussian: np.ndarray
    gaussian_scaled: np.ndarray
    bound: np.ndarray
    bound_ok: bool
    corrected: Optional[np.ndarray]
    corrected_scaled: Optional[np.ndarray]
    p_flags: tuple
    verdicts: tuple
    corrected_verdicts: Optional[tuple]
    flagged: bool
    flag_reason: str
    passed: bool

    def rows(self):
        header = ["n", "sigma", "p", "w_gaussian", "w_gaussian_scaled", "cdf_gap_bound"]
        if self.corrected is not None:
            header += ["corrected_gap", "corrected_gap_scaled"]
        data = []
        for i, n in enumerate(self.ns):
            for j, p in enumerate(self.ps):
                row = [n, self.sigmas[i], p, self.gaussian[i, j],
                       self.gaussian_scaled[i, j], self.bound[i, j]]
                if self.corrected is not None:
                    row += [self.corrected[i, j], self.corrected_scaled[i, j]]
                data.append(tuple(row))
        return tuple(header), data

    def summary(self):
        cols = " ".join(
            "p=%s:%s%s" % (p, v, "(outside-guarantee)" if f else "")
            for p, v, f in zip(self.ps, self.verdicts, self.p_flags)
        )
        if self.corrected_verdicts is not None:
            cols += " corrected: " + " ".join(
                "p=%s:%s" % (p, v) for p, v in zip(self.ps, self.corrected_verdicts)
            )
        cols += " bound_ok=%s" % _yn(self.bound_ok)
        if self.flagged:
            cols += " flagged=yes"
        return "%s passed=%s" % (cols, _yn(self.passed))


def scan_transport(model, ps, ns, r=0, m=None):
    """Transport-rate scan of the normalized law against its approximations.

    The Gaussian columns use the exact quantile coupling and are judged
    by the lenient bounded rule on sigma_n * W_p (a model beating the
    O(1/sigma) rate decays and still passes). Every pair is also checked
    against the CDF-gap integral bound. Corrected columns (r >= 1) are
    judged by the decay rule on sigma^{r/p}-scaled values. Orders
    p >= m - 1 sit outside the guaranteed range and are flagged per p.
    """
    ps = _check_ps(ps)
    ns = _check_ns(ns)
    m = check_order(max(check_corrections(r, _ORDER_MAX) + 2, 3) if m is None else m)
    r = check_corrections(r, m)
    is_lattice = bool(getattr(model, "is_lattice", False))
    shape = (len(ns), len(ps))
    sigmas = np.empty(len(ns))
    gaussian = np.empty(shape)
    gaussian_scaled = np.empty(shape)
    bound = np.empty(shape)
    corrected = np.empty(shape) if r >= 1 else None
    corrected_scaled = np.empty(shape) if r >= 1 else None
    bound_ok = True
    for i, n in enumerate(ns):
        exp = model.expansion(n, r)
        sigmas[i] = sigma = model.sigma(n)
        dist = model.distribution(n)
        # one CDF-gap pass per n serves both references at every p
        refs = [GaussianLaw(0.0, 1.0)] + ([exp] if r else [])
        gaps = wasserstein_upper_bound(dist.scale(1.0 / sigma), refs, ps)
        bound[i] = gaps[0]
        for j, p in enumerate(ps):
            w = wasserstein_distance(dist, GaussianLaw(0.0, sigma), p) / sigma
            gaussian[i, j] = w
            gaussian_scaled[i, j] = sigma * w
            if w > gaps[0, j] + BOUND_TOL:
                bound_ok = False
            if r:
                corrected[i, j] = gaps[1, j]
                corrected_scaled[i, j] = sigma ** (r / p) * gaps[1, j]
    p_flags = tuple(bool(p >= m - 1) for p in ps)
    verdicts = tuple(_word(bounded_last(col), "bounded") for col in gaussian_scaled.T)
    corrected_verdicts = None
    if r >= 1:
        corrected_verdicts = tuple(_word(decays(col), "vanishing") for col in corrected_scaled.T)
    flagged = is_lattice and r >= 1
    live = [v == "bounded" for v, f in zip(verdicts, p_flags) if not f]
    if corrected_verdicts is not None and not flagged:
        live += [v == "vanishing" for v, f in zip(corrected_verdicts, p_flags) if not f]
    passed = bool(bound_ok and all(live))
    return TransportScanReport(
        model=model.name,
        m=m,
        r=r,
        ps=ps,
        ns=ns,
        sigmas=sigmas,
        gaussian=gaussian,
        gaussian_scaled=gaussian_scaled,
        bound=bound,
        bound_ok=bound_ok,
        corrected=corrected,
        corrected_scaled=corrected_scaled,
        p_flags=p_flags,
        verdicts=verdicts,
        corrected_verdicts=corrected_verdicts,
        flagged=flagged,
        flag_reason=_LATTICE_FLAG if flagged else "",
        passed=passed,
    )


# -- moment gaps --------------------------------------------------------------


@dataclass(frozen=True)
class MomentScanReport(_Verdict):
    """Moments of the normalized sum against moments of the correction.

    Exact signed moments, and absolute ones of even order, come from the
    model's cumulants; odd absolute moments come from its law. Correction
    moments are closed forms. Columns with max scaled gap at or below the
    match floor get the verdict "matched": the correction reproduces that
    moment to working precision at every n, and a trend read off
    rounding digits would be noise.
    """

    model: str
    r: int
    qs: tuple
    ns: tuple
    sigmas: np.ndarray
    exact: np.ndarray
    exact_abs: np.ndarray
    expansion: np.ndarray
    expansion_abs: np.ndarray
    scaled_gap: np.ndarray
    scaled_gap_abs: np.ndarray
    signed_verdicts: tuple
    abs_verdicts: tuple
    passed: bool

    def rows(self):
        header = ("n", "sigma", "q", "exact", "expansion", "scaled_gap",
                  "exact_abs", "expansion_abs", "scaled_gap_abs")
        data = []
        for i, n in enumerate(self.ns):
            for j, q in enumerate(self.qs):
                data.append((
                    n, self.sigmas[i], q,
                    self.exact[i, j], self.expansion[i, j], self.scaled_gap[i, j],
                    self.exact_abs[i, j], self.expansion_abs[i, j],
                    self.scaled_gap_abs[i, j],
                ))
        return header, data

    def summary(self):
        cols = " ".join(
            "q=%d:%s/%s" % (q, sv, av)
            for q, sv, av in zip(self.qs, self.signed_verdicts, self.abs_verdicts)
        )
        return "%s passed=%s" % (cols, _yn(self.passed))


def _moment_column_verdict(scaled, r):
    if matched(scaled):
        return "matched", True
    return _rate_verdict(scaled, r, bounded_last)


def scan_moments(model, qs, r, ns):
    """Compare E[W_n^q] and E[|W_n|^q] with the correction's moments.

    The correction's moments are closed forms (`EdgeworthExpansion.moment`
    and `abs_moment`; at r = 0 the expansion is the standard normal). The
    correction of order r reproduces signed moments up to q = r + 2
    exactly, so those columns land on the rounding floor and report
    "matched". Absolute moments of odd order are not polynomial in the
    underlying cumulants and carry a genuine gap with the claimed decay.
    """
    qs = _check_qs(qs)
    r = check_corrections(r, _ORDER_MAX)
    ns = _check_ns(ns)
    kmax = max(max(qs), r + 2)
    shape = (len(ns), len(qs))
    sigmas = np.empty(len(ns))
    exact = np.empty(shape)
    exact_abs = np.empty(shape)
    expansion = np.empty(shape)
    expansion_abs = np.empty(shape)
    power = max(r, 1)
    for i, n in enumerate(ns):
        # one read per n: moment q of a prefix of the cumulants has the bits of the full list's
        moments = cumulants_to_moments(model.cumulants(n, kmax))
        sigmas[i] = sigma = model.sigma(n)
        # |W|^q = W^q for even q, so only odd orders need the law
        dist = model.distribution(n) if any(q % 2 for q in qs) else None
        exp = model.expansion(n, r)
        for j, q in enumerate(qs):
            exact[i, j] = moments[q - 1] / sigma**q
            exact_abs[i, j] = dist.abs_moment(q) / sigma**q if q % 2 else exact[i, j]
            expansion[i, j] = exp.moment(q)
            expansion_abs[i, j] = exp.abs_moment(q)
    scaled_gap = sigmas[:, None] ** power * np.abs(exact - expansion)
    scaled_gap_abs = sigmas[:, None] ** power * np.abs(exact_abs - expansion_abs)
    signed_verdicts = []
    abs_verdicts = []
    oks = []
    for j in range(len(qs)):
        v, ok = _moment_column_verdict(scaled_gap[:, j], r)
        signed_verdicts.append(v)
        oks.append(ok)
        v, ok = _moment_column_verdict(scaled_gap_abs[:, j], r)
        abs_verdicts.append(v)
        oks.append(ok)
    return MomentScanReport(
        model=model.name,
        r=r,
        qs=qs,
        ns=ns,
        sigmas=sigmas,
        exact=exact,
        exact_abs=exact_abs,
        expansion=expansion,
        expansion_abs=expansion_abs,
        scaled_gap=scaled_gap,
        scaled_gap_abs=scaled_gap_abs,
        signed_verdicts=tuple(signed_verdicts),
        abs_verdicts=tuple(abs_verdicts),
        passed=bool(all(oks)),
    )


# -- stationary shape of the corrections --------------------------------------


@dataclass(frozen=True)
class StationaryScanReport(_Verdict):
    """Finite-n correction polynomials against their fitted limits.

    scaled[i, j-1] = sigma_n^2 * sup_{|x|<=6} phi(x) |H_{j,n}(x) - H_j(x)|
    where H_j is built from the fitted per-step cumulant rates. Under
    affine cumulant growth the gap at every order is Theta(1/sigma^2),
    which makes the scaled values the natural bounded quantity. A model
    whose cumulant growth rejects the affine fit gets "not-applicable".
    """

    model: str
    m: int
    ns: tuple
    sigmas: np.ndarray
    applicable: bool
    scaled: Optional[np.ndarray]
    order_verdicts: Optional[tuple]
    verdict: str
    flagged: bool
    flag_reason: str
    passed: bool

    def rows(self):
        header = ("n", "sigma") + tuple(
            "scaled_gap_order_%d" % j for j in range(1, self.m - 1)
        )
        data = []
        for i, n in enumerate(self.ns):
            vals = tuple(self.scaled[i]) if self.scaled is not None else (float("nan"),) * (self.m - 2)
            data.append((n, self.sigmas[i]) + vals)
        return header, data

    def summary(self):
        return "%s passed=%s" % (self.verdict, _yn(self.passed))


def scan_stationarity(model, m, ns):
    """Fit per-step cumulant rates and compare correction polynomials.

    Fits kappa_k(S_n) ~ n p_k + q_k over `ns`, builds the n-free limit
    polynomials from the fitted rates, and judges the sigma^2-scaled
    weighted sup gap per correction order with the strict bounded rule.
    """
    m = check_order(m)
    ns = _check_ns(ns)
    fit = fit_stationary(model, ns, kmax=m)
    sigmas = np.array([model.sigma(n) for n in ns])
    if not fit.accepted:
        return StationaryScanReport(
            model=model.name, m=m, ns=ns, sigmas=sigmas,
            applicable=False, scaled=None, order_verdicts=None,
            verdict="not-applicable", flagged=True,
            flag_reason="cumulant growth rejected the affine fit (orders %s)"
            % (fit.rejected_orders,),
            passed=True,
        )
    beta = fit.p[2:] / fit.p[1]  # the limits of kappa_{l+2}(S_n)/sigma_n^2
    limits = [correction_polynomial(j, list(beta)) for j in range(1, m - 1)]
    x = np.linspace(-6.0, 6.0, _SHAPE_POINTS)
    phi = normal_pdf(x)
    scaled = np.empty((len(ns), m - 2))
    for i, n in enumerate(ns):
        exp = model.expansion(n, m - 2)
        for j in range(1, m - 1):
            gap = np.abs(exp.polys[j - 1](x) - limits[j - 1](x))
            scaled[i, j - 1] = sigmas[i] ** 2 * float(np.max(phi * gap))
    oks = [bounded_max(col) for col in scaled.T]
    order_verdicts = tuple(_word(ok, "bounded") for ok in oks)
    ok = all(oks)
    return StationaryScanReport(
        model=model.name,
        m=m,
        ns=ns,
        sigmas=sigmas,
        applicable=True,
        scaled=scaled,
        order_verdicts=order_verdicts,
        verdict=_word(ok, "bounded"),
        flagged=False,
        flag_reason="",
        passed=bool(ok),
    )


# -- Gaussian coupling costs --------------------------------------------------


@dataclass(frozen=True)
class CouplingScanReport(_Verdict):
    """Coupling costs W_p(law(S_n), N(0, a_n)) across sample sizes.

    a_n is the variance captured by complete blocks of the greedy
    variance blocking, b_n the boundary remainder. A healthy family has
    bounded raw cost (strict rule), block variances monotone within
    each profile and across n, and remainders within the blocking's
    guaranteed band.
    """

    model: str
    p: int
    target: float
    ns: tuple
    sigmas: np.ndarray
    a: np.ndarray
    b: np.ndarray
    distances: np.ndarray
    relative: np.ndarray
    a_monotone: bool
    b_bounded: bool
    verdict: str
    passed: bool

    def rows(self):
        header = ("n", "sigma", "p", "a", "b", "distance", "relative")
        data = [
            (n, self.sigmas[i], self.p, self.a[i], self.b[i],
             self.distances[i], self.relative[i])
            for i, n in enumerate(self.ns)
        ]
        return header, data

    def summary(self):
        return "%s a_monotone=%s b_bounded=%s passed=%s" % (
            self.verdict, _yn(self.a_monotone), _yn(self.b_bounded), _yn(self.passed)
        )


def scan_coupling(model, ns, p=2, target=None):
    p = _order(p)
    ns = _check_ns(ns)
    reps = [model.blocking(n, target=target) for n in ns]
    sigmas = np.array([model.sigma(n) for n in ns])
    a = np.array([rep.a[n] for n, rep in zip(ns, reps)])
    b = np.array([rep.b[n] for n, rep in zip(ns, reps)])
    distances = np.array([gaussian_coupling(model, n, p=p, target=target) for n in ns])
    relative = distances / sigmas
    profiles_ok = all(rep.a_monotone for rep in reps)
    across_ok = bool(np.all(np.diff(a) >= -COUPLING_TOL))
    b_ok = all(bv <= 2.0 * rep.target + rep.overshoot + COUPLING_TOL for bv, rep in zip(b, reps))
    ok = bounded_max(distances)
    return CouplingScanReport(
        model=model.name,
        p=p,
        target=reps[0].target,
        ns=ns,
        sigmas=sigmas,
        a=a,
        b=b,
        distances=distances,
        relative=relative,
        a_monotone=bool(profiles_ok and across_ok),
        b_bounded=bool(b_ok),
        verdict=_word(ok, "bounded"),
        passed=bool(ok and profiles_ok and across_ok and b_ok),
    )


# -- regularity diagnostics ---------------------------------------------------


@dataclass(frozen=True)
class AssumptionScanReport:
    """Joint regularity picture for a model over a range of sizes.

    `derivative` checks that scaled log-charfn derivatives stay bounded
    near the origin, which is what correction orders up to m feed on.
    `tail` checks whether the smoothed charfn tail mass dies out, the
    extra ingredient that correction orders >= 1 need; lattice models
    keep a plateau there, and `corrections_supported` records the
    combined reading.
    """

    model: str
    m: int
    ns: tuple
    derivative: DerivativeBoundReport
    tail: TailIntegralReport
    lattice: bool
    corrections_supported: bool

    def rows(self):
        header = ("n", "eps_effective") + tuple(
            "deriv_order_%d" % j for j in range(1, self.derivative.jmax + 1)
        ) + ("tail_integral",)
        data = []
        for i, n in enumerate(self.ns):
            data.append(
                (n, self.derivative.eps_effective[i])
                + tuple(self.derivative.values[i])
                + (self.tail.values[i],)
            )
        return header, data

    def summary(self):
        return "derivative=%s tail=%s corrections_supported=%s" % (
            "bounded" if self.derivative.bounded else "unbounded",
            "vanishing" if self.tail.vanishing else "plateau",
            _yn(self.corrections_supported),
        )

    def failed(self):
        return False  # descriptive: verdicts characterize the model


def scan_assumptions(model, ns, m=4, eps=None):
    """Run both regularity checks with lattice-aware defaults."""
    ns = _check_ns(ns)
    if eps is None and getattr(model, "is_lattice", False):
        # stay well inside the first zero of the step characteristic
        # function so the log profile is smooth on the whole window
        eps = 1.0
    deriv = derivative_bound_check(model, ns, jmax=m, eps=eps)
    tail = tail_integral_check(model, ns, deriv.jmax)
    return AssumptionScanReport(
        model=model.name,
        m=deriv.jmax,
        ns=ns,
        derivative=deriv,
        tail=tail,
        lattice=bool(getattr(model, "is_lattice", False)),
        corrections_supported=bool(deriv.bounded and tail.vanishing),
    )
