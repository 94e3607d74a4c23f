"""Correctness oracles for the benchmark's operations.

Every check compares an output file against a reference that does not
come from the code path under test: closed forms (Rademacher cumulants
through Bernoulli numbers), an independent transfer-operator series for
chain cumulants and variance profiles, and exact identities (total mass
1, mean 0). Each tolerance is a forward error bound of the computation
being checked, written out next to the check; README.md collects them.

A check returns None when the output passes and a one-line reason when
it does not.
"""

import csv
import math

import numpy as np
from scipy.special import bernoulli

EPS = float(np.finfo(float).eps)


def _rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [[float(v) for v in row] for row in reader]


def _log2ceil(n):
    return max(1, math.ceil(math.log2(max(n, 2))))


# -- closed forms and the series oracle ----------------------------------------


def rademacher_cumulants(kmax):
    """kappa_1..kappa_kmax of one +-1 coin: log cosh t.

    kappa_{2j} = 2^{2j} (2^{2j} - 1) B_{2j} / (2j); odd cumulants vanish.
    """
    b = bernoulli(kmax)
    out = []
    for k in range(1, kmax + 1):
        out.append(0.0 if k % 2 else float(2.0**k * (2.0**k - 1.0) * b[k] / k))
    return out


def cumulants_to_moments(kappas):
    """Raw moments from cumulants (the standard recursion)."""
    m = []
    for n in range(1, len(kappas) + 1):
        acc = kappas[n - 1]
        for j in range(1, n):
            acc += math.comb(n - 1, j - 1) * kappas[j - 1] * m[n - j - 1]
        m.append(acc)
    return m


def _series_mul(a, b):
    return np.convolve(a, b)[: a.size]


def _series_log(c):
    """log c(z) for a power series with c[0] > 0, truncated to len(c)."""
    c = c / c[0]
    out = np.zeros_like(c)
    # c * (log c)' = c'  =>  k l_k = k c_k - sum_{j<k} j l_j c_{k-j}
    for k in range(1, c.size):
        acc = k * c[k]
        for j in range(1, k):
            acc -= j * out[j] * c[k - j]
        out[k] = acc / k
    return out


def chain_cumulant_profile(spec, kmax):
    """kappa_1..kappa_kmax of S_k for every prefix k = 1..n.

    E exp(z S_n) = nu_0 prod_j (K_j o exp(z F_j)) 1. The row vector is
    carried as a power series in z truncated at order kmax and
    renormalized each step by its total c_j(z); kappa_k(S_n) is
    k! [z^k] sum_j log c_j(z). Each step adds an O(1) log term, so the
    result keeps its digits as n grows (no raw moments are formed).
    Returns an array of shape (n + 1, kmax); row 0 is zero.
    """
    size = kmax + 1
    fact = np.array([math.factorial(k) for k in range(size)], dtype=float)
    v = np.zeros((spec.initial.size, size))
    v[:, 0] = spec.initial
    total = np.zeros(size)
    out = np.zeros((spec.n_steps + 1, kmax))
    weights = {}
    for j, (kernel, obs) in enumerate(zip(spec.kernels, spec.observables)):
        key = (id(kernel), id(obs))
        if key not in weights:
            # W[b, x, y] = K[x, y] f[x, y]^b / b!
            weights[key] = np.stack([kernel * obs**b / fact[b] for b in range(size)])
        w = weights[key]
        new = np.zeros((kernel.shape[1], size))
        for b in range(size):
            new[:, b:] += w[b].T @ v[:, : size - b]
        c = new.sum(axis=0)
        # divide the row vector by c(z): v = new / c as series
        inv = np.zeros(size)
        inv[0] = 1.0 / c[0]
        for k in range(1, size):
            inv[k] = -np.dot(c[1 : k + 1], inv[k - 1 :: -1][:k]) / c[0]
        v = np.stack([_series_mul(row, inv) for row in new])
        total += _series_log(c)
        out[j + 1] = total[1:] * fact[1:]
    return out


def abs_moment_bounds(kappas):
    """Upper bounds on E|S/sigma|^k, k = 1..K, from cumulants.

    Even k: the raw moment itself. Odd k: Lyapunov,
    E|X|^k <= (E X^{k+1})^{k/(k+1)}, using the next even moment.
    """
    sigma = math.sqrt(kappas[1])
    K = len(kappas)
    scaled = [kap / sigma ** (k + 1) for k, kap in enumerate(kappas)]
    # one more order for the Lyapunov step of the last odd k
    moments = cumulants_to_moments(scaled + [0.0])
    out = []
    for k in range(1, K + 1):
        even = moments[k - 1] if k % 2 == 0 else moments[k]
        out.append(even if k % 2 == 0 else abs(even) ** (k / (k + 1.0)))
    return [max(m, 1.0) for m in out]


def raw_moment_cumulant_tol(k, n, states, support, abs_moment):
    """Worst-case error of a normalized cumulant built from raw moments.

    The DP forms each lattice mass through n steps of at most `states`
    products and sums, and kernel rows sum to 1 only to rounding: the
    masses carry relative error <= ((2S + 2) n) eps. The moment sum adds
    pairwise-summation error ceil(log2 N) eps and the power x^k adds
    k eps, all relative to E|S|^k. The moment-to-cumulant recursion sums
    k such terms, each at most the size of E|S|^k in normalized units.
    """
    c = (2 * states + 2) * n + k + _log2ceil(support) + 2
    return k * c * EPS * abs_moment


# -- checks --------------------------------------------------------------------


def check_lattice_law(path, n, states, fmax):
    """Exact DP law from `dist`: total mass 1 and mean 0.

    Mass: each mass carries relative error <= (2S + 2) n eps (see
    raw_moment_cumulant_tol) and the sum adds ceil(log2 N) eps.
    Mean: the support origin is a running sum of n per-step centering
    constants of size <= fmax, whose recursive-summation error is
    <= eps sum_j |partial sum_j| <= n^2 fmax eps; the mean sum adds the
    mass error relative to E|S|.
    """
    header, rows = _rows(path)
    if header != ["value", "mass"]:
        return "unexpected header %r" % (header,)
    x = np.array([r[0] for r in rows])
    p = np.array([r[1] for r in rows])
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(p)) or p.min() < 0.0:
        return "non-finite or negative entries"
    if np.any(np.diff(x) <= 0.0):
        return "support not increasing"
    grow = (2 * states + 2) * n + _log2ceil(x.size) + 2
    mass = float(np.sum(p))
    tol_mass = grow * EPS
    if abs(mass - 1.0) > tol_mass:
        return "total mass %.17g differs from 1 by more than %.3g" % (mass, tol_mass)
    mean = float(np.sum(p * x))
    tol_mean = EPS * (n * n * fmax + (grow + 2) * float(np.sum(p * np.abs(x))))
    if abs(mean) > tol_mean:
        return "mean %.3g exceeds %.3g" % (mean, tol_mean)
    return None


def check_piecewise_law(path, n):
    """Piecewise law from `dist` (iid uniform sum): total mass 1, mean 0.

    Each of the n - 1 exact convolutions re-expands every piece through
    a binomial shift with at most D + 2 rounded terms per coefficient,
    so a cell integral carries error <= n (D + 2) eps times the sum of
    the absolute terms that form it.
    """
    header, rows = _rows(path)
    if header[:2] != ["cell_lo", "cell_hi"]:
        return "unexpected header %r" % (header[:3],)
    mass = mean = abs_mass = abs_mean = 0.0
    degree = len(header) - 3
    for row in rows:
        lo, hi, c = row[0], row[1], np.array(row[2:])
        if not np.all(np.isfinite(c)) or not hi > lo:
            return "bad cell [%r, %r]" % (lo, hi)
        w, ctr = 0.5 * (hi - lo), 0.5 * (hi + lo)
        k = np.arange(c.size)
        i0 = np.where(k % 2 == 0, 2.0 * w ** (k + 1) / (k + 1), 0.0)
        i1 = np.where(k % 2 == 1, 2.0 * w ** (k + 2) / (k + 2), 0.0)
        mass += float(np.sum(c * i0))
        abs_mass += float(np.sum(np.abs(c * i0)))
        mean += float(np.sum(c * (ctr * i0 + i1)))
        abs_mean += float(np.sum(np.abs(c * (ctr * i0 + i1))))
    grow = n * (degree + 2) + _log2ceil(len(rows))
    if abs(mass - 1.0) > grow * EPS * abs_mass:
        return "total mass %.17g differs from 1 by more than %.3g" % (mass, grow * EPS * abs_mass)
    if abs(mean) > grow * EPS * abs_mean:
        return "mean %.3g exceeds %.3g" % (mean, grow * EPS * abs_mean)
    return None


def check_cumulants(path, n, states, support, exact):
    """`cumulants` output against exact cumulants of S_n.

    Compared in normalized units kappa_k / sigma^k, where the raw-moment
    route's error bound is raw_moment_cumulant_tol; the reference's own
    rounding (n steps of O(1) series terms) is below n K eps and is
    added.
    """
    header, rows = _rows(path)
    if header != ["order", "raw", "normalized"]:
        return "unexpected header %r" % (header,)
    K = len(rows)
    if [int(r[0]) for r in rows] != list(range(1, K + 1)) or K > len(exact):
        return "unexpected orders"
    sigma = math.sqrt(exact[1])
    bounds = abs_moment_bounds(list(exact[:K]))
    for k, row in enumerate(rows, start=1):
        ref = exact[k - 1] / sigma**k
        tol = raw_moment_cumulant_tol(k, n, states, support, bounds[k - 1]) + n * K * EPS * max(abs(ref), 1.0)
        if not abs(row[2] - ref) <= tol:
            return "kappa_%d/sigma^%d = %.17g, exact %.17g, tolerance %.3g" % (k, k, row[2], ref, tol)
    return None


def check_expansion(path, n, states, support, exact, grid_max=8.0):
    """`expand` output (order m = len(exact)) against the expansion built
    from exact cumulants.

    To first order the corrected CDF moves by
    phi(x) |He_{k-1}(x)| / k! per unit of normalized cumulant
    kappa_k / sigma^k, and the pdf by phi(x) |He_k(x)| / k!. With the
    normalized-cumulant bound of check_cumulants the pointwise tolerance
    is the sum over k, doubled for the products of small cumulants that
    enter at higher order, plus 64 eps for evaluating the polynomials.
    """
    from edgekit.edgeworth import expansion_from_cumulants

    header, rows = _rows(path)
    if header != ["x", "cdf", "pdf"]:
        return "unexpected header %r" % (header,)
    data = np.array(rows)
    x = np.linspace(-grid_max, grid_max, 401)
    if data.shape != (401, 3) or not np.array_equal(data[:, 0], x):
        return "unexpected x grid"
    if not np.all(np.isfinite(data)):
        return "non-finite values"
    ref = expansion_from_cumulants([float(k) for k in exact])
    phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    bounds = abs_moment_bounds(list(exact))
    tol_cdf = np.full(x.shape, 64 * EPS)
    tol_pdf = np.full(x.shape, 64 * EPS)
    he_prev, he = np.zeros_like(x), np.ones_like(x)  # He_{-1}, He_0
    for k in range(1, len(exact) + 1):
        he_prev, he = he, x * he - (k - 1) * he_prev  # He_{k-1} -> He_k
        d = raw_moment_cumulant_tol(k, n, states, support, bounds[k - 1]) / math.factorial(k)
        tol_cdf += 2.0 * d * phi * np.abs(he_prev)
        tol_pdf += 2.0 * d * phi * np.abs(he)
    gap_cdf = np.abs(data[:, 1] - ref.cdf(x))
    gap_pdf = np.abs(data[:, 2] - ref.pdf(x))
    for name, gap, tol in (("cdf", gap_cdf, tol_cdf), ("pdf", gap_pdf, tol_pdf)):
        i = int(np.argmax(gap - tol))
        if gap[i] > tol[i]:
            return "%s at x=%g off by %.3g, tolerance %.3g" % (name, x[i], gap[i], tol[i])
    return None


def check_blocking(path, n, states, fmax, profile):
    """`couple` output: Var(S_k) against the series oracle, remainder
    identity b_k = Var(S_k) - a_k, and a_0 = b_0 = 0.

    The DP variance sweep forms Var(S_k) from masses with relative error
    <= (2S + 2) k eps plus pairwise summation; centering each support
    value (|x| <= k fmax) costs eps |x| per term, i.e. 2 eps k fmax
    sqrt(Var) overall. The series reference adds k K eps relative.
    """
    header, rows = _rows(path)
    if header != ["k", "var_s_k", "block_var", "remainder"]:
        return "unexpected header %r" % (header,)
    data = np.array(rows)
    if data.shape != (n + 1, 4) or not np.array_equal(data[:, 0], np.arange(n + 1)):
        return "expected rows k = 0..%d" % n
    if not np.all(np.isfinite(data)):
        return "non-finite values"
    var = profile[:, 1]
    k = np.arange(n + 1)
    tol = EPS * (((2 * states + 2) * k + 64) * var + 2.0 * k * fmax * np.sqrt(var))
    gap = np.abs(data[:, 1] - var)
    i = int(np.argmax(gap - tol))
    if gap[i] > tol[i]:
        return "Var(S_%d) = %.17g, oracle %.17g" % (i, data[i, 1], var[i])
    if np.any(data[:, 3] != data[:, 1] - data[:, 2]):
        return "remainder differs from var_s_k - block_var"
    if data[0, 2] != 0.0 or data[0, 3] != 0.0:
        return "nonzero block variance at k=0"
    return None
