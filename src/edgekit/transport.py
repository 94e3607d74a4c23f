"""Transport distances between one-dimensional laws.

Wasserstein distances follow the quantile coupling

    W_p(F, G)^p = int_0^1 |F^{-1}(u) - G^{-1}(u)|^p du,

by one route per pair of law types; any other pair is refused:

- lattice vs lattice: exact for any p, over the merged partition of the
  cumulative masses;
- lattice vs Gaussian: Gauss rules over the quantile cells at every p,
  cut where each cell's integrand has its branch point; Legendre at
  integer p, Gauss-Jacobi ends and geometric grading at other p;
- piecewise-polynomial vs Gaussian: the x-domain cell rule, which
  integrates |x - G^{-1}(F(x))|^p f(x) dx cell by cell and inverts no
  quantile.

The CDF-gap functionals integrate |F_a - F_b|^expo dx over panels
instead. `wasserstein_upper_bound` takes a list of references and a
sequence of orders; every (reference, order) that shares its panels is
served by one pass, and each value keeps the bits of its own call.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .models.lattice import LatticeDistribution
from .models.piecewise import PiecewisePolyDistribution

__all__ = [
    "GaussianLaw",
    "wasserstein_distance",
    "wasserstein_lattice_lattice",
    "wasserstein_lattice_gaussian",
    "lp_cdf_distance",
    "wasserstein_upper_bound",
    "expectation_via_cdf",
    "gaussian_coupling",
]

_GAP_CELL = 0.75  # widest panel of the CDF-gap integral
_GAP_NODES = 48  # Gauss nodes per panel of the CDF-gap integral
_GAP_BLOCK = 4096  # panels per cdf call of the CDF-gap integral: bounds the temporaries
_CELL_NODES = 16  # Gauss nodes per panel of the cell rules against a Gaussian
_SIGN_GRID = 16  # subintervals per cell searched for sign changes of x - T(x)
_BISECT_LEVELS = 8  # bisection levels whose midpoints go to one evaluation of h
_EDGE_NUDGE = 1e-9  # the sign grid's ends sit this share of a halfwidth inside the cell
_EDGE_RATIO = 0.25  # geometric grading of the outermost cells and toward branch points
_EDGE_LEVELS = 64  # at most this many graded panels per edge
_EDGE_MASS = 1e-14  # grading stops once the mass left at the edge is this share of the cell's
_NOISE_SHARE = 1e-15  # largest share of W_p^p the left-out noise points may bound


@dataclass(frozen=True)
class GaussianLaw:
    """Normal law N(mean, sd^2) exposing the distribution protocol."""

    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        if not self.sd > 0.0:
            raise ValueError("sd must be positive")

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=float) - self.mean) / self.sd)

    def sf(self, x):
        return ndtr((self.mean - np.asarray(x, dtype=float)) / self.sd)


def wasserstein_distance(a, b, p=1):
    """W_p between two laws, by the route their types allow (see the module docstring).

    Finite p >= 1, not necessarily an integer; the arguments may come in
    either order. Every lattice/Gaussian pair goes to
    `wasserstein_lattice_gaussian`; a pair with no route is refused.
    """
    p = _order(p)
    if isinstance(a, GaussianLaw):
        a, b = b, a
    if isinstance(a, LatticeDistribution) and isinstance(b, LatticeDistribution):
        return wasserstein_lattice_lattice(a, b, p)
    if isinstance(a, LatticeDistribution) and isinstance(b, GaussianLaw):
        return wasserstein_lattice_gaussian(a, b, p)
    if isinstance(a, PiecewisePolyDistribution) and isinstance(b, GaussianLaw):
        return _wasserstein_piecewise_gaussian(a, b, p)
    raise ValueError("no W_p route between %s and %s" % (type(a).__name__, type(b).__name__))


def _order(p):
    """A transport order: an int when p is whole; refused unless finite and >= 1."""
    if not 1 <= p < math.inf:
        raise ValueError("transport order p must be finite and >= 1, got %r" % (p,))
    return int(p) if float(p).is_integer() else float(p)


def wasserstein_lattice_lattice(a, b, p=1):
    """Exact W_p for two finitely supported laws via the merged partition."""
    _check_normalized(a)
    _check_normalized(b)
    cums = np.union1d(np.cumsum(a.masses), np.cumsum(b.masses))
    cums = cums[(cums > 0.0) & (cums <= 1.0)]
    if cums[-1] < 1.0:
        cums = np.append(cums, 1.0)
    widths = np.diff(np.concatenate([[0.0], cums]))
    mids = cums - 0.5 * widths
    xa = a.quantile(mids)
    xb = b.quantile(mids)
    total = float(np.sum(widths * np.abs(xa - xb) ** p))
    return total ** (1.0 / p)


def wasserstein_lattice_gaussian(lat, gauss, p=1):
    """W_p between a lattice law and N(mean, sd^2), any finite p >= 1.

    Gauss rules over the quantile cells; see `_wasserstein_quantile_quadrature`.
    """
    return _wasserstein_quantile_quadrature(lat, gauss, _order(p))


def _check_normalized(law):
    if abs(law.total_mass - 1.0) > 1e-9:
        raise ValueError("law is not normalized (mass %r)" % law.total_mass)


def _wasserstein_piecewise_gaussian(pw, gauss, p):
    """W_p between a piecewise-polynomial law and N(mean, sd^2), in the x domain.

        W_p^p = int |h(x)|^p f(x) dx,   h(x) = x - mean - sd z(x),

    with z = ndtri(F) on the left half and -ndtri(S) on the right, each tail
    mass taken from its own side of the cell tables. Every cell is cut where
    h changes sign and integrated by a fixed Gauss rule in its local
    coordinate; at non-integer p the panels that touch a cut carry
    |x - x_c|^p as a Gauss-Jacobi weight. z has a log singularity at the
    support edges, so the outermost cells are graded geometrically until the
    mass left at the edge is below _EDGE_MASS of the cell; that sliver is the
    Gaussian tail integral with x frozen at the edge. Far-tail points whose
    tail mass rounds to <= 0 are rounding noise of the convolution: they are
    left out, and their contribution, bounded by |f| dx (|x| + |mean| + 40 sd)^p
    over their Gauss weights (|z| < 40 for any positive double), must stay
    below _NOISE_SHARE of W_p^p.
    """
    _check_normalized(pw)
    mean, sd = gauss.mean, gauss.sd

    def gap(idx, v):
        """h and whether the tail mass is positive, at local coordinates v of cells idx; no density."""
        lower, upper = pw._cell_masses(idx, v)
        tail = np.minimum(lower, upper)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(lower <= upper, 1.0, -1.0) * ndtri(tail)
        return pw.centers[idx] + v - mean - sd * z, tail > 0.0

    # panel ends as (cells, local coordinates, whether each is a cut of h)
    smooth = isinstance(p, int) and p % 2 == 0  # |h|^p = h^p needs no cuts
    ends = _sign_cuts(gap, pw.halfwidths, smooth)
    edge_ends, tails = _edge_grading(pw, mean)
    cell, v, is_cut = (np.concatenate(parts) for parts in zip(*(ends + edge_ends)))
    order = np.lexsort((v, cell))[1:-1]  # the support edges go: their slivers are tails
    cell, v, is_cut = cell[order], v[order], is_cut[order]
    panel = (cell[:-1] == cell[1:]) & (v[1:] > v[:-1])
    pcell, lo, hi = cell[:-1][panel], v[:-1][panel], v[1:][panel]
    kind = (is_cut[:-1][panel] + 2 * is_cut[1:][panel]) * (not isinstance(p, int))

    total = bound = 0.0
    for k, (nodes, weights) in enumerate(_cell_rules(p, _CELL_NODES)):
        sel = kind == k
        half = 0.5 * (hi[sel] - lo[sel])[:, None]
        v = 0.5 * (hi[sel] + lo[sel])[:, None] + half * nodes
        idx = pcell[sel][:, None]
        f, (h, ok) = pw._cell_density(idx, v), gap(idx, v)
        reach = np.abs(pw.centers[pcell[sel]][:, None] + v) + abs(mean) + 40.0 * sd
        with np.errstate(invalid="ignore", over="ignore"):
            total += float(np.sum(np.where(ok, half * weights * np.abs(h) ** p * f, 0.0)))
        bound += float(np.sum(np.where(ok, 0.0, half * weights * np.abs(f) * reach**p)))
    for offset, mass, edge in tails:
        if mass > 0.0:
            total += _edge_tail(offset, ndtri(mass), sd, p)
        else:
            bound += abs(mass) * (abs(edge) + abs(mean) + 40.0 * sd) ** p
    if bound > _NOISE_SHARE * total:
        raise ValueError("points left out as rounding noise may carry %.3g of W_p^p = %.3g" % (bound, total))
    return total ** (1.0 / p)


def _sign_cuts(gap, w, smooth):
    """Panel ends of every cell: its edges and the sign changes of h.

    h is sampled on a per-cell grid whose ends sit just inside the cell, and
    each bracketed change is bisected; a change across a cell edge makes the
    edge a cut. A cut near an edge is a branch point of |h|^p just outside
    the neighbouring cell, so that cell's panels grade geometrically toward
    it (`_graded`). With smooth set, only the edges are returned.
    """
    ncell = w.size
    cells = np.arange(ncell)
    if smooth:
        no = np.zeros(ncell, dtype=bool)
        return [(cells, -w, no), (cells, w, no)]
    grid = np.linspace(-1.0, 1.0, _SIGN_GRID + 1)
    grid[[0, -1]] *= 1.0 - _EDGE_NUDGE
    grid = grid * w[:, None]
    sign = np.sign(gap(cells[:, None], grid)[0])
    cell, j = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0.0)
    lo, hi = _bisect(lambda v: np.sign(gap(cell[:, None], v)[0]) == sign[cell, j, None],
                     grid[cell, j], grid[cell, j + 1], w[cell])
    zero_cell, zero_j = np.nonzero(sign == 0.0)
    cut_cell = np.concatenate([cell, zero_cell])
    cut_v = np.concatenate([0.5 * (lo + hi), grid[zero_cell, zero_j]])
    across = np.append(sign[:-1, -1] * sign[1:, 0] < 0.0, False)
    ends = [(cells, -w, np.roll(across, 1)), (cells, w, across),
            (cut_cell, cut_v, np.ones(cut_cell.size, dtype=bool))]
    for side in (-1, 1):
        room = w[cut_cell] - side * cut_v  # from the cut to its cell's edge on this side
        nb = cut_cell + side
        live = (nb >= 0) & (nb < ncell) & (room > 0.0)
        nb, room = nb[live], room[live]
        panel, v = _graded(-w[nb], w[nb], -side * (w[nb] + room))
        inside = np.abs(v) < w[nb][panel]
        ends.append((nb[panel][inside], v[inside], np.zeros(int(inside.sum()), dtype=bool)))
    return ends


def _bisect(keeps_lo, lo, hi, w):
    """The brackets [lo, hi] bisected until each is within 4 eps (|lo| + w) wide.

    keeps_lo(v) tells, for points v of shape (brackets, k), whether each
    has the sign the test takes at lo. The midpoints of the next
    _BISECT_LEVELS levels below every bracket are formed as one level at a
    time forms them, 0.5 * (lo + hi), and tested in one call; the walk down
    them, in Python floats, stops where that loop stops, with its bits.
    """
    lo, hi, w = lo.tolist(), hi.tolist(), w.tolist()
    eps4 = 4.0 * float(np.finfo(float).eps)

    def wide():
        return any(b - a > eps4 * (abs(a) + s) for a, b, s in zip(lo, hi, w))

    while wide():
        ends, mids = np.array([lo, hi]).T, []  # the sorted ends of the brackets of one level
        for _ in range(_BISECT_LEVELS):
            mids.append(0.5 * (ends[:, :-1] + ends[:, 1:]))
            both = np.empty((len(lo), 2 * ends.shape[1] - 1))
            both[:, ::2], both[:, 1::2] = ends, mids[-1]
            ends = both
        mids = np.concatenate(mids, axis=1)
        keep, mids = keeps_lo(mids).tolist(), mids.tolist()
        node = [0] * len(lo)  # position in its level; level l starts at 2^l - 1
        for level in range(_BISECT_LEVELS):
            for r, k in enumerate(node):
                at = (1 << level) - 1 + k
                if keep[r][at]:
                    lo[r], node[r] = mids[r][at], 2 * k + 1
                else:
                    hi[r], node[r] = mids[r][at], 2 * k
            if not wide():
                break
    return np.array(lo), np.array(hi)


def _edge_grading(pw, mean):
    """Geometric panel ends toward both support edges, and the slivers left.

    The ratio-_EDGE_RATIO points stop at the first whose tail mass is below
    _EDGE_MASS of its cell's mass, or, earlier, where the tail mass stops
    falling: there the cell tables are down to their rounding. Each sliver
    is (edge offset for _edge_tail, tail mass at its inner end, edge).
    """
    ends, tails = [], []
    masses = pw._ends[1] - pw._ends[0]
    for cell, side in ((0, -1.0), (len(pw.coeffs) - 1, 1.0)):
        w = pw.halfwidths[cell]
        v = side * (w - 2.0 * w * _EDGE_RATIO ** np.arange(1.0, _EDGE_LEVELS + 1))
        mass = pw._cell_masses(cell, v)[0 if side < 0 else 1]
        falling = np.logical_and.accumulate((mass > 0.0) & (mass < np.append(np.inf, mass[:-1])))
        deep = np.flatnonzero(mass <= _EDGE_MASS * masses[cell])
        last = min(deep[0] if deep.size else _EDGE_LEVELS - 1, max(int(falling.sum()) - 1, 0))
        ends.append((np.full(last + 1, cell), v[: last + 1], np.zeros(last + 1, dtype=bool)))
        edge = pw.breaks[0] if side < 0 else pw.breaks[-1]
        tails.append((side * (mean - edge), mass[last], edge))
    return ends, tails


@functools.lru_cache(maxsize=None)
def _gauss_rule(family, n):
    """n-point Gauss-Legendre or Gauss-Laguerre nodes and weights, built once."""
    build = {"legendre": np.polynomial.legendre.leggauss, "laguerre": np.polynomial.laguerre.laggauss}[family]
    rule = build(n)
    for arr in rule:
        arr.flags.writeable = False
    return rule


@functools.lru_cache(maxsize=16, typed=True)
def _cell_rules(p, n):
    """n-point Gauss rules on [-1, 1] for panels with no cut, a cut at -1, at +1, at both.

    At non-integer p a cut end carries |1 -+ t|^p as a Jacobi weight; the
    weights come divided by it, so every rule sums weights * |h|^p * f.
    """
    rules = [_gauss_rule("legendre", n)]
    if not isinstance(p, int):
        for alpha, beta in ((0.0, p), (p, 0.0), (p, p)):
            t, wt = _gauss_jacobi(n, alpha, beta)
            rules.append((t, wt / ((1.0 - t) ** alpha * (1.0 + t) ** beta)))
    return rules


def _gauss_jacobi(n, alpha, beta):
    """n-point Gauss rule for the weight (1 - t)^alpha (1 + t)^beta, by Golub-Welsch.

    numpy's eigh, not scipy's roots_jacobi, which imports scipy.linalg (7 MB, 90 ms).
    """
    ab = alpha + beta
    k = np.arange(1.0, n)
    s = 2.0 * k + ab
    diag = np.concatenate([[(beta - alpha) / (ab + 2.0)], (beta**2 - alpha**2) / (s * (s + 2.0))])
    off = 2.0 / s * np.sqrt(k * (k + alpha) * (k + beta) * (k + ab) / ((s + 1.0) * (s - 1.0)))
    t, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mass = 2.0 ** (ab + 1.0) * math.gamma(alpha + 1.0) * math.gamma(beta + 1.0) / math.gamma(ab + 2.0)
    w = v[0] ** 2
    return t, mass * w / w.sum()


def _edge_tail(offset, z0, sd, p):
    """int_{-inf}^{z0} |offset - sd z|^p phi(z) dz, z0 < 0: a Gaussian sliver against a point.

    z = z0 - s/|z0| makes it phi(z0)/|z0| int_0^inf e^{-s} e^{-s^2 / 2 z0^2}
    |offset - sd z|^p ds, a Gauss-Laguerre integral. Only for slivers: a
    point just past z0 is a branch point the rule misses (1.8e-8 of a
    tail from z0 = -4.17 with offset / sd = -4).
    """
    z0 = float(z0)
    s, ws = _gauss_rule("laguerre", _CELL_NODES)
    z = z0 - s / abs(z0)
    g = np.exp(-0.5 * (s / z0) ** 2) * np.abs(offset - sd * z) ** p
    return math.exp(-0.5 * z0 * z0) / (math.sqrt(2.0 * math.pi) * abs(z0)) * float(np.dot(ws, g))


def _wasserstein_quantile_quadrature(lat, gauss, p):
    """W_p between a lattice law and N(mean, sd^2), any p >= 1, over the quantile cells.

    W_p^p = sd^p sum_c int |z - s_c|^p phi(z) dz over [z_c, z_{c+1}], s_c = (x_c - mean) / sd,
    with edges z_c = ndtri(F) below the median and -ndtri(S) of the suffix
    sums above it. Cells are cut at s_c; at integer p every panel takes
    the Legendre rule, at other p panels ending at s_c take |z - s_c|^p as
    a Gauss-Jacobi weight and the others grade geometrically toward s_c
    (`_graded`). The outer cells are cut where the Gaussian mass beyond
    falls by _EDGE_RATIO, down to _EDGE_MASS of the cell's, and the sliver
    left is `_edge_tail`.
    """
    _check_normalized(lat)
    live = np.flatnonzero(lat.masses > 0.0)
    s = (lat.offset + lat.step * live - gauss.mean) / gauss.sd
    cells = np.arange(live.size)
    ends = np.append(live, live[-1] + 1)
    below, above = lat._cum[ends], lat._tail[ends]
    z = np.where(below <= above, ndtri(below), -ndtri(above))  # -inf and inf at the two ends
    shares = _EDGE_RATIO ** np.arange(1.0, min(math.log(_EDGE_MASS, _EDGE_RATIO), _EDGE_LEVELS) + 1)
    tails = [ndtri(lat.masses[live[0]] * shares), -ndtri(lat.masses[live[-1]] * shares)]
    inside = (z[:-1] < s) & (s < z[1:])
    cell = np.concatenate([cells, cells, np.zeros(shares.size, dtype=int),
                           np.full(shares.size, cells[-1]), cells[inside]])
    v = np.concatenate([z[:-1], z[1:]] + tails + [s[inside]])
    cell, v, pc, lo, hi = _panels(cell[np.isfinite(v)], v[np.isfinite(v)])
    rules = _cell_rules(p, _CELL_NODES)
    jacobi = len(rules) > 1  # |z - s_c|^p has a branch point at s_c
    if jacobi:
        free = (lo != s[pc]) & (hi != s[pc])
        panel, graded = _graded(lo[free], hi[free], s[pc][free])
        cell, v, pc, lo, hi = _panels(np.concatenate([cell, pc[free][panel]]), np.concatenate([v, graded]))
    kind = ((lo == s[pc]) + 2 * (hi == s[pc])) * jacobi  # which end is a cut; never both
    total = 0.0
    for j, (nodes, weights) in enumerate(rules):
        sel = kind == j
        half = 0.5 * (hi - lo)[sel, None]
        z = 0.5 * (hi + lo)[sel, None] + half * nodes
        total += float(np.sum(half * weights * np.abs(z - s[pc[sel], None]) ** p * np.exp(-0.5 * z * z)))
    sd = gauss.sd
    total = total * sd**p / math.sqrt(2.0 * math.pi) + _edge_tail(sd * s[0], v[0], sd, p)
    return (total + _edge_tail(-sd * s[-1], -v[-1], sd, p)) ** (1.0 / p)


def _graded(lo, hi, point):
    """The panel of each end and the ends, graded toward a branch point outside each panel [lo, hi].

    Ends sit at ratio-_EDGE_RATIO distances from the point, at most _EDGE_LEVELS per panel.
    """
    near = np.where(point < lo, lo, hi) - point
    count = np.log1p((hi - lo) / np.abs(near)) // -math.log(_EDGE_RATIO)
    count = np.minimum(count, _EDGE_LEVELS).astype(int)
    rank = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count) + 1.0
    panel = np.repeat(np.arange(lo.size), count)
    return panel, point[panel] + near[panel] * _EDGE_RATIO ** -rank


def _panels(cell, v):
    """Ends sorted by cell and position, then each panel's cell and ends (two distinct ends of a cell)."""
    order = np.lexsort((v, cell))
    cell, v = cell[order], v[order]
    first = np.flatnonzero((cell[:-1] == cell[1:]) & (v[1:] > v[:-1]))
    return cell, v, cell[first], v[first], v[first + 1]


# -- CDF-gap functionals -----------------------------------------------------


def lp_cdf_distance(a, b, p=1):
    """(int |F_a - F_b|^p dx)^{1/p}, the L^p(dx) gap between two CDFs.

    At p = 1 this is also W_1; for larger p it measures how the pointwise
    CDF discrepancy accumulates in an average rather than uniform sense.
    """
    p = _order(p)
    return float(_gap_integral(a, [b], [float(p)])[0, 0]) ** (1.0 / p)


def wasserstein_upper_bound(a, b, p=1):
    """Upper estimate of W_p through int |F_a - F_b|^{1/p} dx.

    Coincides with W_1 at p = 1 and dominates the quantile coupling for
    larger p. Also valid when one side is a signed generalized CDF (an
    expansion), which is the route that extends transport estimates past
    proper probability laws. Each reference must carry the total mass of a.

    b may be a list or tuple of references and p a sequence of orders,
    as `charfn_deriv` takes a sequence of orders: the result then has
    one row per reference and one column per order, an axis for each
    argument given as a sequence. Every value has the bits of its own
    call with one reference and one order; the references and orders
    that share panels share one pass (`_gap_integral`).
    """
    many_refs, many_orders = isinstance(b, (list, tuple)), np.ndim(p) > 0
    refs = list(b) if many_refs else [b]
    orders = [_order(q) for q in (p if many_orders else [p])]
    if not refs or not orders:
        raise ValueError("need at least one reference and one order")
    for i, ref in enumerate(refs):
        if _mass_gap(a, ref) > 1e-9:
            raise ValueError("reference %d (%s): total masses differ by %r; the bound needs F(inf) = G(inf)"
                             % (i, type(ref).__name__, _mass_gap(a, ref)))
    out = _gap_integral(a, refs, [1.0 / float(q) for q in orders])
    shape = (len(refs),) * many_refs + (len(orders),) * many_orders
    return out.reshape(shape) if shape else float(out[0, 0])


def _mass_gap(a, b):
    return abs(float(getattr(a, "total_mass", 1.0)) - float(getattr(b, "total_mass", 1.0)))


def _support_window(dist, fallback):
    if isinstance(dist, LatticeDistribution):
        lo, hi = float(dist.support[0]), float(dist.support[-1])
    elif isinstance(dist, GaussianLaw):
        lo, hi = dist.mean - 9.0 * dist.sd, dist.mean + 9.0 * dist.sd
    elif hasattr(dist, "breaks"):
        lo, hi = float(dist.breaks[0]), float(dist.breaks[-1])
    else:
        return fallback
    return min(lo, fallback[0]), max(hi, fallback[1])


def _gap_edges(a, b, lo, hi):
    """Panel edges (support breakpoints, CDF crossings), and the crossings that take an end weight or grading.

    Returns the edges, the crossings strictly inside a flat stretch of a
    lattice CDF, and the (atom, crossing) pairs of the crossings just past
    their stretch; `_end_weights` turns them into one exponent's panel ends.
    """
    pts, cuts, past = [np.array([lo, hi])], np.empty(0), (np.empty(0), np.empty(0))
    for d in (a, b):
        if isinstance(d, LatticeDistribution):
            pts.append(d.support)
        elif hasattr(d, "breaks"):
            pts.append(np.asarray(d.breaks, dtype=float))
    # where a flat stretch of a lattice CDF meets a Gaussian's range,
    # |F - G| touches zero; split panels there so the kink of |.|^(1/p)
    # sits on an edge. Past the median, 1 - F of the left sums is rounding
    # noise; the suffix sums S carry the upper tail, and the Gaussian puts
    # that crossing at mean - sd ndtri(S). Against another lattice the
    # crossings are the other's support points, edges already.
    for lat, other in ((a, b), (b, a)):
        if isinstance(lat, LatticeDistribution) and isinstance(other, GaussianLaw):
            left, right = lat._cum[1:], lat._tail[1:]
            k = np.flatnonzero(np.minimum(left, right) > 1e-15)  # level k is flat on [x_k, x_{k+1})
            left, right = left[k], right[k]
            upper = right < left
            z = ndtri(np.where(upper, right, left))
            x = other.mean + other.sd * np.where(upper, -z, z)
            s = lat.support
            cuts = x[(s[k] < x) & (x < s[k + 1])]
            beyond = (x < s[k]) | (s[k + 1] < x)  # with the atom on the crossing's side
            past = np.where(x < s[k], s[k], s[k + 1])[beyond], x[beyond]
            pts.append(x[(lo < x) & (x < hi)])
    edges = np.unique(np.concatenate(pts))
    return edges[(lo <= edges) & (edges <= hi)], cuts, past


def _end_weights(edges, cuts, past, whole):
    """The panel ends of one kind of exponent and which of them take an end weight.

    An integer power of |F - G| (whole set) needs no end weight and no
    grading, and neither does a pair with no crossings. At other
    exponents, a Gaussian crossing a lattice level strictly inside its
    flat stretch x_k < x_c < x_{k+1} takes one: there |F - G| vanishes
    like |x - x_c|. A crossing just past its stretch is a branch point of
    |F - G|^expo just outside the stretch's last panel, which grades
    geometrically toward it (`_graded`).
    """
    atom, x = past
    if whole or not (atom.size or cuts.size):
        return edges, np.zeros(edges.size, dtype=bool)
    j = np.searchsorted(edges, atom) - (x > atom)  # the stretch's panel that ends at that atom
    edges = np.union1d(edges, _graded(edges[j], edges[j + 1], x)[1])
    return edges, np.isin(edges, cuts)


def _gap_integral(a, refs, expos):
    """int |F_a(x) - F_b(x)|^expo dx over kink-aware panels, for every reference b and exponent.

    Returns one row per reference and one column per exponent. The window
    covers [-12, 12] and both supports (9 sd for a Gaussian). Panels go
    through a fixed Gauss rule _GAP_BLOCK at a time, with one call per
    side and function per block (a lattice side is read once per panel,
    `_node_reader`); the panel values are summed in panel order. At
    non-integer expo a panel end at a crossing carries |x - x_c|^expo as
    a Gauss-Jacobi weight. When both sides have survival functions and
    the same total mass, the gap past the median of a is |S_a - S_b|:
    there 1 - F is rounding noise, which |.|^(1/p) would lift to about
    1e-8 per unit length at p = 2. A lattice/piecewise pair is refused.

    Each reference's crossings are found once. The (b, expo) whose panel
    ends, end weights and nodes coincide share one pass (`_gap_pass`):
    every pair with no end weight, and each Jacobi rule on its own.
    """
    passes = {}
    for i, b in enumerate(refs):
        for lat, other in ((a, b), (b, a)):
            if isinstance(lat, LatticeDistribution) and isinstance(other, PiecewisePolyDistribution):
                raise ValueError("no CDF-gap route between %s and %s" % (type(a).__name__, type(b).__name__))
        lo, hi = _support_window(b, _support_window(a, (-12.0, 12.0)))
        found = _gap_edges(a, b, lo, hi)
        for j, expo in enumerate(expos):
            edges, cut = _end_weights(*found, float(expo).is_integer())
            rule = expo if cut.any() else 1  # the Jacobi ends take their exponent's nodes
            key = (edges.tobytes(), cut.tobytes(), rule)
            passes.setdefault(key, (edges, cut, rule, {}))[3].setdefault(i, []).append(j)
    out = np.empty((len(refs), len(expos)))
    for edges, cut, rule, per_ref in passes.values():
        _gap_pass(a, refs, expos, edges, cut, rule, per_ref, out)
    return out


def _gap_pass(a, refs, expos, edges, cut, rule, per_ref, out):
    """Fill out[i, j] for each exponent index j of per_ref[i], over one set of panel ends.

    The panels are built once; per block, a is read once and each
    reference once, and only |gap|^expo and the panel sums repeat per
    exponent.
    """
    # wide panels (tails, sparse breakpoints) get split so the fixed
    # Gauss rule keeps resolving the integrand's curvature
    x1, width = edges[:-1], np.diff(edges)
    parts = np.maximum(1, np.ceil(width / _GAP_CELL).astype(int))
    seg = np.repeat(np.arange(parts.size), parts)
    k = np.arange(seg.size) - np.repeat(np.cumsum(parts) - parts, parts)
    kind = (cut[:-1][seg] & (k == 0)) + 2 * (cut[1:][seg] & (k == parts[seg] - 1))
    edges = np.concatenate([edges[:1], x1[seg] + width[seg] * (k + 1) / parts[seg]])
    x1, x2 = edges[:-1], edges[1:]
    keep = x2 - x1 > 0.0
    mid, half, kind = 0.5 * (x1 + x2)[keep], 0.5 * (x2 - x1)[keep], kind[keep]
    nodes, weights = (np.stack(col) for col in zip(*_cell_rules(rule, _GAP_NODES)))
    tails = {i: hasattr(a, "sf") and hasattr(refs[i], "sf") and _mass_gap(a, refs[i]) <= 1e-9 for i in per_ref}
    values = {(i, j): [] for i, js in per_ref.items() for j in js}
    for start in range(0, half.size, _GAP_BLOCK):
        block = slice(start, start + _GAP_BLOCK)
        h = half[block, None]
        x = mid[block, None] + h * nodes[kind[block]]
        w = weights[kind[block]]
        cdf_a, sf_a = _node_reader(a, mid[block], x)
        fa = cdf_a(slice(None))
        for i, js in per_ref.items():
            cdf_b, sf_b = _node_reader(refs[i], mid[block], x)
            up = tails[i] & (fa > 0.5)
            gap = np.empty(fa.size)
            if not up.all():
                gap[~up] = np.abs(fa[~up] - cdf_b(~up))
            if up.any():
                gap[up] = np.abs(sf_a(up) - sf_b(up))
            gap = gap.reshape(-1, _GAP_NODES)
            for j in js:
                values[i, j].append(h[:, 0] * np.sum(w * gap ** expos[j], axis=1))
    for pair, vals in values.items():
        out[pair] = np.cumsum(np.concatenate([[0.0]] + vals))[-1]


def _node_reader(dist, mid, x):
    """cdf and sf of `dist` at the nodes x, one row per panel centred at mid, as functions of a node selection.

    A piecewise law's are read together from one Horner pass. A lattice
    law's CDF is flat between support points, and each support point is
    a panel edge (`_gap_edges`), so it is read once per panel, at the
    midpoint, and repeated over the nodes (`_panel_index`).
    """
    if isinstance(dist, PiecewisePolyDistribution):
        cdf, sf = dist._masses(x.ravel())
        return cdf.__getitem__, sf.__getitem__
    if not isinstance(dist, LatticeDistribution):
        flat = x.ravel()
        return (lambda sel: np.asarray(dist.cdf(flat[sel]), dtype=float),
                lambda sel: np.asarray(dist.sf(flat[sel]), dtype=float))
    at, nodes, idx = _panel_index(dist.support, mid, x)

    def reader(table):
        def read(sel):
            values = np.repeat(table[at], x.shape[1])
            values[nodes] = table[idx]
            return values[sel]
        return read

    return reader(dist._cum), reader(dist._tail)


def _panel_index(support, mid, x):
    """searchsorted(support, x, "right") of the nodes x, one row per panel centred at mid.

    Returns the index of each panel's midpoint, and the flat positions
    and indices of the nodes that do not share it, each read on its own:
    nodes rounded onto or past an edge of a panel a few ulps wide.
    """
    at = np.searchsorted(support, mid, side="right")
    last = support.size - 1
    below = np.where(at > 0, support[np.maximum(at - 1, 0)], -np.inf)  # the index holds on [below, above)
    above = np.where(at <= last, support[np.minimum(at, last)], np.inf)
    stray = np.flatnonzero((x.min(axis=1) < below) | (x.max(axis=1) >= above))
    nodes = (stray[:, None] * x.shape[1] + np.arange(x.shape[1])).ravel()
    return at, nodes, np.searchsorted(support, x[stray].ravel(), side="right")


# -- expectations through the CDF --------------------------------------------


def expectation_via_cdf(cdf, h, h_deriv, tol=1e-7, span=60.0):
    """E[h(X)] = h(0) + int_0^inf h'(1-F) dx - int_-inf^0 h' F dx.

    Works from the CDF alone; the two half-line integrals are evaluated
    adaptively. Intended for smooth CDFs (expansions, Gaussians); step
    CDFs converge too but slowly. Scans use the closed-form moments of
    `EdgeworthExpansion`; this stays as an independent oracle for them,
    and imports scipy.integrate only when called.
    """
    from scipy import integrate

    up, up_err = integrate.quad(
        lambda x: h_deriv(x) * (1.0 - float(np.asarray(cdf(x)))), 0.0, span,
        epsabs=tol / 4.0, limit=300,
    )
    dn, dn_err = integrate.quad(
        lambda x: h_deriv(x) * float(np.asarray(cdf(x))), -span, 0.0,
        epsabs=tol / 4.0, limit=300,
    )
    if up_err + dn_err > tol:
        raise ValueError("requested tolerance %g not reached (error %g)" % (tol, up_err + dn_err))
    return h(0.0) + up - dn


# -- Gaussian coupling through variance blocking ------------------------------


def gaussian_coupling(model, n, p=2, target=None):
    """W_p(law(S_n), N(0, a_n)), a_n the variance in complete blocks.

    a_n comes from `model.blocking`. For a healthy blocking the remainder
    b_n stays bounded while a_n tracks sigma_n^2, so the distance over
    sigma_n vanishes. p is checked before any law or blocking is built.
    """
    p = _order(p)
    a = float(model.blocking(n, target=target).a[n])
    if a <= 0.0:
        raise ValueError("blocking captured no variance; larger n or smaller target")
    return float(wasserstein_distance(model.distribution(n), GaussianLaw(0.0, math.sqrt(a)), p))
