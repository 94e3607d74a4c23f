"""Span recorder and the per-layer instrumentation of a traced run.

Instrumentation lives entirely in the benchmark process: `install`
rebinds module attributes and class methods of edgekit to timing
wrappers (every module namespace holding a reference to the original is
rebound, so `from x import f` callers are caught too) and `uninstall`
puts the originals back. Nothing under src/ changes.

A span is (name, start, end, parent, thread, op, ok). Spans stay in
memory and are reduced to per-layer figures at the end of each traced
pass. Self time is a span's duration minus its children's; children run
in the parent's thread, one at a time, so their durations do not
overlap. Spans in edgekit's prebuild threads have no parent: their busy
time adds up across threads and can exceed wall time.
"""

import functools
import importlib
import sys
import threading
import time

import numpy as np

import oracles

_clock = time.perf_counter


class Recorder:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self.op = None
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name):
        stack = self._stack()
        # [name, start, end, parent, thread, op, ok, nested in a span of the same name]
        span = [name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident(),
                self.op, False, any(s[0] == name for s in stack)]
        stack.append(span)
        span[1] = _clock()
        return span

    def exit(self, span, ok):
        span[2] = _clock()
        span[6] = ok
        self._stack().pop()
        self.spans.append(span)

    def bump(self, key, value):
        self.counters[key] = self.counters.get(key, 0.0) + value

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def reset(self):
        self.spans = []
        self.counters = {}

    def reduce(self, main_thread):
        """Per-name calls, busy, self and failures for the spans so far.

        busy counts only the outermost span of a name, so recursion is
        not double counted; self is summed over all spans of the name.
        """
        child_time = {}
        for s in self.spans:
            if s[3] is not None:
                child_time[id(s[3])] = child_time.get(id(s[3]), 0.0) + (s[2] - s[1])
        stats = {}
        per_op = {}
        main_self = 0.0
        for s in self.spans:
            dur = s[2] - s[1]
            own = dur - child_time.get(id(s), 0.0)
            st = stats.setdefault(s[0], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "fail": 0})
            st["calls"] += 1
            st["self_s"] += own
            if not s[7]:
                st["busy_s"] += dur
                key = (s[5], s[0])
                per_op[key] = per_op.get(key, 0.0) + dur
            if not s[6]:
                st["fail"] += 1
            if s[4] == main_thread:
                main_self += own
        return stats, per_op, main_self


def _attach(recorder, qualname, label, hook=None):
    """Rebind edgekit.<module>.<attr> (or <Class>.<method>) to a timed wrapper.

    Returns (owner, attribute, original) for every rebinding made.
    """
    modname, _, attr = qualname.rpartition(":")
    module = importlib.import_module("edgekit." + modname)
    owner, name = module, attr
    if "." in attr:
        cls_name, name = attr.split(".")
        owner = getattr(module, cls_name)
    original = getattr(owner, name)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        span = recorder.enter(label)
        ok = False
        try:
            out = original(*args, **kwargs)
            ok = True
        finally:
            recorder.exit(span, ok)
        if hook is not None:
            hook(recorder, args, out)
        return out

    if owner is not module:
        setattr(owner, name, timed)
        return [(owner, name, original)]
    done = []
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("edgekit"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, timed)
                    done.append((mod, key, original))
    return done


# -- hooks computing work counts from outputs ----------------------------------


def _dp_cells(rec, args, dist):
    spec = args[0]
    rec.bump("markov.cells", spec.state_counts[-1] * dist.masses.size)


def _pw_cells(rec, args, dist):
    rec.bump("piecewise.cells", sum(c.size for c in dist.coeffs))


def _charfn_points(rec, args, out):
    rec.bump("lattice.charfn_deriv.points", np.size(args[1]) * args[0].masses.size)


def _kappa_error(rec, args, kappas):
    model, n, kmax = args[0], args[1], args[2]
    if model.name != "rademacher":
        return
    exact = oracles.rademacher_cumulants(kmax)
    for k in (8, 16):
        if kmax >= k:
            ref = n * exact[k - 1]
            rec.peak("cumulants.kappa_rel_err.k%d" % k, abs(kappas[k - 1] - ref) / abs(ref))


# (edgekit module:attribute, span name, hook)
TARGETS = (
    ("harness.scenario:run_scenario", "scenario.run_scenario", None),
    ("harness.scenario:write_table", "scenario.write_table", None),
    ("harness.scans:scan_nonuniform", "scans.scan_nonuniform", None),
    ("harness.scans:scan_transport", "scans.scan_transport", None),
    ("harness.scans:scan_moments", "scans.scan_moments", None),
    ("harness.scans:scan_stationarity", "scans.scan_stationarity", None),
    ("harness.scans:scan_coupling", "scans.scan_coupling", None),
    ("harness.scans:scan_assumptions", "scans.scan_assumptions", None),
    ("models.markov:exact_distribution", "markov.exact_distribution", _dp_cells),
    ("models.markov:variance_decomposition", "markov.variance_decomposition", None),
    ("models.markov:variance_profile", "markov.variance_profile", None),
    ("models.piecewise:PiecewisePolyDistribution.cdf", "piecewise.cdf", None),
    ("models.piecewise:PiecewisePolyDistribution.quantile", "piecewise.quantile", None),
    ("models.piecewise:PiecewisePolyDistribution.convolve", "piecewise.convolve", _pw_cells),
    ("models.lattice:LatticeDistribution.charfn_deriv", "lattice.charfn_deriv", _charfn_points),
    ("models.families:ChainModel.cumulants", "families.ChainModel.cumulants", _kappa_error),
    ("models.families:IIDContinuousModel.charfn_deriv",
     "families.IIDContinuousModel.charfn_deriv", None),
    ("cumulants:log_charfn_profile", "cumulants.log_charfn_profile", None),
    ("cumulants:tail_integral_check", "cumulants.tail_integral_check", None),
    ("cumulants:derivative_bound_check", "cumulants.derivative_bound_check", None),
    ("edgeworth:build_expansion", "edgeworth.build_expansion", None),
    ("edgeworth:EdgeworthExpansion.cdf", "edgeworth.EdgeworthExpansion.cdf", None),
    ("transport:gaussian_coupling", "transport.gaussian_coupling", None),
    ("transport:_wasserstein_quantile_quadrature",
     "transport.wasserstein_distance.quadrature", None),
    ("transport:wasserstein_lattice_gaussian",
     "transport.wasserstein_distance.lattice_gaussian", None),
    ("transport:wasserstein_upper_bound", "transport.wasserstein_upper_bound", None),
    ("transport:expectation_via_cdf", "transport.expectation_via_cdf", None),
    ("special:normal_cdf", "special.normal_cdf", None),
    ("special:normal_pdf", "special.normal_pdf", None),
)


def install(recorder):
    """Rebind every target to a timed wrapper; returns what `uninstall` needs."""
    saved = []
    for qualname, label, hook in TARGETS:
        saved.extend(_attach(recorder, qualname, label, hook))
    return saved


def uninstall(saved):
    """Put the original functions back, so untraced passes run unwrapped code."""
    for owner, name, original in reversed(saved):
        setattr(owner, name, original)


# -- per-layer metrics ---------------------------------------------------------

SCANS = ("scan_nonuniform", "scan_transport", "scan_moments", "scan_stationarity",
         "scan_coupling", "scan_assumptions")
OPS = ("rademacher-be", "elliptic2-stationary", "uniform-edgeworth", "dist-elliptic2",
       "cumulants-elliptic2", "dist-symmetric2", "cumulants-rademacher", "expand-rademacher",
       "dist-chain64", "couple-chain32", "dist-uniform")

PER_LAYER = (
    [
        ("markov.exact_distribution.calls", "count"),
        ("markov.exact_distribution.busy_s", "s"),
        ("markov.exact_distribution.fail", "count"),
        ("markov.cells", "count"),
        ("markov.cells_per_s", "1/s"),
        ("markov.variance_decomposition.busy_s", "s"),
        ("transport.gaussian_coupling.busy_s", "s"),
        ("families.ChainModel.cumulants.busy_s", "s"),
        ("cumulants.kappa_rel_err.k8", "ratio"),
        ("cumulants.kappa_rel_err.k16", "ratio"),
        ("piecewise.cdf.calls", "count"),
        ("piecewise.cdf.self_s", "s"),
        ("piecewise.quantile.calls", "count"),
        ("piecewise.quantile.self_s", "s"),
        ("transport.wasserstein_distance.quadrature.busy_s", "s"),
        ("piecewise.convolve.calls", "count"),
        ("piecewise.convolve.busy_s", "s"),
        ("piecewise.cells", "count"),
        ("lattice.charfn_deriv.calls", "count"),
        ("lattice.charfn_deriv.self_s", "s"),
        ("lattice.charfn_deriv.points", "count"),
        ("cumulants.log_charfn_profile.busy_s", "s"),
        ("cumulants.tail_integral_check.busy_s", "s"),
        ("cumulants.derivative_bound_check.busy_s", "s"),
        ("edgeworth.build_expansion.calls", "count"),
        ("edgeworth.build_expansion.busy_s", "s"),
        ("edgeworth.EdgeworthExpansion.cdf.calls", "count"),
        ("edgeworth.EdgeworthExpansion.cdf.self_s", "s"),
        ("transport.expectation_via_cdf.busy_s", "s"),
        ("transport.wasserstein_upper_bound.busy_s", "s"),
        ("transport.wasserstein_distance.lattice_gaussian.busy_s", "s"),
        ("special.normal_cdf.calls", "count"),
        ("special.normal_pdf.calls", "count"),
    ]
    + [("scans.%s.%s" % (s, k), "s") for s in SCANS for k in ("busy_s", "self_s")]
    + [
        ("scenario.run_scenario.busy_s", "s"),
        ("scenario.write_table.self_s", "s"),
        ("families.IIDContinuousModel.charfn_deriv.busy_s", "s"),
    ]
    + [("op.%s.s" % op, "s") for op in OPS]
    + [("trace.overhead_s", "s")]
)


def layer_metrics(stats, counters):
    """Values of PER_LAYER (except trace.overhead_s) for one traced pass."""
    out = {}
    for name, _ in PER_LAYER:
        if name in counters:
            out[name] = counters[name]
        elif name.startswith("op."):
            out[name] = stats.get(name[:-2], {}).get("busy_s", 0.0)
        elif name == "markov.cells_per_s":
            busy = stats.get("markov.exact_distribution", {}).get("busy_s", 0.0)
            out[name] = counters.get("markov.cells", 0.0) / busy if busy > 0.0 else 0.0
        elif name != "trace.overhead_s":
            span, _, field = name.rpartition(".")
            out[name] = stats.get(span, {}).get(field, 0)
    return out
