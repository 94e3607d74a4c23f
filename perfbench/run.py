"""edgekit benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-scale --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh child process (perfbench/worker.py), closed
loop: one caller, one operation at a time. With --trace 0 the child
times whole passes over the workload's operations; several set-up-only
children give the set-up time. With --trace 1 the child alternates
untraced and traced passes and reports per-layer figures. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# why each workload exists, and how it is kept apart from the others
WORKLOADS = {
    "scenario-lattice": {
        "why": "Warm scans reusing small cached lattice laws (n <= 512, S = 2): lattice "
        "charfn, CDF-gap integral, expectation_via_cdf and blocking; the DP is under 5% "
        "and no piecewise code runs.",
        "guard": "Fresh child process; presets run as shipped, each into a fresh directory.",
    },
    "scenario-iid": {
        "why": "Quantile-quadrature W_p on piecewise laws (about 93k "
        "PiecewisePolyDistribution.cdf calls) plus convolution up to n = 32; no markov "
        "or lattice code runs.",
        "guard": "Fresh child process; the preset runs as shipped into a fresh directory.",
    },
    "cli-scale": {
        "why": "Cold one-shot CLI calls at north-star sizes (long n, tens of states, m = 16): "
        "the Python S^2 DP loop, its n^2 growth, greedy blocking restarts and raw-moment "
        "cumulants. The opposite access pattern to the scenarios.",
        "guard": "Fresh child process. The elliptic2 n=8192 refusal stays in and counts as "
        "failed. The ~8 GB fine-lattice input (observable values 1 and 1.000001) is "
        "left out: it is a unit-test matter, not a timing.",
    },
}

NOT_MEASURED = (
    "tier-1 test wall time: the suite changes between commits (tests are deleted "
    "with dead code), so its time cannot be compared across commits"
)

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "frac"))
SETUP_PROBES = 2
DEADLINE_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# ROADMAP "Baseline" claims, checked against a traced run:
# (workload, label, key into the traced figures, low, high)
BASELINE_CLAIMS = (
    ("scenario-iid", "quadrature share of uniform-edgeworth (about 85%, +-20%)",
     "quadrature_share", 0.68, 1.0),
    ("scenario-iid", "PiecewisePolyDistribution.cdf calls (about 93k, +-20%)",
     "piecewise.cdf.calls", 74400, 111600),
    ("cli-scale", "S=64 DP at n=256 (3.5-4.5 s)", "dp_chain64_s", 3.5, 4.5),
    ("scenario-lattice", "elliptic2 lattice charfn (about 0.9 s, +-20%)",
     "charfn_elliptic2_s", 0.72, 1.08),
)


def environment():
    env = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }
    return env


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


class Child:
    """A worker process; `ready_s` is process start to its "ready" line."""

    def __init__(self, args, workdir, setup_only, deadline):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, args.workload,
               str(args.seed), str(args.seconds), str(args.trace), args.size, workdir]
        if setup_only:
            cmd.append("--setup-only")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.finish()
            raise RuntimeError("worker failed during set-up (exit %r)" % self.proc.returncode)

    def finish(self):
        try:
            rest = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError("worker exited with %r" % self.proc.returncode)
        return rest


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=base)
    try:
        setups = []
        if args.trace == 0:
            for i in range(SETUP_PROBES):
                probe_dir = os.path.join(workdir, "probe%d" % i)
                os.mkdir(probe_dir)
                probe = Child(args, probe_dir, True, deadline)
                probe.finish()
                setups.append(probe.ready_s)
        main_dir = os.path.join(workdir, "main")
        os.mkdir(main_dir)
        child = Child(args, main_dir, False, deadline)
        setups.append(child.ready_s)
        record = json.loads(child.finish().strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    return env, setups, record


def report(args, env, setups, record):
    passes = record["passes"]
    failures = record["failures"]
    attempted = record["attempted"]
    failed = len(failures)
    correct = not any(f["kind"] == "wrong" for f in failures)
    print("perfbench: workload=%s seed=%d seconds=%d trace=%d size=%s"
          % (args.workload, args.seed, args.seconds, args.trace, args.size))
    print("env: " + json.dumps(dict(env, **record["versions"]), sort_keys=True))
    print("why: " + WORKLOADS[args.workload]["why"])
    print("guard rails: " + WORKLOADS[args.workload]["guard"])
    print("not measured: " + NOT_MEASURED)
    bad = {}
    for f in failures:
        bad.setdefault(f["op"], "FAILED (%s) %s" % (f["kind"], f["reason"]))
    for name, label in record["ops"]:
        times = [p["ops_s"][name] for p in passes if not p["traced"]]
        print("op %s: %s | median %.4f s | check: %s"
              % (name, label, statistics.median(times), bad.get(name, "ok")))

    metrics = {}
    if args.trace == 0:
        walls = [p["wall_s"] for p in passes]
        q1, q3 = _quartiles(walls)
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": record["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
        notes = {
            "wall_s": "median of %d passes, q1 %.4f q3 %.4f; passes: %s; no tail percentile "
                      "(needs >= 10 passes beyond it)"
                      % (len(walls), q1, q3, " ".join("%.4f" % w for w in walls)),
            "setup_s": "median of %d set-ups: %s" % (len(setups), " ".join("%.4f" % s for s in setups)),
            "peak_rss_mb": "getrusage(RUSAGE_SELF) of the workload process",
            "ok_frac": "failed_frac = %d/%d = %.4f" % (failed, attempted, failed / attempted),
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print("metric %s = %s %s | %s | check: correct=%s"
                  % (name, _fmt(values[name]), unit, notes[name], str(correct).lower()))
    else:
        metrics = trace_report(args, passes, record["layer_units"], correct)
    print("check: correct=%s attempted=%d failed=%d failed_frac=%.4f"
          % (str(correct).lower(), attempted, failed, failed / attempted))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def trace_report(args, passes, layer_units, correct):
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(plain)
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name, _ in layer_units if name != "trace.overhead_s"}
    values["trace.overhead_s"] = overhead
    metrics = {}
    for name, unit in layer_units:
        metrics[name] = {"value": values[name], "unit": unit}
        print("metric %s = %s %s | median of %d traced passes | check: correct=%s"
              % (name, _fmt(values[name]), unit, len(traced), str(correct).lower()))

    main_self = statistics.median(p["main_self_s"] for p in traced)
    untraced = statistics.median(plain)
    print("note: busy_s of spans in edgekit's prebuild threads adds up across threads and "
          "can exceed wall time; self_s along the blocking path counts the main thread only")
    op_self = statistics.median(
        sum(v for k, v in p["self_by_name"].items() if k.startswith("op.")) for p in traced)
    gap = main_self - untraced
    print("blocking path: main-thread self time %.4f s over %d traced passes (layers %.4f s, "
          "outside any layer %.4f s); untraced wall %.4f s over %d passes; difference %.4f s "
          "vs trace overhead %.4f s -> %s"
          % (main_self, len(traced), main_self - op_self, op_self, untraced, len(plain), gap,
             overhead, "accounted" if abs(gap - overhead) <= 1e-3 * untraced else "NOT accounted"))
    selfs = {}
    for p in traced:
        for k, v in p["self_by_name"].items():
            selfs.setdefault(k, []).append(v)
    top = sorted(((statistics.median(v), k) for k, v in selfs.items()), reverse=True)[:12]
    for v, k in top:
        print("self time: %-52s %.4f s" % (k, v))

    per_op = {}
    for p in traced:
        for k, v in p["per_op"].items():
            per_op.setdefault(k, []).append(v)
    per_op = {k: statistics.median(v) for k, v in per_op.items()}
    figures = dict(values)
    op_iid = per_op.get("uniform-edgeworth|op.uniform-edgeworth")
    if op_iid:
        figures["quadrature_share"] = per_op.get(
            "uniform-edgeworth|transport.wasserstein_distance.quadrature", 0.0) / op_iid
    figures["dp_chain64_s"] = per_op.get("dist-chain64|markov.exact_distribution")
    figures["charfn_elliptic2_s"] = per_op.get("elliptic2-stationary|lattice.charfn_deriv")
    for workload, label, key, lo, hi in BASELINE_CLAIMS:
        if workload != args.workload or args.size != "full" or figures.get(key) is None:
            continue
        v = figures[key]
        verdict = "agrees" if lo <= v <= hi else "DISAGREES"
        print("baseline: %s: measured %s (traced) -> %s" % (label, _fmt(float(v)), verdict))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the smoke self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "edgekit", "__init__.py")):
        sys.stderr.write("perfbench: no edgekit sources under %s\n" % os.path.join(ROOT, "src"))
        return 2
    try:
        env, setups, record = run(args)
    except RuntimeError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    report(args, env, setups, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
