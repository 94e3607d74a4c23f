"""One workload in one fresh process; started by run.py, not by hand.

Protocol on stdout: the line "ready" once set-up is done (imports,
seeded inputs, work directory), then one JSON record when the run ends.
Set-up time is measured by the parent, from process start to "ready".

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE SIZE WORKDIR [--setup-only]
"""

import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import threading
import time

root, workload, seed, seconds, trace, size, workdir = sys.argv[1:8]
setup_only = "--setup-only" in sys.argv[8:]
sys.path.insert(0, os.path.join(root, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ops  # noqa: E402  (imports edgekit)
import spans  # noqa: E402

_PROTOCOL = sys.stdout


def _say(line):
    _PROTOCOL.write(line + "\n")
    _PROTOCOL.flush()


def run_pass(op_list, recorder, digests, verdicts, failures, pass_no):
    """Run every operation once; returns the time of each."""
    times = {}
    for op in op_list:
        outdir = tempfile.mkdtemp(dir=workdir)
        gc.collect()
        span = None
        if recorder is not None:
            recorder.op = op.name
            span = recorder.enter("op." + op.name)
        start = time.perf_counter()
        try:
            code = op.run(outdir)
        except Exception as exc:  # noqa: BLE001  (any raise is a failed operation)
            code = "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - start
        if span is not None:
            recorder.exit(span, True)
            recorder.op = None
        times[op.name] = elapsed
        kind, reason = None, None
        if isinstance(code, str):
            kind, reason = "raised", code
        elif code != 0:  # every operation, presets included, exits 0 on success
            kind, reason = "refused", op.refusal(code)
        else:
            digest = ops.output_digest(outdir)
            if op.name not in digests:
                digests[op.name] = digest
                verdicts[op.name] = op.check(outdir)
            if digests[op.name] != digest:
                kind, reason = "wrong", "output bytes differ from the first pass"
            elif verdicts[op.name]:
                kind, reason = "wrong", verdicts[op.name]
        if kind is not None:
            failures.append({"op": op.name, "pass": pass_no, "kind": kind, "reason": reason})
        shutil.rmtree(outdir, ignore_errors=True)
    return times


def main():
    op_list = ops.build(workload, size, int(seed), workdir)
    _say("ready")
    if setup_only:
        return
    budget = float(seconds)
    traced = trace == "1"
    recorder = spans.Recorder() if traced else None
    main_thread = threading.get_ident()
    digests, verdicts, failures = {}, {}, []
    passes = []
    start = time.perf_counter()
    while True:
        # traced runs alternate untraced and traced passes; the wrappers
        # are in place only during a traced pass
        on = traced and len(passes) % 2 == 1
        t0 = time.perf_counter()
        saved = spans.install(recorder) if on else []
        try:
            times = run_pass(op_list, recorder if on else None, digests, verdicts, failures,
                             len(passes))
        finally:
            spans.uninstall(saved)
        record = {"wall_s": sum(times.values()), "ops_s": times, "traced": on,
                  "elapsed_s": time.perf_counter() - t0}
        if on:
            stats, per_op, main_self = recorder.reduce(main_thread)
            record["layers"] = spans.layer_metrics(stats, recorder.counters)
            record["main_self_s"] = main_self
            record["per_op"] = {"%s|%s" % k: v for k, v in per_op.items()}
            record["self_by_name"] = {k: v["self_s"] for k, v in stats.items()}
            recorder.reset()
        passes.append(record)
        done = time.perf_counter() - start
        last = max(p["elapsed_s"] for p in passes[-2:])
        if len(passes) >= 2 and done + last > budget:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF)
    _say(json.dumps({
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "layer_units": list(spans.PER_LAYER),
        "ops": [[op.name, op.label] for op in op_list],
        "passes": passes,
        "attempted": len(op_list) * len(passes),
        "failures": failures,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }))


if __name__ == "__main__":
    main()
