"""Smoke self-test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload with --size tiny, untraced and traced, and checks
that each metric named in BENCHMARK.json is printed with its unit and a
check result, that the last line is the result object, and that the
benchmark refuses to run in a directory holding only BENCHMARK.json and
its own files. Exits 0 when everything holds.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
import spans  # noqa: E402
from run import END_TO_END  # noqa: E402


def _run(cwd, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "3",
           "--seconds", "1", "--size", "tiny"] + list(extra)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_output(spec, workload, trace, proc):
    problems = []
    if proc.returncode != 0:
        return ["exit code %d: %s" % (proc.returncode, proc.stderr.strip()[-300:])]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %r" % sorted(result))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append("tiny run not clean: %r" % {k: result[k] for k in ("correct", "attempted", "failed")})
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        problems.append("metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append("%s: %r" % (m["name"], got))
        pattern = r"^metric %s = \S+ %s \|.*check: \S+" % (re.escape(m["name"]), re.escape(m["unit"]))
        if not any(re.match(pattern, line) for line in lines):
            problems.append("%s not printed with unit and check" % m["name"])
    if not any(line.startswith("check: correct=") for line in lines):
        problems.append("no check line")
    for line in lines:
        if line.startswith("op ") and not line.endswith("check: ok"):
            problems.append(line)
    return ["%s trace=%d: %s" % (workload, trace, p) for p in problems]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(spans.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = _run(ROOT, "--workload", w["name"], "--trace", str(trace))
            problems.extend(check_output(spec, w["name"], trace, proc))
            print("smoke: %s trace=%d done" % (w["name"], trace), flush=True)

    # a directory holding only BENCHMARK.json and the benchmark must refuse
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    bare = tempfile.mkdtemp(dir=base)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", spec["workloads"][0]["name"], "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("bare directory: exit %d, stdout %r" % (proc.returncode, proc.stdout[-200:]))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass

    for p in problems:
        print("smoke: FAIL " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
