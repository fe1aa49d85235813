"""Benchmark of the ``wfg`` CLI. Run from the root of a source checkout:

    python3 bench/run.py --workload grid-snf --seed 1 --seconds 30 --trace 0

``--workload all`` (the default) runs every workload in turn. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print each metric by name
with its unit. See ``bench/README.md`` for what each metric means.

With ``--trace 0`` the worker runs untraced and the end-to-end metrics are
reported; with ``--trace 1`` it runs each op untraced and traced and the
per-layer metrics are reported. The exit code is 0 only when every op
agreed with its oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import oracle  # noqa: E402
from spans import summarize  # noqa: E402

SETUP_SAMPLES = 5
WORKER_GRACE_S = 120
TAIL_LADDER = (99.9, 99, 95, 90, 75)
# Highest percentile reported per workload: the ladder step that has at
# least ten ops beyond it at the baseline run length, so that a faster
# program is compared at the same percentile rather than a higher one.
TAIL_CAP = {"grid-snf": 75, "small-docs": 99, "hamiltonian": 75}
COLD_START_ROUNDS = 5
COLD_START_OPS = (
    ("validate", "figure1.json"), ("tree", "figure6-pentagon.json"),
    ("present", "figure2.json"), ("classify", "figure1.json"),
    ("classify", "figure3.json"), ("abelianize", "figure3.json"),
    ("homology", "figure6-hexagon.json"), ("lcs", "figure1-w0-2.json"),
    ("vankampen", "figure4-cover.json"), ("filtration", "figure5-filtration.json"),
    ("hamiltonian", "figure6-hexagon.json"),
)
VERBS = ("validate", "tree", "present", "classify", "abelianize", "homology",
         "lcs", "vankampen", "filtration", "hamiltonian")


def worker_cmd(root, work, workload, seed, seconds, trace, setup_only=False, pauses=0):
    """Worker command line; ``-S`` as for cold starts, so that set-up time
    leaves out the machine's site-packages hooks."""
    cmd = [sys.executable, "-S", str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", str(root), "--work", str(work), "--pauses", str(pauses)]
    return cmd + (["--setup-only"] if setup_only else [])


def spawn_worker(cmd, env):
    """Start a worker; return (process, seconds from spawn to its ``ready``)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not become ready (exit {proc.returncode})")
    return proc, ready


def finish_worker(proc, timeout, on_pause=None):
    """Serve the worker's pause requests until it exits; kill it after
    ``timeout`` seconds."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if line.strip() == "pause":
                on_pause()
                proc.stdin.write("go\n")
                proc.stdin.flush()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdin.close()
        proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def check_outputs(work, result):
    """Oracle verdict for each distinct op; returns (failed ops, messages)."""
    schedule = result["schedule"]
    docs, bad = {}, {}
    for key, code in result["codes"].items():
        verb, path, extra = schedule[int(key)]
        if path not in docs:
            docs[path] = json.loads(Path(path).read_text(encoding="utf-8"))
        text = (work / "outputs" / f"{key}.out").read_text(encoding="utf-8")
        reason = oracle.check(verb, docs[path], extra, code, text)
        if reason:
            bad[int(key)] = f"{verb} {Path(path).name}: {reason}"
    failed = sum(1 for i, _, _ in result["ops"] if i in bad) + len(result["mismatched"])
    messages = list(bad.values())
    if result["mismatched"]:
        messages.append(f"{len(result['mismatched'])} ops gave output differing from "
                        "the first run of the same op")
    return failed, messages


class ColdStart:
    """Sequential fresh processes of ``python -S -m wfg.cli`` on small docs,
    one round of ``COLD_START_OPS`` at a time. ``-S`` leaves out the
    machine's site-packages start-up hooks, which are not part of ``wfg``
    and vary from one installation to the next."""

    def __init__(self, root, env):
        self.root, self.env = root, env
        self.times, self.failed, self.messages = [], 0, []

    def round(self):
        for verb, name in COLD_START_OPS:
            path = self.root / "figures" / name
            extra = corpus.LCS_ARGS if verb == "lcs" else ()
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-S", "-m", "wfg.cli", verb, str(path), "--json", *extra],
                env=self.env, cwd=self.root, capture_output=True, text=True, timeout=60)
            self.times.append(time.perf_counter() - start)
            doc = json.loads(path.read_text(encoding="utf-8"))
            reason = oracle.check(verb, doc, extra, proc.returncode, proc.stdout)
            if reason:
                self.failed += 1
                self.messages.append(f"cold start {verb} {name}: {reason}")


def run_workload(root, workload, seed, seconds, trace):
    work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    try:
        setups = []
        for _ in range(0 if trace else SETUP_SAMPLES - 1):
            proc, ready = spawn_worker(
                worker_cmd(root, work, workload, seed, seconds, trace, setup_only=True), env)
            finish_worker(proc, 60)
            setups.append(ready)
        # Cold starts run in rounds while the worker pauses at even steps
        # of its loop, so that they sample the whole run, not one moment.
        cold = ColdStart(root, env)
        proc, ready = spawn_worker(worker_cmd(root, work, workload, seed, seconds, trace,
                                              pauses=0 if trace else COLD_START_ROUNDS), env)
        setups.append(ready)
        finish_worker(proc, seconds + WORKER_GRACE_S, cold.round)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        failed, messages = check_outputs(work, result)
        attempted = len(result["ops"])
        if trace:
            metrics = layer_metrics(work, result)
        else:
            attempted += len(cold.times)
            failed += cold.failed
            messages += cold.messages
            metrics = end_to_end_metrics(workload, result, setups,
                                         statistics.median(cold.times) * 1000)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return attempted, failed, messages, metrics


def end_to_end_metrics(workload, result, setups, cold_ms):
    lat = sorted(ns / 1e6 for _, ns, _ in result["ops"])
    n = len(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / (sum(lat) / 1000), "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
    }
    tail = next((p for p in TAIL_LADDER
                 if p <= TAIL_CAP[workload] and n * (1 - p / 100) >= 10), None)
    if tail is not None:
        metrics["latency_tail_ms"] = (percentile(lat, tail), "ms")
        print(f"# latency_tail_ms is p{tail} of {n} ops", flush=True)
    else:
        print(f"# latency_tail_ms omitted: {n} ops leave no percentile above "
              "the median with ten ops beyond it", flush=True)
    metrics["peak_rss_mb"] = (result["peak_rss_kb"] / 1024, "MB")
    metrics["cold_start_ms"] = (cold_ms, "ms")
    return metrics


def layer_metrics(work, result):
    metrics = {name: (value, unit_of(name))
               for name, value in summarize(work / "spans.json").items()}
    untraced, traced = 0, 0
    by_verb = defaultdict(list)
    for i, ns, was_traced in result["ops"]:
        if was_traced:
            traced += ns
        else:
            untraced += ns
            by_verb[result["schedule"][i][0]].append(ns / 1e6)
    for verb in VERBS:
        p50 = statistics.median(by_verb[verb]) if by_verb[verb] else 0.0
        metrics[f"verb.{verb}.p50_ms"] = (p50, "ms")
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "ratio")
    return metrics


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=(*corpus.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "wfg" / "cli.py").is_file() or not (root / "figures").is_dir():
        print("run from the root of a wfg checkout (src/wfg and figures/ not found)",
              file=sys.stderr)
        return 2

    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        a, f, messages, m = run_workload(root, workload, args.seed, args.seconds, args.trace)
        attempted += a
        failed += f
        for message in messages[:20]:
            print(f"# FAIL {workload}: {message}", flush=True)
        print(f"# {workload}: seed {args.seed}, {a} ops attempted, {f} failed, "
              f"failed_frac {f / a:.6f}", flush=True)
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        for name, (value, unit) in m.items():
            print(f"{prefix}{name} {value:.6g} {unit}", flush=True)
            metrics[prefix + name] = {"value": value, "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
