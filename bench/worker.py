"""One workload in one process: import ``wfg``, build the corpus, then run
ops in a closed loop with one client until the time is up.

An op is exactly one in-process call of ``wfg.cli.main([verb, doc, "--json",
...])`` with stdout and stderr captured; its latency is the wall time of
that call. The worker prints ``ready`` once set-up is done, so the parent
can time set-up from process start, and writes its results as JSON. With
``--pauses N`` it also stops N times, evenly over the loop, printing
``pause`` and waiting for a line on stdin while the parent times cold starts.

The first output of each distinct op is written to a file for the parent's
oracle; every later output of the same op must be byte-identical to it.
With ``--trace 1`` every op runs twice in a row, once untraced and once
under span wrappers, and the spans are written out at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import corpus


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        code = cli.main(argv)
        elapsed = time.perf_counter_ns() - start
    return elapsed, code, out.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pauses", type=int, default=0)
    args = ap.parse_args()

    root, work = Path(args.root), Path(args.work)
    import wfg.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"wfg imported from {cli.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    schedule = corpus.build_workload(args.workload, args.seed, work / "corpus",
                                     root / "figures")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    outputs_dir = work / "outputs"
    outputs_dir.mkdir(exist_ok=True)
    first: dict[int, tuple] = {}
    ops = []  # [schedule index, latency ns, traced]
    mismatched = []  # schedule indices whose output differed from the first one

    def record(i, elapsed, code, text, traced):
        digest = hashlib.sha256(text.encode()).digest()
        if i not in first:
            first[i] = (code, digest)
            (outputs_dir / f"{i}.out").write_text(text, encoding="utf-8")
        elif first[i] != (code, digest):
            mismatched.append(i)
        ops.append((i, elapsed, traced))

    deadline = next_pause = time.perf_counter() + args.seconds
    pauses_left = args.pauses
    n = 0
    while time.perf_counter() < deadline:
        if pauses_left and time.perf_counter() >= next_pause - args.seconds:
            # The parent runs a round of cold starts while this process
            # waits, which spreads those samples over the run; the wait is
            # not op time and does not count towards --seconds.
            paused = time.perf_counter()
            print("pause", flush=True)
            sys.stdin.readline()
            waited = time.perf_counter() - paused
            deadline += waited
            next_pause += waited + args.seconds / args.pauses
            pauses_left -= 1
        i = n % len(schedule)
        verb, path, extra = schedule[i]
        argv = [verb, path, "--json", *extra]
        if tracer is None:
            record(i, *run_op(cli, argv), False)
        else:
            # Alternate which of the pair runs first, so that a warm-up
            # effect of the first run does not bias the overhead.
            for traced in ((False, True) if n % 2 == 0 else (True, False)):
                if traced:
                    with tracer:
                        record(i, *run_op(cli, argv), True)
                else:
                    record(i, *run_op(cli, argv), False)
        n += 1

    result = {
        "schedule": schedule,
        "ops": ops,
        "codes": {i: code for i, (code, _) in first.items()},
        "mismatched": mismatched,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.dump(work / "spans.json")
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
