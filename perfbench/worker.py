"""One measured run in a fresh interpreter; started by run.py.

Generates the workload's inputs from the seed, then times set-up (import
of germtrace plus parsing the workload's machines) and a closed-loop
stream of queries, one client, each query starting when the previous one
returns, with calibration timings between them.  After the stream it runs
the oracles and prints one JSON object on stdout: raw latencies, their
start times, the calibration timings and peak RSS.

    python3 perfbench/worker.py --root . --workload NAME --seed N \
        --seconds S [--trace] [--limit K] [--setup-only] [--smoke]
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

import workloads


class Tracer:
    """Spans (name, start, end, parent, query) and counters kept in memory."""

    def __init__(self, on: bool):
        self.on = on
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self._stack: list[int] = []
        self.query = None

    def call(self, name, fn, *args):
        if not self.on:
            return fn(*args)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.query)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, n: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), n)


# The host's speed can drift by tens of percent over seconds to minutes.
# A fixed pure-Python loop (integer arithmetic, dict lookups over a table
# larger than a toy loop's) is timed before set-up and every
# CALIBRATE_EVERY_S seconds of the stream, between queries; run.py scales
# times by it.  The table is built once, so the loop allocates little and
# does not trigger garbage collection.
CALIBRATE_EVERY_S = 1.0
_CAL_KEYS = [(i * 2654435761) % (1 << 32) for i in range(1 << 14)]
_CAL_TABLE = dict.fromkeys(_CAL_KEYS, 0)


def calibration_s() -> float:
    start = time.perf_counter()
    table, keys = _CAL_TABLE, _CAL_KEYS
    x = 1
    for _ in range(24000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        k = keys[x >> 50]
        table[k] = (table[k] + x) & 0xFFFF
    return time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--limit", type=int, default=None,
                    help="run exactly this many queries, ignoring --seconds")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    texts, queries = workloads.build(args.workload, args.seed, root, args.smoke)
    tracer = Tracer(args.trace)
    uses_cli = args.workload == "session-bundled"

    # set-up: from before the import until the first query can run
    sys.path.insert(0, str(root / "src"))

    def set_up():
        gt = tracer.call("cli.import", importlib.import_module, "germtrace")
        cli = (tracer.call("cli.import", importlib.import_module, "germtrace.cli")
               if uses_cli else None)
        machines = {name: tracer.call("mealy.parse_machine", gt.parse_machine, text)
                    for name, text in texts.items()}
        return gt, cli, machines

    setup_cal = sorted(calibration_s() for _ in range(3))[1]
    t0 = time.perf_counter()
    gt, cli, machines = tracer.call("setup", set_up)
    setup_s = time.perf_counter() - t0
    src = (root / "src").resolve()
    if src not in Path(gt.__file__).resolve().parents:
        print(f"germtrace imported from {gt.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_cal": setup_cal}))
        return 0

    ctx = workloads.Context(gt, cli, machines, texts, tracer)
    latencies, starts, checks, cals = [], [], [], []
    rss_after = workloads.RSS_AFTER[args.workload]
    peak_rss_kb = None
    deadline = time.perf_counter() + args.seconds
    stream_start = next_cal = time.perf_counter()
    todo = queries if args.limit is None else queries[:args.limit]
    for qid, q in enumerate(todo):
        if args.limit is None and time.perf_counter() >= deadline:
            break
        tracer.query = qid
        start = time.perf_counter()
        if start >= next_cal:
            cals.append((start - stream_start, calibration_s()))
            next_cal = start + CALIBRATE_EVERY_S
            start = time.perf_counter()
        starts.append(start - stream_start)
        try:
            check = tracer.call("query", workloads.run_query, ctx, q)
        except Exception as exc:  # an unexpected error fails the query
            msg = f"query {qid} ({q[0]}) raised {type(exc).__name__}: {exc}"
            check = (lambda m: lambda: m)(msg)
        latencies.append(time.perf_counter() - start)
        checks.append(check)
        if len(latencies) == rss_after:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    elapsed = time.perf_counter() - stream_start
    cals.append((elapsed, calibration_s()))
    if len(latencies) == len(queries) and args.limit is None:
        print("query list exhausted before the time ran out", file=sys.stderr)
    if peak_rss_kb is None:  # fewer queries than RSS_AFTER
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failures = []
    for qid, check in enumerate(checks):
        try:
            msg = check()
        except Exception as exc:  # an oracle that cannot confirm fails too
            msg = f"check raised {type(exc).__name__}: {exc}"
        if msg is not None:
            failures.append(f"query {qid}: {msg}")

    result = {
        "setup_s": setup_s,
        "setup_cal": setup_cal,
        "latencies": latencies,
        "starts": starts,
        "cals": cals,
        "peak_rss_kb": peak_rss_kb,
        "failures": failures,
    }
    if args.trace:
        result["spans"] = tracer.spans
        result["counts"] = {**tracer.counts, **tracer.peaks}
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
