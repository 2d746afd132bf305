"""germtrace benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload measure-random --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/` directory.  Every measured run happens in a fresh interpreter with
PYTHONHASHSEED derived from the seed, and times are scaled to a reference
host speed by a calibration loop timed alongside.  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run, the spans go to
.bench_build/perfbench/, and the tracing overhead is measured against an
untraced run of the same queries.  --smoke runs the smallest inputs.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Times are scaled to a machine on which worker.calibration_s() takes
# CAL_REF_S: each query's latency is multiplied by CAL_REF_S over the
# median calibration timed within CAL_WINDOW_S of its start.  On shared
# hosts the CPU speed drifts by tens of percent over seconds to minutes,
# which raw times would report as run-to-run spread.
CAL_REF_S = 0.015
CAL_WINDOW_S = 3.0
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170

# spans recorded around the benchmark's calls into each layer
LAYER_SPANS = (
    "mealy.parse_machine", "mealy.canonical", "mealy.word",
    "points.fixed_walk", "points.apply",
    "fixedpoints.mu", "fixedpoints.certificate", "fixedpoints.hausdorff",
    "germs.isotropy",
    "convalg.parse", "convalg.product", "convalg.iszero", "convalg.issingular",
    "traces.trace", "traces.F_eval", "traces.rep_matrix",
    "cli.main", "cli.import",
)
LAYER_COUNTS = (
    ("mealy.closure_states", "count"), ("fixedpoints.system_dim", "count"),
    ("fixedpoints.mu_bits", "bits"), ("germs.isotropy_germs", "count"),
    ("convalg.terms", "count"), ("convalg.cap_refusals", "count"),
    ("traces.rep_entries", "count"),
)


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = str(seed % (1 << 32))
    return env


def worker(args, env, seconds, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), *extra]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout)


def self_times(spans) -> dict[str, float]:
    """Per span name: total duration minus the time its child spans cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
    return out


def scaled_latencies(run) -> list[float]:
    cal_t = [t for t, _ in run["cals"]]
    cal_s = [c for _, c in run["cals"]]
    out = []
    for start, lat in zip(run["starts"], run["latencies"]):
        lo = bisect.bisect_left(cal_t, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(cal_t, start + CAL_WINDOW_S)
        near = cal_s[lo:hi] or cal_s
        out.append(lat * CAL_REF_S / statistics.median(near))
    return out


def end_to_end(args, env) -> tuple[dict, int, list]:
    setups = []
    for _ in range(SETUP_PROBES):
        probe = worker(args, env, 0, "--setup-only")
        setups.append(probe["setup_s"] * CAL_REF_S / probe["setup_cal"])
    run = worker(args, env, args.seconds)
    setups.append(run["setup_s"] * CAL_REF_S / run["setup_cal"])
    lat = scaled_latencies(run)
    if len(lat) < 100 and not args.smoke:
        raise SystemExit(f"only {len(lat)} queries completed; p90 needs 100")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "query_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "query_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1000, "ms"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB"),
    }
    return metrics, len(lat), run["failures"]


def traced(args, env) -> tuple[dict, int, list]:
    run = worker(args, env, args.seconds / 2, "--trace")
    n = len(run["latencies"])
    plain = worker(args, env, 0, "--limit", str(n))
    spans = run["spans"]
    selft = self_times(spans)
    calls: dict[str, int] = {}
    for name, *_ in spans:
        calls[name] = calls.get(name, 0) + 1
    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}_s"] = (selft.get(name, 0.0), "s")
        metrics[f"{name}_calls"] = (calls.get(name, 0), "count")
    for name, unit in LAYER_COUNTS:
        metrics[name] = (run["counts"].get(name, 0), unit)
    overhead = sum(scaled_latencies(run)) / sum(scaled_latencies(plain)) - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    out = ROOT / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"spans-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "query"],
                   "spans": spans, "counts": run["counts"]}, fh)
    return metrics, n + n, run["failures"] + plain["failures"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("measure-random", "iszero-random", "session-bundled"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "germtrace" / "__init__.py").is_file():
        print(f"no germtrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env(args.seed)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "germtrace")],
                   env=env, check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
    metrics, attempted, failures = (traced if args.trace else end_to_end)(args, env)
    failed = len(failures)
    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} queries, "
          f"failed_ratio {failed / attempted:.4f}"
          + "".join(f", {k} {v:.6g} {u}" for k, (v, u) in metrics.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
