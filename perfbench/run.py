"""eqschub benchmark: three closed-loop workloads, one request in flight.

    python3 perfbench/run.py --workload cold_classes --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout and imports eqschub from its `src`.  The
timed loop runs whole passes over the workload's pool, in an order drawn
from the seed, until --seconds have passed (at least one pass).  Every
request is checked against `perfbench/refs.json` and, where one exists,
an independent oracle.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same number of
passes again with every module boundary wrapped (see tracer.py), prints the
per-layer metrics per pass, and writes every span to
`perfbench/out/trace-<workload>-seed<seed>.jsonl`.  The last line of stdout
is always one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
from workloads import OUT_DIR, ROOT, WORKLOADS, load_refs  # noqa: E402

# setup_s is the median of the run's own set-up and repeats in fresh
# interpreters: up to 8 repeats, but no new one once 5 s have gone on them.
SETUP_PROBES = 8
SETUP_PROBE_SECONDS = 5.0
END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def git_rev() -> str:
    """HEAD of the checkout, read without running git; the benchmark's
    checkout need not be a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        path = ROOT / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Digest of the package sources measured, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "eqschub").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context(seed: int) -> dict:
    return {
        "seed": seed,
        "git_rev": git_rev(),
        "src_sha256_16": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def setup_workload(name: str, seed: int):
    """Build the workload; returns it with its set-up time in seconds."""
    start = perf_counter()
    workload = WORKLOADS[name](seed)
    workload.setup(load_refs())
    order = workload.order()
    return workload, order, perf_counter() - start


def probe_setups(name: str, seed: int) -> list[float]:
    """Set the workload up again in fresh interpreters, which import eqschub anew."""
    times = []
    start = perf_counter()
    for i in range(SETUP_PROBES):
        if perf_counter() - start >= SETUP_PROBE_SECONDS:
            break
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed + i + 1), "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_passes(workload, first_order, passes, seconds, tracer):
    """Whole passes until `seconds` have passed, or exactly `passes` if given."""
    outcomes = []
    done = 0
    order = first_order
    start = perf_counter()
    while True:
        for req in order:
            outcomes.append(workload.execute(req, tracer))
        done += 1
        if passes is not None:
            if done >= passes:
                break
        elif perf_counter() - start >= seconds:
            break
        order = workload.order()
    return outcomes, done, perf_counter() - start


def write_trace(path: Path, context: dict, outcomes) -> int:
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"context": context}) + "\n")
        for seq, out in enumerate(outcomes):
            if out.trace is None:
                continue
            for sid, parent, name, thread, start, end, self_s in out.trace["spans"]:
                fh.write(json.dumps({"seq": seq, "request": out.rid, "span": sid,
                                     "parent": parent, "name": name, "thread": thread,
                                     "start": start, "end": end, "self_s": self_s}) + "\n")
                count += 1
            calls, seconds, pairs = out.trace["totals"][tracing.MUL]
            fh.write(json.dumps({"seq": seq, "request": out.rid, "name": tracing.MUL,
                                 "calls": calls, "self_s": seconds, "term_pairs": pairs}) + "\n")
    return count


def merge_totals(outcomes) -> dict:
    totals: dict = {}
    for out in outcomes:
        if out.trace is None:
            continue
        for name, row in out.trace["totals"].items():
            acc = totals.setdefault(name, [0] * len(row))
            for i, value in enumerate(row):
                acc[i] += value
    return totals


def inclusive_shares(outcomes) -> dict:
    """Share of traced request time spent inside each boundary, children included."""
    inside: dict = {}
    total = 0.0
    for out in outcomes:
        for _, parent, name, _, start, end, _ in out.trace["spans"]:
            if parent is None:
                total += end - start
            else:
                inside[name] = inside.get(name, 0.0) + end - start
        inside[tracing.MUL] = inside.get(tracing.MUL, 0.0) + out.trace["totals"][tracing.MUL][1]
    return {name: t / total for name, t in inside.items()} if total else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload, order, setup_s = setup_workload(args.workload, args.seed)
    if args.probe_setup:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        outcomes, passes, wall = run_passes(workload, order, None, args.seconds, None)
        traced, overhead = [], None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(workload.eq)
            try:
                traced, _, traced_wall = run_passes(workload, workload.order(), passes, 0, tracer)
            finally:
                tracer.uninstall()
            overhead = traced_wall / wall - 1
    finally:
        workload.close()
    setups = [setup_s] + probe_setups(args.workload, args.seed)

    everything = outcomes + traced
    failed = [o for o in everything if o.failed]
    latencies = sorted(o.latency for o in outcomes)
    n = len(latencies)
    rss_kb = max(o.rss_kb for o in outcomes)
    end_to_end = {
        "throughput_ops_s": len(outcomes) / wall,
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": percentile(latencies, 90) * 1000,
        "ok_ratio": 1 - sum(o.failed for o in outcomes) / len(outcomes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    context = run_context(args.seed)
    beyond = n - max(1, math.ceil(0.9 * n))
    lines = [
        "context " + json.dumps(context, sort_keys=True),
        f"workload {args.workload}: {passes} pass(es) of {len(workload.pool)} requests, "
        f"{wall:.2f} s timed, closed loop with one client",
    ]
    for name, unit in END_TO_END_UNITS.items():
        note = ""
        if name == "latency_p50_ms":
            note = f"n={n}"
        elif name == "latency_p90_ms":
            note = f"n={n}, {beyond} samples beyond"
        elif name == "ok_ratio":
            bad = sum(o.failed for o in outcomes)
            note = f"failed_ratio {bad / n} = {bad}/{n}"
        elif name == "setup_s":
            note = "median of " + ", ".join(f"{s:.4f}" for s in setups)
        lines.append(f"  {name:<18} {end_to_end[name]:.6g} {unit}  {note}".rstrip())
    for (rid, reason), count in Counter((o.rid, o.reason) for o in failed).items():
        lines.append(f"  failed {count}x {rid}: {reason}")

    if args.trace:
        layer = tracing.summarize(merge_totals(traced), passes)
        layer["trace.overhead_ratio"] = overhead
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        spans = write_trace(path, context, traced)
        lines.append(f"trace: {spans} spans in {path.relative_to(ROOT)}; "
                     "per-layer values are per pass")
        shares = inclusive_shares(traced)
        for name in tracing.metric_names():
            note = ""
            boundary = name.rsplit(".", 1)[0]
            if name.endswith(".self_s") and boundary in shares:
                note = f"  (inclusive share of request time {shares[boundary]:.3f})"
            lines.append(f"  {name:<44} {layer[name]:.6g} {tracing.unit(name)}{note}")
        metrics = {name: {"value": layer[name], "unit": tracing.unit(name)}
                   for name in tracing.metric_names()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": not any(o.wrong for o in everything),
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
