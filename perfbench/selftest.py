"""Short self-test of the benchmark itself.

    python3 perfbench/selftest.py

Serves a few requests of each workload through `run.main`, traced and
untraced, and checks that:
- the last line of stdout has exactly the keys correct, attempted, failed
  and metrics, and every request checks out;
- every metric BENCHMARK.json names is printed, by name, with its unit;
- deliberately wrong reference digests count as failed, incorrect requests.
Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def few(pool):
    """Two plain requests plus the first request checked by each rule."""
    chosen = [r for r in pool if r.rule is None][:2]
    for rule, pin in (("gkm_violation", False), ("domain_error", True), ("domain_error", False)):
        chosen += [r for r in pool if r.rule == rule and r.pin is pin][:1]
    return chosen


def invoke(name: str, trace: int) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    if code != 0:
        raise AssertionError(f"{name}: exit {code}")
    return lines, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    workloads.Workload.order = lambda self: few(self.pool)
    problems = []
    for item in spec["workloads"]:
        name = item["name"]
        for trace in (0, 1):
            lines, result = invoke(name, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(result)}")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected[trace]:
                problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(printed) ^ set(expected[trace]))}")
            for metric, unit in expected[trace].items():
                if not any(line.split()[:1] == [metric] and f" {unit}" in line
                           for line in lines[:-1]):
                    problems.append(f"{name} trace={trace}: {metric} not printed with {unit}")
            known = sum(int(line.split()[1].rstrip("x")) for line in lines[:-1]
                        if line.split()[:1] == ["failed"] and "malformed/class-json" in line)
            if not result["correct"] or result["failed"] != known:
                problems.append(f"{name} trace={trace}: correct={result['correct']} "
                                f"failed={result['failed']}, expected {known} known failures")
        broken = copy.deepcopy(workloads.load_refs())
        for ref in broken[name].values():
            if "digest" in ref:
                ref["digest"] = "0" * 64
        real = run.load_refs
        run.load_refs = lambda: broken
        try:
            lines, result = invoke(name, 0)
        finally:
            run.load_refs = real
        if result["correct"] or not any("differs from the reference" in line for line in lines):
            problems.append(f"{name}: a wrong reference was not counted as a failure")
        print(f"{name}: ok" if not problems else f"{name}: {len(problems)} problem(s) so far")
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
