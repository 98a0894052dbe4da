"""Paired benchmark runs of two checkouts, written to one BENCH_*.json file.

    python3 tools/bench_pairs.py workload BASE CHANGE --workload cold_classes \
        --seeds 1-10 --seconds 15 --out BENCH_6.json
    python3 tools/bench_pairs.py build BASE CHANGE --shape 8,4 --repeats 1 --out BENCH_6.json
    python3 tools/bench_pairs.py command BASE CHANGE --repeats 10 --out BENCH_12.json \
        -- lr --n 4 --k 2 --a 1 --b 1
    python3 tools/bench_pairs.py setup BASE CHANGE --workload warm_calculus \
        --repeats 10 --out BENCH_25.json
    python3 tools/bench_pairs.py large BASE CHANGE --repeats 3 --out BENCH_29.json

BASE and CHANGE are the roots of two checkouts, for example a clone of the
parent commit and one of the change.  `workload` runs `perfbench/run.py` in
each, once per seed, and alternates which side runs first from one seed to
the next.  Each side is recorded by its git revision and by a sha256 of its
src/eqschub/*.py, so two checkouts of one commit with different sources can
be told apart.  `build` times building every Schubert class of Gr(k, n), and
then every opposite class, in a fresh interpreter on each side, alternating
the same way; outside the timed region each run prints a sha256 over the
sorted-key JSON of every class it built, one class after another, and every
run on both sides must print the same one.  `command` times the wall clock
of `python -m eqschub ARGV...` in a fresh interpreter on each side,
alternating the same way, and requires every run on both sides to exit
with the same status and print the same stdout; beside the wall time it
records the child's peak RSS in MB, the ru_maxrss that os.wait4 returns
when it reaps the child; stdout is compared by its sha256.  `large` runs
`command` for each line of `tools/large.txt`, a time budget in seconds
followed by the eqschub arguments, records the budget beside each
entry, and exits with status 1 when the change's median time of some
command is over its budget.  `setup` times the
set-up of one workload alone, `perfbench/run.py --workload W --seed 1
--probe-setup`, in a fresh interpreter on each side, alternating the same
way.  Each metric gets each side's median and quartiles, all of its runs,
and the number of pairs the change won (ties count for neither side); the
direction of "better" comes from the change's BENCHMARK.json.  Results
merge into the --out file, so one file collects several workloads, builds,
commands and set-ups.

Every interpreter of a side runs with that side's own PYTHONPYCACHEPREFIX,
a fresh directory made before the first run (and filled by compiling the
side's src and perfbench) and removed after the last, with
PYTHONDONTWRITEBYTECODE unset.  So both sides import from bytecode compiled
in this run, and a stale `__pycache__` in either checkout is never read.
It also means the `setup_s` recorded here leaves out compiling the package,
since each side is compiled before its first run.  An interpreter with no
bytecode to read (PYTHONDONTWRITEBYTECODE=1 in a checkout without
`__pycache__`) compiles the package on every start, so a `setup_s` taken
that way is not comparable with the one in a BENCH_*.json file, except
with the `setup` mode's.  That mode runs every interpreter the other way:
PYTHONDONTWRITEBYTECODE=1 and a PYTHONPYCACHEPREFIX that stays empty, so
each start compiles the package anew, as a run from a fresh checkout with
no bytecode does.

A check of the tests against another checkout, such as the parent commit
or a copy with a deliberate fault, must run pytest from inside that
checkout.  pyproject.toml sets pythonpath = ["src"], and pytest puts that
ahead of PYTHONPATH, so `PYTHONPATH=OTHER/src python -m pytest` run here
silently imports this checkout's src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

LARGE = Path(__file__).resolve().with_name("large.txt")

BUILD_SCRIPT = """
import hashlib, json, sys, time
sys.path.insert(0, "src")
from eqschub import GrassmannianShape, opposite_schubert_class, schubert_class
shape = GrassmannianShape({n}, {k})
seconds, classes = [], []
for build in (schubert_class, opposite_schubert_class):
    start = time.perf_counter()
    built = [build(lam, shape) for lam in shape.partitions()]
    seconds.append(time.perf_counter() - start)
    classes += built
digest = hashlib.sha256()
for c in classes:
    digest.update(json.dumps(c.to_json_dict(), sort_keys=True).encode())
print(*seconds, len(classes) // 2, digest.hexdigest())
"""


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5' (or a mix) to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def revision(root: Path) -> str:
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def source_digest(root: Path) -> str:
    """sha256 over the names and bytes of src/eqschub/*.py, in name order."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "eqschub").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(base: list[float], change: list[float], better: str) -> dict:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    return {"better": better, "base": summary(base), "change": summary(change),
            "change_wins": wins, "pairs": len(base)}


def alternate(index: int, base: Path, change: Path, run) -> tuple:
    """Run both sides, the base first on even indices; returns (base, change)."""
    if index % 2:
        change_result = run(change)
        return run(base), change_result
    base_result = run(base)
    return base_result, run(change)


def run_workload(args, directions: dict, envs: dict) -> dict:
    def run(root: Path, seed: int) -> dict:
        argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(argv, cwd=root, env=envs[root], capture_output=True, text=True,
                             check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    pairs = []
    for i, seed in enumerate(args.seeds):
        pairs.append(alternate(i, args.base, args.change, lambda root: run(root, seed)))
        print(f"{args.workload} seed {seed} done", file=sys.stderr)
    metrics = {}
    for name in pairs[0][0]["metrics"]:
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        metrics[name] = {"unit": pairs[0][1]["metrics"][name]["unit"],
                         **compare(base, change, directions[name])}
    return {
        "seconds": args.seconds,
        "seeds": args.seeds,
        "metrics": metrics,
        "correct": {"base": all(b["correct"] for b, _ in pairs),
                    "change": all(c["correct"] for _, c in pairs)},
        "failed": {"base": sum(b["failed"] for b, _ in pairs),
                   "change": sum(c["failed"] for _, c in pairs)},
    }


def run_build(args, envs: dict) -> dict:
    n, k = args.shape
    script = BUILD_SCRIPT.format(n=n, k=k)

    def run(root: Path) -> tuple[float, float, int, str]:
        out = subprocess.run([sys.executable, "-c", script], cwd=root, env=envs[root],
                             capture_output=True, text=True, check=True)
        schubert, opposite, count, digest = out.stdout.split()
        return float(schubert), float(opposite), int(count), digest

    pairs = [alternate(i, args.base, args.change, run) for i in range(args.repeats)]
    outputs = {result[2:] for side in pairs for result in side}
    if len(outputs) != 1:
        raise SystemExit(f"Gr({k},{n}): the builds differ in their classes")
    count, digest = outputs.pop()
    return {"classes": count, "unit": "s", "classes_sha256": digest,
            **compare([b[0] for b, _ in pairs], [c[0] for _, c in pairs], "lower"),
            "opposite": compare([b[1] for b, _ in pairs], [c[1] for _, c in pairs], "lower")}


def run_command(args, envs: dict) -> dict:
    def run(root: Path) -> tuple[float, float, int, str]:
        env = dict(envs[root], PYTHONPATH=str(root / "src"))
        with tempfile.TemporaryFile() as stdout:
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, "-m", "eqschub", *args.argv], cwd=root,
                                     env=env, stdout=stdout, stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)
            seconds = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)
            stdout.seek(0)
            digest = hashlib.file_digest(stdout, "sha256").hexdigest()
        return seconds, usage.ru_maxrss / 1024, child.returncode, digest

    pairs = [alternate(i, args.base, args.change, run) for i in range(args.repeats)]
    outputs = {(status, digest) for side in pairs for _, _, status, digest in side}
    if len(outputs) != 1:
        raise SystemExit(f"{shlex.join(args.argv)}: the runs differ in exit status or stdout")
    status, digest = outputs.pop()
    return {"unit": "s", "exit_status": status, "stdout_sha256": digest,
            **compare([b[0] for b, _ in pairs], [c[0] for _, c in pairs], "lower"),
            "peak_rss_mb": compare([b[1] for b, _ in pairs], [c[1] for _, c in pairs], "lower")}


def read_large(path: Path) -> list[tuple[float, list[str]]]:
    """(time budget in seconds, eqschub argv) for each line of a command
    list; blank lines and lines that start with # are skipped."""
    entries = []
    for line in path.read_text().splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            budget, *argv = shlex.split(line)
            entries.append((float(budget), argv))
    return entries


def run_large(args, envs: dict) -> dict:
    """`command` for each line of the list, with the line's budget beside it;
    a command is within budget when the change's median time is."""
    entries = {}
    for budget, argv in read_large(LARGE):
        args.argv = argv
        entry = run_command(args, envs)
        entry["budget_s"] = budget
        entry["within_budget"] = entry["change"]["median"] <= budget
        entries[shlex.join(argv)] = entry
        print(f"{shlex.join(argv)}: {entry['base']['median']:.3f} -> "
              f"{entry['change']['median']:.3f} s (budget {budget:g} s)", file=sys.stderr)
    return entries


def run_setup(args, envs: dict) -> dict:
    def run(root: Path) -> float:
        argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                "--seed", "1", "--probe-setup"]
        out = subprocess.run(argv, cwd=root, env=envs[root], capture_output=True, text=True,
                             check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]

    pairs = [alternate(i, args.base, args.change, run) for i in range(args.repeats)]
    return {"unit": "s", **compare([b for b, _ in pairs], [c for _, c in pairs], "lower")}


def side_env(root: Path, cache: str, compiled: bool = True) -> dict:
    """The environment of root's interpreters: bytecode in its own cache
    directory, filled here by compiling root's sources; or, not compiled,
    no bytecode written or read at all."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = cache
    if not compiled:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=root, env=env, check=True, stdout=subprocess.DEVNULL)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    workload = modes.add_parser("workload", help="paired perfbench/run.py runs")
    build = modes.add_parser("build", help="paired builds of all Schubert and opposite classes")
    command = modes.add_parser("command", help="paired runs of python -m eqschub ARGV")
    setup = modes.add_parser("setup", help="paired workload set-ups, compiled at every start")
    large = modes.add_parser("large", help="paired runs of every command of a list, each "
                                           "against its time budget")
    for sub in (workload, build, command, setup, large):
        sub.add_argument("base", type=Path)
        sub.add_argument("change", type=Path)
        sub.add_argument("--out", type=Path, required=True)
    for sub in (workload, setup):
        sub.add_argument("--workload", required=True)
    workload.add_argument("--seeds", type=parse_seeds, required=True)
    workload.add_argument("--seconds", type=float, default=15.0)
    build.add_argument("--shape", required=True, help="n,k of the Grassmannian",
                       type=lambda s: tuple(int(v) for v in s.split(",")))
    command.add_argument("argv", nargs="+", help="eqschub arguments, after --")
    for sub in (build, command, setup, large):
        sub.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args(argv)
    args.base, args.change = args.base.resolve(), args.change.resolve()

    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report["context"] = {"python": platform.python_version(), "machine": platform.machine(),
                         "cpus": os.cpu_count()}
    sides = {"revisions": {"base": revision(args.base), "change": revision(args.change)},
             "sources": {"base": source_digest(args.base), "change": source_digest(args.change)},
             "bytecode": "fresh PYTHONPYCACHEPREFIX per side, compiled before the first run; "
                         "PYTHONDONTWRITEBYTECODE unset"}
    compiled = args.mode != "setup"
    if not compiled:
        sides["bytecode"] = ("none: PYTHONDONTWRITEBYTECODE=1 and an empty PYTHONPYCACHEPREFIX "
                             "per side, so every start compiles the package")
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as base_cache, \
            tempfile.TemporaryDirectory(prefix="bench-pycache-") as change_cache:
        envs = {args.base: side_env(args.base, base_cache, compiled),
                args.change: side_env(args.change, change_cache, compiled)}
        if args.mode == "setup":
            entry = run_setup(args, envs)
            report.setdefault("setups", {})[args.workload] = {**sides, **entry}
        elif args.mode == "workload":
            bench = json.loads((args.change / "BENCHMARK.json").read_text())
            directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
            entry = run_workload(args, directions, envs)
            report.setdefault("workloads", {})[args.workload] = {**sides, **entry}
        elif args.mode == "command":
            entry = run_command(args, envs)
            report.setdefault("commands", {})[shlex.join(args.argv)] = {**sides, **entry}
        elif args.mode == "large":
            entries = run_large(args, envs)
            for argv, entry in entries.items():
                report.setdefault("commands", {})[argv] = {**sides, **entry}
            over = [argv for argv, entry in entries.items() if not entry["within_budget"]]
        else:
            n, k = args.shape
            entry = run_build(args, envs)
            report.setdefault("class_builds", {})[f"Gr({k},{n})"] = {**sides, **entry}
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.mode == "large" and over:
        print(f"over budget: {'; '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
