"""Regenerate perfbench/refs.json from the code in this checkout.

    python3 perfbench/make_refs.py

Runs every request of every pool once, exactly as the benchmark serves it,
and records the sha256 of its output.  Requests with an independent oracle
get its answer too, computed here without the engine: LR numbers from
`tests/oracles.lr_coefficient`, counts of standard skew tableaux for the
degree-0 integrals (checked against the hook-length formula on the full
box), and the GKM verdict known from how the class was built.  The file is
written only if every pinned output agrees with its oracle.

Run it at the commit whose outputs are the reference; outputs must stay
byte-identical after that, so a later change that alters them on purpose
regenerates the file in the same change.
"""

from __future__ import annotations

import json
import math
import sys
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import REFS_PATH, ROOT, WORKLOADS, Checker, digest  # noqa: E402

sys.path.insert(0, str(ROOT / "tests"))
from oracles import lr_coefficient  # noqa: E402


def box_partitions(rows: int, width: int):
    """Every partition inside the rows x width box, as a tuple without zeros."""
    def grow(prefix, cap):
        yield tuple(p for p in prefix if p)
        if len(prefix) < rows:
            for part in range(1, cap + 1):
                yield from grow(prefix + (part,), part)
    return sorted(set(grow((), width)))


def label(parts) -> str:
    return ",".join(map(str, parts)) or "0"


@lru_cache(maxsize=None)
def skew_tableaux(nu: tuple, rows: int, width: int) -> int:
    """Standard fillings of box / nu: ways to grow nu to the full box one cell at a time."""
    padded = list(nu) + [0] * (rows - len(nu))
    if all(p == width for p in padded):
        return 1
    total = 0
    for r in range(rows):
        if padded[r] < width and (r == 0 or padded[r] < padded[r - 1]):
            grown = padded[:]
            grown[r] += 1
            total += skew_tableaux(tuple(p for p in grown if p), rows, width)
    return total


def hook_length(rows: int, width: int) -> int:
    hooks = 1
    for i in range(rows):
        for j in range(width):
            hooks *= (width - j - 1) + (rows - i - 1) + 1
    return math.factorial(rows * width) // hooks


def lr_oracle(n, k, lam, mu) -> dict:
    degree = sum(lam) + sum(mu)
    top = {}
    for nu in box_partitions(k, n - k):
        if sum(nu) == degree:
            c = lr_coefficient(lam, mu, nu)
            if c:
                top[label(nu)] = c
    return {"kind": "lr", "degree": degree, "top": top}


def integral_oracle(n, k, terms) -> dict | None:
    """Degree-0 integral of sum c * s_lam * s_mu * s1^m, or None above degree 0."""
    rows, width = k, n - k
    dim = rows * width
    assert skew_tableaux((), rows, width) == hook_length(rows, width)
    value = 0
    for coeff, lam, mu, power in terms:
        degree = sum(lam) + sum(mu) + power
        if degree > dim:
            return None
        if degree < dim:
            continue  # an integral of negative degree vanishes
        for nu in box_partitions(rows, width):
            if sum(nu) == sum(lam) + sum(mu):
                value += coeff * lr_coefficient(lam, mu, nu) * skew_tableaux(nu, rows, width)
    return {"kind": "integral", "value": value}


def oracle_for(spec) -> dict | None:
    kind = spec[0]
    if kind == "lr":
        return lr_oracle(*spec[1:])
    if kind == "integral":
        return integral_oracle(*spec[1:])
    if kind == "verdict":
        return {"kind": "verdict", "ok": spec[1]}
    raise ValueError(f"unknown oracle {kind}")


def main() -> int:
    refs: dict = {}
    problems = []
    for name, cls in WORKLOADS.items():
        workload = cls(seed=0)
        workload.setup({})
        entries: dict = {}
        try:
            for req in workload.pool:
                entry: dict = {}
                if req.rule:
                    entry["rule"] = req.rule
                if req.spec is not None:
                    oracle = oracle_for(req.spec)
                    if oracle is not None:
                        entry["oracle"] = oracle
                if req.pin:
                    res, _ = workload.serve(req, None)
                    if res["raised"] is not None:
                        problems.append(f"{name} {req.rid}: raised {res['raised']}")
                        continue
                    entry["digest"] = digest(res["text"])
                    checker = Checker({req.rid: entry}, workload.checker.rng, workload.checker.cli)
                    reason = checker.check(req, res["text"])
                    if reason:
                        problems.append(f"{name} {req.rid}: {reason}")
                entries[req.rid] = entry
        finally:
            workload.close()
        refs[name] = entries
        print(f"{name}: {len(entries)} references, "
              f"{sum('oracle' in e for e in entries.values())} with an oracle, "
              f"{sum('digest' not in e for e in entries.values())} checked by rule only")
    if problems:
        print("not written; outputs disagree with their oracles:", *problems, sep="\n  ")
        return 1
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFS_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
