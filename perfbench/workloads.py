"""The three workloads: request pools, how one request runs, and its check.

Each workload is a closed loop with one client: the next request is sent
only after the previous one has returned and been checked.  The seed picks
the request order of every pass and the perturbation data (fixed point and
value); it never changes which requests a pass holds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pickle
import random
import re
import resource
import shutil
import sys
from itertools import combinations
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFS_PATH = BENCH_DIR / "refs.json"

PERTURB_VALUES = tuple(v for v in range(-9, 10) if v)


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def import_eqschub():
    """Import the package from this checkout's `src`, never an installed copy."""
    src = ROOT / "src"
    if not (src / "eqschub" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no eqschub sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import eqschub
    import eqschub.cli  # noqa: F401  (cli_mix calls it; its import is set-up cost)

    return eqschub


class Request:
    """One request of a pool.

    `call` runs inside the timed region; `render` turns its value into the
    text that is compared with the reference, outside it.  `pin` says
    whether that text's digest at the seed commit is the reference.  `rule`
    names a check made besides or instead of the digest: "domain_error"
    (exit 1, one `eqschub: error:` line on stderr, empty stdout) or
    "gkm_violation" (the violations are exactly the edges at the perturbed
    fixed point).  `data` is the seed-chosen perturbation.  `spec` names the
    independent oracle for the answer: ("lr", n, k, lam, mu),
    ("integral", n, k, terms) or ("verdict", ok).
    """

    __slots__ = ("rid", "call", "render", "rule", "pin", "data", "spec")

    def __init__(self, rid, call, render, *, rule=None, pin=True, data=None, spec=None):
        self.rid = rid
        self.call = call
        self.render = render
        self.rule = rule
        self.pin = pin
        self.data = data
        self.spec = spec


class Outcome:
    __slots__ = ("rid", "latency", "failed", "wrong", "reason", "trace", "rss_kb")

    def __init__(self, rid, latency, failed, wrong, reason, trace, rss_kb):
        self.rid = rid
        self.latency = latency
        self.failed = failed
        self.wrong = wrong  # returned normally with output that is not the answer
        self.reason = reason
        self.trace = trace
        self.rss_kb = rss_kb


# ------------------------------------------------------------------ execution

def run_request(req: Request, tracer) -> dict:
    """Run one request, timing only its call; render the value afterwards."""
    root = tracer.begin_request() if tracer else None
    start = perf_counter()
    try:
        value, raised = req.call(), None
    except Exception as err:  # a failed request is reported, not fatal
        value, raised = None, f"{type(err).__name__}: {err}"
    latency = perf_counter() - start
    trace = tracer.end_request(root) if tracer else None
    text = None
    if raised is None:
        try:
            text = req.render(value)
        except Exception as err:  # rendering belongs to the output under test
            raised = f"render {type(err).__name__}: {err}"
    return {"latency": latency, "text": text, "raised": raised, "trace": trace}


class ChildFailed(Exception):
    pass


def run_forked(fn):
    """Run fn() in a forked child; return its pickled result and max RSS in KiB.

    The parent has no threads when it forks, and its memo caches are empty,
    so every child starts like a fresh process that has imported eqschub.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            os.close(rfd)
            data = pickle.dumps(fn())
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()  # drain before waiting, or a full pipe blocks the child
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        raise ChildFailed(f"child exited with status {status}")
    return pickle.loads(data), usage.ru_maxrss


# --------------------------------------------------------------------- checks

_TOKEN = re.compile(r"[+-]|[^\s+-]+")
_VIOLATION_LINE = re.compile(r"^(\{[\d,]*\}) -- (\{[\d,]*\}): (.*) not divisible by .*$")


def eval_poly_text(text: str, point: dict) -> int:
    """Value of canonical polynomial text such as "-2*t1^2 + t3" at integer t values."""
    total = 0
    sign = 1
    for token in _TOKEN.findall(text):
        if token in "+-":
            sign = -sign if token == "-" else sign
            continue
        term = sign
        for factor in token.split("*"):
            if factor[0].isdigit():
                term *= int(factor)
                continue
            base, _, exp = factor.partition("^")
            if base[0] != "t":
                raise ValueError(f"unexpected variable {base}")
            term *= point[int(base[1:])] ** (int(exp) if exp else 1)
        total += term
        sign = 1
    return total


def parse_subset(text: str) -> tuple:
    return tuple(int(s) for s in text.strip("{}").split(",") if s)


def check_violations(violations, site, value, n, rng) -> str | None:
    """Adding `value` at `site` to a class in the image breaks exactly the
    edges at `site`: on the hyperplane t_i = t_j of edge {I, J} the true
    difference vanishes, so the reported difference must reduce to +-value."""
    site = tuple(site)
    expected = {frozenset((cand, site)) for cand in combinations(range(1, n + 1), len(site))
                if len(set(cand) & set(site)) == len(site) - 1}
    got = set()
    for start, end, difference in violations:
        a, b = parse_subset(start), parse_subset(end)
        got.add(frozenset((a, b)))
        (i,), (j,) = set(a) - set(b), set(b) - set(a)
        want = value if a == site else -value
        for _ in range(2):
            point = {v: rng.randint(-50, 50) for v in range(1, n + 1)}
            point[j] = point[i]
            if eval_poly_text(difference, point) != want:
                return f"difference {difference} on {start}--{end} is not {want} on t{i}=t{j}"
    if got != expected:
        return f"violations on {len(got)} edges, expected the {len(expected)} at {site}"
    return None


def _weight(nu: str) -> int:
    return sum(int(p) for p in nu.split(","))


class Checker:
    """Compares one output with its committed reference and oracle."""

    def __init__(self, refs: dict, rng: random.Random, cli: bool):
        self.refs = refs
        self.rng = rng
        self.cli = cli

    def check(self, req: Request, text: str) -> str | None:
        ref = self.refs.get(req.rid)
        if ref is None:
            return "no reference"
        if "digest" in ref and digest(text) != ref["digest"]:
            return "output differs from the reference"
        if req.rule == "domain_error":
            rc, out, err = json.loads(text)
            lines = err.splitlines()
            if rc != 1 or out or len(lines) != 1 or not lines[0].startswith("eqschub: error: "):
                return f"exit {rc}, expected exit 1 with one domain-error line"
        if req.rule == "gkm_violation":
            return self._violations(req, text)
        if "oracle" in ref:
            return self._oracle(text, ref["oracle"])
        return None

    def _stdout(self, text: str, want_rc: int) -> tuple[str | None, str | None]:
        rc, out, err = json.loads(text)
        if rc != want_rc:
            return None, f"exit {rc}, expected {want_rc}"
        return out, None

    def _violations(self, req: Request, text: str) -> str | None:
        site, value, n = req.data
        if self.cli:
            out, bad = self._stdout(text, 2)
            if bad:
                return bad
            violations = []
            for line in out.splitlines():
                m = _VIOLATION_LINE.match(line)
                if not m:
                    return f"unreadable violation line {line!r}"
                violations.append(m.groups())
        else:
            data = json.loads(text)
            violations = [(a, b, d) for a, b, _, d in data["violations"]]
        return check_violations(violations, site, value, n, self.rng)

    def _oracle(self, text: str, oracle: dict) -> str | None:
        if self.cli:
            text, bad = self._stdout(text, 0 if oracle.get("ok", True) else 2)
            if bad:
                return bad
        kind = oracle["kind"]
        if kind == "lr":
            data = json.loads(text)
            got = {nu: c for nu, c in data["coeffs"].items() if _weight(nu) == oracle["degree"]}
            want = {nu: str(c) for nu, c in oracle["top"].items()}
            if got != want:
                return f"degree-0 coefficients {got} differ from the LR oracle {want}"
            if data.get("positive") is False or False in data.get("certs", {}).values():
                return "a structure constant failed its positivity certificate"
        elif kind == "integral":
            if text.strip() != str(oracle["value"]):
                return f"integral {text.strip()} differs from the oracle {oracle['value']}"
        elif kind == "verdict":
            ok = text.strip() == "ok" if self.cli else json.loads(text)["ok"]
            if ok is not oracle["ok"]:
                return f"GKM verdict {ok}, expected {oracle['ok']}"
        return None


# ------------------------------------------------------------------ workloads

class Workload:
    """Set-up, the pool, and how one request of it is served and checked."""

    name = ""
    forked = True  # each request in a fresh forked child

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.pool: list[Request] = []

    def setup(self, refs: dict):
        self.eq = import_eqschub()
        self.checker = Checker(refs.get(self.name, {}), random.Random(self.seed + 1),
                               cli=isinstance(self, CliMix))
        self.build_pool()

    def build_pool(self):
        raise NotImplementedError

    def close(self):
        pass

    def order(self) -> list[Request]:
        return self.rng.sample(self.pool, len(self.pool))

    def perturbation(self, shape) -> tuple[tuple, int]:
        return self.rng.choice(shape.subsets()).elements, self.rng.choice(PERTURB_VALUES)

    def serve(self, req: Request, tracer) -> tuple[dict, int]:
        """Run one request where this workload runs it; result and max RSS in KiB."""
        if not self.forked:
            res = run_request(req, tracer)
            return res, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        def child():
            if tracer:
                tracer.reset()
            return run_request(req, tracer)

        return run_forked(child)

    def execute(self, req: Request, tracer) -> Outcome:
        try:
            res, rss_kb = self.serve(req, tracer)
        except ChildFailed as err:
            return Outcome(req.rid, 0.0, True, False, str(err), None, 0)
        if res["raised"] is not None:
            return Outcome(req.rid, res["latency"], True, False, f"raised {res['raised']}",
                           res["trace"], rss_kb)
        reason = self.checker.check(req, res["text"])
        return Outcome(req.rid, res["latency"], reason is not None, reason is not None,
                       reason, res["trace"], rss_kb)


def _class_json(cls) -> str:
    return canonical(cls.to_json_dict())


class ColdClasses(Workload):
    """Class construction in a fresh forked child per request, as for a new
    `eqschub class` process.  Forking, not clearing caches by name, keeps a
    cache added later from quietly turning this workload warm."""

    name = "cold_classes"

    def build_pool(self):
        eq = self.eq
        pool = []
        for n, k in ((6, 2), (6, 3), (7, 2), (7, 3)):
            shape = eq.GrassmannianShape(n, k)
            for lam in shape.partitions():
                pool.append(Request(
                    f"schubert/Gr({k},{n})/{lam}",
                    lambda lam=lam, shape=shape: eq.schubert_class(lam, shape).to_json_dict(),
                    canonical))
        for n, k in ((6, 2), (6, 3), (7, 2)):
            shape = eq.GrassmannianShape(n, k)
            for lam in shape.partitions():
                pool.append(Request(
                    f"opposite/Gr({k},{n})/{lam}",
                    lambda lam=lam, shape=shape: eq.opposite_schubert_class(lam, shape),
                    _class_json))
        self.pool = pool


class WarmCalculus(Workload):
    """Products, division, basis expansion and localization sums on the
    Gr(3,6) classes that set-up has built, in one long-lived process."""

    name = "warm_calculus"
    forked = False
    N, K = 6, 3

    def setup(self, refs: dict):
        super().setup(refs)
        for lam in self.shape.partitions():
            self.eq.schubert_class(lam, self.shape)

    def build_pool(self):
        eq = self.eq
        shape = self.shape = eq.GrassmannianShape(self.N, self.K)
        dim = shape.k * (shape.n - shape.k)
        lams = shape.partitions()
        pairs = [(a, b) for i, a in enumerate(lams) for b in lams[i:]]
        pool = []
        gkm_seen = 0
        for idx, (lam, mu) in enumerate(pairs):
            kind = ("lr", "gkm", "integrate")[idx % 3]
            if kind == "lr":
                pool.append(Request(f"lr/{lam}*{mu}",
                                    lambda lam=lam, mu=mu: self._lr(lam, mu), canonical,
                                    spec=("lr", self.N, self.K, lam.parts, mu.parts)))
            elif kind == "gkm" and gkm_seen % 4 == 3:
                gkm_seen += 1
                site, value = self.perturbation(shape)
                pool.append(Request(f"gkm/{lam}*{mu}/perturbed",
                                    lambda lam=lam, mu=mu, p=(site, value): self._gkm(lam, mu, p),
                                    canonical, rule="gkm_violation", pin=False,
                                    data=(site, value, self.N)))
            elif kind == "gkm":
                gkm_seen += 1
                pool.append(Request(f"gkm/{lam}*{mu}",
                                    lambda lam=lam, mu=mu: self._gkm(lam, mu, None), canonical,
                                    spec=("verdict", True)))
            else:
                extra = max(0, dim - lam.weight - mu.weight)
                pool.append(Request(f"integrate/{lam}*{mu}*s1^{extra}",
                                    lambda lam=lam, mu=mu, e=extra: self._integrate(lam, mu, e),
                                    str, spec=("integral", self.N, self.K,
                                               [(1, lam.parts, mu.parts, extra)])))
        self.pool = pool

    def _lr(self, lam, mu):
        eq = self.eq
        expansion = eq.structure_constants(lam, mu, self.shape)
        certs = {str(nu): eq.positivity_certificate(c, self.N).ok
                 for nu, c in expansion.coeffs.items()}
        return {"coeffs": expansion.to_json_dict()["coeffs"], "certs": certs}

    def _gkm(self, lam, mu, perturbation):
        eq = self.eq
        cls = eq.schubert_class(lam, self.shape) * eq.schubert_class(mu, self.shape)
        if perturbation is not None:
            site, value = perturbation
            cls = cls + eq.EqClass(self.shape, {eq.PivotSubset(site): value})
        result = eq.gkm_check(cls)
        return {"ok": result.ok,
                "violations": [[str(v.start), str(v.end), str(v.weight), str(v.difference)]
                               for v in result.violations]}

    def _integrate(self, lam, mu, extra):
        eq = self.eq
        cls = eq.schubert_class(lam, self.shape) * eq.schubert_class(mu, self.shape)
        if extra:
            cls = cls * eq.schubert_class((1,), self.shape) ** extra
        return eq.integrate(cls)


# Integrals cli_mix asks for, as (n, k, [(coefficient, lam, mu, power of s1)]).
# Those of degree 0 get an oracle value from LR numbers and tableau counts.
CLI_INTEGRALS = (
    (4, 2, [(1, (), (), 4)]),
    (4, 2, [(1, (2,), (), 2)]),
    (4, 2, [(1, (1, 1), (2,), 0)]),
    (4, 2, [(2, (1,), (1,), 2), (-1, (2, 1), (1,), 0)]),
    (4, 2, [(1, (2, 1), (2, 2), 0)]),
    (5, 2, [(1, (), (), 6)]),
    (5, 2, [(1, (3,), (), 3)]),
    (5, 2, [(1, (2, 1), (1, 1), 1), (3, (2,), (2,), 2)]),
    (6, 3, [(1, (2, 1), (1,), 6)]),
    (6, 3, [(1, (2, 2), (2, 1), 2)]),
)

# Free-form expressions: digest only.
CLI_EXPRESSIONS = (
    (5, 2, "(s1 + s2)^3 - s2,1*s1"),
    (4, 2, "-(s1 - 2)^2*s1,1 + 3"),
)

# Integer combinations of Schubert products, so members of the image.
CLI_GKM_CLASSES = (
    (4, 2, "s1*s1 - 2*s2"),
    (5, 2, "s2,1*s1^2 + 4*s3"),
    (6, 3, "s1^3 - s1,1,1"),
    (6, 3, "s2,1*s1,1 - 3*s3,1"),
)

# Products written to class files; each also gets a perturbed copy.
CLI_MEMBERS = (
    (4, 2, (1,), (1,)),
    (4, 2, (2,), (1, 1)),
    (4, 2, (1,), (2, 1)),
    (5, 2, (1,), (2,)),
    (5, 2, (2, 1), (1,)),
    (5, 2, (1, 1), (3,)),
)

# Class JSON with missing keys: must be a domain error (exit 1).
CLI_MISSING_KEYS = ({"n": 4, "k": 2}, {"k": 2, "restrictions": {}})


def expression(terms) -> str:
    """Class expression text for [(coefficient, lam, mu, power of s1)]."""
    text = ""
    for coeff, lam, mu, power in terms:
        factors = ["s" + ",".join(map(str, p)) for p in (lam, mu) if p]
        factors += [f"s1^{power}"] if power else []
        body = "*".join(factors) or "1"
        if abs(coeff) != 1:
            body = f"{abs(coeff)}*{body}"
        if not text:
            text = ("-" if coeff < 0 else "") + body
        else:
            text += (" - " if coeff < 0 else " + ") + body
    return text


def _label(p) -> str:
    return ",".join(map(str, p)) or "0"


class CliMix(Workload):
    """`eqschub.cli.main(argv)` in a fresh forked child per request, with
    stdout, stderr and the exit status captured and compared."""

    name = "cli_mix"

    def setup(self, refs: dict):
        os.environ.pop("EQSCHUB_THREADS", None)  # verify runs with its default
        self.dir = OUT_DIR / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        super().setup(refs)
        self._write_files()

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _cli(self, rid, argv, **kw) -> Request:
        cli = self.eq.cli

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return [rc, out.getvalue(), err.getvalue()]

        return Request(rid, call, canonical, **kw)

    def build_pool(self):
        eq = self.eq
        shapes = {(n, k): eq.GrassmannianShape(n, k) for n, k in ((4, 2), (5, 2), (6, 3))}
        add = self.pool.append
        for lam in shapes[6, 3].partitions():
            add(self._cli(f"schur/k3/{lam}", ["schur", "--shape", str(lam), "--k", "3"]))
        top = shapes[5, 2].partitions()[-1]
        for lam in shapes[5, 2].partitions():
            add(self._cli(f"schur/Gr(2,5)/{lam}@{top}",
                          ["schur", "--shape", str(lam), "--k", "2",
                           "--restrict-to", str(top), "--n", "5"]))
        for n, k in ((4, 2), (5, 2)):
            for lam in shapes[n, k].partitions():
                add(self._cli(f"class/Gr({k},{n})/{lam}",
                              ["class", "--n", str(n), "--k", str(k), "--shape", str(lam),
                               "--json"]))
        lams = shapes[4, 2].partitions()
        for i, lam in enumerate(lams):
            for mu in lams[i:]:
                add(self._cli(f"lr/Gr(2,4)/{lam}*{mu}",
                              ["lr", "--n", "4", "--k", "2", "--a", str(lam), "--b", str(mu)],
                              spec=("lr", 4, 2, lam.parts, mu.parts)))
        for lam in shapes[5, 2].partitions():
            add(self._cli(f"mult/Gr(2,5)/{lam}*1",
                          ["mult", "--n", "5", "--k", "2", "--a", str(lam), "--b", "1"]))
        for n, k, terms in CLI_INTEGRALS:
            text = expression(terms)
            add(self._cli(f"integrate/Gr({k},{n})/{text}",
                          ["integrate", "--n", str(n), "--k", str(k), "--class", text],
                          spec=("integral", n, k, terms)))
        for n, k, text in CLI_EXPRESSIONS:
            add(self._cli(f"integrate/Gr({k},{n})/{text}",
                          ["integrate", "--n", str(n), "--k", str(k), "--class", text]))
        self.class_files = []
        for idx, (n, k, lam, mu) in enumerate(CLI_MEMBERS):
            label = f"Gr({k},{n})/{_label(lam)}*{_label(mu)}"
            member, bad = self.dir / f"member{idx}.json", self.dir / f"perturbed{idx}.json"
            site, value = self.perturbation(shapes[n, k])
            self.class_files.append((n, k, lam, mu, member, bad, site, value))
            add(self._cli(f"gkm-check-in/member/{label}",
                          ["gkm-check", "--n", str(n), "--k", str(k), "--in", str(member)],
                          spec=("verdict", True)))
            add(self._cli(f"gkm-check-in/perturbed/{label}",
                          ["gkm-check", "--n", str(n), "--k", str(k), "--in", str(bad)],
                          rule="gkm_violation", pin=False, data=(site, value, n)))
        for n, k, text in CLI_GKM_CLASSES:
            add(self._cli(f"gkm-check-class/Gr({k},{n})/{text}",
                          ["gkm-check", "--n", str(n), "--k", str(k), "--class", text],
                          spec=("verdict", True)))
        for n, k in ((4, 2), (5, 2)):
            add(self._cli(f"gkm-graph/Gr({k},{n})",
                          ["gkm-graph", "--n", str(n), "--k", str(k), "--json"]))
            add(self._cli(f"kl-verify/Gr({k},{n})", ["kl-verify", "--n", str(n), "--k", str(k)]))
        for suite in ("duality", "integrals", "positivity", "interpolation", "kl"):
            add(self._cli(f"verify/{suite}", ["verify", "--suite", suite]))
        # Malformed input, about 5% of the pool.
        add(self._cli("malformed/expression/trailing-op",
                      ["integrate", "--n", "4", "--k", "2", "--class", "s1 +* s2"],
                      rule="domain_error"))
        add(self._cli("malformed/expression/bad-token",
                      ["gkm-check", "--n", "4", "--k", "2", "--class", "s1 $ s2"],
                      rule="domain_error"))
        add(self._cli("malformed/outside-box/class",
                      ["class", "--n", "4", "--k", "2", "--shape", "3"], rule="domain_error"))
        add(self._cli("malformed/outside-box/lr",
                      ["lr", "--n", "5", "--k", "2", "--a", "1,1,1", "--b", "1"],
                      rule="domain_error"))
        for idx, body in enumerate(CLI_MISSING_KEYS):
            path = self.dir / f"missing{idx}.json"
            path.write_text(json.dumps(body), encoding="utf-8")
            missing = "-".join(sorted({"n", "k", "restrictions"} - set(body)))
            # At the seed commit these escape as a raw KeyError, so there is
            # no seed output to pin; the rule alone is the reference.
            add(self._cli(f"malformed/class-json/missing-{missing}",
                          ["gkm-check", "--n", "4", "--k", "2", "--in", str(path)],
                          rule="domain_error", pin=False))

    def _write_files(self):
        """Write the class files in a forked child, so the memo caches of the
        parent, which every request child inherits, stay empty."""
        eq = self.eq

        def write():
            for n, k, lam, mu, member, bad, site, value in self.class_files:
                shape = eq.GrassmannianShape(n, k)
                cls = eq.schubert_class(lam, shape) * eq.schubert_class(mu, shape)
                member.write_text(json.dumps(cls.to_json_dict()), encoding="utf-8")
                cls = cls + eq.EqClass(shape, {eq.PivotSubset(site): value})
                bad.write_text(json.dumps(cls.to_json_dict()), encoding="utf-8")
            return True

        run_forked(write)


WORKLOADS = {w.name: w for w in (ColdClasses, WarmCalculus, CliMix)}


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)
