"""Span tracing of eqschub's module boundaries, installed from outside.

The package is not changed: `install()` replaces every module attribute and
class attribute that binds one of the traced functions with a wrapper, and
`uninstall()` puts the originals back.  Modules import names directly
(`gkmgrass.restrict_schur`, `suites.schubert_class`), so each binding is
replaced, not only the defining one.

Every boundary except `exactalg.mul` records a span: name, start, end,
thread and parent span.  `Polynomial.__mul__` runs about 6.4 million times
per `cold_classes` pass, so it is counted and timed per thread without a
span record; its time still counts as child time of the enclosing span.

A span opened on a thread with no open span of its own (a `verify` pool
thread) takes as parent the innermost span open on the request thread.
Self time is the span's duration minus the union of its children's
intervals, which is not their sum when children on two pool threads overlap.
"""

from __future__ import annotations

import math
import sys
import threading
from time import perf_counter

MUL = "exactalg.mul"

# (boundary, module, attribute path, extras).  A dotted attribute path names
# a method; extras name the counts the boundary reports besides calls/self_s.
BOUNDARIES = (
    ("exactalg.substitute", "exactalg", "Polynomial.substitute", ("terms_in",)),
    ("exactalg.divide", "exactalg", "Polynomial.divide_with_remainder",
     ("terms_in", "exact_ratio")),
    ("exactalg.ratf_sum", "exactalg", "ratf_sum", ()),
    ("exactalg.parse", "exactalg", "Polynomial.parse", ()),
    ("exactalg.render", "exactalg", "Polynomial.__str__", ()),
    ("ytcomb.ssyt_enumerate", "ytcomb", "ssyt_enumerate", ("tableaux",)),
    ("ytcomb.bruhat_leq", "ytcomb", "bruhat_leq", ()),
    ("dschur.double_schur", "dschur", "double_schur", ("hit_ratio",)),
    ("dschur.restrict_schur", "dschur", "restrict_schur", ("zero_ratio",)),
    ("gkmgrass.schubert_class", "gkmgrass", "schubert_class", ("hit_ratio",)),
    ("gkmgrass.opposite_schubert_class", "gkmgrass", "opposite_schubert_class", ()),
    ("gkmgrass.class_mul", "gkmgrass", "EqClass.__mul__", ()),
    ("gkmgrass.gkm_check", "gkmgrass", "gkm_check", ("edges", "violation_ratio")),
    ("gkmgrass.expand_in_basis", "gkmgrass", "expand_in_basis", ("terms",)),
    ("gkmgrass.positivity_certificate", "gkmgrass", "positivity_certificate", ()),
    ("gkmgrass.integrate", "gkmgrass", "integrate", ()),
    ("gkmgrass.kempf_laksov_class", "gkmgrass", "kempf_laksov_class", ()),
    ("suites.run_suites", "suites", "run_suites", ()),
    ("cli.main", "cli", "main", ()),
)

def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = [f"{MUL}.calls", f"{MUL}.self_s", f"{MUL}.term_pairs"]
    for boundary, _, _, extras in BOUNDARIES:
        names += [f"{boundary}.calls", f"{boundary}.self_s"]
        names += [f"{boundary}.{extra}" for extra in extras]
    return names + ["trace.overhead_ratio"]


def unit(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def _extras(boundary: str, args, result, kids) -> tuple:
    """Extra counts for one returned call, () for a boundary without any.
    A ratio is stored as its 0/1 numerator; the denominator is returned calls."""
    if boundary == "exactalg.substitute":
        return (len(args[0].items()),)
    if boundary == "exactalg.divide":
        return (len(args[0].items()), 0 if result[1] else 1)
    if boundary == "ytcomb.ssyt_enumerate":
        return (len(result),)
    if boundary == "dschur.double_schur":
        return (0 if "ytcomb.ssyt_enumerate" in kids else 1,)
    if boundary == "dschur.restrict_schur":
        return (0 if result else 1,)
    if boundary == "gkmgrass.schubert_class":
        return (0 if "dschur.restrict_schur" in kids else 1,)
    if boundary == "gkmgrass.gkm_check":
        shape = args[0].shape
        edges = math.comb(shape.n, shape.k) * shape.k * (shape.n - shape.k) // 2
        return (edges, 0 if result.ok else 1)
    if boundary == "gkmgrass.expand_in_basis":
        return (len(result.coeffs),)
    return ()


class _Frame:
    __slots__ = ("name", "sid", "parent", "start", "leaf", "intervals", "kids", "thread")

    def __init__(self, name, sid, parent, start, thread):
        self.name = name
        self.sid = sid
        self.parent = parent
        self.start = start
        self.leaf = 0.0  # same-thread exactalg.mul time, disjoint from intervals
        self.intervals = []
        self.kids = set()
        self.thread = thread


def _union(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


class _ThreadState:
    __slots__ = ("stack", "totals", "spans", "mul")

    def __init__(self):
        self.stack = []
        self.totals = {}  # boundary -> [calls, self_s, returned, extra...]
        self.spans = []
        self.mul = [0, 0.0, 0]  # calls, seconds, term pairs


class Tracer:
    """Holds the spans and counts of the request in flight, per thread."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._request_stack = None
        self._next_sid = 0
        self._originals = []

    # ----------------------------------------------------------- thread state

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def _sid(self) -> int:
        with self._lock:
            self._next_sid += 1
            return self._next_sid

    def _open(self, name):
        """Push a frame; None when no request is in flight."""
        st = self._state()
        if st.stack:
            parent = st.stack[-1]
        else:
            req = self._request_stack
            if not req:
                return None, None
            parent = req[-1]
        frame = _Frame(name, self._sid(), parent, perf_counter(), threading.get_ident())
        st.stack.append(frame)
        return st, frame

    def _close(self, st, frame, extras):
        end = perf_counter()
        st.stack.pop()
        covered = frame.leaf + _union(frame.intervals)
        self_s = (end - frame.start) - covered
        parent = frame.parent
        parent.intervals.append((frame.start, end))  # list.append is atomic
        parent.kids.add(frame.name)
        row = st.totals.get(frame.name)
        if row is None:
            row = st.totals[frame.name] = [0, 0.0, 0, 0, 0]
        row[0] += 1
        row[1] += self_s
        if extras is not None:
            row[2] += 1
            for i, value in enumerate(extras):
                row[3 + i] += value
        st.spans.append((frame.sid, parent.sid, frame.name, frame.thread,
                         frame.start, end, self_s))

    # --------------------------------------------------------------- requests

    def begin_request(self):
        """Open the root span of one request on the calling thread."""
        st = self._state()
        root = _Frame("request", self._sid(), None, perf_counter(), threading.get_ident())
        st.stack.append(root)
        self._request_stack = st.stack
        return root

    def end_request(self, root) -> dict:
        """Close the root span and hand over everything recorded under it."""
        end = perf_counter()
        self._request_stack = None
        self._state().stack.pop()
        totals: dict = {}
        spans = [(root.sid, None, "request", root.thread, root.start, end,
                  (end - root.start) - root.leaf - _union(root.intervals))]
        mul = [0, 0.0, 0]
        for st in self._states:
            for name, row in st.totals.items():
                acc = totals.setdefault(name, [0] * len(row))
                for i, value in enumerate(row):
                    acc[i] += value
            spans.extend(st.spans)
            for i in range(3):
                mul[i] += st.mul[i]
            st.totals = {}
            st.spans = []
            st.mul = [0, 0.0, 0]
        totals[MUL] = mul
        return {"totals": totals, "spans": spans}

    def reset(self):
        """Start empty in a forked child, dropping the state copied from the parent."""
        self._local = threading.local()
        self._states = []
        self._request_stack = None

    # --------------------------------------------------------------- wrappers

    def _wrap(self, boundary, fn):
        tracer = self

        def traced(*args, **kwargs):
            st, frame = tracer._open(boundary)
            if frame is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(st, frame, None)
                raise
            tracer._close(st, frame, _extras(boundary, args, result, frame.kids))
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_mul(self, fn):
        tracer = self

        def traced_mul(a, b):
            st = tracer._state()
            if st.stack:
                parent = st.stack[-1]
                foreign = False
            else:
                req = tracer._request_stack
                if not req:
                    return fn(a, b)
                parent = req[-1]
                foreign = True
            start = perf_counter()
            result = fn(a, b)
            end = perf_counter()
            if result is NotImplemented:  # Python retries with the other operand
                return result
            if foreign:
                parent.intervals.append((start, end))
            else:
                parent.leaf += end - start
            mul = st.mul
            mul[0] += 1
            mul[1] += end - start
            items = getattr(b, "items", None)
            mul[2] += len(a.items()) * (len(items()) if items is not None else (1 if b else 0))
            return result

        traced_mul.__wrapped__ = fn
        return traced_mul

    def install(self, package):
        """Replace every binding of each traced function in the package."""
        wrappers = {}
        for boundary, module, path, _ in BOUNDARIES:
            owner = getattr(package, module)
            for part in path.split(".")[:-1]:
                owner = getattr(owner, part)
            attr = path.split(".")[-1]
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrappers[id(fn)] = (fn, self._wrap(boundary, fn))
        poly = package.exactalg.Polynomial
        mul = vars(poly)["__mul__"]
        wrappers[id(mul)] = (mul, self._wrap_mul(mul))
        classes = [package.exactalg.Polynomial, package.gkmgrass.EqClass]
        for holder in _package_modules(package) + classes:
            for attr, value in list(vars(holder).items()):
                fn = value.__func__ if isinstance(value, classmethod) else value
                hit = wrappers.get(id(fn))
                if hit is None or hit[0] is not fn:
                    continue
                new = classmethod(hit[1]) if isinstance(value, classmethod) else hit[1]
                self._originals.append((holder, attr, value))
                setattr(holder, attr, new)

    def uninstall(self):
        for holder, attr, value in reversed(self._originals):
            setattr(holder, attr, value)
        self._originals = []


def _package_modules(package) -> list:
    prefix = package.__name__
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == prefix or name.startswith(prefix + "."))]


def summarize(totals: dict, passes: int) -> dict:
    """Per-pass layer metrics from the merged totals of every traced request."""
    out = {}
    calls, seconds, pairs = totals.get(MUL, [0, 0.0, 0])
    out[f"{MUL}.calls"] = calls / passes
    out[f"{MUL}.self_s"] = seconds / passes
    out[f"{MUL}.term_pairs"] = pairs / passes
    for boundary, _, _, extras in BOUNDARIES:
        row = totals.get(boundary, [0, 0.0, 0, 0, 0])
        out[f"{boundary}.calls"] = row[0] / passes
        out[f"{boundary}.self_s"] = row[1] / passes
        for i, extra in enumerate(extras):
            value = row[3 + i]
            if extra.endswith("_ratio"):
                out[f"{boundary}.{extra}"] = value / row[2] if row[2] else 0.0
            else:
                out[f"{boundary}.{extra}"] = value / passes
    return out
