"""Batch verification sweeps behind the ``verify`` subcommand.

Each suite walks a fixed parameter range in a fixed order and returns a
deterministic report, so the output is identical from run to run.
"""

from __future__ import annotations

from math import prod

from .exactalg import Polynomial
from .gkmgrass import (
    EqClass,
    constant_class,
    euler_class,
    gkm_check,
    integrate,
    kl_mismatches,
    opposite_schubert_class,
    positivity_certificate,
    projective_zeta,
    schubert_class,
    structure_constants,
    tangent_euler,
)
from .ytcomb import GrassmannianShape, subset_to_partition
from .dschur import _restricted_tables

SUITE_NAMES = ("interpolation", "gkm", "positivity", "duality", "kl", "integrals")


def suite_interpolation() -> dict:
    """Diagonal product formula and vanishing of restricted double Schurs,
    checked one point's table at a time and reported in partition order."""
    failures = []
    cases = 0
    for n in range(2, 7):
        for k in range(1, n):
            shape = GrassmannianShape(n, k)
            lams = shape.partitions()
            cases += len(lams)
            found = []
            for pivots, table in _restricted_tables(shape):
                mu = subset_to_partition(pivots, shape)
                at, expected = lams.index(mu), euler_class(pivots, shape)
                if (diagonal := table.get(mu.parts, Polynomial.zero())) != expected:
                    found.append(((at, -1), f"Gr({k},{n}) lam={mu}: diagonal {diagonal} != {expected}"))
                found += [((a, at), f"Gr({k},{n}) lam={lam} mu={mu}: expected 0, got {value}")
                          for a, lam in enumerate(lams)
                          if (value := table.get(lam.parts)) and not mu.contains(lam)]
            failures += [text for _, text in sorted(found)]
    return {"name": "interpolation", "cases": cases, "failures": failures}


def suite_gkm() -> dict:
    """Moment-graph divisibility for Schubert classes and their pairwise products."""
    failures = []
    cases = 0
    for n, k in ((4, 2), (6, 3)):
        shape = GrassmannianShape(n, k)
        lams = shape.partitions()
        pairs = [(lam, None) for lam in lams]
        pairs += [(lam, mu) for i, lam in enumerate(lams) for mu in lams[i:]]
        for lam, mu in pairs:
            cases += 1
            cls = schubert_class(lam, shape)
            label = f"Gr({k},{n}) {lam}"
            if mu is not None:
                cls = cls * schubert_class(mu, shape)
                label += f"*{mu}"
            failures.extend(f"{label}: {v}" for v in gkm_check(cls).violations)
    return {"name": "gkm", "cases": cases, "failures": failures}


def suite_positivity() -> dict:
    """Structure constants: degree bookkeeping plus positivity certificates."""
    failures = []
    cases = 0
    for n, k in ((4, 2), (5, 2)):
        shape = GrassmannianShape(n, k)
        lams = shape.partitions()
        for i, lam in enumerate(lams):
            for mu in lams[i:]:
                cases += 1
                expansion = structure_constants(lam, mu, shape)
                label = f"Gr({k},{n}) {lam}*{mu}"
                for nu, coeff in expansion.coeffs.items():
                    want = lam.weight + mu.weight - nu.weight
                    if want < 0:
                        failures.append(f"{label} -> {nu}: weight above the product degree")
                        continue
                    if not coeff.is_homogeneous() or coeff.degree() != want:
                        failures.append(
                            f"{label} -> {nu}: {coeff} not homogeneous of degree {want}"
                        )
                    cert = positivity_certificate(coeff, n)
                    if not cert.ok:
                        failures.append(f"{label} -> {nu}: {cert.witness}")
    return {"name": "positivity", "cases": cases, "failures": failures}


def suite_duality() -> dict:
    """Pairing of Schubert against opposite classes is the Kronecker delta."""
    failures = []
    cases = 0
    for n, k in ((3, 1), (4, 2)):
        shape = GrassmannianShape(n, k)
        for lam in shape.partitions():
            for mu in shape.partitions():
                cases += 1
                value = integrate(schubert_class(lam, shape) * opposite_schubert_class(mu, shape))
                expected = 1 if lam == mu else 0
                if value != expected:
                    failures.append(f"Gr({k},{n}) <{lam},{mu}>: got {value}, want {expected}")
    return {"name": "duality", "cases": cases, "failures": failures}


def suite_kl() -> dict:
    """Determinantal classes agree with Schubert classes on whole boxes."""
    shapes = [GrassmannianShape(n, k) for n, k in ((4, 2), (5, 2), (6, 3))]
    failures = [f"Gr({s.k},{s.n}) {lam}: determinant disagrees"
                for s in shapes for lam in kl_mismatches(s)]
    return {"name": "kl", "cases": sum(len(s.partitions()) for s in shapes), "failures": failures}


def suite_integrals() -> dict:
    """Projective-space relations and the four-lines enumerative integral."""
    failures = []
    cases = 0
    for n in range(2, 7):
        cases += 1
        shape = GrassmannianShape(n, 1)
        zeta = projective_zeta(n)
        for idx, I in enumerate(shape.subsets(), start=1):
            if zeta.restriction(I) != -Polynomial.variable("t", idx):
                failures.append(f"P^{n-1}: zeta at p_{idx} is {zeta.restriction(I)}")
        one = constant_class(shape, 1)
        factors = [zeta + constant_class(shape, Polynomial.variable("t", j))
                   for j in range(1, n + 1)]
        if prod(factors, start=one):
            failures.append(f"P^{n-1}: prod(zeta + t_j) is not zero")
        for idx, I in enumerate(shape.subsets(), start=1):
            point = prod(factors[: idx - 1] + factors[idx:], start=one)
            if point != EqClass(shape, {I: tangent_euler(I, shape)}):
                failures.append(f"P^{n-1}: point class at p_{idx} mismatch")
        for exp in range(0, n):
            value = integrate(zeta ** exp)
            expected = 1 if exp == n - 1 else 0
            if value != expected:
                failures.append(f"P^{n-1}: integral of zeta^{exp} = {value}, want {expected}")
    cases += 1
    shape = GrassmannianShape(4, 2)
    sigma1 = schubert_class((1,), shape)
    value = integrate(sigma1 * sigma1 * sigma1 * sigma1)
    if value != 2:
        failures.append(f"Gr(2,4): integral of sigma1^4 = {value}, want 2")
    return {"name": "integrals", "cases": cases, "failures": failures}


_SUITES = {
    "interpolation": suite_interpolation,
    "gkm": suite_gkm,
    "positivity": suite_positivity,
    "duality": suite_duality,
    "kl": suite_kl,
    "integrals": suite_integrals,
}


def run_suites(names=None) -> dict:
    """Run the named suites (all of them by default) and merge the reports."""
    if names is None:
        names = SUITE_NAMES
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    reports = []
    for name in SUITE_NAMES:
        if name in names:
            report = _SUITES[name]()
            report["ok"] = not report["failures"]
            reports.append(report)
    return {"ok": all(r["ok"] for r in reports), "suites": reports}
