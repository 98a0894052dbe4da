"""Acceptance suite: one test per shipped criterion, exact tolerances.

Every test prints a single [PASS]/[FAIL] line (visible with pytest -s) and
asserts the criterion, including its runtime budget where one is stated.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

from eqschub.dschur import double_schur
from eqschub.exactalg import Polynomial, t, u, x
from eqschub.gkmgrass import (
    EqClass,
    constant_class,
    gkm_check,
    integrate,
    kempf_laksov_class,
    opposite_schubert_class,
    positivity_certificate,
    projective_zeta,
    schubert_class,
    structure_constants,
    tangent_euler,
)
from eqschub.suites import suite_interpolation
from eqschub.ytcomb import GrassmannianShape, Partition, PivotSubset, ssyt_enumerate

from oracles import lr_coefficient, pieri_power_of_sigma1


def _report(num, description, failures, elapsed=None, budget=None):
    ok = not failures
    if budget is not None and elapsed is not None and elapsed >= budget:
        ok = False
        failures = list(failures) + [f"runtime {elapsed:.3f}s exceeded budget {budget}s"]
    suffix = f" ({elapsed:.3f}s)" if elapsed is not None else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}{suffix}")
    for message in failures[:10]:
        print(f"    {message}")
    assert ok, f"criterion {num}: {failures[:10]}"


def test_criterion_01_ssyt_count():
    expected_words = [
        (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3),
        (1, 3, 2), (1, 3, 3), (2, 2, 3), (2, 3, 3),
    ]
    ssyt_enumerate((2, 1), 3)  # warm up
    elapsed = min(
        (lambda t0: (ssyt_enumerate((2, 1), 3), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(5)
    )
    tabs = ssyt_enumerate((2, 1), 3)
    failures = []
    if len(tabs) != 8:
        failures.append(f"expected 8 tableaux, got {len(tabs)}")
    if [sum(tab, ()) for tab in tabs] != expected_words:
        failures.append("tableau list does not match the expected eight fillings")
    _report(1, "8 semistandard tableaux of shape (2,1), entries <= 3",
            failures, elapsed, budget=0.001)


def test_criterion_02_double_schur_golden():
    products = [
        (x(1) - u(1)) * (x(1) - u(2)) * (x(2) - u(1)),
        (x(1) - u(1)) * (x(1) - u(2)) * (x(3) - u(2)),
        (x(1) - u(1)) * (x(2) - u(3)) * (x(2) - u(1)),
        (x(1) - u(1)) * (x(2) - u(3)) * (x(3) - u(2)),
        (x(1) - u(1)) * (x(3) - u(4)) * (x(2) - u(1)),
        (x(1) - u(1)) * (x(3) - u(4)) * (x(3) - u(2)),
        (x(2) - u(2)) * (x(2) - u(3)) * (x(3) - u(2)),
        (x(2) - u(2)) * (x(3) - u(4)) * (x(3) - u(2)),
    ]
    expected = Polynomial.zero()
    for p in products:
        expected = expected + p
    failures = []
    if double_schur((2, 1), 3) != expected:
        failures.append("tableau sum differs from the eight longhand products")
    _report(2, "double Schur polynomial of (2,1) in three x variables", failures)


def test_criterion_03_interpolation():
    start = time.perf_counter()
    report = suite_interpolation()
    elapsed = time.perf_counter() - start
    _report(3, f"interpolation identities, n = 2..6 ({report['cases']} shapes)",
            report["failures"], elapsed, budget=30.0)


def test_criterion_04_projective_space():
    failures = []
    start = time.perf_counter()
    for n in range(2, 7):
        shape = GrassmannianShape(n, 1)
        zeta = projective_zeta(n)
        for i in range(1, n + 1):
            if zeta.restriction((i,)) != -t(i):
                failures.append(f"P^{n-1}: zeta at point {i}")
        relation = constant_class(shape, 1)
        for j in range(1, n + 1):
            relation = relation * (zeta + constant_class(shape, t(j)))
        if relation:
            failures.append(f"P^{n-1}: prod(zeta + t_j) nonzero")
        for i in range(1, n + 1):
            point = constant_class(shape, 1)
            for j in range(1, n + 1):
                if j != i:
                    point = point * (zeta + constant_class(shape, t(j)))
            I = PivotSubset((i,))
            if point != EqClass(shape, {I: tangent_euler(I, shape)}):
                failures.append(f"P^{n-1}: point class {i}")
        power = constant_class(shape, 1)
        for k in range(n):
            value = integrate(power)
            if value != (1 if k == n - 1 else 0):
                failures.append(f"P^{n-1}: integral of zeta^{k} = {value}")
            power = power * zeta
    elapsed = time.perf_counter() - start
    _report(4, "projective space: restrictions, relation, point classes, integrals",
            failures, elapsed)


def test_criterion_05_gkm_suite():
    failures = []
    start = time.perf_counter()
    cases = 0
    for n, k in ((4, 2), (6, 3)):
        shape = GrassmannianShape(n, k)
        lams = shape.partitions()
        for lam in lams:
            cases += 1
            if not gkm_check(schubert_class(lam, shape)).ok:
                failures.append(f"Gr({k},{n}): class {lam}")
        for i, lam in enumerate(lams):
            for mu in lams[i:]:
                cases += 1
                product = schubert_class(lam, shape) * schubert_class(mu, shape)
                if not gkm_check(product).ok:
                    failures.append(f"Gr({k},{n}): product {lam} * {mu}")
    elapsed = time.perf_counter() - start
    _report(5, f"divisibility on the moment graph, Gr(2,4) and Gr(3,6) ({cases} classes)",
            failures, elapsed, budget=60.0)


def test_criterion_06_structure_constants_positivity():
    failures = []
    start = time.perf_counter()
    pairs = 0
    for n, k in ((4, 2), (5, 2)):
        shape = GrassmannianShape(n, k)
        lams = shape.partitions()
        for i, lam in enumerate(lams):
            for mu in lams[i:]:
                pairs += 1
                expansion = structure_constants(lam, mu, shape)
                for nu, coeff in expansion.coeffs.items():
                    want = lam.weight + mu.weight - nu.weight
                    if not coeff.is_homogeneous() or coeff.degree() != want:
                        failures.append(f"Gr({k},{n}) {lam}*{mu} -> {nu}: bad degree")
                    cert = positivity_certificate(coeff, n)
                    if not cert.ok:
                        failures.append(f"Gr({k},{n}) {lam}*{mu} -> {nu}: {cert.witness}")
                # classical limit against the brute-force tableau count
                for nu in lams:
                    expected = (
                        lr_coefficient(lam.parts, mu.parts, nu.parts)
                        if nu.weight == lam.weight + mu.weight
                        else 0
                    )
                    got = expansion.coeffs.get(nu, Polynomial.zero()).constant_term()
                    if got != expected:
                        failures.append(
                            f"Gr({k},{n}) {lam}*{mu} -> {nu}: t=0 gives {got}, LR says {expected}"
                        )
    elapsed = time.perf_counter() - start
    _report(6, f"structure constants: positivity and LR limit ({pairs} pairs)",
            failures, elapsed, budget=120.0)


def test_criterion_07_four_lines():
    start = time.perf_counter()
    shape = GrassmannianShape(4, 2)
    sigma1 = schubert_class((1,), shape)
    value = integrate(sigma1 ** 4)
    elapsed = time.perf_counter() - start
    oracle = pieri_power_of_sigma1(4, 2, 2)
    failures = []
    if oracle != {(2, 2): 2}:
        failures.append(f"Pieri oracle gives {oracle}")
    if value != 2:
        failures.append(f"integral is {value}")
    _report(7, "lines meeting four general lines in space", failures, elapsed, budget=1.0)


def test_criterion_08_kempf_laksov():
    failures = []
    start = time.perf_counter()
    shapes = [(n, k) for n in range(2, 7) for k in range(1, n)] + [(7, 2), (7, 3)]
    cases = [(GrassmannianShape(n, k), lam)
             for n, k in shapes for lam in GrassmannianShape(n, k).partitions()]
    gr48 = GrassmannianShape(8, 4)
    cases += [(gr48, Partition(parts)) for parts in ((1,), (2, 1), (3, 2, 1), (2, 2, 1, 1))]
    for shape, lam in cases:
        if kempf_laksov_class(lam, shape) != schubert_class(lam, shape):
            failures.append(f"Gr({shape.k},{shape.n}): {lam}")
    elapsed = time.perf_counter() - start
    _report(8, f"determinantal classes equal Schubert classes ({len(cases)} shapes)",
            failures, elapsed, budget=30.0)


def test_criterion_09_duality():
    failures = []
    start = time.perf_counter()
    for n, k in ((3, 1), (4, 2), (5, 2), (6, 3), (7, 3)):
        shape = GrassmannianShape(n, k)
        for lam in shape.partitions():
            for mu in shape.partitions():
                value = integrate(
                    schubert_class(lam, shape) * opposite_schubert_class(mu, shape)
                )
                if value != (1 if lam == mu else 0):
                    failures.append(f"Gr({k},{n}) <{lam},{mu}> = {value}")
    elapsed = time.perf_counter() - start
    _report(9, "duality pairing is the Kronecker delta on Gr(1,3), Gr(2,4), Gr(2,5), "
            "Gr(3,6) and Gr(3,7)",
            failures, elapsed)


# The sha256 of the whole `eqschub verify --json` stdout, all six suites.
VERIFY_JSON_SHA256 = "3722d779a32767330a59c48a4f5a1e56d6aa66b733c1a7b80121116ffacaf2d7"


def test_criterion_10_determinism():
    start = time.perf_counter()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    outputs = []
    for run in ("first", "second"):
        result = subprocess.run(
            [sys.executable, "-m", "eqschub", "verify", "--json"],
            capture_output=True,
            env=env,
            check=False,
        )
        outputs.append(result)
    failures = []
    for run, result in zip(("first", "second"), outputs):
        if result.returncode != 0:
            failures.append(f"verify {run} run exited {result.returncode}")
    if outputs[0].stdout != outputs[1].stdout:
        failures.append("stdout differs between the two runs")
    digest = hashlib.sha256(outputs[0].stdout).hexdigest()
    if digest != VERIFY_JSON_SHA256:
        failures.append(f"verify --json stdout hashes to {digest}, not {VERIFY_JSON_SHA256}")
    if not failures:
        report = json.loads(outputs[0].stdout)
        if not report["ok"]:
            failures.append("verify reported failures")
        if len(report["suites"]) != 6:
            failures.append("verify did not run all six suites")
    elapsed = time.perf_counter() - start
    _report(10, "full verify output is byte-identical across runs and to its pinned hash",
            failures, elapsed)
