import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import eqschub


def test_every_export_resolves():
    missing = [name for name in eqschub.__all__ if not hasattr(eqschub, name)]
    assert not missing
    assert len(set(eqschub.__all__)) == len(eqschub.__all__)


def test_every_traced_binding_resolves():
    # The benchmark's tracer replaces each (module, attribute path) of its
    # BOUNDARIES, reading the binding as vars(owner)[attr]; a name removed or
    # renamed here would break its traced runs.
    path = Path(__file__).parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for boundary, module, attr_path, _ in tracer.BOUNDARIES:
        owner = importlib.import_module(f"eqschub.{module}")
        *holders, attr = attr_path.split(".")
        for part in holders:
            owner = vars(owner).get(part)
        if owner is None or attr not in vars(owner):
            missing.append(boundary)
    assert not missing


def test_package_import_loads_no_introspection_modules():
    # A bare `eqschub` call is bounded by its import, and these modules
    # would be most of it; exact arithmetic stays in ints, so no number
    # tower module is loaded either.
    src = Path(__file__).parent.parent / "src"
    code = ("import sys, eqschub, eqschub.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', "
            "'fractions', 'decimal', 'numbers'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_one_public_name_per_job():
    # Tableaux are tuples of rows and double_schur returns its Polynomial;
    # Partition.of, PivotSubset.of and the Polynomial methods have no
    # module-level twins.
    import eqschub.dschur
    import eqschub.exactalg
    import eqschub.ytcomb

    assert not {"Tableau", "as_partition", "as_subset"} & set(vars(eqschub.ytcomb))
    assert "DoubleSchur" not in vars(eqschub.dschur)
    assert not {"substitute", "exact_divide"} & set(vars(eqschub.exactalg))
    assert callable(eqschub.exactalg.Polynomial.substitute)
    assert callable(eqschub.exactalg.Polynomial.exact_divide)


def test_exactalg_has_one_synthetic_division():
    # Weights and the linear forms of the Chevalley recursion share one
    # kernel, _divide: the weight method only checks its divisor and calls
    # it, and the form routine of the recursion is gone.
    import eqschub.exactalg
    import eqschub.gkmgrass

    assert "_divide_by_form" not in vars(eqschub.exactalg) | vars(eqschub.gkmgrass)
    method = eqschub.exactalg.Polynomial.divide_with_remainder
    assert set(method.__code__.co_names) == {"_weight_indices", "_divide"}
    assert eqschub.gkmgrass._divide is eqschub.exactalg._divide


def test_canonical_text_has_one_renderer():
    # Polynomial.__str__ and a class's JSON and text all go through
    # exactalg._render; the class passes one dict of factor texts across its
    # restrictions.  The per-term helper is gone.
    import eqschub.exactalg
    import eqschub.gkmgrass

    assert "_render_term" not in vars(eqschub.exactalg)
    assert eqschub.gkmgrass._render is eqschub.exactalg._render
    assert "_render" in eqschub.exactalg.Polynomial.__str__.__code__.co_names
    for method in (eqschub.gkmgrass.EqClass.to_json_dict, eqschub.gkmgrass.EqClass.__str__):
        assert "_texts" in method.__code__.co_names


def test_polynomial_text_has_one_reader():
    # Polynomial.parse matches whole terms; the token reader is only a test
    # oracle, in tests/oracles.py.
    import eqschub.exactalg

    assert not {"_tokenize_poly", "_POLY_TOKEN"} & set(vars(eqschub.exactalg))


def test_class_expressions_have_one_reader():
    # gkmgrass reads a class expression into a checked postfix program; the
    # descent reader that built classes as it read is only a test oracle.
    import eqschub.cli
    import eqschub.gkmgrass

    for module in (eqschub.cli, eqschub.gkmgrass):
        assert not {"_ExprParser", "_expr_tokens"} & set(vars(module))


def test_cli_holds_no_arithmetic():
    # The CLI parses input, checks shapes and prints; gkmgrass alone decides
    # how a class or a class expression is integrated.
    import eqschub.cli

    arithmetic = {"_bialternant", "_interpolate", "lcm", "prod", "_integral_by_points",
                  "_program_bound", "_CROSSOVER"}
    assert not arithmetic & set(vars(eqschub.cli))


def test_gkmgrass_holds_no_monomial_layout_names():
    # The packed monomial layout is a decision of exactalg alone; gkmgrass
    # reaches it only through Polynomial methods and exactalg's helpers.
    import eqschub.gkmgrass

    layout = {"_T", "_T_FIELDS", "_shift", "_exponents", "_shifted", "_chern_ratio"}
    assert not layout & set(vars(eqschub.gkmgrass))


def test_schur_type_values_have_one_enumerator():
    # Schubert and opposite restrictions sum flagged tableaux in dschur; the
    # search over excited moves is only a test oracle.
    import eqschub.gkmgrass

    assert "_excited_sum" not in vars(eqschub.gkmgrass)
