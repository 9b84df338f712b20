"""The package namespace is served lazily, and each CLI subcommand loads only
the modules it uses."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mapvir

SRC = Path(__file__).resolve().parent.parent / "src"

# every public name the package bound when it imported all its submodules
PUBLIC_NAMES = [
    "Algebra", "AlgebraElement", "AlgebraMismatch", "AnnihilatorReport",
    "ClassificationRecord", "Component", "EnvElement", "Functional",
    "GeneralizedEvalHandle", "GradeComponent", "Ideal", "ImproperIdeal",
    "InfiniteDimensionalAlgebra", "IntSeriesEvalHandle", "IntSeriesSpec",
    "IrreducibleQuotientHandle", "LieElement", "MapVirError", "MissingWindow",
    "ModeRangeError", "ModuleHandle", "NotLowering", "PrincipalIdeal", "QuasifiniteVerdict",
    "QuotientMap", "ReducibilityVerdict", "Scalar", "TensorHandle", "TrichotomyProfile",
    "UnsupportedKind", "VermaHandle", "VermaVector", "WeightTable", "WindowOverflow",
    "algebra_from_spec", "algebra_to_spec", "annihilator_support", "as_scalar", "bracket",
    "c_term", "central_scalar", "check_quasifinite", "check_verma_reducible",
    "classify_module", "d_term", "depth_one_vector", "eval_act", "format_element",
    "format_env", "format_lie_element", "format_monomial", "format_scalar",
    "functional_from_spec", "functional_to_spec", "grade_decompose", "height_hm",
    "highest_weight_vector", "ideal_closure", "ideal_intersection", "ideal_power",
    "ideal_product", "in_maximal_submodule", "int_series_act", "involute_functional",
    "largest_d0_ideal", "largest_v0_ideal", "local_quotient",
    "mode_max", "module_dims", "module_from_spec", "module_to_spec", "monomial_weight",
    "pairing_matrix", "parse_algebra_element", "parse_lie_element",
    "parse_scalar", "parse_word", "pbw_basis", "point_ideal", "quotient_algebra",
    "quotient_dims", "singular_vectors", "split_phi", "straighten", "trichotomy_profile",
    "verma_act", "weight_multiplicities",
]

CLI_MODULES = {"mapvir", "algebra", "cli", "errors", "liealg", "polyutil", "records", "scalars"}


def loaded_modules(code: str) -> set[str]:
    """The mapvir modules a fresh interpreter has loaded after running code."""
    script = (f"import json, sys\n{code}\n"
              "print(json.dumps(sorted(n for n in sys.modules if n.split('.')[0] == 'mapvir')))")
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout.splitlines()[-1])
    return {n.split(".", 1)[-1] for n in names}


def test_cli_import_loads_only_the_shared_modules():
    assert loaded_modules("import mapvir.cli") == CLI_MODULES


@pytest.mark.parametrize("argv, extra", [
    (["bracket", "d[2]*1", "d[-2]*1"], {"exprs"}),
    (["pbw", "--basis", "-n", "3"], {"pbw"}),
], ids=["bracket", "pbw-basis"])
def test_subcommand_loads_only_what_it_uses(argv, extra):
    assert loaded_modules(f"from mapvir.cli import main\nmain({argv!r})") == CLI_MODULES | extra


def test_verma_dims_loads_no_module_layer():
    loaded = loaded_modules("from mapvir.cli import main\nmain(['verma', '--dims', '-n', '3'])")
    assert "verma" in loaded
    assert not loaded & {"evalmod", "classify", "selftest"}


def test_startup_imports_no_dataclasses_or_typing():
    # -S keeps site out: a .pth file in site-packages can preload typing
    code = ("import sys\n"
            "import mapvir.cli, mapvir.verma, mapvir.evalmod, mapvir.classify, "
            "mapvir.selftest, mapvir.exprs\n"
            "print(sorted({'dataclasses', 'inspect', 'ast', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_name_loads_its_module_on_first_use():
    code = ("import mapvir\n"
            "assert 'quotient_dims' not in vars(mapvir)\n"
            "mapvir.quotient_dims\n"
            "assert 'quotient_dims' in vars(mapvir)")
    loaded = loaded_modules(code)
    assert "verma" in loaded
    assert not loaded & {"cli", "evalmod", "classify", "exprs", "selftest"}


def test_every_public_name_is_listed():
    assert sorted(mapvir.__all__) == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(mapvir))


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_a_public_name_is_its_defining_module_object(name):
    value = getattr(mapvir, name)
    owner = getattr(value, "__module__", "")
    if not owner.startswith("mapvir."):      # an alias such as Scalar = Fraction
        owner = "mapvir.scalars"
    assert getattr(sys.modules[owner], name) is value


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from mapvir import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)


def test_an_unknown_attribute_names_the_package():
    with pytest.raises(AttributeError, match="'mapvir'"):
        mapvir.no_such_name  # noqa: B018


def test_submodules_stay_reachable_as_attributes():
    assert mapvir.selftest.run_selftest is not None


def test_each_report_note_is_defined_once():
    from mapvir import classify, liealg

    defined: dict[str, list[str]] = {}
    for path in sorted((SRC / "mapvir").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = ([node.name] if isinstance(node, ast.FunctionDef) else
                       [t.id for t in node.targets if isinstance(t, ast.Name)]
                       if isinstance(node, ast.Assign) else [])
            for name in targets:
                defined.setdefault(name, []).append(path.stem)
    assert defined["CONVENTION_NOTE"] == ["liealg"]
    assert defined["basis_order_note"] == ["algebra"]
    assert classify.CONVENTION_NOTE is liealg.CONVENTION_NOTE
