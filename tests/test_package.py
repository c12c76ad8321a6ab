"""The package's public names, each resolving to its defining module's object, and its layering."""

import ast
import sys
import types
from pathlib import Path

import pytest

import enerscale

#: ``enerscale.__all__`` as published; a change to the public API edits this list.
PUBLIC_NAMES = [
    "AnnualSeries", "AtmosphereState", "CapacityRequirement", "CarbonCycleParams",
    "CarbonizationEstimate", "DataSourceDescriptor", "DomainError", "EJ_PER_YR_PER_GW",
    "EmptySlice", "EnerscaleError", "GapError",
    "IncompatibleUnits", "InvalidPeriod", "KayaComponents", "KindError", "ManifestEntry",
    "MissingYearOne", "NaturalCubicSpline", "ParseError", "Period", "PppMerRatio",
    "Quantity", "RatesRow", "ReconstructionResult", "ScalingEstimate",
    "Scenario", "SchemaError", "SeriesKind", "SteadyStateResult", "TooFewPoints",
    "Trajectory", "TrajectoryPoint", "Unit", "ValidationReport", "WealthSeries",
    "build_wealth", "calibrate_initial_wealth", "calibrate_initial_wealth_iterative",
    "carbon", "carbonization", "carbonization_series", "committed_curve",
    "committed_equilibrium", "cumulative_production", "datasets", "energy_productivity",
    "errors", "estimate_ppp_mer_ratio", "growth", "growth_rate", "halving_time",
    "historical_spinup_delta", "ingestion", "kaya_decomposition", "load_manifest",
    "load_series", "max_carbonization", "max_carbonization_coefficient", "ppp_to_mer",
    "projection", "rates_table", "reconstruct_production",
    "reconstruction", "required_clean_capacity", "run_scenario", "scaling",
    "scaling_series", "scaling_stats", "series", "slice_series", "spline_infill",
    "steady_state_commitment", "step_atmosphere", "to_unit", "units", "validate",
    "w1_sensitivity", "wealth_growth_series", "write_series",
]


def test_all_is_the_published_list():
    assert enerscale.__all__ == PUBLIC_NAMES


def test_every_public_name_is_its_submodules_object():
    for name in enerscale.__all__:
        value = getattr(enerscale, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"enerscale.{name}"], name
        else:
            home = "enerscale.units" if name == "EJ_PER_YR_PER_GW" else value.__module__
            assert value is getattr(sys.modules[home], name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from enerscale import *", namespace)
    assert set(enerscale.__all__) <= set(namespace)
    assert set(enerscale.__all__) <= set(dir(enerscale))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        enerscale.no_such_name


def test_every_error_type_is_raised():
    """Each ``EnerscaleError`` type in ``errors.py`` is raised somewhere in the package."""
    from enerscale import errors

    defined = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.EnerscaleError)
    }
    raised = set()
    for path in Path(enerscale.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    assert sorted(defined - raised) == []


def package_imports():
    """(importer, source module, name) for each ``from <package module> import name``.

    Every module under the package is parsed, and imports inside functions
    count as well as those at module level; ``from . import x`` imports x.
    """
    package = Path(enerscale.__file__).parent
    found = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                source = node.module or ""
            elif node.level == 0 and (node.module or "").startswith("enerscale."):
                source = node.module.removeprefix("enerscale.")
            else:
                continue
            for alias in node.names:
                found.add((path.stem, source or alias.name, alias.name))
    return found


def test_carbon_imports_only_the_base_modules():
    """The carbon-cycle parameters are shared by growth and projection, so load neither."""
    sources = {source for importer, source, _ in package_imports() if importer == "carbon"}
    assert sources == {"errors", "records", "units"}


def test_no_module_imports_another_modules_private_names():
    private = {
        (importer, source, name) for importer, source, name in package_imports()
        if name.startswith("_") and not name.startswith("__") and source != importer
    }
    assert private == set()


def gw_ej_factor_uses(source: str):
    """Line numbers in ``source`` that name ``EJ_PER_YR_PER_GW`` or write its value 0.031536.

    A name, an attribute or an imported name counts; a string does not.
    """
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and node.id == "EJ_PER_YR_PER_GW")
        or (isinstance(node, ast.Attribute) and node.attr == "EJ_PER_YR_PER_GW")
        or (isinstance(node, ast.ImportFrom)
            and any(alias.name == "EJ_PER_YR_PER_GW" for alias in node.names))
        or (isinstance(node, ast.Constant) and node.value == 0.031536)
    ]


def test_only_units_converts_between_gw_and_ej():
    """Every GW <-> EJ/yr conversion goes through ``units.to_unit``."""
    package = Path(enerscale.__file__).parent
    found = {path.stem: gw_ej_factor_uses(path.read_text(encoding="utf-8"))
             for path in package.glob("*.py") if path.stem != "units"}
    assert {stem: lines for stem, lines in found.items() if lines} == {}


@pytest.mark.parametrize("source, uses", [
    ("x = v * EJ_PER_YR_PER_GW", [1]),
    ("x = v / units.EJ_PER_YR_PER_GW", [1]),
    ("from .units import EJ_PER_YR_PER_GW as F", [1]),
    ("x = 1.0\ny = v * 0.031536", [2]),
    ("x = v * 0.0315360", [1]),
    ("names = 'EJ_PER_YR_PER_GW Quantity'", []),
    ("x = v * 0.0315", []),
])
def test_the_gw_ej_check_sees_the_name_and_the_literal(source, uses):
    assert gw_ej_factor_uses(source) == uses


def renaming_functions(source: str):
    """Names of the functions in ``source`` that only rename another.

    Such a function's body, after its docstring, is a single ``return g(...)``
    that passes its own parameters, in order, and nothing else. A decorated
    function is not one: a property or a cache changes how it is called.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.decorator_list:
            continue
        body = node.body
        if ast.get_docstring(node) is not None:
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        if not isinstance(call, ast.Call):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
        passed = [*call.args, *(k.value for k in call.keywords)]
        if all(isinstance(v, ast.Name) for v in passed) and [v.id for v in passed] == params:
            found.append(node.name)
    return found


def test_no_function_only_renames_another():
    package = Path(enerscale.__file__).parent
    found = [
        f"{path.stem}.{name}" for path in sorted(package.glob("*.py"))
        for name in renaming_functions(path.read_text(encoding="utf-8"))
    ]
    assert found == []


@pytest.mark.parametrize("source, renames", [
    ("def f(a, b):\n    \"Doc.\"\n    return g(a, b)", True),
    ("def f(a, b=None):\n    return g(a, b=b)", True),
    ("def f():\n    return g()", True),
    ("def f(a, b):\n    return g(b, a)", False),
    ("def f(a, b):\n    return g(a)", False),
    ("def f(a):\n    return g(a, 1)", False),
    ("def f(a):\n    return g(a.x)", False),
    ("def f(a):\n    x = 1\n    return g(a)", False),
    ("def f(a, *rest):\n    return g(a, *rest)", False),
    ("@property\ndef f(self):\n    return View(self)", False),
])
def test_the_rename_check_sees_only_a_bare_forwarding_call(source, renames):
    assert renaming_functions(source) == (["f"] if renames else [])
