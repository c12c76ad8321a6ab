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
    "carbon", "carbonization", "committed_curve",
    "committed_equilibrium", "cumulative_production", "datasets",
    "errors", "estimate_ppp_mer_ratio", "growth", "growth_rate", "halving_time",
    "historical_spinup_delta", "ingestion", "kaya_decomposition", "load_manifest",
    "load_series", "max_carbonization", "max_carbonization_coefficient", "ppp_to_mer",
    "projection", "rates_table", "reconstruct_production",
    "reconstruction", "required_clean_capacity", "run_scenario", "scaling",
    "scaling_series", "scaling_stats", "series", "spline_infill",
    "steady_state_commitment", "step_atmosphere", "to_unit", "units", "validate",
    "w1_sensitivity", "write_series",
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


TEXT_TYPES = {"str", "bytes", "bytearray"}
INT_TYPES = {"int", "bool"}


def type_tests(source: str, types: set[str]):
    """Line numbers in ``source`` of an ``isinstance`` test against a type named in
    ``types``, alone or in a tuple of types."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        classes = node.args[1]
        names = classes.elts if isinstance(classes, ast.Tuple) else [classes]
        if any(isinstance(n, ast.Name) and n.id in types for n in names):
            found.append(node.lineno)
    return found


def package_type_tests(types: set[str]):
    """``type_tests`` of each module under ``src/enerscale/`` that has one."""
    package = Path(enerscale.__file__).parent
    found = {path.stem: type_tests(path.read_text(encoding="utf-8"), types)
             for path in package.glob("*.py")}
    return {stem: lines for stem, lines in found.items() if lines}


def test_only_units_decides_what_a_number_is():
    """A value is a number when ``units.finite`` says so, not when it is not text."""
    assert package_type_tests(TEXT_TYPES) == {}


@pytest.mark.parametrize("source, lines", [
    ("ok = isinstance(v, str)", [1]),
    ("x = 1\nok = isinstance(v, (int, bytes))", [2]),
    ("ok = any(isinstance(v, (str, bytes, bytearray)) for v in vs)", [1]),
    ("ok = isinstance(v, bytearray)", [1]),
    ("ok = isinstance(v, (int, float))", []),
    ("ok = isinstance(v, Unit)", []),
    ("names = 'isinstance(v, str)'", []),
])
def test_the_text_type_check_sees_each_text_type(source, lines):
    assert type_tests(source, TEXT_TYPES) == lines


def test_only_series_decides_what_a_year_is():
    """A value is a year when ``series.integral`` says so, not when it is an int and not a
    bool."""
    assert package_type_tests(INT_TYPES) == {}


@pytest.mark.parametrize("source, lines", [
    ("ok = isinstance(v, int)", [1]),
    ("ok = not isinstance(v, bool)", [1]),
    ("x = 1\nok = isinstance(v, (str, bool))", [2]),
    ("ok = isinstance(y, int) and not isinstance(y, bool)", [1, 1]),
    ("ok = isinstance(v, (float, complex))", []),
    ("ok = type(v) is int", []),
    ("names = 'isinstance(v, int)'", []),
])
def test_the_int_type_check_sees_int_and_bool(source, lines):
    assert type_tests(source, INT_TYPES) == lines


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


#: The series-layer reads that the analysis modules make only through their readers.
SERIES_READS = {"aligned_values", "value_at", "has_year"}


def series_readers(source: str) -> set[str]:
    """Names of the top-level functions (or classes) in ``source`` that call a
    ``SERIES_READS`` name, as ``f(...)`` or ``x.f(...)``, anywhere in their body."""
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in SERIES_READS:
                    found.add(getattr(top, "name", "<module>"))
    return found


def test_analysis_modules_read_series_only_through_their_readers():
    """A period is read through ``series.period_values``; beyond it only the
    scaling series aligns two series, and only year 1's production is looked up."""
    root = Path(enerscale.__file__).parent
    readers = {
        module: series_readers((root / module).read_text(encoding="utf-8"))
        for module in ("growth.py", "scaling.py", "reconstruction.py")
    }
    assert readers == {
        "growth.py": set(),
        "scaling.py": {"scaling_series"},
        "reconstruction.py": {"_year_one_production"},
    }


@pytest.mark.parametrize("source, readers", [
    ("def _window(s, p):\n    return aligned_values(s, s, p)", {"_window"}),
    ("def rate(s, p):\n    return s.value_at(p.end_year)", {"rate"}),
    ("def rate(s, p):\n    def inner():\n        return s.has_year(1)\n    return inner()",
     {"rate"}),
    ("class Row:\n    def f(self, s, p):\n        return aligned_values(s, p)", {"Row"}),
    ("x = s.has_year(1)", {"<module>"}),
    ("def rate(s, p):\n    return _window(s, p)", set()),
    ("def rate(s):\n    return s.values[0]", set()),
])
def test_the_series_read_check_names_each_caller(source, readers):
    assert series_readers(source) == readers


PACKAGE = Path(enerscale.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Defaulted parameters that no code outside the tests sets, each with the reason it
#: stays a parameter. Any other such parameter is a constant.
UNSET_KEPT = {
    "carbon.CarbonCycleParams(kappa_a)": "a model parameter, recorded in project manifests",
    "carbon.CarbonCycleParams(preindustrial)": "a model parameter, recorded in project"
    " manifests",
    "carbon.CarbonCycleParams(allow_sigma_out_of_band)": "a model parameter; runs with a"
    " sigma outside the observed band need it",
    "scaling.w1_sensitivity(p)": "the period of a period statistic, as scaling_stats' is;"
    " the window-parity cases drive it across the record's edges",
    "projection.step_atmosphere(params)": "the criterion 07, 09 and 10 tests call it",
    "projection.step_atmosphere(dt)": "the criterion 07, 09 and 10 tests call it",
    "projection.committed_equilibrium(params)": "the criterion 07, 09 and 10 tests call it",
    "projection.max_carbonization(params)": "the criterion 07, 09 and 10 tests call it",
    "ingestion.json_field(default)": "load_manifest and cli._tables_inputs set it through"
    " functools.partial",
}


def defaulted_parameters(source: str, module: str) -> dict:
    """``{"module.f(param)": (called name, position, param)}`` for each defaulted
    parameter of a function, a method or a class's ``__init__`` in ``source``.

    A function or a method is called by its own name, and ``__init__`` by its
    class's name (shown as ``module.Class(param)``). A method's positions do
    not count ``self``; a keyword-only parameter has no position.
    """
    found = {}

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = [*a.posonlyargs, *a.args]
                if owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list
                ):
                    positional = positional[1:]
                if owner is None:
                    called, shown = node.name, f"{module}.{node.name}"
                elif node.name == "__init__":
                    called, shown = owner.name, f"{module}.{owner.name}"
                else:
                    called, shown = node.name, f"{module}.{owner.name}.{node.name}"
                first = len(positional) - len(a.defaults)
                for i, p in enumerate(positional[first:], first):
                    found[f"{shown}({p.arg})"] = (called, i, p.arg)
                for p, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        found[f"{shown}({p.arg})"] = (called, None, p.arg)
                visit(node.body, None)

    visit(ast.parse(source).body, None)
    return found


def passed_arguments(source: str) -> set:
    """``(called name, position or keyword)`` for each argument of each call in
    ``source``, ``f(...)`` or ``x.f(...)``; a ``*`` or ``**`` argument is ``"*"``
    or ``"**"``, which may set any parameter of that name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            for i, arg in enumerate(node.args):
                found.add((name, "*" if isinstance(arg, ast.Starred) else i))
            for keyword in node.keywords:
                found.add((name, "**" if keyword.arg is None else keyword.arg))
    return found


def unset_options(modules: dict, callers) -> list[str]:
    """The defaulted parameters of ``modules`` (name -> source) that no call in
    ``callers`` (sources) sets, by position or by keyword, matching calls by name."""
    params = {}
    for module, source in modules.items():
        params.update(defaulted_parameters(source, module))
    passed = set().union(*map(passed_arguments, callers))
    return sorted(
        shown for shown, (called, position, name) in params.items()
        if not {(called, position), (called, name), (called, "*"), (called, "**")} & passed
    )


def test_every_defaulted_parameter_is_set_outside_the_tests():
    """A value that nothing but a test sets is a constant, unless ``UNSET_KEPT`` says why not.

    The callers are the package and the benchmark's scripts, read as text."""
    modules = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    callers = [*modules.values(),
               *(path.read_text(encoding="utf-8") for path in PERFBENCH.glob("*.py"))]
    unset = unset_options(modules, callers)
    unexplained = [name for name in unset if name not in UNSET_KEPT]
    assert not unexplained, (
        f"nothing outside the tests sets {', '.join(unexplained)}; make each a constant"
        " or give its reason in UNSET_KEPT"
    )
    assert unset == sorted(UNSET_KEPT)


@pytest.mark.parametrize("source, unset", [
    ("def f(a, b=1):\n    pass\nf(0)", ["m.f(b)"]),
    ("def f(a, b=1):\n    pass\nf(0, 2)", []),
    ("def f(a, b=1):\n    pass\nx.f(a=0, b=2)", []),
    ("def f(a, *, b=1):\n    pass\nf(0, 2)", ["m.f(b)"]),
    ("def f(a, *, b=1):\n    pass\nf(0, b=2)", []),
    ("def f(a=1):\n    pass\ng(a=2)", ["m.f(a)"]),
    ("def f(a=1):\n    pass\nf(*rest)", []),
    ("def f(a=1):\n    pass\nf(**options)", []),
    ("class C:\n    def __init__(self, a=1):\n        pass\nC(2)", []),
    ("class C:\n    def __init__(self, a=1):\n        pass\nC()", ["m.C(a)"]),
    ("class C:\n    def m(self, a, b=1):\n        pass\nc.m(0)", ["m.C.m(b)"]),
    ("class C:\n    def m(self, a, b=1):\n        pass\nc.m(0, 2)", []),
    ("class C:\n    @staticmethod\n    def m(a, b=1):\n        pass\nC.m(0, 2)", []),
    ("def f():\n    def g(a=1):\n        pass\n    return g()", ["m.g(a)"]),
])
def test_the_unset_option_check_sees_positions_keywords_and_classes(source, unset):
    assert unset_options({"m": source}, [source]) == unset


def test_the_spline_cubic_is_written_once():
    """``NaturalCubicSpline._segment`` is the one copy of the cubic; the infill and each
    query run go through it."""
    counts = {path.name: path.read_text(encoding="utf-8").count("(a**3 - a)")
              for path in PACKAGE.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {"reconstruction.py": 1}
