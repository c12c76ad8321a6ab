"""The package's public names: a fixed list, each resolving to its defining module's object."""

import sys
import types

import pytest

import enerscale

#: ``enerscale.__all__`` as published; a change to the public API edits this list.
PUBLIC_NAMES = [
    "AnnualSeries", "AtmosphereState", "CapacityRequirement", "CarbonCycleParams",
    "CarbonizationEstimate", "DataSourceDescriptor", "DomainError", "EJ_PER_YR_PER_GW",
    "EmptySlice", "EnerscaleError", "GapError", "GrowthMethod",
    "IncompatibleUnits", "InvalidPeriod", "KayaComponents", "KindError", "ManifestEntry",
    "MissingYearOne", "NaturalCubicSpline", "ParseError", "Period", "PppMerRatio",
    "Quantity", "RatesRow", "RatioStats", "ReconstructionResult", "ScalingEstimate",
    "Scenario", "SchemaError", "SeriesKind", "SteadyStateResult", "TooFewPoints",
    "Trajectory", "TrajectoryPoint", "Unit", "ValidationReport", "WealthSeries",
    "build_wealth", "calibrate_initial_wealth", "calibrate_initial_wealth_iterative",
    "carbon", "carbonization", "carbonization_series", "committed_curve",
    "committed_equilibrium", "cumulative_production", "datasets", "energy_productivity",
    "errors", "estimate_ppp_mer_ratio", "growth", "growth_rate", "halving_time",
    "historical_spinup_delta", "ingestion", "kaya_decomposition", "load_manifest",
    "load_series", "max_carbonization", "max_carbonization_coefficient", "ppp_to_mer",
    "production_consumption_ratio", "projection", "rates_table", "reconstruct_production",
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
    import ast
    from pathlib import Path

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
