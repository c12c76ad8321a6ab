"""enerscale: energy-economy-climate toolkit built on the cumulative-production scaling.

Reconstructs world cumulative economic production from the historical GDP
record, estimates the scaling between current primary energy consumption and
that integral, reproduces the associated growth and emissions identities, and
projects committed CO2 concentrations under configurable scenarios.

``import enerscale`` loads only the error types; every other public name
(and each submodule) is imported on first access (PEP 562), so a process
compiles and runs only the modules it uses.
"""

import importlib

from . import errors
from .errors import (
    DomainError,
    EmptySlice,
    EnerscaleError,
    GapError,
    IncompatibleUnits,
    InvalidPeriod,
    KindError,
    MissingYearOne,
    ParseError,
    SchemaError,
    TooFewPoints,
)

__version__ = "0.1.0"

_SUBMODULES = (
    "carbon", "datasets", "growth", "ingestion", "projection", "reconstruction",
    "scaling", "series", "units",
)

#: Public name -> the submodule that defines it.
_LAZY = {
    name: module
    for module, names in {
        "units": "EJ_PER_YR_PER_GW Quantity Unit to_unit",
        "series": "AnnualSeries Period SeriesKind slice_series",
        "ingestion": "DataSourceDescriptor ManifestEntry ValidationReport load_manifest"
                     " load_series validate write_series",
        "reconstruction": "NaturalCubicSpline PppMerRatio ReconstructionResult WealthSeries"
                          " build_wealth calibrate_initial_wealth"
                          " calibrate_initial_wealth_iterative cumulative_production"
                          " estimate_ppp_mer_ratio ppp_to_mer reconstruct_production"
                          " spline_infill",
        "scaling": "ScalingEstimate scaling_series scaling_stats w1_sensitivity",
        "growth": "CarbonizationEstimate KayaComponents RatesRow carbonization"
                  " carbonization_series energy_productivity growth_rate kaya_decomposition"
                  " rates_table wealth_growth_series",
        "carbon": "CarbonCycleParams",
        "projection": "AtmosphereState CapacityRequirement Scenario SteadyStateResult"
                      " Trajectory TrajectoryPoint committed_curve committed_equilibrium"
                      " halving_time historical_spinup_delta max_carbonization"
                      " max_carbonization_coefficient required_clean_capacity run_scenario"
                      " steady_state_commitment step_atmosphere",
    }.items()
    for name in names.split()
}

__all__ = sorted(["errors", *_SUBMODULES, *_LAZY, *(n for n in vars(errors) if n[0] != "_")])


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _LAZY:
        value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
