"""enerscale: energy-economy-climate toolkit built on the cumulative-production scaling.

Reconstructs world cumulative economic production from the historical GDP
record, estimates the scaling between current primary energy consumption and
that integral, reproduces the associated growth and emissions identities, and
projects committed CO2 concentrations under configurable scenarios.
"""

from .errors import (
    DomainError,
    EmptySlice,
    EnerscaleError,
    GapError,
    IncompatibleUnits,
    InvalidPeriod,
    KindError,
    MissingYearOne,
    NonPositiveResult,
    NonPositiveValue,
    ParseError,
    SchemaError,
    TooFewPoints,
)
from .units import EJ_PER_YR_PER_GW, Quantity, Unit, to_unit
from .series import AnnualSeries, Period, SeriesKind, slice_series
from .ingestion import (
    DataSourceDescriptor,
    ManifestEntry,
    RatioStats,
    ValidationReport,
    load_manifest,
    load_series,
    production_consumption_ratio,
    validate,
    write_series,
)
from .reconstruction import (
    NaturalCubicSpline,
    PppMerRatio,
    ReconstructionResult,
    WealthSeries,
    build_wealth,
    calibrate_initial_wealth,
    calibrate_initial_wealth_iterative,
    cumulative_production,
    estimate_ppp_mer_ratio,
    ppp_to_mer,
    reconstruct_production,
    spline_infill,
)
from .scaling import (
    PotentialParams,
    ScalingEstimate,
    civilization_potential,
    potential_per_dollar,
    scaling_series,
    scaling_stats,
    w1_sensitivity,
)
from .growth import (
    GrowthMethod,
    GrowthRate,
    RatesRow,
    energy_productivity,
    growth_rate,
    predicted_gdp_growth,
    rates_table,
    wealth_growth_series,
)
from .carbon import (
    AtmosphereState,
    CarbonCycleParams,
    CarbonizationEstimate,
    KayaComponents,
    carbonization,
    carbonization_series,
    committed_equilibrium,
    kaya_decomposition,
    max_carbonization,
    max_carbonization_coefficient,
    step_atmosphere,
    wealth_per_ppmv,
)
from .projection import (
    CapacityRequirement,
    Scenario,
    SteadyStateResult,
    Trajectory,
    TrajectoryPoint,
    committed_curve,
    halving_time,
    historical_spinup_delta,
    required_clean_capacity,
    run_scenario,
    steady_state_commitment,
)
from .thermo import (
    ThermoState,
    node_production_rate,
    potential_growth_rate,
    productivity_bridge,
    simulate_partition,
    surplus_fraction,
    sustenance_power,
)
from . import datasets

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
