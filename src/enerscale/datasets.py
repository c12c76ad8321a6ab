"""Access to the bundled observational snapshot and the baseline pipeline.

The repository ships a frozen desk-scale transcription of the public record
(``data/NOTES.md`` gives sources and conventions), so analyses and tests run
offline and deterministically. ``baseline()`` reconstructs once per process and
caches the result; ``headline()`` gives the numbers ``enerscale report`` writes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DomainError
from .ingestion import ManifestEntry, load_manifest, load_series
from .records import Record
from .series import AnnualSeries
from .units import Quantity, Unit, to_unit

# baseline(), preset_scenario() and headline() import the model modules they call, so
# loading the snapshot (``enerscale ingest``) runs no model code.
if TYPE_CHECKING:
    from .carbon import CarbonCycleParams
    from .projection import Scenario
    from .reconstruction import ReconstructionResult

#: Default committed growth rate for forward presets, fraction/yr.
PRESET_GROWTH = 0.024

#: Year whose observed state the ``paper-2017`` preset starts from.
PRESET_START_YEAR = 2017

#: The initial-condition presets ``preset_scenario`` knows.
PRESETS = ("paper-2017",)


def data_dir() -> Path:
    """Directory holding the bundled snapshot."""
    return Path(__file__).resolve().parent / "data"


def manifest_path() -> Path:
    return data_dir() / "manifest.json"


def manifest() -> dict[str, ManifestEntry]:
    return load_manifest(manifest_path())


class Snapshot(Record):
    """The bundled series, loaded and validated."""

    __slots__ = _fields = (
        "gdp_mer", "gdp_ppp", "energy", "energy_production", "emissions", "population",
        "concentration",
    )
    gdp_mer: AnnualSeries
    gdp_ppp: AnnualSeries
    energy: AnnualSeries
    energy_production: AnnualSeries
    emissions: AnnualSeries
    population: AnnualSeries
    concentration: AnnualSeries


@lru_cache(maxsize=1)
def load_snapshot() -> Snapshot:
    entries = manifest()
    series = {name: load_series(entry.descriptor) for name, entry in entries.items()}
    return Snapshot(
        gdp_mer=series["gdp_mer"],
        gdp_ppp=series["gdp_ppp"],
        energy=series["energy_consumption"],
        energy_production=series["energy_production"],
        emissions=series["emissions"],
        population=series["population"],
        concentration=series["concentration"],
    )


@lru_cache(maxsize=1)
def baseline() -> ReconstructionResult:
    """Reconstruction of annual production and cumulative wealth from the snapshot."""
    from .reconstruction import build_wealth

    snap = load_snapshot()
    return build_wealth(snap.gdp_ppp, snap.gdp_mer)


def preset_scenario(
    name: str = "paper-2017",
    eta_c: float = 0.0,
    eta_w: float = PRESET_GROWTH,
    horizon_years: float = 40.0,
    dt: float = 0.25,
    carbon_params: CarbonCycleParams | None = None,
    spinup: bool = False,
) -> Scenario:
    """Named initial-condition presets for the scenario engine.

    ``paper-2017`` starts from the snapshot's 2017 state: W from the baseline
    reconstruction, the scaling fixed to the observed 2017 energy/wealth
    ratio (so the scenario's initial emissions equal the observed 2017
    emissions), carbonization from observed emissions/energy, and the
    perturbation from the observed concentration minus the pre-industrial
    baseline. With ``spinup`` the perturbation is instead integrated from the
    observed emissions record.
    """
    from .projection import CarbonCycleParams, Scenario, historical_spinup_delta

    if name not in PRESETS:
        raise DomainError(f"unknown preset {name!r}; choose from {list(PRESETS)}")
    params = carbon_params if carbon_params is not None else CarbonCycleParams()
    snap = load_snapshot()
    recon = baseline()
    year = PRESET_START_YEAR
    w0 = recon.wealth.series.value_at(year)
    energy_ej = snap.energy.value_at(year)
    lambda_gw = to_unit(energy_ej, Unit.EJ_PER_YR, Unit.GW) / w0
    c0 = snap.emissions.value_at(year) / energy_ej
    if spinup:
        first = snap.concentration.value_at(snap.emissions.first_year)
        delta0 = historical_spinup_delta(
            snap.emissions,
            params,
            end_year=year,
            delta0=max(first - params.preindustrial, 0.0),
            dt=dt,
        )
    else:
        delta0 = snap.concentration.value_at(year) - params.preindustrial
    return Scenario(
        start_year=float(year),
        horizon_years=horizon_years,
        w0=w0,
        lambda_gw=lambda_gw,
        c0=c0,
        eta_w=eta_w,
        eta_c=eta_c,
        delta0=delta0,
        carbon_params=params,
        dt=dt,
    )


def headline() -> dict:
    """The paper's headline numbers from the bundled snapshot, in ``report.json``'s key order."""
    from .projection import halving_time, required_clean_capacity, run_scenario
    from .scaling import HEADLINE_PERIOD, scaling_series, scaling_stats

    snapshot = load_snapshot()
    recon = baseline()
    stats = scaling_stats(scaling_series(snapshot.energy, recon.wealth), HEADLINE_PERIOD)
    w_end = recon.wealth.series.value_at(HEADLINE_PERIOD.end_year)
    years, gdp = recon.gdp.years, recon.gdp.values
    scenario = preset_scenario()
    trajectory = run_scenario(scenario)
    crossing = trajectory.first_crossing(2.0 * scenario.carbon_params.preindustrial)
    energy = Quantity(snapshot.energy.value_at(PRESET_START_YEAR), Unit.EJ_PER_YR)
    capacity = required_clean_capacity(energy, PRESET_GROWTH)
    return {
        "scaling_mean_gw_per_tusd": stats.mean.value,
        "scaling_std": stats.std.value,
        "scaling_ci95_halfwidth": stats.ci95_halfwidth.value,
        "scaling_trend_per_yr": stats.trend_per_year,
        "w1_tusd": recon.w1.value,
        "wealth_2017_tusd": w_end,
        "share_first_millennium": sum(gdp[:bisect_right(years, 1000)]) / w_end,
        "share_1980_2017": sum(gdp[bisect_left(years, HEADLINE_PERIOD.start_year):]) / w_end,
        "committed_concentration_2017_ppmv": trajectory[0].committed_concentration,
        "committed_doubling_year": crossing,
        "committed_concentration_2040_ppmv": trajectory.at_year(2040.0).committed_concentration,
        "halving_time_yr": halving_time(scenario.carbon_params),
        "clean_capacity_gw_per_yr": capacity.gw_per_year,
        "clean_capacity_gw_per_day": capacity.gw_per_day,
    }
