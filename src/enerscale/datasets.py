"""Access to the bundled observational snapshot and the baseline pipeline.

The repository ships a frozen desk-scale transcription of the public record
(see ``data/NOTES.md`` for sources and conventions) so that analyses and
tests run offline and deterministically. ``baseline()`` performs the full
reconstruction once per process and caches the result.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DomainError
from .ingestion import ManifestEntry, load_manifest, load_series
from .records import Record
from .series import AnnualSeries
from .units import Unit, to_unit

# baseline() and preset_scenario() import the model modules they call, so
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
    from .carbon import CarbonCycleParams
    from .projection import Scenario, historical_spinup_delta

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
