"""Forward scenario engine for committed concentration projections.

A scenario grows cumulative production exponentially (rates are continuous,
d ln/dt), decarbonizes the energy mix at a configurable rate, integrates the
one-box atmosphere, and records the committed equilibrium concentration at
every step. Identical scenarios produce bit-identical trajectories.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from math import exp
from typing import NamedTuple

from .carbon import _NEGATIVE_PERTURBATION, CarbonCycleParams, _rk4_affine
from .carbon import committed_curve  # noqa: F401 - callers keep projection.committed_curve
from .errors import DomainError
from .records import Record
from .series import AnnualSeries
from .units import DAYS_PER_YEAR, Quantity, Unit, finite, to_unit

#: Most grid points a run may ask for: each column holds a float object and a
#: pointer, ~32 bytes, per point, so one column at the cap takes ~320 MB.
MAX_GRID_POINTS = 10**7


class Scenario(Record):
    """Forward-run configuration.

    Units: wealth in T$2010, scaling in GW per T$2010, carbonization in
    GtC/EJ, rates in fraction/yr, concentrations in ppmv.
    """

    __slots__ = _fields = (
        "start_year", "horizon_years", "w0", "lambda_gw", "c0", "eta_w", "eta_c", "delta0",
        "carbon_params", "dt",
    )
    start_year: float
    horizon_years: float
    w0: float
    lambda_gw: float
    c0: float
    eta_w: float
    eta_c: float
    delta0: float
    carbon_params: CarbonCycleParams
    dt: float

    def __init__(
        self,
        start_year: float,
        horizon_years: float,
        w0: float,
        lambda_gw: float,
        c0: float,
        eta_w: float,
        eta_c: float = 0.0,
        delta0: float = 0.0,
        carbon_params: CarbonCycleParams = CarbonCycleParams(),
        dt: float = 0.25,
    ) -> None:
        super().__init__(
            start_year, horizon_years, w0, lambda_gw, c0, eta_w, eta_c, delta0, carbon_params, dt
        )
        not_finite = [name for name in self._fields if name != "carbon_params"
                      and not finite(getattr(self, name))]
        if not_finite:
            raise DomainError(f"scenario fields must be finite: {', '.join(not_finite)}")
        if horizon_years <= 0:
            raise DomainError("horizon must be positive")
        if not 0.0 < dt <= 1.0:
            raise DomainError("dt must be in (0, 1]")
        if min(w0, lambda_gw, c0) <= 0:
            raise DomainError("w0, lambda and c0 must be positive")
        if delta0 < 0:
            raise DomainError("initial perturbation cannot be negative")

    @property
    def lambda_ej(self) -> float:
        """The scaling in EJ/yr per T$2010, derived from ``lambda_gw``."""
        return to_unit(self.lambda_gw, Unit.GW_PER_TUSD, Unit.EJ_PER_YR_PER_TUSD)


class TrajectoryPoint(NamedTuple):
    """One grid time of a trajectory, its fields in the ``project`` CSV's column order."""

    year: float
    wealth: float
    energy_ej: float
    emissions_gtc: float
    delta_co2: float
    committed_delta: float
    concentration: float
    committed_concentration: float


class TrajectoryPoints(Sequence):
    """Read-only sequence of a trajectory's points, built on access.

    Indexing (an int, negative allowed, or a slice) and iteration build only
    the ``TrajectoryPoint``s they return, from the trajectory's columns; no
    point is stored. Two views are equal when their points are.
    """

    __slots__ = ("_trajectory",)

    def __init__(self, trajectory: Trajectory) -> None:
        self._trajectory = trajectory

    def __len__(self) -> int:
        return len(self._trajectory.years)

    def __getitem__(self, index: int | slice) -> TrajectoryPoint | tuple[TrajectoryPoint, ...]:
        if isinstance(index, slice):
            return tuple(map(self._point, range(len(self))[index]))
        return self._point(range(len(self))[index])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrajectoryPoints):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def _point(self, i: int) -> TrajectoryPoint:
        t = self._trajectory
        params = t.scenario.carbon_params
        w, e, d = t.wealth[i], t.emissions[i], t.deltas[i]
        pre, c = params.preindustrial, params.committed_delta(e)
        return TrajectoryPoint(t.years[i], w, t.scenario.lambda_ej * w, e, d, c, pre + d, pre + c)


class Trajectory(Record):
    """State columns of a run, one entry per grid time, and their points.

    The remaining ``TrajectoryPoint`` fields follow from these columns, the
    scaling and the carbon-cycle parameters; ``points`` is a view that builds
    each point from them when it is accessed, and no point is stored.
    """

    __slots__ = _fields = ("scenario", "years", "wealth", "emissions", "deltas")
    scenario: Scenario
    years: tuple[float, ...]
    wealth: tuple[float, ...]
    emissions: tuple[float, ...]
    deltas: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.years)

    @property
    def points(self) -> TrajectoryPoints:
        return TrajectoryPoints(self)

    def at_year(self, year: float) -> TrajectoryPoint:
        """The point at the grid time within 1e-9 yr of ``year``."""
        i = bisect_left(self.years, year - 1e-9)
        if i < len(self.years) and abs(self.years[i] - year) <= 1e-9:
            return self.points[i]
        raise DomainError(f"trajectory has no step at year {year}")

    def first_crossing(self, committed_concentration: float) -> float | None:
        """First grid year whose committed concentration reaches the threshold."""
        if not finite(committed_concentration):
            raise DomainError(f"threshold must be finite, got {committed_concentration}")
        params = self.scenario.carbon_params
        for year, e in zip(self.years, self.emissions):
            if params.preindustrial + params.committed_delta(e) >= committed_concentration:
                return year
        return None


def time_grid(horizon_years: float, dt: float) -> tuple[int, float]:
    """Step count and step length that end a run at ``horizon_years``.

    ``n = round(h/dt)`` steps of ``dt`` when ``n*dt`` is within 1e-9 of the
    horizon; otherwise ``n = ceil(h/dt)`` steps of ``h/n``, the largest step
    no longer than ``dt`` that divides the horizon (40 yr at 0.3 -> 134 steps).
    A grid of more than ``MAX_GRID_POINTS`` points is rejected before any
    is built.
    """
    if not (finite(horizon_years) and horizon_years >= 0):
        raise DomainError(f"horizon must be finite and non-negative, got {horizon_years}")
    if not (finite(dt) and dt > 0):
        raise DomainError(f"dt must be finite and positive, got {dt}")
    steps = horizon_years / dt
    if steps > MAX_GRID_POINTS - 1:  # n <= ceil(h/dt) steps give n + 1 points
        raise DomainError(
            f"a {horizon_years!r}-year horizon at dt={dt!r} needs more than"
            f" {MAX_GRID_POINTS} grid points"
        )
    n_steps = round(steps)
    if abs(n_steps * dt - horizon_years) <= 1e-9:
        return n_steps, dt
    n_steps = math.ceil(steps)
    return n_steps, horizon_years / n_steps


def _columns(s: Scenario, n_steps: int, dt: float) -> tuple[tuple[float, ...], ...]:
    """Years, wealth, emissions and perturbation on the grid start + i*dt.

    Wealth is ``w0*exp(eta_w*(t - start))`` and emissions ``lambda*c*W`` with
    carbonization ``c0*exp(eta_c*(t - start))``, each grid wealth reused in its
    emissions. The emissions grow at eta_w + eta_c, so each RK4 step is the
    same affine map ``_rk4_affine`` of the perturbation and the step's
    starting emissions.
    """
    start, w0, eta_w = s.start_year, s.w0, s.eta_w
    lam, c0, eta_c = s.lambda_ej, s.c0, s.eta_c
    # Checked before any column is built: i*dt and start + i*dt each round by at
    # most one float spacing at the largest year, so a step of more than four
    # spacings keeps the years strictly increasing.
    if dt <= 4.0 * math.ulp(max(abs(start), abs(start + n_steps * dt))):
        raise DomainError(
            f"a grid from start year {start!r} in steps of {dt!r} years would not"
            " have strictly increasing years"
        )
    years = tuple([start + i * dt for i in range(n_steps + 1)])
    try:
        wealth = tuple([w0 * exp(eta_w * (t - start)) for t in years])
        emissions = tuple(
            [lam * (c0 * exp(eta_c * (t - start))) * w for t, w in zip(years, wealth)]
        )
    except OverflowError:
        raise DomainError(
            f"wealth or carbonization growth overflows a float over a"
            f" {years[-1] - start:g}-year horizon at eta_w={eta_w!r}, eta_c={eta_c!r}"
        ) from None
    params = s.carbon_params
    a, p = _rk4_affine(dt, params.kappa_a, params.sigma, eta_w + eta_c)
    d = s.delta0
    deltas = [d]
    append = deltas.append
    for e in emissions[:-1]:
        d += a * d + p * e
        append(d)
    if min(deltas) < 0:
        raise DomainError(_NEGATIVE_PERTURBATION)
    return years, wealth, emissions, tuple(deltas)


def run_scenario(s: Scenario) -> Trajectory:
    """Integrate a scenario over its horizon on the grid start + i*h.

    The grid ends at ``start + horizon``: the step ``h`` is ``dt`` when
    ``dt`` divides the horizon (within 1e-9), and otherwise the horizon
    split into ``ceil(horizon/dt)`` equal steps (see ``time_grid``).
    Wealth and carbonization follow their closed forms. The concentration
    perturbation takes classical RK4 steps along the exponential emissions
    path; each step is applied as RK4's one-step affine map (``_rk4_affine``),
    whose two coefficients are computed once per run, so no midpoint
    emissions are sampled.
    The trajectory holds only these columns: it builds no ``TrajectoryPoint``
    until one is read through ``points`` or ``at_year``.
    """
    return Trajectory(s, *_columns(s, *time_grid(s.horizon_years, s.dt)))


class CapacityRequirement(Record):
    """New non-fossil capacity needed to absorb energy-demand growth."""

    __slots__ = _fields = ("gw_per_year",)
    gw_per_year: float

    @property
    def gw_per_day(self) -> float:
        return self.gw_per_year / DAYS_PER_YEAR


def required_clean_capacity(energy: Quantity, eta_e: float) -> CapacityRequirement:
    """Capacity additions covering growth ``eta_e`` of consumption ``energy`` (GW or EJ/yr)."""
    if not (finite(eta_e) and eta_e >= 0):
        raise DomainError(f"growth rate must be finite and nonnegative, got {eta_e}")
    per_year = to_unit(energy.value, energy.unit, Unit.GW) * eta_e
    if not finite(per_year):
        raise DomainError(f"the capacity for {energy.value!r} {energy.unit.value}"
                          f" growing at {eta_e!r}/yr overflows a float")
    return CapacityRequirement(gw_per_year=per_year)


def halving_time(params: CarbonCycleParams = CarbonCycleParams()) -> float:
    """Years for the gap to the committed equilibrium to halve: ln(2)/sigma."""
    years = math.log(2.0) / params.sigma
    if not math.isfinite(years):
        raise DomainError(f"the halving time at sigma={params.sigma!r} overflows a float")
    return years


class SteadyStateResult(Record):
    """Outcome of freezing the economy at a given year."""

    __slots__ = _fields = ("trajectory", "freeze_year", "freeze_wealth", "asymptote_delta")
    trajectory: Trajectory
    freeze_year: float
    freeze_wealth: float
    asymptote_delta: float


def steady_state_commitment(
    s: Scenario, freeze_year: float, settle_years: float = 300.0
) -> SteadyStateResult:
    """Run the scenario to ``freeze_year``, then hold the economy constant.

    After the freeze both wealth and carbonization stop changing, so the
    perturbation relaxes toward kappa*lambda*c*W/sigma, the committed level
    of the frozen phase's first point (``asymptote_delta``); the returned
    trajectory covers the growth phase plus ``settle_years`` of relaxation.
    Both phases take ``time_grid``'s step count but step by ``dt`` itself, so
    a phase that ``dt`` does not divide runs up to one step past its span.
    """
    if not finite(freeze_year):
        raise DomainError(f"freeze year must be finite, got {freeze_year}")
    if not s.start_year <= freeze_year:
        raise DomainError("freeze year precedes the scenario start")
    head = _columns(s, time_grid(freeze_year - s.start_year, s.dt)[0], s.dt)
    frozen = s._replace(
        start_year=freeze_year,
        horizon_years=settle_years,
        w0=s.w0 * exp(s.eta_w * (freeze_year - s.start_year)),
        c0=s.c0 * exp(s.eta_c * (freeze_year - s.start_year)),
        eta_w=0.0,
        eta_c=0.0,
        delta0=head[-1][-1],
    )
    tail = _columns(frozen, time_grid(settle_years, s.dt)[0], s.dt)
    return SteadyStateResult(
        trajectory=Trajectory(frozen, *(a[:-1] + b for a, b in zip(head, tail))),
        freeze_year=freeze_year,
        freeze_wealth=frozen.w0,
        asymptote_delta=s.carbon_params.committed_delta(tail[2][0]),
    )


def historical_spinup_delta(
    emissions: AnnualSeries,
    params: CarbonCycleParams = CarbonCycleParams(),
    end_year: int | None = None,
    delta0: float = 0.0,
    dt: float = 0.25,
) -> float:
    """Perturbation obtained by integrating observed annual emissions.

    Each calendar year's emission rate is held constant across that year
    (the data are annual totals), so every RK4 step is the affine map of
    ``_rk4_affine`` with no source growth, applied with that year's rate.
    Used by the optional spin-up start mode.
    The run covers the record's first year up to the start of ``end_year``
    (default: its last year), an int in ``[first_year, last_year + 1]``.
    Every year is covered exactly: it takes ``time_grid``'s step count for one
    year, ``n``, in steps of ``1/n``, so a ``dt`` that does not divide the year
    is refined to the next step that does (0.3 -> 1/4, 0.4 -> 1/3, 0.7 -> 1/2).
    A run of more than ``MAX_GRID_POINTS`` steps in all is rejected before the
    first step.
    """
    if not emissions.is_contiguous():
        raise DomainError("spin-up needs a contiguous emissions series")
    if not 0.0 < dt <= 1.0:
        raise DomainError("dt must be in (0, 1] years")
    if not (finite(delta0) and delta0 >= 0):
        raise DomainError(f"initial perturbation must be finite and non-negative, got {delta0}")
    last = emissions.last_year if end_year is None else end_year
    if not (isinstance(last, int) and not isinstance(last, bool)
            and emissions.first_year <= last <= emissions.last_year + 1):
        raise DomainError(
            f"end_year must be an int in [{emissions.first_year}, {emissions.last_year + 1}],"
            f" got {end_year!r}"
        )
    n = time_grid(1.0, dt)[0]
    years = last - emissions.first_year
    if years * n > MAX_GRID_POINTS:
        raise DomainError(
            f"a {years}-year spin-up at dt={dt!r} needs more than {MAX_GRID_POINTS} steps"
        )
    a, p = _rk4_affine(1.0 / n, params.kappa_a, params.sigma)
    delta = delta0
    for year in range(emissions.first_year, last):
        source = p * emissions.value_at(year)
        for _ in range(n):
            delta += a * delta + source
        if delta < 0:
            raise DomainError(_NEGATIVE_PERTURBATION)
    return delta
