"""Forward scenario engine for committed concentration projections.

A scenario grows cumulative production exponentially (rates are continuous,
d ln/dt), decarbonizes the energy mix at a configurable rate, integrates the
one-box atmosphere, and records the committed equilibrium concentration at
every step. Identical scenarios produce bit-identical trajectories. Here too
are the RK4 stepper and the committed equilibrium with its inverse.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from itertools import islice
from math import exp
from typing import Callable, NamedTuple, Union

from .carbon import CarbonCycleParams
from .errors import DomainError, KindError
from .records import Record
from .series import AnnualSeries, SeriesKind
from .units import DAYS_PER_YEAR, Quantity, Unit, finite, floats, shown, to_unit

#: Most grid points a run may ask for: each column holds a float object and a
#: pointer, ~32 bytes, per point, so one column at the cap takes ~320 MB.
MAX_GRID_POINTS = 10**7

_NEGATIVE_PERTURBATION = "concentration perturbation cannot be negative"

#: sigma*dt past which an RK4 step amplifies the perturbation: the root of
#: R(-x) = 1 for RK4's stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.
_RK4_STABILITY_LIMIT = 2.785293563405282


class AtmosphereState(Record):
    """CO2 perturbation above the pre-industrial baseline at a point in time."""

    __slots__ = _fields = ("year", "delta_co2")
    year: float
    delta_co2: float

    def __init__(self, year: float, delta_co2: float) -> None:
        super().__init__(year, delta_co2)
        if not (finite(year) and finite(delta_co2)):
            raise DomainError(f"atmosphere state must be finite, got year={shown(year)},"
                              f" delta_co2={shown(delta_co2)}")
        if delta_co2 < 0:
            raise DomainError(_NEGATIVE_PERTURBATION)


EmissionsRate = Union[float, Callable[[float], float]]


def _rk4_step(
    delta: float, c_start: float, c_mid: float, c_end: float, dt: float, kappa: float, sigma: float
) -> float:
    """One classical RK4 step of d(delta)/dt = kappa*C(t) - sigma*delta.

    ``c_start``, ``c_mid`` and ``c_end`` are the source C at the start, the
    midpoint and the end of the step. ``step_atmosphere`` takes one step of
    it for any source; the scenario engine and spin-up take one step of it in
    ``_rk4_affine`` and apply that step as an affine map. Raises DomainError
    when sigma*dt is past RK4's stability limit, where |R(-sigma*dt)| > 1 and
    the steps grow without bound instead of relaxing.
    """
    if sigma * dt > _RK4_STABILITY_LIMIT:
        raise DomainError(
            f"sigma*dt = {sigma * dt!r} is past RK4's stability limit"
            f" {_RK4_STABILITY_LIMIT:.4f} (|R(-sigma*dt)| > 1); use a smaller dt"
        )
    k_mid = kappa * c_mid
    k1 = kappa * c_start - sigma * delta
    k2 = k_mid - sigma * (delta + dt * k1 / 2.0)
    k3 = k_mid - sigma * (delta + dt * k2 / 2.0)
    k4 = kappa * c_end - sigma * (delta + dt * k3)
    delta = delta + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    if delta < 0:
        raise DomainError(_NEGATIVE_PERTURBATION)
    return delta


def _rk4_affine(dt: float, kappa: float, sigma: float, growth: float = 0.0) -> tuple[float, float]:
    """One ``_rk4_step`` for a source growing at ``growth``, as ``(a, p)``.

    RK4 is linear in delta and in the source, so for C(t) = C*exp(growth*(t - t0))
    across the step it maps delta to ``delta + (a*delta + p*C)`` exactly, up to
    rounding. ``a = R(z) - 1`` with ``z = -sigma*dt`` and R RK4's stability
    polynomial, nested so that no bits cancel; ``p`` is one ``_rk4_step``
    from delta = 0 with sources 1, e^{growth*dt/2} and e^{growth*dt}.
    ``1 + a = R(z) > 0`` (RK4's quartic has no real root) and ``p >= 0``
    (``_rk4_step`` refuses a negative result), so the map keeps a
    non-negative perturbation non-negative for any non-negative source.
    """
    z = -sigma * dt
    a = z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    p = _rk4_step(0.0, 1.0, math.exp(growth * dt / 2.0), math.exp(growth * dt), dt, kappa, sigma)
    return a, p


def step_atmosphere(
    state: AtmosphereState,
    emissions_rate: EmissionsRate,
    params: CarbonCycleParams = CarbonCycleParams(),
    dt: float = 0.25,
) -> AtmosphereState:
    """Advance the perturbation one step with classical fourth-order Runge-Kutta.

    ``emissions_rate`` is either a constant (GtC/yr, held fixed across the
    step) or a callable of the year, sampled at the start, midpoint and end
    of the step. For constant emissions the exact solution
    delta(t) = (kappa*C/sigma)(1 - exp(-sigma t)) + delta0 exp(-sigma t)
    is matched at fourth order in dt.
    """
    if not (finite(dt) and 0.0 < dt <= 1.0):
        raise DomainError("dt must be in (0, 1] years")
    t0 = state.year
    if callable(emissions_rate):
        sources = (emissions_rate(t0), emissions_rate(t0 + dt / 2.0), emissions_rate(t0 + dt))
    else:
        sources = (emissions_rate,) * 3
    delta = _rk4_step(state.delta_co2, *floats(sources, "emissions rate"), dt, params.kappa_a,
                      params.sigma)
    return AtmosphereState(year=t0 + dt, delta_co2=delta)


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


class Trajectory(Record):
    """State columns of a run, one entry per grid time: the sequence of its points.

    Indexing (an int, negative allowed, or a slice) and iteration build only
    the ``TrajectoryPoint``s they return, from these columns, the scaling and
    the carbon-cycle parameters; no point is stored. Two trajectories are
    equal when their scenarios and columns are, so their points are too.
    """

    __slots__ = _fields = ("scenario", "years", "wealth", "emissions", "deltas")
    scenario: Scenario
    years: tuple[float, ...]
    wealth: tuple[float, ...]
    emissions: tuple[float, ...]
    deltas: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.years)

    def __getitem__(self, index: int | slice) -> TrajectoryPoint | tuple[TrajectoryPoint, ...]:
        if isinstance(index, slice):
            return tuple(map(self._point, range(len(self.years))[index]))
        return self._point(range(len(self.years))[index])

    def __iter__(self):
        return map(self._point, range(len(self.years)))

    @property
    def points(self) -> Trajectory:
        """The trajectory itself; ``perfbench`` reads ``points[-1]`` and ``len(points)``."""
        return self

    def _point(self, i: int) -> TrajectoryPoint:
        s, w, e, d = self.scenario, self.wealth[i], self.emissions[i], self.deltas[i]
        pre, c = s.carbon_params.preindustrial, s.carbon_params.committed_delta(e)
        return TrajectoryPoint(self.years[i], w, s.lambda_ej * w, e, d, c, pre + d, pre + c)

    def at_year(self, year: float) -> TrajectoryPoint:
        """The point at the grid time within 1e-9 yr of ``year``."""
        if not finite(year):
            raise DomainError(f"year must be finite, got {shown(year)}")
        i = bisect_left(self.years, year - 1e-9)
        if i < len(self.years) and abs(self.years[i] - year) <= 1e-9:
            return self._point(i)
        raise DomainError(f"trajectory has no step at year {year}")

    def first_crossing(self, committed_concentration: float) -> float | None:
        """First grid year whose committed concentration reaches the threshold."""
        if not finite(committed_concentration):
            raise DomainError(f"threshold must be finite, got {shown(committed_concentration)}")
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
        raise DomainError(f"horizon must be finite and non-negative, got {shown(horizon_years)}")
    if not (finite(dt) and dt > 0):
        raise DomainError(f"dt must be finite and positive, got {shown(dt)}")
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


#: Most grid points the grid cache holds in all, each a year (a float and a
#: pointer, ~32 bytes): ~2 MB.
_GRID_BUDGET = 2**16

#: (type(start), start, type(dt), dt) -> the longest grid of years built so far
#: for that key; least recently used first. The types are part of the key
#: because an int start and step give int years.
_grids: dict = {}


def _grid(start: float, dt: float, points: int) -> tuple[float, ...]:
    """The first ``points`` years ``start + i*dt``.

    Every year is computed from its own ``i`` alone, so a grid read from the
    cache (a prefix of a longer one, or one extended by the missing ``i``)
    has the bits of one built afresh, whatever runs came before. A grid is
    kept only while the cache's grids hold at most ``_GRID_BUDGET`` points in
    all; the least recently used goes first, and a longer grid is never kept.
    Each read or write of the cache is one dict operation on the cache or on
    a copy of it, so two threads can at worst build one grid twice.
    """
    key = (start.__class__, start, dt.__class__, dt)
    years = _grids.pop(key, ())
    if len(years) < points:
        years += tuple([start + i * dt for i in range(len(years), points)])
    if len(years) <= _GRID_BUDGET:
        _grids[key] = years
        for old in list(_grids):  # least recently used first
            if sum(map(len, list(_grids.values()))) <= _GRID_BUDGET:
                break
            _grids.pop(old, None)
    return years[:points]


#: Block length of ``_exp_tables``: its tables hold ``_EXP_BLOCK`` and
#: ``points/_EXP_BLOCK`` factors. 32 and 64 were equally fast on the long runs
#: of a sweep; 32 makes fewer ``exp`` calls for a run of a few hundred points.
_EXP_BLOCK = 32


def _exp_tables(scale: float, rate: float, h: float, points: int) -> tuple[list, list]:
    """Tables ``outer``, ``inner`` with ``scale*exp(rate*i*h) = outer[k]*inner[j]``.

    Point ``i = k*B + j`` (``B = _EXP_BLOCK``, ``j < B``) takes
    ``inner[j] = exp(rate*(j*h))`` and ``outer[k] = scale*exp(rate*((k*B)*h))``:
    ``B + points/B`` calls of ``exp`` in all, and a last block that runs past
    ``points`` unless ``B`` divides it. Each point is within a few ulps of the
    exact value (``tests/test_projection.py`` bounds it), and depends on its own
    ``i`` alone, so a run's points are the first points of any longer run at the
    same step. One more ``exp``, of the last offset, raises OverflowError
    when the last factor overflows; a product past the float range is inf.
    """
    exp(rate * ((points - 1) * h))  # raises OverflowError past the float range
    inner = [exp(rate * (j * h)) for j in range(min(_EXP_BLOCK, points))]
    outer = [scale * exp(rate * (k * h)) for k in range(0, points, _EXP_BLOCK)]
    return outer, inner


def _exp_column(scale: float, rate: float, h: float, points: int) -> list[float]:
    """``scale*exp(rate*i*h)`` for ``i < points``, the products of ``_exp_tables``."""
    outer, inner = _exp_tables(scale, rate, h, points)
    column = [o * x for o in outer for x in inner]
    del column[points:]
    return column


def _columns(s: Scenario, n_steps: int, dt: float) -> tuple[tuple[float, ...], ...]:
    """Years, wealth, emissions and perturbation on the grid start + i*dt.

    Wealth is ``w0*exp(eta_w*i*dt)`` from ``_exp_column``. Emissions are
    ``lambda*c*W``, made in one pass from the two ``_exp_tables`` of the
    carbonization ``c0*exp(eta_c*i*dt)`` and the wealth column, so no
    carbonization column is built. The years come from ``_grid``, which
    reuses them across runs on one (start, dt) without changing a bit. The
    emissions grow at eta_w + eta_c, so each RK4 step is the same affine map
    ``_rk4_affine`` of the perturbation and the step's starting emissions.
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
    points = n_steps + 1
    years = _grid(start, dt, points)
    params = s.carbon_params
    try:
        wealth = tuple(_exp_column(w0, eta_w, dt, points))
        c_outer, c_inner = _exp_tables(c0, eta_c, dt, points)
        # The map's source grows at eta_w + eta_c, which can overflow over one
        # step even where neither column does.
        a, p = _rk4_affine(dt, params.kappa_a, params.sigma, eta_w + eta_c)
    except OverflowError:
        raise DomainError(
            f"wealth or carbonization growth overflows a float over a"
            f" {years[-1] - start:g}-year horizon at eta_w={eta_w!r}, eta_c={eta_c!r}"
        ) from None
    # One wealth iterator for all blocks: zip takes the inner factor first, so
    # a full block ends without taking a wealth point.
    w_points = iter(wealth)
    emissions = tuple([lam * (o * x) * w for o in c_outer for x, w in zip(c_inner, w_points)])
    d = s.delta0
    deltas = [d, *[d := d + (a * d + p * e) for e in islice(emissions, n_steps)]]
    if d != d or emissions[-1] != emissions[-1]:  # nan: one check for the whole run
        if any(e != e for e in emissions):
            raise DomainError(
                f"emissions lambda*c*W are 0 times inf where wealth or carbonization"
                f" leaves the float range, at eta_w={eta_w!r}, eta_c={eta_c!r}"
            )
        # A perturbation that overflows stays inf; the map's d + a*d makes it nan.
        deltas = [x if x == x else math.inf for x in deltas]
    return years, wealth, emissions, tuple(deltas)


def run_scenario(s: Scenario) -> Trajectory:
    """Integrate a scenario over its horizon on the grid start + i*h.

    The grid ends at ``start + horizon``: the step ``h`` is ``dt`` when
    ``dt`` divides the horizon (within 1e-9), and otherwise the horizon
    split into ``ceil(horizon/dt)`` equal steps (see ``time_grid``).
    Wealth and carbonization follow their closed forms, each point the
    product of two factors from short ``exp`` tables (``_exp_tables``), so a
    run's points do not depend on its horizon; the emissions lambda*c*W are
    made in one pass from the carbonization tables and the wealth column,
    and no carbonization column is kept. The concentration
    perturbation takes classical RK4 steps along the exponential emissions
    path; each step is applied as RK4's one-step affine map (``_rk4_affine``),
    whose two coefficients are computed once per run, so no midpoint
    emissions are sampled. The grid's years are reused across runs with the
    same start and step (``_grid``), with the same bits as a grid built
    afresh.
    The trajectory holds only these columns and is itself the sequence of its
    points: it builds no ``TrajectoryPoint`` until one is indexed, iterated or
    read through ``at_year``.
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
        raise DomainError(f"growth rate must be finite and nonnegative, got {shown(eta_e)}")
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


def committed_curve(
    w_values: Sequence[float],
    scale: Quantity,
    c: Quantity,
    params: CarbonCycleParams = CarbonCycleParams(),
) -> list[tuple[float, float]]:
    """(W, delta_eq) pairs tracing the equilibrium line, W in T$2010, inputs checked once.

    delta_eq is ``params.committed_delta((lambda*c)*W)``, the scenario engine's emissions
    product, so the curve and a trajectory agree bit for bit at equal W and c."""
    if c.unit is not Unit.GTC_PER_EJ or c.value <= 0:
        raise DomainError("carbonization must be a positive quantity in GtC per EJ")
    if scale.value <= 0:
        raise DomainError("the energy scaling must be positive")
    per_tusd = to_unit(scale.value, scale.unit, Unit.EJ_PER_YR_PER_TUSD) * c.value
    w_values = floats(w_values, "cumulative production")
    if min(w_values, default=0.0) < 0.0:
        raise DomainError(f"cumulative production must be non-negative, got {min(w_values)!r}")
    if not math.isfinite(params.committed_delta(per_tusd * max(w_values, default=0.0))):
        raise DomainError("the committed level overflows a float")
    return [(w, params.committed_delta(per_tusd * w)) for w in w_values]


def committed_equilibrium(
    w: Quantity,
    scale: Quantity,
    c: Quantity,
    params: CarbonCycleParams = CarbonCycleParams(),
) -> Quantity:
    """delta_eq = kappa*(lambda*c*W)/sigma, ppmv: ``committed_curve`` at the one W ``w``."""
    if w.unit is not Unit.TUSD:
        raise DomainError("cumulative production must be in T$2010")
    return Quantity(committed_curve([w.value], scale, c, params)[0][1], Unit.PPMV)


def max_carbonization_coefficient(
    scale: Quantity, params: CarbonCycleParams = CarbonCycleParams()
) -> float:
    """sigma/(kappa*lambda): GtC * T$ per (ppmv * EJ)."""
    if scale.value <= 0:
        raise DomainError("the energy scaling must be positive")
    lam_ej = to_unit(scale.value, scale.unit, Unit.EJ_PER_YR_PER_TUSD)
    product = params.kappa_a * lam_ej
    coefficient = params.sigma / product if product else math.inf
    if not math.isfinite(coefficient):
        raise DomainError(f"sigma/(kappa*lambda) is not finite for the scaling {shown(scale.value)}")
    return coefficient


def max_carbonization(
    delta_target: Quantity,
    w: Quantity,
    scale: Quantity,
    params: CarbonCycleParams = CarbonCycleParams(),
) -> Quantity:
    """Largest carbonization compatible with stabilizing at ``delta_target``.

    c_max = (sigma / (kappa * lambda)) * delta / W; composing with
    ``committed_equilibrium`` at the same parameters is the identity.
    """
    if delta_target.unit is not Unit.PPMV:
        raise DomainError("stabilization target must be a ppmv perturbation")
    if w.unit is not Unit.TUSD or w.value <= 0 or delta_target.value <= 0:
        raise DomainError("inputs must be positive")
    c_max = max_carbonization_coefficient(scale, params) * delta_target.value / w.value
    return Quantity(c_max, Unit.GTC_PER_EJ)


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
    if not (finite(settle_years) and settle_years > 0):
        raise DomainError(f"settle_years must be finite and positive, got {shown(settle_years)}")
    if not finite(freeze_year):
        raise DomainError(f"freeze year must be finite, got {shown(freeze_year)}")
    if not s.start_year <= freeze_year:
        raise DomainError("freeze year precedes the scenario start")
    tail_steps = time_grid(settle_years, s.dt)[0]
    span = freeze_year - s.start_year
    head = _columns(s, time_grid(span, s.dt)[0], s.dt)
    try:  # the head's grid may end up to 1e-9 yr short of the freeze year
        w_freeze, c_freeze = s.w0 * exp(s.eta_w * span), s.c0 * exp(s.eta_c * span)
    except OverflowError:
        raise DomainError(
            f"wealth or carbonization growth overflows a float by the freeze year"
            f" {freeze_year!r} at eta_w={s.eta_w!r}, eta_c={s.eta_c!r}"
        ) from None
    frozen = s._replace(
        start_year=freeze_year,
        horizon_years=settle_years,
        w0=w_freeze,
        c0=c_freeze,
        eta_w=0.0,
        eta_c=0.0,
        delta0=head[-1][-1],
    )
    tail = _columns(frozen, tail_steps, s.dt)
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
    if emissions.kind is not SeriesKind.EMISSIONS:
        raise KindError(f"spin-up expects emissions, got {emissions.kind.value}")
    if not emissions.is_contiguous():
        raise DomainError("spin-up needs a contiguous emissions series")
    if not (finite(dt) and 0.0 < dt <= 1.0):
        raise DomainError("dt must be in (0, 1] years")
    if not (finite(delta0) and delta0 >= 0):
        raise DomainError("initial perturbation must be finite and non-negative,"
                          f" got {shown(delta0)}")
    last = emissions.last_year if end_year is None else end_year
    if not (isinstance(last, int) and not isinstance(last, bool)
            and emissions.first_year <= last <= emissions.last_year + 1):
        raise DomainError(
            f"end_year must be an int in [{emissions.first_year}, {emissions.last_year + 1}],"
            f" got {shown(end_year)}"
        )
    years = last - emissions.first_year
    if not years:  # no step to take, so no grid to build at any dt
        return delta0
    # A run that is over the cap stops before time_grid: at a dt under 1e-7 one
    # year alone is past time_grid's cap, whose message names a 1-year horizon.
    n = time_grid(1.0, dt)[0] if years / dt <= MAX_GRID_POINTS else MAX_GRID_POINTS + 1
    if years * n > MAX_GRID_POINTS:
        raise DomainError(
            f"a {years}-year spin-up at dt={dt!r} needs more than {MAX_GRID_POINTS} steps"
        )
    a, p = _rk4_affine(1.0 / n, params.kappa_a, params.sigma)
    delta = delta0
    for rate in emissions.values[:years]:
        source = p * rate
        for _ in range(n):
            delta += a * delta + source
    if not math.isfinite(delta):  # past inf, d + a*d is inf - inf: NaN
        raise DomainError(f"the spin-up perturbation overflows a float by {last}")
    return delta
