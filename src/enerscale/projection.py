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
from collections.abc import Iterator, Sequence
from math import exp
from typing import Callable, NamedTuple, Union

from .carbon import CarbonCycleParams
from .errors import DomainError, KindError
from .records import Record
from .series import AnnualSeries, SeriesKind, integral
from .units import DAYS_PER_YEAR, Quantity, Unit, finite, floats, shown, to_unit

#: Most grid points a run may ask for: a run stores only its perturbation, a float
#: object and a pointer (~32 bytes) per point, so ~320 MB at the cap.
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


def _require_step(dt: float) -> None:
    """The one step rule of the stepper, the scenario engine and spin-up: 0 < dt <= 1 year."""
    if not (finite(dt) and 0.0 < dt <= 1.0):
        raise DomainError(f"dt must be in (0, 1] years, got {shown(dt)}")


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
    _require_step(dt)
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
        _require_step(dt)
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
    the carbon-cycle parameters; no point is stored. A slice or an iteration
    reads each column once, whole; an int index or ``at_year`` reads one entry
    of each. Two trajectories are equal when their scenarios and columns are,
    so their points are too.
    """

    __slots__ = _fields = ("scenario", "years", "wealth", "emissions", "deltas")
    scenario: Scenario
    years: Sequence[float]
    wealth: Sequence[float]
    emissions: Sequence[float]
    deltas: Sequence[float]

    def __len__(self) -> int:
        return len(self.years)

    def __getitem__(self, index: int | slice) -> TrajectoryPoint | tuple[TrajectoryPoint, ...]:
        if isinstance(index, slice):
            return tuple(self._points(index))
        return self._point(range(len(self.years))[index])

    def __iter__(self):
        return self._points(slice(None))

    @property
    def points(self) -> Trajectory:
        """The trajectory itself; ``perfbench`` reads ``points[-1]`` and ``len(points)``."""
        return self

    def _point(self, i: int) -> TrajectoryPoint:
        s, wealth, emissions, d = self.scenario, self.wealth, self.emissions, self.deltas[i]
        if wealth.__class__ is emissions.__class__ is _ProductColumn:  # a run's own columns
            w, e = emissions._entry(i)  # the entry carries the wealth it is made of
        else:
            w, e = wealth[i], emissions[i]
        pre, c = s.carbon_params.preindustrial, s.carbon_params.committed_delta(e)
        return TrajectoryPoint(self.years[i], w, s.lambda_ej * w, e, d, c, pre + d, pre + c)

    def _points(self, index: slice) -> Iterator[TrajectoryPoint]:
        """The points of ``index``, from one slice of each column; ``_point`` builds one."""
        s = self.scenario
        lam, params = s.lambda_ej, s.carbon_params
        pre, committed = params.preindustrial, params.committed_delta
        for t, w, e, d in zip(self.years[index], self.wealth[index], self.emissions[index],
                              self.deltas[index]):
            c = committed(e)
            yield TrajectoryPoint(t, w, lam * w, e, d, c, pre + d, pre + c)

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
    At rate 0 every ``exp`` would be ``exp(±0.0) = 1.0``, so none is called.
    """
    if not rate:
        return [scale * 1.0] * -(-points // _EXP_BLOCK), [1.0] * min(_EXP_BLOCK, points)
    exp(rate * ((points - 1) * h))  # raises OverflowError past the float range
    inner = [exp(rate * (j * h)) for j in range(min(_EXP_BLOCK, points))]
    outer = [scale * exp(rate * (k * h)) for k in range(0, points, _EXP_BLOCK)]
    return outer, inner


class _Column(Sequence):
    """A run's column, made when read from its phases: one for a run, two for a steady state.

    Each phase is a tuple whose first item is its count of entries. An int index makes one
    entry (``_at``); iteration, a slice (a tuple), equality and the hash make the whole
    column (``_values``). The column equals any sequence of the same floats, and hashes as
    their tuple.
    """

    __slots__ = ("_points", "_phases")

    def __init__(self, *phases: tuple) -> None:
        self._points, self._phases = sum([phase[0] for phase in phases]), phases

    def __len__(self) -> int:
        return self._points

    def __getitem__(self, index: int | slice) -> float | tuple[float, ...]:
        if isinstance(index, slice):
            return tuple(self._values()[index])
        return self._at(index)

    def _phase(self, index: int) -> tuple[tuple, int]:
        """The phase of the entry at the int ``index``, and its index in that phase."""
        i = range(self._points)[index]
        for phase in self._phases:
            if i < phase[0]:
                break
            i -= phase[0]
        return phase, i

    def __iter__(self) -> Iterator[float]:
        return iter(self._values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(other) == self._points and self._values() == list(other)

    def __hash__(self) -> int:
        return hash(tuple(self._values()))

    def __repr__(self) -> str:
        return repr(tuple(self._values()))

    def __reduce__(self):
        return self.__class__, self._phases


class _YearColumn(_Column):
    """A run's years: phases ``(count, start, dt)``, whose entry ``i`` is ``start + i*dt``.

    An int start and step give int years, and a run's years are the first of any longer
    run's on the same (start, dt)."""

    __slots__ = ()

    def _at(self, index: int) -> float:
        (_, start, dt), i = self._phase(index)
        return start + i * dt

    def _values(self) -> list[float]:
        return [start + i * dt for count, start, dt in self._phases for i in range(count)]


class _ProductColumn(_Column):
    """A wealth or emissions column, each entry made from ``_exp_tables`` when read.

    Its phases are ``(count, w_outer, w_inner, carbon)``, the first ``count`` entries of
    each phase's tables. Entry ``i = k*B + j`` (``B = _EXP_BLOCK``) of a phase is
    ``w_outer[k]*w_inner[j]`` for wealth, and for emissions, whose ``carbon`` is
    ``(lam, c_outer, c_inner)`` and not None, ``lam*(c_outer[k]*c_inner[j])*(w_outer[k]
    *w_inner[j])``: the operands and order of ``_columns``' delta pass, so every entry
    has its bits.
    """

    __slots__ = ()

    def _at(self, index: int) -> float:
        return self._entry(index)[1]

    def _entry(self, index: int) -> tuple[float, float]:
        """Wealth and this column's entry at the int ``index``, from one wealth product."""
        (_, w_outer, w_inner, carbon), i = self._phase(index)
        k, j = divmod(i, _EXP_BLOCK)
        w = w_outer[k] * w_inner[j]
        if carbon is None:
            return w, w
        lam, c_outer, c_inner = carbon
        return w, lam * (c_outer[k] * c_inner[j]) * w

    def _values(self) -> list[float]:
        """The column: each phase's whole blocks made in one comprehension, cut to its count."""
        column = []
        for count, w_outer, w_inner, carbon in self._phases:
            if carbon is None:
                values = [wo * wx for wo in w_outer for wx in w_inner]
            else:
                lam, c_outer, c_inner = carbon
                inners = list(zip(w_inner, c_inner))
                values = [lam * (co * cx) * (wo * wx)
                          for wo, co in zip(w_outer, c_outer) for wx, cx in inners]
            del values[count:]
            column += values
        return column


def _columns(s: Scenario, n_steps: int, dt: float) -> tuple[Sequence[float], ...]:
    """Years, wealth, emissions and perturbation on the grid start + i*dt.

    Only the perturbation is made here, in one pass over the two ``_exp_tables``
    of wealth ``w0*exp(eta_w*i*dt)`` and of carbonization ``c0*exp(eta_c*i*dt)``:
    each step takes the emissions ``lambda*c*W`` of its start from the four
    tables and applies ``_rk4_affine``'s map to them, since the emissions grow
    at eta_w + eta_c. A constant source (eta_w == eta_c == 0) has every emission
    equal to the first, so a step there is one multiply-add, ``d + (a*d + p*e)``
    with ``p*e`` made once. Wealth and emissions are ``_ProductColumn``s over the
    same tables, and the years a ``_YearColumn``; all three are made when read.
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
    years = _YearColumn((points, start, dt))
    params = s.carbon_params
    try:
        w_outer, w_inner = _exp_tables(w0, eta_w, dt, points)
        c_outer, c_inner = _exp_tables(c0, eta_c, dt, points)
        # The map's source grows at eta_w + eta_c, which can overflow over one
        # step even where neither column does.
        a, p = _rk4_affine(dt, params.kappa_a, params.sigma, eta_w + eta_c)
    except OverflowError:
        raise DomainError(
            f"wealth or carbonization growth overflows a float over a"
            f" {years[-1] - start:g}-year horizon at eta_w={eta_w!r}, eta_c={eta_c!r}"
        ) from None
    wealth = _ProductColumn((points, w_outer, w_inner, None))
    emissions = _ProductColumn((points, w_outer, w_inner, (lam, c_outer, c_inner)))
    d = s.delta0
    if eta_w == eta_c == 0:  # a constant source: every emission is the first
        e = emissions[0]
        pe = p * e
        deltas = [d, *[d := d + (a * d + pe) for _ in range(n_steps)]]
    else:
        # Whole blocks, then cut to the grid: the up to 32 updates past its end are
        # dropped unread, and one that overflows there is only an inf or a nan.
        inners = list(zip(w_inner, c_inner))
        deltas = [d, *[d := d + (a * d + p * (lam * (co * cx) * (wo * wx)))
                       for wo, co in zip(w_outer, c_outer) for wx, cx in inners]]
        del deltas[points:]
        e = emissions[-1]
    d = deltas[-1]
    if d != d or e != e:  # nan: one check for the whole run
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
    run's points do not depend on its horizon. The concentration
    perturbation takes classical RK4 steps along the exponential emissions
    path lambda*c*W; each step is applied as RK4's one-step affine map
    (``_rk4_affine``), whose two coefficients are computed once per run, so
    no midpoint emissions are sampled. Only the perturbation is stored: the
    years are made from the start and the step, and the wealth and emissions
    from the tables, when read, and the trajectory, the sequence of its
    points, builds no ``TrajectoryPoint`` until one is indexed, iterated or
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


def curve_grid(from_w: float, to_w: float, points: int) -> list[float]:
    """``points`` evenly spaced W from ``from_w`` to ``to_w``, T$2010, for ``committed_curve``.

    Bounds that are not finite, or not 0 < from_w < to_w, and a count outside 2 to
    ``MAX_GRID_POINTS`` are refused before any point is built."""
    not_finite = [name for name, value in (("from_w", from_w), ("to_w", to_w))
                  if not finite(value)]
    if not_finite:
        raise DomainError(f"curve bounds must be finite: {', '.join(not_finite)}")
    if not (0 < from_w < to_w and integral(points) and 2 <= points <= MAX_GRID_POINTS):
        raise DomainError(f"curve needs 0 < from_w < to_w and 2 to {MAX_GRID_POINTS} points")
    step = (to_w - from_w) / (points - 1)
    return [from_w + i * step for i in range(int(points))]


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
    years, wealth, emissions, deltas = _columns(s, time_grid(span, s.dt)[0], s.dt)
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
        delta0=deltas[-1],
    )
    tail_years, tail_wealth, tail_emissions, tail_deltas = _columns(frozen, tail_steps, s.dt)
    # The head's last point is the tail's first. Years, wealth and emissions stay made
    # when read: each is the head's one phase less that point, then the tail's phase.
    years, wealth, emissions = (
        head.__class__((len(head) - 1, *head._phases[0][1:]), *tail._phases)
        for head, tail in ((years, tail_years), (wealth, tail_wealth), (emissions, tail_emissions)))
    return SteadyStateResult(
        trajectory=Trajectory(frozen, years, wealth, emissions, deltas[:-1] + tail_deltas),
        freeze_year=freeze_year,
        freeze_wealth=frozen.w0,
        asymptote_delta=s.carbon_params.committed_delta(tail_emissions[0]),
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
    _require_step(dt)
    if not (finite(delta0) and delta0 >= 0):
        raise DomainError("initial perturbation must be finite and non-negative,"
                          f" got {shown(delta0)}")
    last = emissions.last_year if end_year is None else end_year
    if not (integral(last) and emissions.first_year <= last <= emissions.last_year + 1):
        raise DomainError(
            f"end_year must be an int in [{emissions.first_year}, {emissions.last_year + 1}],"
            f" got {shown(end_year)}"
        )
    last = int(last)
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
