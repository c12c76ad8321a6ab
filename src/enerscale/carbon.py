"""Emissions scaling, the revised Kaya decomposition, and the one-box atmosphere.

The atmosphere model is a single linear sink: d(delta)/dt = kappa*C - sigma*delta,
where delta is the CO2 concentration perturbation above the pre-industrial
baseline. The sink rate sigma acts on the instantaneous perturbation (the
observations behind its default value used decadal averages; the difference
is a documented simplification).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence, Union

from .errors import DomainError, EmptySlice
from .growth import energy_productivity, growth_rate
from .reconstruction import WealthSeries
from .records import Record
from .series import (
    AnnualSeries,
    Period,
    SeriesKind,
    aligned_values,
    mean,
    sample_std,
    slice_series,
)
from .units import Quantity, Unit, to_unit

#: Default linear sink rate band supported by the observational record.
SIGMA_BAND = (0.019, 0.027)

_NEGATIVE_PERTURBATION = "concentration perturbation cannot be negative"

#: sigma*dt past which an RK4 step amplifies the perturbation: the root of
#: R(-x) = 1 for RK4's stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.
_RK4_STABILITY_LIMIT = 2.785293563405282


class CarbonCycleParams(Record):
    """Sink rate (1/yr), airborne conversion (ppmv/GtC) and baseline (ppmv)."""

    __slots__ = _fields = ("sigma", "kappa_a", "preindustrial", "allow_sigma_out_of_band")
    sigma: float
    kappa_a: float
    preindustrial: float
    allow_sigma_out_of_band: bool

    def __init__(
        self,
        sigma: float = 0.023,
        kappa_a: float = 0.47,
        preindustrial: float = 275.0,
        allow_sigma_out_of_band: bool = False,
    ) -> None:
        if not all(math.isfinite(v) and v > 0 for v in (sigma, kappa_a, preindustrial)):
            raise DomainError("carbon-cycle parameters must be finite and strictly positive")
        low, high = SIGMA_BAND
        if not allow_sigma_out_of_band and not (low <= sigma <= high):
            raise DomainError(
                f"sigma={sigma} outside the supported band {SIGMA_BAND}; "
                "pass allow_sigma_out_of_band=True to override"
            )
        super().__init__(sigma, kappa_a, preindustrial, allow_sigma_out_of_band)

    def committed_delta(self, emissions: float) -> float:
        """kappa*C/sigma, ppmv: the perturbation at which emissions C (GtC/yr) balance the sink."""
        return self.kappa_a * emissions / self.sigma


class AtmosphereState(Record):
    """CO2 perturbation above the pre-industrial baseline at a point in time."""

    __slots__ = _fields = ("year", "delta_co2")
    year: float
    delta_co2: float

    def __init__(self, year: float, delta_co2: float) -> None:
        super().__init__(year, delta_co2)
        if not (math.isfinite(year) and math.isfinite(delta_co2)):
            raise DomainError(f"atmosphere state must be finite, got {self}")
        if delta_co2 < 0:
            raise DomainError(_NEGATIVE_PERTURBATION)


class CarbonizationEstimate(Record):
    """Carbonization of energy and the emissions-to-wealth scaling over a period.

    ``c`` is the period-mean carbon intensity of primary energy, GtC per EJ.
    ``lambda_c`` follows the tabulated convention for the emissions/wealth
    scaling: the concentration source per unit cumulative production,
    kappa_a * C / W, in ppmv yr^-1 per quadrillion 2010 USD. Dividing by
    kappa_a recovers the emission-mass form in GtC yr^-1 per quadrillion.
    """

    __slots__ = _fields = ("period", "c", "eta_c", "lambda_c", "lambda_c_std")
    period: Period
    c: float
    eta_c: float
    lambda_c: float
    lambda_c_std: float

    def __init__(
        self, period: Period, c: float, eta_c: float, lambda_c: float, lambda_c_std: float
    ) -> None:
        if c <= 0:
            raise DomainError("carbonization must be positive")
        super().__init__(period, c, eta_c, lambda_c, lambda_c_std)


def carbonization_series(emissions: AnnualSeries, energy: AnnualSeries) -> AnnualSeries:
    """Per-year carbon intensity C/E in GtC per EJ."""
    years, c_values, e_values = aligned_values(emissions, energy)
    unit = energy.unit
    intensity = tuple(c / to_unit(e, unit, Unit.EJ_PER_YR) for c, e in zip(c_values, e_values))
    return AnnualSeries(SeriesKind.CARBONIZATION, Unit.GTC_PER_EJ, years, intensity)


def carbonization(
    emissions: AnnualSeries,
    energy: AnnualSeries,
    p: Period,
    wealth: WealthSeries,
    params: CarbonCycleParams = CarbonCycleParams(),
) -> CarbonizationEstimate:
    """Period statistics of carbon intensity and of the emissions/wealth scaling."""
    c_series = carbonization_series(emissions, energy)
    c_window = slice_series(c_series, p)
    eta_c = growth_rate(c_series, p)
    try:
        _, c_values, w_values = aligned_values(
            slice_series(emissions, p), slice_series(wealth.series, p)
        )
    except EmptySlice:
        raise EmptySlice(f"no emissions/wealth overlap inside {p}") from None
    in_window = [
        (kc / w) * params.kappa_a * 1e3  # per quadrillion = 1000 T$
        for kc, w in zip(c_values, w_values)
    ]
    return CarbonizationEstimate(
        period=p,
        c=mean(c_window.values),
        eta_c=eta_c,
        lambda_c=mean(in_window),
        lambda_c_std=sample_std(in_window),
    )


class KayaComponents(Record):
    """Endpoint growth rates of the Kaya factors over one period, fraction/yr.

    ``residual`` is eta_pop + eta_affluence - eta_productivity + eta_carbonization
    minus the measured emissions growth; it vanishes identically for endpoint
    log rates.
    """

    __slots__ = _fields = (
        "period", "eta_pop", "eta_affluence", "eta_productivity", "eta_carbonization",
        "eta_emissions",
    )
    period: Period
    eta_pop: float
    eta_affluence: float
    eta_productivity: float
    eta_carbonization: float
    eta_emissions: float

    @property
    def residual(self) -> float:
        return (
            self.eta_pop
            + self.eta_affluence
            - self.eta_productivity
            + self.eta_carbonization
            - self.eta_emissions
        )


def _ratio_growth(numerator: AnnualSeries, denominator: AnnualSeries, p: Period) -> float:
    """Endpoint log growth of the per-year ratio of two aligned series over ``p``."""
    try:
        years, num, den = aligned_values(slice_series(numerator, p), slice_series(denominator, p))
    except EmptySlice:
        years, num, den = (), (), ()
    if not years or years[0] != p.start_year or years[-1] != p.end_year:
        raise EmptySlice(f"ratio series does not cover both endpoints of {p}")
    return math.log((num[-1] / den[-1]) / (num[0] / den[0])) / p.span


def kaya_decomposition(
    pop: AnnualSeries,
    gdp: AnnualSeries,
    energy: AnnualSeries,
    emissions: AnnualSeries,
    p: Period,
) -> KayaComponents:
    """Decompose emissions growth into population, affluence, productivity and
    carbonization rates."""
    eps = energy_productivity(gdp, energy)
    c_series = carbonization_series(emissions, energy)
    return KayaComponents(
        period=p,
        eta_pop=growth_rate(pop, p),
        eta_affluence=_ratio_growth(gdp, pop, p),
        eta_productivity=growth_rate(eps, p),
        eta_carbonization=growth_rate(c_series, p),
        eta_emissions=growth_rate(emissions, p),
    )


EmissionsRate = Union[float, Callable[[float], float]]


def _rk4_deltas(
    delta0: float,
    at_grid: Sequence[float],
    at_mid: Iterable[float],
    dt: float,
    kappa: float,
    sigma: float,
) -> list[float]:
    """Classical RK4 for d(delta)/dt = kappa*C(t) - sigma*delta on a fixed step.

    ``at_grid`` is the source C at the n+1 grid times and ``at_mid`` at the n
    step midpoints (consumed lazily). Returns the n+1 perturbations starting
    with ``delta0``. ``step_atmosphere`` steps through this loop for any
    source; the scenario engine and spin-up take one step of it in
    ``_rk4_affine`` and apply that step as an affine map. Raises DomainError
    when sigma*dt is past RK4's stability limit, where |R(-sigma*dt)| > 1 and
    the steps grow without bound instead of relaxing.
    """
    if sigma * dt > _RK4_STABILITY_LIMIT:
        raise DomainError(
            f"sigma*dt = {sigma * dt!r} is past RK4's stability limit"
            f" {_RK4_STABILITY_LIMIT:.4f} (|R(-sigma*dt)| > 1); use a smaller dt"
        )
    deltas = [delta0]
    append = deltas.append
    d = delta0
    grid = iter(at_grid)
    k_start = kappa * next(grid)
    for c_end, c_mid in zip(grid, at_mid):
        k_mid = kappa * c_mid
        k_end = kappa * c_end
        k1 = k_start - sigma * d
        k2 = k_mid - sigma * (d + dt * k1 / 2.0)
        k3 = k_mid - sigma * (d + dt * k2 / 2.0)
        k4 = k_end - sigma * (d + dt * k3)
        d = d + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if d < 0:
            raise DomainError(_NEGATIVE_PERTURBATION)
        append(d)
        k_start = k_end
    return deltas


def _rk4_affine(dt: float, kappa: float, sigma: float, growth: float = 0.0) -> tuple[float, float]:
    """One ``_rk4_deltas`` step for a source growing at ``growth``, as ``(a, p)``.

    RK4 is linear in delta and in the source, so for C(t) = C*exp(growth*(t - t0))
    across the step it maps delta to ``delta + (a*delta + p*C)`` exactly, up to
    rounding. ``a = R(z) - 1`` with ``z = -sigma*dt`` and R RK4's stability
    polynomial, nested so that no bits cancel; ``p`` is one ``_rk4_deltas``
    step from delta = 0 with grid sources (1, e^{growth*dt}) and midpoint
    source e^{growth*dt/2}.
    """
    z = -sigma * dt
    a = z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    grid, mid = (1.0, math.exp(growth * dt)), (math.exp(growth * dt / 2.0),)
    return a, _rk4_deltas(0.0, grid, mid, dt, kappa, sigma)[-1]


def step_atmosphere(
    state: AtmosphereState,
    emissions_rate: EmissionsRate,
    params: CarbonCycleParams = CarbonCycleParams(),
    dt: float = 0.25,
) -> AtmosphereState:
    """Advance the perturbation one step with classical fourth-order Runge-Kutta.

    ``emissions_rate`` is either a constant (GtC/yr, held fixed across the
    step) or a callable of the year, sampled at the substage times. For
    constant emissions the exact solution
    delta(t) = (kappa*C/sigma)(1 - exp(-sigma t)) + delta0 exp(-sigma t)
    is matched at fourth order in dt.
    """
    if not 0.0 < dt <= 1.0:
        raise DomainError("dt must be in (0, 1] years")
    t0 = state.year
    if callable(emissions_rate):
        grid = (emissions_rate(t0), emissions_rate(t0 + dt))
        mid = (emissions_rate(t0 + dt / 2.0),)
    else:
        constant = float(emissions_rate)
        grid, mid = (constant, constant), (constant,)
    deltas = _rk4_deltas(state.delta_co2, grid, mid, dt, params.kappa_a, params.sigma)
    return AtmosphereState(year=t0 + dt, delta_co2=deltas[-1])


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
    per_tusd = to_unit(scale.value, scale.unit, Unit.EJ_PER_YR_PER_TUSD) * c.value
    w_values = list(map(float, w_values))
    if not all(0.0 <= w < math.inf for w in w_values):
        raise DomainError("cumulative production must be finite and non-negative")
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
    lam_ej = to_unit(scale.value, scale.unit, Unit.EJ_PER_YR_PER_TUSD)
    return params.sigma / (params.kappa_a * lam_ej)


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
