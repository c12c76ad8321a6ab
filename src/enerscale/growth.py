"""Growth-rate estimation, the closed growth identities, carbonization and Kaya.

Every period rate is the endpoint log rate ln(x(t1)/x(t0))/(t1-t0), so the
identity eta_Y = eta_E + eta_eps and the Kaya decomposition hold exactly.
"""

from __future__ import annotations

import math
from typing import Sequence

from .carbon import CarbonCycleParams
from .errors import DomainError, EmptySlice
from .reconstruction import WealthSeries
from .records import Record
from .scaling import scaling_series, scaling_stats
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


class RatesRow(Record):
    """One period's measured and derived growth rates, in fraction/yr.

    ``predicted_eta_y`` is constructed as lambda_eps + eta_eps, never measured.
    """

    __slots__ = _fields = ("period", "eta_w", "eta_e", "lambda_eps", "eta_i", "eta_eps", "eta_y")
    period: Period
    eta_w: float
    eta_e: float
    lambda_eps: float
    eta_i: float
    eta_eps: float
    eta_y: float

    @property
    def predicted_eta_y(self) -> float:
        return self.lambda_eps + self.eta_eps


def growth_rate(s: AnnualSeries, p: Period) -> float:
    """Endpoint log growth of ``s`` over the closed period ``p``, in 1/yr."""
    if not (s.has_year(p.start_year) and s.has_year(p.end_year)):
        raise EmptySlice(f"series does not cover both endpoints of {p}")
    start, end = s.value_at(p.start_year), s.value_at(p.end_year)
    if start <= 0.0 or end <= 0.0:
        raise DomainError(f"log growth over {p} needs positive endpoint values")
    return math.log(end / start) / p.span


def energy_productivity(gdp: AnnualSeries, energy: AnnualSeries) -> AnnualSeries:
    """Per-year production per unit energy, in T$2010 per EJ."""
    years, y_values, e_values = aligned_values(gdp, energy)
    unit = energy.unit
    eps = tuple(y / to_unit(e, unit, Unit.EJ_PER_YR) for y, e in zip(y_values, e_values))
    return AnnualSeries(SeriesKind.PRODUCTIVITY, Unit.TUSD_PER_EJ, years, eps)


def mean_scaled_productivity(scale: Quantity, eps: AnnualSeries, p: Period) -> float:
    """Period mean of lambda * eps(t), a fractional rate per year.

    ``scale`` is held fixed (conventionally at its full-sample mean) while the
    productivity series varies; EJ/yr per T$ times T$/EJ reduces to 1/yr. This
    is also the energy-demand growth implied by constant scaling.
    """
    lam_ej = to_unit(scale.value, scale.unit, Unit.EJ_PER_YR_PER_TUSD)
    window = slice_series(eps, p)
    return lam_ej * mean(window.values)


def wealth_growth_series(wealth: WealthSeries) -> AnnualSeries:
    """Per-year fractional wealth growth Y(t)/W(t), from first differences.

    The accumulation convention makes the first difference of W equal Y
    exactly, so this needs no external production series. The series starts
    one year after the wealth series does.
    """
    w = wealth.series.values
    rates = tuple((b - a) / b for a, b in zip(w, w[1:]))
    return AnnualSeries(SeriesKind.RATE, Unit.PER_YR, wealth.series.years[1:], rates)


def rates_table(
    gdp: AnnualSeries,
    energy: AnnualSeries,
    wealth: WealthSeries,
    periods: Sequence[Period],
) -> list[RatesRow]:
    """Measured and derived growth rates for each period.

    The scaling lambda is held at its mean over the full overlap of the
    energy and wealth series.
    """
    lam_series = scaling_series(energy, wealth)
    full = Period(lam_series.first_year, lam_series.last_year)
    scale = scaling_stats(lam_series, full).mean
    eps = energy_productivity(gdp, energy)
    eta_w_series = wealth_growth_series(wealth)
    rows = []
    for p in periods:
        rows.append(
            RatesRow(
                period=p,
                eta_w=growth_rate(wealth.series, p),
                eta_e=growth_rate(energy, p),
                lambda_eps=mean_scaled_productivity(scale, eps, p),
                eta_i=growth_rate(eta_w_series, p),
                eta_eps=growth_rate(eps, p),
                eta_y=growth_rate(gdp, p),
            )
        )
    return rows


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
        _, c_values, w_values = aligned_values(emissions, wealth.series, p)
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
    ends = (p.start_year, p.end_year)
    try:
        n0, n1, d0, d1 = [s.value_at(year) for s in (numerator, denominator) for year in ends]
    except EmptySlice:
        raise EmptySlice(f"ratio series does not cover both endpoints of {p}") from None
    return math.log((n1 / d1) / (n0 / d0)) / p.span


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
