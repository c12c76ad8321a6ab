"""Growth-rate estimation and the closed growth identities.

The default estimator is the endpoint log rate ln(x(t1)/x(t0))/(t1-t0): the
identity eta_Y = eta_E + eta_eps then holds exactly by log algebra. An OLS
estimator on log values is available as well, since period-average growth
rates can reasonably be read either way; both are reported in the docs.
"""

from __future__ import annotations

from enum import Enum
import math
from typing import Sequence

from .errors import DomainError, EmptySlice
from .reconstruction import WealthSeries
from .records import Record
from .series import (
    AnnualSeries,
    Period,
    SeriesKind,
    aligned_values,
    log_slope,
    mean,
    slice_series,
)
from .units import Quantity, Unit, to_unit


class GrowthMethod(str, Enum):
    ENDPOINT_LOG = "endpoint_log"
    OLS_LOG = "ols_log"


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


def growth_rate(
    s: AnnualSeries, p: Period, method: GrowthMethod = GrowthMethod.ENDPOINT_LOG
) -> float:
    """Average fractional growth of ``s`` over the closed period ``p``, in 1/yr."""
    if method is GrowthMethod.ENDPOINT_LOG:
        if not (s.has_year(p.start_year) and s.has_year(p.end_year)):
            raise EmptySlice(f"series does not cover both endpoints of {p}")
        start, end = s.value_at(p.start_year), s.value_at(p.end_year)
        if start <= 0.0 or end <= 0.0:
            raise DomainError(f"log growth over {p} needs positive endpoint values")
        return math.log(end / start) / p.span
    window = slice_series(s, p)
    if len(window) < 2:
        raise EmptySlice(f"need at least two points in {p} for an OLS rate")
    return log_slope(window.years, window.values)


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
    method: GrowthMethod = GrowthMethod.ENDPOINT_LOG,
) -> list[RatesRow]:
    """Measured and derived growth rates for each period.

    The scaling lambda is held at its mean over the full overlap of the
    energy and wealth series.
    """
    # Imported here, not at module level, so that loading growth (as
    # ``project`` does through carbon) does not load scaling.
    from .scaling import scaling_series, scaling_stats

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
                eta_w=growth_rate(wealth.series, p, method),
                eta_e=growth_rate(energy, p, method),
                lambda_eps=mean_scaled_productivity(scale, eps, p),
                eta_i=growth_rate(eta_w_series, p, method),
                eta_eps=growth_rate(eps, p, method),
                eta_y=growth_rate(gdp, p, method),
            )
        )
    return rows
