"""Estimation of the energy-to-cumulative-production scaling.

The central empirical object is the per-year ratio of primary energy
consumption to accumulated production, reported in gigawatts per trillion
2010 US dollars. Statistics use the sample (n-1) standard deviation and a
normal 1.96 factor for the 95% confidence halfwidth; periods are closed
intervals including both endpoint years.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .errors import DomainError
from .reconstruction import WealthSeries, cumulative_production
from .records import Record
from .series import (
    AnnualSeries,
    Period,
    SeriesKind,
    aligned_values,
    log_slope,
    mean,
    period_values,
    sample_std,
)
from .units import Quantity, Unit, finite, shown, to_unit

#: The period of the paper's headline scaling, lambda = E/W = 5.9 +- 0.1 GW per T$2010.
HEADLINE_PERIOD = Period(1980, 2017)


class ScalingEstimate(Record):
    """Scaling statistics over a named period."""

    __slots__ = _fields = ("period", "mean", "std", "ci95_halfwidth", "trend_per_year")
    period: Period
    mean: Quantity
    std: Quantity
    ci95_halfwidth: Quantity
    trend_per_year: float

    def __init__(
        self,
        period: Period,
        mean: Quantity,
        std: Quantity,
        ci95_halfwidth: Quantity,
        trend_per_year: float,
    ) -> None:
        if std.value < 0 or ci95_halfwidth.value < 0:
            raise DomainError("dispersion statistics cannot be negative")
        super().__init__(period, mean, std, ci95_halfwidth, trend_per_year)


def scaling_series(energy: AnnualSeries, wealth: WealthSeries) -> AnnualSeries:
    """Per-year energy/wealth ratio in GW per T$2010 on the common years."""
    years, e_values, w_values = aligned_values(energy, wealth.series)
    unit = energy.unit
    ratios = tuple(to_unit(e, unit, Unit.GW) / w for e, w in zip(e_values, w_values))
    return AnnualSeries(SeriesKind.SCALING, Unit.GW_PER_TUSD, years, ratios)


def scaling_stats(ls: AnnualSeries, p: Period) -> ScalingEstimate:
    """Mean, sample std, normal 95% CI halfwidth and OLS log-trend over ``p``.

    Raises EmptySlice unless ``ls`` holds every year of ``p``.
    """
    values = period_values(ls, p, "scaling series")
    std = sample_std(values)
    unit = ls.unit
    return ScalingEstimate(
        period=p,
        mean=Quantity(mean(values), unit),
        std=Quantity(std, unit),
        ci95_halfwidth=Quantity(1.96 * std / math.sqrt(len(values)), unit),
        trend_per_year=log_slope(range(p.start_year, p.end_year + 1), values),
    )


def w1_sensitivity(
    gdp: AnnualSeries,
    energy: AnnualSeries,
    w1: Quantity,
    factor: float,
    p: Period = HEADLINE_PERIOD,
) -> ScalingEstimate:
    """Scaling statistics after rescaling the initial stock by ``factor``.

    Equal to ``scaling_stats(scaling_series(energy, cumulative_production(gdp,
    W(1) * factor)), p)``, but only W over ``p`` is kept as a series; when
    ``energy`` has no year there, the full series raises the same error.
    """
    if not (finite(factor) and factor > 0):
        raise DomainError(f"W(1) scaling factor must be positive and finite, got {shown(factor)}")
    first, last = max(p.start_year, gdp.first_year), min(p.end_year, gdp.last_year)
    window = p if bisect_left(energy.years, first) < bisect_right(energy.years, last) else None
    wealth = cumulative_production(gdp, Quantity(w1.value * factor, w1.unit), window)
    return scaling_stats(scaling_series(energy, wealth), p)
