"""Growth-rate estimation, the closed growth identities, carbonization and Kaya.

Every period rate is the endpoint log rate ln(x(t1)/x(t0))/(t1-t0), so the
identity eta_Y = eta_E + eta_eps and the Kaya decomposition hold exactly.
Every series value is positive, so every endpoint ratio is defined; eta_i, the
growth of Y/W, reads W at each end of its period and the year before.
A period statistic of a ratio (productivity Y/E, carbonization C/E, the
emissions/wealth ratio C/W) reads only its period, through one reader,
``_ratio_window``.
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
    require_every_year,
    sample_std,
)
from .units import Unit, to_unit


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


def _log_rate(ratio: float, p: Period) -> float:
    """ln(ratio) per year of ``p``; DomainError when the ratio left the float range."""
    if not 0.0 < ratio < math.inf:
        raise DomainError(f"log growth over {p} is not finite: the endpoint ratio is {ratio!r}")
    return math.log(ratio) / p.span


def growth_rate(s: AnnualSeries, p: Period) -> float:
    """Endpoint log growth of ``s`` over the closed period ``p``, in 1/yr."""
    if not (s.has_year(p.start_year) and s.has_year(p.end_year)):
        raise EmptySlice(f"series does not cover both endpoints of {p}")
    return _log_rate(s.value_at(p.end_year) / s.value_at(p.start_year), p)


def _in_ej(s: AnnualSeries, values: Sequence[float]) -> Sequence[float]:
    """``values`` read from ``s``; an energy series' are read in EJ/yr, each
    converted on its own, so every ratio to energy divides by the same bits."""
    if s.kind is not SeriesKind.ENERGY:
        return values
    return [to_unit(v, s.unit, Unit.EJ_PER_YR) for v in values]


def _ratio_window(
    numerator: AnnualSeries, denominator: AnnualSeries, p: Period, what: str
) -> list[float]:
    """Per-year numerator/denominator over every year of ``p``.

    The denominator is read through ``_in_ej``. Raises EmptySlice unless both
    series hold every year of ``p``, and DomainError for a ratio that is 0 or
    not finite.
    """
    try:
        years, n_values, d_values = aligned_values(numerator, denominator, p)
    except EmptySlice:
        raise EmptySlice(f"no {what} inside {p}") from None
    require_every_year(years, p, what)
    window = []
    for year, n, d in zip(years, n_values, _in_ej(denominator, d_values)):
        ratio = n / d if d else math.inf  # a GW value converted to EJ/yr may underflow to 0
        if not 0.0 < ratio < math.inf:
            raise DomainError(f"{what}: {n!r}/{d!r} in {year} is not a positive finite ratio")
        window.append(ratio)
    return window


def _eta_i(w: AnnualSeries, p: Period) -> float:
    """Endpoint log growth of Y/W over ``p``, read from W alone: accumulation
    makes Y(t) = W(t) - W(t-1). W strictly increases, so each Y/W is in (0, 1]."""
    ends = (p.start_year - 1, p.start_year, p.end_year - 1, p.end_year)
    try:
        before0, w0, before1, w1 = [w.value_at(year) for year in ends]
    except EmptySlice as exc:
        raise EmptySlice(f"eta_i over {p} reads W a year before each end: {exc}") from None
    return _log_rate(((w1 - before1) / w1) / ((w0 - before0) / w0), p)


def rates_table(
    gdp: AnnualSeries,
    energy: AnnualSeries,
    wealth: WealthSeries,
    periods: Sequence[Period],
) -> list[RatesRow]:
    """Measured and derived growth rates for each period.

    The scaling lambda is held at its mean over the full overlap of the
    energy and wealth series, so lambda_eps, the period mean of lambda times
    the productivity Y/E (EJ/yr per T$ times T$ per EJ, a rate per year), is
    also the energy-demand growth implied by a constant scaling.
    """
    lam_series = scaling_series(energy, wealth)
    full = Period(lam_series.first_year, lam_series.last_year)
    scale = scaling_stats(lam_series, full).mean
    lam_ej = to_unit(scale.value, scale.unit, Unit.EJ_PER_YR_PER_TUSD)
    rows = []
    for p in periods:
        eta_w, eta_e = growth_rate(wealth.series, p), growth_rate(energy, p)
        eps = _ratio_window(gdp, energy, p, "productivity series")
        lambda_eps = lam_ej * mean(eps)
        if lambda_eps == math.inf:
            raise DomainError(f"lambda*eps over {p} exceeds the float range")
        rows.append(
            RatesRow(
                period=p,
                eta_w=eta_w,
                eta_e=eta_e,
                lambda_eps=lambda_eps,
                eta_i=_eta_i(wealth.series, p),
                eta_eps=_log_rate(eps[-1] / eps[0], p),
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


def carbonization(
    emissions: AnnualSeries,
    energy: AnnualSeries,
    p: Period,
    wealth: WealthSeries,
    params: CarbonCycleParams = CarbonCycleParams(),
) -> CarbonizationEstimate:
    """Period statistics of carbon intensity and of the emissions/wealth scaling.

    Raises EmptySlice unless both ratios hold every year of ``p``.
    """
    intensity = _ratio_window(emissions, energy, p, "carbonization series")
    eta_c = _log_rate(intensity[-1] / intensity[0], p)
    per_wealth = _ratio_window(emissions, wealth.series, p, "emissions/wealth overlap")
    in_window = [r * params.kappa_a * 1e3 for r in per_wealth]  # per quadrillion = 1000 T$
    return CarbonizationEstimate(
        period=p,
        c=mean(intensity),
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
    """Endpoint log growth of the per-year ratio of two aligned series over ``p``.

    The denominator is read through ``_in_ej``, as ``_ratio_window`` reads it,
    so this equals the log rate between the ends of that window bit for bit.
    """
    ends = (p.start_year, p.end_year)
    try:
        n0, n1 = [numerator.value_at(year) for year in ends]
        d0, d1 = _in_ej(denominator, [denominator.value_at(year) for year in ends])
    except EmptySlice:
        raise EmptySlice(f"ratio series does not cover both endpoints of {p}") from None
    try:
        ratio = (n1 / d1) / (n0 / d0)
    except ZeroDivisionError:  # a denominator, or the first year's ratio, is 0
        ratio = math.inf
    return _log_rate(ratio, p)


def kaya_decomposition(
    pop: AnnualSeries,
    gdp: AnnualSeries,
    energy: AnnualSeries,
    emissions: AnnualSeries,
    p: Period,
) -> KayaComponents:
    """Decompose emissions growth into population, affluence, productivity and
    carbonization rates."""
    return KayaComponents(
        period=p,
        eta_pop=growth_rate(pop, p),
        eta_affluence=_ratio_growth(gdp, pop, p),
        eta_productivity=_ratio_growth(gdp, energy, p),
        eta_carbonization=_ratio_growth(emissions, energy, p),
        eta_emissions=growth_rate(emissions, p),
    )
