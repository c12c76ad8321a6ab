"""Growth-rate estimation, the closed growth identities, carbonization and Kaya.

Every read of a series over a period goes through the package's one reader,
``series.period_values``: one series' values, or the per-year ratio of two,
over every year of the period, so a series short of a year at either end or
inside is refused. Every period rate is the endpoint log rate
ln(x(t1)/x(t0))/(t1-t0) of such a window, so the identity
eta_Y = eta_E + eta_eps and the Kaya decomposition hold exactly. eta_i, the
growth of Y/W, reads W from the year before its period's start.
"""

from __future__ import annotations

import math
from typing import Sequence

from .carbon import CarbonCycleParams
from .errors import DomainError, KindError
from .reconstruction import WealthSeries
from .records import Record
from .scaling import scaling_series, scaling_stats
from .series import AnnualSeries, Period, SeriesKind, mean, period_values, sample_std
from .units import Unit, finite, shown, to_unit


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


def _log_rate(window: Sequence[float], p: Period) -> float:
    """ln(last/first value of ``window``) per year of ``p``; DomainError when
    that ratio left the float range."""
    ratio = window[-1] / window[0]
    if not 0.0 < ratio < math.inf:
        raise DomainError(f"log growth over {p} is not finite: the endpoint ratio is {ratio!r}")
    return math.log(ratio) / p.span


def growth_rate(s: AnnualSeries, p: Period) -> float:
    """Endpoint log growth of ``s`` over the closed period ``p``, in 1/yr.

    Raises EmptySlice unless ``s`` holds every year of ``p``.
    """
    return _log_rate(period_values(s, p, f"{s.kind.value} series"), p)


def _eta_i(w: AnnualSeries, p: Period) -> float:
    """Endpoint log growth of Y/W over ``p``, read from W over [t0-1, t1]:
    accumulation makes Y(t) = W(t) - W(t-1). W strictly increases, so each
    Y/W is in (0, 1]."""
    ws = period_values(
        w, Period(p.start_year - 1, p.end_year), f"wealth series for eta_i over {p}"
    )
    return _log_rate([(ws[i] - ws[i - 1]) / ws[i] for i in (1, len(ws) - 1)], p)


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
    if (gdp.kind, energy.kind) != (SeriesKind.GDP_MER, SeriesKind.ENERGY):
        raise KindError("rates_table expects gdp_mer and energy series,"
                        f" got {gdp.kind.value} and {energy.kind.value}")
    lam_series = scaling_series(energy, wealth)
    full = Period(lam_series.first_year, lam_series.last_year)
    scale = scaling_stats(lam_series, full).mean
    lam_ej = to_unit(scale.value, scale.unit, Unit.EJ_PER_YR_PER_TUSD)
    rows = []
    for p in periods:
        eta_w, eta_e = growth_rate(wealth.series, p), growth_rate(energy, p)
        eps = period_values(gdp, p, "productivity series", per=energy)
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
                eta_eps=_log_rate(eps, p),
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
        if not (finite(c) and c > 0):
            raise DomainError(f"carbonization must be positive and finite, got {shown(c)}")
        super().__init__(period, c, eta_c, lambda_c, lambda_c_std)


def carbonization(
    emissions: AnnualSeries,
    energy: AnnualSeries,
    p: Period,
    wealth: WealthSeries,
) -> CarbonizationEstimate:
    """Period statistics of carbon intensity and of the emissions/wealth scaling.

    ``lambda_c`` converts with the kappa_a of the default ``CarbonCycleParams()``.
    Raises EmptySlice unless both ratios hold every year of ``p``.
    """
    if (emissions.kind, energy.kind) != (SeriesKind.EMISSIONS, SeriesKind.ENERGY):
        raise KindError("carbonization expects emissions and energy series,"
                        f" got {emissions.kind.value} and {energy.kind.value}")
    intensity = period_values(emissions, p, "carbonization series", per=energy)
    eta_c = _log_rate(intensity, p)
    per_wealth = period_values(emissions, p, "emissions/wealth overlap", per=wealth.series)
    kappa_a = CarbonCycleParams().kappa_a
    in_window = [r * kappa_a * 1e3 for r in per_wealth]  # per quadrillion = 1000 T$
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


def kaya_decomposition(
    pop: AnnualSeries,
    gdp: AnnualSeries,
    energy: AnnualSeries,
    emissions: AnnualSeries,
    p: Period,
) -> KayaComponents:
    """Decompose emissions growth into population, affluence, productivity and
    carbonization rates.

    Raises EmptySlice unless every series holds every year of ``p``.
    """
    kinds = (pop.kind, gdp.kind, energy.kind, emissions.kind)
    if kinds != (SeriesKind.POPULATION, SeriesKind.GDP_MER, SeriesKind.ENERGY,
                 SeriesKind.EMISSIONS):
        raise KindError("kaya_decomposition expects population, gdp_mer, energy and emissions"
                        f" series, got {', '.join(kind.value for kind in kinds)}")
    return KayaComponents(
        period=p,
        eta_pop=growth_rate(pop, p),
        eta_affluence=_log_rate(period_values(gdp, p, "affluence series", per=pop), p),
        eta_productivity=_log_rate(period_values(gdp, p, "productivity series", per=energy), p),
        eta_carbonization=_log_rate(
            period_values(emissions, p, "carbonization series", per=energy), p
        ),
        eta_emissions=growth_rate(emissions, p),
    )
