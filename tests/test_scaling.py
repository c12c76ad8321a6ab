import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from enerscale.errors import DomainError, EmptySlice, GapError, KindError
from enerscale.reconstruction import WealthSeries, cumulative_production
from enerscale.scaling import (
    ScalingEstimate,
    scaling_series,
    scaling_stats,
    w1_sensitivity,
)
from enerscale.series import AnnualSeries, Period, SeriesKind
from enerscale.units import EJ_PER_YR_PER_GW, Quantity, Unit, finite, shown


def synthetic_wealth(years, values):
    series = AnnualSeries(SeriesKind.WEALTH, Unit.TUSD, tuple(years), tuple(values))
    return WealthSeries(series, Quantity(values[0] * 0.5, Unit.TUSD))


def exact_scaling_pair(lambda_gw=4.0, n=20):
    years = tuple(range(2000, 2000 + n))
    wealth_values = tuple(100.0 * 1.02**i for i in range(n))
    energy_values = tuple(lambda_gw * w for w in wealth_values)
    wealth = synthetic_wealth(years, wealth_values)
    energy = AnnualSeries(SeriesKind.ENERGY, Unit.GW, years, energy_values)
    return energy, wealth


# ------------------------------------------------------------ exact recovery

def test_exact_scaling_recovered_with_zero_spread():
    energy, wealth = exact_scaling_pair(lambda_gw=4.0)
    stats = scaling_stats(scaling_series(energy, wealth), Period(2000, 2019))
    assert stats.mean.value == pytest.approx(4.0, rel=1e-12)
    assert stats.std.value <= 1e-12 * 4.0
    assert abs(stats.trend_per_year) < 1e-12


def test_exact_scaling_with_ej_unit():
    years = tuple(range(2000, 2010))
    wealth_values = tuple(50.0 + 3.0 * i for i in range(10))
    wealth = synthetic_wealth(years, wealth_values)
    energy = AnnualSeries(
        SeriesKind.ENERGY, Unit.EJ_PER_YR, years,
        tuple(2.5 * EJ_PER_YR_PER_GW * w for w in wealth_values),
    )
    stats = scaling_stats(scaling_series(energy, wealth), Period(2000, 2009))
    assert stats.mean.value == pytest.approx(2.5, rel=1e-12)
    assert stats.std.value <= 1e-12 * 2.5


@pytest.mark.parametrize("std, halfwidth", [(-0.1, 0.1), (0.1, -0.1)], ids=["std", "ci95"])
def test_estimate_refuses_a_negative_dispersion(std, halfwidth):
    q = lambda v: Quantity(v, Unit.GW_PER_TUSD)
    with pytest.raises(DomainError, match="dispersion statistics cannot be negative"):
        ScalingEstimate(Period(2000, 2009), q(5.9), q(std), q(halfwidth), 0.0)


@given(alpha=st.sampled_from([0.5, 2.0, 10.0]))
def test_scale_invariance(alpha):
    """Rescaling production and the initial stock rescales the ratio inversely."""
    years = tuple(range(1, 11))
    gdp_values = (1.0, 1.2, 1.5, 1.9, 2.0, 2.4, 2.8, 3.0, 3.3, 3.7)
    gdp = AnnualSeries(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, gdp_values)
    energy = AnnualSeries(SeriesKind.ENERGY, Unit.GW, years, tuple(10.0 + i for i in range(10)))
    base = scaling_series(energy, cumulative_production(gdp, Quantity(5.0, Unit.TUSD)))
    scaled_gdp = AnnualSeries(
        SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, tuple(alpha * v for v in gdp_values)
    )
    scaled = scaling_series(
        energy, cumulative_production(scaled_gdp, Quantity(5.0 * alpha, Unit.TUSD))
    )
    np.testing.assert_allclose(
        np.asarray(scaled.values), np.asarray(base.values) / alpha, rtol=1e-12
    )


def test_scaling_values_positive(snapshot, recon):
    lam = scaling_series(snapshot.energy, recon.wealth)
    assert min(lam.values) > 0


# ---------------------------------------------------------- snapshot numbers

def test_snapshot_scaling_mean(snapshot, recon):
    lam = scaling_series(snapshot.energy, recon.wealth)
    stats = scaling_stats(lam, Period(1980, 2017))
    assert 5.7 <= stats.mean.value <= 6.1
    assert stats.std.value <= 0.25
    assert stats.ci95_halfwidth.value == pytest.approx(
        1.96 * stats.std.value / np.sqrt(38), rel=1e-12
    )
    # secular drift is small and negative
    assert -0.005 < stats.trend_per_year < 0.0


def test_snapshot_first_decade(snapshot, recon):
    lam = scaling_series(snapshot.energy, recon.wealth)
    stats = scaling_stats(lam, Period(1980, 1990))
    assert stats.mean.value == pytest.approx(6.04, abs=0.2)


def test_single_year_ratio_against_hand_division(snapshot, recon):
    """Oracle: rebuild W(2010) with an independent cumulative sum over the
    reconstructed production and divide the 2010 energy value by hand."""
    lam = scaling_series(snapshot.energy, recon.wealth)
    years = np.array(recon.gdp.years)
    w_2010 = recon.w1.value + np.cumsum(recon.gdp.values)[years == 2010][0]
    expected = snapshot.energy.value_at(2010) / EJ_PER_YR_PER_GW / w_2010
    assert lam.value_at(2010) == pytest.approx(expected, rel=1e-12)


def test_constant_series_stats():
    s = AnnualSeries(SeriesKind.SCALING, Unit.GW_PER_TUSD, (2000, 2001, 2002), (5.0, 5.0, 5.0))
    stats = scaling_stats(s, Period(2000, 2002))
    assert stats.mean.value == 5.0
    assert stats.std.value == 0.0
    assert stats.trend_per_year == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("years, message", [
    ((2000, 2001, 2002), "scaling series has 3 of the 6 years of 2000-2005; 2003 is missing"),
    ((2000, 2001, 2002, 2004, 2005), "has 5 of the 6 years of 2000-2005; 2003 is missing"),
    ((2003, 2004, 2005, 2006), "has 3 of the 6 years of 2000-2005; 2000 is missing"),
], ids=["ends-early", "gap-inside", "starts-late"])
def test_stats_refuse_a_window_short_of_the_period(years, message):
    """A partial window used to give its own mean; a single year, a std, CI and trend of 0."""
    s = AnnualSeries(SeriesKind.SCALING, Unit.GW_PER_TUSD, years, [5.0 + 0.1 * y for y in years])
    with pytest.raises(EmptySlice, match=re.escape(message)):
        scaling_stats(s, Period(2000, 2005))


# -------------------------------------------------------------- sensitivity

def test_sensitivity_identity_factor(snapshot, recon):
    base = scaling_stats(
        scaling_series(snapshot.energy, recon.wealth), Period(1980, 2017)
    )
    same = w1_sensitivity(recon.gdp, snapshot.energy, recon.w1, 1.0)
    assert same.mean.value == pytest.approx(base.mean.value, rel=1e-12)


def test_sensitivity_to_doubled_initial_stock(snapshot, recon):
    doubled = w1_sensitivity(recon.gdp, snapshot.energy, recon.w1, 2.0)
    halved = w1_sensitivity(recon.gdp, snapshot.energy, recon.w1, 0.5)
    assert doubled.mean.value == pytest.approx(5.2, abs=0.2)
    assert halved.mean.value == pytest.approx(6.2, abs=0.2)



@pytest.mark.parametrize("factor", [pytest.param(10**400, id="int-too-large"),
                                    math.nan, math.inf])
def test_sensitivity_rejects_a_factor_too_large_for_a_float(snapshot, recon, factor):
    """10**400 used to raise a raw OverflowError from ``w1.value * factor``; NaN got
    past ``factor <= 0`` and failed later, inside ``Quantity``."""
    with pytest.raises(DomainError, match="factor must be positive and finite"):
        w1_sensitivity(recon.gdp, snapshot.energy, recon.w1, factor)


def full_series_sensitivity(gdp, energy, w1, factor, p):
    """What ``w1_sensitivity`` computes, over the whole wealth series."""
    if not (finite(factor) and factor > 0):
        raise DomainError(f"W(1) scaling factor must be positive and finite, got {shown(factor)}")
    wealth = cumulative_production(gdp, Quantity(w1.value * factor, w1.unit))
    return scaling_stats(scaling_series(energy, wealth), p)


def sensitivity_outcome(*args):
    """The estimate, or the type and message of the error, from both computations."""
    results = []
    for compute in (w1_sensitivity, full_series_sensitivity):
        try:
            results.append(compute(*args))
        except Exception as exc:
            results.append((type(exc), str(exc)))
    return results


@pytest.mark.parametrize("factor", [0.25, 0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("period", [Period(1980, 1990), Period(2010, 2017), Period(1980, 2017)])
def test_sensitivity_equals_the_full_series_computation(snapshot, recon, factor, period):
    window, full = sensitivity_outcome(recon.gdp, snapshot.energy, recon.w1, factor, period)
    assert isinstance(window, ScalingEstimate)
    assert window == full


def tiny_then_large_gdp():
    """Production that W(1) = 1e17 swallows for 1900 years, then outgrows."""
    years = tuple(range(1, 2018))
    return AnnualSeries(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years,
                        tuple(1e-3 if y < 1900 else 1e6 for y in years))


ENERGY_1980_2017 = AnnualSeries(SeriesKind.ENERGY, Unit.GW, tuple(range(1980, 2018)),
                                tuple(1e4 + y for y in range(38)))
YEARS_1_TO_2017 = tuple(range(1, 2018))


@pytest.mark.parametrize(
    "gdp, w1, factor, period, error, message",
    [
        pytest.param(AnnualSeries(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, (1, 2, 1980, 2017),
                                  (1.0, 1.0, 1.0, 1.0)),
                     250.0, 1.0, Period(1980, 2017), GapError, "has interior gaps", id="gap"),
        pytest.param(AnnualSeries(SeriesKind.GDP_PPP, Unit.TUSD_PER_YR, YEARS_1_TO_2017,
                                  (1.0,) * 2017),
                     250.0, 1.0, Period(1980, 2017), KindError, "expects gdp_mer", id="wrong-kind"),
        pytest.param(None, 250.0, 0.0, Period(1980, 2017), DomainError, "factor must be positive",
                     id="zero-factor"),
        pytest.param(None, 250.0, -2.0, Period(1980, 2017), DomainError, "factor must be positive",
                     id="negative-factor"),
        pytest.param(tiny_then_large_gdp(), 1e17, 1.0, Period(1980, 2017), DomainError,
                     "wealth must be strictly increasing", id="stops-increasing-before-the-window"),
        pytest.param(AnnualSeries(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, YEARS_1_TO_2017,
                                  tuple(1.0 if y < 2016 else 1e308 for y in YEARS_1_TO_2017)),
                     250.0, 1.0, Period(1980, 1990), DomainError,
                     "series values must be finite numbers, got inf",
                     id="sum-overflows-in-the-last-year"),
        pytest.param(None, 250.0, 1.0, Period(1900, 1950), EmptySlice,
                     "no scaling series inside 1900-1950", id="period-before-energy"),
        pytest.param(None, 250.0, 1.0, Period(2020, 2030), EmptySlice,
                     "no scaling series inside 2020-2030", id="period-after-gdp"),
    ],
)
def test_sensitivity_raises_what_the_full_series_raises(recon, gdp, w1, factor, period, error,
                                                        message):
    gdp = recon.gdp if gdp is None else gdp
    args = (gdp, ENERGY_1980_2017, Quantity(w1, Unit.TUSD), factor, period)
    window, full = sensitivity_outcome(*args)
    assert window == full
    assert window[0] is error and message in window[1]
