import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from enerscale.errors import DomainError, EmptySlice, GapError, KindError, MissingYearOne
from enerscale.reconstruction import (
    PppMerRatio,
    WealthSeries,
    calibrate_initial_wealth,
    calibrate_initial_wealth_iterative,
    cumulative_production,
    estimate_ppp_mer_ratio,
    ppp_to_mer,
)
from enerscale.series import AnnualSeries, Period, SeriesKind
from enerscale.tables import SCALING_PERIODS
from enerscale.units import Quantity, Unit


def gdp_series(years, values, kind=SeriesKind.GDP_MER):
    return AnnualSeries(kind, Unit.TUSD_PER_YR, tuple(years), tuple(values))


# ------------------------------------------------------------- PPP/MER ratio

def test_snapshot_ratio_near_expected(recon):
    assert recon.ratio.value == pytest.approx(1.205, abs=0.01)
    assert recon.ratio.window == Period(1970, 1992)


def test_ratio_of_identical_series():
    s = gdp_series(range(1970, 1993), [float(i + 1) for i in range(23)], SeriesKind.GDP_PPP)
    m = gdp_series(range(1970, 1993), [float(i + 1) for i in range(23)])
    assert estimate_ppp_mer_ratio(s, m, Period(1970, 1992)).value == pytest.approx(1.0)


def test_ratio_constant_multiple():
    mer = gdp_series(range(1970, 1975), [2.0, 3.0, 4.0, 5.0, 6.0])
    ppp = gdp_series(range(1970, 1975), [3.0, 4.5, 6.0, 7.5, 9.0], SeriesKind.GDP_PPP)
    assert estimate_ppp_mer_ratio(ppp, mer, Period(1970, 1974)).value == pytest.approx(1.5)


def test_ratio_window_missing_a_series_names_the_window():
    mer = gdp_series(range(1970, 1975), [2.0, 3.0, 4.0, 5.0, 6.0])
    ppp = gdp_series(range(1980, 1985), [3.0, 4.5, 6.0, 7.5, 9.0], SeriesKind.GDP_PPP)
    with pytest.raises(EmptySlice, match="no PPP/MER overlap inside 1980-1984"):
        estimate_ppp_mer_ratio(ppp, mer, Period(1980, 1984))


def test_ratio_refuses_a_window_short_of_a_year(snapshot):
    """The bundled PPP less 1980 holds 22 of the 23 years of 1970-1992: the
    ratio is refused rather than averaged over the rest."""
    ppp = snapshot.gdp_ppp
    years = [y for y in ppp.years if y != 1980]
    short = ppp.with_data(years, [ppp.value_at(y) for y in years])
    with pytest.raises(EmptySlice, match="22 of the 23 years of 1970-1992; 1980 is missing"):
        estimate_ppp_mer_ratio(short, snapshot.gdp_mer, Period(1970, 1992))


def test_ratio_refuses_swapped_series(snapshot):
    """MER passed as PPP and PPP as MER used to give kappa_x = 0.830, not 1.205."""
    with pytest.raises(KindError, match="expects gdp_ppp and gdp_mer series, got gdp_mer and"
                                        " gdp_ppp"):
        estimate_ppp_mer_ratio(snapshot.gdp_mer, snapshot.gdp_ppp, Period(1970, 1992))


def test_ratio_must_be_positive():
    with pytest.raises(DomainError):
        PppMerRatio(0.0, Period(1970, 1992))


# ------------------------------------------------------------------ ppp->mer

def test_ppp_to_mer_divides():
    ppp = gdp_series((2000,), (1.205,), SeriesKind.GDP_PPP)
    out = ppp_to_mer(ppp, PppMerRatio(1.205, Period(1970, 1992)))
    assert out.values[0] == pytest.approx(1.0, rel=1e-12)
    assert out.kind is SeriesKind.GDP_MER


def test_ppp_to_mer_snapshot_1950(snapshot, recon):
    out = ppp_to_mer(snapshot.gdp_ppp, recon.ratio)
    # direct division against the raw snapshot value
    assert out.value_at(1950) == pytest.approx(
        snapshot.gdp_ppp.value_at(1950) / recon.ratio.value, rel=1e-12
    )


def test_ppp_to_mer_rejects_wrong_kind():
    mer = gdp_series((2000,), (1.0,))
    with pytest.raises(KindError):
        ppp_to_mer(mer, PppMerRatio(1.2, Period(1970, 1992)))


# ---------------------------------------------------------------- calibration

def test_initial_wealth_from_ancient_growth():
    gdp = gdp_series((1, 2, 3, 4), (0.1475, 0.1476, 0.1477, 0.1478))
    w1 = calibrate_initial_wealth(gdp, 0.00059)
    assert w1.value == pytest.approx(250.0, rel=1e-9)
    assert w1.unit is Unit.TUSD


def test_initial_wealth_unit_growth():
    gdp = gdp_series((1, 2), (7.0, 7.1))
    assert calibrate_initial_wealth(gdp, 1.0).value == pytest.approx(7.0)


def test_initial_wealth_rejects_zero_growth():
    gdp = gdp_series((1, 2), (1.0, 1.1))
    with pytest.raises(DomainError):
        calibrate_initial_wealth(gdp, 0.0)


@pytest.mark.parametrize(
    "calibrate", [calibrate_initial_wealth, calibrate_initial_wealth_iterative]
)
@pytest.mark.parametrize("pop_growth", [math.inf, math.nan,
                                        pytest.param(10**400, id="int-too-large")])
def test_initial_wealth_rejects_non_finite_growth(calibrate, pop_growth):
    gdp = gdp_series((1, 2), (1.0, 1.1))
    with pytest.raises(DomainError, match="pop_growth must be positive and finite"):
        calibrate(gdp, pop_growth)


def test_initial_wealth_needs_year_one():
    gdp = gdp_series((1970, 1971), (1.0, 1.1))
    with pytest.raises(MissingYearOne):
        calibrate_initial_wealth(gdp)


def test_iterative_matches_closed_form(recon):
    closed = calibrate_initial_wealth(recon.gdp)
    iterative = calibrate_initial_wealth_iterative(recon.gdp)
    assert iterative.value == pytest.approx(closed.value, rel=1e-9)


# ------------------------------------------------------ cumulative production

def test_constant_production_accumulates_linearly():
    gdp = gdp_series(range(1, 11), [1.0] * 10)
    w = cumulative_production(gdp, Quantity(0.0, Unit.TUSD))
    assert w.series.value_at(10) == pytest.approx(10.0)
    assert w.series.value_at(1) == pytest.approx(1.0)


def test_first_difference_recovers_production(recon):
    w = np.asarray(recon.wealth.series.values)
    y = np.array([recon.gdp.value_at(year) for year in recon.wealth.series.years])
    np.testing.assert_allclose(np.diff(w), y[1:], rtol=1e-12)


def test_wealth_strictly_increasing(recon):
    w = np.asarray(recon.wealth.series.values)
    assert np.all(np.diff(w) > 0)


@given(alpha=st.floats(min_value=0.01, max_value=100.0))
def test_cumulative_production_is_linear(alpha):
    years = tuple(range(1, 9))
    values = (0.5, 0.7, 1.1, 1.3, 2.0, 2.5, 3.0, 3.2)
    gdp = gdp_series(years, values)
    scaled = gdp_series(years, tuple(alpha * v for v in values))
    base = cumulative_production(gdp, Quantity(2.0, Unit.TUSD))
    doubled = cumulative_production(scaled, Quantity(2.0 * alpha, Unit.TUSD))
    for year in years:
        assert doubled.series.value_at(year) == pytest.approx(
            alpha * base.series.value_at(year), rel=1e-12
        )


def test_cumulative_production_rejects_gaps():
    gdp = gdp_series((1, 2, 4), (1.0, 1.0, 1.0))
    with pytest.raises(GapError):
        cumulative_production(gdp, Quantity(0.0, Unit.TUSD))


@pytest.mark.parametrize("w1, error, message", [
    (Quantity(2.0, Unit.TUSD_PER_YR), KindError, r"W\(1\) must be expressed in T\$2010"),
    (Quantity(-1.0, Unit.TUSD), DomainError, r"W\(1\) must be nonnegative"),
], ids=["unit", "negative"])
def test_cumulative_production_refuses_a_bad_initial_stock(w1, error, message):
    with pytest.raises(error, match=message):
        cumulative_production(gdp_series((1, 2, 3), (1.0, 1.0, 1.0)), w1)


@pytest.mark.parametrize("series, error, message", [
    (gdp_series((1, 2), (3.0, 4.0)), KindError, "WealthSeries wraps a series of kind 'wealth'"),
    (AnnualSeries(SeriesKind.WEALTH, Unit.TUSD, (1, 2), (1.0, 4.0)), DomainError,
     r"wealth at the first year cannot be below W\(1\)"),
], ids=["kind", "below-w1"])
def test_wealth_series_refuses_a_series_that_is_not_wealth_above_w1(series, error, message):
    with pytest.raises(error, match=message):
        WealthSeries(series, Quantity(2.0, Unit.TUSD))


@pytest.mark.parametrize(
    "period", [*SCALING_PERIODS, Period(-5, 3), Period(2010, 2100), Period(-100, 3000)], ids=str
)
def test_windowed_wealth_is_the_whole_series_cut_to_the_period(recon, period):
    """Table 1's periods, and periods reaching before the first year, past the last, or both."""
    whole = cumulative_production(recon.gdp, recon.w1)
    window = cumulative_production(recon.gdp, recon.w1, period)
    s = whole.series  # contiguous, so a year's index is its offset from the first
    lo = max(period.start_year, s.first_year) - s.first_year
    hi = min(period.end_year, s.last_year) - s.first_year + 1
    assert window.series == s.with_data(s.years[lo:hi], s.values[lo:hi])
    assert window.w1 == whole.w1


@pytest.mark.parametrize("period", [Period(2020, 2030), Period(-10, 0)], ids=str)
def test_a_window_that_misses_production_is_empty(recon, period):
    with pytest.raises(EmptySlice):
        cumulative_production(recon.gdp, recon.w1, period)


def test_an_overflowing_wealth_raises_the_same_error_windowed_or_whole():
    gdp = gdp_series(range(1, 11), [1.0] * 8 + [1e308, 1e308])
    messages = []
    for period in (None, Period(1, 3)):
        with pytest.raises(DomainError) as raised:
            cumulative_production(gdp, Quantity(1.0, Unit.TUSD), period)
        messages.append(str(raised.value))
    assert messages == ["series values must be finite numbers, got inf"] * 2


# -------------------------------------------------------- snapshot milestones

def test_snapshot_calibration_milestones(recon):
    assert recon.gdp.value_at(1) == pytest.approx(0.1475, abs=0.002)
    assert recon.w1.value == pytest.approx(250.0, abs=5.0)


def test_snapshot_wealth_spans(recon):
    w2017 = recon.wealth.series.value_at(2017)
    assert recon.w1.value / w2017 == pytest.approx(0.073, abs=0.015)
    by_year = dict(zip(recon.gdp.years, recon.gdp.values))
    first_millennium = sum(v for y, v in by_year.items() if y <= 1000)
    assert first_millennium / w2017 == pytest.approx(0.046, abs=0.015)
