import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from enerscale.errors import DomainError, EmptySlice, InvalidPeriod
from enerscale.growth import (
    energy_productivity,
    growth_rate,
    mean_scaled_productivity,
    rates_table,
    wealth_growth_series,
)
from enerscale.reconstruction import WealthSeries
from enerscale.series import AnnualSeries, Period, SeriesKind
from enerscale.units import EJ_PER_YR_PER_GW, Quantity, Unit


def series(kind, unit, years, values):
    return AnnualSeries(kind, unit, tuple(years), tuple(values))


def exponential_series(rate, years, kind=SeriesKind.ENERGY, unit=Unit.GW, scale=1.0):
    return series(kind, unit, years, [scale * math.exp(rate * y) for y in years])


# ---------------------------------------------------------------- growth_rate

def test_exact_exponential():
    s = exponential_series(0.02, range(1990, 2011))
    rate = growth_rate(s, Period(1990, 2010))
    assert type(rate) is float and rate == pytest.approx(0.02, rel=1e-12)


def test_endpoint_requires_endpoints():
    s = series(SeriesKind.ENERGY, Unit.GW, (2000, 2002, 2004), (1.0, 2.0, 3.0))
    with pytest.raises(EmptySlice):
        growth_rate(s, Period(2000, 2003))


def test_log_growth_of_a_rate_that_turns_negative_is_rejected():
    s = series(SeriesKind.RATE, Unit.PER_YR, (2000, 2001, 2002), (0.02, 0.01, -0.01))
    with pytest.raises(DomainError):
        growth_rate(s, Period(2000, 2002))


@given(alpha=st.floats(min_value=1e-3, max_value=1e3))
def test_growth_rate_invariant_under_rescaling(alpha):
    years = range(2000, 2011)
    base = series(SeriesKind.ENERGY, Unit.GW, years, [1.0 + 0.3 * i for i in range(11)])
    scaled = series(SeriesKind.ENERGY, Unit.GW, years, [alpha * v for v in base.values])
    p = Period(2000, 2010)
    assert growth_rate(scaled, p) == pytest.approx(growth_rate(base, p), rel=1e-9, abs=1e-12)


def test_snapshot_wealth_growth(snapshot, recon):
    eta_w = growth_rate(recon.wealth.series, Period(1980, 2017))
    assert eta_w * 100 == pytest.approx(2.14, abs=0.15)


def test_snapshot_energy_growth(snapshot):
    eta_e = growth_rate(snapshot.energy, Period(1980, 2010))
    assert eta_e * 100 == pytest.approx(1.98, abs=0.15)


# ---------------------------------------------------------- energy productivity

def test_productivity_simple_division():
    gdp = series(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, (2016,), (80.0,))
    energy = series(SeriesKind.ENERGY, Unit.EJ_PER_YR, (2016,), (600.0,))
    eps = energy_productivity(gdp, energy)
    assert eps.values[0] == pytest.approx(80.0 / 600.0, rel=1e-12)
    assert eps.unit is Unit.TUSD_PER_EJ


def test_productivity_homogeneous():
    years = (2000, 2001)
    gdp = series(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, (50.0, 52.0))
    energy = series(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, (400.0, 410.0))
    doubled = energy_productivity(
        series(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, (100.0, 104.0)),
        series(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, (800.0, 820.0)),
    )
    np.testing.assert_allclose(
        np.asarray(doubled.values),
        np.asarray(energy_productivity(gdp, energy).values),
        rtol=1e-12,
    )


def test_snapshot_scaled_productivity(snapshot, recon):
    from enerscale.scaling import scaling_series, scaling_stats

    lam = scaling_series(snapshot.energy, recon.wealth)
    scale = scaling_stats(lam, Period(1980, 2017)).mean
    eps = energy_productivity(recon.gdp, snapshot.energy)
    assert mean_scaled_productivity(scale, eps, Period(1980, 2010)) * 100 == pytest.approx(
        2.09, abs=0.2
    )
    assert mean_scaled_productivity(scale, eps, Period(2010, 2017)) * 100 == pytest.approx(
        2.40, abs=0.2
    )


def test_predicted_energy_growth_zero_scale_is_zero():
    eps = series(SeriesKind.PRODUCTIVITY, Unit.TUSD_PER_EJ, (2000, 2001), (0.1, 0.2))
    zero = mean_scaled_productivity(Quantity(0.0, Unit.GW_PER_TUSD), eps, Period(2000, 2001))
    assert zero == 0.0


@pytest.mark.parametrize("years", [(2000, 2001, 2002), (2000, 2001, 2003)])
def test_scaled_productivity_refuses_a_window_short_of_the_period(years):
    eps = series(SeriesKind.PRODUCTIVITY, Unit.TUSD_PER_EJ, years, (0.1, 0.2, 0.3))
    with pytest.raises(EmptySlice, match="productivity series has 3 of the 4 years of 2000-2003"):
        mean_scaled_productivity(Quantity(5.9, Unit.GW_PER_TUSD), eps, Period(2000, 2003))


# -------------------------------------------------------------- innovation

def test_innovation_rate_constant_productivity_is_zero():
    eps = series(SeriesKind.PRODUCTIVITY, Unit.TUSD_PER_EJ, range(2000, 2005), [0.12] * 5)
    assert growth_rate(eps, Period(2000, 2004)) == pytest.approx(0.0, abs=1e-15)


def test_snapshot_innovation_rates(snapshot, recon):
    eps = energy_productivity(recon.gdp, snapshot.energy)
    eta_eps = growth_rate(eps, Period(1980, 2010))
    assert eta_eps * 100 == pytest.approx(0.91, abs=0.2)
    eta_i = growth_rate(wealth_growth_series(recon.wealth), Period(1980, 2010))
    assert eta_i * 100 == pytest.approx(0.82, abs=0.15)


def test_predicted_gdp_growth_constant_productivity():
    # with constant eps the predicted production growth reduces to the
    # scaled-productivity term lambda*eps
    _, energy, wealth = synthetic_continuous_model(lam_gw=5.0, n=11)
    gdp = series(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, energy.years,
                 [0.1 * e * EJ_PER_YR_PER_GW for e in energy.values])
    (row,) = rates_table(gdp, energy, wealth, [Period(2001, 2010)])
    expected = 5.0 * EJ_PER_YR_PER_GW * 0.1
    assert row.predicted_eta_y == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- identities

@st.composite
def paired_positive_series(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    start = draw(st.integers(min_value=1900, max_value=2050))
    years = tuple(range(start, start + n))
    mk = lambda: [draw(st.floats(min_value=1e-6, max_value=1e6)) for _ in years]
    gdp = series(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, mk())
    energy = series(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, mk())
    return gdp, energy


@given(pair=paired_positive_series())
def test_gdp_growth_identity_exact(pair):
    """eta_Y = eta_E + eta_eps holds to 1e-12 for endpoint log rates."""
    gdp, energy = pair
    p = Period(gdp.first_year, gdp.last_year)
    eta_y = growth_rate(gdp, p)
    eta_e = growth_rate(energy, p)
    eta_eps = growth_rate(energy_productivity(gdp, energy), p)
    assert eta_y == pytest.approx(eta_e + eta_eps, abs=1e-12)


def test_discretization_bound_on_cumulative_consistent_data():
    """With E = lambda*W and W accumulated annually, the measured energy growth
    differs from the mean of lambda*eps by O(eta^2)."""
    lam_gw = 6.0
    r = math.exp(0.05)
    years = tuple(range(1, 41))
    w = [100.0 * r**i for i in range(40)]
    gdp_values = [w[0] * (1 - 1 / r)] + [w[i] - w[i - 1] for i in range(1, 40)]
    gdp = series(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, gdp_values)
    energy = series(SeriesKind.ENERGY, Unit.GW, years, [lam_gw * wi for wi in w])
    p = Period(1, 40)
    eta_e = growth_rate(energy, p)
    scale = Quantity(lam_gw, Unit.GW_PER_TUSD)
    lam_eps = mean_scaled_productivity(scale, energy_productivity(gdp, energy), p)
    assert abs(eta_e - lam_eps) <= 0.6 * eta_e**2


# --------------------------------------------------------------- rates table

def synthetic_continuous_model(eta=0.02, lam_gw=5.0, n=30):
    """Instantaneous-rate synthetic data: W = e^(eta t), Y = dW/dt, E = lam W."""
    years = tuple(range(2000, 2000 + n))
    w_values = [math.exp(eta * (y - 2000)) for y in years]
    wealth = WealthSeries(
        AnnualSeries(SeriesKind.WEALTH, Unit.TUSD, years, tuple(w_values)),
        Quantity(w_values[0] * 0.5, Unit.TUSD),
        "synthetic",
    )
    gdp = series(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, [eta * w for w in w_values])
    energy = series(SeriesKind.ENERGY, Unit.GW, years, [lam_gw * w for w in w_values])
    return gdp, energy, wealth


def test_rates_table_exact_model_measured_equals_predicted():
    # periods start after the first year: the wealth-growth series is built
    # from first differences and begins one year into the record
    gdp, energy, wealth = synthetic_continuous_model(eta=0.02)
    rows = rates_table(gdp, energy, wealth, [Period(2001, 2029), Period(2005, 2015)])
    for row in rows:
        assert row.eta_e == pytest.approx(row.lambda_eps, abs=1e-9)
        assert row.eta_i == pytest.approx(row.eta_eps, abs=1e-9)
        assert row.eta_y == pytest.approx(row.predicted_eta_y, abs=1e-9)
        assert row.eta_w == pytest.approx(0.02, abs=1e-9)


def test_rates_table_snapshot_periods(snapshot, recon):
    rows = rates_table(
        recon.gdp, snapshot.energy, recon.wealth,
        [Period(1980, 2010), Period(2010, 2017), Period(1980, 2017)],
    )
    by_period = {str(r.period): r for r in rows}
    assert by_period["1980-2010"].eta_w * 100 == pytest.approx(2.06, abs=0.15)
    assert by_period["2010-2017"].eta_e * 100 == pytest.approx(1.60, abs=0.15)
    assert by_period["1980-2017"].eta_y * 100 == pytest.approx(2.84, abs=0.15)


def test_single_year_period_is_invalid():
    with pytest.raises(InvalidPeriod):
        Period(2010, 2010)
