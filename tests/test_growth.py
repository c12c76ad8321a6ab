import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from enerscale.carbon import CarbonCycleParams
from enerscale.errors import DomainError, EmptySlice, InvalidPeriod, KindError
from enerscale.growth import (
    CarbonizationEstimate,
    RatesRow,
    carbonization,
    growth_rate,
    kaya_decomposition,
    rates_table,
)
from enerscale.reconstruction import WealthSeries
from enerscale.series import AnnualSeries, Period, SeriesKind, mean, sample_std
from enerscale.tables import COEFFICIENT_PERIODS, RATE_PERIODS
from enerscale.units import EJ_PER_YR_PER_GW, Quantity, Unit, to_unit


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


def test_growth_rate_refuses_a_gap_inside_the_period():
    """Both endpoints held is not enough: the rate reads every year of its period."""
    s = series(SeriesKind.ENERGY, Unit.GW, (2000, 2003, 2005), (1.0, 2.0, 4.0))
    with pytest.raises(EmptySlice, match="energy series has 3 of the 6 years of 2000-2005; 2001"):
        growth_rate(s, Period(2000, 2005))


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

def linear_wealth(years, factor=1.0):
    """W = factor * (100, 101, ...) T$ from a year before ``years``, so eta_i is defined."""
    years = (years[0] - 1, *years)
    values = [factor * (100.0 + i) for i in range(len(years))]
    return WealthSeries(series(SeriesKind.WEALTH, Unit.TUSD, years, values),
                        Quantity(values[0], Unit.TUSD))


def test_productivity_simple_division():
    years = (2016, 2017)
    gdp = series(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, (80.0, 80.0))
    energy = series(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, (600.0, 600.0))
    (row,) = rates_table(gdp, energy, linear_wealth(years), [Period(2016, 2017)])
    # lambda = mean(600/101, 600/102) EJ/yr per T$ times eps = 80/600 T$ per EJ
    lam = (600.0 / 101.0 + 600.0 / 102.0) / 2
    assert row.lambda_eps == pytest.approx(lam * 80.0 / 600.0, rel=1e-12)
    assert row.eta_eps == 0.0


def test_productivity_homogeneous():
    years = (2000, 2001)
    p = Period(2000, 2001)
    gdp = series(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, (50.0, 52.0))
    energy = series(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, (400.0, 410.0))
    (row,) = rates_table(gdp, energy, linear_wealth(years), [p])
    # doubling Y, E and W leaves the scaling E/W and the productivity Y/E unchanged
    doubled = lambda s: s.with_data(s.years, [2.0 * v for v in s.values])
    (twice,) = rates_table(doubled(gdp), doubled(energy), linear_wealth(years, 2.0), [p])
    np.testing.assert_allclose(
        [twice.lambda_eps, twice.eta_eps], [row.lambda_eps, row.eta_eps], rtol=1e-12
    )


def test_snapshot_scaled_productivity(snapshot, recon):
    rows = rates_table(
        recon.gdp, snapshot.energy, recon.wealth, [Period(1980, 2010), Period(2010, 2017)]
    )
    assert rows[0].lambda_eps * 100 == pytest.approx(2.09, abs=0.2)
    assert rows[1].lambda_eps * 100 == pytest.approx(2.40, abs=0.2)


def test_lambda_eps_is_proportional_to_the_scaling():
    """Doubling every W halves the scaling E/W, and with it lambda*eps, bit for bit."""
    years = (2000, 2001, 2002)
    p = Period(2000, 2002)
    gdp = series(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, (50.0, 52.0, 55.0))
    energy = series(SeriesKind.ENERGY, Unit.GW, years, (400.0, 410.0, 423.0))
    (row,) = rates_table(gdp, energy, linear_wealth(years), [p])
    (halved,) = rates_table(gdp, energy, linear_wealth(years, 2.0), [p])
    assert halved.lambda_eps == row.lambda_eps / 2
    assert halved.eta_eps == row.eta_eps


@pytest.mark.parametrize("years", [(2000, 2001, 2002), (2000, 2001, 2003)])
def test_scaled_productivity_refuses_a_window_short_of_the_period(years):
    full = range(2000, 2004)
    gdp = series(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, (1.0, 2.0, 3.0))
    energy = series(SeriesKind.ENERGY, Unit.EJ_PER_YR, full, (10.0, 11.0, 12.0, 13.0))
    with pytest.raises(EmptySlice, match="productivity series has 3 of the 4 years of 2000-2003"):
        rates_table(gdp, energy, linear_wealth(tuple(full)), [Period(2000, 2003)])


def test_rates_table_refuses_ppp_production(snapshot, recon):
    """The bundled PPP series passed as production used to give rates over 1980-1990."""
    with pytest.raises(KindError, match="expects gdp_mer and energy series, got gdp_ppp and"
                                        " energy"):
        rates_table(snapshot.gdp_ppp, snapshot.energy, recon.wealth, [Period(1980, 1990)])


# -------------------------------------------------------------- innovation

def test_innovation_rate_constant_productivity_is_zero():
    years = tuple(range(2000, 2005))
    energy = series(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, [400.0 + 7.0 * i for i in range(5)])
    gdp = series(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, [0.12 * e for e in energy.values])
    (row,) = rates_table(gdp, energy, linear_wealth(years), [Period(2000, 2004)])
    assert row.eta_eps == pytest.approx(0.0, abs=1e-15)


def test_snapshot_innovation_rates(snapshot, recon):
    (row,) = rates_table(recon.gdp, snapshot.energy, recon.wealth, [Period(1980, 2010)])
    assert row.eta_eps * 100 == pytest.approx(0.91, abs=0.2)
    assert row.eta_i * 100 == pytest.approx(0.82, abs=0.15)


def test_innovation_rate_needs_wealth_a_year_before_the_period():
    # Y/W in the first year reads W a year earlier, which a W starting then lacks.
    years = tuple(range(2000, 2005))
    energy = series(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, [400.0 + 7.0 * i for i in range(5)])
    gdp = series(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, [50.0 + i for i in range(5)])
    wealth = linear_wealth(years[1:])  # W from 2000, the period's first year
    message = "wealth series for eta_i over 2000-2004 has 5 of the 6 years of 1999-2004; 1999 is"
    with pytest.raises(EmptySlice, match=message):
        rates_table(gdp, energy, wealth, [Period(2000, 2004)])


def test_innovation_rate_names_a_wealth_gap_the_year_before_the_period():
    """W holding 1998 but not 1999 is refused by the window eta_i reads, 1999-2004."""
    years = tuple(range(2000, 2005))
    energy = series(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, [400.0 + 7.0 * i for i in range(5)])
    gdp = series(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, [50.0 + i for i in range(5)])
    w = linear_wealth((1998, *years)).series
    wealth = WealthSeries(w.with_data(w.years[:1] + w.years[2:], w.values[:1] + w.values[2:]),
                          Quantity(w.values[0], Unit.TUSD))
    message = "wealth series for eta_i over 2000-2004 has 5 of the 6 years of 1999-2004; 1999 is"
    with pytest.raises(EmptySlice, match=message):
        rates_table(gdp, energy, wealth, [Period(2000, 2004)])


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


def accumulated_wealth(gdp):
    """W accumulating Y from 1 T$ a year before ``gdp`` starts, so W grows every year."""
    w = [1.0]
    for y in gdp.values:
        w.append(w[-1] + y)
    years = (gdp.first_year - 1, *gdp.years)
    return WealthSeries(series(SeriesKind.WEALTH, Unit.TUSD, years, w),
                        Quantity(1.0, Unit.TUSD))


@given(pair=paired_positive_series())
def test_gdp_growth_identity_exact(pair):
    """eta_Y = eta_E + eta_eps holds to 1e-12 for endpoint log rates."""
    gdp, energy = pair
    p = Period(gdp.first_year, gdp.last_year)
    (row,) = rates_table(gdp, energy, accumulated_wealth(gdp), [p])
    assert row.eta_y == pytest.approx(row.eta_e + row.eta_eps, abs=1e-12)


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
    wealth = WealthSeries(
        series(SeriesKind.WEALTH, Unit.TUSD, (0, *years), [w[0] / r, *w]),
        Quantity(w[0] / r, Unit.TUSD),
    )
    (row,) = rates_table(gdp, energy, wealth, [Period(1, 40)])
    assert abs(row.eta_e - row.lambda_eps) <= 0.6 * row.eta_e**2


# --------------------------------------------------------------- rates table

def synthetic_continuous_model(eta=0.02, lam_gw=5.0, n=30):
    """Instantaneous-rate synthetic data: W = e^(eta t), Y = dW/dt, E = lam W."""
    years = tuple(range(2000, 2000 + n))
    w_values = [math.exp(eta * (y - 2000)) for y in years]
    wealth = WealthSeries(
        AnnualSeries(SeriesKind.WEALTH, Unit.TUSD, years, tuple(w_values)),
        Quantity(w_values[0] * 0.5, Unit.TUSD),
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


# ------------------------------------------------------------ GW-tagged energy

def gw_tagged(ej):
    """An EJ/yr energy series re-tagged in GW, each value converted on its own."""
    return AnnualSeries(SeriesKind.ENERGY, Unit.GW, ej.years,
                        [to_unit(e, Unit.EJ_PER_YR, Unit.GW) for e in ej.values])


def test_gw_tagged_energy_is_read_in_ej_year_by_year(snapshot, recon):
    """Every ratio to energy divides by that year's to_unit(E, GW, EJ/yr).

    The bundled energy re-tagged in GW does not convert back to the same
    bits, so a reader that divided by the GW values and cancelled the factor
    once would change these rows.
    """
    energy = gw_tagged(snapshot.energy)
    energy_ej = {y: to_unit(e, Unit.GW, Unit.EJ_PER_YR)
                 for y, e in zip(energy.years, energy.values)}
    gdp, emissions, w = recon.gdp, snapshot.emissions, recon.wealth.series

    def years(p):
        return range(p.start_year, p.end_year + 1)

    def log_rate(values, p):
        return math.log(values[-1] / values[0]) / p.span

    def endpoint_rate(s, p):
        return log_rate([s.value_at(p.start_year), s.value_at(p.end_year)], p)

    overlap = [y for y in energy.years if w.has_year(y)]
    lam_ej = to_unit(mean([energy.value_at(y) / w.value_at(y) for y in overlap]),
                     Unit.GW_PER_TUSD, Unit.EJ_PER_YR_PER_TUSD)
    for row in rates_table(gdp, energy, recon.wealth, RATE_PERIODS):
        p = row.period
        eps = [gdp.value_at(y) / energy_ej[y] for y in years(p)]
        eta_i = [(w.value_at(y) - w.value_at(y - 1)) / w.value_at(y)
                 for y in (p.start_year, p.end_year)]
        expected = RatesRow(p, endpoint_rate(w, p), endpoint_rate(energy, p), lam_ej * mean(eps),
                            log_rate(eta_i, p), log_rate(eps, p), endpoint_rate(gdp, p))
        assert repr(row) == repr(expected)

    kappa = CarbonCycleParams().kappa_a
    for p in COEFFICIENT_PERIODS:
        c = [emissions.value_at(y) / energy_ej[y] for y in years(p)]
        lambda_c = [emissions.value_at(y) / w.value_at(y) * kappa * 1e3 for y in years(p)]
        expected = CarbonizationEstimate(p, mean(c), log_rate(c, p), mean(lambda_c),
                                         sample_std(lambda_c))
        assert repr(carbonization(emissions, energy, p, recon.wealth)) == repr(expected)


@pytest.mark.parametrize("tag", ["EJ/yr", "GW"])
def test_kaya_reads_energy_ratios_as_the_period_statistics_do(snapshot, recon, tag):
    """Kaya's eta_productivity and eta_carbonization equal rates_table's eta_eps
    and carbonization's eta_c bit for bit, whatever the unit of the energy."""
    energy = snapshot.energy if tag == "EJ/yr" else gw_tagged(snapshot.energy)
    periods = list(dict.fromkeys(RATE_PERIODS + COEFFICIENT_PERIODS))
    for row in rates_table(recon.gdp, energy, recon.wealth, periods):
        p = row.period
        kaya = kaya_decomposition(snapshot.population, recon.gdp, energy, snapshot.emissions, p)
        est = carbonization(snapshot.emissions, energy, p, recon.wealth)
        assert repr(kaya.eta_productivity) == repr(row.eta_eps), p
        assert repr(kaya.eta_carbonization) == repr(est.eta_c), p
