import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enerscale.carbon import SIGMA_BAND, CarbonCycleParams
from enerscale.errors import DomainError, EmptySlice
from enerscale.growth import CarbonizationEstimate, carbonization, kaya_decomposition
from enerscale.projection import (
    _RK4_STABILITY_LIMIT,
    AtmosphereState,
    _rk4_affine,
    _rk4_step,
    committed_equilibrium,
    max_carbonization,
    max_carbonization_coefficient,
    step_atmosphere,
)
from enerscale.reconstruction import WealthSeries
from enerscale.series import AnnualSeries, Period, SeriesKind
from enerscale.units import Quantity, Unit

PARAMS = CarbonCycleParams()


def analytic_delta(t, emissions, params=PARAMS, delta0=0.0):
    eq = params.kappa_a * emissions / params.sigma
    decay = math.exp(-params.sigma * t)
    return eq * (1.0 - decay) + delta0 * decay


def integrate(emissions, params=PARAMS, delta0=0.0, dt=1.0, years=100.0):
    state = AtmosphereState(0.0, delta0)
    for _ in range(round(years / dt)):
        state = step_atmosphere(state, emissions, params, dt)
    return state


# ------------------------------------------------------------------ parameters

def test_sigma_band_enforced():
    with pytest.raises(DomainError):
        CarbonCycleParams(sigma=0.01)
    CarbonCycleParams(sigma=0.01, allow_sigma_out_of_band=True)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["sigma", "kappa_a", "preindustrial"])
def test_non_finite_carbon_params_rejected(name, value):
    """kappa_a=nan or inf used to be accepted and run_scenario ended at nan."""
    with pytest.raises(DomainError, match="finite"):
        CarbonCycleParams(**{name: value}, allow_sigma_out_of_band=True)


def test_carbon_params_reject_an_int_too_large_for_a_float():
    """sigma=10**400 used to raise a raw OverflowError, even with the band check off."""
    with pytest.raises(DomainError, match="finite"):
        CarbonCycleParams(sigma=10**400, allow_sigma_out_of_band=True)


@pytest.mark.parametrize("year, delta", [(math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan),
                                         (0.0, math.inf), pytest.param(10**400, 0.0, id="int-too-large-0.0"),
                                         pytest.param(0.0, 10**400, id="0.0-int-too-large")])
def test_non_finite_atmosphere_state_rejected(year, delta):
    with pytest.raises(DomainError, match="finite"):
        AtmosphereState(year, delta)


def test_negative_perturbation_rejected():
    with pytest.raises(DomainError):
        AtmosphereState(2000.0, -1.0)


# ------------------------------------------------------------------ integrator

def test_constant_emissions_approach_equilibrium():
    # kappa*C/sigma = 0.47*10/0.023 = 204.348 ppmv
    state = integrate(10.0, years=600.0)
    assert state.delta_co2 == pytest.approx(0.47 * 10.0 / 0.023, rel=1e-4)


def test_integrator_tracks_closed_form_under_1e6():
    state = AtmosphereState(0.0, 0.0)
    worst = 0.0
    for _ in range(100):
        state = step_atmosphere(state, 10.0, PARAMS, 1.0)
        worst = max(worst, abs(state.delta_co2 - analytic_delta(state.year, 10.0)))
    assert worst < 1e-6


def test_richardson_order_ratio():
    finals = {dt: integrate(10.0, dt=dt, years=100.0).delta_co2 for dt in (1.0, 0.5, 0.25)}
    ratio = (finals[1.0] - finals[0.5]) / (finals[0.5] - finals[0.25])
    assert 14.0 <= ratio <= 18.0


def test_decay_half_life():
    # no source, delta halves after ln2/sigma ~ 30.14 years
    state = AtmosphereState(0.0, 100.0)
    half_life = math.log(2) / PARAMS.sigma
    n = 1000
    dt = half_life / n
    for _ in range(n):
        state = step_atmosphere(state, 0.0, PARAMS, dt)
    assert state.delta_co2 == pytest.approx(50.0, rel=1e-3)


def test_zero_source_zero_state_stays_zero():
    state = integrate(0.0, delta0=0.0, years=50.0)
    assert state.delta_co2 == 0.0


def test_callable_source_matches_constant():
    const = integrate(8.0, years=30.0)
    called = AtmosphereState(0.0, 0.0)
    for _ in range(30):
        called = step_atmosphere(called, lambda t: 8.0, PARAMS, 1.0)
    assert called.delta_co2 == pytest.approx(const.delta_co2, rel=1e-15)


def test_step_rejects_negative_result():
    with pytest.raises(DomainError, match="cannot be negative"):
        step_atmosphere(AtmosphereState(0.0, 0.0), -1.0, PARAMS, 1.0)


@pytest.mark.parametrize("emissions", [
    pytest.param(10**400, id="int-too-large"),
    pytest.param(lambda t: 10**400, id="callable-int-too-large"),
    math.nan, math.inf, pytest.param(lambda t: math.nan, id="callable-nan"),
])
def test_step_rejects_emissions_too_large_for_a_float(emissions):
    """A constant 10**400 used to raise a raw OverflowError from ``float(emissions_rate)``."""
    with pytest.raises(DomainError, match="emissions rate must be finite"):
        step_atmosphere(AtmosphereState(0.0, 0.0), emissions, PARAMS, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    sigma=st.floats(*SIGMA_BAND),
    dt=st.floats(1e-3, 1.0),
    growth=st.floats(-0.05, 0.05),
    source=st.floats(1e-4, 1e4),
    scale=st.floats(0.0, 1e4),
)
def test_affine_map_is_one_rk4_step(sigma, dt, growth, source, scale):
    """delta + (a*delta + p*C) is one ``_rk4_step`` under C*exp(growth*t).

    Within 2 ulp once the perturbation is at least the step's source
    increment kappa*C*dt, as on every scenario and spin-up step; a step from
    a smaller perturbation is dominated by the source term, whose stages
    round differently, and stays within 8 ulp (5 seen).
    """
    kappa = PARAMS.kappa_a
    delta = scale * kappa * source * dt
    a, p = _rk4_affine(dt, kappa, sigma, growth)
    mid, end = source * math.exp(growth * dt / 2.0), source * math.exp(growth * dt)
    want = _rk4_step(delta, source, mid, end, dt, kappa, sigma)
    ulps = abs(delta + (a * delta + p * source) - want) / math.ulp(want)
    assert ulps <= (2.0 if scale >= 1.0 else 8.0)


def test_affine_map_coefficients_are_rk4s():
    """a = R(-sigma*dt) - 1 for RK4's stability polynomial R; p = kappa*dt*(R - 1)/z at g = 0."""
    sigma, dt = 0.023, 0.25
    z = -sigma * dt
    a, p = _rk4_affine(dt, PARAMS.kappa_a, sigma)
    assert a == pytest.approx(z + z**2 / 2 + z**3 / 6 + z**4 / 24, rel=1e-15, abs=0)
    assert p == pytest.approx(PARAMS.kappa_a * dt * a / z, rel=1e-15, abs=0)
    assert _rk4_affine(dt, PARAMS.kappa_a, sigma, 0.02)[1] > p


def test_step_rejects_bad_dt():
    with pytest.raises(DomainError):
        step_atmosphere(AtmosphereState(0.0, 0.0), 1.0, PARAMS, 0.0)
    with pytest.raises(DomainError):
        step_atmosphere(AtmosphereState(0.0, 0.0), 1.0, PARAMS, 1.5)


def test_stability_limit_is_where_rk4_stops_contracting():
    x = _RK4_STABILITY_LIMIT
    assert 1 - x + x**2 / 2 - x**3 / 6 + x**4 / 24 == pytest.approx(1.0, abs=1e-15)


def test_step_rejects_sigma_dt_past_the_stability_limit():
    """At sigma*dt = 2.9 steps used to grow 130 ppmv to 154, 183, 216... away from
    an equilibrium of 1.6 ppmv; just inside the limit a step still contracts."""
    unstable = CarbonCycleParams(sigma=2.9, allow_sigma_out_of_band=True)
    state = AtmosphereState(0.0, 130.0)
    with pytest.raises(DomainError, match=r"sigma\*dt = 2\.9 is past RK4's stability limit 2\.7853"):
        step_atmosphere(state, 10.0, unstable, 1.0)
    assert step_atmosphere(state, 10.0, unstable, 0.5).delta_co2 < 130.0
    inside = CarbonCycleParams(sigma=2.78, allow_sigma_out_of_band=True)
    assert step_atmosphere(state, 10.0, inside, 1.0).delta_co2 < 130.0


# ----------------------------------------------------------------- equilibrium

def test_committed_equilibrium_zero_wealth():
    q = committed_equilibrium(
        Quantity(0.0, Unit.TUSD), Quantity(5.9, Unit.GW_PER_TUSD),
        Quantity(0.017, Unit.GTC_PER_EJ),
    )
    assert q.value == 0.0


def test_wealth_per_ppmv_snapshot_calibration(snapshot, recon):
    """The 1980-2010 calibration lands near 15.4 T$ per ppmv."""
    est = carbonization(
        snapshot.emissions, snapshot.energy, Period(1980, 2010), wealth=recon.wealth
    )
    coefficient = 1000.0 * PARAMS.sigma / est.lambda_c
    assert coefficient == pytest.approx(15.4, abs=0.8)


def test_carbonization_window_missing_the_wealth_names_the_window(snapshot):
    """The caller's message, as when the window was sliced inside the same ``try``."""
    early = AnnualSeries(SeriesKind.WEALTH, Unit.TUSD, (1900, 1901), (10.0, 11.0))
    wealth = WealthSeries(early, Quantity(5.0, Unit.TUSD), "synthetic")
    with pytest.raises(EmptySlice, match="no emissions/wealth overlap inside 1980-2010"):
        carbonization(snapshot.emissions, snapshot.energy, Period(1980, 2010), wealth=wealth)


def test_max_carbonization_coefficient_value():
    # 0.023 / (0.47 * 5.9 * 0.031536) by hand = 0.263
    coeff = max_carbonization_coefficient(Quantity(5.9, Unit.GW_PER_TUSD))
    assert coeff == pytest.approx(0.263, abs=0.003)


@pytest.mark.parametrize("lam", [-5.9, 0.0])
def test_a_non_positive_scaling_is_refused(lam):
    scale, w = Quantity(lam, Unit.GW_PER_TUSD), Quantity(100.0, Unit.TUSD)
    with pytest.raises(DomainError, match="scaling must be positive"):
        committed_equilibrium(w, scale, Quantity(0.018, Unit.GTC_PER_EJ))
    with pytest.raises(DomainError, match="scaling must be positive"):
        max_carbonization_coefficient(scale)
    with pytest.raises(DomainError, match="scaling must be positive"):
        max_carbonization(Quantity(100.0, Unit.PPMV), w, scale)


def test_max_carbonization_linear_in_target():
    scale = Quantity(5.9, Unit.GW_PER_TUSD)
    w = Quantity(3000.0, Unit.TUSD)
    c1 = max_carbonization(Quantity(100.0, Unit.PPMV), w, scale)
    c2 = max_carbonization(Quantity(200.0, Unit.PPMV), w, scale)
    assert c2.value == pytest.approx(2.0 * c1.value, rel=1e-12)


@settings(max_examples=200)
@given(
    w=st.floats(min_value=1.0, max_value=1e5),
    lam=st.floats(min_value=0.1, max_value=100.0),
    c=st.floats(min_value=1e-4, max_value=1.0),
    sigma=st.floats(min_value=0.019, max_value=0.027),
)
def test_equilibrium_and_max_carbonization_are_inverses(w, lam, c, sigma):
    params = CarbonCycleParams(sigma=sigma)
    wq = Quantity(w, Unit.TUSD)
    scale = Quantity(lam, Unit.GW_PER_TUSD)
    delta = committed_equilibrium(wq, scale, Quantity(c, Unit.GTC_PER_EJ), params)
    back = max_carbonization(delta, wq, scale, params)
    assert back.value == pytest.approx(c, rel=1e-12)


@given(
    w=st.floats(min_value=1.0, max_value=1e5),
    lam=st.floats(min_value=0.1, max_value=100.0),
    c=st.floats(min_value=1e-4, max_value=1.0),
    factor=st.floats(min_value=1.01, max_value=10.0),
)
def test_equilibrium_monotonicity(w, lam, c, factor):
    args = (Quantity(w, Unit.TUSD), Quantity(lam, Unit.GW_PER_TUSD), Quantity(c, Unit.GTC_PER_EJ))
    base = committed_equilibrium(*args).value
    assert committed_equilibrium(Quantity(w * factor, Unit.TUSD), *args[1:]).value > base
    assert committed_equilibrium(
        args[0], Quantity(lam * factor, Unit.GW_PER_TUSD), args[2]
    ).value > base
    assert committed_equilibrium(
        *args[:2], Quantity(c * factor, Unit.GTC_PER_EJ)
    ).value > base
    tighter = CarbonCycleParams(sigma=min(0.023 * factor, 0.027))
    if tighter.sigma > 0.023:
        assert committed_equilibrium(*args, tighter).value < base


# --------------------------------------------------------------- carbonization

def test_exact_carbonization_recovered():
    years = tuple(range(2000, 2010))
    energy = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, years,
                          tuple(400.0 + 10.0 * i for i in range(10)))
    emissions = AnnualSeries(SeriesKind.EMISSIONS, Unit.GTC_PER_YR, years,
                             tuple(0.02 * v for v in energy.values))
    wealth = AnnualSeries(SeriesKind.WEALTH, Unit.TUSD, years,
                          tuple(3000.0 + 100.0 * i for i in range(10)))
    wealth = WealthSeries(wealth, Quantity(1.0, Unit.TUSD), "synthetic")
    est = carbonization(emissions, energy, Period(2000, 2009), wealth)
    assert est.c == pytest.approx(0.02, rel=1e-12)
    assert est.eta_c == pytest.approx(0.0, abs=1e-14)


def test_snapshot_recent_carbonization(snapshot, recon):
    est = carbonization(snapshot.emissions, snapshot.energy, Period(2010, 2017), recon.wealth)
    assert est.c == pytest.approx(0.017, abs=0.002)
    assert est.eta_c * 100 == pytest.approx(-0.36, abs=0.15)


def test_snapshot_emissions_wealth_scaling(snapshot, recon):
    est = carbonization(
        snapshot.emissions, snapshot.energy, Period(1980, 2017), wealth=recon.wealth
    )
    assert est.lambda_c == pytest.approx(1.49, abs=0.12)
    assert est.lambda_c_std == pytest.approx(0.06, abs=0.04)


def test_carbonization_estimate_requires_positive_c():
    with pytest.raises(DomainError):
        CarbonizationEstimate(period=Period(2000, 2001), c=0.0, eta_c=0.0, lambda_c=1.2,
                              lambda_c_std=0.1)


# ------------------------------------------------------------------------ kaya

def test_snapshot_kaya_rates(snapshot, recon):
    k = kaya_decomposition(
        snapshot.population, recon.gdp, snapshot.energy, snapshot.emissions,
        Period(1980, 2017),
    )
    assert k.eta_pop * 100 == pytest.approx(1.38, abs=0.15)
    assert k.eta_affluence * 100 == pytest.approx(1.46, abs=0.15)
    assert abs(k.residual) < 1e-12


def test_constant_series_kaya_is_all_zero():
    years = tuple(range(2000, 2006))
    pop = AnnualSeries(SeriesKind.POPULATION, Unit.PERSONS, years, (7e9,) * 6)
    gdp = AnnualSeries(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, (80.0,) * 6)
    energy = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, (600.0,) * 6)
    emissions = AnnualSeries(SeriesKind.EMISSIONS, Unit.GTC_PER_YR, years, (10.0,) * 6)
    k = kaya_decomposition(pop, gdp, energy, emissions, Period(2000, 2005))
    for value in (k.eta_pop, k.eta_affluence, k.eta_productivity,
                  k.eta_carbonization, k.eta_emissions, k.residual):
        assert value == pytest.approx(0.0, abs=1e-14)


@st.composite
def kaya_inputs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    years = tuple(range(2000, 2000 + n))
    pick = lambda lo, hi: [draw(st.floats(min_value=lo, max_value=hi)) for _ in years]
    pop = AnnualSeries(SeriesKind.POPULATION, Unit.PERSONS, years, pick(1e8, 1e10))
    gdp = AnnualSeries(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, pick(1.0, 200.0))
    energy = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, pick(10.0, 1000.0))
    emissions = AnnualSeries(SeriesKind.EMISSIONS, Unit.GTC_PER_YR, years, pick(0.1, 20.0))
    return pop, gdp, energy, emissions, Period(2000, 2000 + n - 1)


@given(inputs=kaya_inputs())
def test_kaya_residual_vanishes(inputs):
    pop, gdp, energy, emissions, p = inputs
    k = kaya_decomposition(pop, gdp, energy, emissions, p)
    assert abs(k.residual) < 1e-12


# ----------------------------------------------------------------- predictions

def test_predicted_emissions_growth_values(snapshot, recon):
    # table 3's predicted emissions growth is eta_c + lambda*eps, with
    # lambda*eps the column table 2 reports for the same period
    from enerscale.tables import build_table2, build_table3

    lambda_eps = {row[0]: row[3] for row in build_table2(snapshot, recon).rows}
    rows = build_table3(snapshot, recon).rows
    assert [row[0] for row in rows] == list(lambda_eps)
    for period, _, _, eta_c, _, predicted in rows:
        assert predicted == pytest.approx(eta_c + lambda_eps[period], abs=1e-12)


def test_table4_predicted_sum_is_table2_derived_rate(snapshot, recon):
    # table 4's predicted production growth is table 2's lambda*eps + eta_eps,
    # read from the same rates row, so the two columns agree bit for bit
    from enerscale.tables import build_table2, build_table4

    derived = {row[0]: row[7] for row in build_table2(snapshot, recon).rows}
    rows = build_table4(snapshot, recon).rows
    assert [row[0] for row in rows] == list(derived)
    for period, *_, sum_predicted in rows:
        assert sum_predicted == derived[period]


def test_snapshot_predicted_vs_measured_emissions(snapshot, recon):
    from enerscale.growth import energy_productivity, mean_scaled_productivity
    from enerscale.scaling import scaling_series, scaling_stats

    p = Period(1980, 2010)
    est = carbonization(snapshot.emissions, snapshot.energy, p, recon.wealth)
    lam = scaling_series(snapshot.energy, recon.wealth)
    scale = scaling_stats(lam, Period(1980, 2017)).mean
    eps = energy_productivity(recon.gdp, snapshot.energy)
    predicted = est.eta_c + mean_scaled_productivity(scale, eps, p)
    assert predicted * 100 == pytest.approx(1.88, abs=0.2)
