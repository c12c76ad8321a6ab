import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enerscale import datasets, projection
from enerscale.carbon import SIGMA_BAND, CarbonCycleParams
from enerscale.errors import DomainError, IncompatibleUnits
from enerscale.projection import (
    MAX_GRID_POINTS,
    AtmosphereState,
    Scenario,
    TrajectoryPoint,
    _rk4_step,
    committed_curve,
    committed_equilibrium,
    halving_time,
    historical_spinup_delta,
    required_clean_capacity,
    run_scenario,
    steady_state_commitment,
    step_atmosphere,
    time_grid,
)
from enerscale.units import Quantity, Unit


def scenario(**overrides):
    base = dict(
        start_year=2017.0, horizon_years=40.0, w0=3400.0, lambda_gw=5.7,
        c0=0.0162, eta_w=0.024, eta_c=0.0, delta0=131.76, dt=0.25,
    )
    base.update(overrides)
    return Scenario(**base)


# Closed forms of a scenario at ``year``: the references for the engine's columns.

def wealth_at(s, year):
    return s.w0 * math.exp(s.eta_w * (year - s.start_year))


def carbonization_at(s, year):
    return s.c0 * math.exp(s.eta_c * (year - s.start_year))


def emissions_at(s, year):
    """GtC/yr source under the scaling assumption C = lambda*c*W."""
    return s.lambda_ej * carbonization_at(s, year) * wealth_at(s, year)


def committed_delta_at(s, year):
    """Equilibrium perturbation for the wealth and carbonization at ``year``."""
    p = s.carbon_params
    return p.kappa_a * emissions_at(s, year) / p.sigma


# ------------------------------------------------------------------ validation

def test_scenario_validates_inputs():
    with pytest.raises(DomainError):
        scenario(dt=0.0)
    with pytest.raises(DomainError):
        scenario(dt=1.5)
    with pytest.raises(DomainError):
        scenario(horizon_years=0.0)
    with pytest.raises(DomainError):
        scenario(w0=-1.0)


@pytest.mark.parametrize("field", ["w0", "horizon_years"])
def test_scenario_rejects_an_int_too_large_for_a_float(field):
    """w0 or horizon 10**400 used to raise a raw OverflowError from the finiteness check."""
    with pytest.raises(DomainError, match=f"scenario fields must be finite: {field}"):
        scenario(**{field: 10**400})


UNSTABLE = CarbonCycleParams(sigma=2.9, allow_sigma_out_of_band=True)


@pytest.mark.parametrize("run", [
    lambda dt: run_scenario(scenario(carbon_params=UNSTABLE, dt=dt)),
    lambda dt: steady_state_commitment(scenario(carbon_params=UNSTABLE, dt=dt), 2030.0),
    lambda dt: historical_spinup_delta(datasets.load_snapshot().emissions, UNSTABLE, dt=dt),
], ids=["run_scenario", "steady_state_commitment", "historical_spinup_delta"])
def test_sigma_dt_past_the_stability_limit_is_rejected(run):
    """sigma*dt = 2.9 used to fail with "perturbation cannot be negative"."""
    with pytest.raises(DomainError, match=r"sigma\*dt = 2\.9 is past RK4's stability limit"):
        run(1.0)
    run(0.5)


# ---------------------------------------------------------------- run_scenario

def test_constant_economy_approaches_analytic_equilibrium():
    s = scenario(eta_w=0.0, eta_c=0.0, delta0=0.0, horizon_years=40.0)
    emissions = emissions_at(s, 2017.0)
    trajectory = run_scenario(s)
    params = s.carbon_params
    eq = params.kappa_a * emissions / params.sigma
    previous = -1.0
    for point in trajectory.points:
        t = point.year - 2017.0
        expected = eq * (1.0 - math.exp(-params.sigma * t))
        assert point.delta_co2 == pytest.approx(expected, abs=1e-6)
        assert point.delta_co2 >= previous
        previous = point.delta_co2


def test_deterministic_trajectories():
    a = run_scenario(scenario())
    b = run_scenario(scenario())
    assert a.points == b.points


def test_time_step_convergence_and_order():
    finals = {}
    for dt in (1.0, 0.5, 0.25, 0.125):
        s = scenario(horizon_years=50.0, dt=dt)
        finals[dt] = run_scenario(s).points[-1].delta_co2
    assert abs(finals[0.5] - finals[0.25]) < 1e-5
    ratio = (finals[1.0] - finals[0.5]) / (finals[0.5] - finals[0.25])
    assert 13.0 <= ratio <= 19.0


def test_wealth_and_emissions_follow_closed_forms():
    s = scenario(eta_c=-0.01)
    trajectory = run_scenario(s)
    last = trajectory.points[-1]
    t = last.year - s.start_year
    assert last.wealth == pytest.approx(s.w0 * math.exp(0.024 * t), rel=1e-12)
    assert last.emissions_gtc == pytest.approx(
        s.lambda_ej * s.c0 * math.exp((0.024 - 0.01) * t) * s.w0, rel=1e-12
    )


@pytest.mark.parametrize("sigma", SIGMA_BAND)
@pytest.mark.parametrize("dt", [1.0, 0.5, 0.25, 0.1])
def test_delta_matches_exponential_source_closed_form(dt, sigma):
    """delta0 e^{-s t} + kappa C0 e^{-s t} expm1((g+s) t)/(g+s) for C = C0 e^{g t}."""
    params = CarbonCycleParams(sigma=sigma)
    s = scenario(eta_c=-0.01, dt=dt, carbon_params=params)
    trajectory = run_scenario(s)
    rate = s.eta_w + s.eta_c + sigma
    c0 = emissions_at(s, s.start_year)
    for year, delta in zip(trajectory.years, trajectory.deltas):
        t = year - s.start_year
        decay = math.exp(-sigma * t)
        exact = s.delta0 * decay + params.kappa_a * c0 * decay * math.expm1(rate * t) / rate
        assert delta == pytest.approx(exact, rel=1e-7 * dt**4 + 1e-9)


#: Relative bound on the delta column against per-step RK4. The engine applies
#: RK4's one-step affine map, which rounds differently from the stage
#: arithmetic; the worst case measured over the benchmark's sweep box (105
#: scenarios, down to dt 0.01 over 200 yr) was 5.1e-15.
MAP_REL_TOL = 1e-14


def assert_deltas_close(got, expected, rel=MAP_REL_TOL):
    assert len(got) == len(expected)
    worst = max(abs(g - e) / e if e else abs(g) for g, e in zip(got, expected))
    assert worst <= rel, f"worst relative deviation {worst:.2e} > {rel:.0e}"


def _stepped_deltas(s):
    """The delta column from one public ``step_atmosphere`` call per grid step."""
    trajectory = run_scenario(s)
    step = time_grid(s.horizon_years, s.dt)[1]
    deltas = [s.delta0]
    for year in trajectory.years[:-1]:
        state = step_atmosphere(AtmosphereState(year, deltas[-1]), partial(emissions_at, s),
                                s.carbon_params, step)
        deltas.append(state.delta_co2)
    return trajectory.deltas, deltas


def test_delta_column_equals_public_stepper_to_1e_14():
    assert_deltas_close(*_stepped_deltas(scenario(eta_c=-0.01, dt=0.25)))


@settings(max_examples=40, deadline=None)
@given(
    sigma=st.floats(*SIGMA_BAND),
    eta_c=st.floats(-0.05, 0.0),
    eta_w=st.floats(0.01, 0.035),
    dt=st.sampled_from([1.0, 0.5, 0.4, 0.3, 0.25, 0.1, 0.01]),
    horizon=st.floats(1.0, 200.0),
    delta0=st.floats(0.0, 300.0),
)
def test_delta_column_follows_the_public_stepper_over_the_sweep_box(
    sigma, eta_c, eta_w, dt, horizon, delta0
):
    s = scenario(eta_c=eta_c, eta_w=eta_w, dt=dt, horizon_years=horizon, delta0=delta0,
                 carbon_params=CarbonCycleParams(sigma=sigma))
    assert_deltas_close(*_stepped_deltas(s))


def test_points_are_built_from_columns():
    trajectory = run_scenario(scenario(dt=0.5))
    points = trajectory.points
    assert points is trajectory and len(points) == 81
    assert tuple(p.year for p in points) == trajectory.years
    assert tuple(p.delta_co2 for p in points) == trajectory.deltas
    assert trajectory.at_year(2037.0) == points[40]
    assert points[-1].year == 2057.0


def _points_from_columns(trajectory):
    s = trajectory.scenario
    p = s.carbon_params
    return [
        TrajectoryPoint(t, w, s.lambda_ej * w, e, d, p.kappa_a * e / p.sigma,
                        p.preindustrial + d, p.preindustrial + p.kappa_a * e / p.sigma)
        for t, w, e, d in zip(trajectory.years, trajectory.wealth,
                              trajectory.emissions, trajectory.deltas)
    ]


def test_points_view_is_a_sequence_over_the_columns():
    trajectory = run_scenario(scenario(eta_c=-0.01, dt=0.5))
    points = trajectory.points
    expected = _points_from_columns(trajectory)
    assert len(points) == len(expected) == 81
    assert points[0] == expected[0] and points[-1] == expected[-1]
    assert points[-81] == expected[0]
    for index in (81, -82):
        with pytest.raises(IndexError):
            points[index]
    assert points[2:5] == tuple(expected[2:5])
    assert points[::-40] == tuple(expected[::-40])
    assert points[90:] == ()
    assert list(points) == expected
    assert trajectory.at_year(2037.5) == points[41]
    assert points == run_scenario(scenario(eta_c=-0.01, dt=0.5)).points
    assert points != run_scenario(scenario(eta_c=-0.01, dt=0.25)).points


def test_runs_build_no_points_until_one_is_read(monkeypatch):
    built = []

    def counting(*args):
        built.append(args[0])
        return TrajectoryPoint(*args)

    monkeypatch.setattr(projection, "TrajectoryPoint", counting)
    trajectory = run_scenario(scenario())
    steady = steady_state_commitment(scenario(), freeze_year=2030.0, settle_years=50.0)
    assert trajectory.first_crossing(560.0) is not None
    assert steady.trajectory.first_crossing(1e6) is None
    assert built == []
    assert trajectory.points[-1].year == 2057.0
    assert built == [2057.0]
    assert trajectory.at_year(2030.0).year == 2030.0
    assert built == [2057.0, 2030.0]


def _columns_by_scalar_calls(s, n_steps, dt):
    """The columns as they were once built: one closed-form call per value."""
    years = tuple([s.start_year + i * dt for i in range(n_steps + 1)])
    emissions = tuple(map(partial(emissions_at, s), years))
    p = s.carbon_params
    deltas = [s.delta0]
    for t, c_start, c_end in zip(years, emissions, emissions[1:]):
        c_mid = emissions_at(s, t + dt / 2.0)
        deltas.append(_rk4_step(deltas[-1], c_start, c_mid, c_end, dt, p.kappa_a, p.sigma))
    return years, tuple(map(partial(wealth_at, s), years)), emissions, tuple(deltas)


def assert_columns_match(trajectory, expected):
    """Years, wealth and emissions bit for bit; delta within ``MAP_REL_TOL``."""
    years, wealth, emissions, deltas = expected
    assert (trajectory.years, trajectory.wealth, trajectory.emissions) == (
        years, wealth, emissions)
    assert_deltas_close(trajectory.deltas, deltas)


@pytest.mark.parametrize("dt", [1.0, 0.3, 0.25, 0.01])
@pytest.mark.parametrize("eta_c", [0.0, -0.013])
def test_columns_equal_scalar_closed_forms_bit_for_bit(dt, eta_c):
    s = scenario(eta_c=eta_c, dt=dt)
    expected = _columns_by_scalar_calls(s, *time_grid(s.horizon_years, s.dt))
    assert_columns_match(run_scenario(s), expected)


@pytest.mark.parametrize("dt", [1.0, 0.3, 0.25])
def test_steady_state_columns_equal_scalar_closed_forms_bit_for_bit(dt):
    s = scenario(eta_c=-0.013, dt=dt)
    result = steady_state_commitment(s, freeze_year=2030.0, settle_years=20.0)
    frozen = result.trajectory.scenario
    head = _columns_by_scalar_calls(s, time_grid(13.0, dt)[0], dt)
    assert frozen.delta0 == pytest.approx(head[-1][-1], rel=MAP_REL_TOL)
    tail = _columns_by_scalar_calls(frozen, time_grid(20.0, dt)[0], dt)
    assert_columns_match(result.trajectory, tuple(a[:-1] + b for a, b in zip(head, tail)))


def test_scenario_paths_take_one_rk4_step_per_run(monkeypatch, snapshot):
    """RK4 runs once per phase to get the affine map, never once per grid step."""
    calls = []

    def counting(*args):
        calls.append(args)
        return _rk4_step(*args)

    def steps_taken(run):
        calls.clear()
        run()
        return len(calls)

    monkeypatch.setattr(projection, "_rk4_step", counting)
    for dt in (1.0, 0.3, 0.01):
        s = scenario(dt=dt)
        assert steps_taken(lambda: run_scenario(s)) == 1
        assert steps_taken(lambda: steady_state_commitment(s, 2030.0, 50.0)) == 2
        assert steps_taken(
            lambda: historical_spinup_delta(snapshot.emissions, delta0=40.0, dt=dt)) == 1


def test_fine_grid_has_no_drift():
    # 20000 steps of 0.01: repeated addition drifted past the 1e-9 tolerance.
    trajectory = run_scenario(scenario(horizon_years=200.0, dt=0.01))
    assert trajectory.at_year(2117.0).year == pytest.approx(2117.0, abs=1e-9)
    assert trajectory.years[-1] == 2217.0


def test_horizon_is_not_overshot():
    # 40 yr at dt 0.3 used to take 134 steps of 0.3 and end at 2057.2.
    trajectory = run_scenario(scenario(horizon_years=40.0, dt=0.3))
    assert len(trajectory) == 135
    assert trajectory.years[-1] == pytest.approx(2057.0, abs=1e-9)
    assert trajectory.at_year(2057.0).year == trajectory.years[-1]
    assert trajectory.years[1] - trajectory.years[0] == pytest.approx(40.0 / 134, rel=1e-12)


def test_time_grid_keeps_a_dividing_step():
    assert time_grid(40.0, 0.25) == (160, 0.25)
    assert time_grid(100.0, 0.1) == (1000, 0.1)
    assert time_grid(40.0, 0.3) == (134, 40.0 / 134)
    assert time_grid(0.1, 0.25) == (1, 0.1)


@pytest.mark.parametrize(
    "horizon, dt",
    [(math.inf, 0.25), (math.nan, 0.25), (-1.0, 0.25),
     (40.0, 0.0), (40.0, -0.25), (40.0, math.inf), (40.0, math.nan)],
)
def test_time_grid_rejects_bad_horizon_or_step(horizon, dt):
    with pytest.raises(DomainError, match="horizon must be|dt must be"):
        time_grid(horizon, dt)


@pytest.mark.parametrize("horizon, dt", [(10**400, 0.25), (40.0, 10**400)], ids=["horizon", "dt"])
def test_time_grid_rejects_an_int_too_large_for_a_float(horizon, dt):
    """Each used to raise a raw OverflowError from the finiteness check."""
    with pytest.raises(DomainError, match="horizon must be|dt must be"):
        time_grid(horizon, dt)


def test_time_grid_caps_the_point_count_without_building_a_grid():
    cap = MAX_GRID_POINTS
    assert time_grid(cap - 1.0, 1.0) == (cap - 1, 1.0)  # cap points
    assert time_grid(cap - 1.5, 1.0) == (cap - 1, (cap - 1.5) / (cap - 1))
    for horizon, dt in [(cap, 1.0), (cap - 0.5, 1.0), (1e-290, 1e-300), (1e9, 0.25),
                        (1e300, 1e-10)]:
        with pytest.raises(DomainError, match=f"needs more than {cap} grid points"):
            time_grid(horizon, dt)


@settings(max_examples=25, deadline=None)
@given(
    dt=st.floats(min_value=0.005, max_value=1.0),
    horizon=st.floats(min_value=1.0, max_value=100.0),
)
def test_every_grid_time_is_found(dt, horizon):
    s = scenario(horizon_years=horizon, dt=dt)
    trajectory = run_scenario(s)
    n_steps, step = time_grid(horizon, dt)
    assert len(trajectory) == n_steps + 1
    for k in range(len(trajectory)):
        assert trajectory.at_year(s.start_year + k * step).year == trajectory.years[k]
    assert trajectory.years[-1] == pytest.approx(s.start_year + horizon, abs=1e-9)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf,
                                       pytest.param(10**400, id="int-too-large")])
def test_first_crossing_rejects_non_finite_threshold(threshold):
    with pytest.raises(DomainError, match="threshold must be finite"):
        run_scenario(scenario()).first_crossing(threshold)


def test_at_year_rejects_off_grid_year():
    with pytest.raises(DomainError):
        run_scenario(scenario()).at_year(2017.1)


@pytest.mark.parametrize("year", [math.nan, math.inf, -math.inf,
                                  pytest.param(10**400, id="int-too-large")])
def test_at_year_rejects_an_int_too_large_for_a_float(year):
    """10**400 used to raise a raw OverflowError from ``year - 1e-9``."""
    with pytest.raises(DomainError, match="year must be finite"):
        run_scenario(scenario()).at_year(year)


@settings(max_examples=25, deadline=None)
@given(
    eta_w=st.floats(min_value=0.0, max_value=0.05),
    eta_c=st.floats(min_value=-0.02, max_value=0.0),
    delta0_frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_commitment_dominates_realized_path(eta_w, eta_c, delta0_frac):
    """delta(t) <= committed delta(t) whenever delta0 starts below the initial
    committed level and the committed path is nondecreasing."""
    if eta_w + eta_c < 0:
        return
    s0 = scenario(eta_w=eta_w, eta_c=eta_c, delta0=0.0, horizon_years=30.0)
    committed0 = committed_delta_at(s0, s0.start_year)
    s = scenario(
        eta_w=eta_w, eta_c=eta_c, delta0=delta0_frac * committed0, horizon_years=30.0
    )
    for point in run_scenario(s).points:
        assert point.delta_co2 <= point.committed_delta * (1.0 + 1e-12)


# ------------------------------------------------------------- committed curve

def test_committed_curve_monotone_and_linear():
    scale = Quantity(5.9, Unit.GW_PER_TUSD)
    c = Quantity(0.017, Unit.GTC_PER_EJ)
    pairs = committed_curve([100.0, 200.0, 400.0], scale, c)
    deltas = [d for _, d in pairs]
    assert deltas == sorted(deltas)
    assert deltas[1] == pytest.approx(2 * deltas[0], rel=1e-12)


def test_committed_curve_empty_input():
    assert committed_curve([], Quantity(5.9, Unit.GW_PER_TUSD),
                           Quantity(0.017, Unit.GTC_PER_EJ)) == []


def preset_curve(w_values, s):
    return committed_curve(w_values, Quantity(s.lambda_gw, Unit.GW_PER_TUSD),
                           Quantity(s.c0, Unit.GTC_PER_EJ), s.carbon_params)


def test_committed_curve_equals_the_preset_trajectory_bit_for_bit():
    s = datasets.preset_scenario()
    trajectory = run_scenario(s)
    assert preset_curve([s.w0], s)[0][1] == trajectory.points[0].committed_delta
    # Without decarbonization c stays c0, so the curve through the trajectory's
    # wealth is its committed level at every grid time.
    assert [d for _, d in preset_curve(trajectory.wealth, s)] == [
        p.committed_delta for p in trajectory.points
    ]


def test_committed_curve_builds_no_quantity_per_point(monkeypatch):
    s = datasets.preset_scenario()
    scale, c = Quantity(s.lambda_gw, Unit.GW_PER_TUSD), Quantity(s.c0, Unit.GTC_PER_EJ)
    built = []
    original = Quantity.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Quantity, "__init__", counting)
    pairs = committed_curve([float(w) for w in range(10_000)], scale, c, s.carbon_params)
    assert len(pairs) == 10_000
    assert built == []


@pytest.mark.parametrize("w_values, c, scale, error", [
    ([100.0, -1.0], (0.017, Unit.GTC_PER_EJ), (5.9, Unit.GW_PER_TUSD), DomainError),
    ([100.0, math.nan], (0.017, Unit.GTC_PER_EJ), (5.9, Unit.GW_PER_TUSD), DomainError),
    ([math.inf], (0.017, Unit.GTC_PER_EJ), (5.9, Unit.GW_PER_TUSD), DomainError),
    ([1e308], (0.017, Unit.GTC_PER_EJ), (1e6, Unit.GW_PER_TUSD), DomainError),
    ([100.0], (0.0, Unit.GTC_PER_EJ), (5.9, Unit.GW_PER_TUSD), DomainError),
    ([100.0], (-0.017, Unit.GTC_PER_EJ), (5.9, Unit.GW_PER_TUSD), DomainError),
    ([100.0], (0.017, Unit.GTC_PER_YR), (5.9, Unit.GW_PER_TUSD), DomainError),
    ([], (0.017, Unit.GTC_PER_YR), (5.9, Unit.GW_PER_TUSD), DomainError),
    ([100.0], (0.017, Unit.GTC_PER_EJ), (5.9, Unit.PPMV), IncompatibleUnits),
    ([1.0, 2.0], (0.018, Unit.GTC_PER_EJ), (-5.9, Unit.GW_PER_TUSD), DomainError),
    ([100.0], (0.018, Unit.GTC_PER_EJ), (0.0, Unit.GW_PER_TUSD), DomainError),
    ([], (0.018, Unit.GTC_PER_EJ), (-5.9, Unit.GW_PER_TUSD), DomainError),
    ([100.0, 10**400], (0.017, Unit.GTC_PER_EJ), (5.9, Unit.GW_PER_TUSD), DomainError),
], ids=["negative-w", "nan-w", "inf-w", "overflow", "zero-c", "negative-c", "c-unit",
        "empty-w-c-unit", "scale-unit", "negative-scale", "zero-scale", "empty-w-negative-scale",
        "int-too-large-w"])
def test_committed_curve_checks_its_inputs_once(w_values, c, scale, error):
    with pytest.raises(error):
        committed_curve(w_values, Quantity(*scale), Quantity(*c))


def test_stabilizing_at_350ppmv_needs_deep_wealth_cut(snapshot, recon):
    """Stabilization at 350 ppmv (75 over baseline) needs W to shrink to about
    a third of its 2017 value, a level last seen around the 1960s."""
    s = datasets.preset_scenario()
    scale = Quantity(s.lambda_gw, Unit.GW_PER_TUSD)
    c = Quantity(s.c0, Unit.GTC_PER_EJ)
    target = 75.0
    w_needed = target * (
        s.carbon_params.sigma / (s.carbon_params.kappa_a * s.lambda_ej * s.c0)
    )
    delta = committed_equilibrium(Quantity(w_needed, Unit.TUSD), scale, c, s.carbon_params)
    assert delta.value == pytest.approx(target, rel=1e-12)
    ratio = w_needed / recon.wealth.series.value_at(2017)
    assert 0.28 <= ratio <= 0.45
    crossing_year = next(
        year for year, value in zip(recon.wealth.series.years, recon.wealth.series.values)
        if value >= w_needed
    )
    assert 1955 <= crossing_year <= 1975


# ------------------------------------------------------------ policy quantities

def test_required_capacity_headline_numbers():
    cap = required_clean_capacity(Quantity(20000.0, Unit.GW), 0.024)
    assert cap.gw_per_year == pytest.approx(480.0, rel=1e-12)
    assert cap.gw_per_day == pytest.approx(480.0 / 365.25, rel=1e-12)
    assert cap.gw_per_day > 1.0


def test_required_capacity_lower_growth():
    cap = required_clean_capacity(Quantity(20000.0, Unit.GW), 0.016)
    assert cap.gw_per_year == pytest.approx(320.0, rel=1e-12)
    assert cap.gw_per_day < 1.0


@pytest.mark.parametrize("eta_e", [math.nan, math.inf])
def test_required_capacity_rejects_non_finite_growth(eta_e):
    with pytest.raises(DomainError, match="finite"):
        required_clean_capacity(Quantity(20000.0, Unit.GW), eta_e)


def test_required_capacity_rejects_an_int_too_large_for_a_float():
    """eta=10**400 used to raise a raw OverflowError from the finiteness check."""
    with pytest.raises(DomainError, match="finite"):
        required_clean_capacity(Quantity(20000.0, Unit.GW), 10**400)


def test_required_capacity_rejects_overflow():
    """1e308 GW growing at 10/yr used to return gw_per_year=inf."""
    with pytest.raises(DomainError, match="overflows a float"):
        required_clean_capacity(Quantity(1e308, Unit.GW), 10.0)


def test_required_capacity_zero_energy():
    cap = required_clean_capacity(Quantity(1e-12, Unit.GW), 0.024)
    assert cap.gw_per_year == pytest.approx(0.0, abs=1e-12)


def test_halving_time_values():
    assert halving_time(CarbonCycleParams()) == pytest.approx(30.14, abs=0.01)
    assert halving_time(
        CarbonCycleParams(sigma=math.log(2), allow_sigma_out_of_band=True)
    ) == pytest.approx(1.0, rel=1e-12)
    assert halving_time(
        CarbonCycleParams(sigma=0.0115, allow_sigma_out_of_band=True)
    ) == pytest.approx(2 * halving_time(CarbonCycleParams()), rel=1e-3)


def test_halving_time_rejects_overflow():
    """ln(2)/1e-320 used to come back as inf with no error."""
    with pytest.raises(DomainError, match="overflows"):
        halving_time(CarbonCycleParams(sigma=1e-320, allow_sigma_out_of_band=True))


# ----------------------------------------------------------------- steady state

def test_freeze_now_relaxes_to_committed_level():
    s = scenario(horizon_years=40.0)
    result = steady_state_commitment(s, freeze_year=2017.0, settle_years=400.0)
    expected = committed_delta_at(s, 2017.0)
    assert result.asymptote_delta == pytest.approx(expected, rel=1e-12)
    final = result.trajectory.points[-1].delta_co2
    assert final == pytest.approx(expected, rel=1e-4)


def test_freeze_2030_doubles_preindustrial(snapshot, recon):
    s = datasets.preset_scenario()
    result = steady_state_commitment(s, freeze_year=2030.0, settle_years=350.0)
    assert s.carbon_params.preindustrial + result.asymptote_delta == pytest.approx(550.0, abs=15.0)
    final = result.trajectory.points[-1].delta_co2
    assert final == pytest.approx(result.asymptote_delta, rel=1e-3)


def test_freeze_with_vanishing_carbonization_decays():
    # 400 years is ~9 sink e-foldings: exp(-0.023*400)*100 ~ 0.01 ppmv
    s = scenario(c0=1e-12, delta0=100.0)
    result = steady_state_commitment(s, freeze_year=2017.0, settle_years=400.0)
    assert result.asymptote_delta < 1e-6
    assert result.trajectory.points[-1].delta_co2 < 0.05


@pytest.mark.parametrize("freeze_year", [math.inf, math.nan,
                                         pytest.param(10**400, id="int-too-large")])
def test_freeze_year_must_be_finite(freeze_year):
    with pytest.raises(DomainError, match="freeze year must be finite"):
        steady_state_commitment(scenario(), freeze_year=freeze_year)


def test_freeze_year_before_start_rejected():
    with pytest.raises(DomainError, match="freeze year precedes the scenario start"):
        steady_state_commitment(scenario(), freeze_year=2000.0)


def test_off_grid_freeze_joins_phases_in_order():
    s = scenario(dt=0.25)
    result = steady_state_commitment(s, freeze_year=2030.1, settle_years=20.0)
    years = result.trajectory.years
    assert all(a < b for a, b in zip(years, years[1:]))
    assert years[0] == 2017.0 and years[-1] == 2050.1
    frozen = result.trajectory.at_year(2030.1)
    assert frozen.wealth == wealth_at(s, 2030.1)
    assert result.trajectory.at_year(2030.0).wealth == wealth_at(s, 2030.0)


# ---------------------------------------------------------------------- spinup

def test_historical_spinup_matches_reference_integrator(snapshot):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    params = CarbonCycleParams()
    emissions = snapshot.emissions
    delta0 = snapshot.concentration.value_at(emissions.first_year) - params.preindustrial
    got = historical_spinup_delta(emissions, params, end_year=2017, delta0=delta0)

    def rhs(t, y):
        year = min(int(math.floor(t)), emissions.last_year)
        return params.kappa_a * emissions.value_at(year) - params.sigma * y[0]

    ref = scipy_integrate.solve_ivp(
        rhs, (emissions.first_year, 2017), [delta0],
        max_step=0.25, rtol=1e-10, atol=1e-12,
    ).y[0][-1]
    assert got == pytest.approx(ref, abs=0.05)
    # linear sink model ends below the observed 2017 perturbation
    observed = snapshot.concentration.value_at(2017) - params.preindustrial
    assert 0.7 * observed < got < observed


def test_spinup_rejects_bad_inputs(snapshot):
    with pytest.raises(DomainError):
        historical_spinup_delta(snapshot.emissions, dt=1.5)
    with pytest.raises(DomainError):
        historical_spinup_delta(snapshot.emissions, delta0=-1.0)


def test_spinup_past_the_cap_is_rejected_before_stepping(snapshot, monkeypatch):
    # 1959-2016 at dt 0.01 is 58 years of 100 steps: each year fits the cap, the run does not.
    monkeypatch.setattr(projection, "MAX_GRID_POINTS", 1000)
    with pytest.raises(DomainError, match="58-year spin-up at dt=0.01 needs more than 1000 steps"):
        historical_spinup_delta(snapshot.emissions, end_year=2017, dt=0.01)


@pytest.mark.parametrize("end_year", [1000, 1958, 2019, True, 2017.5, 2017.0, "2017"])
def test_spinup_rejects_end_year_outside_the_record(snapshot, end_year):
    with pytest.raises(DomainError, match=r"end_year must be an int in \[1959, 2018\]"):
        historical_spinup_delta(snapshot.emissions, end_year=end_year, delta0=40.0)


def test_spinup_end_year_spans_the_whole_record(snapshot):
    assert historical_spinup_delta(snapshot.emissions, end_year=1959, delta0=40.0) == 40.0
    through_2017 = historical_spinup_delta(snapshot.emissions, end_year=2018, delta0=40.0)
    assert through_2017 > _spinup_from_1959(snapshot, 0.25)


@pytest.mark.parametrize("delta0", [math.nan, math.inf,
                                    pytest.param(10**400, id="int-too-large")])
def test_spinup_rejects_non_finite_delta0(snapshot, delta0):
    with pytest.raises(DomainError, match="finite"):
        historical_spinup_delta(snapshot.emissions, delta0=delta0)


def _spinup_from_1959(snapshot, dt):
    return historical_spinup_delta(snapshot.emissions, end_year=2017, delta0=40.0, dt=dt)


def test_spinup_covers_whole_years_when_dt_does_not_divide_one(snapshot):
    """dt 0.3/0.4/0.7 used to take round(1/dt) steps of dt per year and ended
    at 106.79/101.66/96.08 instead of 111.52."""
    reference = _spinup_from_1959(snapshot, 0.25)
    assert reference == pytest.approx(111.52, abs=0.01)
    for dt in (0.3, 0.4, 0.7):
        assert _spinup_from_1959(snapshot, dt) == pytest.approx(reference, rel=1e-8)


def test_spinup_refines_dt_to_the_next_divisor_of_a_year(snapshot):
    """0.3 does not divide the year, so spin-up steps by 1/4 instead."""
    assert _spinup_from_1959(snapshot, 0.3) == _spinup_from_1959(snapshot, 0.25)


def _spinup_by_yearly_rk4(emissions, params, end_year, delta0, dt):
    """Spin-up as one RK4 run per year with the year's emissions held at every stage."""
    n = time_grid(1.0, dt)[0]
    delta = delta0
    for year in range(emissions.first_year, end_year):
        held = emissions.value_at(year)
        for _ in range(n):
            delta = _rk4_step(delta, held, held, held, 1.0 / n, params.kappa_a, params.sigma)
    return delta


@pytest.mark.parametrize("sigma", SIGMA_BAND)
@pytest.mark.parametrize("dt", [1.0, 0.7, 0.4, 0.3, 0.25, 0.1, 0.01])
def test_spinup_follows_yearly_rk4_runs(snapshot, dt, sigma):
    params = CarbonCycleParams(sigma=sigma)
    for end_year in (1960, 1990, 2018):
        got = historical_spinup_delta(snapshot.emissions, params, end_year, 40.0, dt)
        want = _spinup_by_yearly_rk4(snapshot.emissions, params, end_year, 40.0, dt)
        assert abs(got - want) <= 1e-15 * want


#: Spin-up 1959 -> 2017 from delta0 = 40 ppmv (Python 3.11.7, x86-64 Linux),
#: re-recorded when spin-up began to apply RK4's one-step affine map: the
#: values at 0.4, 0.3, 0.25, 0.2 and 0.1 moved by 1-3 ulp (at most 3.8e-16
#: relative) from those of commit 981556c; the others are unchanged.
SPINUP_1959_2017 = {
    1.0: 111.51771643537121,
    0.7: 111.51771653670878,
    0.5: 111.51771653670878,
    0.4: 111.51771654207917,
    0.3: 111.5177165429799,
    0.25: 111.5177165429799,
    0.2: 111.5177165432257,
    0.1: 111.51771654338526,
    0.01: 111.51771654339585,
}


@pytest.mark.parametrize("dt", sorted(SPINUP_1959_2017))
def test_spinup_is_bit_identical_to_recorded_values(snapshot, dt):
    assert _spinup_from_1959(snapshot, dt) == SPINUP_1959_2017[dt]


@settings(max_examples=30, deadline=None)
@given(dt=st.floats(min_value=0.05, max_value=1.0, exclude_min=True))
def test_spinup_converges_at_fourth_order_in_dt(snapshot, dt):
    reference = _spinup_from_1959(snapshot, 0.25)
    got = _spinup_from_1959(snapshot, dt)
    assert abs(got - reference) <= (2e-9 * dt**4 + 1e-11) * reference
