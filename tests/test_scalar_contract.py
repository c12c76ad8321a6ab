"""The scalar constructors and calls keep the CLI's contract: typed errors, finite answers.

Every numeric argument of each callable below is drawn from finite floats,
the infinities, NaN, signed zeros, negatives, floats near the top of the
range, small ints, ints too large for a float and ints past the interpreter's
4300-digit limit for formatting an int. Only an ``EnerscaleError`` may escape
a call, every float it returns, directly or in a returned record (fields
and the derived values named in ``DERIVED``), is finite, and what it returns
can be formatted by ``repr`` for a message.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enerscale.carbon import CarbonCycleParams
from enerscale.errors import EnerscaleError
from enerscale.ingestion import DataSourceDescriptor
from enerscale.projection import (
    AtmosphereState,
    CapacityRequirement,
    Scenario,
    halving_time,
    historical_spinup_delta,
    required_clean_capacity,
    run_scenario,
    steady_state_commitment,
    step_atmosphere,
    time_grid,
)
from enerscale.reconstruction import calibrate_initial_wealth
from enerscale.records import Record
from enerscale.scaling import w1_sensitivity
from enerscale.series import AnnualSeries, Period, SeriesKind
from enerscale.units import Quantity, Unit, to_unit

#: An int whose decimal digits ``repr`` refuses to format (more than 4300 of them).
PAST_STR_LIMIT = 10**5000

numbers = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, 1e-300]),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=2**1024),
    st.integers(max_value=-(2**1024)),
    st.sampled_from([PAST_STR_LIMIT, -PAST_STR_LIMIT]),
)
units = st.sampled_from(Unit)

#: Values a record derives from its fields, checked like the fields.
DERIVED = {CapacityRequirement: ("gw_per_day",), Scenario: ("lambda_ej",)}


def floats_in(value):
    """Every float in ``value``, a float, a tuple or a record (recursively)."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from floats_in(item)
    elif isinstance(value, Record):
        names = value._fields + DERIVED.get(type(value), ())
        for name in names:
            yield from floats_in(getattr(value, name))


def check(call, *args, **kwargs):
    try:
        result = call(*args, **kwargs)
    except EnerscaleError:
        return
    assert all(map(math.isfinite, floats_in(result))), (call, args, kwargs, result)
    repr(result)


@given(numbers, units)
def test_quantity(value, unit):
    check(Quantity, value, unit)


@given(numbers, units, units)
def test_to_unit(value, source, target):
    check(to_unit, value, source, target)


@given(numbers, numbers, numbers, st.booleans())
def test_carbon_cycle_params(sigma, kappa_a, preindustrial, out_of_band):
    check(CarbonCycleParams, sigma, kappa_a, preindustrial, out_of_band)


@given(st.lists(numbers, min_size=9, max_size=9))
def test_scenario(values):
    start, horizon, w0, lambda_gw, c0, eta_w, eta_c, delta0, dt = values
    check(Scenario, start, horizon, w0, lambda_gw, c0, eta_w, eta_c, delta0, dt=dt)


@given(numbers, numbers)
def test_period(start, end):
    check(Period, start, end)


@given(numbers, numbers)
def test_time_grid(horizon, dt):
    check(time_grid, horizon, dt)


@given(numbers, st.sampled_from([Unit.GW, Unit.EJ_PER_YR, Unit.TUSD]), numbers)
def test_required_clean_capacity(value, unit, eta):
    check(lambda: required_clean_capacity(Quantity(value, unit), eta))


@given(numbers)
def test_halving_time(sigma):
    check(lambda: halving_time(CarbonCycleParams(sigma=sigma, allow_sigma_out_of_band=True)))


SCENARIO = Scenario(2017.0, 2.0, 100.0, 5.9, 0.017, 0.02, dt=1.0)
EMISSIONS = AnnualSeries(SeriesKind.EMISSIONS, Unit.GTC_PER_YR, (2000, 2001), (1.0, 1.0))
GDP = AnnualSeries(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, (1, 2), (1.0, 1.0))
ENERGY = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (1, 2), (1.0, 2.0))
W1 = Quantity(1.0, Unit.TUSD)
TRAJECTORY = run_scenario(SCENARIO)


@given(numbers)
def test_trajectory_at_year(year):
    check(TRAJECTORY.at_year, year)


@given(numbers)
def test_trajectory_first_crossing(threshold):
    check(TRAJECTORY.first_crossing, threshold)


@given(numbers, numbers)
def test_step_atmosphere(emissions, dt):
    check(step_atmosphere, AtmosphereState(2000.0, 1.0), emissions, dt=dt)


@given(numbers)
def test_w1_sensitivity_factor(factor):
    check(w1_sensitivity, GDP, ENERGY, W1, factor, Period(1, 2))


#: Each check that names the value it refuses, called with that value.
NAMING_CHECKS = {
    "Quantity": lambda v: Quantity(v, Unit.GW),
    "to_unit": lambda v: to_unit(v, Unit.GW, Unit.EJ_PER_YR),
    "time_grid-horizon": lambda v: time_grid(v, 0.25),
    "time_grid-dt": lambda v: time_grid(40.0, v),
    "required_clean_capacity": lambda v: required_clean_capacity(Quantity(1.0, Unit.GW), v),
    "AtmosphereState": lambda v: AtmosphereState(2000.0, v),
    "first_crossing": lambda v: TRAJECTORY.first_crossing(v),
    "at_year": lambda v: TRAJECTORY.at_year(v),
    "step_atmosphere": lambda v: step_atmosphere(AtmosphereState(2000.0, 1.0), v),
    "w1_sensitivity": lambda v: w1_sensitivity(GDP, ENERGY, W1, v, Period(1, 2)),
    "steady_state_commitment": lambda v: steady_state_commitment(SCENARIO, v),
    "spinup-delta0": lambda v: historical_spinup_delta(EMISSIONS, delta0=v),
    "spinup-end_year": lambda v: historical_spinup_delta(EMISSIONS, end_year=v),
    "pop_growth": lambda v: calibrate_initial_wealth(GDP, v),
    "Period": lambda v: Period(v, 2000) if v > 0 else Period(2000, v),
    "Period-integral": lambda v: Period(math.nan, v),
    "series-values": lambda v: AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (2000,), (v,)),
    "descriptor-scale": lambda v: DataSourceDescriptor("x.csv", SeriesKind.ENERGY,
                                                       Unit.EJ_PER_YR, scale=-abs(v)),
}


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("call", NAMING_CHECKS.values(), ids=NAMING_CHECKS)
def test_an_int_past_the_str_limit_is_named_by_its_size(call, sign):
    """Formatting such an int into the message used to raise ValueError instead."""
    with pytest.raises(EnerscaleError, match="<int of 16610 bits>"):
        call(sign * PAST_STR_LIMIT)
