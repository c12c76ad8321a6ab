"""The scalar constructors keep the CLI's contract: typed errors, finite answers.

Every numeric argument of each callable below is drawn from finite floats,
the infinities, NaN, signed zeros, negatives, floats near the top of the
range, small ints and ints too large for a float. Only an ``EnerscaleError``
may escape a call, and every float it returns, directly or in a returned
record (fields and the derived values named in ``DERIVED``), is finite.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from enerscale.carbon import CarbonCycleParams
from enerscale.errors import EnerscaleError
from enerscale.projection import (
    CapacityRequirement,
    Scenario,
    halving_time,
    required_clean_capacity,
    time_grid,
)
from enerscale.records import Record
from enerscale.units import Quantity, Unit, to_unit

numbers = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, 1e-300]),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=2**1024),
    st.integers(max_value=-(2**1024)),
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
def test_time_grid(horizon, dt):
    check(time_grid, horizon, dt)


@given(numbers, st.sampled_from([Unit.GW, Unit.EJ_PER_YR, Unit.TUSD]), numbers)
def test_required_clean_capacity(value, unit, eta):
    check(lambda: required_clean_capacity(Quantity(value, unit), eta))


@given(numbers)
def test_halving_time(sigma):
    check(lambda: halving_time(CarbonCycleParams(sigma=sigma, allow_sigma_out_of_band=True)))
