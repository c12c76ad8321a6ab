"""The scalar constructors and calls keep the CLI's contract: typed errors, finite answers.

Every numeric argument of each callable below is drawn from finite floats,
the infinities, NaN, signed zeros, negatives, floats near the top of the
range, small ints, ints too large for a float, ints past the interpreter's
4300-digit limit for formatting an int, and text, bytes and None. Only an
``EnerscaleError`` may escape a call, every float it returns, directly or in
a returned record (fields and the derived values named in ``DERIVED``), is
finite, and what it returns can be formatted by ``repr`` for a message. A scenario run may return a
column past the float range (the CLI's writer refuses the inf), never a NaN.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enerscale.carbon import CarbonCycleParams
from enerscale.errors import DomainError, EnerscaleError
from enerscale.growth import (
    CarbonizationEstimate,
    RatesRow,
    carbonization,
    growth_rate,
    kaya_decomposition,
    rates_table,
)
from enerscale.ingestion import DataSourceDescriptor
from enerscale.projection import (
    AtmosphereState,
    CapacityRequirement,
    Scenario,
    committed_curve,
    halving_time,
    historical_spinup_delta,
    max_carbonization_coefficient,
    required_clean_capacity,
    run_scenario,
    steady_state_commitment,
    step_atmosphere,
    time_grid,
)
from enerscale.reconstruction import (
    NaturalCubicSpline,
    PppMerRatio,
    WealthSeries,
    calibrate_initial_wealth,
    spline_infill,
)
from enerscale.records import Record
from enerscale.scaling import scaling_stats, w1_sensitivity
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
    st.sampled_from(["1", b"1", None]),
)
units = st.sampled_from(Unit)

#: Values a record derives from its fields, checked like the fields.
DERIVED = {
    CapacityRequirement: ("gw_per_day",),
    RatesRow: ("predicted_eta_y",),
    Scenario: ("lambda_ej",),
}


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


#: Positive finite series values, from the smallest subnormal to near the top of the range,
#: with the extremes drawn often enough that their ratios under- and overflow.
positives = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-10, 1.0, 1e10, 1e300, 1.7e308]),
    st.floats(min_value=5e-324, max_value=1.7e308),
)


@st.composite
def growth_inputs(draw):
    """Series over 2-12 common years, wealth from a year earlier, energy in EJ/yr or GW."""
    n = draw(st.integers(min_value=2, max_value=12))
    years = tuple(range(2000, 2000 + n))

    def drawn(kind, unit):
        values = draw(st.lists(positives, min_size=n, max_size=n))
        return AnnualSeries(kind, unit, years, values)

    w = sorted(draw(st.lists(positives, min_size=n + 1, max_size=n + 1, unique=True)))
    wealth = AnnualSeries(SeriesKind.WEALTH, Unit.TUSD, (1999, *years), w)
    return dict(
        gdp=drawn(SeriesKind.GDP_MER, Unit.TUSD_PER_YR),
        energy=drawn(SeriesKind.ENERGY, draw(st.sampled_from([Unit.EJ_PER_YR, Unit.GW]))),
        emissions=drawn(SeriesKind.EMISSIONS, Unit.GTC_PER_YR),
        pop=drawn(SeriesKind.POPULATION, Unit.PERSONS),
        wealth=WealthSeries(wealth, Quantity(w[0], Unit.TUSD), "drawn"),
        p=Period(2000, 1999 + n),
    )


@given(growth_inputs())
def test_growth_layer(inputs):
    gdp, energy, emissions, pop, wealth, p = inputs.values()
    check(carbonization, emissions, energy, p, wealth)
    check(lambda: tuple(rates_table(gdp, energy, wealth, [p])))
    check(kaya_decomposition, pop, gdp, energy, emissions, p)


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


#: Growth rates from signed zeros to rates whose factor leaves the float range.
growth_rates = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 709.0, 711.0, -745.0, -800.0, 1e308, -1e308]),
    st.floats(-2000.0, 2000.0),
)
#: Spans of at most 10,001 grid points at the drawn steps.
spans = st.one_of(st.sampled_from([5e-324, 1e-9, 1.0, 40.0]), st.floats(1e-3, 100.0))
steps = st.one_of(st.sampled_from([1.0, 0.25, 0.01]), st.floats(0.01, 1.0))
initial_wealth = st.sampled_from([100.0, 1e300])


def assert_no_nan_column(trajectory):
    for name in ("years", "wealth", "emissions", "deltas"):
        assert not any(map(math.isnan, getattr(trajectory, name))), name
    repr(trajectory)


@given(growth_rates, growth_rates, spans, steps, initial_wealth)
def test_run_scenario_growth(eta_w, eta_c, horizon, dt, w0):
    s = Scenario(2017.0, horizon, w0, 5.9, 0.017, eta_w, eta_c, 100.0, dt=dt)
    try:
        trajectory = run_scenario(s)
    except EnerscaleError:
        return
    assert_no_nan_column(trajectory)


@given(growth_rates, growth_rates, spans, spans, steps, initial_wealth)
def test_steady_state_commitment_growth(eta_w, eta_c, span, settle, dt, w0):
    s = Scenario(2017.0, 1.0, w0, 5.9, 0.017, eta_w, eta_c, 100.0, dt=dt)
    try:
        result = steady_state_commitment(s, 2017.0 + span, settle)
    except EnerscaleError:
        return
    assert_no_nan_column(result.trajectory)
    assert not math.isnan(result.freeze_wealth) and not math.isnan(result.asymptote_delta)


def sometimes_wild(valid):
    """Draws of ``valid`` three times in four, otherwise of ``numbers``.

    ``st.one_of(valid, numbers)`` would flatten ``numbers`` into its six branches,
    and so draw from ``valid`` only once in four."""
    return st.integers(0, 3).flatmap(lambda i: numbers if i == 0 else valid)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)

#: Valid (sigma, kappa_a, preindustrial), the sink rate outside its band too: the defaults,
#: or each from the smallest subnormal to near the top of the range (test_carbon_cycle_params
#: draws the invalid ones).
carbon_params = st.one_of(st.just((0.023, 0.47, 275.0)), st.tuples(positives, positives, positives))


#: Text that ``float`` parses ("1", b"2.5") or not, and None: no call takes them for numbers.
texts = st.one_of(st.sampled_from(["1", b"2.5", bytearray(b"3"), None]), st.text(max_size=3))


@given(st.one_of(st.lists(numbers, min_size=4, max_size=6),
                 st.lists(finite_floats, min_size=4, max_size=6, unique=True).map(sorted),
                 st.lists(st.integers(-9, 9), min_size=4, max_size=6, unique=True)
                 .map(lambda v: [str(i) for i in sorted(v)])),
       st.one_of(st.lists(sometimes_wild(finite_floats), min_size=4, max_size=6),
                 st.lists(st.one_of(finite_floats, texts), min_size=4, max_size=6)),
       st.lists(st.one_of(numbers, texts), max_size=3))
def test_natural_cubic_spline(x, y, queries):
    """Queries are the drawn numbers or text, every knot and every midpoint between two
    knots. Knots may be increasing numbers written as text, which float() would parse."""
    try:
        spline = NaturalCubicSpline(x, y)
    except EnerscaleError:
        return
    assert not any(isinstance(v, (str, bytes, bytearray)) for v in [*x, *y]), (x, y)
    knots = [float(v) for v in x]  # strictly increasing, or the spline was refused
    check(lambda: tuple(spline([*knots, *(a / 2 + b / 2 for a, b in zip(knots, knots[1:]))])))
    check(lambda: tuple(spline(queries)))


@given(st.lists(st.integers(-3000, 3000), min_size=4, max_size=6, unique=True).map(sorted),
       st.lists(positives, min_size=6, max_size=6))
def test_spline_infill(years, values):
    sparse = AnnualSeries(SeriesKind.GDP_PPP, Unit.TUSD_PER_YR, years, values[:len(years)])
    check(lambda: spline_infill(sparse).values)


@given(st.lists(sometimes_wild(st.one_of(positives, st.just(0.0))), max_size=4),
       sometimes_wild(positives), sometimes_wild(positives), carbon_params,
       st.sampled_from([Unit.GW_PER_TUSD, Unit.EJ_PER_YR_PER_TUSD]) | units)
def test_committed_curve(w_values, scale, c, carbon, scale_unit):
    check(lambda: tuple(committed_curve(w_values, Quantity(scale, scale_unit),
                                        Quantity(c, Unit.GTC_PER_EJ),
                                        CarbonCycleParams(*carbon, True))))


@given(st.one_of(st.lists(positives, min_size=1, max_size=12),
                 st.lists(st.sampled_from([1e300, 1.7e308]), min_size=3, max_size=12)),
       carbon_params, sometimes_wild(st.one_of(st.just(0.0), positives)),
       sometimes_wild(st.one_of(st.none(), st.integers(2000, 2013))),
       sometimes_wild(st.one_of(st.sampled_from([1.0, 0.3, 0.25]), st.floats(0.01, 1.0))))
def test_historical_spinup_delta(rates, carbon, delta0, end_year, dt):
    """Only ``numbers`` draws a ``dt`` under 0.01; ``MAX_GRID_POINTS`` bounds its run."""
    emissions = AnnualSeries(SeriesKind.EMISSIONS, Unit.GTC_PER_YR,
                             range(2000, 2000 + len(rates)), rates)
    check(lambda: historical_spinup_delta(emissions, CarbonCycleParams(*carbon, True),
                                          end_year, delta0, dt))


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


def test_max_carbonization_coefficient_of_a_tiny_scaling_is_refused():
    """sigma/(kappa*lambda) used to return inf for 1e-310 GW per T$."""
    for tiny in (1e-310, 5e-324):
        with pytest.raises(DomainError, match="sigma/\\(kappa\\*lambda\\) is not finite"):
            max_carbonization_coefficient(Quantity(tiny, Unit.GW_PER_TUSD))


@pytest.mark.parametrize("values", [(1e-300, 1e300), (1e300, 1e-300)])
def test_growth_rate_whose_endpoint_ratio_leaves_the_float_range_is_refused(values):
    """end/start overflowing used to give inf, and underflowing a raw ValueError from log."""
    s = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (2000, 2001), values)
    with pytest.raises(DomainError, match="log growth over 2000-2001 is not finite"):
        growth_rate(s, Period(2000, 2001))


def test_kaya_affluence_whose_ratio_overflows_is_refused():
    """(Y1/P1)/(Y0/P0) reaching inf used to give an infinite affluence growth."""
    years, p = (2000, 2001), Period(2000, 2001)
    gdp = AnnualSeries(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, (1e-300, 1e300))
    pop = AnnualSeries(SeriesKind.POPULATION, Unit.PERSONS, years, (1.0, 1.0))
    energy = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, (1.0, 1.0))
    with pytest.raises(DomainError, match="log growth over 2000-2001 is not finite"):
        kaya_decomposition(pop, gdp, energy, EMISSIONS, p)


def series_from_2000(kind, unit, values):
    return AnnualSeries(kind, unit, range(2000, 2000 + len(values)), values)


def wealth_from(first_year, values):
    series = AnnualSeries(SeriesKind.WEALTH, Unit.TUSD, range(first_year, first_year + len(values)),
                          values)
    return WealthSeries(series, Quantity(values[0], Unit.TUSD), "synthetic")


RATIO_CASES = {
    # 5e-324 GW is 0.0 EJ/yr, which used to raise a bare ZeroDivisionError
    "carbonization-gw-to-zero": lambda: carbonization(
        series_from_2000(SeriesKind.EMISSIONS, Unit.GTC_PER_YR, (1.7e308, 1.7e308, 1e-10)),
        series_from_2000(SeriesKind.ENERGY, Unit.GW, (1e300, 5e-324, 1e-10)),
        Period(2000, 2002), wealth_from(2000, (5e-324, 1e-310, 1e-10)),
    ),
    "carbonization-underflow": lambda: carbonization(
        series_from_2000(SeriesKind.EMISSIONS, Unit.GTC_PER_YR, (5e-324, 1.0)),
        series_from_2000(SeriesKind.ENERGY, Unit.EJ_PER_YR, (1e10, 1.0)),
        Period(2000, 2001), wealth_from(2000, (1.0, 2.0)),
    ),
    "rates-gw-to-zero": lambda: rates_table(
        series_from_2000(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, (1.0, 2.0)),
        series_from_2000(SeriesKind.ENERGY, Unit.GW, (5e-324, 1e-300)),
        wealth_from(2000, (1e-10, 2.0)), [Period(2000, 2001)],
    ),
    "rates-underflow": lambda: rates_table(
        series_from_2000(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, (5e-324, 1.0)),
        series_from_2000(SeriesKind.ENERGY, Unit.EJ_PER_YR, (1e10, 1.0)),
        wealth_from(2000, (1.0, 2.0)), [Period(2000, 2001)],
    ),
}


@pytest.mark.parametrize("call", RATIO_CASES.values(), ids=RATIO_CASES)
def test_a_ratio_that_is_zero_or_infinite_in_a_year_is_refused(call):
    with pytest.raises(DomainError, match="in 200[01] is not a positive finite ratio"):
        call()


def test_rates_table_whose_lambda_eps_overflows_is_refused():
    """A scaling of 7.5e9 (EJ/yr)/T$ times a productivity of 1e300 T$/EJ used to give inf."""
    gdp = series_from_2000(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, (1e300, 1e300))
    energy = series_from_2000(SeriesKind.ENERGY, Unit.EJ_PER_YR, (1.0, 1.0))
    wealth = wealth_from(1999, (1e-10, 2e-10, 3e-10))
    with pytest.raises(DomainError, match="lambda\\*eps over 2000-2001 exceeds the float range"):
        rates_table(gdp, energy, wealth, [Period(2000, 2001)])


@pytest.mark.parametrize("values", [(1e308,) * 3, (1e200, 1.0, 1e200)])
def test_scaling_stats_whose_sums_overflow_are_refused(values):
    """The mean's fsum used to raise a raw OverflowError, and the std's squares reached inf."""
    s = AnnualSeries(SeriesKind.SCALING, Unit.GW_PER_TUSD, (2000, 2001, 2002), values)
    with pytest.raises(DomainError, match="exceeds the float range"):
        scaling_stats(s, Period(2000, 2002))


def test_emissions_that_are_zero_times_inf_are_refused():
    """Wealth past the float range times a carbonization underflowed to 0 gave NaN emissions."""
    s = Scenario(2017.0, 100.0, 1e300, 5.9, 0.017, 1.0, -10.0, 100.0, dt=1.0)
    with pytest.raises(DomainError, match="emissions lambda\\*c\\*W are 0 times inf"):
        run_scenario(s)


def test_a_perturbation_past_the_float_range_stays_inf():
    """The map's d + a*d of an infinite perturbation is inf - inf: every later delta was NaN."""
    trajectory = run_scenario(Scenario(2017.0, 100.0, 1e300, 5.9, 0.017, 1.0, dt=0.25))
    assert math.isinf(trajectory.deltas[-1])
    assert not any(map(math.isnan, trajectory.deltas))


def test_growth_that_overflows_by_an_off_grid_freeze_year_is_refused():
    """The freeze year lies 5e-10 yr past the head's grid: its factor raised OverflowError."""
    s = Scenario(2017.0, 40.0, 3400.0, 5.7, 0.0162, 70.978271289, dt=0.25)
    with pytest.raises(DomainError, match="overflows a float by the freeze year 2027.0000000005"):
        steady_state_commitment(s, 2017.0 + 10.0000000005, 5.0)


def test_a_spinup_perturbation_past_the_float_range_is_refused():
    """Four years at 1.7e308 GtC/yr used to return NaN: past inf, d + a*d is inf - inf."""
    emissions = AnnualSeries(SeriesKind.EMISSIONS, Unit.GTC_PER_YR, range(2000, 2005),
                             (1.7e308,) * 5)
    for dt in (1.0, 0.25):
        with pytest.raises(DomainError, match="spin-up perturbation overflows a float by 2004"):
            historical_spinup_delta(emissions, dt=dt)


#: Each scalar argument that ``units.finite`` checks, called with the value it is given.
SCALAR_CHECKS = {
    "Scenario": lambda v: Scenario(2017.0, 40.0, 100.0, 5.9, v, 0.02),
    "CarbonCycleParams": lambda v: CarbonCycleParams(sigma=v),
    "AtmosphereState": lambda v: AtmosphereState(2000.0, v),
    "time_grid": lambda v: time_grid(v, 0.25),
    "required_clean_capacity": lambda v: required_clean_capacity(Quantity(1.0, Unit.GW), v),
    "steady_state_commitment-settle_years": lambda v: steady_state_commitment(SCENARIO, 2018.0, v),
    "at_year": lambda v: TRAJECTORY.at_year(v),
    "first_crossing": lambda v: TRAJECTORY.first_crossing(v),
    "spinup-delta0": lambda v: historical_spinup_delta(EMISSIONS, delta0=v),
    "spinup-dt": lambda v: historical_spinup_delta(EMISSIONS, dt=v),
    "step_atmosphere-dt": lambda v: step_atmosphere(AtmosphereState(2000.0, 1.0), 1.0, dt=v),
    "w1_sensitivity": lambda v: w1_sensitivity(GDP, ENERGY, W1, v, Period(1, 2)),
    "pop_growth": lambda v: calibrate_initial_wealth(GDP, v),
    "PppMerRatio": lambda v: PppMerRatio(v, Period(1970, 1992)),
    "descriptor-scale": lambda v: DataSourceDescriptor("x.csv", SeriesKind.ENERGY,
                                                       Unit.EJ_PER_YR, scale=v),
    "to_unit": lambda v: to_unit(v, Unit.GW, Unit.EJ_PER_YR),
}


@pytest.mark.parametrize("value", ["1", None], ids=["text", "none"])
@pytest.mark.parametrize("call", SCALAR_CHECKS.values(), ids=SCALAR_CHECKS)
def test_text_or_none_fails_with_a_domain_error(call, value):
    """``units.finite`` raised a raw TypeError from math.isfinite, and the comparisons did too."""
    with pytest.raises(DomainError):
        call(value)


def test_a_nan_ppp_mer_ratio_is_refused():
    """``nan <= 0`` is False, so a NaN ratio used to be accepted."""
    with pytest.raises(DomainError, match="PPP/MER ratio must be positive and finite, got nan"):
        PppMerRatio(math.nan, Period(1970, 1992))


def test_a_nan_carbonization_is_refused():
    """``nan <= 0`` is False, so a NaN carbonization used to be accepted."""
    with pytest.raises(DomainError, match="carbonization must be positive and finite, got nan"):
        CarbonizationEstimate(Period(2000, 2001), math.nan, 0.0, 1.0, 0.0)


NOT_ITERABLE = {
    "committed_curve": lambda: committed_curve(5, Quantity(5.9, Unit.GW_PER_TUSD),
                                               Quantity(0.017, Unit.GTC_PER_EJ)),
    "series-values": lambda: AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (2000,), 5),
}


@pytest.mark.parametrize("call", NOT_ITERABLE.values(), ids=NOT_ITERABLE)
def test_a_sequence_argument_that_is_not_iterable_is_refused(call):
    """``committed_curve(5, ...)`` and a series of values 5 raised a raw TypeError."""
    with pytest.raises(DomainError, match="must be a sequence of numbers, got 5"):
        call()


@pytest.mark.parametrize("text", ["1", b"1", bytearray(b"1")], ids=["str", "bytes", "bytearray"])
def test_committed_curve_refuses_text(text):
    """float() parsed "1" and the curve returned [(1.0, 0.644...)]; AnnualSeries refuses text."""
    with pytest.raises(DomainError, match="cumulative production must be finite numbers, got"):
        committed_curve([2.0, text], Quantity(5.9, Unit.GW_PER_TUSD),
                        Quantity(0.017, Unit.GTC_PER_EJ))
