import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from enerscale.errors import DomainError, EmptySlice, InvalidPeriod, KindError
from enerscale.series import (
    AnnualSeries,
    Period,
    SeriesKind,
    aligned_values,
    log_slope,
    mean,
    period_values,
    sample_std,
)
from enerscale.units import Unit


def make_series(start, end, value=1.0, kind=SeriesKind.ENERGY, unit=Unit.EJ_PER_YR):
    years = tuple(range(start, end + 1))
    return AnnualSeries(kind, unit, years, tuple(value for _ in years))


# -------------------------------------------------------------------- Period

def test_period_requires_increasing_years():
    with pytest.raises(InvalidPeriod):
        Period(2010, 2010)
    with pytest.raises(InvalidPeriod):
        Period(2010, 2005)
    assert Period(1980, 2017).span == 37


@pytest.mark.parametrize(
    "start, end", [(2000.5, 2001.5), (1970.9, 1992), (1970, 1992.2), ("1970", 1992),
                   (math.nan, 1992)],
)
def test_period_rejects_non_integral_years(start, end):
    with pytest.raises(InvalidPeriod, match="integers"):
        Period(start, end)
    assert Period(1970.0, 1992) == Period(1970, 1992)
    assert type(Period(1970.0, 1992.0).start_year) is int


#: Years a float time grid does not hold exactly, each named as the message shows it.
YEARS_PAST_2_53 = [
    pytest.param(2**53 + 1, "9007199254740993", id="2**53+1"),
    pytest.param(2**60, "1152921504606846976", id="2**60"),
    pytest.param(1e300, "1e+300", id="float-1e300"),
    pytest.param(10**300, "1" + "0" * 300, id="10**300"),
    pytest.param(10**5000, "<int of 16610 bits>", id="past-the-str-limit"),
]


@pytest.mark.parametrize("year, shown", YEARS_PAST_2_53)
def test_period_rejects_a_year_past_2_53(year, shown):
    """``str(Period(1, 10**5000))`` raised ValueError; such a period is refused instead."""
    with pytest.raises(InvalidPeriod, match=re.escape(f"within ±2**53, got {shown}")):
        Period(1, year)
    with pytest.raises(InvalidPeriod, match=re.escape(f"within ±2**53, got -{shown}")):
        Period(-year, 1)
    assert str(Period(-(2**53), 2**53)) == "-9007199254740992-9007199254740992"


@pytest.mark.parametrize("year, shown", [p for p in YEARS_PAST_2_53 if p.id != "float-1e300"])
def test_series_rejects_a_year_past_2_53(year, shown):
    """``repr`` of a series with a year of 10**5000 raised ValueError; the series is refused."""
    with pytest.raises(DomainError, match=re.escape(f"within ±2**53, got {shown}")):
        AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (2000, year), (1.0, 2.0))
    with pytest.raises(DomainError, match=re.escape(f"within ±2**53, got -{shown}")):
        AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (-year, 2000), (1.0, 2.0))
    edge = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (-(2**53), 2**53), (1.0, 2.0))
    assert edge.years == (-(2**53), 2**53)


# -------------------------------------------------------------- construction

def test_rejects_duplicate_or_unsorted_years():
    with pytest.raises(DomainError):
        AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (2000, 2000), (1.0, 2.0))
    with pytest.raises(DomainError):
        AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (2001, 2000), (1.0, 2.0))


@pytest.mark.parametrize(
    "years", [(2000.9, 2001.2, 2002.5), (2000, 2001.5, 2002), ("2000", 2001, 2002),
              (2000, 2001, math.inf), (2000, math.nan, 2002)],
)
def test_rejects_non_integral_years(years):
    # Not truncated: int() alone would read 2000.9 as 2000.
    with pytest.raises(DomainError, match="integers"):
        AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, (1.0, 2.0, 3.0))
    s = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (2000.0, 2001, 2002.0), (1.0, 2.0, 3.0))
    assert s.years == (2000, 2001, 2002) and all(type(y) is int for y in s.years)


@pytest.mark.parametrize(
    "bad", ["1.5", " 2 ", b"2", "nan", None, [2.0], 1j,
            pytest.param(10**400, id="int-too-large-for-a-float")],
)
def test_rejects_non_numeric_values(bad):
    # Not parsed: float() alone would read "1.5" as 1.5 and " 2 " as 2.0.
    with pytest.raises(DomainError, match=f"must be finite numbers, got {re.escape(repr(bad))}"):
        AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (2000, 2001, 2002), (1.0, bad, 3.0))


class _Float(float):
    pass


@pytest.mark.parametrize("nan", [math.nan, float("nan"), _Float("nan")])
def test_nan_values_are_rejected_as_not_finite(nan):
    with pytest.raises(DomainError, match="series values must be finite"):
        AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (2000, 2001), (0.01, nan))


@pytest.mark.parametrize("inf", [math.inf, -math.inf])
def test_infinite_values_are_rejected_as_not_finite(inf):
    with pytest.raises(DomainError, match="series values must be finite"):
        AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (2000, 2001), (0.01, inf))


def test_numbers_of_any_type_are_stored_as_floats():
    s = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (2000, 2001, 2002, 2003),
                     (1, Fraction(3, 2), Decimal("2.5"), _Float(4.0)))
    assert s.values == (1.0, 1.5, 2.5, 4.0) and all(type(v) is float for v in s.values)


@pytest.mark.parametrize(
    "years, values",
    [
        ((2000, 2001, 2002), (1, 2, 3)),
        ((False, True, 2), (True, 2.0, 3)),
        ((np.int64(2000), 2001, 2002), (np.float64(0.1), np.float32(0.5), np.float64(3.0))),
        ((2000.0, 2001, 2002), np.array([0.1, 0.2, 0.3])),
    ],
)
def test_stores_exact_ints_and_floats(years, values):
    s = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, values)
    assert s.years == tuple(years) and s.values == tuple(values)
    assert {type(y) for y in s.years} == {int} and {type(v) for v in s.values} == {float}


def test_exact_ints_and_floats_are_stored_as_given():
    years, values = (2000, 2001), (1.5, 2.5)
    s = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, values)
    assert s.years is years and s.values is values


def test_rejects_nonpositive_values():
    with pytest.raises(DomainError):
        AnnualSeries(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, (2000,), (0.0,))
    with pytest.raises(DomainError):
        AnnualSeries(SeriesKind.CONCENTRATION, Unit.PPMV, (2000,), (-3.0,))


def test_zero_gdp_still_rejected():
    with pytest.raises(DomainError, match="strictly positive"):
        AnnualSeries(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, (2000, 2001), (1.0, 0.0))


@pytest.mark.parametrize("years, values", [((2000, 2001), (1.0,)), ((2000,), (1.0, 2.0))])
def test_rejects_years_and_values_of_unequal_length(years, values):
    with pytest.raises(DomainError, match="years and values must have equal length"):
        AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, values)


def test_rejects_unit_kind_mismatch():
    with pytest.raises(KindError):
        AnnualSeries(SeriesKind.ENERGY, Unit.PPMV, (2000,), (1.0,))
    with pytest.raises(KindError):
        AnnualSeries(SeriesKind.GDP_MER, Unit.TUSD, (2000,), (1.0,))


def test_energy_accepts_both_units():
    make_series(2000, 2001, unit=Unit.EJ_PER_YR)
    make_series(2000, 2001, unit=Unit.GW)


# ------------------------------------------------------------- period reader

def test_slice_standard_window():
    s = make_series(1970, 2017)
    s = s.with_data(s.years, [float(y) for y in s.years])
    out = period_values(s, Period(1980, 2017), "energy series")
    assert len(out) == 38
    assert out[0] == 1980.0 and out[-1] == 2017.0


def test_slice_identity():
    s = make_series(1970, 2017)
    assert period_values(s, Period(1970, 2017), "energy series") == s.values


def test_slice_disjoint_raises():
    s = make_series(1970, 2017)
    with pytest.raises(EmptySlice, match="no energy series inside 2020-2030"):
        period_values(s, Period(2020, 2030), "energy series")


years_strategy = st.integers(min_value=1, max_value=2100)


@st.composite
def annual_series(draw, min_size=2, max_size=40):
    years = sorted(
        draw(
            st.sets(years_strategy, min_size=min_size, max_size=max_size)
        )
    )
    values = [
        draw(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
        for _ in years
    ]
    return AnnualSeries(
        SeriesKind.ENERGY, Unit.EJ_PER_YR, tuple(years), tuple(values)
    )


@given(s=annual_series())
def test_slice_never_mutates_input(s):
    before = (s.years, s.values)
    try:
        period_values(s, Period(s.first_year, s.first_year + 1), "energy series")
    except EmptySlice:
        pass
    assert (s.years, s.values) == before


@given(s=annual_series(min_size=1), start=years_strategy, span=st.integers(1, 300))
def test_slice_keeps_the_points_inside(s, start, span):
    """The points inside ``p`` when they are every year of it; otherwise the
    first year of ``p`` that ``s`` lacks is named."""
    p = Period(start, start + span)
    inside = [(y, v) for y, v in zip(s.years, s.values) if p.start_year <= y <= p.end_year]
    if not inside:
        with pytest.raises(EmptySlice, match=f"no energy series inside {p}"):
            period_values(s, p, "energy series")
        return
    missing = [y for y in range(p.start_year, p.end_year + 1) if not s.has_year(y)]
    if missing:
        with pytest.raises(EmptySlice, match=f"has {len(inside)} of the {span + 1} years of {p};"
                                             f" {missing[0]} is missing"):
            period_values(s, p, "energy series")
        return
    assert period_values(s, p, "energy series") == tuple(v for _, v in inside)


# ----------------------------------------------------------------- alignment

def test_aligned_values_contiguous_overlap():
    a = make_series(2000, 2003)
    a = a.with_data(a.years, (1.0, 2.0, 3.0, 4.0))
    b = AnnualSeries(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, (2002, 2003, 2004), (5.0, 6.0, 7.0))
    assert aligned_values(a, b) == ((2002, 2003), (3.0, 4.0), (5.0, 6.0))


def test_aligned_values_sparse_knots(snapshot):
    """The sparse PPP knots align with the annual MER record on their shared years."""
    years, ppp, mer = aligned_values(snapshot.gdp_ppp, snapshot.gdp_mer)
    shared = sorted(set(snapshot.gdp_ppp.years) & set(snapshot.gdp_mer.years))
    assert list(years) == shared and len(shared) > 1
    assert list(ppp) == [snapshot.gdp_ppp.value_at(y) for y in shared]
    assert list(mer) == [snapshot.gdp_mer.value_at(y) for y in shared]


def test_aligned_values_disjoint_raises():
    a = make_series(1990, 1995)
    b = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (1989, 1996), (1.0, 1.0))
    with pytest.raises(EmptySlice, match="series share no years"):
        aligned_values(a, b)
    with pytest.raises(EmptySlice, match="series share no years"):
        aligned_values(a, make_series(2000, 2001))


@st.composite
def contiguous_series(draw):
    first = draw(st.integers(min_value=1, max_value=60))
    years = range(first, first + draw(st.integers(min_value=1, max_value=60)))
    values = [draw(st.floats(min_value=1e-6, max_value=1e6)) for _ in years]
    return AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, tuple(years), tuple(values))


either_series = st.one_of(contiguous_series(), annual_series(min_size=1))


@given(a=either_series, b=either_series)
def test_aligned_values_matches_year_intersection(a, b):
    shared = sorted(set(a.years) & set(b.years))
    if not shared:
        with pytest.raises(EmptySlice):
            aligned_values(a, b)
        return
    years, a_values, b_values = aligned_values(a, b)
    assert list(years) == shared
    assert list(a_values) == [a.value_at(y) for y in shared]
    assert list(b_values) == [b.value_at(y) for y in shared]


def test_value_at_missing_year():
    s = make_series(2000, 2005)
    with pytest.raises(EmptySlice):
        s.value_at(1999)


def test_value_at_contiguous_offsets():
    s = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (1990, 1991, 1992), (1.0, 2.0, 3.0))
    assert [s.value_at(y) for y in (1990, 1991, 1992)] == [1.0, 2.0, 3.0]
    assert s.has_year(1991) and not s.has_year(1993) and not s.has_year(1989)


def test_value_at_sparse_knots(snapshot):
    """The PPP record is sparse (year 1, 1000, 1500, ...), so lookups bisect."""
    ppp = snapshot.gdp_ppp
    assert not ppp.is_contiguous()
    for i, (year, value) in enumerate(zip(ppp.years, ppp.values)):
        assert ppp.value_at(year) == value
        assert ppp.has_year(year)
        assert ppp.value_at(float(year)) == value
        if i + 1 < len(ppp) and ppp.years[i + 1] > year + 1:
            assert not ppp.has_year(year + 1)
            with pytest.raises(EmptySlice, match=f"no value for year {year + 1}"):
                ppp.value_at(year + 1)


def test_value_at_missing_year_inside_gap():
    s = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (2000, 2002, 2003), (1.0, 2.0, 3.0))
    # Offset 1 holds 2002, not 2001; offset 2 holds 2003, not 2002.
    assert s.value_at(2002) == 2.0
    assert not s.has_year(2001)
    with pytest.raises(EmptySlice, match="series has no value for year 2001"):
        s.value_at(2001)
    with pytest.raises(EmptySlice):
        s.value_at(2004)


# ------------------------------------------------------------- statistics

def cut(s, first, last):
    """Years and values of ``s`` from ``first`` to ``last``, both held, by tuple slicing."""
    lo, hi = s.years.index(first), s.years.index(last) + 1
    return s.years[lo:hi], s.values[lo:hi]


def test_mean_and_std_match_numpy(snapshot, recon):
    samples = [
        snapshot.energy.values,
        recon.wealth.series.values,
        cut(snapshot.emissions, 1980, 2017)[1],
        (1.0, 1.0 + 2.0**-40, 1.0 - 2.0**-41),
    ]
    for values in samples:
        arr = np.asarray(values)
        assert mean(values) == pytest.approx(arr.mean(), rel=1e-15, abs=0.0)
        assert sample_std(values) == pytest.approx(arr.std(ddof=1), rel=1e-15, abs=0.0)


def test_std_of_one_point_is_zero():
    assert sample_std((3.0,)) == 0.0
    assert mean((3.0,)) == 3.0


def _exact_log_slope(xs, ys):
    """OLS slope of the float logs in exact rational arithmetic, then rounded."""
    fx = [Fraction(x) for x in xs]
    fy = [Fraction(math.log(y)) for y in ys]
    x_bar = sum(fx) / len(fx)
    y_bar = sum(fy) / len(fy)
    sxy = sum((x - x_bar) * (y - y_bar) for x, y in zip(fx, fy))
    sxx = sum((x - x_bar) ** 2 for x in fx)
    return float(sxy / sxx)


def test_log_slope_matches_polyfit_and_exact(snapshot, recon):
    cases = [
        cut(snapshot.energy, 1980, 2017),
        cut(snapshot.population, 1980, 2010),
        cut(recon.wealth.series, 1, 2017),
        (snapshot.gdp_ppp.years, snapshot.gdp_ppp.values),  # sparse years
    ]
    for years, values in cases:
        got = log_slope(years, values)
        fit = np.polyfit(np.asarray(years, dtype=float), np.log(np.asarray(values)), 1)[0]
        assert got == pytest.approx(fit, rel=1e-12, abs=0.0)
        exact = _exact_log_slope(years, values)
        assert abs(got - exact) <= 4 * math.ulp(exact)


def test_log_slope_rejects_degenerate_input():
    with pytest.raises(EmptySlice):
        log_slope((2000,), (1.0,))
    with pytest.raises(DomainError):
        log_slope((2000, 2001), (1.0, -1.0))
