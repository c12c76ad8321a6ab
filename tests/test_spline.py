import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enerscale.errors import DomainError, TooFewPoints
from enerscale.reconstruction import NaturalCubicSpline, ppp_to_mer, spline_infill
from enerscale.series import AnnualSeries, SeriesKind
from enerscale.units import Unit


def textbook_natural_spline(x, y, xq):
    """Independent oracle: assemble the full linear system for the knot second
    derivatives and solve it densely, then evaluate the standard piecewise form.

    Deliberately a different code path (dense solve) from the package's
    tridiagonal elimination.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    h = np.diff(x)
    A = np.zeros((n, n))
    rhs = np.zeros(n)
    A[0, 0] = 1.0
    A[n - 1, n - 1] = 1.0
    for i in range(1, n - 1):
        A[i, i - 1] = h[i - 1]
        A[i, i] = 2.0 * (h[i - 1] + h[i])
        A[i, i + 1] = h[i]
        rhs[i] = 6.0 * ((y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1])
    m = np.linalg.solve(A, rhs)
    out = np.empty_like(np.asarray(xq, dtype=float))
    for j, q in enumerate(np.atleast_1d(xq)):
        i = min(max(np.searchsorted(x, q, side="right") - 1, 0), n - 2)
        a = (x[i + 1] - q) / h[i]
        b = (q - x[i]) / h[i]
        out[j] = (
            a * y[i] + b * y[i + 1]
            + ((a**3 - a) * m[i] + (b**3 - b) * m[i + 1]) * h[i] ** 2 / 6.0
        )
    return out


def test_constant_knots_reproduced():
    s = AnnualSeries(SeriesKind.GDP_PPP, Unit.TUSD_PER_YR, (0, 1, 2, 3), (1.0, 1.0, 1.0, 1.0))
    out = spline_infill(s)
    assert out.values == (1.0, 1.0, 1.0, 1.0)


def test_linear_data_reproduced():
    years = (0, 3, 7, 12)
    spline = NaturalCubicSpline(years, [2.0 * y + 5.0 for y in years])
    for year, value in zip(range(13), spline(range(13))):
        assert value == pytest.approx(2.0 * year + 5.0, abs=1e-9)


def test_against_textbook_oracle_on_historical_knots(snapshot, recon):
    """The infilled value at year 1500... is checked against an independently
    coded dense-solve natural spline (and scipy agrees with both)."""
    mer = ppp_to_mer(snapshot.gdp_ppp, recon.ratio)
    x = np.asarray(mer.years, dtype=float)
    logy = np.log(np.asarray(mer.values))
    probe_years = np.array([500.0, 1500.0, 1750.0, 1925.0, 1960.0])

    expected = np.exp(textbook_natural_spline(x, logy, probe_years))

    infilled = spline_infill(mer)
    got = np.array([infilled.value_at(int(y)) for y in probe_years])
    np.testing.assert_allclose(got, expected, rtol=1e-9)

    scipy_interp = pytest.importorskip("scipy.interpolate")
    ref = np.exp(scipy_interp.CubicSpline(x, logy, bc_type="natural")(probe_years))
    np.testing.assert_allclose(got, ref, rtol=1e-9)


def test_knots_exact_on_historical_record(snapshot, recon):
    mer = ppp_to_mer(snapshot.gdp_ppp, recon.ratio)
    infilled = spline_infill(mer)
    for year, value in zip(mer.years, mer.values):
        assert infilled.value_at(year) == pytest.approx(value, rel=1e-9)


def test_log_space_output_positive(snapshot, recon):
    mer = ppp_to_mer(snapshot.gdp_ppp, recon.ratio)
    out = spline_infill(mer)
    assert out.is_contiguous()
    assert min(out.values) > 0.0


def test_too_few_points():
    s = AnnualSeries(SeriesKind.GDP_PPP, Unit.TUSD_PER_YR, (0, 1, 2), (1.0, 2.0, 3.0))
    with pytest.raises(TooFewPoints):
        spline_infill(s)


def test_log_space_infill_stays_positive_where_linear_undershoots():
    # Steep descent into a long flat tail drives the linear-space cubic
    # below zero inside the wide gap.
    s = AnnualSeries(
        SeriesKind.GDP_PPP,
        Unit.TUSD_PER_YR,
        (1, 2, 3, 4, 16),
        (1000.0, 500.0, 100.0, 1.0, 1.0),
    )
    assert min(NaturalCubicSpline(s.years, s.values)(range(1, 17))) < 0.0
    # The log-space fit spline_infill uses handles the same knots.
    assert min(spline_infill(s).values) > 0.0


def test_spline_rejects_unsorted_input():
    with pytest.raises(DomainError):
        NaturalCubicSpline(np.array([0.0, 2.0, 1.0, 3.0]), np.zeros(4))


@pytest.mark.parametrize(
    "x, y",
    [
        ([1, 2, 3, float("inf")], [0, 1, 1, 2]),  # used to evaluate to 0.59375 at 1.5
        ([1, 2, 3, 4], [0, float("nan"), 1, 2]),  # used to evaluate to nan
        ([float("nan"), 2, 3, 4], [0, 1, 1, 2]),
        # An int too large for a float used to raise a raw OverflowError.
        pytest.param([1, 2, 3, 10**400], [0, 1, 1, 2], id="int-too-large-x"),
        pytest.param([1, 2, 3, 4], [0, 1, 1, -(10**400)], id="int-too-large-y"),
    ],
)
def test_spline_rejects_non_finite_knots(x, y):
    with pytest.raises(DomainError, match="finite"):
        NaturalCubicSpline(x, y)


@pytest.mark.parametrize("x, y, message", [
    pytest.param(4, [0, 1, 1, 2], "spline knots must be a sequence of numbers, got 4",
                 id="x-not-a-sequence"),
    pytest.param([1, 2, 3, 4], [0, "one", 1, 2], "spline knots must be finite numbers, got 'one'",
                 id="y-holds-text"),
    pytest.param([1, 2, 3, 4, 5], [0, 1, 1, 2],
                 "spline knots must be two equal-length 1-d sequences", id="unequal-lengths"),
])
def test_spline_rejects_knots_that_are_not_two_equal_length_sequences(x, y, message):
    with pytest.raises(DomainError, match=message):
        NaturalCubicSpline(x, y)


@pytest.mark.parametrize("x, y", [
    pytest.param(["0", "1", "2", "3"], ["0", "1", "0", "1"], id="str"),
    pytest.param([0, 1, 2, 3], [0, b"1", 0, 1], id="bytes"),
    pytest.param([0, bytearray(b"1"), 2, 3], [0, 1, 0, 1], id="bytearray"),
])
def test_spline_refuses_text_knots(x, y):
    """float() parsed "1" and the first case evaluated to [0.5] at 1.5; AnnualSeries refuses
    text. Knots given as an iterator are checked too."""
    for knots in (x, iter(x)):
        with pytest.raises(DomainError, match="spline knots must be finite numbers, got"):
            NaturalCubicSpline(knots, y)


@pytest.mark.parametrize("query", ["1.5", None, b"1"], ids=["str", "none", "bytes"])
def test_spline_refuses_a_query_that_is_not_a_number(query):
    """The comparison with the knots used to raise a raw TypeError."""
    spline = NaturalCubicSpline([0, 1, 2, 3], [0, 1, 0, 1])
    with pytest.raises(DomainError, match="spline queries must be numbers"):
        spline([0.5, query])


def test_evaluation_outside_range_rejected():
    spline = NaturalCubicSpline(np.arange(4.0), np.arange(4.0))
    with pytest.raises(DomainError):
        spline(np.array([5.0]))


def test_query_order_does_not_change_values():
    """Unsorted queries, repeated intervals and both ends give the values of
    one-at-a-time evaluation."""
    x = np.array([0.0, 1.0, 2.5, 4.0, 7.0])
    spline = NaturalCubicSpline(x, np.sin(x))
    queries = [7.0, 0.0, 3.0, 0.5, 6.9, 2.5, 1.0, 0.25, 7.0]
    assert spline(queries) == [spline([q])[0] for q in queries]
    assert spline([0.0, 7.0]) == [0.0, pytest.approx(np.sin(7.0), rel=1e-15)]
    with pytest.raises(DomainError):
        spline([0.5, np.nextafter(7.0, 8.0)])
    np.testing.assert_allclose(spline(queries), textbook_natural_spline(x, np.sin(x), queries))


def test_spline_whose_second_derivatives_overflow_is_refused():
    """Finite knots solved to m = [0, -inf, inf, 0], and evaluation gave [inf, nan, -inf]."""
    with pytest.raises(DomainError, match="second derivatives overflow"):
        NaturalCubicSpline([0, 1, 2, 3], [0, 1e308, -1e308, 1e308])


def test_spline_value_that_overflows_is_refused():
    """Finite knots and second derivatives whose cubic passes the float range between knots."""
    spline = NaturalCubicSpline([0, 10, 20, 30], [0, 1.7e308, 1.7e308, 0])
    assert spline([0.0, 10.0, 30.0]) == [0.0, 1.7e308, 0.0]
    with pytest.raises(DomainError, match="spline value overflows"):
        spline([5.0, 15.0])


def test_spline_whose_knot_spacing_squared_overflows_is_refused():
    """The squared spacing, ``hi**2``, used to raise a raw OverflowError."""
    with pytest.raises(DomainError, match="spline value overflows"):
        NaturalCubicSpline([0, 1e200, 2e200, 3e200], [0, 1, 0, 3])([1.5e200])


def test_spline_infill_whose_exp_overflows_is_refused():
    """exp of the log-space spline between the knots used to raise a raw OverflowError."""
    sparse = AnnualSeries(SeriesKind.GDP_PPP, Unit.TUSD_PER_YR, (1, 10, 20, 30),
                          (1e308, 1e-300, 1e308, 1e308))
    with pytest.raises(DomainError, match="spline infill overflows"):
        spline_infill(sparse)


@st.composite
def sparse_series(draw):
    """Sparse series: adjacent-year knots next to wide gaps, years on both sides of 0."""
    gaps = draw(st.lists(st.one_of(st.just(1), st.integers(1, 600)), min_size=3, max_size=20))
    years = list(accumulate(gaps, initial=draw(st.integers(-5000, 3000))))
    values = draw(st.lists(st.floats(1e-12, 1e12), min_size=len(years), max_size=len(years)))
    return AnnualSeries(SeriesKind.GDP_PPP, Unit.TUSD_PER_YR, years, values)


def hex_values(values):
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(sparse=sparse_series())
@example(sparse=AnnualSeries(SeriesKind.GDP_PPP, Unit.TUSD_PER_YR, (0, 236, 237, 238),
                             (1.0, 1.0, 59874.14171519782, 1.0)))  # dips below 5e-324
def test_spline_infill_is_the_per_year_log_spline_with_the_knots_kept(sparse):
    """Each infilled year is exp of the spline evaluated at that year alone, bit for bit,
    and each knot year keeps its own value. An exp past the float range is refused, and
    so is one that underflows to 0 (a wide gap beside a steep knot can dip that far)."""
    spline = NaturalCubicSpline(sparse.years, [math.log(v) for v in sparse.values])
    knots = dict(zip(sparse.years, sparse.values))
    years = range(sparse.first_year, sparse.last_year + 1)
    try:
        expected = [knots[q] if q in knots else math.exp(spline([q])[0]) for q in years]
    except OverflowError:
        with pytest.raises(DomainError, match="^spline infill overflows a float$"):
            spline_infill(sparse)
        return
    if min(expected) == 0.0:
        with pytest.raises(DomainError, match="^spline infill underflows a float$"):
            spline_infill(sparse)
        return
    out = spline_infill(sparse)
    assert out.years == tuple(years)
    assert hex_values(out.values) == hex_values(expected)


@settings(max_examples=200, deadline=None)
@given(sparse=sparse_series(), data=st.data())
def test_shuffled_queries_with_repeats_give_the_per_query_values(sparse, data):
    first, last = sparse.first_year, sparse.last_year
    spline = NaturalCubicSpline(sparse.years, [math.log(v) for v in sparse.values])
    queries = data.draw(st.lists(
        st.one_of(st.sampled_from(sparse.years), st.integers(first, last), st.floats(first, last)),
        min_size=1, max_size=40,
    ))
    queries = data.draw(st.permutations(queries + queries[::2]))
    assert hex_values(spline(queries)) == hex_values(spline([q])[0] for q in queries)
