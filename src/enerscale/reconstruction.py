"""Historical reconstruction of annual world production and cumulative wealth.

The procedure: estimate the PPP/MER ratio on the overlap window, convert the
sparse PPP reconstruction to MER, infill to annual resolution with a natural
cubic spline fit in log space, splice modern statistics on top, calibrate the
initial stock from ancient population growth, and accumulate.

Numerical choices that are not forced by the data:

* The spline interpolates ``ln(Y)`` and is exponentiated afterwards.  GDP
  growth is multiplicative, and a linear-space spline can undershoot zero
  across millennia-wide knot gaps; log space guarantees positivity.
* Natural boundary conditions (zero second derivative at both ends) — there
  is no derivative information at either end of the record.
* Discrete integration is the annual left sum ``W(t) = W(1) + sum(Y(1..t))``,
  so the first difference of W recovers Y exactly.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat
from typing import Iterable, Sequence

from .errors import (
    DomainError,
    GapError,
    KindError,
    MissingYearOne,
    TooFewPoints,
)
from .records import Record
from .series import AnnualSeries, Period, SeriesKind, mean, period_values
from .units import Quantity, Unit, finite, floats, shown

#: Ancient population growth rate (fraction/yr): ~10 million more people per
#: century on a base of ~170 million around year 1 CE.
ANCIENT_POP_GROWTH = 5.9e-4

#: Window over which concurrent PPP and MER statistics exist.
PPP_MER_WINDOW = Period(1970, 1992)


class NaturalCubicSpline:
    """Natural cubic spline through strictly increasing knots.

    Solves the standard tridiagonal system for the knot second derivatives
    (Thomas algorithm) with natural boundary conditions, then evaluates the
    piecewise cubic. Evaluation outside the knot range is not supported.
    """

    def __init__(self, x: Sequence[float], y: Sequence[float]) -> None:
        x, y = floats(x, "spline knots"), floats(y, "spline knots")
        if len(x) != len(y):
            raise DomainError("spline knots must be two equal-length 1-d sequences")
        if len(x) < 4:
            raise TooFewPoints(f"cubic spline needs at least 4 knots, got {len(x)}")
        if any(b <= a for a, b in zip(x, x[1:])):
            raise DomainError("spline knot abscissae must be strictly increasing")
        n = len(x)
        h = [b - a for a, b in zip(x, x[1:])]
        # Tridiagonal system for interior second derivatives m[1..n-2]: row i
        # has sub- and super-diagonal h[i] and h[i+1]; natural conditions pin
        # m[0] = m[n-1] = 0.
        diag = [2.0 * (h[i] + h[i + 1]) for i in range(n - 2)]
        rhs = [
            6.0 * ((y[i + 2] - y[i + 1]) / h[i + 1] - (y[i + 1] - y[i]) / h[i])
            for i in range(n - 2)
        ]
        for i in range(1, n - 2):
            w = h[i] / diag[i - 1]
            diag[i] -= w * h[i]
            rhs[i] -= w * rhs[i - 1]
        m = [0.0] * n
        m[n - 2] = rhs[-1] / diag[-1]
        for i in range(n - 3, 0, -1):
            m[i] = (rhs[i - 1] - h[i] * m[i + 1]) / diag[i - 1]
        if not all(map(math.isfinite, m)):
            raise DomainError("spline second derivatives overflow a float")
        self._x = x
        self._y = y
        self._h = h
        self._m = m

    def __call__(self, xq: Iterable[float]) -> list[float]:
        x, y, h, m = self._x, self._y, self._h, self._m
        last = len(x) - 2
        out = []
        left, right = x[-1], x[0]  # an empty interval: the first query looks one up
        try:
            for q in xq:
                if not left <= q < right:
                    if not x[0] <= q <= x[-1]:
                        raise DomainError("spline evaluated outside its knot range")
                    # Sorted queries mostly stay in one interval, so it is looked
                    # up only on leaving it; searching x[1:-1] puts the right end
                    # in the last interval.
                    i = bisect_right(x, q, 1, last + 1) - 1
                    x0, x1, hi = x[i], x[i + 1], h[i]
                    y0, y1, m0, m1 = y[i], y[i + 1], m[i], m[i + 1]
                    h2 = hi * hi  # hi**2 would raise OverflowError, not give inf
                    left, right = x0, x1 if i < last else math.nextafter(x1, math.inf)
                a = (x1 - q) / hi
                b = (q - x0) / hi
                out.append(a * y0 + b * y1 + ((a**3 - a) * m0 + (b**3 - b) * m1) * h2 / 6.0)
        except TypeError:  # text, None or another value that is not a number
            raise DomainError("spline queries must be numbers") from None
        # A finite sum has no inf or NaN term; only an overflowing one needs the full check.
        if not math.isfinite(sum(out)) and not all(map(math.isfinite, out)):
            raise DomainError("spline value overflows a float")
        return out


class PppMerRatio(Record):
    """Mean PPP/MER ratio over an overlap window."""

    __slots__ = _fields = ("value", "window")
    value: float
    window: Period

    def __init__(self, value: float, window: Period) -> None:
        if not (finite(value) and value > 0):
            raise DomainError(f"PPP/MER ratio must be positive and finite, got {shown(value)}")
        super().__init__(value, window)


def _check_wealth(values: Sequence[float], w1: float) -> None:
    """W's invariants: strictly increasing, and W at the first year not below W(1)."""
    if any(map(operator.ge, values, values[1:])):
        raise DomainError("wealth must be strictly increasing")
    if values[0] < w1:
        raise DomainError("wealth at the first year cannot be below W(1)")


class WealthSeries(Record):
    """Cumulative production W(t) with its initialization and provenance.

    Every W, accumulated or read from disk, is checked here for W's invariants.
    """

    __slots__ = _fields = ("series", "w1", "method")
    series: AnnualSeries
    w1: Quantity
    method: str

    def __init__(self, series: AnnualSeries, w1: Quantity, method: str) -> None:
        if series.kind is not SeriesKind.WEALTH:
            raise KindError("WealthSeries wraps a series of kind 'wealth'")
        _check_wealth(series.values, w1.value)
        super().__init__(series, w1, method)


def estimate_ppp_mer_ratio(
    ppp: AnnualSeries, mer: AnnualSeries, window: Period
) -> PppMerRatio:
    """Mean of annual PPP/MER ratios over every year of the overlap window.

    Raises EmptySlice unless both series hold every year of ``window``.
    """
    ratios = period_values(ppp, window, "PPP/MER overlap", per=mer)
    return PppMerRatio(value=mean(ratios), window=window)


def ppp_to_mer(s: AnnualSeries, r: PppMerRatio) -> AnnualSeries:
    """Divide PPP values by the ratio; the result is a MER series."""
    if s.kind is not SeriesKind.GDP_PPP:
        raise KindError(f"ppp_to_mer expects a gdp_ppp series, got {s.kind.value}")
    return AnnualSeries(SeriesKind.GDP_MER, s.unit, s.years, tuple(v / r.value for v in s.values))


def spline_infill(sparse: AnnualSeries) -> AnnualSeries:
    """Evaluate a natural cubic spline through the knots at every integer year.

    The spline is fit to ln(value) and the result exponentiated, which keeps
    the infill positive (see the module notes). Knots are reproduced exactly.
    """
    y = sparse.values
    spline = NaturalCubicSpline(sparse.years, list(map(math.log, y)))
    years = range(sparse.first_year, sparse.last_year + 1)
    values = map(math.exp, spline(years))
    # Re-impose knot values exactly: exp(log) round-trips only to ~1 ulp.
    by_year = dict(zip(sparse.years, y))
    try:
        return sparse.with_data(years, tuple(map(by_year.get, years, values)))
    except OverflowError:  # exp of a log-spline value past ln(max float)
        raise DomainError("spline infill overflows a float") from None


def _year_one_production(gdp: AnnualSeries, pop_growth: float) -> float:
    """Y(1), after the checks both calibrations share."""
    if not (finite(pop_growth) and pop_growth > 0):
        raise DomainError(f"pop_growth must be positive and finite, got {shown(pop_growth)}")
    if not gdp.has_year(1):
        raise MissingYearOne("calibration requires the production series to cover year 1 CE")
    return gdp.value_at(1)


def calibrate_initial_wealth(gdp: AnnualSeries, pop_growth: float = ANCIENT_POP_GROWTH) -> Quantity:
    """Initial stock W(1) such that wealth growth at year 1 matches population growth.

    The matching condition eta_W(1) = Y(1)/W(1) = pop_growth has the closed
    form W(1) = Y(1)/pop_growth; see ``calibrate_initial_wealth_iterative``
    for the fixed-point formulation it collapses from.
    """
    return Quantity(_year_one_production(gdp, pop_growth) / pop_growth, Unit.TUSD)


def calibrate_initial_wealth_iterative(
    gdp: AnnualSeries, pop_growth: float = ANCIENT_POP_GROWTH
) -> Quantity:
    """Fixed-point iteration W(1) <- Y(1) / eta_W with eta_W = Y(1)/W(1).

    The iteration starts from W(1) = 1.0 T$2010 and stops at the first step
    that moves W by at most 1e-9 of its new value, within 100 steps.
    Updating with the growth rate implied by the current iterate lands on the
    closed form after one step, so the loop converges immediately; both
    entry points are kept so the agreement can be asserted.
    """
    y1 = _year_one_production(gdp, pop_growth)
    w = 1.0
    for _ in range(100):
        eta = y1 / w
        w_next = w * (eta / pop_growth)
        if abs(w_next - w) <= 1e-9 * abs(w_next):
            return Quantity(w_next, Unit.TUSD)
        w = w_next
    raise DomainError("initial-wealth iteration failed to converge")  # pragma: no cover


def cumulative_production(
    gdp: AnnualSeries, w1: Quantity, period: Period | None = None
) -> WealthSeries:
    """W(t) = W(1) + sum of annual production through year t, kept over ``period`` if given.

    The inputs are checked for kind, contiguity, unit and sign. W itself is
    checked by the series it is kept in; with a ``period`` it is first checked
    over the whole column, so it fails exactly as the full series would.
    """
    if gdp.kind is not SeriesKind.GDP_MER:
        raise KindError(f"cumulative_production expects gdp_mer, got {gdp.kind.value}")
    if not gdp.is_contiguous():
        raise GapError("production series has interior gaps; infill before accumulating")
    if w1.unit is not Unit.TUSD:
        raise KindError("W(1) must be expressed in T$2010")
    if w1.value < 0:
        raise DomainError("W(1) must be nonnegative")
    years = gdp.years
    wealth = tuple(map(operator.add, repeat(w1.value), accumulate(gdp.values)))
    if period is not None:
        # Production is positive and W(1) finite, so only a sum that overflows
        # is not finite, and it stays infinite through the last year: checking
        # that year refuses it as the whole series would.
        floats(wealth[-1:], "series values")
        _check_wealth(wealth, w1.value)
        keep = slice(bisect_left(years, period.start_year), bisect_right(years, period.end_year))
        years, wealth = years[keep], wealth[keep]
    series = AnnualSeries(SeriesKind.WEALTH, Unit.TUSD, years, wealth)
    return WealthSeries(series=series, w1=w1, method="annual left sum of production")


class ReconstructionResult(Record):
    """Everything the reconstruction pipeline produces."""

    __slots__ = _fields = ("gdp", "wealth", "ratio", "spline_knot_years")
    gdp: AnnualSeries
    wealth: WealthSeries
    ratio: PppMerRatio
    spline_knot_years: tuple[int, ...]

    @property
    def w1(self) -> Quantity:
        """The initial stock W(1) the wealth series accumulates from."""
        return self.wealth.w1


def reconstruct_production(
    historical_ppp: AnnualSeries,
    modern_mer: AnnualSeries,
    ratio: PppMerRatio,
) -> AnnualSeries:
    """Annual MER production from year 1: spline-infilled PPP record, then
    modern statistics from their first year onward."""
    infilled = spline_infill(ppp_to_mer(historical_ppp, ratio))
    k = bisect_left(infilled.years, modern_mer.first_year)
    return AnnualSeries(
        SeriesKind.GDP_MER,
        Unit.TUSD_PER_YR,
        infilled.years[:k] + modern_mer.years,
        infilled.values[:k] + modern_mer.values,
    )


def build_wealth(
    historical_ppp: AnnualSeries,
    modern_mer: AnnualSeries,
    overlap_window: Period = PPP_MER_WINDOW,
    pop_growth: float = ANCIENT_POP_GROWTH,
) -> ReconstructionResult:
    """Run the full reconstruction: ratio, infill, splice, calibrate, accumulate."""
    ratio = estimate_ppp_mer_ratio(historical_ppp, modern_mer, overlap_window)
    gdp = reconstruct_production(historical_ppp, modern_mer, ratio)
    wealth = cumulative_production(gdp, calibrate_initial_wealth(gdp, pop_growth))
    return ReconstructionResult(
        gdp=gdp,
        wealth=wealth,
        ratio=ratio,
        spline_knot_years=historical_ppp.years,
    )
