"""Year-indexed series types: the universal carrier for observational data.

An AnnualSeries value for year ``t`` is the annual average or total for that
calendar year, matching the reporting conventions of the underlying sources.
All series types are immutable; every operation returns a new series.
Values are tuples of Python floats; a contiguous series looks a year up at
offset ``year - first_year``. The mean, sample standard deviation and OLS
log slope that the analysis layers share are defined here once.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from enum import Enum
from typing import Sequence

from .errors import DomainError, EmptySlice, InvalidPeriod, KindError
from .records import Record
from .units import Unit, shown


class SeriesKind(str, Enum):
    """What a series measures; constrains the admissible unit tags."""

    GDP_MER = "gdp_mer"
    GDP_PPP = "gdp_ppp"
    ENERGY = "energy"
    EMISSIONS = "emissions"
    CONCENTRATION = "concentration"
    POPULATION = "population"
    # Derived kinds produced by the analysis layers.
    WEALTH = "wealth"
    SCALING = "scaling"
    PRODUCTIVITY = "productivity"
    CARBONIZATION = "carbonization"
    RATE = "rate"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Unit tags admissible for each series kind.
KIND_UNITS: dict[SeriesKind, frozenset[Unit]] = {
    SeriesKind.GDP_MER: frozenset({Unit.TUSD_PER_YR}),
    SeriesKind.GDP_PPP: frozenset({Unit.TUSD_PER_YR}),
    SeriesKind.ENERGY: frozenset({Unit.EJ_PER_YR, Unit.GW}),
    SeriesKind.EMISSIONS: frozenset({Unit.GTC_PER_YR}),
    SeriesKind.CONCENTRATION: frozenset({Unit.PPMV}),
    SeriesKind.POPULATION: frozenset({Unit.PERSONS}),
    SeriesKind.WEALTH: frozenset({Unit.TUSD}),
    SeriesKind.SCALING: frozenset({Unit.GW_PER_TUSD}),
    SeriesKind.PRODUCTIVITY: frozenset({Unit.TUSD_PER_EJ}),
    SeriesKind.CARBONIZATION: frozenset({Unit.GTC_PER_EJ}),
    SeriesKind.RATE: frozenset({Unit.PER_YR}),
}


#: Largest year magnitude: the years a float time grid holds exactly.
YEAR_LIMIT = 2**53


def _number(value) -> bool:
    """Whether ``float`` converts ``value`` as a number (2, 1.5, nan), not parses text ("1.5")."""
    if isinstance(value, (str, bytes, bytearray)):
        return False
    try:
        float(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


def _integral(year) -> bool:
    """Whether ``year`` is an int or a number equal to one (2000.0, not 2000.5 or "2000")."""
    try:
        return int(year) == year
    except (TypeError, ValueError, OverflowError):
        return False


class Period(Record):
    """Closed interval of calendar years; both endpoints are included."""

    __slots__ = _fields = ("start_year", "end_year")
    start_year: int
    end_year: int

    def __init__(self, start_year: int, end_year: int) -> None:
        if not (_integral(start_year) and _integral(end_year)):
            raise InvalidPeriod(
                f"period years must be integers, got {shown(start_year)}..{shown(end_year)}"
            )
        if start_year >= end_year:
            raise InvalidPeriod(
                f"period must satisfy start < end, got {shown(start_year)}..{shown(end_year)}"
            )
        if start_year < -YEAR_LIMIT or end_year > YEAR_LIMIT:
            year = start_year if start_year < -YEAR_LIMIT else end_year
            raise InvalidPeriod(f"period years must lie within ±2**53, got {shown(year)}")
        super().__init__(int(start_year), int(end_year))

    @property
    def span(self) -> int:
        """Number of year steps between the endpoints (end - start)."""
        return self.end_year - self.start_year

    def __str__(self) -> str:
        return f"{self.start_year}-{self.end_year}"


class AnnualSeries(Record):
    """Immutable year-indexed sequence with a kind and a unit tag.

    Years are stored as ints and values as floats; a year that is not
    integral (2000.5, "2000") is rejected rather than truncated, and a value
    that is not a number ("1.5") rather than parsed.
    """

    __slots__ = _fields = ("kind", "unit", "years", "values")
    kind: SeriesKind
    unit: Unit
    years: tuple[int, ...]
    values: tuple[float, ...]

    def __init__(
        self,
        kind: SeriesKind,
        unit: Unit,
        years: Sequence[int],
        values: Sequence[float],
    ) -> None:
        # Exact ints and floats, what parsing and arithmetic produce, are
        # stored as given; any other element type is converted first.
        raw = years = tuple(years)
        if set(map(type, raw)) != {int}:
            try:
                years = tuple(map(int, raw))
            except (TypeError, ValueError, OverflowError):
                years = ()
            if years != raw:  # one whole-tuple test; the search runs only on failure
                bad = next(y for y in raw if not _integral(y))
                raise DomainError(f"years must be integers, got {bad!r}")
        raw = values = tuple(values)
        if set(map(type, raw)) != {float}:
            try:
                values = tuple(map(float, raw))
            except (TypeError, ValueError, OverflowError):
                values = ()
            # float(x) is x for a float and equals x for a number it holds
            # exactly, so one whole-tuple test passes numbers; the search runs
            # only on a mismatch (text, or a NaN that float() copied, which
            # fails as not finite).
            if values != raw:
                bad = [v for v in raw if not _number(v)]
                if bad:
                    raise DomainError(f"series values must be numbers, got {shown(bad[0])}")
        if len(years) != len(values):
            raise DomainError("years and values must have equal length")
        if not years:
            raise EmptySlice("a series needs at least one point")
        if any(map(operator.ge, years, years[1:])):
            raise DomainError("years must be strictly increasing with no duplicates")
        if years[0] < -YEAR_LIMIT or years[-1] > YEAR_LIMIT:
            year = years[0] if years[0] < -YEAR_LIMIT else years[-1]
            raise DomainError(f"years must lie within ±2**53, got {shown(year)}")
        if not all(map(math.isfinite, values)):
            raise DomainError("series values must be finite")
        # A rate may decline; every other kind is a stock, flow or ratio > 0.
        # NaN is rejected above, so min() sees only ordered values.
        if kind is not SeriesKind.RATE and min(values) <= 0.0:
            raise DomainError(f"{kind.value} values must be strictly positive")
        if unit not in KIND_UNITS[kind]:
            raise KindError(f"unit {unit.value} is not valid for kind {kind.value}")
        super().__init__(kind, unit, years, values)

    def __len__(self) -> int:
        return len(self.years)

    @property
    def first_year(self) -> int:
        return self.years[0]

    @property
    def last_year(self) -> int:
        return self.years[-1]

    def _index(self, year: int) -> int:
        """Position of ``year`` in ``years``, or -1 when absent.

        A contiguous series holds ``year`` at offset ``year - first_year``;
        a sparse one falls back to bisection.
        """
        years = self.years
        i = year - years[0]
        if type(i) is int and 0 <= i < len(years) and years[i] == year:
            return i
        i = bisect_left(years, year)
        return i if i < len(years) and years[i] == year else -1

    def has_year(self, year: int) -> bool:
        return self._index(year) >= 0

    def value_at(self, year: int) -> float:
        i = self._index(year)
        if i < 0:
            raise EmptySlice(f"series has no value for year {year}")
        return self.values[i]

    def is_contiguous(self) -> bool:
        return self.last_year - self.first_year + 1 == len(self.years)

    def with_data(self, years: Sequence[int], values: Sequence[float]) -> "AnnualSeries":
        """Build a sibling series with the same kind and unit."""
        return AnnualSeries(self.kind, self.unit, tuple(years), tuple(values))


def slice_series(s: AnnualSeries, p: Period) -> AnnualSeries:
    """Restrict ``s`` to the closed year interval of ``p``.

    Raises EmptySlice when the period does not overlap the series.
    """
    lo = bisect_left(s.years, p.start_year)
    hi = bisect_right(s.years, p.end_year)
    if lo >= hi:
        raise EmptySlice(
            f"period {p} does not overlap series covering {s.first_year}-{s.last_year}"
        )
    return s.with_data(s.years[lo:hi], s.values[lo:hi])


def aligned_values(
    a: AnnualSeries, b: AnnualSeries, p: Period | None = None
) -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
    """Values of both series on their common years, within ``p`` when given.

    Both series are cut to the span they share (inside ``p``); two contiguous
    cuts over the same years are already aligned, otherwise (a sparse series)
    the years are intersected.
    """
    first, last = max(a.first_year, b.first_year), min(a.last_year, b.last_year)
    if p is not None:
        first, last = max(first, p.start_year), min(last, p.end_year)
    a_lo, a_hi = bisect_left(a.years, first), bisect_right(a.years, last)
    b_lo, b_hi = bisect_left(b.years, first), bisect_right(b.years, last)
    years, b_years = a.years[a_lo:a_hi], b.years[b_lo:b_hi]
    if len(years) == len(b_years) == last - first + 1 > 0:
        return years, a.values[a_lo:a_hi], b.values[b_lo:b_hi]
    years = tuple(sorted(set(years).intersection(b_years)))
    if not years:
        raise EmptySlice("series share no years")
    return years, tuple(map(a.value_at, years)), tuple(map(b.value_at, years))


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, from the correctly rounded sum."""
    return math.fsum(values) / len(values)


def sample_std(values: Sequence[float]) -> float:
    """Sample (n-1) standard deviation; 0 for a single point."""
    n = len(values)
    if n < 2:
        return 0.0
    m = mean(values)
    deviations = [v - m for v in values]
    return math.sqrt(math.fsum(d * d for d in deviations) / (n - 1))


def log_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Ordinary least-squares slope of ln(y) on x, computed on centered data."""
    if len(xs) < 2:
        raise EmptySlice("need at least two points for a log-linear slope")
    if any(y <= 0.0 for y in ys):
        raise DomainError("a log-linear slope needs strictly positive values")
    logs = [math.log(y) for y in ys]
    x_bar, log_bar = mean(xs), mean(logs)
    dx = [x - x_bar for x in xs]
    sxy = math.fsum(d * (v - log_bar) for d, v in zip(dx, logs))
    return sxy / math.fsum(d * d for d in dx)
