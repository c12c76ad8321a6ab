"""Year-indexed series types: the universal carrier for observational data.

An AnnualSeries value for year ``t`` is the annual average or total for that
calendar year, matching the reporting conventions of the underlying sources.
All series types are immutable; every operation returns a new series.
Values are tuples of Python floats; a year is found in a series by
bisection of its increasing years. The mean, sample standard deviation and OLS
log slope that the analysis layers share are defined here once, and so is the
package's one period reader, ``period_values``: a statistic over a period
reads every year of it, or is refused.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from enum import Enum
from typing import Sequence

from .errors import DomainError, EmptySlice, InvalidPeriod, KindError
from .records import Record
from .units import Unit, floats, shown, to_unit


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
}


#: Largest year magnitude: the years a float time grid holds exactly.
YEAR_LIMIT = 2**53


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

    Years are stored as ints and values as finite floats (``units.floats``); a
    year that is not integral (2000.5, "2000") is rejected rather than
    truncated, and a value that is not a number ("1.5") rather than parsed.
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
        # Exact ints, what parsing and arithmetic produce, are stored as
        # given; any other element type is converted first.
        raw = years = tuple(years)
        if set(map(type, raw)) != {int}:
            try:
                years = tuple(map(int, raw))
            except (TypeError, ValueError, OverflowError):
                years = ()
            if years != raw:  # one whole-tuple test; the search runs only on failure
                bad = next(y for y in raw if not _integral(y))
                raise DomainError(f"years must be integers, got {bad!r}")
        values = floats(values, "series values")
        if len(years) != len(values):
            raise DomainError("years and values must have equal length")
        if not years:
            raise EmptySlice("a series needs at least one point")
        if any(map(operator.ge, years, years[1:])):
            raise DomainError("years must be strictly increasing with no duplicates")
        if years[0] < -YEAR_LIMIT or years[-1] > YEAR_LIMIT:
            year = years[0] if years[0] < -YEAR_LIMIT else years[-1]
            raise DomainError(f"years must lie within ±2**53, got {shown(year)}")
        # Every kind is a stock, flow or ratio > 0; the values are finite, so
        # min() sees only ordered values.
        if min(values) <= 0.0:
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
        """Position of ``year`` in ``years`` by bisection, or -1 when absent."""
        years = self.years
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


def aligned_values(
    a: AnnualSeries, b: AnnualSeries
) -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
    """Values of both series on their common years.

    Both series are cut by bisection to the span they share, their years are
    intersected, and each value is read with ``value_at``.
    """
    first, last = max(a.first_year, b.first_year), min(a.last_year, b.last_year)
    a_years = a.years[bisect_left(a.years, first) : bisect_right(a.years, last)]
    b_years = b.years[bisect_left(b.years, first) : bisect_right(b.years, last)]
    years = tuple(sorted(set(a_years).intersection(b_years)))
    if not years:
        raise EmptySlice("series share no years")
    return years, tuple(map(a.value_at, years)), tuple(map(b.value_at, years))


def period_values(
    s: AnnualSeries, p: Period, what: str, per: AnnualSeries | None = None
) -> Sequence[float]:
    """Values of ``s`` over every year of ``p``, or with ``per`` the per-year
    ratio s/per.

    A period statistic means the whole span, so a series short of a year at
    either end or inside is refused with EmptySlice, naming the first missing
    year, rather than averaged over what it holds. Energy in GW is read in
    EJ/yr, each value converted on its own, so every ratio to energy divides
    the same bits. Raises DomainError for a ratio that is 0 or not finite.
    """
    cuts = []
    for series in (s,) if per is None else (s, per):
        years = series.years
        lo, hi = bisect_left(years, p.start_year), bisect_right(years, p.end_year)
        if lo == hi:
            raise EmptySlice(f"no {what} inside {p}")
        if hi - lo != p.span + 1:
            held = set(years[lo:hi])
            first = next(y for y in range(p.start_year, p.end_year + 1) if y not in held)
            raise EmptySlice(
                f"{what} has {hi - lo} of the {p.span + 1} years of {p}; {first} is missing"
            )
        cuts.append(series.values[lo:hi])
    if per is None:
        return cuts[0]
    n_values, d_values = cuts
    if per.unit is Unit.GW:
        d_values = [to_unit(d, per.unit, Unit.EJ_PER_YR) for d in d_values]
    window = []
    for year, n, d in zip(range(p.start_year, p.end_year + 1), n_values, d_values):
        ratio = n / d if d else math.inf  # a GW value converted to EJ/yr may underflow to 0
        if not 0.0 < ratio < math.inf:
            raise DomainError(f"{what}: {n!r}/{d!r} in {year} is not a positive finite ratio")
        window.append(ratio)
    return window


def _sum(values) -> float:
    """The correctly rounded sum; DomainError when it leaves the float range."""
    try:
        total = math.fsum(values)
    except OverflowError:  # an intermediate partial sum overflowed
        total = math.inf
    if not math.isfinite(total):
        raise DomainError("a sum of series values exceeds the float range")
    return total


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, from the correctly rounded sum."""
    return _sum(values) / len(values)


def sample_std(values: Sequence[float]) -> float:
    """Sample (n-1) standard deviation; 0 for a single point."""
    n = len(values)
    if n < 2:
        return 0.0
    m = mean(values)
    deviations = [v - m for v in values]
    return math.sqrt(_sum(d * d for d in deviations) / (n - 1))


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
