"""Loading, validation and export of delimited observational series.

Input files are comma-separated with a header row and one row per year:
a ``year`` column (integer) and one value column (decimal, ``.`` radix,
no thousands separators). Extra columns are ignored, which lets a file
carry provenance columns such as ``source``. Ingestion never interpolates;
infilling is an explicit reconstruction step.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import operator
from pathlib import Path

from .errors import DomainError, ParseError, SchemaError
from .records import Record
from .series import AnnualSeries, Period, SeriesKind
from .units import Unit, finite, shown


class DataSourceDescriptor(Record):
    """Where and how to read one series from disk."""

    __slots__ = _fields = ("path", "kind", "unit", "year_column", "value_column", "scale")
    path: Path
    kind: SeriesKind
    unit: Unit
    year_column: str
    value_column: str
    scale: float

    def __init__(
        self,
        path: Path,
        kind: SeriesKind,
        unit: Unit,
        year_column: str = "year",
        value_column: str = "value",
        scale: float = 1.0,
    ) -> None:
        super().__init__(Path(path), kind, unit, year_column, value_column, scale)
        if not (finite(scale) and scale > 0):
            raise DomainError(f"descriptor scale must be positive and finite, got {shown(scale)}")
        if not year_column or not value_column:
            raise SchemaError("year_column and value_column must be nonempty")


class ManifestEntry(Record):
    """A named descriptor plus its validation policy."""

    __slots__ = _fields = ("name", "descriptor", "contiguous")
    name: str
    descriptor: DataSourceDescriptor
    contiguous: bool


class ValidationReport(Record):
    """Outcome of validating one series; empty means no findings."""

    __slots__ = _fields = ("gaps", "coverage")
    gaps: tuple[tuple[int, int], ...]
    coverage: Period | None

    def is_empty(self) -> bool:
        return not self.gaps

    def to_dict(self) -> dict:
        # The file format keeps the counts of nonpositive values and duplicate
        # years, which are always 0 and []: load_series rejects both faults.
        return {
            "gaps": [list(g) for g in self.gaps],
            "nonpositive_count": 0,
            "duplicate_years": [],
            "coverage": None
            if self.coverage is None
            else [self.coverage.start_year, self.coverage.end_year],
            "empty": self.is_empty(),
        }


def load_series(d: DataSourceDescriptor) -> AnnualSeries:
    """Read one series from disk, scale it, and tag kind and unit.

    Raises ParseError for malformed rows (with the offending row number) and
    for a read stopped by a byte that is not UTF-8 or a field longer than
    ``csv.field_size_limit()`` (with the row reached), SchemaError for
    missing columns and DomainError for a scaled value that is not strictly
    positive (the rule of every kind). Row numbers count the header as row 1
    and skip blank lines. A leading UTF-8 byte order mark is ignored.

    The columns are parsed and checked whole; only when that fails are the
    rows walked one by one, so a bad file raises its first bad row's error.
    """
    try:
        handle = open(d.path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot open {d.path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ParseError(f"{d.path}: reading stopped at row 1: {exc}") from None
        # A repeated column name reads its last occurrence, as csv.DictReader would.
        index = {name: i for i, name in enumerate(header)}
        for column in (d.year_column, d.value_column):
            if column not in index:
                raise SchemaError(f"{d.path}: missing column {column!r} (header: {header})")
        at = index[d.year_column], index[d.value_column]
        rows: list[list[str]] = []
        try:
            rows.extend(filter(None, reader))  # a blank line reads as []
        except (csv.Error, UnicodeDecodeError) as exc:
            # An oversized field or a byte that is not UTF-8 stops the read
            # after the rows read so far, so a bad one of those is raised first.
            _walk_rows(d, rows, *at)
            raise ParseError(f"{d.path}: reading stopped at row {len(rows) + 2}: {exc}") from None
    if not rows:
        raise ParseError(f"{d.path}: no data rows")
    years, values = _columns(d, rows, *at) or _walk_rows(d, rows, *at)
    if any(map(operator.ge, years, years[1:])):
        years, values = zip(*sorted(zip(years, values)))
        if any(map(operator.eq, years, years[1:])):
            dupes = sorted({a for a, b in zip(years, years[1:]) if a == b})
            raise DomainError(f"{d.path}: duplicate years {dupes}")
    return AnnualSeries(d.kind, d.unit, years, values)


def _columns(
    d: DataSourceDescriptor, rows: list[list[str]], year_at: int, value_at: int
) -> tuple[list[int], list[float]] | None:
    """The year and scaled value columns of ``rows``, parsed and checked whole.

    Returns None when a row is short, a cell does not parse, or a value is
    not finite or a scaled value is not positive; ``_walk_rows`` then finds it.
    """
    try:
        years = list(map(int, map(operator.itemgetter(year_at), rows)))
        values = list(map(float, map(operator.itemgetter(value_at), rows)))
    except (IndexError, ValueError):
        return None
    if not all(map(math.isfinite, values)):
        return None
    if d.scale != 1.0:
        values = list(map(operator.mul, values, itertools.repeat(d.scale)))
    if min(values) <= 0.0:
        return None
    return years, values


def _walk_rows(
    d: DataSourceDescriptor, rows: list[list[str]], year_at: int, value_at: int
) -> tuple[list[int], list[float]]:
    """Parse and check ``rows`` one at a time, raising the first bad row's error.

    Cells are stripped before parsing, so a row whose only fault for
    ``_columns`` was an edge character that ``str.strip`` removes but
    ``int``/``float`` reject (the separators U+001C-U+001F) passes here, and
    the columns are returned.
    """
    missing = [""] * (max(year_at, value_at) + 1)
    years: list[int] = []
    values: list[float] = []
    for row_number, row in enumerate(rows, 2):
        row = row + missing  # a short row's missing cells read as empty
        raw_year, raw_value = row[year_at].strip(), row[value_at].strip()
        try:
            year = int(raw_year)
            value = float(raw_value)
        except ValueError:
            raise ParseError(
                f"{d.path}: row {row_number}: cannot parse year={raw_year!r} value={raw_value!r}"
            ) from None
        if not math.isfinite(value):
            raise ParseError(f"{d.path}: row {row_number}: non-finite value")
        value *= d.scale
        if value <= 0.0:
            raise DomainError(
                f"{d.path}: row {row_number}: nonpositive value {value!r} for kind {d.kind.value}"
            )
        years.append(year)
        values.append(value)
    return years, values


def validate(s: AnnualSeries, require_contiguous: bool = True) -> ValidationReport:
    """Enumerate gaps and violations without modifying the series.

    Series invariants (ordering, positivity) are enforced at construction,
    so a report built from an in-memory series can only flag interior gaps.
    The report is pure: validating twice yields identical results.
    """
    years = s.years
    gaps = (
        tuple((a + 1, b - 1) for a, b in zip(years, years[1:]) if b - a > 1)
        if require_contiguous else ()
    )
    coverage = (
        Period(s.first_year, s.last_year) if s.last_year > s.first_year else None
    )
    return ValidationReport(gaps=gaps, coverage=coverage)


def write_series(s: AnnualSeries, path: Path | str, value_column: str = "value") -> Path:
    """Export a series in the canonical format understood by ``load_series``.

    Values are rendered with shortest round-trip decimal formatting, so
    load_series(write_series(s)) reproduces ``s`` bit for bit. The parent
    directory is created if needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerow(["year", value_column])
        # An int or a finite float's repr never needs quoting, so the rows
        # are joined directly: the same bytes csv.writer would write.
        handle.write("".join([f"{y},{v!r}\n" for y, v in zip(s.years, s.values)]))
    return path


def canonical_descriptor(
    path: Path | str, kind: SeriesKind, unit: Unit, value_column: str = "value"
) -> DataSourceDescriptor:
    """Descriptor for a file produced by ``write_series``."""
    return DataSourceDescriptor(
        path=Path(path), kind=kind, unit=unit, year_column="year", value_column=value_column
    )


def json_field(where: str, record, key: str, convert, default=None):
    """``convert(record[key])``, or ``default`` if one is given and ``key`` is absent.

    A missing required field, a record that is not a JSON object, a value
    ``convert`` rejects (an integer too large for a float included) and a
    float that is not finite (JSON parsing admits NaN and the infinities) all
    raise ``SchemaError`` naming ``where`` and ``key``.
    """
    try:
        value = default if default is not None and key not in record else convert(record[key])
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {value!r}")
        return value
    except (KeyError, TypeError, ValueError, OverflowError):
        raise SchemaError(f"{where} has a missing or invalid {key!r}") from None


def _exactly(kind: type):
    """Converter that passes a JSON value through only if it already is a ``kind``."""

    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return value

    return check


def json_number(value) -> float:
    """A JSON number as a float; ``true`` and text such as ``"1e6"`` are not numbers."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def load_manifest(path: Path | str) -> dict[str, ManifestEntry]:
    """Read a JSON manifest binding series names to data source descriptors.

    Relative paths are resolved against the manifest's directory. A file
    that is not UTF-8 or not JSON, or nests too deeply to decode, raises
    ParseError.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot open manifest {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ParseError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"manifest {path} must map series names to entries")
    entries: dict[str, ManifestEntry] = {}
    for name, spec in raw.items():
        field = functools.partial(json_field, f"manifest entry {name!r}", spec)
        descriptor = DataSourceDescriptor(
            path=path.parent / field("path", _exactly(str)),
            kind=field("kind", SeriesKind),
            unit=field("unit", Unit),
            year_column=field("year_column", _exactly(str), "year"),
            value_column=field("value_column", _exactly(str), "value"),
            scale=field("scale", json_number, 1.0),
        )
        entries[name] = ManifestEntry(
            name=name, descriptor=descriptor, contiguous=field("contiguous", _exactly(bool), True)
        )
    return entries
