"""Loading, validation and export of delimited observational series.

Input files are comma-separated with a header row and one row per year:
a ``year`` column (integer) and one value column (decimal, ``.`` radix,
no thousands separators). Extra columns are ignored, which lets a file
carry provenance columns such as ``source``. Ingestion never interpolates;
infilling is an explicit reconstruction step.

A plain file (no quote, CR or NUL, no blank line between rows, every row as
wide as the header) is split into its columns in one pass; any other goes
through ``csv.reader``. Both readings give the same series and raise the
same errors.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import operator
from pathlib import Path
from typing import Iterable

from .errors import DomainError, EnerscaleError, ParseError, SchemaError
from .records import Record
from .series import AnnualSeries, Period, SeriesKind, integral_years
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
    positive (the rule of every kind) or not finite. Row numbers count the
    header as row 1 and skip blank lines. A leading UTF-8 byte order mark is
    ignored.

    A plain file (see ``_plain_columns``) is split in one pass, with no list
    per row. Any other file, or one whose columns ``_columns`` refuses, is
    read again by ``csv.reader``, whose columns are parsed and checked whole;
    only when that fails are the rows walked one by one, so a bad file raises
    its first bad row's error. Both paths give the same series and errors.
    """
    try:
        handle = open(d.path, "rb")
    except OSError as exc:
        raise ParseError(f"cannot open {d.path}: {exc}") from exc
    with handle:
        data = handle.read()
    years, values = _plain_columns(d, data) or _csv_columns(d, data)
    if any(map(operator.ge, years, years[1:])):
        years, values = zip(*sorted(zip(years, values)))
        if any(map(operator.eq, years, years[1:])):
            dupes = sorted({a for a, b in zip(years, years[1:]) if a == b})
            raise DomainError(f"{d.path}: duplicate years {dupes}")
    return AnnualSeries(d.kind, d.unit, years, values)


#: ``str.translate`` table that deletes every ASCII character but the comma and LF.
_SEPARATORS_ONLY = dict.fromkeys(c for c in range(128) if chr(c) not in ",\n")


def _plain_columns(
    d: DataSourceDescriptor, data: bytes
) -> tuple[list[int], list[float]] | None:
    """The parsed columns of a plain file, or None for any other file or for a cell that
    ``_columns`` refuses.

    A plain file has no quote, CR or NUL, no line longer than ``csv.field_size_limit()``,
    no blank line between rows, and rows as wide as the header: deleting every other
    ASCII character leaves ``width - 1`` commas per row and one LF between rows (a
    character past ASCII is kept, so its file is not plain). ``csv.reader`` splits such
    a file at every comma and LF and nowhere else, so column ``i`` is every
    ``width``-th cell of one split, from cell ``i``.
    """
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    limit = csv.field_size_limit()
    if ('"' in text or "\r" in text or "\0" in text
            or (len(text) > limit and max(map(len, text.split("\n"))) > limit)):
        return None
    first, _, body = text.partition("\n")
    body = body.strip("\n")
    header = first.split(",")
    # A repeated name reads its last occurrence, as on the csv.reader path. An empty first
    # line is header [] to csv.reader and [""] here: neither has a column.
    index = {name: i for i, name in enumerate(header)}
    if d.year_column not in index or d.value_column not in index or not body:
        return None
    width = len(header)
    commas = "," * (width - 1)
    if body.translate(_SEPARATORS_ONLY) != (commas + "\n") * body.count("\n") + commas:
        return None
    cells = body.replace("\n", ",").split(",")
    return _columns(d, cells[index[d.year_column]::width], cells[index[d.value_column]::width])


def _csv_columns(d: DataSourceDescriptor, data: bytes) -> tuple[list[int], list[float]]:
    """The parsed columns of any file, decoded as a file is read and split row by row by
    ``csv.reader``, so a read stops at the same row as in a streamed file."""
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))
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
    raw_years = map(operator.itemgetter(at[0]), rows)
    raw_values = map(operator.itemgetter(at[1]), rows)
    return _columns(d, raw_years, raw_values) or _walk_rows(d, rows, *at)


def _columns(
    d: DataSourceDescriptor, raw_years: Iterable[str], raw_values: Iterable[str]
) -> tuple[list[int], list[float]] | None:
    """The year and scaled value columns, parsed from their cells and checked whole.

    Returns None when a row is short (an ``IndexError`` from ``raw_years`` or
    ``raw_values``), a cell does not parse, or a scaled value is not finite or
    not positive; ``_walk_rows`` then finds it.
    """
    try:
        years = list(map(int, raw_years))
        values = list(map(float, raw_values))
    except (IndexError, ValueError):
        return None
    if d.scale != 1.0:
        values = list(map(operator.mul, values, itertools.repeat(d.scale)))
    if not all(map(math.isfinite, values)) or min(values) <= 0.0:
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
        if value == math.inf:
            raise DomainError(
                f"{d.path}: row {row_number}: value {raw_value} scaled by {d.scale!r} "
                "is not finite"
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

    A missing required field, a record that is not a JSON object, a value ``convert``
    rejects (by an ``EnerscaleError`` too) and a float that is not finite (JSON parsing
    admits NaN and the infinities) all raise ``SchemaError`` naming ``where`` and ``key``.
    """
    try:
        value = default if default is not None and key not in record else convert(record[key])
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {value!r}")
        return value
    except (KeyError, TypeError, ValueError, OverflowError, EnerscaleError):
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


def json_years(values) -> tuple[int, ...]:
    """JSON years by ``series.integral_years``, each a ``json_number`` (not ``true`` or text)
    read as written: as a float, 2**53 + 1 would be 2**53."""
    for value in values:
        json_number(value)
    return integral_years(values)


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
