import csv
import io
import json
import math
import operator
import os
import re
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enerscale.errors import DomainError, ParseError, SchemaError
from enerscale.ingestion import (
    DataSourceDescriptor,
    canonical_descriptor,
    load_manifest,
    load_series,
    validate,
    write_series,
)
from enerscale.series import KIND_UNITS, AnnualSeries, Period, SeriesKind
from enerscale.units import Unit


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def descriptor(path, kind=SeriesKind.ENERGY, unit=Unit.EJ_PER_YR, **kw):
    return DataSourceDescriptor(path=path, kind=kind, unit=unit, **kw)


# --------------------------------------------------------------- load_series

def test_load_annual_energy_window(tmp_path):
    rows = "\n".join(f"{year},{300 + (year - 1980) * 8}" for year in range(1980, 2018))
    path = write(tmp_path, "e.csv", "year,value\n" + rows + "\n")
    s = load_series(descriptor(path))
    assert len(s) == 38
    assert s.kind is SeriesKind.ENERGY
    assert s.value_at(1980) == 300.0


def test_header_only_file_is_parse_error(tmp_path):
    path = write(tmp_path, "empty.csv", "year,value\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_series(descriptor(path))


def test_negative_value_is_domain_error(tmp_path):
    path = write(tmp_path, "neg.csv", "year,value\n2000,5.0\n2001,-3.0\n")
    with pytest.raises(DomainError, match="row 3"):
        load_series(descriptor(path, kind=SeriesKind.GDP_MER, unit=Unit.TUSD_PER_YR))


def test_missing_column_is_schema_error(tmp_path):
    path = write(tmp_path, "cols.csv", "year,gdp\n2000,5.0\n")
    with pytest.raises(SchemaError, match="value"):
        load_series(descriptor(path))


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError, match="cannot open .*nowhere.csv"):
        load_series(descriptor(tmp_path / "nowhere.csv"))


def test_malformed_row_reports_row_number(tmp_path):
    path = write(tmp_path, "bad.csv", "year,value\n2000,5.0\nnineteen,1.0\n")
    with pytest.raises(ParseError, match="row 3"):
        load_series(descriptor(path))


def test_scale_and_unsorted_rows(tmp_path):
    path = write(tmp_path, "s.csv", "year,value\n2001,2.0\n2000,1.0\n")
    s = load_series(descriptor(path, kind=SeriesKind.POPULATION, unit=Unit.PERSONS, scale=1e6))
    assert s.years == (2000, 2001)
    assert s.value_at(2000) == 1e6


def test_duplicate_years_rejected(tmp_path):
    path = write(tmp_path, "dup.csv", "year,value\n2000,1.0\n2000,2.0\n")
    with pytest.raises(DomainError, match="duplicate"):
        load_series(descriptor(path))


def test_duplicate_years_listed_sorted(tmp_path):
    path = write(tmp_path, "dup2.csv",
                 "year,value\n2003,1.0\n2001,2.0\n2002,3.0\n2003,4.0\n2001,5.0\n")
    with pytest.raises(DomainError, match=r"duplicate years \[2001, 2003\]$"):
        load_series(descriptor(path))


def test_extra_columns_ignored(tmp_path):
    path = write(tmp_path, "extra.csv", "year,value,source\n2000,1.0,eia\n2001,2.0,bp\n")
    s = load_series(descriptor(path))
    assert s.values == (1.0, 2.0)


def test_blank_lines_skipped_and_not_counted(tmp_path):
    path = write(tmp_path, "blank.csv", "year,value\n\n2000,1.0\n\n\n2001,x\n")
    with pytest.raises(ParseError, match=r"row 3: cannot parse year='2001' value='x'"):
        load_series(descriptor(path))


def test_short_row_reads_as_empty_cells(tmp_path):
    path = write(tmp_path, "short.csv", "year,source,value\n2000,eia,1.0\n2001\n")
    with pytest.raises(ParseError, match=r"row 3: cannot parse year='2001' value=''"):
        load_series(descriptor(path))


def test_repeated_column_reads_last_occurrence(tmp_path):
    path = write(tmp_path, "twice.csv", "year,value,value\n2000,1.0,2.0\n2001,3.0,4.0\n")
    assert load_series(descriptor(path)).values == (2.0, 4.0)


def test_cells_are_stripped(tmp_path):
    path = write(tmp_path, "pad.csv", "year,value\n 2000 , 1.5 \n")
    s = load_series(descriptor(path))
    assert (s.years, s.values) == ((2000,), (1.5,))


@pytest.mark.parametrize("kind", list(SeriesKind))
def test_every_kind_refuses_a_value_that_is_not_positive(tmp_path, kind):
    unit = min(KIND_UNITS[kind])
    for value in (0.0, -1.0):
        with pytest.raises(DomainError, match="must be strictly positive"):
            AnnualSeries(kind, unit, (2000, 2001), (1.0, value))
    path = write(tmp_path, "zero.csv", "year,value\n2000,1.0\n2001,0\n")
    with pytest.raises(DomainError, match=f"row 3: nonpositive value 0.0 for kind {kind.value}"):
        load_series(descriptor(path, kind=kind, unit=unit))


def test_nonfinite_value_still_rejected(tmp_path):
    path = write(tmp_path, "gdp.csv", "year,value\n2000,0.01\n2001,nan\n")
    with pytest.raises(ParseError, match="row 3: non-finite"):
        load_series(descriptor(path, kind=SeriesKind.GDP_MER, unit=Unit.TUSD_PER_YR))


def test_a_value_that_overflows_its_scale_names_file_and_row(tmp_path):
    path = write(tmp_path, "big.csv", "year,value\n2000,1.0\n2001,1e300\n2002,inf\n")
    with pytest.raises(DomainError, match="big.csv: row 3: value 1e300 scaled by 10000000000.0 "
                                          "is not finite"):
        load_series(descriptor(path, scale=1e10))
    path = write(tmp_path, "inf.csv", "year,value\n2000,1.0\n2001,inf\n")
    with pytest.raises(ParseError, match="inf.csv: row 3: non-finite value"):
        load_series(descriptor(path, scale=1e10))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
@pytest.mark.parametrize("text", ["year,value\n2000,1.5\n", 'year,value\n"2000",1.5\n'],
                         ids=["plain", "quoted"])
def test_a_named_pipe_is_read_once(tmp_path, text):
    """A pipe cannot seek back, so a file that is not plain is not read a second time."""
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
    writer.start()
    assert load_series(descriptor(path)).values == (1.5,)
    writer.join(timeout=10)
    assert not writer.is_alive()


def test_utf8_byte_order_mark_is_ignored(tmp_path):
    text = "year,value\n2000,1.5\n2001,2.5\n"
    plain = load_series(descriptor(write(tmp_path, "plain.csv", text)))
    marked = load_series(descriptor(write(tmp_path, "bom.csv", "\ufeff" + text)))
    assert marked == plain
    assert write_series(marked, tmp_path / "out.csv").read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_descriptor_rejects_a_scale_that_is_not_positive_and_finite(tmp_path, scale):
    with pytest.raises(DomainError, match="scale must be positive and finite"):
        descriptor(tmp_path / "x.csv", scale=scale)


@pytest.mark.parametrize("column", ["year_column", "value_column"])
def test_descriptor_rejects_an_empty_column_name(tmp_path, column):
    with pytest.raises(SchemaError, match="year_column and value_column must be nonempty"):
        descriptor(tmp_path / "x.csv", **{column: ""})


# ------------------------------------ load_series against a row-by-row oracle

def row_by_row_load_series(d):
    """The per-row reader ``load_series`` replaced: the oracle for its columnar parse.

    A finite cell whose scaled value overflows is refused at its row, as ``load_series`` does."""
    try:
        handle = open(d.path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot open {d.path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ParseError(f"{d.path}: reading stopped at row 1: {exc}") from None
        index = {name: i for i, name in enumerate(header)}
        for column in (d.year_column, d.value_column):
            if column not in index:
                raise SchemaError(f"{d.path}: missing column {column!r} (header: {header})")
        year_at, value_at = index[d.year_column], index[d.value_column]
        scale = d.scale
        points = []
        row_number = 1
        while True:
            try:
                row = next(reader)
            except StopIteration:
                break
            except (csv.Error, UnicodeDecodeError) as exc:
                raise ParseError(
                    f"{d.path}: reading stopped at row {row_number + 1}: {exc}"
                ) from None
            if not row:
                continue
            row_number += 1
            try:
                raw_year, raw_value = row[year_at].strip(), row[value_at].strip()
            except IndexError:
                row += [""] * len(header)
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
            value *= scale
            if value <= 0.0:
                raise DomainError(
                    f"{d.path}: row {row_number}: nonpositive value {value!r} for kind {d.kind.value}"
                )
            if value == math.inf:
                raise DomainError(
                    f"{d.path}: row {row_number}: value {raw_value} scaled by {scale!r} "
                    "is not finite"
                )
            points.append((year, value))
    if not points:
        raise ParseError(f"{d.path}: no data rows")
    points.sort()
    years, values = zip(*points)
    if any(map(operator.eq, years, years[1:])):
        dupes = sorted({a for a, b in zip(years, years[1:]) if a == b})
        raise DomainError(f"{d.path}: duplicate years {dupes}")
    return AnnualSeries(d.kind, d.unit, years, values)


def outcome(load, d):
    """The series ``load(d)`` returns, or the type and message of what it raises."""
    try:
        return load(d)
    except Exception as exc:
        return type(exc), str(exc)


def assert_parity(d):
    expected = outcome(row_by_row_load_series, d)
    assert outcome(load_series, d) == expected
    return expected


OVERSIZED = "9" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize(
    "text, options",
    [
        pytest.param("year,value\n\n2000,1.0\n\n2001,2.0\n\n", {}, id="blank-lines"),
        pytest.param("year,source,value\n2000,eia,1.0\n2001\n", {}, id="short-row"),
        pytest.param("year,source,value\n2000,eia,1.0\n2001,eia\n", {}, id="short-row-year-only"),
        pytest.param("year,value,source\n2000,1.0\n2001,2.0,bp\n", {}, id="short-row-both-cells"),
        pytest.param("year,value,value\n2000,1.0,2.0\n2001,3.0,4.0\n", {}, id="repeated-column"),
        pytest.param("year,value\n2002,3.0\n2000,1.0\n2001,2.0\n", {}, id="unsorted"),
        pytest.param("year,value\n2001,1.0\n2000,2.0\n2001,3.0\n", {}, id="duplicate-years"),
        pytest.param("year,value\n2000,1.0\nx,2.0\n2002,nan\n2003,-1.0\n", {}, id="parse-first"),
        pytest.param("year,value\n2000,1.0\n2001,inf\n2002,x\n2003,-1.0\n", {},
                     id="non-finite-first"),
        pytest.param("year,value\n2000,1.0\n2001,-1.0\n2002,inf\n2003,x\n", {}, id="sign-first"),
        pytest.param("year,value\n2000,1.0\n2001,1e308\n", dict(scale=10.0), id="overflow-after-scale"),
        pytest.param("year,value\n2000,1.0\n2001,1e308\n2001,2.0\n", dict(scale=10.0),
                     id="duplicate-before-overflow"),
        pytest.param("year,value\n2000,1.0\n2001,-0.0\n", {}, id="negative-zero"),
        pytest.param("year,value\n 2000 , 1.5 \n\t2001\t,\t2.5\t\n", {}, id="padded-cells"),
        pytest.param("year,value\n\x1c2000\x1d,1.5\x1f\n2001,2.5\n", {}, id="separators-stripped"),
        pytest.param("year,value\n2000,1.0\n2001,x\n2002," + OVERSIZED + "\n", {},
                     id="bad-row-before-oversized-field"),
        pytest.param("year,value\n2000,1.0\n2001," + OVERSIZED + "\n", {}, id="oversized-field"),
        pytest.param("year,value\n2000,1_000.5\n2_001,2e3\n", {}, id="underscores-and-exponents"),
        pytest.param('year,a,b,value\n2000,"x,y",1.5\n', {}, id="quoted-comma-is-one-cell"),
        pytest.param("year,a,value\n2000,x\r1,1.5\n", {}, id="bare-cr-ends-a-row"),
    ],
)
def test_load_series_matches_the_row_by_row_oracle(tmp_path, text, options):
    assert_parity(descriptor(write(tmp_path, "s.csv", text), **options))


def test_load_series_parity_when_the_read_stops_on_a_bad_byte(tmp_path):
    filler = "".join(f"{1000 + i},1.0\n" for i in range(3000))  # well past the first read
    path = tmp_path / "bytes.csv"
    for early, message in (("", "reading stopped at row "), ("1,x\n", "row 2: cannot parse")):
        path.write_bytes(f"year,value\n{early}{filler}".encode() + b"5000,\xff\n")
        raised = assert_parity(descriptor(path))
        assert raised[0] is ParseError and message in raised[1]


@pytest.mark.parametrize(
    "data, row",
    [
        pytest.param(b"year,value\n2000,1.0\n2001,\xff\n", 1, id="bad-byte-in-the-first-read"),
        pytest.param(b"year,\xff\n2000,1.0\n", 1, id="bad-byte-in-the-header"),
        pytest.param(b"year,value\n2000,1.0\n2001," + OVERSIZED.encode() + b"\n", 3,
                     id="oversized-field"),
        pytest.param(b"year," + OVERSIZED.encode() + b"\n2000,1.0\n", 1,
                     id="oversized-header-field"),
    ],
)
def test_a_stopped_read_is_a_parse_error_naming_file_and_row(tmp_path, data, row):
    path = tmp_path / "s.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"s.csv: reading stopped at row {row}: "):
        load_series(descriptor(path))


ODD_CELLS = st.sampled_from(
    ["", "x", "nan", "inf", "-inf", "1e308", "-1e308", " 7 ", "\x1c3", "0", "-0.0", "2.5"]
)
GOOD_ROWS = st.tuples(
    st.integers(1995, 2005), st.floats(0.0, 1e6, exclude_min=True), st.sampled_from([1] * 7 + [-1])
).map(lambda row: f"{row[0]},{row[2] * row[1]!r}")
ODD_ROWS = st.one_of(
    st.tuples(st.integers(1995, 2005).map(str), ODD_CELLS).map(",".join),
    st.tuples(ODD_CELLS, st.just("1.0")).map(",".join),
    st.sampled_from(["", "2001", "2002,", "2003,1.0,extra"]),
)


@st.composite
def csv_rows(draw):
    """Well-formed rows, about one in eight negative and some repeated, with up to two odd rows
    spliced in."""
    rows = draw(st.lists(GOOD_ROWS, max_size=12))
    for odd in draw(st.lists(ODD_ROWS, max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), odd)
    return rows


@settings(max_examples=300, deadline=None)
@given(rows=csv_rows(), scale=st.sampled_from([1.0, 10.0, 1e-3]))
def test_load_series_matches_the_oracle_on_generated_files(tmp_path_factory, rows, scale):
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    path.write_text("year,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert_parity(descriptor(path, kind=SeriesKind.GDP_MER, unit=Unit.TUSD_PER_YR, scale=scale))


# ------------------------------------------ the one-pass split against csv.reader

CELLS = st.text(alphabet="0123456789.-e ", max_size=6)
HEADERS = st.sampled_from([
    *[("year", "value")] * 4, ("year", "value", "source"), ("value", "year"),
    ("source", "year", "value"), ("year",), ("",),
])


@st.composite
def header_wide_row(draw, header, year):
    """A row of ``year`` with a cell for each column of ``header``."""
    value = draw(st.floats(0.0, 1e6, exclude_min=True))
    cells = {"year": str(year), "value": repr(value)}
    return ",".join(cells[name] if name in cells else draw(CELLS) for name in header)


@st.composite
def delimited_bytes(draw):
    """A header and rows as wide as it, with up to two odd rows (blank, short, long or of
    other characters) spliced in, and an optional byte order mark, trailing newlines, NUL
    and stray byte that is not UTF-8."""
    header = draw(HEADERS)
    years = draw(st.lists(st.integers(1900, 2100), unique=True, max_size=10))
    rows = [draw(header_wide_row(header, year)) for year in years]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        odd = draw(st.lists(CELLS, max_size=4).map(",".join))
        rows.insert(draw(st.integers(0, len(rows))), odd)
    text = "\n".join([",".join(header), *rows]) + draw(st.sampled_from(["", "\n", "\n\n"]))
    data = text.encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    for extra in (b"\0", b"\xff"):
        if draw(st.integers(0, 7)) == 0:
            at = draw(st.integers(0, len(data)))
            data = data[:at] + extra + data[at:]
    return data


def masked_outcome(d):
    """``outcome(load_series, d)``, with the path and a decoding error's byte position
    masked: a CRLF copy holds more bytes before the same stray byte."""
    result = outcome(load_series, d)
    if type(result) is tuple:
        message = result[1].replace(str(d.path), "<path>")
        return result[0], re.sub(r"in position \d+", "in position <n>", message)
    return result


@pytest.mark.parametrize("limit", [None, 8], ids=["default-field-limit", "field-limit-8"])
@settings(max_examples=300, deadline=None)
@given(data=delimited_bytes(), scale=st.sampled_from([1.0, 1e300]))
def test_the_one_pass_split_and_csv_reader_agree(tmp_path_factory, limit, data, scale):
    """An LF file, split in one pass when plain, and its CRLF copy, which only
    ``csv.reader`` reads, give the same series or raise the same error."""
    base = tmp_path_factory.getbasetemp()
    lf, crlf = base / "lf.csv", base / "crlf.csv"
    lf.write_bytes(data)
    crlf.write_bytes(data.replace(b"\n", b"\r\n"))
    previous = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        expected = masked_outcome(descriptor(lf, scale=scale))
        with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
            assert masked_outcome(descriptor(crlf, scale=scale)) == expected
        assert reader.called or b"\n" not in data
    finally:
        csv.field_size_limit(previous)


def test_write_series_files_are_read_without_csv_reader(tmp_path, snapshot, recon, monkeypatch):
    """Every file ``write_series`` writes is plain, so none falls back to ``csv.reader``."""
    monkeypatch.setattr(csv, "reader", mock.Mock(side_effect=AssertionError("csv.reader")))
    for name in (*snapshot._fields, "wealth"):
        s = recon.wealth.series if name == "wealth" else getattr(snapshot, name)
        path = write_series(s, tmp_path / f"{name}.csv", value_column=name)
        assert load_series(canonical_descriptor(path, s.kind, s.unit, name)) == s


# ------------------------------------------------------------------ validate

def test_validate_contiguous_is_empty():
    s = AnnualSeries(
        SeriesKind.ENERGY, Unit.EJ_PER_YR,
        tuple(range(1980, 2018)), tuple(1.0 for _ in range(38)),
    )
    report = validate(s)
    assert report.is_empty()
    assert report.coverage == Period(1980, 2017)


@pytest.mark.parametrize("years, coverage", [((1990,), None), ((1990, 1992), [1990, 1992])])
def test_validation_report_to_dict(years, coverage):
    """A one-year series covers no period; the file format keeps the fixed counts."""
    s = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, tuple(1.0 for _ in years))
    gaps = [[1991, 1991]] if len(years) > 1 else []
    assert validate(s).to_dict() == {
        "gaps": gaps, "nonpositive_count": 0, "duplicate_years": [],
        "coverage": coverage, "empty": not gaps,
    }


def test_validate_reports_gap():
    years = [y for y in range(1990, 2001) if y not in (1995, 1996, 1997)]
    s = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, tuple(years), tuple(1.0 for _ in years))
    report = validate(s)
    assert report.gaps == ((1995, 1997),)
    assert not report.is_empty()


def test_validate_sparse_historical_record():
    years = (1, 1000, 1500, 1600, 1700, 1820, 1870, 1900, 1913, 1940, 1950)
    s = AnnualSeries(
        SeriesKind.GDP_PPP, Unit.TUSD_PER_YR, years, tuple(float(i + 1) for i in range(len(years)))
    )
    report = validate(s)
    # Oracle: the gaps are exactly the complement of the year set.
    expected = tuple(
        (a + 1, b - 1) for a, b in zip(years, years[1:]) if b - a > 1
    )
    assert report.gaps == expected
    assert validate(s, require_contiguous=False).is_empty()


@given(years=st.sets(st.integers(-50, 50), min_size=1, max_size=30), contiguous=st.booleans())
def test_validate_gaps_match_a_year_by_year_walk(years, contiguous):
    years = sorted(years)
    s = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, tuple(years), tuple(1.0 for _ in years))
    present, gaps, run = set(years), [], []
    for year in range(years[0], years[-1] + 1):
        if year not in present:
            run.append(year)
        elif run:
            gaps.append((run[0], run[-1]))
            run = []
    assert validate(s, require_contiguous=contiguous).gaps == (tuple(gaps) if contiguous else ())


def test_validate_is_pure():
    years = (2000, 2002, 2004)
    s = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, (1.0, 2.0, 3.0))
    assert validate(s) == validate(s)


# ------------------------------------------------------------- export cycle

def test_write_then_load_is_identity(tmp_path, snapshot):
    s = snapshot.energy
    path = write_series(s, tmp_path / "round.csv")
    loaded = load_series(canonical_descriptor(path, s.kind, s.unit))
    assert loaded == s


def test_write_series_bytes_match_csv_writer(tmp_path):
    # write_series joins its rows itself; they must be what csv.writer writes,
    # including a value in exponent notation and a header cell that needs quoting.
    s = AnnualSeries(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, (1, 2000, 2001),
                     (0.02, 1e-300, 123456789.5))
    column = 'gdp, "T$"'
    path = write_series(s, tmp_path / "gdp.csv", value_column=column)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["year", column])
    writer.writerows(zip(s.years, map(repr, s.values)))
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
    assert load_series(canonical_descriptor(path, s.kind, s.unit, column)) == s


# ------------------------------------------------------------------ manifest

def test_load_bundled_manifest():
    from enerscale import datasets

    entries = load_manifest(datasets.manifest_path())
    assert set(entries) == {
        "gdp_mer", "gdp_ppp", "energy_consumption", "energy_production",
        "emissions", "population", "concentration",
    }
    assert not entries["gdp_ppp"].contiguous
    assert entries["population"].descriptor.scale == 1e6


def test_manifest_missing_field(tmp_path):
    path = write(tmp_path, "m.json", json.dumps({"x": {"path": "x.csv"}}))
    with pytest.raises(SchemaError):
        load_manifest(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("kind", "bogus"),
        ("unit", "parsec"),
        ("scale", "abc"),
        ("scale", [2]),
        pytest.param("scale", 10**400, id="scale-too-large-for-a-float"),
        pytest.param("scale", math.nan, id="scale-NaN"),
        pytest.param("scale", math.inf, id="scale-Infinity"),
        pytest.param("scale", -math.inf, id="scale-minus-Infinity"),
        pytest.param("scale", "nan", id="scale-nan-text"),
        pytest.param("scale", True, id="scale-true"),
        pytest.param("scale", "1e6", id="scale-number-text"),
        ("contiguous", "false"),
        ("path", 7),
        ("value_column", None),
    ],
)
def test_manifest_invalid_field_names_entry_and_field(tmp_path, field, value):
    spec = {"path": "x.csv", "kind": "energy", "unit": "EJ/yr", field: value}
    path = write(tmp_path, "m.json", json.dumps({"x": spec}))
    with pytest.raises(SchemaError, match=f"'x'.*'{field}'"):
        load_manifest(path)


@pytest.mark.parametrize("text", ["[]", '{"x": "x.csv"}'])
def test_manifest_wrong_shape(tmp_path, text):
    with pytest.raises(SchemaError):
        load_manifest(write(tmp_path, "m.json", text))


def test_manifest_bad_json(tmp_path):
    path = write(tmp_path, "m.json", "{not json")
    with pytest.raises(ParseError):
        load_manifest(path)
