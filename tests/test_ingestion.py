import csv
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enerscale.errors import DomainError, ParseError, SchemaError
from enerscale.ingestion import (
    DataSourceDescriptor,
    canonical_descriptor,
    load_manifest,
    load_series,
    production_consumption_ratio,
    validate,
    write_series,
)
from enerscale.series import AnnualSeries, Period, SeriesKind
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


def test_negative_rate_round_trips(tmp_path):
    # load_series used to apply the positive-kind rule to rates as well.
    s = AnnualSeries(SeriesKind.RATE, Unit.PER_YR, (2000, 2001), (0.01, -0.02))
    path = write_series(s, tmp_path / "rate.csv")
    assert load_series(canonical_descriptor(path, s.kind, s.unit)) == s


def test_nonfinite_rate_still_rejected(tmp_path):
    path = write(tmp_path, "rate.csv", "year,value\n2000,0.01\n2001,nan\n")
    with pytest.raises(ParseError, match="row 3: non-finite"):
        load_series(descriptor(path, kind=SeriesKind.RATE, unit=Unit.PER_YR))


# ------------------------------------------------------------------ validate

def test_validate_contiguous_is_empty():
    s = AnnualSeries(
        SeriesKind.ENERGY, Unit.EJ_PER_YR,
        tuple(range(1980, 2018)), tuple(1.0 for _ in range(38)),
    )
    report = validate(s)
    assert report.is_empty()
    assert report.coverage == Period(1980, 2017)


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
    s = AnnualSeries(SeriesKind.RATE, Unit.PER_YR, tuple(years), tuple(0.0 for _ in years))
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


# --------------------------------------------- production/consumption ratio

def test_snapshot_production_consumption_ratio(snapshot):
    stats = production_consumption_ratio(
        snapshot.energy_production, snapshot.energy, Period(1980, 2016)
    )
    assert stats.mean == pytest.approx(0.998, abs=0.002)
    assert stats.std < 0.01


def test_ratio_of_identical_series():
    s = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (2000, 2001), (4.0, 5.0))
    stats = production_consumption_ratio(s, s, Period(2000, 2001))
    assert stats.mean == 1.0
    assert stats.std == 0.0


def test_ratio_constant_scaling():
    prod = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (2000, 2001), (2.0, 3.0))
    cons = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (2000, 2001), (4.0, 6.0))
    stats = production_consumption_ratio(prod, cons, Period(2000, 2001))
    assert stats.mean == 0.5
    assert stats.std == 0.0


# ------------------------------------------------------------- export cycle

def test_write_then_load_is_identity(tmp_path, snapshot):
    s = snapshot.energy
    path = write_series(s, tmp_path / "round.csv")
    loaded = load_series(canonical_descriptor(path, s.kind, s.unit))
    assert loaded == s


def test_write_series_bytes_match_csv_writer(tmp_path):
    # write_series joins its rows itself; they must be what csv.writer writes,
    # including a negative rate and a header cell that needs quoting.
    s = AnnualSeries(SeriesKind.RATE, Unit.PER_YR, (1, 2000, 2001), (-0.02, 1e-300, 123456789.5))
    column = 'rate, "pct"'
    path = write_series(s, tmp_path / "rate.csv", value_column=column)
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
