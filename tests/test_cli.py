import csv
import functools
import gc
import hashlib
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import enerscale
from enerscale import cli, datasets
from enerscale.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, _json_text, main
from enerscale.errors import DomainError
from enerscale.ingestion import canonical_descriptor, load_series
from enerscale.reconstruction import (
    calibrate_initial_wealth, cumulative_production, load_reconstruction,
)
from enerscale.series import SeriesKind
from enerscale.units import Unit


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# -------------------------------------------------------------------- ingest

def test_ingest_bundled_snapshot(tmp_path):
    out = tmp_path / "canon"
    assert main(["ingest", "--out-dir", str(out)]) == EXIT_OK
    names = {
        "gdp_mer", "gdp_ppp", "energy_consumption", "energy_production",
        "emissions", "population", "concentration",
    }
    for name in names:
        assert (out / f"{name}.csv").exists()
        report = json.loads((out / f"{name}.validation.json").read_text())
        assert report["empty"] is True
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert len(manifest["inputs"]) == len(names) + 1  # series + manifest itself
    assert manifest["version"]


def test_ingest_missing_manifest_path(tmp_path, capsys):
    missing = tmp_path / "nowhere.json"
    code = main(["ingest", "--manifest", str(missing), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_RUNTIME
    assert str(missing) in capsys.readouterr().err


def test_ingest_gap_series_exits_2(tmp_path, capsys):
    data = tmp_path / "gappy.csv"
    data.write_text("year,value\n2000,1.0\n2003,2.0\n", encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "gappy": {"path": "gappy.csv", "kind": "energy", "unit": "EJ/yr",
                   "contiguous": True}
    }), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", "--manifest", str(manifest), "--out-dir", str(out)]) == EXIT_VALIDATION
    report = json.loads((out / "gappy.validation.json").read_text())
    assert report["gaps"] == [[2001, 2002]]
    assert "gappy" in capsys.readouterr().err


# --------------------------------------------------------------- reconstruct

def test_reconstruct_outputs(tmp_path, recon):
    out = tmp_path / "recon"
    assert main(["reconstruct", "--out-dir", str(out)]) == EXIT_OK
    loaded = load_reconstruction(out)
    assert loaded.gdp == recon.gdp
    assert loaded.w1.value == pytest.approx(250.0, abs=5.0)
    assert loaded.ratio.value == pytest.approx(1.205, abs=0.01)
    assert loaded.spline_knot_years[0] == 1


def test_a_reconstruct_directory_loads_back_to_the_baseline_bit_for_bit(tmp_path, recon):
    out = tmp_path / "recon"
    assert main(["reconstruct", "--out-dir", str(out)]) == EXIT_OK
    loaded = load_reconstruction(out)
    assert loaded == recon
    for got, want in ((loaded.gdp, recon.gdp), (loaded.wealth.series, recon.wealth.series)):
        assert list(map(float.hex, got.values)) == list(map(float.hex, want.values))
    assert loaded.w1.value.hex() == recon.w1.value.hex()
    assert loaded.ratio.value.hex() == recon.ratio.value.hex()


# ----------------------------------------------------------------- calibrate

def test_calibrate_prints_json(capsys):
    assert main(["calibrate"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["w1_closed_form_tusd"] == pytest.approx(payload["w1_iterative_tusd"])


def test_calibrate_rejects_non_finite_pop_growth(capsys):
    assert main(["calibrate", "--pop-growth", "inf"]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: pop_growth must be positive and finite")


# -------------------------------------------------------------------- tables

def test_tables_all_ids(tmp_path):
    for table_id in (1, 2, 3, 4, 5):
        out = tmp_path / f"t{table_id}"
        assert main(["tables", "--table", str(table_id), "--out-dir", str(out)]) == EXIT_OK
        assert (out / f"table{table_id}.csv").exists()
        assert (out / f"table{table_id}.txt").exists()


def test_tables_rejects_unknown_id(tmp_path, capsys):
    code = main(["tables", "--table", "9", "--out-dir", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def assert_data_dir_table_is_the_fresh_one(tmp_path, recon_dir, table):
    """``tables --data-dir recon_dir`` writes the CSV and text bytes that ``tables`` does."""
    out, fresh = tmp_path / "tables", tmp_path / "tables_fresh"
    assert main(["tables", "--table", str(table), "--data-dir", str(recon_dir),
                 "--out-dir", str(out)]) == EXIT_OK
    assert main(["tables", "--table", str(table), "--out-dir", str(fresh)]) == EXIT_OK
    for name in (f"table{table}.csv", f"table{table}.txt"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes()


@pytest.mark.parametrize("table", range(1, 6))
def test_tables_from_reconstruction_dir(tmp_path, table):
    recon_dir = tmp_path / "recon"
    assert main(["reconstruct", "--out-dir", str(recon_dir)]) == EXIT_OK
    assert_data_dir_table_is_the_fresh_one(tmp_path, recon_dir, table)


def _rewrite_wealth(recon_dir, edit):
    """Replace each W cell of ``wealth.csv`` by ``edit(year, value)``."""
    path = recon_dir / "wealth.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cells = (row.split(",") for row in rows)
    path.write_text(header + "\n" + "".join(f"{y},{edit(int(y), float(w))!r}\n" for y, w in cells),
                    encoding="utf-8")


def _set_w1(recon_dir, w1):
    """Set ``reconstruction.json``'s ``w1_tusd`` to ``w1``."""
    path = recon_dir / "reconstruction.json"
    path.write_text(json.dumps({**json.loads(path.read_text(encoding="utf-8")), "w1_tusd": w1}),
                    encoding="utf-8")


#: Edits to what ``reconstruct`` writes for readers: W and W(1), which ``--data-dir`` makes
#: from the saved production instead of reading them.
READER_ONLY_EDITS = {
    "wealth-doubled": lambda d: _rewrite_wealth(d, lambda year, w: 2.0 * w),
    "wealth-2000-up-1-ulp": lambda d: _rewrite_wealth(
        d, lambda year, w: math.nextafter(w, math.inf) if year == 2000 else w),
    "wealth-deleted": lambda d: (d / "wealth.csv").unlink(),
    "w1_tusd-edited": lambda d: _set_w1(d, 42.5),
}


@pytest.mark.parametrize("table", range(1, 6))
@pytest.mark.parametrize("edit", READER_ONLY_EDITS)
def test_tables_data_dir_makes_w_from_the_production(tmp_path, recon, edit, table):
    """An edited or missing ``wealth.csv`` or ``w1_tusd`` changes neither the loaded result
    nor a table byte."""
    recon_dir = tmp_path / "recon"
    assert main(["reconstruct", "--out-dir", str(recon_dir)]) == EXIT_OK
    READER_ONLY_EDITS[edit](recon_dir)
    assert load_reconstruction(recon_dir) == recon
    assert_data_dir_table_is_the_fresh_one(tmp_path, recon_dir, table)


def test_loaded_w_is_made_from_the_saved_production(tmp_path, recon):
    """An edited production cell, year 1's, moves W(1) and every W as ``build_wealth`` would."""
    recon_dir = tmp_path / "recon"
    assert main(["reconstruct", "--out-dir", str(recon_dir)]) == EXIT_OK
    path = recon_dir / "gdp_annual.csv"
    header, first, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    year, value = first.split(",")
    path.write_text(f"{header}{year},{2.0 * float(value)!r}\n{''.join(rows)}", encoding="utf-8")
    gdp = load_series(canonical_descriptor(path, SeriesKind.GDP_MER, Unit.TUSD_PER_YR, "gdp"))
    loaded = load_reconstruction(recon_dir)
    assert loaded.wealth == cumulative_production(gdp, calibrate_initial_wealth(gdp))
    assert loaded.w1 != recon.w1


@pytest.mark.parametrize("table, kept, message", [
    pytest.param(1, lambda year: year <= 2014, "scaling series has 5 of the 8 years of 2010-2017",
                 id="table1-to-2014"),
    pytest.param(1, lambda year: year <= 2010, "scaling series has 1 of the 8 years of 2010-2017",
                 id="table1-to-2010"),
    pytest.param(5, lambda year: year <= 2005,
                 "emissions/wealth overlap has 6 of the 11 years of 2000-2010", id="table5-to-2005"),
    pytest.param(1, lambda year: year != 1985,
                 "production series has interior gaps; infill before accumulating",
                 id="table1-without-1985"),
    pytest.param(5, lambda year: year != 1985,
                 "production series has interior gaps; infill before accumulating",
                 id="table5-without-1985"),
    pytest.param(2, lambda year: year >= 1980,
                 "calibration requires the production series to cover year 1 CE",
                 id="table2-from-1980"),
])
def test_tables_refuse_a_wealth_series_short_of_a_period(tmp_path, capsys, table, kept, message):
    """W is made from the saved production: a row for a period comes from every year it
    reads, a gap is refused before accumulating, and W(1) needs year 1."""
    recon_dir = tmp_path / "recon"
    assert main(["reconstruct", "--out-dir", str(recon_dir)]) == EXIT_OK
    gdp = recon_dir / "gdp_annual.csv"
    header, *rows = gdp.read_text(encoding="utf-8").splitlines(keepends=True)
    gdp.write_text(header + "".join(r for r in rows if kept(int(r.split(",")[0]))),
                   encoding="utf-8")
    code = main(["tables", "--table", str(table), "--data-dir", str(recon_dir),
                 "--out-dir", str(tmp_path / "tables")])
    assert code == EXIT_RUNTIME
    assert message in capsys.readouterr().err
    assert not (tmp_path / "tables").exists()


def test_tables_missing_reconstruction_inputs(tmp_path, capsys):
    code = main(["tables", "--table", "1", "--data-dir", str(tmp_path / "void"),
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_RUNTIME
    assert "reconstruct" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("not json", "not valid JSON"),
        ("{}", "'kappa_x_window'"),
        ("[]", "'kappa_x_window'"),
        ('{"w1_tusd": 50.0, "kappa_x": null, "kappa_x_window": [1970, 1992]}', "'kappa_x'"),
        ('{"w1_tusd": 50.0, "kappa_x": Infinity, "kappa_x_window": [1970, 1992]}', "'kappa_x'"),
        ('{"w1_tusd": 50.0, "kappa_x": NaN, "kappa_x_window": [1970, 1992]}', "'kappa_x'"),
        ('{"w1_tusd": 50.0, "kappa_x": 1.5, "kappa_x_window": "1970"}', "'kappa_x_window'"),
        ('{"w1_tusd": 50.0, "kappa_x": 1.5, "kappa_x_window": [1970, 1992],'
         ' "spline_knot_years": 5}', "'spline_knot_years'"),
        ('{"w1_tusd": 50.0, "kappa_x": 1.5, "kappa_x_window": [1970.9, 1992]}',
         "'kappa_x_window'"),
        ('{"w1_tusd": 50.0, "kappa_x": 1.5, "kappa_x_window": [Infinity, 1992]}',
         "'kappa_x_window'"),
        ('{"w1_tusd": 50.0, "kappa_x": 1.5, "kappa_x_window": [1970, 1992],'
         ' "spline_knot_years": [1, 1000.5]}', "'spline_knot_years'"),
        pytest.param('{"w1_tusd": 50.0, "kappa_x": true, "kappa_x_window": [1970, 1992]}',
                     "'kappa_x'", id="kappa_x-true"),
        pytest.param('{"w1_tusd": 50.0, "kappa_x": "1e0", "kappa_x_window": [1970, 1992]}',
                     "'kappa_x'", id="kappa_x-number-text"),
        pytest.param('{"w1_tusd": 50.0, "kappa_x": 1.5, "kappa_x_window": [true, 1992]}',
                     "'kappa_x_window'", id="kappa_x_window-true"),
        pytest.param('{"w1_tusd": 50.0, "kappa_x": 1.5, "kappa_x_window": [1970, 1992],'
                     ' "spline_knot_years": [true, 1000]}', "'spline_knot_years'",
                     id="spline_knot_years-true"),
        pytest.param('{"w1_tusd": 50.0, "kappa_x": 1.5, "kappa_x_window": [1970, 1992],'
                     ' "spline_knot_years": [1, 1000, 1000]}', "'spline_knot_years'",
                     id="spline_knot_years-repeated"),
        pytest.param('{"w1_tusd": 50.0, "kappa_x": 1.5, "kappa_x_window": [1970, 1992],'
                     ' "spline_knot_years": [1000, 1]}', "'spline_knot_years'",
                     id="spline_knot_years-out-of-order"),
        pytest.param('{"w1_tusd": 50.0, "kappa_x": 1.5, "kappa_x_window": [1970, 1992],'
                     ' "spline_knot_years": [-9007199254740993, 1]}', "'spline_knot_years'",
                     id="spline_knot_years-past-2**53"),
        pytest.param('{"w1_tusd": 50.0, "kappa_x": 1.5, "kappa_x_window": [1992, 1970]}',
                     "'kappa_x_window'", id="kappa_x_window-reversed"),
    ],
)
def test_tables_rejects_malformed_reconstruction_json(tmp_path, capsys, text, message):
    recon_dir = tmp_path / "recon"
    assert main(["reconstruct", "--out-dir", str(recon_dir)]) == EXIT_OK
    capsys.readouterr()
    (recon_dir / "reconstruction.json").write_text(text, encoding="utf-8")
    code = main(["tables", "--table", "1", "--data-dir", str(recon_dir),
                 "--out-dir", str(tmp_path / "tables")])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_ingest_manifest_with_bad_field_exits_1(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"x": {"path": "x.csv", "kind": "bogus", "unit": "EJ/yr"}}),
                        encoding="utf-8")
    code = main(["ingest", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("kind, unit, key", [
    ("rate", "1/yr", "'kind'"),
    ("energy", "1/yr", "'unit'"),
])
def test_ingest_manifest_declaring_a_rate_exits_1(tmp_path, capsys, kind, unit, key):
    # Every series kind is positive: there is no signed `rate` kind and no 1/yr series unit.
    (tmp_path / "x.csv").write_text("year,value\n2000,0.01\n2001,-0.02\n", encoding="utf-8")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"x": {"path": "x.csv", "kind": kind, "unit": unit}}),
                        encoding="utf-8")
    code = main(["ingest", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")])
    assert_one_error_line(code, capsys, f"manifest entry 'x' has a missing or invalid {key}")


def test_table1_rows_match_library(tmp_path, snapshot, recon):
    from enerscale.scaling import scaling_series, scaling_stats
    from enerscale.series import Period

    out = tmp_path / "t1"
    main(["tables", "--table", "1", "--out-dir", str(out)])
    rows = read_rows(out / "table1.csv")
    assert [r["period"] for r in rows] == [
        "1980-1990", "1990-2000", "2000-2010", "2010-2017", "1980-2010", "1980-2017",
    ]
    lam = scaling_series(snapshot.energy, recon.wealth)
    expected = scaling_stats(lam, Period(1980, 2017)).mean.value
    assert float(rows[-1]["mean"]) == expected  # repr round-trip is lossless


# ------------------------------------------------------------------- project

def test_project_requires_initial_conditions(tmp_path, capsys):
    code = main(["project", "--out", str(tmp_path / "t.csv")])
    assert code == EXIT_USAGE
    assert "--w0" in capsys.readouterr().err


def test_project_rejects_bad_dt(tmp_path, capsys):
    code = main(["project", "--preset", "paper-2017", "--dt", "0",
                 "--out", str(tmp_path / "t.csv")])
    assert code == EXIT_RUNTIME
    assert "dt must be in (0, 1]" in capsys.readouterr().err


def test_project_into_a_directory_is_an_io_error(tmp_path, capsys):
    code = main(["project", "--preset", "paper-2017", "--out", str(tmp_path)])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("i/o error: ")


@pytest.mark.parametrize(
    "flags",
    [
        ["--preset", "paper-2017", "--eta-w", "nan"],
        ["--preset", "paper-2017", "--eta-c", "inf"],
        ["--w0", "nan", "--lambda-gw", "5.9", "--c0", "0.02", "--delta0", "130"],
        ["--w0", "300", "--lambda-gw", "5.9", "--c0", "0.02", "--delta0", "nan"],
        ["--preset", "paper-2017", "--horizon", "inf"],
        ["--preset", "paper-2017", "--horizon", "nan"],
    ],
)
def test_project_rejects_non_finite_scenario(tmp_path, capsys, flags):
    # main returning exit 1 means no exception escaped it, so no traceback
    code = main(["project", *flags, "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME
    assert err.startswith("error: scenario fields must be finite")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_project_unknown_preset(tmp_path, capsys):
    code = main(["project", "--preset", "mystery", "--out", str(tmp_path / "t.csv")])
    assert code == EXIT_USAGE


def test_project_trajectory_milestones(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["project", "--preset", "paper-2017", "--eta-c", "0",
                 "--horizon", "23", "--out", str(out)]) == EXIT_OK
    rows = read_rows(out)
    assert rows[0]["year"] == "2017.0"
    by_year = {float(r["year"]): r for r in rows}
    committed_2030 = float(by_year[2030.0]["committed_concentration_ppmv"])
    assert committed_2030 == pytest.approx(550.0, abs=15.0)
    manifest = json.loads((out.parent / "traj.csv.manifest.json").read_text())
    assert manifest["parameters"]["scenario"]["eta_c"] == 0.0


def test_project_curve_monotone(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["project", "--preset", "paper-2017", "--curve", "--from-w", "100",
                 "--to-w", "5000", "--points", "25", "--out", str(out)]) == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 25
    deltas = [float(r["committed_delta_ppmv"]) for r in rows]
    assert deltas == sorted(deltas)
    assert all(b > a for a, b in zip(deltas, deltas[1:]))


@pytest.mark.parametrize("flag", ["--from-w", "--to-w"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_project_curve_rejects_non_finite_bounds(tmp_path, capsys, flag, value):
    code = main(["project", "--preset", "paper-2017", "--curve", flag, value,
                 "--out", str(tmp_path / "curve.csv")])
    assert code == EXIT_RUNTIME
    name = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == f"error: curve bounds must be finite: {name}\n"
    assert list(tmp_path.iterdir()) == []


def test_project_outputs_parse_through_ingestion(tmp_path):
    out = tmp_path / "traj.csv"
    main(["project", "--preset", "paper-2017", "--horizon", "10", "--dt", "1",
          "--out", str(out)])
    # integer-stepped trajectories round-trip through the series parser
    rows = read_rows(out)
    rewritten = tmp_path / "wealth_only.csv"
    with open(rewritten, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["year", "value"])
        for row in rows:
            writer.writerow([int(float(row["year"])), row["wealth_tusd"]])
    series = load_series(canonical_descriptor(rewritten, SeriesKind.WEALTH, Unit.TUSD))
    assert len(series) == 11
    assert series.values[0] == float(rows[0]["wealth_tusd"])


def test_the_defaults_the_cli_restates_match_their_homes(snapshot, recon):
    """Every default and choice list in the command table that a model module also holds
    equals it there: the parser restates them, since importing the model modules would
    add their compile time to every process."""
    import inspect

    from enerscale import tables
    from enerscale.carbon import CarbonCycleParams
    from enerscale.reconstruction import ANCIENT_POP_GROWTH

    preset = inspect.signature(datasets.preset_scenario).parameters
    homes = {
        ("calibrate", "--pop-growth"): ANCIENT_POP_GROWTH,
        ("project", "--eta-c"): preset["eta_c"].default,
        ("project", "--horizon"): preset["horizon_years"].default,
        ("project", "--dt"): preset["dt"].default,
        ("project", "--sigma"): CarbonCycleParams().sigma,
        ("project", "--start-year"): float(datasets.PRESET_START_YEAR),
    }
    cli_own = {("tables", "--out-dir"), ("project", "--from-w"), ("project", "--to-w"),
               ("project", "--points")}
    defaults, choices = {}, {}
    for command, (_, flags, _, _) in cli._COMMANDS.items():
        for flag, (kind, default, *_) in flags.items():
            if not isinstance(kind, type):
                choices[command, flag] = kind
            if kind is not bool and default is not None and default is not cli._REQUIRED:
                defaults[command, flag] = default
    assert set(defaults) == set(homes) | cli_own
    assert {key: defaults[key] for key in homes} == homes
    assert f"(default {datasets.PRESET_GROWTH!r})" in cli._PROJECT_FLAGS["--eta-w"][2]

    table_ids, presets = choices.pop(("tables", "--table")), choices.pop(("project", "--preset"))
    assert choices == {}
    for table_id in table_ids:
        assert tables.build_table(table_id, snapshot, recon).table_id == table_id
    with pytest.raises(DomainError, match=re.escape(f"choose from {list(table_ids)}")):
        tables.build_table(table_ids[-1] + 1, snapshot, recon)
    for name in presets:
        datasets.preset_scenario(name)
    with pytest.raises(DomainError, match=re.escape(f"choose from {list(presets)}")):
        datasets.preset_scenario("mystery")


# ------------------------------------------------------------------- report

def test_report_payload(tmp_path):
    out = tmp_path / "rep"
    assert main(["report", "--out-dir", str(out)]) == EXIT_OK
    payload = json.loads((out / "report.json").read_text())
    assert 5.7 <= payload["scaling_mean_gw_per_tusd"] <= 6.1
    assert payload["halving_time_yr"] == pytest.approx(30.14, abs=0.01)


def test_report_json_is_datasets_headline(tmp_path):
    """``report`` writes ``datasets.headline()``, value for value; the file sorts the keys."""
    assert main(["report", "--out-dir", str(tmp_path)]) == EXIT_OK
    headline = datasets.headline()
    written = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert list(written.items()) == sorted(headline.items())
    assert list(headline) == [
        "scaling_mean_gw_per_tusd", "scaling_std", "scaling_ci95_halfwidth",
        "scaling_trend_per_yr", "w1_tusd", "wealth_2017_tusd", "share_first_millennium",
        "share_1980_2017", "committed_concentration_2017_ppmv", "committed_doubling_year",
        "committed_concentration_2040_ppmv", "halving_time_yr", "clean_capacity_gw_per_yr",
        "clean_capacity_gw_per_day",
    ]


def test_report_2040_concentration_is_the_preset_trajectorys(tmp_path):
    trajectory = tmp_path / "traj.csv"
    assert main(["project", "--preset", "paper-2017", "--out", str(trajectory)]) == EXIT_OK
    assert main(["report", "--out-dir", str(tmp_path / "rep")]) == EXIT_OK
    payload = json.loads((tmp_path / "rep" / "report.json").read_text())
    (row,) = [r for r in read_rows(trajectory) if float(r["year"]) == 2040.0]
    assert payload["committed_concentration_2040_ppmv"] == float(
        row["committed_concentration_ppmv"]
    )


# ------------------------------------------------------------ reproducibility

def test_repeated_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["project", "--preset", "paper-2017", "--eta-c", "0",
                     "--horizon", "40", "--out", str(out / "traj.csv")]) == EXIT_OK
        assert main(["tables", "--table", "2", "--out-dir", str(out)]) == EXIT_OK
        assert main(["reconstruct", "--out-dir", str(out / "recon")]) == EXIT_OK
    for rel in ("traj.csv", "table2.csv", "recon/wealth.csv", "recon/gdp_annual.csv",
                "recon/reconstruction.json"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    # run manifests for identical commands are identical apart from paths
    ma = json.loads((a / "traj.csv.manifest.json").read_text())
    mb = json.loads((b / "traj.csv.manifest.json").read_text())
    assert ma["parameters"]["scenario"] == mb["parameters"]["scenario"]


def _digests(*paths):
    return {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def _snapshot_digests():
    entries = datasets.manifest().values()
    return _digests(datasets.manifest_path(), *(e.descriptor.path for e in entries))


def test_every_manifest_checksums_its_inputs(tmp_path):
    recon = tmp_path / "recon"
    recon_files = [recon / n for n in ("gdp_annual.csv", "reconstruction.json")]
    snapshot = _snapshot_digests()
    # (argv, manifest written, reads the snapshot, other files read)
    runs = [
        (["ingest", "--out-dir", str(tmp_path / "ingest")],
         tmp_path / "ingest" / "run_manifest.json", True, []),
        (["reconstruct", "--out-dir", str(recon)], recon / "run_manifest.json", True, []),
        (["calibrate", "--out", str(tmp_path / "cal.json")],
         tmp_path / "cal.manifest.json", True, []),
        (["tables", "--table", "3", "--out-dir", str(tmp_path)],
         tmp_path / "table3.manifest.json", True, []),
        (["tables", "--table", "4", "--data-dir", str(recon), "--out-dir", str(tmp_path)],
         tmp_path / "table4.manifest.json", True, recon_files),
        (["report", "--out-dir", str(tmp_path / "report")],
         tmp_path / "report" / "run_manifest.json", True, []),
        (["project", "--preset", "paper-2017", "--out", str(tmp_path / "traj.csv")],
         tmp_path / "traj.csv.manifest.json", True, []),
        (["project", "--preset", "paper-2017", "--curve", "--out", str(tmp_path / "curve.csv")],
         tmp_path / "curve.csv.manifest.json", True, []),
        (["project", "--w0", "3400", "--lambda-gw", "5.7", "--c0", "0.0162", "--delta0", "130",
          "--out", str(tmp_path / "free.csv")],
         tmp_path / "free.csv.manifest.json", False, []),
    ]
    for argv, manifest_path, reads_snapshot, files in runs:
        assert main(argv) == EXIT_OK, argv
        expected = {**(snapshot if reads_snapshot else {}), **_digests(*files)}
        assert json.loads(manifest_path.read_text())["inputs"] == expected, argv


@pytest.mark.parametrize(
    "argv, manifest_name",
    [
        pytest.param(["ingest", "--out-dir", "{d}"], "run_manifest.json", id="ingest"),
        pytest.param(["reconstruct", "--out-dir", "{d}"], "run_manifest.json", id="reconstruct"),
        pytest.param(["calibrate", "--out", "{d}/cal.json"], "cal.manifest.json", id="calibrate"),
        *(pytest.param(["tables", "--table", str(n), "--out-dir", "{d}"],
                       f"table{n}.manifest.json", id=f"tables-{n}") for n in range(1, 6)),
        pytest.param(["report", "--out-dir", "{d}"], "run_manifest.json", id="report"),
        pytest.param(["project", "--preset", "paper-2017", "--out", "{d}/t.csv"],
                     "t.csv.manifest.json", id="project"),
        pytest.param(["project", "--preset", "paper-2017", "--curve", "--out", "{d}/c.csv"],
                     "c.csv.manifest.json", id="project-curve"),
    ],
)
def test_manifest_lists_every_file_the_command_writes(tmp_path, capsys, argv, manifest_name):
    out = tmp_path / "nested" / "out"  # commands make missing directories
    assert main([a.replace("{d}", str(out)) for a in argv]) == EXIT_OK
    manifest = out / manifest_name
    outputs = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
    written = sorted(str(p) for p in out.rglob("*") if p.is_file())
    assert written == sorted([*outputs, str(manifest)])
    assert outputs == sorted(outputs)


def test_tables_and_report_manifests_record_the_reconstruction(tmp_path, recon):
    recorded = {"kappa_x": recon.ratio.value, "w1_tusd": recon.w1.value}
    runs = [
        (["report", "--out-dir", str(tmp_path / "report")],
         tmp_path / "report" / "run_manifest.json"),
        *((["tables", "--table", str(n), "--out-dir", str(tmp_path)],
           tmp_path / f"table{n}.manifest.json") for n in range(1, 6)),
    ]
    for argv, manifest_path in runs:
        assert main(argv) == EXIT_OK, argv
        parameters = json.loads(manifest_path.read_text())["parameters"]
        assert parameters["reconstruction"] == recorded, argv


def test_tables_manifest_records_the_reconstruction_it_read(tmp_path, recon):
    """With --data-dir the recorded kappa_x is reconstruction.json's, and the recorded W(1)
    is the one made from gdp_annual.csv, not the file's ``w1_tusd``."""
    recon_dir = tmp_path / "recon"
    assert main(["reconstruct", "--out-dir", str(recon_dir)]) == EXIT_OK
    prov_path = recon_dir / "reconstruction.json"
    prov = json.loads(prov_path.read_text())
    prov.update(kappa_x=1.25, w1_tusd=42.5)
    prov_path.write_text(json.dumps(prov))
    assert main(["tables", "--table", "1", "--data-dir", str(recon_dir),
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    parameters = json.loads((tmp_path / "table1.manifest.json").read_text())["parameters"]
    assert parameters["reconstruction"] == {"kappa_x": 1.25, "w1_tusd": recon.w1.value}


def test_project_manifest_records_the_grid(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["project", "--preset", "paper-2017", "--horizon", "40", "--dt", "0.3",
                 "--out", str(out)]) == EXIT_OK
    grid = json.loads((tmp_path / "traj.csv.manifest.json").read_text())["parameters"]["grid"]
    assert grid["steps"] == 134
    assert grid["dt"] == pytest.approx(40.0 / 134, rel=1e-15)
    assert grid["horizon_years"] == pytest.approx(40.0, abs=1e-9)
    rows = read_rows(out)
    assert len(rows) == 135 and float(rows[-1]["year"]) == pytest.approx(2057.0, abs=1e-9)


# ------------------------------------------- bad input: one error line, exit 1

def assert_one_error_line(code, capsys, fragment):
    """``main`` returned (nothing escaped it) exit 1 and wrote one ``error:`` line."""
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME
    assert err.splitlines() == [err.rstrip("\n")] and err.startswith("error: ")
    assert fragment in err


def ingest_one_csv(tmp_path, data, **entry):
    (tmp_path / "x.csv").write_bytes(data)
    manifest = tmp_path / "manifest.json"
    entry = {"path": "x.csv", "kind": "energy", "unit": "EJ/yr", **entry}
    manifest.write_text(json.dumps({"x": entry}), encoding="utf-8")
    return main(["ingest", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")])


def test_ingest_csv_with_a_byte_that_is_not_utf8_exits_1(tmp_path, capsys):
    code = ingest_one_csv(tmp_path, b"year,value\n2000,1.0\n2001,\xff\n")
    assert_one_error_line(code, capsys, "x.csv: reading stopped at row 1: 'utf-8' codec")


def test_ingest_csv_with_an_oversized_field_exits_1(tmp_path, capsys):
    oversized = b"9" * (csv.field_size_limit() + 1)
    code = ingest_one_csv(tmp_path, b"year,value\n2000,1.0\n2001," + oversized + b"\n")
    assert_one_error_line(code, capsys, "x.csv: reading stopped at row 3: field larger")


def test_ingest_csv_with_a_value_that_overflows_its_scale_exits_1(tmp_path, capsys):
    code = ingest_one_csv(tmp_path, b"year,value\n2000,1.0\n2001,1e300\n", scale=1e10)
    assert_one_error_line(code, capsys, "x.csv: row 3: value 1e300 scaled by 10000000000.0 "
                                        "is not finite")


def test_ingest_deeply_nested_manifest_exits_1(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[" * 100_000, encoding="utf-8")
    code = main(["ingest", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")])
    assert_one_error_line(code, capsys, "is not valid JSON: maximum recursion depth")


@pytest.mark.parametrize("flag", ["--eta-w", "--eta-c"])
def test_project_growth_that_overflows_exits_1(tmp_path, capsys, flag):
    code = main(["project", "--preset", "paper-2017", flag, "100", "--horizon", "10",
                 "--out", str(tmp_path / "t.csv")])
    assert_one_error_line(code, capsys, "overflows a float over a 10-year horizon at eta_w=")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, span", [
    pytest.param(["--eta-w", "400", "--eta-c", "400", "--horizon", "1", "--dt", "1"], "1",
                 id="each-column-finite"),
    pytest.param(["--eta-c", "2840", "--horizon", "5e-324"], "0", id="zero-step-grid"),
])
def test_project_growth_that_overflows_one_step_exits_1(tmp_path, capsys, flags, span):
    """The growth of the emissions over one step overflowed with a raw ``OverflowError``."""
    code = main(["project", "--preset", "paper-2017", *flags, "--out", str(tmp_path / "t.csv")])
    assert_one_error_line(code, capsys, f"overflows a float over a {span}-year horizon at eta_w=")
    assert list(tmp_path.iterdir()) == []


def _not_built(*args):
    raise AssertionError("built past the cap")


@pytest.mark.parametrize("flags", [["--dt", "1e-300", "--horizon", "1e-290"],
                                   ["--horizon", "1e9"]])
def test_project_grid_past_the_cap_exits_1_before_building_it(tmp_path, capsys, monkeypatch,
                                                              flags):
    from enerscale import projection

    monkeypatch.setattr(projection, "_columns", _not_built)
    code = main(["project", "--preset", "paper-2017", *flags, "--out", str(tmp_path / "t.csv")])
    assert_one_error_line(code, capsys, f"needs more than {projection.MAX_GRID_POINTS} grid points")


@pytest.mark.parametrize("dt", ["1e-7", "2e-7"])
def test_spinup_past_the_cap_reports_its_own_step_count(tmp_path, capsys, dt):
    # At 1e-7 one year alone is past the cap; at 2e-7 only the 58 years are.
    from enerscale import projection

    code = main(["project", "--preset", "paper-2017", "--spinup", "--dt", dt, "--horizon", "0.5",
                 "--out", str(tmp_path / "s.csv")])
    assert_one_error_line(code, capsys, f"a 58-year spin-up at dt={float(dt)!r} needs more than"
                                        f" {projection.MAX_GRID_POINTS} steps")


def test_project_curve_points_past_the_cap_exit_1_before_building_them(tmp_path, capsys,
                                                                       monkeypatch):
    from enerscale import projection

    monkeypatch.setattr(projection, "committed_curve", _not_built)
    points = str(projection.MAX_GRID_POINTS + 1)
    code = main(["project", "--preset", "paper-2017", "--curve", "--points", points,
                 "--out", str(tmp_path / "c.csv")])
    assert_one_error_line(code, capsys, f"2 to {projection.MAX_GRID_POINTS} points")


def test_project_output_that_overflows_exits_1_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(["project", "--w0", "1e308", "--lambda-gw", "1e308", "--c0", "1", "--delta0", "0",
                 "--horizon", "1", "--out", str(out)])
    assert_one_error_line(code, capsys, f"refusing to write inf to {out}: row 2, column")
    assert list(tmp_path.iterdir()) == []


def test_json_writer_names_the_key_of_a_non_finite_value():
    assert _json_text({"a": [1.5, 2]}, "x.json") == '{\n  "a": [\n    1.5,\n    2\n  ]\n}\n'
    with pytest.raises(DomainError, match=r"^refusing to write nan to x\.json: key a\.b\[1\]$"):
        _json_text({"a": {"b": [1.0, float("nan")]}, "c": 2.0}, "x.json")
    with pytest.raises(DomainError, match=r"^refusing to write -inf to out: key d$"):
        _json_text({"d": -math.inf}, "out")


@pytest.mark.parametrize("flags", [
    ["--start-year", "1e300"],
    ["--start-year", "1e9", "--dt", "1e-8", "--horizon", "1e-6"],
], ids=["huge-start", "large-start-small-dt"])
def test_project_start_year_whose_grid_years_do_not_increase_exits_1(tmp_path, capsys, flags):
    code = main(["project", "--w0", "300", "--lambda-gw", "5.9", "--c0", "0.02", "--delta0", "130",
                 *flags, "--out", str(tmp_path / "t.csv")])
    assert_one_error_line(code, capsys, "would not have strictly increasing years")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, named", [
    (["--w0", "5"], "--w0"),
    (["--lambda-gw", "5.9"], "--lambda-gw"),
    (["--c0", "0.02"], "--c0"),
    (["--delta0", "130"], "--delta0"),
    (["--start-year", "1900"], "--start-year"),
    (["--start-year", "1900", "--w0", "5"], "--w0, --start-year"),
])
def test_preset_with_initial_conditions_is_a_usage_error(tmp_path, capsys, flags, named):
    code = main(["project", "--preset", "paper-2017", *flags, "--out", str(tmp_path / "t.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"usage error: preset trajectory runs do not read {named}\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_preset_accepts_its_own_start_year(tmp_path):
    default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
    assert main(["project", "--preset", "paper-2017", "--out", str(default)]) == EXIT_OK
    assert main(["project", "--preset", "paper-2017", "--start-year", "2017",
                 "--out", str(explicit)]) == EXIT_OK
    assert explicit.read_bytes() == default.read_bytes()


EXPLICIT = ["--w0", "3000", "--lambda-gw", "6", "--c0", "0.017", "--delta0", "130"]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--spinup", *EXPLICIT],
                 "explicit trajectory runs do not read --spinup",
                 id="spinup-without-preset"),
    pytest.param(["--preset", "paper-2017", "--curve", "--spinup"],
                 "preset curve runs do not read --spinup", id="spinup-with-curve"),
    pytest.param(["--preset", "paper-2017", "--from-w", "5"],
                 "preset trajectory runs do not read --from-w", id="from-w-without-curve"),
    pytest.param(["--preset", "paper-2017", "--to-w", "6000"],
                 "preset trajectory runs do not read --to-w", id="to-w-without-curve"),
    pytest.param(["--preset", "paper-2017", "--points", "3"],
                 "preset trajectory runs do not read --points", id="points-without-curve"),
    pytest.param([*EXPLICIT, "--points", "3", "--from-w", "5"],
                 "explicit trajectory runs do not read --from-w, --points",
                 id="two-without-curve"),
])
def test_a_project_flag_that_nothing_reads_is_a_usage_error(tmp_path, capsys, argv, message):
    code = main(["project", *argv, "--out", str(tmp_path / "t.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_curve_flags_at_their_defaults_are_accepted_without_curve(tmp_path):
    default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
    assert main(["project", "--preset", "paper-2017", "--out", str(default)]) == EXIT_OK
    assert main(["project", "--preset", "paper-2017", "--from-w", "100", "--to-w", "5000",
                 "--points", "50", "--out", str(explicit)]) == EXIT_OK
    assert explicit.read_bytes() == default.read_bytes()


#: The four runs of ``project``, each by its argv without ``--out``.
PROJECT_RUNS = {
    "preset-trajectory": ["--preset", "paper-2017"],
    "explicit-trajectory": EXPLICIT,
    "preset-curve": ["--preset", "paper-2017", "--curve"],
    "explicit-curve": ["--curve", "--lambda-gw", "6", "--c0", "0.017"],
}
#: For each flag but the two that choose the run (--preset, --curve), a value away from
#: its parser default and from the runs' own; None marks a switch.
AWAY = {
    "--eta-c": "0.01", "--eta-w": "0.01", "--horizon": "20", "--dt": "0.5", "--w0": "3500",
    "--lambda-gw": "6.5", "--c0": "0.02", "--delta0": "100", "--sigma": "0.02",
    "--start-year": "1990", "--spinup": None, "--from-w": "200", "--to-w": "6000",
    "--points": "10",
}


@pytest.fixture(scope="module")
def base_csv(tmp_path_factory):
    """The CSV bytes of a run in PROJECT_RUNS, written once."""
    root = tmp_path_factory.mktemp("runs")

    @functools.cache
    def run_csv(run):
        out = root / f"{run}.csv"
        assert main(["project", *PROJECT_RUNS[run], "--out", str(out)]) == EXIT_OK, run
        return out.read_bytes()

    return run_csv


def test_every_project_flag_has_a_value_away_from_its_default():
    from enerscale.cli import _PROJECT_FLAGS

    assert set(_PROJECT_FLAGS) == {*AWAY, "--preset", "--curve"}


@pytest.mark.parametrize("flag", AWAY)
@pytest.mark.parametrize("run", PROJECT_RUNS)
def test_no_project_flag_is_silently_ignored(tmp_path, capsys, base_csv, run, flag):
    """A flag away from its default is refused by name, or it changes the run's CSV."""
    out = tmp_path / "t.csv"
    value = [] if AWAY[flag] is None else [AWAY[flag]]
    code = main(["project", *PROJECT_RUNS[run], flag, *value, "--out", str(out)])
    if code == EXIT_USAGE:
        assert flag in re.split(r"[\s,]+", capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []
    else:
        assert code == EXIT_OK
        assert out.read_bytes() != base_csv(run)


def test_explicit_curve_at_the_preset_values_equals_the_preset_curve(tmp_path):
    preset = datasets.preset_scenario()
    default, explicit = tmp_path / "preset.csv", tmp_path / "explicit.csv"
    assert main(["project", "--preset", "paper-2017", "--curve", "--out", str(default)]) == EXIT_OK
    assert main(["project", "--curve", "--lambda-gw", repr(preset.lambda_gw),
                 "--c0", repr(preset.c0), "--out", str(explicit)]) == EXIT_OK
    assert explicit.read_bytes() == default.read_bytes()


def documented_commands():
    """Each ``enerscale ...`` line of cli.py's docstring and of README's command block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    for source, text in (("cli", cli.__doc__), ("readme", block)):
        for line in text.splitlines():
            if line.startswith("enerscale "):
                argv = shlex.split(line, comments=True)[1:]
                yield pytest.param(argv, id=f"{source}: {' '.join(argv)}")


@pytest.mark.parametrize("argv", documented_commands())
def test_documented_commands_exit_0(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # the examples write under out/
    bundled = json.loads(datasets.manifest_path().read_text(encoding="utf-8"))
    for entry in bundled.values():
        entry["path"] = str(datasets.data_dir() / entry["path"])
    (tmp_path / "my_manifest.json").write_text(json.dumps(bundled), encoding="utf-8")
    assert main(argv) == EXIT_OK, capsys.readouterr().err


def test_the_docs_name_every_subcommand():
    """The command blocks of cli.py's docstring and of the README show each subcommand."""
    shown = {(param.id.split(":")[0], param.values[0][0]) for param in documented_commands()}
    assert shown == {(source, name) for source in ("cli", "readme") for name in cli._COMMANDS}


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == EXIT_USAGE


#: Per subcommand: a valid command line and one with a bad flag.
PARSER_CASES = {
    "ingest": (["--out-dir", "d"], ["--out-dir"]),
    "reconstruct": (["--out-dir", "d"], ["--out-dir", "d", "--bogus"]),
    "calibrate": (["--pop-growth", "1e-3"], ["--pop-growth", "x"]),
    "tables": (["--table", "3", "--data-dir", "d"], ["--table", "9"]),
    "project": (["--preset", "paper-2017", "--out", "t.csv"], ["--points", "1.5", "--out", "t"]),
    "report": (["--out-dir", "d"], ["--out-dir", "d", "--out-dir"]),
}


def full_parser_run(argv, capsys):
    """(exit code, stdout, stderr) of parsing ``argv`` with every subcommand's parser built."""
    try:
        cli._build_parser(cli._COMMANDS).parse_args(argv)
    except SystemExit as exc:
        return exc.code, *capsys.readouterr()
    except cli.UsageError as exc:
        return EXIT_USAGE, "", f"usage error: {exc}\n"
    raise AssertionError(f"{argv} parsed")


def main_run(argv, capsys):
    """(exit code, stdout, stderr) of ``main(argv)``, which builds only what argv names."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, *capsys.readouterr()


def test_parser_cases_cover_every_subcommand():
    assert list(PARSER_CASES) == list(cli._COMMANDS)


@pytest.mark.parametrize("name", PARSER_CASES)
def test_the_invoked_subcommands_parser_behaves_as_the_full_one(capsys, name):
    """Its help, its error for a bad flag and its parsed flags are the full build's."""
    valid, bad = PARSER_CASES[name]
    for argv in ([name, "--help"], [name, *bad]):
        assert main_run(argv, capsys) == full_parser_run(argv, capsys), argv
    single = cli._build_parser([name]).parse_args([name, *valid])
    assert vars(single) == vars(cli._build_parser(cli._COMMANDS).parse_args([name, *valid]))


@pytest.mark.parametrize("argv, code, stderr", [
    ([], EXIT_USAGE, "usage error: the following arguments are required: subcommand\n"),
    (["frobnicate"], EXIT_USAGE,
     "usage error: argument subcommand: invalid choice: 'frobnicate' (choose from 'ingest', "
     "'reconstruct', 'calibrate', 'tables', 'project', 'report')\n"),
    (["--help"], 0, ""),
], ids=["no-subcommand", "unknown-subcommand", "help"])
def test_a_command_line_without_a_subcommand_sees_every_subcommand(capsys, argv, code, stderr):
    result = main_run(argv, capsys)
    assert result == full_parser_run(argv, capsys)
    assert result[0] == code and result[2] == stderr
    if argv == ["--help"]:
        assert "{ingest,reconstruct,calibrate,tables,project,report}" in result[1]


def python_env():
    """The environment of a fresh interpreter that imports this checkout's enerscale."""
    src = str(Path(enerscale.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def run_python(script, *args):
    """Run ``script`` in a fresh interpreter that imports this checkout's enerscale."""
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=python_env(),
        capture_output=True,
        text=True,
    )


def test_cli_runs_without_numpy(tmp_path):
    """The runtime path uses only the standard library; numpy is a test oracle."""
    script = (
        "import sys\n"
        "from enerscale.cli import main\n"
        "out = sys.argv[1]\n"
        "assert main(['report', '--out-dir', out + '/report']) == 0\n"
        "assert main(['tables', '--table', '3', '--out-dir', out + '/tables']) == 0\n"
        "assert main(['project', '--preset', 'paper-2017', '--out', out + '/traj.csv']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    result = run_python(script, tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "tables" / "table3.csv").exists()


# Prints the sorted modules a fresh process holds after running the argv
# given as JSON: after a bare ``import enerscale`` when it is null, and after
# ``import enerscale.cli`` alone when it is empty.
LOADED_MODULES = (
    "import json, sys\n"
    "argv = json.loads(sys.argv[1])\n"
    "if argv is None:\n"
    "    import enerscale\n"
    "else:\n"
    "    from enerscale.cli import main\n"
    "    assert not argv or main(argv) == 0\n"
    "print(json.dumps(sorted(sys.modules)))\n"
)
CLI_BASE = {"cli", "datasets", "errors", "ingestion", "records", "series", "units"}
PACKAGE = CLI_BASE | {"carbon", "growth", "projection", "reconstruction", "scaling", "tables"}
PRESET = ["project", "--preset", "paper-2017"]


#: (argv, the package modules a fresh process running it loads), per subcommand.
SUBCOMMAND_MODULES = [
    pytest.param(["ingest", "--out-dir", "{d}"], CLI_BASE, id="ingest"),
    pytest.param(["reconstruct", "--out-dir", "{d}"], CLI_BASE | {"reconstruction"},
                 id="reconstruct"),
    pytest.param(["calibrate"], CLI_BASE | {"reconstruction"}, id="calibrate"),
    *(pytest.param(["tables", "--table", str(n), "--out-dir", "{d}"],
                   PACKAGE - {"projection"}, id=f"tables-{n}")
      for n in range(1, 6)),
    pytest.param([*PRESET, "--out", "{d}/t.csv"], PACKAGE - {"growth", "scaling", "tables"},
                 id="project"),
    pytest.param([*PRESET, "--curve", "--out", "{d}/c.csv"],
                 PACKAGE - {"growth", "scaling", "tables"}, id="project-curve"),
    pytest.param([*PRESET, "--spinup", "--out", "{d}/s.csv"],
                 PACKAGE - {"growth", "scaling", "tables"}, id="project-spinup"),
    pytest.param(["report", "--out-dir", "{d}"], PACKAGE - {"growth", "tables"}, id="report"),
]


#: Standard-library modules no command needs; importing ``dataclasses``
#: (which loads ``inspect``) cost each fresh CLI process several milliseconds,
#: and ``import hashlib`` initialises OpenSSL's ``_hashlib`` (~4 ms) where the
#: interpreter's own SHA-256 (``_sha2``, or ``_sha256`` before 3.12) would do.
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
UNNEEDED = {"dataclasses", "inspect", *(["_hashlib"] if BUILTIN_SHA256 else [])}


def loaded_modules(argv):
    """(package modules, other modules new since a bare interpreter) after LOADED_MODULES."""
    result = run_python(LOADED_MODULES, json.dumps(argv))
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout.splitlines()[-1]))
    package = sorted(m for m in loaded if m.split(".")[0] == "enerscale")
    return package, loaded - set(bare_interpreter_modules()) - set(package)


@functools.lru_cache(maxsize=1)
def bare_interpreter_modules():
    """The modules a fresh interpreter holds before it imports anything (site, .pth files)."""
    result = run_python("import json, sys; print(json.dumps(sorted(sys.modules)))")
    assert result.returncode == 0, result.stderr
    return tuple(json.loads(result.stdout))


@pytest.mark.parametrize("argv, modules", SUBCOMMAND_MODULES)
def test_subcommand_loads_only_its_modules(tmp_path, argv, modules):
    package, others = loaded_modules([a.replace("{d}", str(tmp_path)) for a in argv])
    assert package == sorted(["enerscale", *(f"enerscale.{m}" for m in modules)])
    assert not UNNEEDED & others


def test_every_module_is_loaded_by_some_subcommand():
    """No package module is left that no subcommand reaches."""
    loaded = set().union(*(param.values[1] for param in SUBCOMMAND_MODULES))
    package = Path(enerscale.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__"}
    assert loaded == modules


def test_bare_import_loads_only_the_errors():
    package, others = loaded_modules(None)
    assert package == ["enerscale", "enerscale.errors"]
    assert not UNNEEDED & others


def test_importing_the_cli_loads_only_its_base():
    package, others = loaded_modules([])
    assert package == sorted(["enerscale", *(f"enerscale.{m}" for m in CLI_BASE)])
    assert not UNNEEDED & others


# ------------------------------------------------------- console entry points

def run_module(module, *argv):
    """``python -m module argv`` in a fresh interpreter; its output is kept as bytes."""
    return subprocess.run(
        [sys.executable, "-m", module, *map(str, argv)], env=python_env(), capture_output=True
    )


@pytest.mark.parametrize("argv", [
    pytest.param(["report", "--out-dir", "{d}"], id="report"),
    pytest.param(["tables", "--table", "3", "--out-dir", "{d}"], id="tables-3"),
    pytest.param(["project", "--preset", "paper-2017", "--out", "{d}/trajectory.csv"],
                 id="project"),
])
def test_console_run_writes_the_bytes_main_writes(tmp_path, capsys, argv):
    """``python -m enerscale``, which exits through ``console_main``, matches in-process ``main``.

    Stdout and every output file are byte-identical; manifests, which record
    the output directory, are compared with it masked.
    """
    console, direct = tmp_path / "console", tmp_path / "direct"
    result = run_module("enerscale", *(a.format(d=console) for a in argv))
    assert result.returncode == EXIT_OK, result.stderr
    assert main([a.format(d=direct) for a in argv]) == EXIT_OK
    assert result.stdout == capsys.readouterr().out.encode("utf-8")
    files = sorted(path.relative_to(direct) for path in direct.rglob("*") if path.is_file())
    assert files == sorted(path.relative_to(console) for path in console.rglob("*")
                           if path.is_file())
    for name in files:
        want, got = (direct / name).read_bytes(), (console / name).read_bytes()
        if name.name.endswith("manifest.json"):
            want = want.replace(str(direct).encode("utf-8"), b"<out>")
            got = got.replace(str(console).encode("utf-8"), b"<out>")
        assert got == want, name


@pytest.mark.parametrize("module", ["enerscale", "enerscale.cli"])
@pytest.mark.parametrize("argv, code, stderr", [
    pytest.param(["calibrate"], EXIT_OK, None, id="ok"),
    pytest.param(["tables", "--table", "3", "--data-dir", "{d}/missing", "--out-dir", "{d}"],
                 EXIT_RUNTIME, None, id="runtime"),
    pytest.param(["ingest", "--manifest", "{d}/manifest.json", "--out-dir", "{d}/out"],
                 EXIT_VALIDATION, None, id="validation"),
    pytest.param(["frobnicate"], EXIT_USAGE, None, id="usage"),
    # Raised by a command's run, not by argparse: under `-m enerscale.cli` the module
    # runs as `__main__`, and `main` must still catch the `UsageError` a command raises.
    pytest.param(["project", "--preset", "paper-2017", "--w0", "5", "--out", "{d}/t.csv"],
                 EXIT_USAGE, b"usage error: preset trajectory runs do not read --w0\n",
                 id="run-usage"),
])
def test_console_run_exits_with_mains_code(tmp_path, module, argv, code, stderr):
    (tmp_path / "gappy.csv").write_text("year,value\n2000,1.0\n2003,2.0\n", encoding="utf-8")
    (tmp_path / "manifest.json").write_text(json.dumps({
        "gappy": {"path": "gappy.csv", "kind": "energy", "unit": "EJ/yr", "contiguous": True}
    }), encoding="utf-8")
    result = run_module(module, *(a.format(d=tmp_path) for a in argv))
    assert result.returncode == code, result.stderr
    if stderr is not None:
        assert result.stderr == stderr


def test_console_run_freezes_the_heap_and_still_runs_atexit_handlers():
    script = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0))\n"
        "from enerscale.cli import console_main\n"
        "sys.argv[1:] = ['calibrate']\n"
        "console_main()\n"
    )
    result = run_python(script)
    assert result.returncode == EXIT_OK, result.stderr
    assert result.stdout.startswith("{\n")  # calibrate's JSON was flushed
    assert result.stdout.endswith("frozen at exit: True\n")


def test_in_process_main_leaves_the_collector_as_it_was(tmp_path):
    assert main(["tables", "--table", "3", "--out-dir", str(tmp_path)]) == EXIT_OK
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()
