"""An independent oracle for tables 1-5, ``report`` and ``calibrate``.

The bundled CSVs are read with ``csv`` and the reconstruction and scaling
are recomputed with numpy and scipy: the PPP/MER mean over 1970-1992,
scipy's natural ``CubicSpline`` through ln(Y), ``np.cumsum`` from
W(1) = Y(1)/5.9e-4, the scaling E/0.031536/W, the ``ddof=1`` standard
deviation and ``np.polyfit`` on ln(lambda) for the trend. Every growth rate
of tables 2-4 is the endpoint log rate ln(x(t1)/x(t0))/(t1 - t0) of a
series or of a per-year ratio of two; the rate Y/W comes from the first
differences of W, and the emissions scaling of tables 3 and 5 is
1000*kappa*C/W per quadrillion 2010 USD. The preset's
committed level needs no integration: it is kappa*C/sigma above the
pre-industrial baseline, and its emissions C grow at 2.4 %/yr from the
observed 2017 value. The package is reached only through
``enerscale.cli.main``, so the oracle shares no code with what it checks.
"""

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import enerscale.cli as cli

DATA = Path(cli.__file__).parent / "data"
README = Path(__file__).resolve().parents[1] / "README.md"
REL = 1e-12

RATIO_WINDOW = (1970, 1992)
POP_GROWTH = 5.9e-4
EJ_PER_YR_PER_GW = 0.031536
PREINDUSTRIAL, KAPPA_A, SIGMA = 275.0, 0.47, 0.023
PRESET_YEAR, PRESET_GROWTH, PRESET_DT = 2017, 0.024, 0.25
DAYS_PER_YEAR = 365.25
PERIODS = (
    (1980, 1990), (1990, 2000), (2000, 2010), (2010, 2017), (1980, 2010), (1980, 2017),
)
RATE_PERIODS = ((1980, 2010), (2010, 2017), (1980, 2017))
COEFFICIENT_PERIODS = ((1980, 1990), (1990, 2000), (2000, 2010), (1980, 2010))


def read_column(name, column):
    with open(DATA / name, newline="", encoding="utf-8") as f:
        return {int(row["year"]): float(row[column]) for row in csv.DictReader(f)}


def period_stats(years, scaling, start, end):
    """mean, std, 95% CI halfwidth and trend (%/yr) of the scaling over a closed period."""
    inside = (years >= start) & (years <= end)
    x, lam = years[inside], scaling[inside]
    std = np.std(lam, ddof=1)
    trend = np.polyfit(x, np.log(lam), 1)[0]
    return np.mean(lam), std, 1.96 * std / np.sqrt(len(lam)), 100.0 * trend


@pytest.fixture(scope="module")
def oracle():
    ppp = read_column("gdp_ppp_historical.csv", "gdp")
    mer = read_column("gdp_mer.csv", "gdp")
    energy = read_column("energy_consumption.csv", "energy")

    lo, hi = RATIO_WINDOW
    overlap = [y for y in ppp if lo <= y <= hi and y in mer]
    kappa_x = np.mean([ppp[y] / mer[y] for y in overlap])

    knots = np.array(sorted(ppp))
    log_y = np.log([ppp[y] / kappa_x for y in knots])
    spline = CubicSpline(knots, log_y, bc_type="natural")
    first_mer = min(mer)
    early = np.arange(knots[0], first_mer)
    years = np.concatenate([early, np.array(sorted(mer))])
    production = np.concatenate([np.exp(spline(early)), [mer[y] for y in sorted(mer)]])
    assert np.all(np.diff(years) == 1) and years[0] == 1

    w1 = production[0] / POP_GROWTH
    wealth = dict(zip(years.tolist(), w1 + np.cumsum(production)))

    e_years = np.array(sorted(energy))
    scaling = np.array([energy[y] / EJ_PER_YR_PER_GW / wealth[y] for y in e_years])
    stats = {p: period_stats(e_years, scaling, *p) for p in PERIODS}
    w2017 = wealth[PRESET_YEAR]
    emissions = read_column("emissions.csv", "emissions")
    return {
        "kappa_x": kappa_x,
        "w1": w1,
        "stats": stats,
        "w2017": w2017,
        "share_first_millennium": production[years <= 1000].sum() / w2017,
        "share_1980_2017": production[years >= 1980].sum() / w2017,
        "energy_2017": energy[PRESET_YEAR],
        "emissions_2017": emissions[PRESET_YEAR],
        "lambda_mean": np.mean(scaling),
        "production": dict(zip(years.tolist(), production)),
        "wealth": wealth,
        "energy": energy,
        "emissions": emissions,
        "population": read_column("population.csv", "population"),
    }


def rate(series, start, end):
    """Endpoint log growth rate of a {year: value} series over [start, end], 1/yr."""
    return math.log(series[end] / series[start]) / (end - start)


def ratio(numerator, denominator):
    """The per-year ratio of two {year: value} series over their common years."""
    return {y: numerator[y] / denominator[y] for y in numerator if y in denominator}


def emissions_scaling(oracle, start, end):
    """Mean and ``ddof=1`` std of 1000*kappa*C/W over [start, end], ppmv/yr per quadrillion."""
    c, w = oracle["emissions"], oracle["wealth"]
    values = [1000.0 * KAPPA_A * c[y] / w[y] for y in range(start, end + 1)]
    return np.mean(values), np.std(values, ddof=1)


def tables_2_to_5(oracle):
    """Every numeric cell of tables 2-5, row by row, in the printed units (%/yr for rates)."""
    y, e, w = oracle["production"], oracle["energy"], oracle["wealth"]
    c, pop = oracle["emissions"], oracle["population"]
    eps, carbonization = ratio(y, e), ratio(c, e)
    w_years = sorted(w)
    first_difference = {b: (w[b] - w[a]) / w[b] for a, b in zip(w_years, w_years[1:])}
    lambda_ej = oracle["lambda_mean"] * EJ_PER_YR_PER_GW
    tables = {2: [], 3: [], 4: [], 5: []}
    for p in RATE_PERIODS:
        lambda_eps = lambda_ej * np.mean([eps[t] for t in range(p[0], p[1] + 1)])
        eta_eps, eta_c, eta_pop = rate(eps, *p), rate(carbonization, *p), rate(pop, *p)
        eta_g = rate(ratio(y, pop), *p)
        tables[2].append([100.0 * v for v in (
            rate(w, *p), rate(e, *p), lambda_eps, rate(first_difference, *p), eta_eps,
            rate(y, *p), lambda_eps + eta_eps)])
        lambda_c, lambda_c_std = emissions_scaling(oracle, *p)
        tables[3].append([lambda_c, lambda_c_std, *(100.0 * v for v in (
            eta_c, rate(c, *p), eta_c + lambda_eps))])
        tables[4].append([100.0 * v for v in (
            eta_pop, eta_g, eta_pop + eta_g, lambda_eps + eta_eps)])
    for p in COEFFICIENT_PERIODS:
        tables[5].append([1000.0 * SIGMA / emissions_scaling(oracle, *p)[0]])
    return tables


def committed_concentration(oracle, year):
    """kappa*C/sigma above the baseline, with C growing from its observed 2017 value."""
    emissions = oracle["emissions_2017"] * math.exp(PRESET_GROWTH * (year - PRESET_YEAR))
    return PREINDUSTRIAL + KAPPA_A * emissions / SIGMA


def doubling_year(oracle):
    """The first point of the 0.25-year grid whose committed level reaches 550 ppmv."""
    span = math.log(SIGMA * PREINDUSTRIAL / (KAPPA_A * oracle["emissions_2017"])) / PRESET_GROWTH
    return PRESET_YEAR + PRESET_DT * math.ceil(span / PRESET_DT)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("oracle")
    tables = {}
    for n in range(1, 6):
        assert cli.main(["tables", "--table", str(n), "--out-dir", str(out / "tables")]) == 0
        with open(out / "tables" / f"table{n}.csv", newline="", encoding="utf-8") as f:
            tables[n] = list(csv.reader(f))
    assert cli.main(["report", "--out-dir", str(out / "report")]) == 0
    assert cli.main(["calibrate", "--out", str(out / "calibrate.json")]) == 0
    table1 = [dict(zip(tables[1][0], row)) for row in tables[1][1:]]
    report = json.loads((out / "report" / "report.json").read_text(encoding="utf-8"))
    calibrate = json.loads((out / "calibrate.json").read_text(encoding="utf-8"))
    return {"table1": table1, "tables": tables, "report": report, "calibrate": calibrate}


def test_table1_matches_oracle(oracle, outputs):
    rows = outputs["table1"]
    assert [row["period"] for row in rows] == [f"{a}-{b}" for a, b in PERIODS]
    columns = ("mean", "std", "ci95_halfwidth", "trend_pct_per_yr")
    cells = 0
    for row, p in zip(rows, PERIODS):
        for column, want in zip(columns, oracle["stats"][p]):
            assert float(row[column]) == pytest.approx(want, rel=REL, abs=0), (p, column)
            cells += 1
    assert cells == 24


@pytest.mark.parametrize("table_id, periods, cells", [
    (2, RATE_PERIODS, 21), (3, RATE_PERIODS, 15), (4, RATE_PERIODS, 12),
    (5, COEFFICIENT_PERIODS, 4),
], ids=["table2", "table3", "table4", "table5"])
def test_tables_2_to_5_match_oracle(oracle, outputs, table_id, periods, cells):
    header, *rows = outputs["tables"][table_id]
    want = tables_2_to_5(oracle)[table_id]
    assert [row[0] for row in rows] == [f"{a}-{b}" for a, b in periods]
    assert sum(len(row) - 1 for row in rows) == sum(map(len, want)) == cells
    for row, want_row in zip(rows, want, strict=True):
        for column, cell, value in zip(header[1:], row[1:], want_row, strict=True):
            assert float(cell) == pytest.approx(value, rel=REL, abs=0), (row[0], column)


def test_report_scaling_and_w1_match_oracle(oracle, outputs):
    report = outputs["report"]
    mean, std, ci95, trend_pct = oracle["stats"][(1980, 2017)]
    want = {
        "scaling_mean_gw_per_tusd": mean,
        "scaling_std": std,
        "scaling_ci95_halfwidth": ci95,
        "scaling_trend_per_yr": trend_pct / 100.0,
        "w1_tusd": oracle["w1"],
    }
    assert sorted(k for k in report if k.startswith("scaling_")) == sorted(
        k for k in want if k.startswith("scaling_"))
    for key, value in want.items():
        assert report[key] == pytest.approx(value, rel=REL, abs=0), key


def test_report_committed_levels_capacity_and_shares_match_oracle(oracle, outputs):
    """Every other ``report.json`` leaf: with the test above, all of them are checked."""
    report = outputs["report"]
    per_year = oracle["energy_2017"] / EJ_PER_YR_PER_GW * PRESET_GROWTH
    want = {
        "committed_concentration_2017_ppmv": committed_concentration(oracle, 2017),
        "committed_concentration_2040_ppmv": committed_concentration(oracle, 2040),
        "committed_doubling_year": doubling_year(oracle),
        "halving_time_yr": math.log(2.0) / SIGMA,
        "clean_capacity_gw_per_yr": per_year,
        "clean_capacity_gw_per_day": per_year / DAYS_PER_YEAR,
        "wealth_2017_tusd": oracle["w2017"],
        "share_first_millennium": oracle["share_first_millennium"],
        "share_1980_2017": oracle["share_1980_2017"],
    }
    scaling_and_w1 = {"scaling_mean_gw_per_tusd", "scaling_std", "scaling_ci95_halfwidth",
                      "scaling_trend_per_yr", "w1_tusd"}
    assert set(report) == set(want) | scaling_and_w1
    for key, value in want.items():
        assert report[key] == pytest.approx(value, rel=REL, abs=0), key


def test_calibrate_matches_oracle(oracle, outputs):
    calibrate = outputs["calibrate"]
    assert calibrate["kappa_x"] == pytest.approx(oracle["kappa_x"], rel=REL, abs=0)
    assert calibrate["w1_closed_form_tusd"] == pytest.approx(oracle["w1"], rel=REL, abs=0)


def _printed(pattern, text):
    """The numbers ``pattern`` captures in the README, each as (value, half its last digit)."""
    match = re.search(pattern, text)
    assert match, pattern
    found = []
    for s in match.groups():
        decimals = len(s.partition(".")[2])
        found.append((float(s), 0.5 * 10.0**-decimals))
    return found


def test_readme_headline_numbers_match_oracle(oracle):
    """The README's ratio, W(1), and 1980-2017 mean, std and trend, at their printed precision."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    mean, std, _, trend_pct = oracle["stats"][(1980, 2017)]
    checks = [
        (r"1970-1992 overlap \(~([\d.]+)\)", [oracle["kappa_x"]]),
        (r"W\(1\) = Y\(1\)/0\.00059 = ([\d.]+)` trillion", [oracle["w1"]]),
        (
            r"mean is ~([\d.]+) GW/T\$ with a standard deviation of ~([\d.]+)"
            r" and a secular trend of about (-?[\d.]+) %/yr",
            [mean, std, trend_pct],
        ),
    ]
    for pattern, values in checks:
        for (printed, half_digit), value in zip(_printed(pattern, text), values):
            assert abs(value - printed) <= half_digit, (pattern, printed, value)


def test_readme_committed_milestones_match_oracle(oracle):
    """The README's 2017 committed level, 550 ppmv crossing and 2040 level, as printed."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    pattern = (r"2017 committed level is ~([\d.]+) ppmv, so the crossing \(~([\d.]+)\)"
               r" and 2040 \(~([\d.]+) ppmv\)")
    values = [committed_concentration(oracle, 2017), doubling_year(oracle),
              committed_concentration(oracle, 2040)]
    for (printed, half_digit), value in zip(_printed(pattern, text), values, strict=True):
        assert abs(value - printed) <= half_digit, (printed, value)
