"""An independent oracle for table 1, ``report`` and ``calibrate``.

The bundled CSVs are read with ``csv`` and the reconstruction and scaling
are recomputed with numpy and scipy: the PPP/MER mean over 1970-1992,
scipy's natural ``CubicSpline`` through ln(Y), ``np.cumsum`` from
W(1) = Y(1)/5.9e-4, the scaling E/0.031536/W, the ``ddof=1`` standard
deviation and ``np.polyfit`` on ln(lambda) for the trend. The preset's
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
    return {
        "kappa_x": kappa_x,
        "w1": w1,
        "stats": stats,
        "w2017": w2017,
        "share_first_millennium": production[years <= 1000].sum() / w2017,
        "share_1980_2017": production[years >= 1980].sum() / w2017,
        "energy_2017": energy[PRESET_YEAR],
        "emissions_2017": read_column("emissions.csv", "emissions")[PRESET_YEAR],
    }


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
    assert cli.main(["tables", "--table", "1", "--out-dir", str(out / "tables")]) == 0
    assert cli.main(["report", "--out-dir", str(out / "report")]) == 0
    assert cli.main(["calibrate", "--out", str(out / "calibrate.json")]) == 0
    with open(out / "tables" / "table1.csv", newline="", encoding="utf-8") as f:
        table1 = list(csv.DictReader(f))
    report = json.loads((out / "report" / "report.json").read_text(encoding="utf-8"))
    calibrate = json.loads((out / "calibrate.json").read_text(encoding="utf-8"))
    return {"table1": table1, "report": report, "calibrate": calibrate}


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
