"""Acceptance suite: the package's verification contract, one test per criterion.

Each criterion prints a PASS/FAIL line (run with ``pytest -s`` to see them all)
and then asserts at its stated tolerance. Everything runs offline from the
bundled snapshot in seconds.

Known failure: criterion 08 pins three committed-concentration milestones that
are mutually inconsistent for an exponential committed path (arithmetic in the
test docstring); the first clause fails with the bundled data while the other
two hold. The assertion is kept at its stated bound rather than loosened.
"""

import math

import numpy as np
import pytest

from enerscale import datasets
from enerscale.carbon import CarbonCycleParams
from enerscale.cli import main
from enerscale.growth import (
    carbonization,
    energy_productivity,
    growth_rate,
    kaya_decomposition,
    rates_table,
)
from enerscale.projection import (
    AtmosphereState,
    committed_equilibrium,
    halving_time,
    max_carbonization,
    max_carbonization_coefficient,
    required_clean_capacity,
    run_scenario,
    step_atmosphere,
)
from enerscale.reconstruction import WealthSeries
from enerscale.scaling import scaling_series, scaling_stats, w1_sensitivity
from enerscale.series import AnnualSeries, Period, SeriesKind
from enerscale.units import Quantity, Unit

PARAMS = CarbonCycleParams()


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


# --------------------------------------------------------------------------- 1

def test_criterion_01_scaling_reproduction(snapshot, recon):
    """Scaling mean over 1980-2017 in [5.7, 6.1] GW/T$, std <= 0.25, and the
    four decade means within +-0.2 of {6.04, 5.83, 5.83, 5.79}."""
    lam = scaling_series(snapshot.energy, recon.wealth)
    stats = scaling_stats(lam, Period(1980, 2017))
    decade_targets = {
        Period(1980, 1990): 6.04,
        Period(1990, 2000): 5.83,
        Period(2000, 2010): 5.83,
        Period(2010, 2017): 5.79,
    }
    decades = {p: scaling_stats(lam, p).mean.value for p in decade_targets}
    ok = (
        5.7 <= stats.mean.value <= 6.1
        and stats.std.value <= 0.25
        and all(abs(decades[p] - t) <= 0.2 for p, t in decade_targets.items())
    )
    report(
        "01", ok,
        f"mean={stats.mean.value:.3f} std={stats.std.value:.3f} decades="
        + " ".join(f"{p}:{decades[p]:.3f}" for p in decade_targets),
    )
    assert 5.7 <= stats.mean.value <= 6.1
    assert stats.std.value <= 0.25
    for p, target in decade_targets.items():
        assert decades[p] == pytest.approx(target, abs=0.2), str(p)


# --------------------------------------------------------------------------- 2

def test_criterion_02_initial_stock_sensitivity(snapshot, recon):
    """Doubling W(1) lands the mean in [5.0, 5.4]; halving in [6.0, 6.4]."""
    doubled = w1_sensitivity(recon.gdp, snapshot.energy, recon.w1, 2.0).mean.value
    halved = w1_sensitivity(recon.gdp, snapshot.energy, recon.w1, 0.5).mean.value
    ok = 5.0 <= doubled <= 5.4 and 6.0 <= halved <= 6.4
    report("02", ok, f"doubled={doubled:.3f} halved={halved:.3f}")
    assert 5.0 <= doubled <= 5.4
    assert 6.0 <= halved <= 6.4


# --------------------------------------------------------------------------- 3

def test_criterion_03_historical_shares(recon):
    """First-millennium accumulation 3-6% of W(2017); W(1) 6-9%; the
    1980-2017 window 55-65%."""
    w2017 = recon.wealth.series.value_at(2017)
    by_year = dict(zip(recon.gdp.years, recon.gdp.values))
    first_millennium = 100.0 * sum(v for y, v in by_year.items() if y <= 1000) / w2017
    initial = 100.0 * recon.w1.value / w2017
    modern = 100.0 * sum(v for y, v in by_year.items() if y >= 1980) / w2017
    ok = 3.0 <= first_millennium <= 6.0 and 6.0 <= initial <= 9.0 and 55.0 <= modern <= 65.0
    report(
        "03", ok,
        f"1-1000CE={first_millennium:.2f}% W(1)={initial:.2f}% 1980-2017={modern:.2f}%",
    )
    assert 3.0 <= first_millennium <= 6.0
    assert 6.0 <= initial <= 9.0
    assert 55.0 <= modern <= 65.0


# --------------------------------------------------------------------------- 4

GROWTH_TABLE = {
    Period(1980, 2010): dict(eta_w=2.06, eta_e=1.98, lambda_eps=2.09, eta_i=0.82,
                             eta_eps=0.91, eta_y=2.88, predicted=3.0),
    Period(2010, 2017): dict(eta_w=2.33, eta_e=1.60, lambda_eps=2.40, eta_i=0.45,
                             eta_eps=1.18, eta_y=2.78, predicted=3.58),
    Period(1980, 2017): dict(eta_w=2.14, eta_e=1.84, lambda_eps=2.15, eta_i=0.73,
                             eta_eps=1.0, eta_y=2.84, predicted=3.15),
}


def test_criterion_04_growth_table(snapshot, recon):
    """Measured growth columns within +-0.15 %/yr and derived columns within
    +-0.2 %/yr of the reference values."""
    rows = rates_table(recon.gdp, snapshot.energy, recon.wealth, list(GROWTH_TABLE))
    worst = 0.0
    ok = True
    for row in rows:
        ref = GROWTH_TABLE[row.period]
        measured = {
            "eta_w": row.eta_w, "eta_e": row.eta_e, "eta_i": row.eta_i, "eta_y": row.eta_y,
        }
        derived = {
            "lambda_eps": row.lambda_eps, "eta_eps": row.eta_eps,
            "predicted": row.predicted_eta_y,
        }
        for name, value in measured.items():
            worst = max(worst, abs(value * 100 - ref[name]))
            ok &= abs(value * 100 - ref[name]) <= 0.15
        for name, value in derived.items():
            worst = max(worst, abs(value * 100 - ref[name]))
            ok &= abs(value * 100 - ref[name]) <= 0.2
    report("04", ok, f"worst column deviation {worst:.3f} %/yr")
    for row in rows:
        ref = GROWTH_TABLE[row.period]
        assert row.eta_w * 100 == pytest.approx(ref["eta_w"], abs=0.15), str(row.period)
        assert row.eta_e * 100 == pytest.approx(ref["eta_e"], abs=0.15), str(row.period)
        assert row.eta_i * 100 == pytest.approx(ref["eta_i"], abs=0.15), str(row.period)
        assert row.eta_y * 100 == pytest.approx(ref["eta_y"], abs=0.15), str(row.period)
        assert row.lambda_eps * 100 == pytest.approx(ref["lambda_eps"], abs=0.2), str(row.period)
        assert row.eta_eps * 100 == pytest.approx(ref["eta_eps"], abs=0.2), str(row.period)
        assert row.predicted_eta_y * 100 == pytest.approx(ref["predicted"], abs=0.2), str(row.period)


# --------------------------------------------------------------------------- 5

EMISSIONS_TABLE = {
    Period(1980, 2010): dict(eta_c=-0.21, eta_C=1.77, eta_P=1.45, eta_g=1.43),
    Period(2010, 2017): dict(eta_c=-0.36, eta_C=1.25, eta_P=1.10, eta_g=1.68),
    Period(1980, 2017): dict(eta_c=-0.25, eta_C=1.59, eta_P=1.38, eta_g=1.46),
}


def test_criterion_05_emissions_tables(snapshot, recon):
    """Emissions/wealth scaling mean within 1.49 +- 0.12 and the four growth
    columns within +-0.15 %/yr of the reference values."""
    full = Period(1980, 2017)
    est = carbonization(snapshot.emissions, snapshot.energy, full, wealth=recon.wealth)
    ok = abs(est.lambda_c - 1.49) <= 0.12
    worst = 0.0
    for p, ref in EMISSIONS_TABLE.items():
        c_est = carbonization(snapshot.emissions, snapshot.energy, p, wealth=recon.wealth)
        kaya = kaya_decomposition(
            snapshot.population, recon.gdp, snapshot.energy, snapshot.emissions, p
        )
        got = {
            "eta_c": c_est.eta_c * 100,
            "eta_C": kaya.eta_emissions * 100,
            "eta_P": kaya.eta_pop * 100,
            "eta_g": kaya.eta_affluence * 100,
        }
        for name, value in got.items():
            worst = max(worst, abs(value - ref[name]))
            ok &= abs(value - ref[name]) <= 0.15
    report("05", ok, f"lambda_c={est.lambda_c:.3f} worst rate deviation {worst:.3f} %/yr")
    assert est.lambda_c == pytest.approx(1.49, abs=0.12)
    for p, ref in EMISSIONS_TABLE.items():
        c_est = carbonization(snapshot.emissions, snapshot.energy, p, wealth=recon.wealth)
        kaya = kaya_decomposition(
            snapshot.population, recon.gdp, snapshot.energy, snapshot.emissions, p
        )
        assert c_est.eta_c * 100 == pytest.approx(ref["eta_c"], abs=0.15), str(p)
        assert kaya.eta_emissions * 100 == pytest.approx(ref["eta_C"], abs=0.15), str(p)
        assert kaya.eta_pop * 100 == pytest.approx(ref["eta_P"], abs=0.15), str(p)
        assert kaya.eta_affluence * 100 == pytest.approx(ref["eta_g"], abs=0.15), str(p)


# --------------------------------------------------------------------------- 6

COEFFICIENT_TABLE = [
    (Period(1980, 1990), 15.0, 1.0),
    (Period(1990, 2000), 16.3, 1.0),
    (Period(2000, 2010), 14.9, 1.0),
    (Period(1980, 2010), 15.4, 0.8),
]


def test_criterion_06_commitment_coefficients(snapshot, recon):
    """Per-period sigma/(kappa c lambda) within the stated bands."""
    ok = True
    values = {}
    for p, target, tol in COEFFICIENT_TABLE:
        est = carbonization(snapshot.emissions, snapshot.energy, p, wealth=recon.wealth)
        coefficient = 1000.0 * PARAMS.sigma / est.lambda_c
        values[p] = coefficient
        ok &= abs(coefficient - target) <= tol
    report("06", ok, " ".join(f"{p}:{values[p]:.2f}" for p, _, _ in COEFFICIENT_TABLE))
    for p, target, tol in COEFFICIENT_TABLE:
        assert values[p] == pytest.approx(target, abs=tol), str(p)


# --------------------------------------------------------------------------- 7

def test_criterion_07_integrator_order():
    """Fourth-order behaviour against the constant-source closed form."""
    def final_and_worst(dt):
        state = AtmosphereState(0.0, 0.0)
        eq = PARAMS.kappa_a * 10.0 / PARAMS.sigma
        worst = 0.0
        for _ in range(round(100.0 / dt)):
            state = step_atmosphere(state, 10.0, PARAMS, dt)
            exact = eq * (1.0 - math.exp(-PARAMS.sigma * state.year))
            worst = max(worst, abs(state.delta_co2 - exact))
        return state.delta_co2, worst

    d1, worst1 = final_and_worst(1.0)
    d05, _ = final_and_worst(0.5)
    d025, _ = final_and_worst(0.25)
    ratio = (d1 - d05) / (d05 - d025)
    ok = worst1 < 1e-6 and 14.0 <= ratio <= 18.0
    report("07", ok, f"max error {worst1:.2e} ppmv, Richardson ratio {ratio:.2f}")
    assert worst1 < 1e-6
    assert 14.0 <= ratio <= 18.0


# --------------------------------------------------------------------------- 8

def test_criterion_08_commitment_milestones():
    """Committed concentration > 500 ppmv at the 2017 start, crossing 550 ppmv
    between 2028 and 2032, and within [620, 680] ppmv at 2040.

    These three bounds cannot hold together for any committed path of the form
    P + A*exp(eta*(t-2017)) with eta = 2.4%/yr and P = 275: the start bound
    needs A > 225, while a 550 crossing no earlier than 2028 needs
    A <= 275/exp(0.024*11) = 211.2. The start bound therefore fails (the
    bundled data put the 2017 committed level near 477 ppmv); the crossing and
    2040 milestones hold.
    """
    scenario = datasets.preset_scenario(eta_c=0.0, eta_w=0.024, horizon_years=40.0)
    trajectory = run_scenario(scenario)
    start = trajectory.points[0].committed_concentration
    crossing = trajectory.first_crossing(550.0)
    at_2040 = trajectory.at_year(2040.0).committed_concentration
    clause_start = start > 500.0
    clause_crossing = crossing is not None and 2028.0 <= crossing <= 2032.0
    clause_2040 = 620.0 <= at_2040 <= 680.0
    ok = clause_start and clause_crossing and clause_2040
    report(
        "08", ok,
        f"start={start:.1f} (>500: {clause_start}) crossing={crossing} "
        f"(2028-2032: {clause_crossing}) 2040={at_2040:.1f} (620-680: {clause_2040})",
    )
    assert clause_crossing, f"550 ppmv crossing at {crossing}"
    assert clause_2040, f"committed 2040 at {at_2040:.1f}"
    assert clause_start, (
        f"committed concentration at 2017 is {start:.1f} ppmv, not > 500; "
        "unsatisfiable jointly with the 2028-2032 crossing bound (see docstring)"
    )


# --------------------------------------------------------------------------- 9

def test_criterion_09_policy_quantities():
    """Capacity, halving time and the stabilization coefficient."""
    capacity = required_clean_capacity(Quantity(20000.0, Unit.GW), 0.024)
    halving = halving_time(CarbonCycleParams())
    coefficient = max_carbonization_coefficient(Quantity(5.9, Unit.GW_PER_TUSD))
    ok = (
        capacity.gw_per_year == pytest.approx(480.0, rel=1e-12)
        and abs(halving - 30.14) <= 0.01
        and abs(coefficient - 0.263) <= 0.003
    )
    report(
        "09", ok,
        f"capacity={capacity.gw_per_year:.1f} GW/yr halving={halving:.3f} yr "
        f"coefficient={coefficient:.4f}",
    )
    assert capacity.gw_per_year == pytest.approx(480.0, rel=1e-12)
    assert halving == pytest.approx(30.14, abs=0.01)
    assert coefficient == pytest.approx(0.263, abs=0.003)


# -------------------------------------------------------------------------- 10

def test_criterion_10_identity_suite():
    """Exact identities: growth decomposition and the Kaya residual vanish to
    1e-12 on arbitrary positive series; the equilibrium pair is an inverse
    pair; exact-scaling data is recovered with zero spread."""
    rng = np.random.default_rng(887123)
    worst_identity = 0.0
    worst_kaya = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 15))
        years = tuple(range(2000, 2000 + n))
        draw = lambda: tuple(float(v) for v in rng.uniform(1e-3, 1e3, n))
        gdp = AnnualSeries(SeriesKind.GDP_MER, Unit.TUSD_PER_YR, years, draw())
        energy = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, years, draw())
        emissions = AnnualSeries(SeriesKind.EMISSIONS, Unit.GTC_PER_YR, years, draw())
        pop = AnnualSeries(SeriesKind.POPULATION, Unit.PERSONS, years, draw())
        p = Period(years[0], years[-1])
        eta_y = growth_rate(gdp, p)
        eta_e = growth_rate(energy, p)
        eta_eps = growth_rate(energy_productivity(gdp, energy), p)
        worst_identity = max(worst_identity, abs(eta_y - (eta_e + eta_eps)))
        kaya = kaya_decomposition(pop, gdp, energy, emissions, p)
        worst_kaya = max(worst_kaya, abs(kaya.residual))

    worst_inverse = 0.0
    for _ in range(25):
        w = Quantity(float(rng.uniform(1.0, 1e4)), Unit.TUSD)
        scale = Quantity(float(rng.uniform(0.1, 50.0)), Unit.GW_PER_TUSD)
        c = Quantity(float(rng.uniform(1e-4, 0.5)), Unit.GTC_PER_EJ)
        delta = committed_equilibrium(w, scale, c, PARAMS)
        back = max_carbonization(delta, w, scale, PARAMS)
        worst_inverse = max(worst_inverse, abs(back.value - c.value) / c.value)

    lambda0 = 4.321
    years = tuple(range(1990, 2018))
    wealth_values = tuple(120.0 * 1.021**i for i in range(len(years)))
    wealth = WealthSeries(
        AnnualSeries(SeriesKind.WEALTH, Unit.TUSD, years, wealth_values),
        Quantity(wealth_values[0] / 2, Unit.TUSD),
        "synthetic",
    )
    energy = AnnualSeries(
        SeriesKind.ENERGY, Unit.GW, years, tuple(lambda0 * w for w in wealth_values)
    )
    stats = scaling_stats(scaling_series(energy, wealth), Period(1990, 2017))
    recovered_exactly = (
        abs(stats.mean.value - lambda0) <= 1e-12 * lambda0
        and stats.std.value <= 1e-12 * lambda0
    )
    ok = (
        worst_identity <= 1e-12
        and worst_kaya <= 1e-12
        and worst_inverse <= 1e-12
        and recovered_exactly
    )
    report(
        "10", ok,
        f"identity<= {worst_identity:.1e} kaya<= {worst_kaya:.1e} "
        f"inverse<= {worst_inverse:.1e} recovered={recovered_exactly}",
    )
    assert worst_identity <= 1e-12
    assert worst_kaya <= 1e-12
    assert worst_inverse <= 1e-12
    assert recovered_exactly


# -------------------------------------------------------------------------- 11

def test_criterion_11_reproducibility(tmp_path):
    """Identical command lines produce byte-identical outputs."""
    outputs = []
    for label in ("first", "second"):
        base = tmp_path / label
        assert main(["project", "--preset", "paper-2017", "--eta-c", "0",
                     "--horizon", "30", "--out", str(base / "traj.csv")]) == 0
        assert main(["tables", "--table", "3", "--out-dir", str(base)]) == 0
        assert main(["ingest", "--out-dir", str(base / "canon")]) == 0
        outputs.append(base)
    identical = True
    for rel in ("traj.csv", "table3.csv", "canon/gdp_mer.csv", "canon/emissions.csv"):
        identical &= (outputs[0] / rel).read_bytes() == (outputs[1] / rel).read_bytes()
    report("11", identical, "byte-identical repeated runs")
    assert identical
