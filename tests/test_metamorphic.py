"""Metamorphic relations over the real pipeline: transform the bundled inputs in a way
whose effect on every output is known, and check that effect.

Unlike an oracle, a relation shares no formula with the code, so it catches a level mixed
into a rate or a unit factor applied twice. Each relation states the power of k that each
output column goes as, and its tolerance in the test id; a column that breaks its power is
a finding, not a reason to loosen the bound.
"""

import pytest

from enerscale import tables
from enerscale.reconstruction import build_wealth
from enerscale.scaling import w1_sensitivity

#: Relative tolerance of every relation. The worst departure measured on the bundled
#: snapshot is 1.5e-13 (table 2's eta_i at k = 1.37).
TOL = 1e-12

#: The factors both GDP series are multiplied by.
FACTORS = (1.37, 1000.0)

#: Each table's power of k per numeric column, after the period column: table 1's mean,
#: std and CI and table 3's lambda_c and its std go as 1/k, table 5's coefficient as k,
#: and every rate and trend does not move.
TABLE_POWERS = {
    1: (-1, -1, -1, 0),
    2: (0, 0, 0, 0, 0, 0, 0),
    3: (-1, -1, 0, 0, 0),
    4: (0, 0, 0, 0),
    5: (1,),
}


def departure(got: float, base: float, k: float, power: int) -> float:
    """Relative distance of ``got`` from ``base * k**power``."""
    want = base * k**power
    return abs(got - want) / abs(want)


def scaled(series, k):
    return series.with_data(series.years, [v * k for v in series.values])


@pytest.fixture(scope="module", params=FACTORS, ids=lambda k: f"k={k!r}")
def gdp_times_k(request, snapshot):
    """``(k, snapshot, reconstruction)`` with both GDP series multiplied by k."""
    k = request.param
    snap = snapshot._replace(gdp_mer=scaled(snapshot.gdp_mer, k),
                             gdp_ppp=scaled(snapshot.gdp_ppp, k))
    return k, snap, build_wealth(snap.gdp_ppp, snap.gdp_mer)


def test_gdp_times_k_leaves_kappa_x_bit_for_bit(gdp_times_k, recon):
    _, _, rk = gdp_times_k
    assert rk.ratio.value.hex() == recon.ratio.value.hex()
    assert rk.ratio.window == recon.ratio.window


@pytest.mark.parametrize("tol", [TOL], ids=lambda tol: f"tol={tol!r}")
def test_gdp_times_k_multiplies_w_by_k(gdp_times_k, recon, tol):
    k, _, rk = gdp_times_k
    assert rk.wealth.series.years == recon.wealth.series.years
    assert departure(rk.w1.value, recon.w1.value, k, 1) <= tol
    pairs = zip(rk.wealth.series.values, recon.wealth.series.values)
    assert max(departure(got, want, k, 1) for got, want in pairs) <= tol


@pytest.mark.parametrize("tol", [TOL], ids=lambda tol: f"tol={tol!r}")
@pytest.mark.parametrize("table", TABLE_POWERS, ids=lambda t: f"table{t}")
def test_gdp_times_k_moves_each_table_column_by_its_power(gdp_times_k, snapshot, recon,
                                                          table, tol):
    k, snap, rk = gdp_times_k
    base = tables.build_table(table, snapshot, recon)
    moved = tables.build_table(table, snap, rk)
    assert moved.header == base.header
    assert [row[0] for row in moved.rows] == [row[0] for row in base.rows]
    departures = {
        (row[0], column): departure(got, want, k, power)
        for row, base_row in zip(moved.rows, base.rows)
        for column, power, got, want in zip(base.header[1:], TABLE_POWERS[table], row[1:],
                                            base_row[1:])
    }
    assert len(departures) == len(base.rows) * len(TABLE_POWERS[table])
    assert {cell: d for cell, d in departures.items() if d > tol} == {}


@pytest.mark.parametrize("tol", [TOL], ids=lambda tol: f"tol={tol!r}")
@pytest.mark.parametrize("factor", [0.5, 2.0], ids=lambda f: f"w1x{f!r}")
def test_gdp_times_k_moves_the_w1_sensitivity_by_its_power(gdp_times_k, snapshot, recon,
                                                           factor, tol):
    """The statistics of lambda = E/W go as 1/k, and its trend does not move."""
    k, snap, rk = gdp_times_k
    base = w1_sensitivity(recon.gdp, snapshot.energy, recon.w1, factor)
    moved = w1_sensitivity(rk.gdp, snap.energy, rk.w1, factor)
    for name in ("mean", "std", "ci95_halfwidth"):
        assert departure(getattr(moved, name).value, getattr(base, name).value, k, -1) <= tol
    assert departure(moved.trend_per_year, base.trend_per_year, k, 0) <= tol
