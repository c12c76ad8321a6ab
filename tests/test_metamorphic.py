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
#: snapshot is 1.5e-13 (table 2's eta_i at GDP x 1.37); with energy or emissions x k it
#: is 1.2e-14 (table 1's trend at energy x 1000).
TOL = 1e-12

#: The factors a series is multiplied by.
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

#: The same with only energy multiplied: table 1's mean, std and CI go as k, and nothing
#: else moves (lambda_eps is E/W times Y/E, and lambda_c reads no energy).
ENERGY_POWERS = {
    1: (1, 1, 1, 0),
    2: (0, 0, 0, 0, 0, 0, 0),
    3: (0, 0, 0, 0, 0),
    4: (0, 0, 0, 0),
    5: (0,),
}

#: The same with only emissions multiplied: table 3's lambda_c and its std go as k,
#: table 5's coefficient as 1/k, and every rate and trend does not move.
EMISSIONS_POWERS = {
    1: (0, 0, 0, 0),
    2: (0, 0, 0, 0, 0, 0, 0),
    3: (1, 1, 0, 0, 0),
    4: (0, 0, 0, 0),
    5: (-1,),
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
    assert_columns_move_by_their_powers(table, TABLE_POWERS[table], (snapshot, recon),
                                        (snap, rk), k, tol)


def assert_columns_move_by_their_powers(table, powers, inputs, moved_inputs, k, tol):
    """Each numeric cell of ``table`` built from ``moved_inputs`` is its cell built from
    ``inputs`` times k to its column's power in ``powers``, to ``tol``."""
    base = tables.build_table(table, *inputs)
    moved = tables.build_table(table, *moved_inputs)
    assert moved.header == base.header
    assert [row[0] for row in moved.rows] == [row[0] for row in base.rows]
    departures = {
        (row[0], column): departure(got, want, k, power)
        for row, base_row in zip(moved.rows, base.rows)
        for column, power, got, want in zip(base.header[1:], powers, row[1:], base_row[1:])
    }
    assert len(departures) == len(base.rows) * len(powers)
    assert {cell: d for cell, d in departures.items() if d > tol} == {}


@pytest.mark.parametrize("tol", [TOL], ids=lambda tol: f"tol={tol!r}")
@pytest.mark.parametrize("table", ENERGY_POWERS, ids=lambda t: f"table{t}")
@pytest.mark.parametrize("k", FACTORS, ids=lambda k: f"k={k!r}")
def test_energy_times_k_moves_each_table_column_by_its_power(snapshot, recon, k, table, tol):
    moved = snapshot._replace(energy=scaled(snapshot.energy, k))
    assert_columns_move_by_their_powers(table, ENERGY_POWERS[table], (snapshot, recon),
                                        (moved, recon), k, tol)


@pytest.mark.parametrize("tol", [TOL], ids=lambda tol: f"tol={tol!r}")
@pytest.mark.parametrize("table", EMISSIONS_POWERS, ids=lambda t: f"table{t}")
@pytest.mark.parametrize("k", FACTORS, ids=lambda k: f"k={k!r}")
def test_emissions_times_k_moves_each_table_column_by_its_power(snapshot, recon, k, table,
                                                                tol):
    moved = snapshot._replace(emissions=scaled(snapshot.emissions, k))
    assert_columns_move_by_their_powers(table, EMISSIONS_POWERS[table], (snapshot, recon),
                                        (moved, recon), k, tol)


@pytest.mark.parametrize("table", [1, 2, 4], ids=lambda t: f"table{t}")
def test_emissions_times_k_leaves_the_tables_that_read_no_emissions_bit_for_bit(snapshot, recon,
                                                                                table):
    moved = snapshot._replace(emissions=scaled(snapshot.emissions, 1.37))
    assert tables.build_table(table, moved, recon) == tables.build_table(table, snapshot, recon)


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


@pytest.mark.parametrize("tol", [TOL], ids=lambda tol: f"tol={tol!r}")
@pytest.mark.parametrize("factor", [0.5, 2.0], ids=lambda f: f"w1x{f!r}")
@pytest.mark.parametrize("k", FACTORS, ids=lambda k: f"k={k!r}")
def test_energy_times_k_moves_the_w1_sensitivity_by_its_power(snapshot, recon, k, factor, tol):
    """The statistics of lambda = E/W go as k, and its trend does not move."""
    base = w1_sensitivity(recon.gdp, snapshot.energy, recon.w1, factor)
    moved = w1_sensitivity(recon.gdp, scaled(snapshot.energy, k), recon.w1, factor)
    for name in ("mean", "std", "ci95_halfwidth"):
        assert departure(getattr(moved, name).value, getattr(base, name).value, k, 1) <= tol
    assert departure(moved.trend_per_year, base.trend_per_year, k, 0) <= tol
