"""Builders for the five summary tables and their CSV / aligned-text renderings.

Each builder returns a header plus rows of plain Python values; the CLI layer
owns serialization. Numeric cells are emitted with shortest round-trip
formatting by the CSV writer, and rounded for the aligned text view.
"""

from __future__ import annotations

from .carbon import CarbonCycleParams
from .growth import carbonization, growth_rate, kaya_decomposition, rates_table
from .reconstruction import ReconstructionResult
from .records import Record
from .scaling import scaling_series, scaling_stats
from .series import Period
from .datasets import Snapshot

#: Period sets mirroring the published table layouts.
SCALING_PERIODS = (
    Period(1980, 1990),
    Period(1990, 2000),
    Period(2000, 2010),
    Period(2010, 2017),
    Period(1980, 2010),
    Period(1980, 2017),
)
RATE_PERIODS = (Period(1980, 2010), Period(2010, 2017), Period(1980, 2017))
COEFFICIENT_PERIODS = (
    Period(1980, 1990),
    Period(1990, 2000),
    Period(2000, 2010),
    Period(1980, 2010),
)


class TableResult(Record):
    __slots__ = _fields = ("table_id", "title", "header", "rows")
    table_id: int
    title: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_text(table: TableResult) -> str:
    cells = [list(table.header)] + [[_fmt(v) for v in row] for row in table.rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(table.header))]
    lines = [table.title]
    for i, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def build_table1(snapshot: Snapshot, recon: ReconstructionResult) -> TableResult:
    """Scaling mean and dispersion per period (GW per T$2010)."""
    lam = scaling_series(snapshot.energy, recon.wealth)
    rows = []
    for p in SCALING_PERIODS:
        st = scaling_stats(lam, p)
        rows.append((str(p), st.mean.value, st.std.value, st.ci95_halfwidth.value,
                     st.trend_per_year * 100.0))
    return TableResult(
        table_id=1,
        title="Energy/wealth scaling by period (GW per trillion 2010 USD)",
        header=("period", "mean", "std", "ci95_halfwidth", "trend_pct_per_yr"),
        rows=tuple(rows),
    )


def build_table2(snapshot: Snapshot, recon: ReconstructionResult) -> TableResult:
    """Measured vs. derived growth rates (%/yr)."""
    rows_out = []
    for row in rates_table(recon.gdp, snapshot.energy, recon.wealth, RATE_PERIODS):
        rows_out.append(
            (
                str(row.period),
                row.eta_w * 100.0,
                row.eta_e * 100.0,
                row.lambda_eps * 100.0,
                row.eta_i * 100.0,
                row.eta_eps * 100.0,
                row.eta_y * 100.0,
                row.predicted_eta_y * 100.0,
            )
        )
    return TableResult(
        table_id=2,
        title="Measured vs derived growth rates (%/yr)",
        header=(
            "period", "eta_w", "eta_e", "lambda_eps", "eta_i", "eta_eps",
            "eta_y", "lambda_eps_plus_eta_eps",
        ),
        rows=tuple(rows_out),
    )


def build_table3(snapshot: Snapshot, recon: ReconstructionResult) -> TableResult:
    """Emissions/wealth scaling, carbonization trend and emissions growth (%/yr)."""
    rows = []
    for rates in rates_table(recon.gdp, snapshot.energy, recon.wealth, RATE_PERIODS):
        p = rates.period
        est = carbonization(snapshot.emissions, snapshot.energy, p, wealth=recon.wealth)
        rows.append(
            (
                str(p),
                est.lambda_c,
                est.lambda_c_std,
                est.eta_c * 100.0,
                growth_rate(snapshot.emissions, p) * 100.0,
                (est.eta_c + rates.lambda_eps) * 100.0,
            )
        )
    return TableResult(
        table_id=3,
        title="Emissions scaling and growth (lambda_c in ppmv/yr per quadrillion 2010 USD)",
        header=("period", "lambda_c", "lambda_c_std", "eta_c", "eta_C_measured",
                "eta_C_predicted"),
        rows=tuple(rows),
    )


def build_table4(snapshot: Snapshot, recon: ReconstructionResult) -> TableResult:
    """Population and affluence growth vs the derived sum (%/yr)."""
    rows = []
    for rates in rates_table(recon.gdp, snapshot.energy, recon.wealth, RATE_PERIODS):
        p = rates.period
        kaya = kaya_decomposition(
            snapshot.population, recon.gdp, snapshot.energy, snapshot.emissions, p
        )
        rows.append(
            (
                str(p),
                kaya.eta_pop * 100.0,
                kaya.eta_affluence * 100.0,
                (kaya.eta_pop + kaya.eta_affluence) * 100.0,
                rates.predicted_eta_y * 100.0,
            )
        )
    return TableResult(
        table_id=4,
        title="Population and affluence growth (%/yr)",
        header=("period", "eta_P", "eta_g", "sum_measured", "sum_predicted"),
        rows=tuple(rows),
    )


def build_table5(snapshot: Snapshot, recon: ReconstructionResult) -> TableResult:
    """Wealth per committed ppmv, sigma/(kappa c lambda), T$2010 per ppmv."""
    sigma = CarbonCycleParams().sigma
    rows = []
    for p in COEFFICIENT_PERIODS:
        est = carbonization(snapshot.emissions, snapshot.energy, p, wealth=recon.wealth)
        # lambda_c is per quadrillion (1000 T$); the coefficient is per T$.
        coefficient = 1000.0 * sigma / est.lambda_c
        rows.append((str(p), coefficient))
    return TableResult(
        table_id=5,
        title="Committed-equilibrium coefficient sigma/(kappa c lambda) (T$2010 per ppmv)",
        header=("period", "coefficient"),
        rows=tuple(rows),
    )


_BUILDERS = {
    1: build_table1,
    2: build_table2,
    3: build_table3,
    4: build_table4,
    5: build_table5,
}


def build_table(table_id: int, snapshot: Snapshot, recon: ReconstructionResult) -> TableResult:
    try:
        builder = _BUILDERS[table_id]
    except KeyError:
        raise KeyError(f"no table {table_id}; choose from {sorted(_BUILDERS)}") from None
    return builder(snapshot, recon)
