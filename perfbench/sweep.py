"""The ``sweep`` family: seeded ``paper-2017`` scenarios across the parameter box.

A pass covers every (horizon, dt) pair once, so its RK4 step count is fixed;
the seed draws eta_c, eta_w and sigma for each pair and the order. Pairs with
the 40-year horizon also run ``steady_state_commitment``, a spin-up preset
and ``committed_curve``. The dt values that do not divide 1 or the horizon,
and the long fine-dt runs, are kept on purpose: they expose the spin-up
duration, grid drift and horizon overshoot defects, which are counted as
classified failures rather than removed from the inputs.

Checks do not use the program's arithmetic: final delta against the one-box
closed form with an exponential source, spin-up delta against the exact
per-year solution for piecewise-constant annual emissions, the committed
curve against kappa*lambda*c*W/sigma, and the end of the time grid against
start + horizon.
"""

from __future__ import annotations

import csv
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from common import EJ_PER_YR_PER_GW, UNEXPLAINED, Ctx, Unit, rel_close, speed_kernel

HORIZONS = (40.0, 100.0, 200.0)
DTS = (1.0, 0.5, 0.4, 0.3, 0.25, 0.1, 0.01)
ETA_C = (-0.05, 0.0)
ETA_W = (0.01, 0.035)
SIGMA = (0.019, 0.027)  # the supported sink band
EXTRAS_HORIZON = 40.0
#: Start year of the paper-2017 preset; spin-up integrates up to it.
PRESET_YEAR = 2017
CURVE_POINTS = 50
#: The program's own grid tolerance for Trajectory.at_year.
GRID_TOL = 1e-9
EXACT_TOL = 1e-12


def closed_form_tol(dt: float) -> float:
    """RK4 is fourth order: worst case over the box is 1.2e-8 at dt=1, so 8x headroom."""
    return 1e-7 * dt**4 + 1e-9


def spinup_tol(dt: float) -> float:
    """Worst case over the sigma band is 1.7e-9 at dt=1; 6x headroom."""
    return 1e-8 * dt**4 + 1e-12


def nominal_steps(horizon: float, dt: float) -> int:
    n = round(horizon / dt)
    return n if abs(n * dt - horizon) <= 1e-9 else math.ceil(horizon / dt)


def _divides(dt: float, span: float) -> bool:
    return (Fraction(str(span)) / Fraction(str(dt))).denominator == 1


@dataclass(frozen=True)
class Item:
    horizon: float
    dt: float
    eta_c: float
    eta_w: float
    sigma: float
    extras: bool


def _read_column(path, value_column: str) -> dict[int, float]:
    with open(path, newline="", encoding="utf-8") as handle:
        return {int(r["year"]): float(r[value_column]) for r in csv.DictReader(handle)}


class Sweep:
    name = "sweep"

    def __init__(self, ctx: Ctx, seed: int) -> None:
        from enerscale import datasets, projection
        from enerscale.carbon import CarbonCycleParams
        from enerscale.errors import EnerscaleError
        from enerscale.units import Quantity, Unit as U

        # Program functions are called through their modules, so traced runs see them.
        self.datasets, self.projection = datasets, projection
        self.Params = CarbonCycleParams
        self.EnerscaleError = EnerscaleError
        self.Quantity, self.U = Quantity, U
        self.rng = random.Random(seed)
        data = ctx.src / "enerscale" / "data"
        self.emissions = _read_column(data / "emissions.csv", "emissions")
        self.concentration = _read_column(data / "co2_concentration.csv", "co2")
        self.spinup_years = PRESET_YEAR - min(self.emissions)

    def items(self) -> list[Item]:
        out = []
        for h in HORIZONS:
            for dt in DTS:
                out.append(Item(
                    horizon=h, dt=dt,
                    eta_c=self.rng.uniform(*ETA_C),
                    eta_w=self.rng.uniform(*ETA_W),
                    sigma=self.rng.uniform(*SIGMA),
                    extras=h == EXTRAS_HORIZON,
                ))
        self.rng.shuffle(out)
        return out

    def steps(self, it: Item) -> int:
        n = nominal_steps(it.horizon, it.dt)
        if it.extras:
            n += 2 * nominal_steps(it.horizon / 2, it.dt)
            n += self.spinup_years * round(1.0 / it.dt)
        return n

    def run_unit(self) -> Unit:
        unit = Unit(kernel_s=speed_kernel())
        for it in self.items():
            unit.attempted += 1
            unit.work += self.steps(it)
            try:
                elapsed, problems = self._item(it)
            except self.EnerscaleError as exc:
                elapsed, problems = 0.0, [("rejected", f"{type(exc).__name__}: {exc}")]
            except Exception as exc:  # keep sweeping; the failure is counted and reported
                elapsed, problems = 0.0, [("exception", f"{type(exc).__name__}: {exc}")]
            unit.elapsed_s += elapsed
            if problems:
                unit.fail(self._classify(it, [p[0] for p in problems]), f"{it}: {problems[0][1]}")
        return unit

    @staticmethod
    def _classify(it: Item, checks: list) -> str:
        """Attribute a failed item to the known defects its inputs predict.

        The grid can only miss start + horizon by overshooting (dt does not
        divide the horizon) or by drift (it does); spin-up can only cover the
        wrong span when dt does not divide one year. Anything else, and a
        rejected input with no predicted defect, is unexplained.
        """
        predicted = set()
        if not _divides(it.dt, it.horizon):
            predicted.add("horizon_overshoot")
        if it.extras and not _divides(it.dt, 1.0):
            predicted.add("spinup_duration")
        classes = set()
        for check in checks:
            if check == "grid":
                classes.add("horizon_overshoot" if not _divides(it.dt, it.horizon) else "grid_drift")
            elif check == "spinup" and "spinup_duration" in predicted:
                classes.add("spinup_duration")
            elif check == "rejected" and predicted:
                classes.update(predicted)
            else:
                return UNEXPLAINED
        return "+".join(sorted(classes))

    def _item(self, it: Item) -> tuple[float, list]:
        params = self.Params(sigma=it.sigma)
        t0 = time.perf_counter()
        s = self.datasets.preset_scenario(
            "paper-2017", eta_c=it.eta_c, eta_w=it.eta_w, horizon_years=it.horizon,
            dt=it.dt, carbon_params=params,
        )
        traj = self.projection.run_scenario(s)
        end = s.start_year + it.horizon
        try:
            traj.at_year(end)
            at_end = True
        except self.EnerscaleError:
            at_end = False
        elapsed = time.perf_counter() - t0
        problems = []
        last = traj.points[-1]
        want = self._closed_form(s, s.delta0, last.year - s.start_year)
        if not rel_close(last.delta_co2, want, closed_form_tol(it.dt)):
            problems.append(("closed_form", f"final delta {last.delta_co2!r} != {want!r}"))
        if not at_end or abs(last.year - end) > GRID_TOL:
            problems.append(("grid", f"last grid year {last.year!r}, at_year({end}) ok={at_end}"))
        if it.extras:
            elapsed += self._extras(it, s, params, problems)
        return elapsed, problems

    def _extras(self, it: Item, s, params, problems: list) -> float:
        half = it.horizon / 2
        freeze = s.start_year + half
        t0 = time.perf_counter()
        ss = self.projection.steady_state_commitment(s, freeze_year=freeze, settle_years=half)
        spun = self.datasets.preset_scenario(
            "paper-2017", eta_c=it.eta_c, eta_w=it.eta_w, horizon_years=it.horizon,
            dt=it.dt, carbon_params=params, spinup=True,
        )
        w_values = [100.0 + i * (5000.0 - 100.0) / (CURVE_POINTS - 1) for i in range(CURVE_POINTS)]
        pairs = self.projection.committed_curve(
            w_values, self.Quantity(s.lambda_gw, self.U.GW_PER_TUSD),
            self.Quantity(s.c0, self.U.GTC_PER_EJ), params,
        )
        elapsed = time.perf_counter() - t0

        # Steady state: grow for n*dt, then relax toward the frozen equilibrium.
        n = nominal_steps(half, it.dt)
        grown = self._closed_form(s, s.delta0, n * it.dt)
        source = self._source(s) * math.exp((s.eta_w + s.eta_c) * half)
        eq = params.kappa_a * source / params.sigma
        relaxed = eq + (grown - eq) * math.exp(-params.sigma * n * it.dt)
        if not rel_close(ss.asymptote_delta, eq, EXACT_TOL):
            problems.append(("steady_state", f"asymptote {ss.asymptote_delta!r} != {eq!r}"))
        final = ss.trajectory.points[-1].delta_co2
        if not rel_close(final, relaxed, closed_form_tol(it.dt)):
            problems.append(("steady_state", f"settled delta {final!r} != {relaxed!r}"))

        want = self._exact_spinup(params)
        if not rel_close(spun.delta0, want, spinup_tol(it.dt)):
            problems.append(("spinup", f"spin-up delta {spun.delta0!r} != exact {want!r}"))

        coeff = params.kappa_a * s.lambda_gw * EJ_PER_YR_PER_GW * s.c0 / params.sigma
        bad = [w for (w, d) in pairs if not rel_close(d, coeff * w, EXACT_TOL)]
        if len(pairs) != CURVE_POINTS or bad:
            problems.append(("curve", f"{len(bad)} committed-curve points off"))
        return elapsed

    @staticmethod
    def _source(s) -> float:
        """Emissions at the scenario start, GtC/yr: lambda * c0 * W0."""
        return s.lambda_gw * EJ_PER_YR_PER_GW * s.c0 * s.w0

    def _closed_form(self, s, delta0: float, tau: float) -> float:
        """delta0 e^{-sigma tau} + kappa C0 e^{-sigma tau} expm1((g+sigma) tau)/(g+sigma)."""
        p = s.carbon_params
        rate = s.eta_w + s.eta_c + p.sigma
        decay = math.exp(-p.sigma * tau)
        growth = math.expm1(rate * tau) / rate if rate != 0.0 else tau
        return delta0 * decay + p.kappa_a * self._source(s) * decay * growth

    def _exact_spinup(self, params) -> float:
        """Exact one-box solution with each year's emissions held constant across that year."""
        first = min(self.emissions)
        delta = max(self.concentration[first] - params.preindustrial, 0.0)
        keep = math.exp(-params.sigma)
        gain = -math.expm1(-params.sigma) / params.sigma
        for year in range(first, first + self.spinup_years):
            delta = delta * keep + params.kappa_a * self.emissions[year] * gain
        return delta
