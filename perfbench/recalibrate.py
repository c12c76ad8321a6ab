"""The ``recalibrate`` family: perturbed snapshots written, re-read and re-calibrated.

Each item jitters every bundled series, writes them with ``write_series``
plus a manifest, reads them back through ``load_manifest``, ``load_series``
and ``validate``, rebuilds wealth with a seeded PPP/MER window and ancient
population growth, computes the scaling statistics over the table-1 periods
and the W(1) sensitivity at 0.5x and 2x, and round-trips the 2017-row wealth
series through disk. No input repeats, so the program's caches never hit.

Checks are numpy recomputations from the jittered inputs: bit-exact round
trips, kappa_x, W(1) = Y(1)/pop_growth, strictly increasing wealth and the
scaling means.
"""

from __future__ import annotations

import json
import random
import shutil
import time

import numpy as np

from common import EJ_PER_YR_PER_GW, UNEXPLAINED, Ctx, Unit, speed_kernel

JITTER = 0.02  # each value scaled by a factor drawn from [1 - JITTER, 1 + JITTER]
WINDOW_START = (1970, 1980)
WINDOW_END = (1985, 1992)
POP_GROWTH = (3e-4, 1e-3)
TABLE1_PERIODS = ((1980, 1990), (1990, 2000), (2000, 2010), (2010, 2017), (1980, 2010), (1980, 2017))
SENSITIVITY = (0.5, 2.0)
TOL = 1e-12
BATCH = 8


class Recalibrate:
    name = "recalibrate"

    def __init__(self, ctx: Ctx, seed: int) -> None:
        from enerscale import datasets, ingestion, reconstruction, scaling
        from enerscale.series import Period, SeriesKind
        from enerscale.units import Unit as U

        self.ing, self.rec, self.sca = ingestion, reconstruction, scaling
        self.Period, self.Kind, self.U = Period, SeriesKind, U
        self.rng = random.Random(seed)
        self.dir = ctx.work / "recalibrate"
        self.entries = datasets.manifest()
        self.base = {name: ingestion.load_series(e.descriptor) for name, e in self.entries.items()}
        self.manifest = json.dumps({
            name: {"path": f"{name}.csv", "kind": self.base[name].kind.value,
                   "unit": self.base[name].unit.value, "contiguous": entry.contiguous}
            for name, entry in self.entries.items()
        })

    def run_unit(self) -> Unit:
        unit = Unit(kernel_s=speed_kernel())
        for _ in range(BATCH):
            unit.attempted += 1
            try:
                elapsed, problems = self._item()
            except Exception as exc:  # keep going; the failure is counted and reported
                elapsed, problems = 0.0, [f"{type(exc).__name__}: {exc}"]
            unit.elapsed_s += elapsed
            if problems:
                unit.fail(UNEXPLAINED, "; ".join(problems[:3]))
        unit.work = unit.attempted
        return unit

    def _draw(self) -> tuple[dict, tuple[int, int], float]:
        jittered = {}
        for name, s in self.base.items():
            factors = [1.0 + JITTER * (2.0 * self.rng.random() - 1.0) for _ in s.values]
            jittered[name] = (s.years, tuple(v * f for v, f in zip(s.values, factors)))
        window = (self.rng.randint(*WINDOW_START), self.rng.randint(*WINDOW_END))
        return jittered, window, self.rng.uniform(*POP_GROWTH)

    def _item(self) -> tuple[float, list]:
        jittered, window, pop_growth = self._draw()
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        (self.dir / "manifest.json").write_text(self.manifest, encoding="utf-8")

        ing, rec, sca = self.ing, self.rec, self.sca
        t0 = time.perf_counter()
        for name, (years, values) in jittered.items():
            ing.write_series(self.base[name].with_data(years, values), self.dir / f"{name}.csv")
        entries = ing.load_manifest(self.dir / "manifest.json")
        loaded = {name: ing.load_series(e.descriptor) for name, e in entries.items()}
        reports = {name: ing.validate(loaded[name], e.contiguous) for name, e in entries.items()}
        recon = rec.build_wealth(
            loaded["gdp_ppp"], loaded["gdp_mer"],
            overlap_window=self.Period(*window), pop_growth=pop_growth,
        )
        energy = loaded["energy_consumption"]
        lam = sca.scaling_series(energy, recon.wealth)
        stats = [sca.scaling_stats(lam, self.Period(*p)) for p in TABLE1_PERIODS]
        sens = [sca.w1_sensitivity(recon.gdp, energy, recon.w1, f) for f in SENSITIVITY]
        path = ing.write_series(recon.wealth.series, self.dir / "wealth.csv", value_column="wealth")
        back = ing.load_series(ing.canonical_descriptor(path, self.Kind.WEALTH, self.U.TUSD, "wealth"))
        elapsed = time.perf_counter() - t0

        problems = []
        for name, (years, values) in jittered.items():
            if loaded[name].years != years or loaded[name].values != values:
                problems.append(f"{name}: round trip is not bit-exact")
            if not reports[name].is_empty():
                problems.append(f"{name}: validation findings {reports[name].to_dict()}")
        wealth = recon.wealth.series
        if back.years != wealth.years or back.values != wealth.values:
            problems.append("wealth: round trip is not bit-exact")

        ppp = dict(zip(*jittered["gdp_ppp"]))
        mer = dict(zip(*jittered["gdp_mer"]))
        shared = [y for y in sorted(set(ppp) & set(mer)) if window[0] <= y <= window[1]]
        kappa = float(np.mean([ppp[y] / mer[y] for y in shared]))
        if abs(recon.ratio.value - kappa) > TOL * kappa:
            problems.append(f"kappa_x {recon.ratio.value!r} != {kappa!r}")
        w1 = ppp[1] / kappa / pop_growth
        if abs(recon.w1.value - w1) > TOL * w1:
            problems.append(f"W(1) {recon.w1.value!r} != Y(1)/pop_growth {w1!r}")
        w = np.asarray(wealth.values)
        if not np.all(np.diff(w) > 0):
            problems.append("wealth is not strictly increasing")

        energy_at = dict(zip(*jittered["energy_consumption"]))
        wealth_at = dict(zip(wealth.years, w))
        expected = [(est, wealth_at) for est in stats]
        cumsum = np.cumsum(recon.gdp.values)
        expected += [(est, dict(zip(recon.gdp.years, cumsum + f * recon.w1.value)))
                     for f, est in zip(SENSITIVITY, sens)]
        for est, at in expected:
            mean = _scaling_mean(energy_at, at, est.period.start_year, est.period.end_year)
            if abs(est.mean.value - mean) > TOL * mean:
                problems.append(f"scaling mean over {est.period} {est.mean.value!r} != {mean!r}")
        return elapsed, problems


def _scaling_mean(energy_at: dict, wealth_at: dict, start: int, end: int) -> float:
    """Mean of E/W in GW per T$2010 over the shared years of [start, end]."""
    years = [y for y in sorted(energy_at) if start <= y <= end and y in wealth_at]
    e = np.array([energy_at[y] for y in years]) / EJ_PER_YR_PER_GW
    return float((e / np.array([wealth_at[y] for y in years])).mean())
