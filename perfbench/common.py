"""Shared plumbing: paths, fresh-process timing, per-unit results, tolerances."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Failure classes for the three known time-grid defects (ROADMAP Open item 4).
#: Any failure outside them is "unexplained" and makes the run incorrect.
KNOWN_DEFECTS = ("spinup_duration", "grid_drift", "horizon_overshoot")
UNEXPLAINED = "unexplained"

#: GW -> EJ/yr factor of the bundled snapshot's conventions (1 GW over a
#: 365-day year), restated here so the checks do not read it from the program.
EJ_PER_YR_PER_GW = 0.0315360


#: Nominal ``speed_kernel`` time. Timed metrics are reported at the host speed
#: where the kernel takes this long; changing it or the kernel rescales them.
KERNEL_REFERENCE_S = 0.010


def speed_kernel() -> float:
    """Seconds for a fixed pure-Python workload: the yardstick of host speed.

    Float arithmetic in an RK4 loop, small allocations and tuple scans, like
    the program's hot paths but independent of its code, so no change to the
    program moves it. The best of two runs damps the kernel's own noise.
    """
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        delta, t, dt = 40.0, 0.0, 0.01
        points = []
        for i in range(6000):
            k1 = 4.7 * math.exp(0.02 * t) - 0.023 * delta
            k2 = 4.7 * math.exp(0.02 * (t + dt / 2)) - 0.023 * (delta + dt * k1 / 2)
            k3 = 4.7 * math.exp(0.02 * (t + dt / 2)) - 0.023 * (delta + dt * k2 / 2)
            k4 = 4.7 * math.exp(0.02 * (t + dt)) - 0.023 * (delta + dt * k3)
            delta += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
            t = i * dt
            points.append((t, delta, {"year": t}))
        years = tuple(range(2000))
        sum(years.index(y) for y in range(0, 2000, 7))
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    """A duration rescaled to the host speed at which ``speed_kernel`` takes KERNEL_REFERENCE_S."""
    return seconds * KERNEL_REFERENCE_S / kernel_s


@dataclass
class Ctx:
    """Where the benchmark runs and how it starts fresh interpreters."""

    root: Path
    work: Path
    env: dict

    @property
    def src(self) -> Path:
        return self.root / "src"

    @classmethod
    def create(cls, root: Path, work: Path) -> "Ctx":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return cls(root=root, work=work, env=env)


@dataclass
class Unit:
    """One timed unit of a family: a CLI round, a sweep pass or a recalibration batch."""

    elapsed_s: float = 0.0
    work: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)  # (class, message)
    latencies_ms: list = field(default_factory=list)  # (wall ms, speed_kernel s just before)
    kernel_s: float = KERNEL_REFERENCE_S  # speed_kernel s just before an in-process unit

    def fail(self, cls: str, message: str) -> None:
        self.failures.append((cls, message))


def rel_close(got: float, want: float, tol: float) -> bool:
    """Equal, or finite and within ``tol`` of ``want`` relative to ``want``."""
    if not (math.isfinite(got) and math.isfinite(want)):
        return False
    return got == want or abs(got - want) <= tol * abs(want)


def fresh_process(ctx: Ctx, args: list) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``python <args>`` in a new interpreter; wall time in ms from spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ctx.root,
        env=ctx.env,
        capture_output=True,
        timeout=120,
    )
    return (time.perf_counter() - t0) * 1e3, proc


SETUP_CODE = (
    "import enerscale.cli\n"
    "from enerscale import datasets\n"
    "datasets.load_snapshot()\n"
    "datasets.baseline()\n"
)


def measure_setup_s(ctx: Ctx) -> float:
    """Fresh-process seconds through import, snapshot load and baseline reconstruction."""
    ms, proc = fresh_process(ctx, ["-c", SETUP_CODE])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.decode(errors='replace')}")
    return ms / 1e3


def median(values: list) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail(values: list) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it, and that percentile.

    With fewer than 11 samples no such percentile exists; the maximum is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    i = n - 11 if n >= 11 else n - 1
    return ordered[i], 100.0 * (i + 1) / n
