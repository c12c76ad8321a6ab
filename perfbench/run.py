"""enerscale benchmark: one command for every end-to-end metric, with output checks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 32 --trace 0

Workloads name the operation family that gets the measured ``--seconds``:
``reproduce`` (fresh ``python -m enerscale`` processes), ``sweep`` (seeded
scenario passes in this process) and ``recalibrate`` (perturbed snapshots
re-calibrated in this process). Every run also measures a fixed, small probe
of the other two families, so every end-to-end metric has a value on every
workload. Times are rescaled to a reference host speed with a speed kernel
timed just before each item. ``--trace 1`` instead runs the traced
per-layer measurement.

The last stdout line is the result JSON; the line before it holds the run's
environment, the failure breakdown and the tail percentile. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import (KNOWN_DEFECTS, Ctx, at_reference_speed, fresh_process, measure_setup_s, median,
                    speed_kernel, tail)

ROOT = Path(__file__).resolve().parent.parent
#: Fixed work spread evenly through every timed run: set-up measurements and
#: units of the families other than the workload's own.
PROBES = {"setup": 7, "reproduce": 3, "sweep": 10, "recalibrate": 16}
MIN_UNITS = 3
IMPORT_REPS = 5
INPROCESS_REPS = 5
#: Untraced/traced pairs of the workload's own family in a traced run.
TRACE_UNITS = {"sweep": 2, "recalibrate": 4}
IMPORT_PROBES = {
    "interpreter": "pass",
    "numpy": "import numpy",
    "enerscale_cli": "import enerscale.cli",
}


def _families(ctx: Ctx, seed: int) -> dict:
    from recalibrate import Recalibrate
    from reproduce import Reproduce
    from sweep import Sweep

    return {f.name: f for f in (Reproduce(ctx, seed), Sweep(ctx, seed), Recalibrate(ctx, seed))}


def _schedule(ctx: Ctx, workload: str, seconds: float, families: dict) -> tuple[list, dict]:
    """Run the workload's family for ``seconds``, with the probes interleaved at even intervals.

    Spreading the probes over the whole window lets every metric sample the
    same stretch of time, so slow drifts of host speed affect them alike.
    """
    probes = {name: n for name, n in PROBES.items() if name != workload}
    due = sorted((seconds * (i + 0.5) / n, name) for name, n in probes.items() for i in range(n))
    setup, units = [], {name: [] for name in families}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if due and (elapsed >= due[0][0] or (elapsed >= seconds and len(units[workload]) >= MIN_UNITS)):
            name = due.pop(0)[1]
        elif elapsed < seconds or len(units[workload]) < MIN_UNITS:
            name = workload
        else:
            return setup, units
        if name == "setup":
            kernel_s = speed_kernel()
            setup.append((measure_setup_s(ctx), kernel_s))
        else:
            units[name].append(families[name].run_unit())


def _rate(units: list, scaled: bool = True) -> float:
    """Median over units of work per second of program time, at reference host speed."""
    return median([u.work / (at_reference_speed(u.elapsed_s, u.kernel_s) if scaled else u.elapsed_s)
                   for u in units])


def _fail_frac(units: dict) -> float:
    """Mean over the operation families of each family's failed/attempted.

    Every run contains all three families, and each family's failures are
    fixed by its inputs, so this does not move with how many operations the
    host's speed let the run complete.
    """
    fracs = [sum(len(u.failures) for u in us) / sum(u.attempted for u in us)
             for us in units.values()]
    return sum(fracs) / len(fracs)


def _peak_rss_mb(workload: str) -> float:
    """Peak RSS of the processes that ran the workload's own operations (ru_maxrss is KiB)."""
    who = resource.RUSAGE_CHILDREN if workload == "reproduce" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(ctx: Ctx, workload: str, seconds: float, families: dict) -> tuple[dict, dict, dict]:
    setup, units = _schedule(ctx, workload, seconds, families)
    # The host's speed swings by tens of percent within seconds, so every time
    # is rescaled by the speed kernel timed just before it (see README.md).
    pairs = [pair for u in units["reproduce"] for pair in u.latencies_ms]
    latencies = [at_reference_speed(ms, k) for ms, k in pairs]
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (median([at_reference_speed(s, k) for s, k in setup]), "s"),
        "cli_ms_p50": (median(latencies), "ms"),
        "cli_ms_tail": (tail_ms, "ms"),
        "sweep_steps_per_s": (_rate(units["sweep"]), "steps/s"),
        "recalibrate_items_per_s": (_rate(units["recalibrate"]), "items/s"),
        "peak_rss_mb": (_peak_rss_mb(workload), "MB"),
        "fail_frac": (_fail_frac(units), "ratio"),
    }
    raw_latencies = [ms for ms, _ in pairs]
    kernels = [k for _, k in pairs + setup] + [u.kernel_s for n in ("sweep", "recalibrate") for u in units[n]]
    extra = {
        "cli_ms_tail": {"percentile": tail_pct, "samples": len(latencies)},
        "units": {name: len(us) for name, us in units.items()},
        "unscaled": {
            "setup_s": median([s for s, _ in setup]),
            "cli_ms_p50": median(raw_latencies),
            "cli_ms_tail": tail(raw_latencies)[0],
            "sweep_steps_per_s": _rate(units["sweep"], scaled=False),
            "recalibrate_items_per_s": _rate(units["recalibrate"], scaled=False),
        },
        "speed_kernel_ms": {"median": median(kernels) * 1e3, "samples": len(kernels)},
    }
    return metrics, units, extra


def traced_run(ctx: Ctx, workload: str, families: dict, seed: int) -> tuple[dict, dict, dict]:
    from enerscale import cli, datasets
    from spans import Tracer

    metrics = {}
    samples = {name: [] for name in IMPORT_PROBES}
    for _ in range(IMPORT_REPS):
        for name, code in IMPORT_PROBES.items():
            ms, proc = fresh_process(ctx, ["-c", code])
            if proc.returncode != 0:
                raise RuntimeError(f"import probe {code!r} failed: {proc.stderr.decode(errors='replace')}")
            samples[name].append(ms)
    bare = median(samples["interpreter"])
    metrics["import.interpreter_ms"] = (bare, "ms")
    for name in ("numpy", "enerscale_cli"):
        metrics[f"import.{name}_ms"] = (median(samples[name]) - bare, "ms")

    # Untraced and traced repetitions alternate, so drifts of host speed
    # cancel in the overhead; only the untraced ones give cli.main_ms.*.
    reproduce = families["reproduce"]
    caches = (datasets.load_snapshot, datasets.baseline)
    tracer = Tracer()
    units = {name: [] for name in families}
    untraced, cost = {}, {False: 0.0, True: 0.0}
    for _ in range(INPROCESS_REPS):
        unit, times, written = reproduce.run_inprocess(cli, caches)
        for key, ms in times.items():
            untraced.setdefault(key, []).append(ms)
        traced_unit, _, _ = _traced(tracer, lambda: reproduce.run_inprocess(cli, caches))
        units["reproduce"] += [unit, traced_unit]
        if workload == "reproduce":
            cost[False] += unit.elapsed_s
            cost[True] += traced_unit.elapsed_s
    for key, values in untraced.items():
        metrics[f"cli.main_ms.{key}"] = (median(values), "ms")
    metrics["cli.bytes_written"] = (float(written), "bytes")
    for name in ("sweep", "recalibrate"):
        family = families[name]
        if name != workload:
            units[name].append(_traced(tracer, family.run_unit))
            continue
        for _ in range(TRACE_UNITS[name]):
            pair = {False: family.run_unit(), True: _traced(tracer, family.run_unit)}
            units[name] += pair.values()
            for traced, unit in pair.items():
                cost[traced] += unit.elapsed_s / unit.work
    metrics["trace.overhead_pct"] = (100.0 * (cost[True] / cost[False] - 1.0), "%")
    metrics.update(tracer.metrics())
    spans_path = ctx.root / ".perfbench" / f"spans-{workload}-seed{seed}.json"
    tracer.write(spans_path)
    extra = {"spans": len(tracer.spans), "spans_file": spans_path.relative_to(ctx.root).as_posix(),
             "untraced_targets": tracer.missing}
    return metrics, units, extra


def _traced(tracer, fn):
    """Call ``fn`` with the tracer's spans installed, as one traced operation."""
    tracer.op += 1
    tracer.install()
    try:
        return fn()
    finally:
        tracer.uninstall()


def _tally(units: dict) -> tuple[dict, list]:
    """Per-family counts, and the failures no known defect explains.

    A failure whose class names only ROADMAP item-4 defects, on inputs that
    predict them, is ``known_defect``: it stays in ``fail_frac`` and here,
    but is not a failed operation of the run. Any other failure is.
    """
    breakdown, unexplained = {}, []
    for name, us in units.items():
        classes, known = {}, 0
        for u in us:
            for cls, message in u.failures:
                classes[cls] = classes.get(cls, 0) + 1
                if all(part in KNOWN_DEFECTS for part in cls.split("+")):
                    known += 1
                else:
                    unexplained.append(f"{name}: {message}")
        breakdown[name] = {
            "attempted": sum(u.attempted for u in us),
            "failed": sum(len(u.failures) for u in us),
            "known_defect": known,
            "failed_by_class": classes,
        }
    return breakdown, unexplained


def _environment(seed: int) -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": caches,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("reproduce", "sweep", "recalibrate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "enerscale" / "__init__.py").is_file():
        print(f"no enerscale sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ctx = Ctx.create(ROOT, work)
        families = _families(ctx, args.seed)
        families["reproduce"].prepare()
        if args.trace:
            metrics, units, extra = traced_run(ctx, args.workload, families, args.seed)
        else:
            metrics, units, extra = timed_run(ctx, args.workload, args.seconds, families)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    breakdown, unexplained = _tally(units)
    for line in unexplained[:10]:
        print(f"unexplained failure: {line}", file=sys.stderr)
    attempted = sum(b["attempted"] for b in breakdown.values())
    info = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": _environment(args.seed), "families": breakdown, **extra,
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not unexplained,
        "attempted": attempted,
        "failed": len(unexplained),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
