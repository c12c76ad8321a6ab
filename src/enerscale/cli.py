"""Command-line surface: ingest -> reconstruct -> analyze -> project.

Usage
-----
```bash
enerscale ingest --out-dir out/canonical          # bundled manifest
enerscale ingest --manifest my_manifest.json --out-dir out/canonical
enerscale reconstruct --out-dir out/recon
enerscale calibrate
enerscale tables --table 2 --out-dir out/tables
enerscale project --preset paper-2017 --eta-c 0 --horizon 40 --out out/traj.csv
enerscale project --curve --lambda-gw 5.9 --c0 0.018 --from-w 100 --to-w 5000 --out out/curve.csv
enerscale report --out-dir out/report
```

Exit codes: 0 success, 1 runtime error, 2 validation failure, 64 usage error.
Every run that writes files also writes a JSON manifest (command line,
parameters, input checksums, version, outputs); ``calibrate`` without
``--out`` only prints and writes nothing. Identical manifests reproduce
byte-identical outputs, so run manifests carry no timestamps. All numeric
output uses shortest round-trip decimal formatting.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
from pathlib import Path
from typing import Iterable, Sequence

# Model modules are imported inside the command that uses them, so each
# process loads only what its subcommand needs.
from . import __version__, datasets
from .errors import DomainError, EnerscaleError, ParseError
from .records import Record

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2
EXIT_USAGE = 64


class UsageError(Exception):
    """Raised for malformed command lines; mapped to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _json_text(payload, path) -> str:
    """The CLI's one JSON format: 2-space indent, sorted keys, trailing newline.

    A NaN or an infinity fails with ``DomainError`` naming ``path`` and its key."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        pending = [("", payload)]
        while pending:
            key, value = pending.pop()
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"refusing to write {value!r} to {path}: key {key}") from None
            if isinstance(value, dict):
                pending.extend((f"{key}.{k}" if key else str(k), v) for k, v in value.items())
            elif isinstance(value, (list, tuple)):
                pending.extend((f"{key}[{i}]", v) for i, v in enumerate(value))
        raise


class RunManifest(Record):
    """Reproducibility record of one command, and the writer of all its files.

    Unlike the package's other records it is mutable (and so unhashable).
    ``write_text``, ``write_json`` and ``write_rows`` make the parent
    directory, write UTF-8 with LF line ends, record the path as an output
    and return it; ``write`` writes the manifest itself. ``write_json``,
    ``write_rows`` and ``write`` refuse a NaN or an infinity with ``DomainError``.
    """

    __slots__ = _fields = ("command", "parameters", "version", "inputs", "outputs")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
    command: list[str]
    parameters: dict
    version: str
    inputs: dict[str, str]
    outputs: list[str]

    def __init__(
        self,
        command: list[str],
        parameters: dict,
        version: str = __version__,
        inputs: dict[str, str] | None = None,
        outputs: list[str] | None = None,
    ) -> None:
        super().__init__(command, parameters, version,
                         {} if inputs is None else inputs, [] if outputs is None else outputs)

    def add_input(self, path: Path) -> None:
        self.inputs[str(path)] = hashlib.sha256(path.read_bytes()).hexdigest()

    def add_series_inputs(self, manifest_path: Path | None = None) -> None:
        """Checksum a series manifest (default: the bundled snapshot's) and every file it names."""
        from .ingestion import load_manifest

        path = datasets.manifest_path() if manifest_path is None else manifest_path
        self.add_input(path)
        for entry in load_manifest(path).values():
            self.add_input(entry.descriptor.path)

    def add_output(self, path: Path) -> Path:
        if str(path) not in self.outputs:
            self.outputs.append(str(path))
        return path

    @staticmethod
    def _save(path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="")

    def write_text(self, path: Path, text: str) -> Path:
        self._save(path, text)
        return self.add_output(path)

    def write_json(self, path: Path, payload) -> Path:
        return self.write_text(path, _json_text(payload, path))

    def write_rows(self, path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
        rows = list(rows)
        for row_number, row in enumerate(rows, 2):  # the header is row 1, as on input
            for name, cell in zip(header, row):
                if isinstance(cell, float) and not math.isfinite(cell):
                    raise DomainError(
                        f"refusing to write {cell!r} to {path}: row {row_number}, column {name}"
                    )
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)  # floats are written as their shortest round-trip repr
        return self.write_text(path, buffer.getvalue())

    def write(self, path: Path) -> Path:
        """Write the manifest, which lists the outputs recorded so far but not itself."""
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "version": self.version,
            "inputs": self.inputs,
            "outputs": sorted(self.outputs),
        }
        self._save(path, _json_text(payload, path))
        return path


#: The four runs of ``project``: from ``--preset`` or explicit initial conditions, each
#: a trajectory or the committed curve (``--curve``).
_PT, _ET, _PC, _EC = "preset trajectory", "explicit trajectory", "preset curve", "explicit curve"

#: ``project``'s optional flags: flag -> (type, parser default, help, the runs that read it);
#: a ``bool`` flag is a switch. A flag set away from its default that the run does not read
#: is a usage error.
_PROJECT_FLAGS = {
    "--preset": (str, None, "named initial conditions, e.g. paper-2017", (_PT, _PC)),
    "--eta-c": (float, 0.0, "carbonization trend, 1/yr", (_PT, _ET)),
    "--eta-w": (float, None, "wealth growth rate, 1/yr (default 0.024)", (_PT, _ET)),
    "--horizon": (float, 40.0, "years to project", (_PT, _ET)),
    "--dt": (float, 0.25, "time step, years", (_PT, _ET)),
    "--w0": (float, None, "initial wealth, T$2010", (_ET,)),
    "--lambda-gw": (float, None, "scaling, GW per T$2010", (_ET, _EC)),
    "--c0": (float, None, "carbonization, GtC/EJ", (_ET, _EC)),
    "--delta0": (float, None, "initial concentration perturbation, ppmv", (_ET,)),
    "--sigma": (float, 0.023, "sink rate, 1/yr", (_PT, _ET, _PC, _EC)),
    "--start-year": (float, float(datasets.PRESET_START_YEAR), "first year, CE", (_ET,)),
    "--spinup": (bool, False, "integrate the observed emissions record for delta0", (_PT,)),
    "--curve": (bool, False, "emit the committed-equilibrium curve", (_PC, _EC)),
    "--from-w": (float, 100.0, "first wealth on the curve, T$2010", (_PC, _EC)),
    "--to-w": (float, 5000.0, "last wealth on the curve, T$2010", (_PC, _EC)),
    "--points": (int, 50, "points on the curve", (_PC, _EC)),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="enerscale", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_ingest = sub.add_parser("ingest", help="validate a manifest of series into canonical CSVs")
    p_ingest.add_argument("--manifest", type=Path, default=None,
                          help="series manifest (default: bundled snapshot)")
    p_ingest.add_argument("--out-dir", type=Path, required=True)

    p_recon = sub.add_parser("reconstruct", help="infill historical production and accumulate wealth")
    p_recon.add_argument("--out-dir", type=Path, required=True)

    p_cal = sub.add_parser("calibrate", help="report the PPP/MER ratio and initial wealth")
    p_cal.add_argument("--pop-growth", type=float, default=5.9e-4,
                       help="ancient population growth rate, 1/yr")
    p_cal.add_argument("--out", type=Path, default=None, help="optional JSON output path")

    p_tab = sub.add_parser("tables", help="reproduce a summary table")
    p_tab.add_argument("--table", type=int, choices=range(1, 6), required=True,
                       help="table number, 1-5")
    p_tab.add_argument("--data-dir", type=Path, default=None,
                       help="directory with reconstruct outputs (default: recompute)")
    p_tab.add_argument("--out-dir", type=Path, default=Path("."))

    p_proj = sub.add_parser("project", help="run a forward scenario or the committed curve")
    for flag, (kind, default, text, _) in _PROJECT_FLAGS.items():
        if kind is bool:
            p_proj.add_argument(flag, action="store_true", help=text)
        else:
            p_proj.add_argument(flag, type=kind, default=default, help=text)
    p_proj.add_argument("--out", type=Path, required=True)

    p_rep = sub.add_parser("report", help="headline quantities as JSON plus aligned text")
    p_rep.add_argument("--out-dir", type=Path, required=True)
    return parser


def _cmd_ingest(args, manifest: RunManifest) -> int:
    from .ingestion import load_manifest, load_series, validate, write_series

    manifest_path = args.manifest if args.manifest is not None else datasets.manifest_path()
    entries = load_manifest(manifest_path)
    out_dir: Path = args.out_dir
    any_invalid = False
    for name, entry in sorted(entries.items()):
        series = load_series(entry.descriptor)
        report = validate(series, require_contiguous=entry.contiguous)
        manifest.add_output(write_series(series, out_dir / f"{name}.csv"))
        manifest.write_json(out_dir / f"{name}.validation.json", report.to_dict())
        if not report.is_empty():
            any_invalid = True
            print(f"validation failure in {name}: gaps={list(report.gaps)}", file=sys.stderr)
    manifest.add_series_inputs(manifest_path)
    manifest.write(out_dir / "run_manifest.json")
    return EXIT_VALIDATION if any_invalid else EXIT_OK


def _cmd_reconstruct(args, manifest: RunManifest) -> int:
    from .ingestion import write_series

    manifest.add_series_inputs()
    recon = datasets.baseline()
    out_dir: Path = args.out_dir
    manifest.add_output(write_series(recon.gdp, out_dir / "gdp_annual.csv", value_column="gdp"))
    manifest.add_output(
        write_series(recon.wealth.series, out_dir / "wealth.csv", value_column="wealth")
    )
    manifest.write_json(out_dir / "reconstruction.json", {
        "w1_tusd": recon.w1.value,
        "kappa_x": recon.ratio.value,
        "kappa_x_window": [recon.ratio.window.start_year, recon.ratio.window.end_year],
        "spline_knot_years": list(recon.spline_knot_years),
        "method": recon.wealth.method,
    })
    manifest.write(out_dir / "run_manifest.json")
    return EXIT_OK


def _cmd_calibrate(args, manifest: RunManifest) -> int:
    from .reconstruction import calibrate_initial_wealth, calibrate_initial_wealth_iterative

    recon = datasets.baseline()
    closed = calibrate_initial_wealth(recon.gdp, args.pop_growth)
    iterative = calibrate_initial_wealth_iterative(recon.gdp, args.pop_growth)
    text = _json_text({
        "kappa_x": recon.ratio.value,
        "pop_growth": args.pop_growth,
        "w1_closed_form_tusd": closed.value,
        "w1_iterative_tusd": iterative.value,
        "production_year1_tusd": recon.gdp.value_at(1),
    }, "standard output" if args.out is None else args.out)
    print(text, end="")
    if args.out is not None:
        manifest.add_series_inputs()
        manifest.write_text(args.out, text)
        manifest.write(args.out.with_suffix(".manifest.json"))
    return EXIT_OK


def _integral_years(values) -> tuple[int, ...]:
    """A JSON list of years as ints; ValueError if one is not integral.

    1970.0 is read as 1970; 1970.9, "1970" and Infinity are rejected.
    """
    years = tuple(map(int, values))
    if years != tuple(values):
        raise ValueError(f"years must be integers, got {values!r}")
    return years


def _tables_inputs(data_dir: Path | None, manifest: RunManifest):
    """Snapshot plus either recomputed or on-disk reconstruction outputs."""
    from .ingestion import canonical_descriptor, json_field, load_series
    from .reconstruction import PppMerRatio, ReconstructionResult, WealthSeries
    from .series import Period, SeriesKind
    from .units import Quantity, Unit

    snapshot = datasets.load_snapshot()
    manifest.add_series_inputs()
    if data_dir is None:
        return snapshot, datasets.baseline()
    for required in ("gdp_annual.csv", "wealth.csv", "reconstruction.json"):
        if not (data_dir / required).exists():
            raise EnerscaleError(
                f"missing reconstruction output {data_dir / required}; run `enerscale reconstruct`"
            )
        manifest.add_input(data_dir / required)
    gdp = load_series(canonical_descriptor(data_dir / "gdp_annual.csv",
                                           SeriesKind.GDP_MER, Unit.TUSD_PER_YR, "gdp"))
    wealth_series = load_series(canonical_descriptor(data_dir / "wealth.csv",
                                                     SeriesKind.WEALTH, Unit.TUSD, "wealth"))
    prov_path = data_dir / "reconstruction.json"
    try:
        prov = json.loads(prov_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{prov_path} is not valid JSON: {exc}") from None
    field = functools.partial(json_field, str(prov_path), prov)
    wealth = WealthSeries(
        series=wealth_series,
        w1=Quantity(field("w1_tusd", float), Unit.TUSD),
        method=prov.get("method", "loaded from disk"),
    )
    window = field("kappa_x_window", lambda years: Period(*_integral_years(years)))
    recon = ReconstructionResult(
        gdp=gdp,
        wealth=wealth,
        ratio=PppMerRatio(field("kappa_x", float), window),
        spline_knot_years=field("spline_knot_years", _integral_years, ()),
    )
    return snapshot, recon


def _record_reconstruction(manifest: RunManifest, recon) -> None:
    """Record the run's kappa_x and W(1), keyed as in ``reconstruction.json``."""
    manifest.parameters["reconstruction"] = {
        "kappa_x": recon.ratio.value,
        "w1_tusd": recon.w1.value,
    }


def _cmd_tables(args, manifest: RunManifest) -> int:
    from . import tables

    snapshot, recon = _tables_inputs(args.data_dir, manifest)
    _record_reconstruction(manifest, recon)
    result = tables.build_table(args.table, snapshot, recon)
    stem = args.out_dir / f"table{args.table}"
    manifest.write_rows(stem.with_suffix(".csv"), result.header, result.rows)
    text = tables.render_text(result)
    manifest.write_text(stem.with_suffix(".txt"), text)
    print(text, end="")
    manifest.write(stem.with_suffix(".manifest.json"))
    return EXIT_OK


def _cmd_project(args, manifest: RunManifest) -> int:
    from .carbon import CarbonCycleParams
    from .projection import MAX_GRID_POINTS, Scenario, committed_curve, run_scenario, time_grid
    from .units import Quantity, Unit

    run = (_EC if args.curve else _ET) if args.preset is None else (_PC if args.curve else _PT)
    given = {flag: getattr(args, flag[2:].replace("-", "_")) for flag in _PROJECT_FLAGS}
    unread = [flag for flag, (_, default, _, runs) in _PROJECT_FLAGS.items()
              if run not in runs and given[flag] != default]
    if unread:
        raise UsageError(f"{run} runs do not read {', '.join(unread)}")
    missing = [flag for flag in ("--w0", "--lambda-gw", "--c0", "--delta0")
               if run in _PROJECT_FLAGS[flag][3] and given[flag] is None]
    if missing:
        raise UsageError(f"{run} runs need {', '.join(missing)}, or --preset")
    out: Path = args.out
    params = CarbonCycleParams(sigma=args.sigma)
    eta_w = args.eta_w if args.eta_w is not None else datasets.PRESET_GROWTH
    if args.preset is not None:
        # A curve reads only lambda_gw and c0: its unread flags are at preset_scenario's defaults.
        try:
            scenario = datasets.preset_scenario(
                args.preset, eta_c=args.eta_c, eta_w=eta_w,
                horizon_years=args.horizon, dt=args.dt,
                carbon_params=params, spinup=args.spinup,
            )
        except KeyError as exc:
            raise UsageError(str(exc)) from None
    elif not args.curve:
        scenario = Scenario(
            start_year=args.start_year,
            horizon_years=args.horizon,
            w0=args.w0,
            lambda_gw=args.lambda_gw,
            c0=args.c0,
            eta_w=eta_w,
            eta_c=args.eta_c,
            delta0=args.delta0,
            carbon_params=params,
            dt=args.dt,
        )
    if args.curve:
        source = args if args.preset is None else scenario
        recorded = {"lambda_gw": source.lambda_gw, "c0": source.c0}
        not_finite = [flag for flag, value in (("--from-w", args.from_w), ("--to-w", args.to_w))
                      if not math.isfinite(value)]
        if not_finite:
            raise EnerscaleError(f"curve bounds must be finite: {', '.join(not_finite)}")
        if args.from_w <= 0 or args.to_w <= args.from_w or not 2 <= args.points <= MAX_GRID_POINTS:
            raise EnerscaleError(f"curve needs 0 < from-w < to-w and 2 to {MAX_GRID_POINTS} points")
        step = (args.to_w - args.from_w) / (args.points - 1)
        w_values = [args.from_w + i * step for i in range(args.points)]
        pairs = committed_curve(
            w_values,
            Quantity(source.lambda_gw, Unit.GW_PER_TUSD),
            Quantity(source.c0, Unit.GTC_PER_EJ),
            params,
        )
        rows = [(w, d, params.preindustrial + d) for w, d in pairs]
        header = ("wealth_tusd", "committed_delta_ppmv", "committed_concentration_ppmv")
        manifest.write_rows(out, header, rows)
    else:
        trajectory = run_scenario(scenario)
        n_steps, step = time_grid(scenario.horizon_years, scenario.dt)
        manifest.parameters["grid"] = {
            "steps": n_steps,
            "dt": step,
            "horizon_years": trajectory.years[-1] - scenario.start_year,
        }
        header = (
            "year", "wealth_tusd", "energy_ej_per_yr", "emissions_gtc_per_yr", "delta_co2_ppmv",
            "committed_delta_ppmv", "concentration_ppmv", "committed_concentration_ppmv",
        )
        manifest.write_rows(out, header, trajectory)
        recorded = {name: getattr(scenario, name)
                    for name in scenario._fields if name != "carbon_params"}
    manifest.parameters["scenario"] = {
        **recorded,
        "sigma": params.sigma,
        "kappa_a": params.kappa_a,
        "preindustrial": params.preindustrial,
    }
    if args.preset is not None:
        manifest.add_series_inputs()
    manifest.write(out.with_suffix(out.suffix + ".manifest.json"))
    return EXIT_OK


def _cmd_report(args, manifest: RunManifest) -> int:
    from .projection import halving_time, required_clean_capacity, run_scenario
    from .scaling import scaling_series, scaling_stats
    from .series import Period
    from .units import Quantity, Unit

    snapshot = datasets.load_snapshot()
    recon = datasets.baseline()
    _record_reconstruction(manifest, recon)
    lam = scaling_series(snapshot.energy, recon.wealth)
    stats = scaling_stats(lam, Period(1980, 2017))
    w2017 = recon.wealth.series.value_at(2017)
    gdp_by_year = dict(zip(recon.gdp.years, recon.gdp.values))
    scenario = datasets.preset_scenario()
    trajectory = run_scenario(scenario)
    crossing = trajectory.first_crossing(2.0 * scenario.carbon_params.preindustrial)
    capacity = required_clean_capacity(
        Quantity(snapshot.energy.value_at(2017), Unit.EJ_PER_YR), datasets.PRESET_GROWTH
    )
    payload = {
        "scaling_mean_gw_per_tusd": stats.mean.value,
        "scaling_std": stats.std.value,
        "scaling_ci95_halfwidth": stats.ci95_halfwidth.value,
        "scaling_trend_per_yr": stats.trend_per_year,
        "w1_tusd": recon.w1.value,
        "wealth_2017_tusd": w2017,
        "share_first_millennium": sum(v for y, v in gdp_by_year.items() if y <= 1000) / w2017,
        "share_1980_2017": sum(v for y, v in gdp_by_year.items() if y >= 1980) / w2017,
        "committed_concentration_2017_ppmv": trajectory[0].committed_concentration,
        "committed_doubling_year": crossing,
        "committed_concentration_2040_ppmv": trajectory.at_year(2040.0).committed_concentration,
        "halving_time_yr": halving_time(scenario.carbon_params),
        "clean_capacity_gw_per_yr": capacity.gw_per_year,
        "clean_capacity_gw_per_day": capacity.gw_per_day,
    }
    manifest.add_series_inputs()
    manifest.write_json(args.out_dir / "report.json", payload)
    width = max(len(k) for k in payload)
    lines = [f"{k.ljust(width)}  {v}" for k, v in sorted(payload.items())]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    manifest.write(args.out_dir / "run_manifest.json")
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "reconstruct": _cmd_reconstruct,
    "calibrate": _cmd_calibrate,
    "tables": _cmd_tables,
    "project": _cmd_project,
    "report": _cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        manifest = RunManifest(
            command=["enerscale"] + argv,
            parameters={k: str(v) for k, v in vars(args).items() if k != "subcommand"},
        )
        return _COMMANDS[args.subcommand](args, manifest)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EnerscaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def console_main() -> None:
    """Exit with ``main``'s code, the heap frozen so shutdown collections walk nothing.

    atexit handlers and stream flushes still run; in-process ``main`` never freezes."""
    code = main()
    import gc  # here, so that `import enerscale.cli` alone does not load it

    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    console_main()
