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
Each subcommand is one entry of ``_COMMANDS``, run by ``main``: the run calls
the library (``report``: ``datasets.headline()``), writes its files through a
``RunManifest`` and returns its text and exit code; ``main`` prints the text,
then writes the JSON manifest (command line, parameters, input checksums,
version, outputs) where the entry's rule puts it. The checksums are SHA-256 from
the interpreter's built-in module, or from ``hashlib`` where there is none;
either gives the same digests. ``calibrate`` without ``--out`` writes no file
and no manifest. Identical manifests reproduce byte-identical outputs, so
manifests carry no timestamps. All numeric output uses shortest round-trip
decimal formatting.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path
from typing import Iterable, Sequence

# The interpreter's own SHA-256: `import hashlib` would initialise OpenSSL (several
# milliseconds of every process) to checksum a few kilobytes. The digests are the same.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # an interpreter built without them
        from hashlib import sha256

# Model modules are imported inside the command that uses them, so each
# process loads only what its subcommand needs.
from . import __version__, datasets
from .errors import DomainError, EnerscaleError

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


class RunManifest:
    """Reproducibility record of one command, and the writer of all its files.

    ``inputs`` (path -> SHA-256) and ``outputs`` start empty and fill as the run goes.
    ``write_text``, ``write_json`` and ``write_rows`` make the parent
    directory, write UTF-8 with LF line ends, record the path as an output
    and return it; ``write`` writes the manifest itself. ``write_json``,
    ``write_rows`` and ``write`` refuse a NaN or an infinity with ``DomainError``.
    """

    __slots__ = ("command", "parameters", "inputs", "outputs")

    def __init__(self, command: list[str], parameters: dict) -> None:
        self.command = command
        self.parameters = parameters
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []

    def add_input(self, path: Path) -> None:
        self.inputs[str(path)] = sha256(path.read_bytes()).hexdigest()

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
        self._save(path, _json_text({
            "command": self.command,
            "parameters": self.parameters,
            "version": __version__,
            "inputs": self.inputs,
            "outputs": sorted(self.outputs),
        }, path))
        return path


_REQUIRED = object()  # the default of a flag the command line must give

#: The four runs of ``project``: from ``--preset`` or explicit initial conditions, each
#: a trajectory or the committed curve (``--curve``).
_PT, _ET, _PC, _EC = "preset trajectory", "explicit trajectory", "preset curve", "explicit curve"

#: A subcommand's flags: flag -> (type, parser default, help[, the runs that read it]). The
#: type is ``bool`` for a switch, or the values the flag takes (the first gives the type).
#: A flag of ``project`` set away from its default that the run does not read is a usage error.
_PROJECT_FLAGS = {
    "--preset": (datasets.PRESETS, None, "named initial conditions", (_PT, _PC)),
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


def _build_parser(names: Iterable[str]) -> _Parser:
    """The parser of the subcommands ``names``; each flag costs argparse a formatter."""
    parser = _Parser(prog="enerscale", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in names:
        text, flags, _, _ = _COMMANDS[name]
        command = sub.add_parser(name, help=text)
        for flag, (kind, default, help_text, *_) in flags.items():
            if kind is bool:
                command.add_argument(flag, action="store_true", help=help_text)
                continue
            choices = None if isinstance(kind, type) else kind
            command.add_argument(flag, type=kind if choices is None else type(choices[0]),
                                 choices=choices, default=default,
                                 required=default is _REQUIRED, help=help_text)
    return parser


def _cmd_ingest(args, manifest: RunManifest) -> tuple[str, int]:
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
    return "", EXIT_VALIDATION if any_invalid else EXIT_OK


def _cmd_reconstruct(args, manifest: RunManifest) -> tuple[str, int]:
    from .ingestion import write_series
    from .reconstruction import RECONSTRUCTION_CSVS, RECONSTRUCTION_JSON, reconstruction_payload

    manifest.add_series_inputs()
    recon = datasets.baseline()
    out_dir: Path = args.out_dir
    for (name, _, _, column), series in zip(RECONSTRUCTION_CSVS, (recon.gdp, recon.wealth.series)):
        manifest.add_output(write_series(series, out_dir / name, value_column=column))
    manifest.write_json(out_dir / RECONSTRUCTION_JSON, reconstruction_payload(recon))
    return "", EXIT_OK


def _cmd_calibrate(args, manifest: RunManifest) -> tuple[str, int]:
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
    if args.out is not None:
        manifest.add_series_inputs()
        manifest.write_text(args.out, text)
    return text, EXIT_OK


def _record_reconstruction(manifest: RunManifest, recon) -> None:
    """Record the run's kappa_x and W(1), keyed as in its ``reconstruction_payload``."""
    from .reconstruction import reconstruction_payload

    payload = reconstruction_payload(recon)
    manifest.parameters["reconstruction"] = {key: payload[key] for key in ("kappa_x", "w1_tusd")}


def _cmd_tables(args, manifest: RunManifest) -> tuple[str, int]:
    from . import tables
    from .reconstruction import RECONSTRUCTION_FILES, load_reconstruction

    snapshot = datasets.load_snapshot()
    manifest.add_series_inputs()
    if args.data_dir is None:
        recon = datasets.baseline()
    else:
        recon = load_reconstruction(args.data_dir)
        for name in RECONSTRUCTION_FILES:
            manifest.add_input(args.data_dir / name)
    _record_reconstruction(manifest, recon)
    result = tables.build_table(args.table, snapshot, recon)
    stem = args.out_dir / f"table{args.table}"
    manifest.write_rows(stem.with_suffix(".csv"), result.header, result.rows)
    text = tables.render_text(result)
    manifest.write_text(stem.with_suffix(".txt"), text)
    return text, EXIT_OK


def _cmd_project(args, manifest: RunManifest) -> tuple[str, int]:
    from .carbon import CarbonCycleParams
    from .projection import Scenario, committed_curve, curve_grid, run_scenario, time_grid
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
        scenario = datasets.preset_scenario(
            args.preset, eta_c=args.eta_c, eta_w=eta_w,
            horizon_years=args.horizon, dt=args.dt,
            carbon_params=params, spinup=args.spinup,
        )
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
        pairs = committed_curve(
            curve_grid(args.from_w, args.to_w, args.points),
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
    return "", EXIT_OK


def _cmd_report(args, manifest: RunManifest) -> tuple[str, int]:
    _record_reconstruction(manifest, datasets.baseline())
    payload = datasets.headline()
    manifest.add_series_inputs()
    manifest.write_json(args.out_dir / "report.json", payload)
    width = max(len(k) for k in payload)
    lines = [f"{k.ljust(width)}  {v}" for k, v in sorted(payload.items())]
    return "\n".join(lines) + "\n", EXIT_OK


_OUT_DIR = (Path, _REQUIRED, "output directory")


def _in_out_dir(args) -> Path:
    return args.out_dir / "run_manifest.json"


#: subcommand -> (help, flags, run, manifest rule). ``run(args, manifest)`` writes its files
#: through the manifest and returns (text to print, exit code); the rule gives the manifest's
#: path from the parsed arguments, or None when the run writes no file.
_COMMANDS = {
    "ingest": ("validate a manifest of series into canonical CSVs", {
        "--manifest": (Path, None, "series manifest (default: bundled snapshot)"),
        "--out-dir": _OUT_DIR,
    }, _cmd_ingest, _in_out_dir),
    "reconstruct": ("infill historical production and accumulate wealth",
                    {"--out-dir": _OUT_DIR}, _cmd_reconstruct, _in_out_dir),
    "calibrate": ("report the PPP/MER ratio and initial wealth", {
        "--pop-growth": (float, 5.9e-4, "ancient population growth rate, 1/yr"),
        "--out": (Path, None, "optional JSON output path"),
    }, _cmd_calibrate, lambda a: None if a.out is None else a.out.with_suffix(".manifest.json")),
    "tables": ("reproduce a summary table", {
        "--table": (range(1, 6), _REQUIRED, "table number, 1-5"),
        "--data-dir": (Path, None, "directory with reconstruct outputs (default: recompute)"),
        "--out-dir": (Path, Path("."), "output directory"),
    }, _cmd_tables, lambda a: a.out_dir / f"table{a.table}.manifest.json"),
    "project": ("run a forward scenario or the committed curve", {
        **_PROJECT_FLAGS, "--out": (Path, _REQUIRED, "output CSV path"),
    }, _cmd_project, lambda a: a.out.with_name(a.out.name + ".manifest.json")),
    "report": ("headline quantities as JSON plus aligned text",
               {"--out-dir": _OUT_DIR}, _cmd_report, _in_out_dir),
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Only the named subcommand's parser is built; without one, all of them, so that
    # `--help` and the errors for a missing or unknown subcommand list every choice.
    parser = _build_parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)
    try:
        args = parser.parse_args(argv)
        _, _, run, manifest_path = _COMMANDS[args.subcommand]
        manifest = RunManifest(["enerscale"] + argv,
                               {k: str(v) for k, v in vars(args).items() if k != "subcommand"})
        text, code = run(args, manifest)
        print(text, end="")
        if (path := manifest_path(args)) is not None:
            manifest.write(path)
        return code
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
