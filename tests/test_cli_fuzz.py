"""Generated command lines and mutated input files through in-process ``cli.main``.

Whatever the argv or the input bytes, ``main`` must return (no exception
escapes it) one of the documented exit codes, and no number it writes, to a
file or to standard output, may be a NaN or an infinity.

Grids stay small. A scenario grid or spin-up of more than ``SMALL_WORK``
points that is still under ``projection.MAX_GRID_POINTS`` would be built, so
such argv are skipped, and ``--points`` is small or past the cap. Grids past
the cap are generated, since they are rejected before anything is allocated.
"""

import csv
import io
import json
import math
import re
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from enerscale import datasets
from enerscale.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, main
from enerscale.projection import MAX_GRID_POINTS

SMALL_WORK = 10**4
SPINUP_YEARS = 58  # 1959 up to the preset's 2017

#: Wild values for any numeric flag: non-finite, huge, tiny, signed zero, not numbers.
WILD = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-0", "oops"]),
    st.floats().map(repr),
)
#: A value each scenario flag accepts, within small grids.
PLAUSIBLE = {
    "--eta-c": st.floats(-0.05, 0.05), "--eta-w": st.floats(-0.05, 0.05),
    "--horizon": st.floats(0.5, 100.0), "--dt": st.floats(0.05, 1.0),
    "--sigma": st.floats(0.019, 0.027), "--from-w": st.floats(1.0, 1e3),
    "--to-w": st.floats(1e3, 1e4), "--start-year": st.floats(-1e4, 1e4),
    "--w0": st.floats(1.0, 1e4), "--lambda-gw": st.floats(1.0, 10.0),
    "--c0": st.floats(1e-3, 0.1), "--delta0": st.floats(0.0, 500.0),
}
INITIAL_FLAGS = ("--w0", "--lambda-gw", "--c0", "--delta0")
POINTS = st.one_of(st.integers(-3, 200), st.sampled_from([MAX_GRID_POINTS + 1, 10**40])).map(str)


@st.composite
def project_argv(draw):
    """A preset or an explicit run with up to two wild flags and the rest plausible or unset.

    An explicit run sets every initial condition; one preset run in eight may
    set some too, which is a usage error.
    """
    preset = draw(st.booleans())
    mixed = preset and draw(st.integers(0, 7)) == 0
    argv = ["project", "--preset", "paper-2017"] if preset else ["project"]
    wild = draw(st.sets(st.sampled_from(list(PLAUSIBLE)), max_size=2))
    for flag in PLAUSIBLE:
        if flag in wild:
            argv.append(f"{flag}={draw(WILD)}")
            continue
        if flag in INITIAL_FLAGS and not preset:
            given = True
        elif flag in INITIAL_FLAGS and not mixed:
            given = False
        else:
            given = draw(st.booleans())
        if given:
            argv.append(f"{flag}={draw(PLAUSIBLE[flag])!r}")
    argv += [flag for flag in ("--spinup", "--curve") if draw(st.booleans())]
    if draw(st.booleans()):
        argv.append(f"--points={draw(POINTS)}")
    return argv


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def grid_work(argv) -> float:
    """Most grid points or spin-up steps the run could build before a check stops it."""
    flags = dict(arg.split("=", 1) for arg in argv if "=" in arg)
    horizon, dt = _number(flags.get("--horizon", "40")), _number(flags.get("--dt", "0.25"))
    if not (dt > 0 and horizon > 0):
        return 0.0
    work = horizon / dt
    if "--spinup" in argv:
        work = max(work, SPINUP_YEARS / dt)
    return work


MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("bom")),
    st.tuples(st.just("nest")),
    st.tuples(st.just("oversized")),
    st.tuples(st.just("replace"), st.binary(max_size=64)),
)


def mutate(path: Path, mutation) -> None:
    data = path.read_bytes()
    kind, *args = mutation
    if kind == "flip":
        at = args[0] % len(data)
        data = data[:at] + bytes([args[1]]) + data[at + 1:]
    elif kind == "truncate":
        data = data[:args[0] % (len(data) + 1)]
    elif kind == "bom":
        data = b"\xef\xbb\xbf" + data
    elif kind == "nest":
        data = b"[" * 100_000
    elif kind == "oversized":
        data += b"2100," + b"9" * (csv.field_size_limit() + 1) + b"\n"
    else:
        data = args[0]
    path.write_bytes(data)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A copy of the bundled snapshot and a reconstruction output directory."""
    root = tmp_path_factory.mktemp("inputs")
    shutil.copytree(datasets.data_dir(), root / "snapshot")
    with redirect_stdout(io.StringIO()):
        assert main(["reconstruct", "--out-dir", str(root / "recon")]) == EXIT_OK
    return root


SNAPSHOT_FILES = sorted(p.name for p in datasets.data_dir().iterdir()
                        if p.suffix in {".csv", ".json"})
RECON_FILES = ["gdp_annual.csv", "wealth.csv", "reconstruction.json"]

RUNS = st.one_of(
    st.tuples(st.just("project"), project_argv()),
    st.tuples(st.just("calibrate"), st.tuples(WILD, st.booleans())),
    st.tuples(st.just("ingest"), st.tuples(st.sampled_from(SNAPSHOT_FILES), MUTATIONS)),
    st.tuples(st.just("tables"), st.tuples(st.integers(0, 6), st.sampled_from(RECON_FILES),
                                           MUTATIONS)),
)

NON_FINITE_TEXT = re.compile(r"(?<![\w.])[-+]?(nan|inf|infinity)(?!\w)", re.IGNORECASE)


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON number {name}")


def assert_finite_outputs(out: Path, stdout: str) -> None:
    """Every number in the files under ``out`` and in ``stdout`` is finite."""
    assert not NON_FINITE_TEXT.search(stdout), stdout
    for path in out.rglob("*"):
        if path.suffix == ".json":
            json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
        elif path.suffix == ".csv":
            with open(path, newline="", encoding="utf-8") as handle:
                for row in csv.reader(handle):
                    assert not any(NON_FINITE_TEXT.fullmatch(cell.strip()) for cell in row), path
        elif path.suffix == ".txt":
            assert not NON_FINITE_TEXT.search(path.read_text(encoding="utf-8")), path


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(run=RUNS)
@example(run=("project", ["project", "--w0=1e308", "--lambda-gw=1e308", "--c0=1", "--delta0=0",
                          "--horizon=1"]))
def test_generated_command_lines_exit_cleanly_with_finite_outputs(inputs, run):
    command, spec = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        if command == "project":
            argv = [*spec, "--out", str(out / "t.csv")]
            work = grid_work(argv)
            assume(not SMALL_WORK < work <= SPINUP_YEARS * MAX_GRID_POINTS)
        elif command == "calibrate":
            pop_growth, to_file = spec
            argv = ["calibrate", f"--pop-growth={pop_growth}"]
            argv += ["--out", str(out / "calibrate.json")] if to_file else []
        elif command == "ingest":
            name, mutation = spec
            shutil.copytree(inputs / "snapshot", tmp / "snapshot")
            mutate(tmp / "snapshot" / name, mutation)
            argv = ["ingest", "--manifest", str(tmp / "snapshot" / "manifest.json"),
                    "--out-dir", str(out)]
        else:
            table, name, mutation = spec
            shutil.copytree(inputs / "recon", tmp / "recon")
            mutate(tmp / "recon" / name, mutation)
            argv = ["tables", "--table", str(table), "--data-dir", str(tmp / "recon"),
                    "--out-dir", str(out)]
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in {EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, EXIT_USAGE}
        assert_finite_outputs(out, stdout.getvalue())
