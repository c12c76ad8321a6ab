"""The ``reproduce`` family: the paper's CLI command list, one fresh process per command.

Each invocation is checked three ways: exit status 0; every numeric cell of
its CSV and JSON outputs (and of JSON printed to stdout) within 1e-12
relative of ``reference.json``; and every output byte-identical to the first
invocation of the same command in the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import time
from pathlib import Path

from common import UNEXPLAINED, Ctx, Unit, fresh_process, rel_close, speed_kernel

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_TOL = 1e-12


def commands(out: Path, fixture: Path) -> dict[str, list[str]]:
    """Command key -> enerscale argv, writing under ``out / key``."""
    cmds = {
        "ingest": ["ingest", "--out-dir", "{d}"],
        "reconstruct": ["reconstruct", "--out-dir", "{d}"],
        "calibrate": ["calibrate"],
        **{f"tables-{n}": ["tables", "--table", str(n), "--out-dir", "{d}"] for n in range(1, 6)},
        "tables-3-data-dir": ["tables", "--table", "3", "--data-dir", str(fixture), "--out-dir", "{d}"],
        "project": ["project", "--preset", "paper-2017", "--out", "{d}/trajectory.csv"],
        "project-curve": ["project", "--preset", "paper-2017", "--curve", "--out", "{d}/curve.csv"],
        "project-spinup": ["project", "--preset", "paper-2017", "--spinup", "--out", "{d}/spinup.csv"],
        "report": ["report", "--out-dir", "{d}"],
    }
    return {key: [a.replace("{d}", str(out / key)) for a in argv] for key, argv in cmds.items()}


def _flatten(value, prefix: str = "") -> dict:
    if isinstance(value, dict):
        out = {}
        for k in sorted(value):
            out.update(_flatten(value[k], f"{prefix}/{k}"))
        return out
    if isinstance(value, list):
        out = {}
        for i, v in enumerate(value):
            out.update(_flatten(v, f"{prefix}/{i}"))
        return out
    return {prefix: value}


def parse_outputs(out_dir: Path, stdout: bytes) -> dict:
    """Every checked output: CSV rows, JSON leaves, and JSON printed to stdout.

    Run manifests are skipped: they hold output paths, which depend on where
    the benchmark runs. Aligned-text views are rounded copies of the CSVs and
    are covered by the byte-identity check.
    """
    parsed = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        name = path.relative_to(out_dir).as_posix()
        if name.endswith("manifest.json"):
            continue
        if path.suffix == ".csv":
            parsed[name] = path.read_text(encoding="utf-8").splitlines()
        elif path.suffix == ".json":
            parsed[name] = _flatten(json.loads(path.read_text(encoding="utf-8")))
    text = stdout.decode("utf-8")
    if text.lstrip().startswith("{"):
        parsed["<stdout>"] = _flatten(json.loads(text))
    return parsed


def _cells_match(got, want) -> bool:
    if isinstance(want, str) and isinstance(got, str):
        try:
            return rel_close(float(got), float(want), REFERENCE_TOL)
        except ValueError:
            return got == want
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return got == want
    if isinstance(got, (int, float)) and not isinstance(got, bool):
        return rel_close(float(got), float(want), REFERENCE_TOL)
    return False


def compare(parsed: dict, reference: dict) -> list[str]:
    """Mismatches between parsed outputs and their reference, as messages."""
    problems = []
    if sorted(parsed) != sorted(reference):
        return [f"output files {sorted(parsed)} != reference {sorted(reference)}"]
    for name, want in reference.items():
        got = parsed[name]
        if isinstance(want, dict):
            if sorted(got) != sorted(want):
                problems.append(f"{name}: keys differ")
                continue
            bad = [k for k in want if not _cells_match(got[k], want[k])]
        else:
            got_rows = [row.split(",") for row in got]
            want_rows = [row.split(",") for row in want]
            if len(got_rows) != len(want_rows) or any(
                    len(a) != len(b) for a, b in zip(got_rows, want_rows)):
                problems.append(f"{name}: shape differs")
                continue
            bad = [
                f"row {i} col {j}"
                for i, (ra, rb) in enumerate(zip(got_rows, want_rows))
                for j, (a, b) in enumerate(zip(ra, rb))
                if not _cells_match(a, b)
            ]
        if bad:
            problems.append(f"{name}: {len(bad)} cells differ, first {bad[0]}")
    return problems


def _digest(out_dir: Path, stdout: bytes) -> str:
    h = hashlib.sha256(stdout)
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _reset(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


class Reproduce:
    """Fresh-process CLI rounds; the seed only shuffles the order within each round."""

    name = "reproduce"

    def __init__(self, ctx: Ctx, seed: int) -> None:
        self.ctx = ctx
        self.rng = random.Random(seed)
        self.out = ctx.work / "reproduce"
        self.fixture = ctx.work / "recon-fixture"
        self.cmds = commands(self.out, self.fixture)
        self.reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
        self.digests: dict[str, str] = {}

    def prepare(self) -> None:
        """Write the reconstruct outputs that ``tables --data-dir`` reads.

        This also compiles the package's bytecode, so no timed run pays for it.
        """
        _reset(self.fixture)
        _, proc = fresh_process(self.ctx, ["-m", "enerscale", "reconstruct", "--out-dir", str(self.fixture)])
        if proc.returncode != 0:
            raise RuntimeError(f"reconstruct fixture failed: {proc.stderr.decode(errors='replace')}")

    def run_unit(self) -> Unit:
        unit = Unit()
        order = list(self.cmds)
        self.rng.shuffle(order)
        for key in order:
            out_dir = self.out / key
            _reset(out_dir)
            kernel_s = speed_kernel()
            ms, proc = fresh_process(self.ctx, ["-m", "enerscale", *self.cmds[key]])
            unit.attempted += 1
            unit.elapsed_s += ms / 1e3
            unit.latencies_ms.append((ms, kernel_s))
            problem = self._check(key, out_dir, proc)
            if problem:
                unit.fail(UNEXPLAINED, f"{key}: {problem}")
        unit.work = unit.attempted
        return unit

    def _check(self, key: str, out_dir: Path, proc) -> str | None:
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"
        digest = _digest(out_dir, proc.stdout)
        if key in self.digests:
            if digest != self.digests[key]:
                return "outputs differ from the first invocation in this run"
            return None
        self.digests[key] = digest
        return self._check_reference(key, out_dir, proc.stdout)

    def _check_reference(self, key: str, out_dir: Path, stdout: bytes) -> str | None:
        problems = compare(parse_outputs(out_dir, stdout), self.reference[key])
        return "; ".join(problems[:3]) if problems else None

    def run_inprocess(self, cli, caches) -> tuple[Unit, dict, int]:
        """Call ``cli.main`` once per command in this process, ``caches`` cleared first.

        Returns the checked unit, wall ms per command and the bytes written to disk.
        """
        unit, times, written = Unit(), {}, 0
        out = self.ctx.work / "inprocess"
        for key, argv in commands(out, self.fixture).items():
            out_dir = out / key
            _reset(out_dir)
            for fn in caches:
                fn.cache_clear()
            stdout, stderr = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            times[key] = (time.perf_counter() - t0) * 1e3
            unit.attempted += 1
            unit.elapsed_s += times[key] / 1e3
            problem = (f"exit {code}: {stderr.getvalue()[-300:]}" if code != 0
                       else self._check_reference(key, out_dir, stdout.getvalue().encode()))
            if problem:
                unit.fail(UNEXPLAINED, f"in-process {key}: {problem}")
            written += sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        unit.work = unit.attempted
        return unit, times, written



