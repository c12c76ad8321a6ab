"""Every function under ``src/enerscale/`` is reached by a subcommand, or named by what needs it.

The subcommand runs go through in-process ``cli.main`` under ``sys.setprofile``
and record the code object of every Python frame they enter; a code object is
matched to its ``def`` by file, first line and name, which every supported
Python has (``co_qualname`` is 3.11+). A ``def`` (every ``__init__`` included;
the other dunder hooks are called implicitly and left out) that none of the
runs enters must be on ``ALLOWED`` with what needs it, and an ``ALLOWED``
entry that a run reaches, or whose ``def`` is gone, is stale.
"""

import ast
import json
import sys
from pathlib import Path

import enerscale
from enerscale import cli

PACKAGE = Path(enerscale.__file__).parent

#: "<module>.<qualname>" of each def no subcommand reaches -> what needs it.
ALLOWED = {
    "projection.step_atmosphere": "criterion 07 (RK4's fourth order for any source)",
    "projection.AtmosphereState.__init__": "criterion 07 (the stepper's state)",
    "scaling.w1_sensitivity": "criterion 02 and the benchmark's recalibrate workload",
    "projection.max_carbonization_coefficient": "criterion 09",
    "projection.max_carbonization": "criterion 10",
    "projection.committed_equilibrium": "criterion 10 (the inverse pair with max_carbonization)",
    "growth.KayaComponents.residual": "criterion 10",
    "projection.steady_state_commitment": "the benchmark's sweep workload",
    "projection.Trajectory.points": "the benchmark's sweep workload and step counter",
    "cli.console_main": "the console-script hook",
    "cli._Parser.error": "argparse's usage-error hook",
    "records.Record._values": "the record protocol (equality, hashing, pickling)",
    "records.Record._replace": "the record protocol",
}


def def_lines(path: Path, module: str) -> dict[tuple[int, str], str]:
    """``module.qualname`` of each def in ``path``, keyed by its code object's first line and name.

    A decorated def's code object starts at its first decorator.
    """
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[first, child.name] = f"{module}.{prefix}{child.name}"
                visit(child, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def defined_functions(path: Path, module: str) -> set[str]:
    """``module.qualname`` of each def the audit covers (see the module notes)."""
    return {
        qualname for (_, name), qualname in def_lines(path, module).items()
        if name == "__init__" or not (name.startswith("__") and name.endswith("__"))
    }


def reached_functions(run, directory: Path) -> set[str]:
    """``module.qualname`` of each def under ``directory`` that ``run()`` enters."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    lines, reached = {}, set()
    for code in codes:
        path = Path(code.co_filename)
        if path.parent == directory:
            if path not in lines:
                lines[path] = def_lines(path, path.stem)
            qualname = lines[path].get((code.co_firstlineno, code.co_name))
            if qualname is not None:
                reached.add(qualname)
    return reached


def surface_findings(defined: set[str], reached: set[str], allowed: dict[str, str]) -> list[str]:
    """One line per def that nothing reaches or allows, and per stale allowlist entry."""
    unreached = [f"unreached: {name}" for name in sorted(defined - reached - set(allowed))]
    stale = [
        f"stale allowlist entry: {name} ({'reached' if name in reached else 'no such def'})"
        for name in sorted(allowed)
        if name in reached or name not in defined
    ]
    return unreached + stale


def subcommand_runs(tmp: Path) -> list[tuple[list[str], int]]:
    """Every subcommand path, each with the exit code it must give."""
    bad = tmp / "bad"
    bad.mkdir()
    (bad / "x.csv").write_text("year,value\n2000,1.0\n2001,oops\n", encoding="utf-8")
    (bad / "manifest.json").write_text(
        json.dumps({"x": {"path": "x.csv", "kind": "energy", "unit": "EJ/yr"}}), encoding="utf-8"
    )
    (bad / "scale.json").write_text(  # a refused value, named in the error message
        json.dumps({"x": {"path": "x.csv", "kind": "energy", "unit": "EJ/yr", "scale": 0}}),
        encoding="utf-8",
    )
    recon = tmp / "recon"
    preset = ["project", "--preset", "paper-2017"]
    tables = [["tables", "--table", str(n)] for n in range(1, 6)]
    return [
        (["ingest", "--out-dir", str(tmp / "ingest")], 0),
        (["ingest", "--manifest", str(bad / "manifest.json"), "--out-dir", str(bad / "out")], 1),
        (["ingest", "--manifest", str(bad / "scale.json"), "--out-dir", str(bad / "out")], 1),
        (["reconstruct", "--out-dir", str(recon)], 0),
        (["calibrate"], 0),
        (["calibrate", "--out", str(tmp / "calibrate.json")], 0),
        *(([*table, "--out-dir", str(tmp / "tables")], 0) for table in tables),
        *(([*table, "--data-dir", str(recon), "--out-dir", str(tmp / "from-dir")], 0)
          for table in tables),
        ([*preset, "--out", str(tmp / "preset.csv")], 0),
        ([*preset, "--spinup", "--out", str(tmp / "spinup.csv")], 0),
        ([*preset, "--curve", "--out", str(tmp / "curve.csv")], 0),
        (["project", "--w0", "300", "--lambda-gw", "5.9", "--c0", "0.02", "--delta0", "130",
          "--out", str(tmp / "explicit.csv")], 0),
        (["report", "--out-dir", str(tmp / "report")], 0),
    ]


def clear_caches():
    """Forget every cached result, so the runs reach the code behind it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("enerscale.") and module is not None:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_every_function_is_reached_by_a_subcommand_or_allowed(tmp_path, capsys):
    runs = subcommand_runs(tmp_path)
    codes = []

    def run_all():
        for argv, _ in runs:
            codes.append(cli.main(argv))

    clear_caches()
    reached = reached_functions(run_all, PACKAGE)
    capsys.readouterr()
    assert codes == [code for _, code in runs]
    defined = set().union(*(defined_functions(p, p.stem) for p in PACKAGE.glob("*.py")))
    assert surface_findings(defined, reached, ALLOWED) == []


PLANTED = '''
def called():
    return Holder().used()


class Holder:
    def __init__(self):
        self.value = 1

    def used(self):
        return self.value

    def __repr__(self):
        return "Holder()"

    def forgotten(self):
        def inner():
            return 0
        return inner()
'''


def test_the_detector_names_a_planted_unreached_def_and_a_stale_entry(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text(PLANTED, encoding="utf-8")
    namespace = {}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    defined = defined_functions(path, "planted")
    assert defined == {
        "planted.called", "planted.Holder.__init__", "planted.Holder.used",
        "planted.Holder.forgotten", "planted.Holder.forgotten.<locals>.inner",
    }
    reached = reached_functions(namespace["called"], tmp_path)
    assert reached == {"planted.called", "planted.Holder.__init__", "planted.Holder.used"}
    assert surface_findings(defined, reached, {}) == [
        "unreached: planted.Holder.forgotten",
        "unreached: planted.Holder.forgotten.<locals>.inner",
    ]
    allowed = {
        "planted.Holder.forgotten": "a reason",
        "planted.Holder.forgotten.<locals>.inner": "a reason",
        "planted.called": "now reached",
        "planted.gone": "deleted",
    }
    assert surface_findings(defined, reached, allowed) == [
        "stale allowlist entry: planted.called (reached)",
        "stale allowlist entry: planted.gone (no such def)",
    ]
