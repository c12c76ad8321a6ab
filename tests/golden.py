"""The golden commands and their output digests, on the standard library alone.

``test_golden_outputs.py`` imports this module to write the golden tree in
its own process, and runs it as a script under every interpreter it finds:

    PYTHONPATH=src python3.12 tests/golden.py

writes the tree in a temporary directory and prints one JSON object, output
name -> SHA-256, to stdout. Interpreters other than the test's own have no
pytest, so nothing here may import it.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path


def commands(root):
    project = root / "project"
    return [
        ["ingest", "--out-dir", str(root / "ingest")],
        ["reconstruct", "--out-dir", str(root / "reconstruct")],
        ["calibrate", "--out", str(root / "calibrate" / "calibrate.json")],
        *[["tables", "--table", str(n), "--out-dir", str(root / "tables")] for n in range(1, 6)],
        ["report", "--out-dir", str(root / "report")],
        ["project", "--preset", "paper-2017", "--out", str(project / "trajectory.csv")],
        ["project", "--preset", "paper-2017", "--curve", "--out", str(project / "curve.csv")],
        ["project", "--preset", "paper-2017", "--spinup", "--out", str(project / "spinup.csv")],
    ]


def src_dir():
    """The ``src`` directory of the imported package, which run manifests record."""
    import enerscale

    return str(Path(enerscale.__file__).resolve().parents[1])


def masked(path, root):
    """File bytes, with a run manifest's absolute paths replaced by placeholders."""
    data = path.read_bytes()
    if path.name.endswith("manifest.json"):
        data = data.replace(str(root).encode(), b"<out>").replace(src_dir().encode(), b"<src>")
    return data


def digests(root):
    """Run every golden command under ``root``; output name -> SHA-256 of its masked bytes."""
    from enerscale.cli import EXIT_OK, main

    found = {}
    for argv in commands(root):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        if code != EXIT_OK:
            raise RuntimeError(f"{argv} exited {code}")
        if argv[0] == "calibrate":
            found["calibrate/stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    for p in root.rglob("*"):
        if p.is_file():
            found[p.relative_to(root).as_posix()] = hashlib.sha256(masked(p, root)).hexdigest()
    return found


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(digests(Path(tmp).resolve()), sort_keys=True))
