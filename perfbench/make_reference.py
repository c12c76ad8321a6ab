"""Record ``reference.json``: the parsed outputs of every ``reproduce`` command.

Run from the repository root to re-record after an intended change of
numbers: ``python3 perfbench/make_reference.py``. The benchmark then checks
each command's outputs against this file within 1e-12 relative.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from common import Ctx, fresh_process
from reproduce import REFERENCE_PATH, commands, parse_outputs


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    work = root / ".perfbench" / "make-reference"
    shutil.rmtree(work, ignore_errors=True)
    ctx = Ctx.create(root, work)
    fixture = work / "recon-fixture"
    reference = {}
    try:
        for key, argv in {"<fixture>": ["reconstruct", "--out-dir", str(fixture)],
                          **commands(work / "out", fixture)}.items():
            out_dir = work / "out" / key
            out_dir.mkdir(parents=True, exist_ok=True)
            _, proc = fresh_process(ctx, ["-m", "enerscale", *argv])
            if proc.returncode != 0:
                print(f"{key} failed: {proc.stderr.decode(errors='replace')}", file=sys.stderr)
                return 1
            if key != "<fixture>":
                reference[key] = parse_outputs(out_dir, proc.stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH} ({len(reference)} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
