"""Byte-identity gate for the reproducible outputs.

The digests below are the SHA-256 of every non-manifest output of
``reconstruct``, ``tables --table 1..5``, ``report`` and
``project --preset paper-2017`` (defaults), recorded from commit 3b1b4b8
with Python 3.11.7 on x86-64 Linux; the ``project --curve`` and
``project --spinup`` digests were recorded the same way from commit
115ed34. A refactor must reproduce them byte for byte. A change that alters an output on purpose updates the digest here and
says in CHANGES.md which output moved and why. Run manifests are left out:
they hold the checkout's absolute paths.
"""

import hashlib

import pytest

from enerscale.cli import EXIT_OK, main

GOLDEN = {
    "project/curve.csv": "2b7e72dea95e2219efae2da6da3cd054684e5920014cc56c3ea47f291d18450f",
    "project/spinup.csv": "c4209cc5187d5bca33ffa2d0d5504cfe3e3f6f8238e02ef017ed8be2f1b9228b",
    "project/trajectory.csv": "9760d68355e8fae7c0cd74b98ff300370df77e0c54623d6c51418201d8d35cd7",
    "reconstruct/gdp_annual.csv": "90b93f8706a095309658c3601b357e369aa609957efe492a5bfefb66f0420335",
    "reconstruct/reconstruction.json": "c7c53ababe7e06d39821c941d00063c2a356cfbabf4c5d38909de58bd44986f5",
    "reconstruct/wealth.csv": "cb14fc88dc50e17256da71a43ced8a7603d5ded50362d96c0d4b36053f7ab279",
    "report/report.json": "606069069a1b781c999c19141cc20d1d2a397eff9da09046d280531cf873207c",
    "tables/table1.csv": "dd0fc364f4f366fcac16301f3e47322e674b15e1f3106d64f76e9c39db7a50f0",
    "tables/table1.txt": "00ea9d2e1157b68758f00b705c8aca948fb82381e52f06829f9496fd26a76152",
    "tables/table2.csv": "ae23e19d431d5fe304e309edbf70f529a773a674196133a0fbb1483bf2832360",
    "tables/table2.txt": "a43ae7b77bd989049f4df76c26b41d575a165ba0437b1c1ca4077f26e902b320",
    "tables/table3.csv": "d92dce850933c7f2626796fcf17464980986413c00d2dc87b7e75c27b8913ab8",
    "tables/table3.txt": "5a51f2792b32b39f0af225eaefaa66e76757436ccddac11bd22a99ea1fbf7dcf",
    "tables/table4.csv": "45f3a3b487e43b3a1344e4d8b12918ff5e2ddc469c78ed3eee22feb460960d67",
    "tables/table4.txt": "561dfd339f98d7e837b2fe9b23ba98bd14f81ae7b752ed20ce9b4cbf997419bb",
    "tables/table5.csv": "3ea40194e83c6c37e9eeecc5de3deba33ad9152b7829c368f5d70b797418fe03",
    "tables/table5.txt": "42d3fc87ed46f2769d059cd207ef5bff00e6cf1bfe69653195eb045dfde7edfb",
}


def commands(root):
    project = root / "project"
    return [
        ["reconstruct", "--out-dir", str(root / "reconstruct")],
        *[["tables", "--table", str(n), "--out-dir", str(root / "tables")] for n in range(1, 6)],
        ["report", "--out-dir", str(root / "report")],
        ["project", "--preset", "paper-2017", "--out", str(project / "trajectory.csv")],
        ["project", "--preset", "paper-2017", "--curve", "--out", str(project / "curve.csv")],
        ["project", "--preset", "paper-2017", "--spinup", "--out", str(project / "spinup.csv")],
    ]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for argv in commands(root):
        assert main(argv) == EXIT_OK, argv
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in root.rglob("*")
        if p.is_file() and not p.name.endswith("manifest.json")
    }


def test_every_golden_output_is_written(outputs):
    assert sorted(outputs) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_is_byte_identical(outputs, name):
    assert outputs[name] == GOLDEN[name]
