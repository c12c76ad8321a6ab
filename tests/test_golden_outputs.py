"""Byte-identity gate for the reproducible outputs.

The digests below are the SHA-256 of every output of ``ingest``,
``reconstruct``, ``calibrate --out`` (and its stdout), ``tables --table
1..5``, ``report`` and ``project --preset paper-2017`` (defaults). The
reconstruct, tables, report and default project digests were recorded from
commit 3b1b4b8 with Python 3.11.7 on x86-64 Linux; the ``project --curve``
and ``project --spinup`` digests the same way from commit 115ed34; the
ingest, calibrate and run-manifest digests from commit 981556c.
``project/trajectory.csv`` and ``project/spinup.csv`` (and the latter's
manifest, through its delta0) were re-recorded when the scenario engine and
spin-up began to apply RK4's one-step affine map (delta and concentration
moved by at most 4.2e-16 relative), and the ``tables`` and ``report``
manifests when they began to record kappa_x and W(1). ``project/curve.csv``
was re-recorded when ``committed_curve`` began to compute each point as
``kappa*((lambda*c)*W)/sigma``, the scenario engine's order, in place of
``(kappa*lambda*c*W)/sigma`` left to right: 12 of its 50 committed-delta
cells and 3 of its committed-concentration cells moved by one ulp (at most
1.9e-16 relative), and the curve now equals a trajectory's committed level
at equal W and c. A refactor must reproduce them byte for byte. A change that alters an output on purpose
updates the digest here and says in CHANGES.md which output moved and why.
Run manifests hold absolute paths, so they are hashed after the output root
and the checkout's ``src`` directory are replaced by fixed placeholders.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

import enerscale
from enerscale.cli import EXIT_OK, main

SRC = str(Path(enerscale.__file__).resolve().parents[1])

GOLDEN = {
    "calibrate/calibrate.json": "297e9f593fcaa3b3d8ba79fcb408668db87b025e67a3d7f5df2bd3f4336504a7",
    "calibrate/calibrate.manifest.json": "541bf77facd26019cc4e606630af58e1705ccf36100068a1be4584a1f67f6c62",
    "calibrate/stdout": "297e9f593fcaa3b3d8ba79fcb408668db87b025e67a3d7f5df2bd3f4336504a7",
    "ingest/concentration.csv": "0489380b3d35d75bb1879067f32f29ef878510bcf39c62905d539419f5f55e0e",
    "ingest/concentration.validation.json": "c2790061f463423baf7948ad01a2e817e0a3cf559d0ba247029f1ecf9fbb8c70",
    "ingest/emissions.csv": "77154554146621849142b84fb0740d093be5e6ec0585136a440fe3e99d8b73e8",
    "ingest/emissions.validation.json": "83ce920f8c1062f355381b6666d8c8df87c941b8aa44a3c5d7c48f4d563623ab",
    "ingest/energy_consumption.csv": "1e2a03e7f160329313ef65354e2d0f884393e858a79a9b6baaa32d1cf1b88717",
    "ingest/energy_consumption.validation.json": "8a46d3468b0275f671ff13e32702874dcb4a6849ef6e7d691585b050669a9f72",
    "ingest/energy_production.csv": "045b945b41986da82d3193242d4cf286a32ea26b0eafcea05737d9160d3d484a",
    "ingest/energy_production.validation.json": "cb2f33798bf26e8f8743ed5632b2787b4bcb6d0f57f1294ebe57381143020e60",
    "ingest/gdp_mer.csv": "ef51f1a102fe6d345a13f3720217a72816093da4f9e113028cb60b2c4dc23c25",
    "ingest/gdp_mer.validation.json": "cbcbc207f9590f8fb62b7c6e4a10c50443698f7f080503ac2daa5fd4e1aec64a",
    "ingest/gdp_ppp.csv": "baa2e6166c85e645d88f5fed64832538378a1ebde564d8f0f9b2338303880daf",
    "ingest/gdp_ppp.validation.json": "03dc5578cc9280bf177f9b925e7af9dcdd0253a552db12f94a798edbcd60cc25",
    "ingest/population.csv": "fd68dc9cdee018d29be94aa33f2366f16fa3fccae2e20f4a39214566cf53747e",
    "ingest/population.validation.json": "bf01db0457fa5f900124a884048dab1f3bd8ee5023fd33ef2987f7ba344b0251",
    "ingest/run_manifest.json": "69b1f9118b06b1adbf449c371d72d23f8797cd6fdc2636a945bbfe7bcd831887",
    "project/curve.csv": "e01500dd9aacc974c9c103fd7a32f9ab01d1a3aa523ae8eb624b8b140cf75c50",
    "project/curve.csv.manifest.json": "d04935c90a6fa493e1dedaf9b790c832e8e085b25bfd8b66cb3f682e0ad10ff7",
    "project/spinup.csv": "20d38839756b71998692f04f15e1f8ec0ce5e2b87db035cec844eebe81016ae2",
    "project/spinup.csv.manifest.json": "d3a9f4f8c1f8bd378e153db7668ac82eb139ce1c85aa0b8239e369a2f101e026",
    "project/trajectory.csv": "690699c7eaef8208b6fd3559635b555dd9eca92ce4b1641d442580c525934959",
    "project/trajectory.csv.manifest.json": "510c5055e23b3f86f21ee79e1f2a8035d704209b8c469bef75a5d080724fee9c",
    "reconstruct/gdp_annual.csv": "90b93f8706a095309658c3601b357e369aa609957efe492a5bfefb66f0420335",
    "reconstruct/reconstruction.json": "c7c53ababe7e06d39821c941d00063c2a356cfbabf4c5d38909de58bd44986f5",
    "reconstruct/run_manifest.json": "4194ad05831bb5dc5213848bbf3369ff8e1ecb0d70f713cf0718a94d14d11d4d",
    "reconstruct/wealth.csv": "cb14fc88dc50e17256da71a43ced8a7603d5ded50362d96c0d4b36053f7ab279",
    "report/report.json": "606069069a1b781c999c19141cc20d1d2a397eff9da09046d280531cf873207c",
    "report/run_manifest.json": "b90876c765ba130e50f0a1378ac6f94308fba3d2672d87772c56313bee2e0f57",
    "tables/table1.csv": "dd0fc364f4f366fcac16301f3e47322e674b15e1f3106d64f76e9c39db7a50f0",
    "tables/table1.manifest.json": "88717822c5e459c22a7190c093b79a2b0c46adff55e771ec012665873da1d361",
    "tables/table1.txt": "00ea9d2e1157b68758f00b705c8aca948fb82381e52f06829f9496fd26a76152",
    "tables/table2.csv": "ae23e19d431d5fe304e309edbf70f529a773a674196133a0fbb1483bf2832360",
    "tables/table2.manifest.json": "3321352d47ce8b3e1c8d8078648968b8ecd9548f97f239d189b183a0b0a22c14",
    "tables/table2.txt": "a43ae7b77bd989049f4df76c26b41d575a165ba0437b1c1ca4077f26e902b320",
    "tables/table3.csv": "d92dce850933c7f2626796fcf17464980986413c00d2dc87b7e75c27b8913ab8",
    "tables/table3.manifest.json": "6d1cefb9872d4c227cf452ab2132f649ff1ff1d36f473427ccf2a017cf74db8c",
    "tables/table3.txt": "5a51f2792b32b39f0af225eaefaa66e76757436ccddac11bd22a99ea1fbf7dcf",
    "tables/table4.csv": "45f3a3b487e43b3a1344e4d8b12918ff5e2ddc469c78ed3eee22feb460960d67",
    "tables/table4.manifest.json": "f8df2db0bcdc20853950f83eaa068b9834c900d1491b898e3ee3f38714363976",
    "tables/table4.txt": "561dfd339f98d7e837b2fe9b23ba98bd14f81ae7b752ed20ce9b4cbf997419bb",
    "tables/table5.csv": "3ea40194e83c6c37e9eeecc5de3deba33ad9152b7829c368f5d70b797418fe03",
    "tables/table5.manifest.json": "e931ab1ed7adb6ca9238d21192d74df9626e7e7ecf4395f1bf9f74069fe2300a",
    "tables/table5.txt": "42d3fc87ed46f2769d059cd207ef5bff00e6cf1bfe69653195eb045dfde7edfb",
}


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


def masked(path, root):
    """File bytes, with a run manifest's absolute paths replaced by placeholders."""
    data = path.read_bytes()
    if path.name.endswith("manifest.json"):
        data = data.replace(str(root).encode(), b"<out>").replace(SRC.encode(), b"<src>")
    return data


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    digests = {}
    for argv in commands(root):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == EXIT_OK, argv
        if argv[0] == "calibrate":
            digests["calibrate/stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    for p in root.rglob("*"):
        if p.is_file():
            digests[p.relative_to(root).as_posix()] = hashlib.sha256(masked(p, root)).hexdigest()
    return digests


def test_every_golden_output_is_written(outputs):
    assert sorted(outputs) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_is_byte_identical(outputs, name):
    assert outputs[name] == GOLDEN[name]
