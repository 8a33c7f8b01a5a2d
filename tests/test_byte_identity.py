"""Byte identity of the training outputs across refactors.

Replays a fixed CLI script (a dataset, a teacher, then one ``distill`` run
per objective) and pins the sha256 of each run's ``metrics.csv``,
``breakdown.csv`` and ``student.ckpt``.  A change that claims to leave
the arithmetic alone must leave these 15 digests alone.  They were
recorded with numpy 2.4.6; other numpy versions may round differently
(BLAS kernels, pairwise sums), so there the test is skipped rather than
failed.

A second fixture adds a ``distill`` run that sets no training flag, an
``ablate`` sweep and a ``pilot`` study to the same run root, and pins the
sha256 of their CSV files and the ``manifest.txt`` of five runs, so the
defaults, the order of the manifest keys and the CSV writer stay as they
were recorded.

Last, the stdout of demos 02 and 03 pins what the public edge builders and
edge losses print.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vrm.cli import main

RECORDED_NUMPY = "2.4.6"


def require_recorded_numpy():
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"digests were recorded with numpy {RECORDED_NUMPY}, "
                    f"this is numpy {np.__version__}")

DIGESTS = {
    "vrm": ("48c8efbbd6d5b9a9db4760e80898c4be212e21400abd1e44c5ea927571f04fa2",
            "fad888e2cdf42f59a54e42534585871dad952643fbac615c850d4bee8f296e05",
            "eb8e6d93356d16c37a027e6e885e52870e966d89d990bcf6561d30ce6fccfb08"),
    "im_kd": ("a077da857325628cbaad69261fb0c8dba437a90199a2cbed134ee48789b8fc4b",
              "0f2db240020c33bb5dd04d5dda1cb1886c50356129beaefbfa8b39e321548e08",
              "97793174b60649801856867eb61e71ef901cf51d7b6d87b7add3596fb9d0a460"),
    "ce_only": ("55d588c5cbe7a9bc91716fcbf542759be0c5d80365bbf3eff654cdab341484c4",
                "d70017d79fee86ea2ad4a4c252f558706b45d0121952bb7ff7d1fd30dbc4e91e",
                "df3e3b4c57f4956a2a74636239ee58c629d8fa70ba0705cbd0a09c6c45648fad"),
    "gram": ("5c113131a1f9171d6d226bdd5fa0ea18710b0b92dac055b6d5641113dc289747",
             "d4429faa35222d81e21e65ff21bd72418d1c27022009168e9e0ab7a81dd60ffc",
             "0da16f49ea65853b298f8f65e043a470bfc377626ccd3e64197dd1d6cce55372"),
    "angular": ("a05c58f333723aa4f7586a8c6278c16e0135e459f9db808167c8ee6f379a3f0b",
                "e4d48863a352410569f62f8d5fffdcae03df4200d8a62f8beff5a30500e098c5",
                "16d6d3ca918d910793e5ec1c9a815ea77cc9fd0b3d6117f7c040ed4f531eb817"),
}
OUTPUTS = ("metrics.csv", "breakdown.csv", "student.ckpt")


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    require_recorded_numpy()
    root = tmp_path_factory.mktemp("replay")
    mp = pytest.MonkeyPatch()
    mp.setenv("VRM_RUN_DIR", str(root / "runs"))
    try:
        data = str(root / "d.vrmdata")
        assert main(["gen-data", "--out", data, "--kind", "blobs", "--classes", "4",
                     "--dim", "8", "--per-class", "30", "--noise", "2.0",
                     "--seed", "3"]) == 0
        assert main(["train-teacher", "--data", data, "--widths", "8,32,4",
                     "--epochs", "8", "--milestones", "5,7", "--lr", "0.1",
                     "--batch-size", "16", "--seed", "1", "--name", "teacher"]) == 0
        teacher = str(root / "runs" / "teacher" / "teacher.ckpt")
        for objective in DIGESTS:
            assert main(["distill", "--data", data, "--teacher", teacher,
                         "--objective", objective, "--epochs", "6",
                         "--milestones", "4,5", "--batch-size", "16",
                         "--widths", "8,16,4", "--seed", "2", "--alpha", "8",
                         "--beta", "2", "--name", objective]) == 0
    finally:
        mp.undo()
    return root / "runs"


@pytest.mark.parametrize("objective", list(DIGESTS))
def test_distill_outputs_match_recorded_digests(replay, objective):
    got = tuple(hashlib.sha256((replay / objective / name).read_bytes()).hexdigest()
                for name in OUTPUTS)
    assert dict(zip(OUTPUTS, got)) == dict(zip(OUTPUTS, DIGESTS[objective]))


MORE_DIGESTS = {
    "defaults/metrics.csv": "3ed231c4245b96d1e6ff976e86c2f65a5388eaeda8cfc4f6fb74b458147ab09e",
    "defaults/breakdown.csv": "4f98c5ab20c26b4175b4ce283c21fdac7fb7a4a846c0cb8ce0ea007d37a78794",
    "defaults/student.ckpt": "d9ab3abfd9e81e4f2c855289be7b98aa89b9bede6a8bbf9cb05bd20473002c37",
    "ablate/summary.csv": "efe250f14493cbe0e97fa2a2690eaca13f2f4f2c990c4e297f3d39d4acea1b79",
    "pilot/summary.csv": "5ce019e4bde815f7b9d4e383ff9a766b31d602ed9c540a866b070a7b9a08c46b",
    "pilot/pilot_rm_seed1.csv": "29844430fdad516c389d44f7f692d50da01798ccf5f3a5e000e74e3ca6510ac6",
}

# each run's manifest.txt without its started_at and wall_clock_s lines,
# with the temporary root written as <root>
MANIFESTS = {
    "teacher": """\
command=train-teacher
version=0.1.0
status=complete
data=<root>/d.vrmdata
widths=8,32,4
activation=relu
lr=0.10000000000000001
momentum=0.90000000000000002
weight_decay=0.00050000000000000001
lr_decay=0.10000000000000001
milestones=5,7
batch_size=16
epochs=8
seed=1
alpha=128
beta=32
tau=4
delta=1
uep=95
n_ops=2
magnitude=0.29999999999999999
im_kd_weight=1
checkpoint=<root>/runs/teacher/teacher.ckpt
metrics=<root>/runs/teacher/metrics.csv
final_val_acc=0.875
""",
    "vrm": """\
command=distill
version=0.1.0
status=complete
data=<root>/d.vrmdata
teacher=<root>/runs/teacher/teacher.ckpt
objective=vrm
alpha=8
beta=2
tau=4
delta=1
uep=95
n_ops=2
magnitude=0.29999999999999999
lr=0.050000000000000003
momentum=0.90000000000000002
weight_decay=0.00050000000000000001
lr_decay=0.10000000000000001
milestones=4,5
batch_size=16
epochs=6
seed=2
im_kd_weight=1
widths=8,16,4
final_val_acc=0.91666666666666663
metrics=<root>/runs/vrm/metrics.csv
breakdown=<root>/runs/vrm/breakdown.csv
checkpoint=<root>/runs/vrm/student.ckpt
""",
    "defaults": """\
command=distill
version=0.1.0
status=complete
data=<root>/d.vrmdata
teacher=<root>/runs/teacher/teacher.ckpt
objective=vrm
alpha=128
beta=32
tau=4
delta=1
uep=95
n_ops=2
magnitude=0.29999999999999999
lr=0.050000000000000003
momentum=0.90000000000000002
weight_decay=0.00050000000000000001
lr_decay=0.10000000000000001
milestones=30,40,50
batch_size=32
epochs=60
seed=0
im_kd_weight=1
widths=
final_val_acc=0.83333333333333337
metrics=<root>/runs/defaults/metrics.csv
breakdown=<root>/runs/defaults/breakdown.csv
checkpoint=<root>/runs/defaults/student.ckpt
""",
    "ablate": """\
command=ablate
version=0.1.0
status=complete
data=<root>/d.vrmdata
teacher=<root>/runs/teacher/teacher.ckpt
objectives=vrm,ce_only
sweep_seeds=0,1
alphas=4,8
objective=vrm
alpha=128
beta=32
tau=4
delta=1
uep=95
n_ops=2
magnitude=0.29999999999999999
lr=0.050000000000000003
momentum=0.90000000000000002
weight_decay=0.00050000000000000001
lr_decay=0.10000000000000001
milestones=1
batch_size=16
epochs=2
seed=0
im_kd_weight=1
widths=8,16,4
summary=<root>/runs/ablate/summary.csv
cells=8
""",
    "pilot": """\
command=pilot
version=0.1.0
status=complete
batch=12
dim=4
spurious_index=3
noise_scale=1
n_seeds=2
loss_kinds=IM,RM,RM_GRAM
summary=<root>/runs/pilot/summary.csv
""",
}


@pytest.fixture(scope="module")
def more_runs(replay):
    root = replay.parent
    data = str(root / "d.vrmdata")
    teacher = str(replay / "teacher" / "teacher.ckpt")
    mp = pytest.MonkeyPatch()
    mp.setenv("VRM_RUN_DIR", str(replay))
    try:
        assert main(["distill", "--data", data, "--teacher", teacher,
                     "--name", "defaults"]) == 0
        assert main(["ablate", "--data", data, "--teacher", teacher,
                     "--objectives", "vrm,ce_only", "--seeds", "0,1", "--alphas", "4,8",
                     "--epochs", "2", "--milestones", "1", "--batch-size", "16",
                     "--widths", "8,16,4", "--name", "ablate"]) == 0
        assert main(["pilot", "--batch", "12", "--dim", "4", "--spurious-index", "3",
                     "--seeds", "2", "--loss-kinds", "im,rm,rm_gram", "--name", "pilot"]) == 0
    finally:
        mp.undo()
    return replay


@pytest.mark.parametrize("output", list(MORE_DIGESTS))
def test_more_outputs_match_recorded_digests(more_runs, output):
    got = hashlib.sha256((more_runs / output).read_bytes()).hexdigest()
    assert got == MORE_DIGESTS[output]


@pytest.mark.parametrize("run", list(MANIFESTS))
def test_manifest_matches_recorded_lines(more_runs, run):
    lines = (more_runs / run / "manifest.txt").read_text().splitlines()
    kept = [line.replace(str(more_runs.parent), "<root>") for line in lines
            if line.split("=", 1)[0] not in ("started_at", "wall_clock_s")]
    assert kept == MANIFESTS[run].splitlines()


ROOT = Path(__file__).resolve().parents[1]
DEMO_DIGESTS = {
    "02_relation_edges.py": "b1082b369e30462d445ba3b79fb713fdc67a8f2f15cbc9cdc4268bc7997f70c7",
    "03_pruning_and_masked_loss.py":
        "d3711e9e7518a1dcd2b4858c036eb386aedc45a97ea4852cbcd28951e321d707",
}


@pytest.mark.parametrize("demo", list(DEMO_DIGESTS))
def test_demo_stdout_matches_recorded_digest(demo, tmp_path):
    require_recorded_numpy()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, check=True, timeout=120)
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[demo]
