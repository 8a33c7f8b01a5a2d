"""Byte identity of the training outputs across refactors.

Replays a fixed CLI script (a dataset, a teacher, then one ``distill`` run
per objective) and pins the sha256 of each run's ``metrics.csv``,
``breakdown.csv`` and ``student.ckpt``.  A change that claims to leave
the arithmetic alone must leave these 15 digests alone.  They were
recorded with numpy 2.4.6; other numpy versions may round differently
(BLAS kernels, pairwise sums), so there the test is skipped rather than
failed.
"""
import hashlib

import numpy as np
import pytest

from vrm.cli import main

RECORDED_NUMPY = "2.4.6"

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
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"digests were recorded with numpy {RECORDED_NUMPY}, "
                    f"this is numpy {np.__version__}")
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
