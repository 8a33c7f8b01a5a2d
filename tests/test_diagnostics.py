import csv

import numpy as np
import pytest

from vrm.diagnostics import PilotSpec, gradient_diffusion_pilot, write_pilot_csv
from vrm.errors import ParameterError


def test_pilot_spec_validation():
    with pytest.raises(ParameterError):
        PilotSpec(B=8, t=8)
    with pytest.raises(ParameterError):
        PilotSpec(c=-1.0)
    with pytest.raises(ParameterError):
        PilotSpec(loss_kind="MSE")


def test_pilot_zero_noise_means_zero_delta():
    for kind in ("IM", "RM", "RM_GRAM"):
        dg = gradient_diffusion_pilot(PilotSpec(B=8, D=4, t=3, c=0.0, seed=1, loss_kind=kind))
        assert np.array_equal(dg, np.zeros(8))


def test_pilot_im_separability_is_exact():
    for seed in range(5):
        dg = gradient_diffusion_pilot(PilotSpec(B=16, D=6, t=5, c=1.0, seed=seed, loss_kind="IM"))
        off = np.delete(dg, 5)
        assert np.abs(off).max() < 1e-9
        assert dg[5] != 0.0


def test_pilot_rm_diffuses_to_other_samples():
    dg = gradient_diffusion_pilot(PilotSpec(B=16, D=6, t=5, c=1.0, seed=0, loss_kind="RM"))
    off = np.abs(np.delete(dg, 5))
    assert np.median(off) > 0.0


def test_pilot_determinism():
    spec = PilotSpec(B=12, D=5, t=4, c=0.7, seed=9, loss_kind="RM")
    assert np.array_equal(gradient_diffusion_pilot(spec), gradient_diffusion_pilot(spec))


def test_pilot_csv_format(tmp_path):
    dg = gradient_diffusion_pilot(PilotSpec(B=8, D=4, t=2, c=1.0, seed=0, loss_kind="RM"))
    path = tmp_path / "pilot.csv"
    write_pilot_csv(dg, 2, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "delta_g", "is_spurious"]
    assert len(rows) == 9
    assert rows[3][2] == "1" and rows[1][2] == "0"
    # float round-trips exactly through repr-format
    assert float(rows[1][1]) == dg[0]
