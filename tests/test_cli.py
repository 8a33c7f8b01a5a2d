import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import vrm.autodiff
import vrm.losses
from vrm import cli
from vrm.cli import main
from vrm.data import (DATASET_MAGIC, Dataset, load_dataset, read_artifact, save_dataset,
                      write_artifact)
from vrm.errors import ParameterError
from vrm.models import MLP, MLPSpec, load_checkpoint, save_checkpoint


@pytest.fixture()
def run_env(tmp_path, monkeypatch):
    monkeypatch.setenv("VRM_RUN_DIR", str(tmp_path / "runs"))
    return tmp_path


def gen_data(run_env, name="data.vrmdata", **overrides):
    args = {"kind": "blobs", "classes": "3", "dim": "6", "per-class": "20",
            "noise": "0.4", "seed": "1"}
    args.update(overrides)
    out = run_env / name
    argv = ["gen-data", "--out", str(out)]
    for k, v in args.items():
        argv += [f"--{k}", v]
    assert main(argv) == 0
    return out


def train_teacher(run_env, data, name="teach"):
    code = main(["train-teacher", "--data", str(data), "--widths", "6,24,3",
                 "--epochs", "6", "--milestones", "4,5", "--lr", "0.1",
                 "--batch-size", "16", "--seed", "0", "--name", name])
    assert code == 0
    return run_env / "runs" / name / "teacher.ckpt"


def test_gen_data_round_trip_and_determinism(run_env):
    p1 = gen_data(run_env, "a.vrmdata")
    p2 = gen_data(run_env, "b.vrmdata")
    assert p1.read_bytes() == p2.read_bytes()
    data = load_dataset(p1)
    assert data.inputs.shape == (60, 6)


def test_gen_data_rejects_single_class(run_env, capsys):
    code = main(["gen-data", "--kind", "blobs", "--classes", "1", "--dim", "4",
                 "--per-class", "20", "--out", str(run_env / "x.bin")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --classes ")
    assert not (run_env / "x.bin").exists()


def test_gen_data_unwritable_path_exits_nonzero(run_env, capsys):
    code = main(["gen-data", "--kind", "blobs", "--classes", "3", "--dim", "4",
                 "--per-class", "20", "--out", "/proc/not/writable.bin"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_gen_data_output_under_a_regular_file_exits_2(run_env, capsys):
    blocker = run_env / "blocker"
    blocker.write_text("not a directory")
    code = main(["gen-data", "--kind", "blobs", "--classes", "3", "--dim", "4",
                 "--per-class", "20", "--out", str(blocker / "sub" / "data.bin")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert blocker.read_text() == "not a directory"


def test_train_teacher_writes_artifacts(run_env):
    data = gen_data(run_env)
    ckpt = train_teacher(run_env, data)
    run_dir = ckpt.parent
    assert ckpt.exists()
    assert (run_dir / "metrics.csv").exists()
    manifest = (run_dir / "manifest.txt").read_text()
    assert "status=complete" in manifest and "command=train-teacher" in manifest
    # the manifest captures the full effective config, not just the flags given
    for key in ("momentum=", "weight_decay=", "lr_decay=", "wall_clock_s="):
        assert key in manifest


def test_distill_runs_and_is_deterministic(run_env):
    data = gen_data(run_env)
    ckpt = train_teacher(run_env, data)
    argv = ["distill", "--data", str(data), "--teacher", str(ckpt),
            "--objective", "vrm", "--alpha", "8", "--beta", "2", "--tau", "4",
            "--uep", "95", "--epochs", "4", "--milestones", "3",
            "--batch-size", "16", "--widths", "6,12,3", "--seed", "0"]
    assert main(argv + ["--name", "d1"]) == 0
    assert main(argv + ["--name", "d2"]) == 0
    d1 = run_env / "runs" / "d1"
    d2 = run_env / "runs" / "d2"
    assert (d1 / "metrics.csv").read_bytes() == (d2 / "metrics.csv").read_bytes()
    assert (d1 / "breakdown.csv").read_bytes() == (d2 / "breakdown.csv").read_bytes()
    assert (d1 / "student.ckpt").read_bytes() == (d2 / "student.ckpt").read_bytes()


def test_distill_ce_only_zero_relation_columns(run_env):
    data = gen_data(run_env)
    assert main(["distill", "--data", str(data), "--objective", "ce_only",
                 "--epochs", "3", "--milestones", "2", "--batch-size", "16",
                 "--widths", "6,12,3", "--seed", "1", "--name", "ce"]) == 0
    rows = (run_env / "runs" / "ce" / "breakdown.csv").read_text().splitlines()
    header = rows[0].split(",")
    isv_col, icv_col = header.index("isv"), header.index("icv")
    for row in rows[1:]:
        cells = row.split(",")
        assert float(cells[isv_col]) == 0.0 and float(cells[icv_col]) == 0.0


def test_distill_missing_teacher_exits_3(run_env, capsys):
    data = gen_data(run_env)
    code = main(["distill", "--data", str(data), "--teacher",
                 str(run_env / "nope.ckpt"), "--objective", "vrm",
                 "--epochs", "2", "--milestones", "1", "--name", "x"])
    assert code == 3
    assert "not found" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_distill_divergence_exits_4(run_env, capsys):
    data = gen_data(run_env)
    ckpt = train_teacher(run_env, data)
    code = main(["distill", "--data", str(data), "--teacher", str(ckpt),
                 "--objective", "vrm", "--lr", "1e200", "--epochs", "3",
                 "--milestones", "2", "--batch-size", "16",
                 "--widths", "6,12,3", "--name", "boom"])
    assert code == 4
    assert "diverged at epoch" in capsys.readouterr().err
    manifest = (run_env / "runs" / "boom" / "manifest.txt").read_text()
    assert "status=diverged" in manifest and "error_class=TrainingError" in manifest


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowing_teacher_exits_4_with_one_error_line(run_env, capsys):
    # the teacher's logits overflow in the worker that runs it, and the run
    # still ends as a divergence at its first step
    data = gen_data(run_env)
    teacher, _ = load_checkpoint(train_teacher(run_env, data))
    for w in teacher.weights[:2]:
        w.data = w.data * 1e200
    save_checkpoint(teacher, run_env / "big.ckpt")
    capsys.readouterr()
    code = main(["distill", "--data", str(data), "--teacher", str(run_env / "big.ckpt"),
                 "--objective", "vrm", "--epochs", "3", "--milestones", "2",
                 "--batch-size", "16", "--widths", "6,12,3", "--name", "big"])
    assert code == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: diverged at epoch 0: affine produced non-finite values"]
    manifest = (run_env / "runs" / "big" / "manifest.txt").read_text()
    assert "status=diverged" in manifest and "error_class=TrainingError" in manifest


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reused_name_keeps_no_output_of_the_earlier_run(run_env, capsys):
    data = gen_data(run_env)
    ckpt = train_teacher(run_env, data)
    argv = ["distill", "--data", str(data), "--teacher", str(ckpt), "--objective", "vrm",
            "--epochs", "3", "--milestones", "2", "--batch-size", "16",
            "--widths", "6,12,3", "--name", "x"]
    run_dir = run_env / "runs" / "x"
    outputs = ("metrics.csv", "breakdown.csv", "student.ckpt")
    assert main(argv) == 0
    assert all((run_dir / name).exists() for name in outputs)
    assert main(argv + ["--lr", "1e200"]) == 4
    assert "diverged at epoch" in capsys.readouterr().err
    assert "status=diverged" in (run_dir / "manifest.txt").read_text()
    assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.txt"]


def assert_clean_error(capsys, code, want_code):
    err = capsys.readouterr().err
    assert code == want_code
    assert err.startswith("error:") and "Traceback" not in err


def test_distill_dataset_as_teacher_exits_3(run_env, capsys):
    data = gen_data(run_env)
    code = main(["distill", "--data", str(data), "--teacher", str(data),
                 "--objective", "vrm", "--epochs", "2", "--milestones", "1", "--name", "x"])
    assert_clean_error(capsys, code, 3)
    assert not (run_env / "runs" / "x").exists()


def test_distill_truncated_artifacts_exit_3(run_env, capsys):
    data = gen_data(run_env)
    ckpt = train_teacher(run_env, data)
    cut_ckpt = run_env / "cut.ckpt"
    cut_ckpt.write_bytes(ckpt.read_bytes()[:60])
    cut_data = run_env / "cut.vrmdata"
    cut_data.write_bytes(data.read_bytes()[:40])
    for data_path, teacher_path in ((data, cut_ckpt), (cut_data, ckpt)):
        code = main(["distill", "--data", str(data_path), "--teacher", str(teacher_path),
                     "--epochs", "2", "--milestones", "1", "--name", "x"])
        assert_clean_error(capsys, code, 3)
    assert not (run_env / "runs" / "x").exists()


def test_distill_teacher_of_other_shape_exits_3(run_env, capsys):
    data = gen_data(run_env)
    ckpt = run_env / "four_classes.ckpt"
    save_checkpoint(MLP(MLPSpec([6, 8, 4], "relu", 0)), ckpt)
    code = main(["distill", "--data", str(data), "--teacher", str(ckpt),
                 "--epochs", "2", "--milestones", "1", "--name", "x"])
    assert_clean_error(capsys, code, 3)
    assert not (run_env / "runs" / "x").exists()


@pytest.mark.parametrize("flags", [["--lr", "-1"], ["--widths", "4,8,5"],
                                   ["--widths", "6,8,5"]])
def test_distill_bad_config_exits_2_before_the_run_dir(run_env, capsys, flags):
    data = gen_data(run_env)
    ckpt = train_teacher(run_env, data)
    code = main(["distill", "--data", str(data), "--teacher", str(ckpt),
                 "--epochs", "2", "--milestones", "1", "--batch-size", "16",
                 "--name", "bad"] + flags)
    assert_clean_error(capsys, code, 2)
    assert not (run_env / "runs" / "bad").exists()


@pytest.mark.parametrize("flags", [["--lr", "nan"], ["--momentum", "nan"],
                                   ["--weight-decay", "inf"], ["--lr-decay", "nan"],
                                   ["--im-kd-weight", "inf"], ["--alpha", "nan"],
                                   ["--tau", "inf"], ["--delta", "nan"]])
def test_distill_non_finite_hyperparameter_exits_2_before_the_run_dir(run_env, capsys, flags):
    # the error line names the flag at fault, not the field it sets
    data = gen_data(run_env)
    code = main(["distill", "--data", str(data), "--objective", "ce_only",
                 "--epochs", "2", "--milestones", "1", "--batch-size", "8",
                 "--widths", "6,12,3", "--name", "bad"] + flags)
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err.startswith(f"error: {flags[0]} must be finite")
    assert not (run_env / "runs" / "bad").exists()


def test_distill_batch_larger_than_train_split_exits_2(run_env, capsys):
    data = gen_data(run_env)
    code = main(["distill", "--data", str(data), "--objective", "ce_only",
                 "--epochs", "2", "--milestones", "1", "--batch-size", "1000",
                 "--widths", "6,12,3", "--name", "big"])
    assert_clean_error(capsys, code, 2)
    assert not (run_env / "runs" / "big").exists()


@pytest.mark.parametrize("command", ["train-teacher", "ablate"])
def test_batch_larger_than_train_split_exits_2_before_the_run_dir(run_env, capsys, command):
    data = gen_data(run_env)
    ckpt = run_env / "teacher.ckpt"
    save_checkpoint(MLP(MLPSpec([6, 8, 3], "relu", 0)), ckpt)
    extra = ["--teacher", str(ckpt), "--objectives", "ce_only", "--seeds", "0"]
    code = main([command, "--data", str(data), "--epochs", "2", "--milestones", "1",
                 "--batch-size", "1000", "--name", "big"]
                + (extra if command == "ablate" else []))
    assert_clean_error(capsys, code, 2)
    assert not (run_env / "runs" / "big").exists()


def test_unwritable_output_exits_2_and_fails_the_run(run_env, capsys):
    data = gen_data(run_env)
    (run_env / "runs" / "blocked" / "metrics.csv").mkdir(parents=True)
    code = main(["distill", "--data", str(data), "--objective", "ce_only",
                 "--epochs", "2", "--milestones", "1", "--batch-size", "16",
                 "--widths", "6,12,3", "--name", "blocked"])
    assert_clean_error(capsys, code, 2)
    manifest = (run_env / "runs" / "blocked" / "manifest.txt").read_text()
    assert "status=failed" in manifest and "error_class=IsADirectoryError" in manifest


@pytest.mark.parametrize("flag", ["--data", "--teacher", "--config"])
def test_directory_as_input_artifact_exits_3(run_env, capsys, flag):
    data = gen_data(run_env)
    ckpt = run_env / "teacher.ckpt"
    save_checkpoint(MLP(MLPSpec([6, 8, 3], "relu", 0)), ckpt)
    args = {"--data": str(data), "--teacher": str(ckpt), flag: str(run_env)}
    code = main(["distill", *[tok for item in args.items() for tok in item],
                 "--epochs", "2", "--milestones", "1", "--name", "x"])
    assert_clean_error(capsys, code, 3)
    assert not (run_env / "runs" / "x").exists()


BAD_NAMES = ["../escape", "a/b", "<abs>", "", ".", ".."]


@pytest.mark.parametrize("command", ["train-teacher", "distill", "ablate", "pilot"])
def test_run_name_outside_the_run_root_exits_2_before_any_directory(run_env, capsys, command):
    data = gen_data(run_env)
    ckpt = run_env / "teacher.ckpt"
    save_checkpoint(MLP(MLPSpec([6, 8, 3], "relu", 0)), ckpt)
    train = ["--data", str(data), "--epochs", "2", "--milestones", "1"]
    argv = {"train-teacher": ["train-teacher", *train],
            "distill": ["distill", *train, "--teacher", str(ckpt)],
            "ablate": ["ablate", *train, "--teacher", str(ckpt), "--objectives", "ce_only",
                       "--seeds", "0"],
            "pilot": ["pilot", "--batch", "8", "--dim", "4", "--spurious-index", "1",
                      "--seeds", "1"]}[command]
    absolute = run_env / "abs"
    for name in BAD_NAMES:
        code = main([*argv, "--name", str(absolute) if name == "<abs>" else name])
        assert_clean_error(capsys, code, 2)
        assert not (run_env / "runs").exists()
        assert not (run_env / "escape").exists() and not absolute.exists()


def test_default_named_runs_of_one_second_get_their_own_directories(run_env, monkeypatch):
    data = gen_data(run_env)
    monkeypatch.setattr(cli.time, "strftime", lambda fmt, *args: "20260101-000000")
    for _ in range(2):
        assert main(["distill", "--data", str(data), "--objective", "ce_only", "--epochs", "1",
                     "--milestones", "1", "--batch-size", "8", "--widths", "6,12,3"]) == 0
    runs = sorted((run_env / "runs").iterdir())
    assert [run.name for run in runs] == ["distill-20260101-000000", "distill-20260101-000000-2"]
    for run in runs:
        assert "status=complete" in (run / "manifest.txt").read_text()
        assert (run / "student.ckpt").exists()


def one_objective(command, objective, ckpt):
    """The flags that run ``objective`` against the teacher ``ckpt``."""
    if command == "distill":
        return ["--teacher", str(ckpt), "--objective", objective]
    return ["--teacher", str(ckpt), "--objectives", objective, "--seeds", "0"]


@pytest.mark.parametrize("command", ["distill", "ablate"])
def test_angular_batch_of_two_exits_2_before_the_run_dir(run_env, capsys, command):
    # RKD angles join three samples
    data = gen_data(run_env)
    ckpt = run_env / "teacher.ckpt"
    save_checkpoint(MLP(MLPSpec([6, 8, 3], "relu", 0)), ckpt)
    code = main([command, "--data", str(data), *one_objective(command, "angular", ckpt),
                 "--epochs", "1", "--milestones", "1", "--batch-size", "2", "--name", "x"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: --batch-size 2 ") and "Traceback" not in err
    assert not (run_env / "runs").exists()


@pytest.mark.parametrize("command", ["distill", "ablate"])
@pytest.mark.parametrize("objective", ["vrm", "gram"])
def test_class_relations_on_one_class_data_exit_3_before_the_run_dir(run_env, capsys, command,
                                                                     objective):
    rng = np.random.default_rng(0)
    data = run_env / "one_class.vrmdata"
    save_dataset(Dataset(rng.standard_normal((40, 6)), np.zeros(40, dtype=int), np.arange(32),
                         np.arange(32, 40), n_classes=1), data)
    ckpt = run_env / "teacher.ckpt"
    save_checkpoint(MLP(MLPSpec([6, 8, 1], "relu", 0)), ckpt)
    code = main([command, "--data", str(data), *one_objective(command, objective, ckpt),
                 "--epochs", "1", "--milestones", "1", "--batch-size", "8", "--name", "x"])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert err.startswith(f"error: {objective} relations take at least 2 classes")
    assert not (run_env / "runs").exists()


@pytest.mark.parametrize("command", ["train-teacher", "distill", "ablate"])
def test_negative_seed_exits_2_before_the_run_dir(run_env, capsys, command):
    data = gen_data(run_env)
    ckpt = run_env / "teacher.ckpt"
    save_checkpoint(MLP(MLPSpec([6, 8, 3], "relu", 0)), ckpt)
    common = ["--data", str(data), "--epochs", "2", "--milestones", "1", "--name", "neg"]
    argv = {"train-teacher": ["train-teacher", *common, "--seed", "-1"],
            "distill": ["distill", *common, "--teacher", str(ckpt), "--seed", "-1"],
            "ablate": ["ablate", *common, "--teacher", str(ckpt), "--objectives", "ce_only",
                       "--seeds", "0,-1"]}[command]
    assert_clean_error(capsys, main(argv), 2)
    assert not (run_env / "runs" / "neg").exists()


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--kind", "spirals", "--dim", "1"],
                                   ["--dim", "0"], ["--noise", "nan"], ["--noise", "inf"]],
                         ids=["negative-seed", "spirals-dim-1", "dim-0", "noise-nan", "noise-inf"])
def test_gen_data_degenerate_request_exits_2_without_a_file(run_env, capsys, flags):
    out = run_env / "sub" / "data.vrmdata"
    args = {"--kind": "blobs", "--classes": "3", "--dim": "4", "--per-class": "20"}
    args.update(zip(flags[::2], flags[1::2]))
    code = main(["gen-data", "--out", str(out), *[tok for item in args.items() for tok in item]])
    assert_clean_error(capsys, code, 2)
    assert not out.parent.exists()


@pytest.mark.parametrize("flags,culprit", [
    (["--dim", "0"], "--dim"), (["--batch", "1", "--spurious-index", "0"], "--batch"),
    (["--noise-scale", "nan"], "--noise-scale"), (["--loss-kinds", ","], "--loss-kinds"),
    (["--spurious-index", "64"], "--spurious-index"), (["--loss-kinds", "im,IM"], "--loss-kinds")],
    ids=["dim-0", "batch-1", "noise-scale-nan", "no-loss-kind", "spurious-index-64",
         "loss-kind-twice"])
def test_pilot_degenerate_study_exits_2_before_the_run_dir(run_env, capsys, flags, culprit):
    # the error line names the flag at fault
    code = main(["pilot", *flags, "--seeds", "1", "--name", "p"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error: {culprit} ") and "Traceback" not in err
    assert not (run_env / "runs").exists()


# (command, flag, out-of-range value): every flag that sets a field of a
# config record, the field's error names it
FLAG_CASES = [("distill", "--" + key.replace("_", "-"), value) for key, value in (
    ("alpha", "-1"), ("beta", "-1"), ("tau", "0"), ("delta", "0"), ("uep", "0"),
    ("n_ops", "5"), ("magnitude", "2"), ("lr", "0"), ("momentum", "nan"),
    ("weight_decay", "inf"), ("lr_decay", "nan"), ("milestones", "3,2"),
    ("batch_size", "1"), ("epochs", "0"), ("seed", "-1"), ("im_kd_weight", "nan"),
    ("widths", "6,0,3"))] + [
    ("ablate", "--seeds", "0,-1"), ("ablate", "--alphas", "1,-1"),
    ("ablate", "--objectives", "ce_only,nonsense"),
    ("pilot", "--batch", "1"), ("pilot", "--dim", "0"), ("pilot", "--spurious-index", "64"),
    ("pilot", "--noise-scale", "-1"), ("pilot", "--loss-kinds", "xx"),
    ("gen-data", "--classes", "1"), ("gen-data", "--dim", "0"),
    ("gen-data", "--per-class", "5"), ("gen-data", "--noise", "-1"),
    ("gen-data", "--seed", "-1")]


@pytest.mark.parametrize("command,flag,value", FLAG_CASES,
                         ids=[f"{c}{f}" for c, f, _ in FLAG_CASES])
def test_out_of_range_value_names_its_flag_and_creates_nothing(run_env, capsys,
                                                               command, flag, value):
    data = gen_data(run_env)
    ckpt = run_env / "teacher.ckpt"
    save_checkpoint(MLP(MLPSpec([6, 8, 3], "relu", 0)), ckpt)
    out = run_env / "sub" / "new.vrmdata"
    train = ["--data", str(data), "--epochs", "2", "--milestones", "1", "--batch-size", "8",
             "--name", "bad"]
    argv = {"distill": ["distill", *train, "--objective", "ce_only"],
            "ablate": ["ablate", *train, "--teacher", str(ckpt), "--objectives", "ce_only"],
            "pilot": ["pilot", "--batch", "8", "--dim", "4", "--spurious-index", "1",
                      "--seeds", "1", "--name", "bad"],
            "gen-data": ["gen-data", "--kind", "blobs", "--classes", "3", "--dim", "4",
                         "--per-class", "20", "--out", str(out)]}[command]
    code = main([*argv, flag, value])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error: {flag} ") and "Traceback" not in err
    assert not (run_env / "runs").exists() and not out.parent.exists()


def test_config_key_error_names_its_flag(run_env, capsys):
    data = gen_data(run_env)
    cfg = run_env / "bad.cfg"
    cfg.write_text("tau=0\n")
    code = main(["distill", "--data", str(data), "--objective", "ce_only",
                 "--config", str(cfg), "--name", "bad"])
    assert code == 2 and capsys.readouterr().err.startswith("error: --tau must be")
    assert not (run_env / "runs").exists()


# keys distill reads and a teacher, trained on labels alone, does not
TEACHER_UNREAD = ("objective", "alpha", "beta", "tau", "delta", "uep", "n_ops", "magnitude",
                  "im_kd_weight")


@pytest.mark.parametrize("command,key", [("train-teacher", key) for key in TEACHER_UNREAD]
                         + [("ablate", key) for key in ("objective", "seed", "alpha")])
def test_key_the_run_never_reads_exits_2_before_the_run_dir(run_env, capsys, command, key):
    # neither as a flag nor as a config key; ablate takes its objective,
    # seed and alpha from --objectives, --seeds and --alphas
    data = gen_data(run_env)
    ckpt = run_env / "teacher.ckpt"
    save_checkpoint(MLP(MLPSpec([6, 8, 3], "relu", 0)), ckpt)
    argv = [command, "--data", str(data), "--epochs", "2", "--milestones", "1", "--name", "a"]
    if command == "ablate":
        argv += ["--teacher", str(ckpt), "--objectives", "ce_only", "--seeds", "0"]
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc_info:
        main([*argv, flag, str(cli._DEFAULTS[key])])
    assert exc_info.value.code == 2
    assert f"unrecognized arguments: {flag} " in capsys.readouterr().err

    cfg = run_env / "a.cfg"
    cfg.write_text(f"{key}={cli._DEFAULTS[key]}\n")
    code = main([*argv, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2 and err == f"error: config key {key!r} does not apply to {command}\n"
    assert not (run_env / "runs").exists()


@pytest.mark.parametrize("command,count", [("train-teacher", 9), ("distill", 18),
                                           ("ablate", 15)])
def test_training_flags_are_the_config_keys(run_env, capsys, command, count):
    # a key is a flag of the command's parser exactly when its config file takes it
    parser, cfg = cli.build_parser(), run_env / "one.cfg"
    base = [command, "--data", "d"] + (["--teacher", "t"] if command == "ablate" else [])
    flags, config_keys = set(), set()
    for key, default in cli._DEFAULTS.items():
        try:
            parser.parse_args(base + ["--" + key.replace("_", "-"), str(default)])
            flags.add(key)
        except SystemExit:
            pass
        cfg.write_text(f"{key}={default}\n")
        try:
            cli._effective(parser.parse_args(base + ["--config", str(cfg)]))
            config_keys.add(key)
        except ParameterError as exc:
            assert str(exc) == f"config key {key!r} does not apply to {command}"
    capsys.readouterr()
    assert flags == config_keys and len(flags) == count


def test_pilot_rejects_zero_seeds(run_env, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["pilot", "--seeds", "0", "--name", "p0"])
    assert exc_info.value.code == 2
    assert "need >= 1 seed" in capsys.readouterr().err
    assert not (run_env / "runs" / "p0").exists()


def test_config_file_with_flag_override(run_env):
    data = gen_data(run_env)
    ckpt = train_teacher(run_env, data)
    cfg = run_env / "exp.cfg"
    cfg.write_text("objective=ce_only\nepochs=2\nmilestones=1\nbatch_size=16\nwidths=6,12,3\nseed=7\n")
    assert main(["distill", "--data", str(data), "--teacher", str(ckpt),
                 "--config", str(cfg), "--name", "cfg1"]) == 0
    manifest = (run_env / "runs" / "cfg1" / "manifest.txt").read_text()
    assert "objective=ce_only" in manifest and "seed=7" in manifest
    # flags override the file
    assert main(["distill", "--data", str(data), "--teacher", str(ckpt),
                 "--config", str(cfg), "--seed", "9", "--name", "cfg2"]) == 0
    assert "seed=9" in (run_env / "runs" / "cfg2" / "manifest.txt").read_text()


def test_teacher_config_file_widths_apply_and_the_flag_wins(run_env):
    data = gen_data(run_env)
    cfg = run_env / "teacher.cfg"
    cfg.write_text("widths=6,12,3\nepochs=2\nmilestones=1\nbatch_size=16\n")
    assert main(["train-teacher", "--data", str(data), "--config", str(cfg),
                 "--name", "t1"]) == 0
    assert "widths=6,12,3\n" in (run_env / "runs" / "t1" / "manifest.txt").read_text()
    assert main(["train-teacher", "--data", str(data), "--config", str(cfg),
                 "--widths", "6,8,3", "--name", "t2"]) == 0
    assert "widths=6,8,3\n" in (run_env / "runs" / "t2" / "manifest.txt").read_text()


def test_ablate_sweep_cardinality(run_env):
    data = gen_data(run_env)
    ckpt = train_teacher(run_env, data)
    assert main(["ablate", "--data", str(data), "--teacher", str(ckpt),
                 "--objectives", "ce_only,gram", "--seeds", "0,1,2",
                 "--epochs", "2", "--milestones", "1", "--batch-size", "16",
                 "--widths", "6,12,3", "--alphas", "4", "--beta", "1",
                 "--name", "sweep"]) == 0
    rows = (run_env / "runs" / "sweep" / "summary.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 3
    assert rows[0].split(",")[:2] == ["objective", "seed"]


@pytest.mark.parametrize("flag", ["--objectives", "--seeds", "--alphas"])
def test_ablate_rejects_empty_grid(run_env, capsys, flag):
    data = gen_data(run_env)
    ckpt = run_env / "teacher.ckpt"
    save_checkpoint(MLP(MLPSpec([6, 8, 3], "relu", 0)), ckpt)
    axes = {"--objectives": "ce_only", "--seeds": "0", "--alphas": "4", flag: ","}
    with pytest.raises(SystemExit) as exc_info:
        main(["ablate", "--data", str(data), "--teacher", str(ckpt), "--epochs", "2",
              "--milestones", "1", *[tok for item in axes.items() for tok in item],
              "--name", "empty"])
    assert exc_info.value.code == 2
    assert "empty sweep grid" in capsys.readouterr().err
    assert not (run_env / "runs").exists()


def test_pilot_command_outputs(run_env):
    assert main(["pilot", "--batch", "12", "--dim", "4", "--spurious-index", "3",
                 "--seeds", "2", "--loss-kinds", "im,rm", "--name", "p"]) == 0
    pdir = run_env / "runs" / "p"
    assert (pdir / "pilot_im_seed0.csv").exists()
    assert (pdir / "pilot_rm_seed1.csv").exists()
    summary = (pdir / "summary.csv").read_text().splitlines()
    assert summary[0] == "loss_kind,median_offtarget_abs_delta_g"
    assert any(line.startswith("RM_over_IM_ratio") for line in summary)


def test_check_quick_passes_fast(run_env, capsys):
    start = time.monotonic()
    assert main(["check", "--quick"]) == 0
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert elapsed < 30.0
    assert "PASS grad:huber" in out and "PASS oracle:ISV" in out
    # the ISV and ICV terms as training runs them
    for term in ("isv", "icv"):
        assert f"PASS grad:{term}_edge_loss" in out and f"PASS oracle:total_loss_{term}" in out
    # and against the public composites, within the derived bound
    for name in ("isv_edge_loss", "icv_edge_loss"):
        assert f"PASS match:{name}:" in out
    assert "PASS exact:virtual_batch:" in out and "PASS exact:uep_mask:" in out
    assert "PASS exact:relation_screen:" in out
    assert "all" in out and "passed" in out


@pytest.mark.parametrize("term", ["isv_edge_loss", "icv_edge_loss"])
def test_check_detects_a_drift_past_the_bound_of_a_fused_term(run_env, capsys, monkeypatch,
                                                               term):
    # the loss drifts by one part in 10^6, far past the bound (about 10^-9
    # of the loss); then the real view's gradient of every backward but the
    # first, which reruns the term
    import vrm.checks

    real_term = getattr(vrm.checks, term)
    for part in ("loss", "rerun real grad"):

        def drifted(*args, part=part, **kwargs):
            loss, kept = real_term(*args, **kwargs)
            if part == "loss":
                loss.data = loss.data * (1.0 + 1e-6)
            elif loss.node is not None:
                grad_fn, calls = loss.node.grad_fn, []

                def later_calls_drift(g):
                    calls.append(g)
                    g_real, g_virtual = grad_fn(g)
                    drift = len(calls) > 1
                    return (g_real * (1.0 + 1e-6) if drift else g_real), g_virtual

                loss.node.grad_fn = later_calls_drift
            return loss, kept

        monkeypatch.setattr(vrm.checks, term, drifted)
        code = main(["check", "--quick"])
        captured = capsys.readouterr()
        assert code == 1
        assert (f"FAIL match:{term}: fused and composite differ past the bound in {part}\n"
                in captured.out)
        assert f"match:{term}" in captured.err


def test_check_detects_injected_gradient_fault(run_env, capsys, monkeypatch):
    real_huber = vrm.autodiff.huber

    def sign_flipped_huber(a, b, delta=1.0):
        out = real_huber(a, b, delta)
        if out.node is not None:
            orig = out.node.grad_fn
            out.node.grad_fn = lambda g: tuple(
                None if gi is None else -gi for gi in orig(g))
        return out

    monkeypatch.setattr(vrm.autodiff, "huber", sign_flipped_huber)
    code = main(["check", "--quick"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL grad:huber" in captured.out
    assert "grad:huber" in captured.err


def test_check_detects_a_nan_in_the_relation_gradient(run_env, capsys, monkeypatch):
    real_term = vrm.losses._relation_term

    def nan_in_real_grad(*args):
        total, grads = real_term(*args)
        if grads is not None:
            grads[0].flat[0] = np.nan
        return total, grads

    monkeypatch.setattr(vrm.losses, "_relation_term", nan_in_real_grad)
    code = main(["check", "--quick"])
    captured = capsys.readouterr()
    assert code == 1
    failed = [line.split()[1].rstrip(":") for line in captured.out.splitlines()
              if line.startswith("FAIL ")]
    assert failed == ["grad:isv_edge_loss", "grad:icv_edge_loss", "grad:total_loss",
                      "match:isv_edge_loss", "match:icv_edge_loss"]


@pytest.mark.parametrize("case", ["milestones", "widths", "alphas", "config", "config-bytes"])
def test_unparsable_numbers_exit_2_before_the_run_dir(run_env, capsys, case):
    data = gen_data(run_env)
    ckpt = run_env / "teacher.ckpt"
    save_checkpoint(MLP(MLPSpec([6, 8, 3], "relu", 0)), ckpt)
    cfg = run_env / "bad.cfg"
    cfg.write_text("lr=abc\n")
    not_utf8 = run_env / "bytes.cfg"
    not_utf8.write_bytes(b"lr=0.1\xff\n")
    common = ["--data", str(data), "--teacher", str(ckpt), "--epochs", "2", "--name", "bad"]
    argv = {"milestones": ["distill", *common, "--milestones", "a"],
            "widths": ["distill", *common, "--widths", "4,x"],
            "alphas": ["ablate", *common, "--alphas", "x"],
            "config": ["distill", *common, "--config", str(cfg)],
            "config-bytes": ["distill", *common, "--config", str(not_utf8)]}[case]
    code = main(argv)
    assert_clean_error(capsys, code, 2)
    assert not (run_env / "runs" / "bad").exists()


def crafted_dataset(path, name, **arrays):
    """A copy of the dataset file ``path`` with ``arrays`` in place of its
    own, under a valid checksum, so only the content checks can reject it."""
    header, stored = read_artifact(path, DATASET_MAGIC, "dataset file")
    out = path.with_name(name)
    write_artifact(out, DATASET_MAGIC, header, {**stored, **arrays})
    return out


def test_distill_rejects_bad_split_indices_and_empty_data(run_env, capsys, monkeypatch):
    import vrm.training

    def never(*args, **kwargs):
        raise AssertionError("training started on a bad dataset")

    monkeypatch.setattr(vrm.training, "_train", never)
    data = gen_data(run_env)
    train_idx = load_dataset(data).train_idx.copy()
    train_idx[0] = 1_000_000
    bad_index = crafted_dataset(data, "bad_index.vrmdata", train_idx=train_idx)
    empty = crafted_dataset(data, "empty.vrmdata", inputs=np.zeros((0, 6)),
                            labels=np.zeros(0, int), train_idx=np.zeros(0, int),
                            val_idx=np.zeros(0, int))
    for path in (bad_index, empty):
        code = main(["distill", "--data", str(path), "--objective", "ce_only",
                     "--epochs", "2", "--milestones", "1", "--name", "x"])
        assert_clean_error(capsys, code, 3)
    assert not (run_env / "runs" / "x").exists()


@pytest.mark.parametrize("argv", [["train-teacher"], ["distill", "--objective", "ce_only"]],
                         ids=["train-teacher", "distill"])
def test_a_dataset_with_no_feature_columns_exits_3_not_blaming_widths(run_env, capsys, argv):
    data = gen_data(run_env)
    n = load_dataset(data).inputs.shape[0]
    no_columns = crafted_dataset(data, "no_columns.vrmdata", inputs=np.zeros((n, 0)))
    code = main([*argv, "--data", str(no_columns), "--epochs", "2", "--milestones", "1",
                 "--name", "x"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "Traceback" not in err
    assert "feature columns" in err and "--widths" not in err
    assert not (run_env / "runs" / "x").exists()


def test_distill_on_a_non_finite_input_exits_3_before_the_run_dir(run_env, capsys):
    data = gen_data(run_env)
    inputs = load_dataset(data).inputs.copy()
    inputs[5, 2] = np.nan
    nan_data = crafted_dataset(data, "nan.vrmdata", inputs=inputs)
    code = main(["distill", "--data", str(nan_data), "--objective", "ce_only",
                 "--epochs", "2", "--milestones", "1", "--name", "x"])
    assert_clean_error(capsys, code, 3)
    assert not (run_env / "runs" / "x").exists()


@pytest.mark.parametrize("array", ["labels", "train_idx"])
def test_distill_on_fractional_labels_or_indices_exits_3_before_the_run_dir(run_env, capsys,
                                                                           array):
    data = gen_data(run_env)
    values = getattr(load_dataset(data), array).astype(float)
    values[1] += 0.7
    bad = crafted_dataset(data, "fractional.vrmdata", **{array: values})
    code = main(["distill", "--data", str(bad), "--objective", "ce_only",
                 "--epochs", "2", "--milestones", "1", "--name", "x"])
    assert_clean_error(capsys, code, 3)
    assert not (run_env / "runs" / "x").exists()


@pytest.mark.parametrize("signum, code, error_class", [
    (signal.SIGTERM, 143, "Terminated"), (signal.SIGINT, 130, "KeyboardInterrupt"),
    (signal.SIGHUP, 129, "Terminated")],
    ids=["SIGTERM", "SIGINT", "SIGHUP"])
def test_a_signal_ends_the_run_failed_with_one_error_line(run_env, signum, code, error_class):
    data = gen_data(run_env)
    run_dir = run_env / "runs" / "long"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    # a parent that ignores SIGINT (a background shell job) passes that on
    proc = subprocess.Popen(
        [sys.executable, "-m", "vrm.cli", "distill", "--data", str(data), "--objective",
         "ce_only", "--epochs", "100000", "--milestones", "1", "--name", "long"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        deadline = time.monotonic() + 60
        while not (run_dir / "manifest.txt").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        time.sleep(0.3)
        proc.send_signal(signum)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == code
    assert err.splitlines() == [f"error: interrupted by {signal.Signals(signum).name}"]
    manifest = (run_dir / "manifest.txt").read_text().splitlines()
    assert "status=failed" in manifest and f"error_class={error_class}" in manifest



def child_pids(pid):
    """The pids of the live or unreaped processes whose parent is ``pid``."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid ...", where comm may hold spaces and parentheses
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError):   # the process ended while it was read
            continue
        if ppid == pid:
            kids.append(int(stat.parent.name))
    return kids


# a vrm run forks its worker only where it may use two CPUs or more
needs_proc = pytest.mark.skipif(
    not Path("/proc/self/stat").exists() or len(os.sched_getaffinity(0)) < 2,
    reason="finds the worker in /proc, and a run on one CPU forks none")


@pytest.fixture()
def vrm_run(run_env):
    """A long ``vrm distill`` of the vrm objective in a subprocess, once it has
    forked its worker: (the process, the worker's pid, the run directory)."""
    data = gen_data(run_env)
    ckpt = train_teacher(run_env, data)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "vrm.cli", "distill", "--data", str(data), "--teacher",
         str(ckpt), "--objective", "vrm", "--epochs", "100000", "--milestones", "1",
         "--batch-size", "16", "--widths", "6,12,3", "--name", "long"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not (workers := child_pids(proc.pid)):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        assert len(workers) == 1
        yield proc, workers[0], run_env / "runs" / "long"
    finally:
        proc.kill()
        proc.wait(timeout=60)


def assert_gone(pid):
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


@needs_proc
def test_sigterm_ends_a_vrm_run_failed_and_leaves_no_worker(vrm_run):
    proc, worker, run_dir = vrm_run
    proc.send_signal(signal.SIGTERM)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 143
    assert err.splitlines() == ["error: interrupted by SIGTERM"]
    manifest = (run_dir / "manifest.txt").read_text().splitlines()
    assert "status=failed" in manifest and "error_class=Terminated" in manifest
    assert_gone(worker)


@needs_proc
def test_sighup_ends_a_vrm_run_failed_and_leaves_no_worker(vrm_run):
    # a hangup reaches the worker too, which leaves it to the run
    proc, worker, run_dir = vrm_run
    os.kill(worker, signal.SIGHUP)
    time.sleep(0.3)
    assert proc.poll() is None and worker in child_pids(proc.pid)
    proc.send_signal(signal.SIGHUP)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 129
    assert err.splitlines() == ["error: interrupted by SIGHUP"]
    manifest = (run_dir / "manifest.txt").read_text().splitlines()
    assert "status=failed" in manifest and "error_class=Terminated" in manifest
    assert_gone(worker)


@needs_proc
def test_a_killed_worker_fails_the_run_with_one_error_line(vrm_run):
    proc, worker, run_dir = vrm_run
    os.kill(worker, signal.SIGKILL)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_WORKER == 5
    assert err.splitlines() == [
        f"error: the teacher worker ended early (killed by signal {signal.SIGKILL:d})"]
    manifest = (run_dir / "manifest.txt").read_text().splitlines()
    assert "status=failed" in manifest and "error_class=WorkerError" in manifest
    assert_gone(worker)


def test_a_run_puts_the_earlier_sigterm_handler_back(run_env):
    # and the earlier SIGHUP handler
    def earlier(signum, frame):
        pass

    data = gen_data(run_env)
    previous = {signum: signal.signal(signum, earlier)
                for signum in (signal.SIGTERM, signal.SIGHUP)}
    try:
        assert main(["distill", "--data", str(data), "--objective", "ce_only",
                     "--epochs", "1", "--milestones", "1", "--name", "x"]) == 0
        assert all(signal.getsignal(signum) is earlier for signum in previous)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def test_a_run_on_another_thread_leaves_the_sigterm_handler_alone(run_env):
    data = gen_data(run_env)
    codes = []
    worker = threading.Thread(target=lambda: codes.append(main(
        ["distill", "--data", str(data), "--objective", "ce_only", "--epochs", "1",
         "--milestones", "1", "--name", "x"])))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and codes == [0]
    assert "status=complete" in (run_env / "runs" / "x" / "manifest.txt").read_text()
