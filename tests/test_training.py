import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from vrm.data import AugmentSpec, make_synthetic_dataset
from vrm.errors import ParameterError, TrainingError, UsageError, WorkerError
from vrm.losses import VRMWeights
from vrm.models import MLP, MLPSpec
from vrm.training import (
    OBJECTIVES,
    STEP_COLUMNS,
    EpochRecord,
    TrainConfig,
    _drawn_ahead,
    distill_student,
    train_teacher,
    write_breakdown_csv,
    write_metrics_csv,
)


@pytest.fixture(scope="module")
def blobs():
    return make_synthetic_dataset("blobs", 3, 6, 30, 0.3, seed=1)


@pytest.fixture(scope="module")
def quick_config():
    return TrainConfig(epochs=8, milestones=(5, 7), lr=0.1, batch_size=16, seed=0,
                       weights=VRMWeights(alpha=8.0, beta=2.0),
                       augment=AugmentSpec(magnitude=0.1, seed=0))


@pytest.fixture(scope="module")
def blobs_teacher(blobs, quick_config):
    model, records = train_teacher(MLPSpec([6, 24, 3], "relu", 0), blobs, quick_config)
    return model, records


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(batch_size=1)
    with pytest.raises(ParameterError):
        TrainConfig(milestones=(10, 10))
    with pytest.raises(ParameterError):
        TrainConfig(milestones=(10, 5))
    with pytest.raises(ParameterError):
        TrainConfig(epochs=0)
    with pytest.raises(ParameterError):
        TrainConfig(seed=-1)
    cfg = TrainConfig(lr=0.2, lr_decay=0.5, milestones=(2, 4))
    assert cfg.lr_at(0) == 0.2 and cfg.lr_at(2) == 0.1 and cfg.lr_at(4) == 0.05


def test_teacher_learns_separable_blobs(blobs, quick_config):
    clean = make_synthetic_dataset("blobs", 3, 6, 30, 0.0, seed=1)
    model, records = train_teacher(MLPSpec([6, 24, 3], "relu", 0), clean, quick_config)
    assert records[-1].val_acc >= 0.99
    assert len(records) == quick_config.epochs


def test_teacher_multi_seed_accuracy_band():
    # pinned from a seeded run of this exact protocol: mean was 0.780
    data = make_synthetic_dataset("spirals", 5, 8, 30, 0.1, seed=21)
    accs = []
    for seed in range(5):
        cfg = TrainConfig(epochs=25, milestones=(15, 20), lr=0.1, batch_size=24, seed=seed)
        _, recs = train_teacher(MLPSpec([8, 48, 5], "relu", seed), data, cfg)
        accs.append(recs[-1].val_acc)
    assert 0.70 <= float(np.mean(accs)) <= 0.86


def test_training_is_deterministic(blobs, quick_config):
    _, r1 = train_teacher(MLPSpec([6, 24, 3], "relu", 0), blobs, quick_config)
    _, r2 = train_teacher(MLPSpec([6, 24, 3], "relu", 0), blobs, quick_config)
    assert r1 == r2


def test_ce_only_distillation_reproduces_teacher_training(blobs, quick_config):
    spec = MLPSpec([6, 24, 3], "relu", 0)
    _, direct = train_teacher(spec, blobs, quick_config)
    _, via_distill = distill_student(spec, None, blobs, quick_config, "ce_only")
    assert direct == via_distill


def test_teacher_frozen_during_distillation(blobs, blobs_teacher, quick_config):
    teacher, _ = blobs_teacher
    before = teacher.param_checksum()
    distill_student(MLPSpec([6, 12, 3], "relu", 1), teacher, blobs, quick_config, "vrm")
    assert teacher.param_checksum() == before


def test_clone_start_relation_losses_vanish(blobs):
    # untrained teacher with the same spec/seed as the student: the
    # student starts as an exact clone, so the one-batch first epoch
    # records zero relation loss
    spec = MLPSpec([6, 24, 3], "relu", 5)
    teacher = MLP(spec)
    config = TrainConfig(epochs=1, milestones=(1,), lr=0.01,
                         batch_size=blobs.train_idx.size, seed=3,
                         weights=VRMWeights(alpha=8.0, beta=2.0),
                         augment=AugmentSpec(magnitude=0.1, seed=3))
    _, records = distill_student(spec, teacher, blobs, config, "vrm")
    assert records[0].isv + records[0].icv < 1e-10
    assert records[0].ce_real > 0.0


def test_batch_larger_than_train_split_is_rejected(blobs):
    n_train = blobs.train_idx.size
    spec = MLPSpec([6, 12, 3], "relu", 0)
    with pytest.raises(ParameterError, match="exceeds"):
        train_teacher(spec, blobs, TrainConfig(epochs=1, milestones=(1,), batch_size=n_train + 1))
    # one full batch is the largest that trains
    _, records = train_teacher(spec, blobs, TrainConfig(epochs=1, milestones=(1,),
                                                        batch_size=n_train))
    assert len(records) == 1


def test_objective_validation(blobs, blobs_teacher):
    teacher, _ = blobs_teacher
    cfg = TrainConfig(epochs=1, milestones=(1,), batch_size=16)
    with pytest.raises(ParameterError):
        distill_student(MLPSpec([6, 12, 3], "relu", 0), teacher, blobs, cfg, "bogus")
    with pytest.raises(ParameterError):
        distill_student(MLPSpec([6, 12, 3], "relu", 0), None, blobs, cfg, "vrm")


@pytest.mark.parametrize("objective", ["vrm", "im_kd", "gram", "angular"])
def test_all_objectives_run_and_log(blobs, blobs_teacher, objective):
    teacher, _ = blobs_teacher
    cfg = TrainConfig(epochs=2, milestones=(2,), lr=0.05, batch_size=16, seed=2,
                      weights=VRMWeights(alpha=4.0, beta=1.0),
                      augment=AugmentSpec(magnitude=0.1, seed=2))
    _, records = distill_student(MLPSpec([6, 12, 3], "relu", 1), teacher, blobs, cfg, objective)
    assert len(records) == 2
    for r in records:
        assert 0.0 <= r.train_acc <= 1.0 and 0.0 <= r.val_acc <= 1.0
    if objective == "vrm":
        assert 0.0 < records[0].kept_isv_frac <= 1.0
        assert records[0].isv > 0.0


def test_vrm_breakdown_identity_on_epoch_means(blobs, blobs_teacher):
    teacher, _ = blobs_teacher
    w = VRMWeights(alpha=8.0, beta=2.0)
    cfg = TrainConfig(epochs=3, milestones=(3,), lr=0.05, batch_size=16, seed=4,
                      weights=w, augment=AugmentSpec(magnitude=0.1, seed=4))
    _, records = distill_student(MLPSpec([6, 12, 3], "relu", 1), teacher, blobs, cfg, "vrm")
    for r in records:
        recomposed = r.ce_real + r.ce_virtual + w.alpha * r.isv + w.beta * r.icv
        assert recomposed == pytest.approx(r.total, abs=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_training_error(blobs):
    cfg = TrainConfig(epochs=5, milestones=(5,), lr=1e200, batch_size=16, seed=0)
    with pytest.raises(TrainingError) as exc_info:
        train_teacher(MLPSpec([6, 24, 3], "relu", 0), blobs, cfg)
    assert exc_info.value.epoch is not None


def test_metrics_csv_writers(tmp_path, blobs_teacher):
    _, records = blobs_teacher
    m = tmp_path / "metrics.csv"
    b = tmp_path / "breakdown.csv"
    write_metrics_csv(records, m)
    write_breakdown_csv(records, b)
    lines = m.read_text().splitlines()
    assert lines[0] == "epoch,lr,train_acc,val_acc"
    assert len(lines) == len(records) + 1
    breakdown = b.read_text().splitlines()[0].split(",")
    assert tuple(breakdown) == ("epoch", "total", *STEP_COLUMNS)
    assert breakdown[:3] == ["epoch", "total", "ce_real"]
    # the two files together hold every EpochRecord field, epoch in both
    fields = [f.name for f in dataclasses.fields(EpochRecord)]
    assert lines[0].split(",") + breakdown[1:] == fields


@pytest.mark.parametrize("objective", list(OBJECTIVES))
def test_every_objective_row_has_the_step_columns(blobs, blobs_teacher, objective):
    teacher, _ = blobs_teacher
    xb, yb = blobs.train_inputs[:16], blobs.train_labels[:16]
    xv = xb + 0.1
    _, row = OBJECTIVES[objective](MLP(MLPSpec([6, 12, 3], "relu", 1)),
                                   (teacher.logits(xb), teacher.logits(xv)), xb, yb, xv,
                                   TrainConfig(weights=VRMWeights(alpha=4.0, beta=1.0)))
    assert tuple(row) == STEP_COLUMNS
    assert all(type(v) is float for v in row.values())



def use_cpus(monkeypatch, cpus):
    """Make the process see ``cpus`` as the CPUs it may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


@pytest.fixture()
def forks(monkeypatch):
    """The pid of each process forked while the test runs, on two CPUs
    whatever the host has, so that a vrm run forks its worker."""
    use_cpus(monkeypatch, {0, 1})
    pids, real_fork = [], os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pid):
    # waitpid finds no such child once its exit status has been collected
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("objective", list(OBJECTIVES))
def test_only_vrm_forks_and_its_worker_is_reaped(blobs, blobs_teacher, quick_config, forks,
                                                 objective):
    teacher, _ = blobs_teacher
    distill_student(MLPSpec([6, 12, 3], "relu", 1), teacher, blobs, quick_config, objective)
    assert len(forks) == (objective == "vrm")
    for pid in forks:
        assert_reaped(pid)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverged_vrm_run_reaps_its_worker(blobs, blobs_teacher, forks):
    teacher, _ = blobs_teacher
    cfg = TrainConfig(epochs=5, milestones=(5,), lr=1e200, batch_size=16, seed=0)
    with pytest.raises(TrainingError) as exc_info:
        distill_student(MLPSpec([6, 12, 3], "relu", 1), teacher, blobs, cfg, "vrm")
    assert exc_info.value.epoch == 0   # the worker still had later epochs' plans to draw
    assert len(forks) == 1
    assert_reaped(forks[0])


def test_a_worker_that_fails_is_an_error_not_a_hang(forks):
    # the second key is negative, so the worker's draw raises and it exits 1
    xb, teacher = np.zeros((4, 3)), MLP(MLPSpec([3, 5, 2]))
    with _drawn_ahead(teacher, AugmentSpec(), [((0, 0), xb), ((-1, 0), xb)]) as next_step:
        assert next_step((0, 0), xb)[0].key == (0, 2, AugmentSpec().op_pool, 0, 0)
        with pytest.raises(WorkerError, match="exit status 1"):
            next_step((-1, 0), xb)
    assert_reaped(forks[0])


def test_a_worker_slow_to_exit_is_waited_for_not_killed(forks, monkeypatch):
    # the worker lingers after its end of the pipe has closed: the error
    # still gives its exit status, not a kill by the run
    real_exit = os._exit

    def slow_exit(code):
        time.sleep(0.2)
        real_exit(code)

    monkeypatch.setattr(os, "_exit", slow_exit)
    xb = np.zeros((4, 3))
    with _drawn_ahead(MLP(MLPSpec([3, 5, 2])), AugmentSpec(), [((-1, 0), xb)]) as next_step:
        with pytest.raises(WorkerError, match="exit status 1"):
            next_step((-1, 0), xb)
    assert_reaped(forks[0])


def outputs(student, records, tmp_path):
    """The bytes a run writes: metrics.csv, breakdown.csv and the weights."""
    tmp_path.mkdir()
    write_metrics_csv(records, tmp_path / "metrics.csv")
    write_breakdown_csv(records, tmp_path / "breakdown.csv")
    return ((tmp_path / "metrics.csv").read_bytes(), (tmp_path / "breakdown.csv").read_bytes(),
            b"".join(p.data.tobytes() for p in student.parameters()))


def test_one_cpu_runs_the_steps_inline_with_the_forked_bytes(blobs, blobs_teacher, quick_config,
                                                             forks, monkeypatch, tmp_path):
    teacher, _ = blobs_teacher
    spec = MLPSpec([6, 12, 3], "relu", 1)
    forked = outputs(*distill_student(spec, teacher, blobs, quick_config, "vrm"),
                     tmp_path / "forked")
    assert len(forks) == 1
    use_cpus(monkeypatch, {0})
    inline = outputs(*distill_student(spec, teacher, blobs, quick_config, "vrm"),
                     tmp_path / "inline")
    assert len(forks) == 1
    assert inline == forked


def overflowing(teacher):
    """A copy of ``teacher`` with its first two layers' weights times 1e200,
    so that its logits overflow on every batch."""
    big = MLP(teacher.spec)
    for p, q in zip(big.parameters(), teacher.parameters()):
        p.data = q.data * (1e200 if any(p is w for w in big.weights[:2]) else 1.0)
    return big


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowing_teacher_diverges_alike_forked_and_inline(blobs, blobs_teacher,
                                                                quick_config, forks,
                                                                monkeypatch):
    teacher = overflowing(blobs_teacher[0])
    errors = []
    for cpus in ({0, 1}, {0}):
        use_cpus(monkeypatch, cpus)
        with pytest.raises(TrainingError) as exc_info:
            distill_student(MLPSpec([6, 12, 3], "relu", 1), teacher, blobs, quick_config, "vrm")
        errors.append((type(exc_info.value), str(exc_info.value), exc_info.value.epoch))
    assert errors == 2 * [(TrainingError, "diverged at epoch 0: affine produced non-finite "
                                          "values", 0)]
    assert len(forks) == 1
    assert_reaped(forks[0])


def test_a_message_for_another_step_raises_usage_error(forks):
    spec, xb = AugmentSpec(), np.ones((4, 3))
    with _drawn_ahead(MLP(MLPSpec([3, 5, 2])), spec, [((0, 1), xb)]) as next_step:
        with pytest.raises(UsageError, match=r"\(0, 2, .*, 0, 1\)"):
            next_step((0, 0), xb)


def check_worker_logits(batch_size, widths, n_steps=8):
    """The teacher logits the worker sends for ``n_steps`` shuffled batches
    are, bit for bit, the ones ``teacher.logits`` gives in this process."""
    rng = np.random.default_rng(batch_size)
    teacher = MLP(MLPSpec(list(widths), "relu", 3))
    x = rng.standard_normal((3 * batch_size, widths[0]))
    spec = AugmentSpec(seed=5)
    batches = [((0, step), x[rng.permutation(len(x))[:batch_size]]) for step in range(n_steps)]
    with _drawn_ahead(teacher, spec, batches) as next_step:
        for key, xb in batches:
            _, xv, t_real, t_virtual = next_step(key, xb)
            assert t_real.tobytes() == teacher.logits(xb).tobytes()
            assert t_virtual.tobytes() == teacher.logits(xv).tobytes()


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# the teachers of the two vrm workloads of bench/vrmbench/workloads.py
@pytest.mark.parametrize("batch_size,widths", [(32, (16, 128, 64, 10)),
                                               (128, (32, 128, 64, 32))])
@pytest.mark.parametrize("blas", ["pinned", "unpinned"])
def test_the_workers_teacher_logits_are_the_parents_bit_for_bit(batch_size, widths, blas):
    # a fresh process, with BLAS on one thread or on as many as it picks
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    if blas == "pinned":
        env.update(dict.fromkeys(BLAS_THREADS, "1"))
    here = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    code = ("from test_training import check_worker_logits; "
            f"check_worker_logits({batch_size}, {widths})")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
