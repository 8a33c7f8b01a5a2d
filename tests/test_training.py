import contextlib
import dataclasses
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from vrm import training
from vrm.data import AUGMENT_OPS, AugmentSpec, draw_plan, make_synthetic_dataset, virtual_batch
from vrm.errors import ParameterError, TrainingError, UsageError, WorkerError
from vrm.losses import VRMWeights
from vrm.models import MLP, MLPSpec
from vrm.training import (
    OBJECTIVES,
    STEP_COLUMNS,
    EpochRecord,
    TrainConfig,
    _cpus,
    _drawn_ahead,
    _pack_step,
    _unpack,
    distill_student,
    teacher_side,
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


@pytest.mark.parametrize("run", [
    lambda data, teacher: train_teacher(
        MLPSpec([4, 8, 3], "relu", 1), data, TrainConfig(lr=1e300, epochs=2, batch_size=32)),
    lambda data, teacher: distill_student(
        MLPSpec([4, 8, 3], "relu", 1), teacher, data,
        TrainConfig(weights=VRMWeights(alpha=1e308), epochs=1, batch_size=32), "vrm"),
], ids=["teacher-lr", "distill-alpha"])
def test_a_divergence_on_an_epochs_last_step_is_a_training_error(run):
    # a train split of one batch (48 rows at batch 32), so the step that leaves
    # non-finite weights is the epoch's last, and only its accuracy reads them
    data = make_synthetic_dataset("blobs", 3, 4, 20, 0.5, seed=0)
    with pytest.raises(TrainingError, match="^diverged at epoch 0: ") as exc_info:
        run(data, MLP(MLPSpec([4, 8, 3], "relu", 0)))
    assert exc_info.value.epoch == 0


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
    config = TrainConfig(weights=VRMWeights(alpha=4.0, beta=1.0))
    _, xv, t_side = teacher_side(objective, teacher, config)((0, 0), xb)
    _, row = OBJECTIVES[objective].loss(MLP(MLPSpec([6, 12, 3], "relu", 1)), t_side, xb, yb, xv,
                                        config)
    assert tuple(row) == STEP_COLUMNS
    assert all(type(v) is float for v in row.values())


# the objectives with a teacher side, which a run on two CPUs or more forks
TEACHER_OBJECTIVES = ["vrm", "im_kd", "gram", "angular"]


def test_every_objective_but_ce_only_has_a_teacher_side():
    assert [o for o in OBJECTIVES if OBJECTIVES[o].teacher_side] == TEACHER_OBJECTIVES


def vrm_side(teacher, spec):
    """The vrm teacher side of ``teacher`` with the views of ``spec``."""
    return teacher_side("vrm", teacher, TrainConfig(augment=spec))


def use_cpus(monkeypatch, cpus):
    """Make the process see ``cpus`` as the CPUs it may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


def record_forks(monkeypatch):
    """The list the pid of each process forked from now on is added to."""
    pids, real_fork = [], os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture()
def forks(monkeypatch):
    """The pid of each process forked while the test runs, on two CPUs
    whatever the host has, so that a run with a teacher forks its worker."""
    if len(_cpus()) < 2:
        use_cpus(monkeypatch, {0, 1})
    return record_forks(monkeypatch)


def assert_reaped(pid):
    # waitpid finds no such child once its exit status has been collected
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("objective", list(OBJECTIVES))
def test_each_teacher_objective_forks_once_and_its_worker_is_reaped(blobs, blobs_teacher,
                                                                    quick_config, forks,
                                                                    objective):
    teacher, _ = blobs_teacher
    distill_student(MLPSpec([6, 12, 3], "relu", 1), teacher, blobs, quick_config, objective)
    assert len(forks) == (objective != "ce_only")
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
    xb, spec = np.zeros((4, 3)), AugmentSpec()
    side = vrm_side(MLP(MLPSpec([3, 5, 2])), spec)
    with _drawn_ahead(side, spec, [((0, 0), xb), ((-1, 0), xb)]) as next_step:
        assert np.array_equal(next_step((0, 0), xb)[1], virtual_batch(xb, spec, (0, 0)))
        with pytest.raises(WorkerError, match="exit status 1"):
            next_step((-1, 0), xb)
    assert_reaped(forks[0])


def test_a_worker_that_raises_names_its_exception(forks):
    # the worker's draw of a negative key raises ValueError: the error keeps
    # the worker's exit status and adds the exception's class and text
    xb, spec = np.zeros((4, 3)), AugmentSpec()
    with _drawn_ahead(vrm_side(MLP(MLPSpec([3, 5, 2])), spec), spec,
                      [((-1, 0), xb)]) as next_step:
        with pytest.raises(WorkerError, match=r"^the teacher worker ended early "
                                              r"\(exit status 1\): ValueError: \S"):
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
    xb, spec = np.zeros((4, 3)), AugmentSpec()
    with _drawn_ahead(vrm_side(MLP(MLPSpec([3, 5, 2])), spec), spec,
                      [((-1, 0), xb)]) as next_step:
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


@pytest.mark.parametrize("objective", TEACHER_OBJECTIVES)
def test_one_cpu_runs_the_steps_inline_with_the_forked_bytes(blobs, blobs_teacher, quick_config,
                                                             forks, monkeypatch, tmp_path,
                                                             objective):
    teacher, _ = blobs_teacher
    spec = MLPSpec([6, 12, 3], "relu", 1)
    forked = outputs(*distill_student(spec, teacher, blobs, quick_config, objective),
                     tmp_path / "forked")
    assert len(forks) == 1
    use_cpus(monkeypatch, {0})
    inline = outputs(*distill_student(spec, teacher, blobs, quick_config, objective),
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
@pytest.mark.parametrize("objective", TEACHER_OBJECTIVES)
def test_an_overflowing_teacher_diverges_alike_forked_and_inline(blobs, blobs_teacher,
                                                                quick_config, forks,
                                                                monkeypatch, objective):
    teacher = overflowing(blobs_teacher[0])
    errors = []
    # forked on the CPUs the forks fixture leaves, then inline on one
    for inline in (False, True):
        if inline:
            use_cpus(monkeypatch, {0})
        with pytest.raises(TrainingError) as exc_info:
            distill_student(MLPSpec([6, 12, 3], "relu", 1), teacher, blobs, quick_config,
                            objective)
        errors.append((type(exc_info.value), str(exc_info.value), exc_info.value.epoch))
    assert errors == 2 * [(TrainingError, "diverged at epoch 0: affine produced non-finite "
                                          "values", 0)]
    assert len(forks) == 1
    assert_reaped(forks[0])


@pytest.mark.parametrize("key,shape", [((0, 0), (4, 3)), ((0, 1), (5, 3)), ((0, 1), (4, 4))],
                         ids=["key", "rows", "dim"])
@pytest.mark.parametrize("objective", ["vrm", "gram"])
def test_a_message_for_another_step_raises_usage_error(forks, objective, key, shape):
    # the worker's message is for step (0, 1) at shape (4, 3); the check
    # comes before a vrm plan is applied to the loop's batch
    spec, xb = AugmentSpec(), np.ones((4, 3))
    side = teacher_side(objective, MLP(MLPSpec([3, 5, 2])), TrainConfig(augment=spec))
    with _drawn_ahead(side, spec, [((0, 1), xb)]) as next_step:
        with pytest.raises(UsageError, match=re.escape(
                f"the teacher worker's step (0, 1) at shape (4, 3) is not step {key} "
                f"at shape {shape}")):
            next_step(key, np.ones(shape))


def same_arrays(got, want):
    return [(a.dtype, a.shape, a.tobytes()) for a in got] == [(a.dtype, a.shape, a.tobytes())
                                                              for a in want]


def test_a_step_message_carries_each_key_part_as_one_int64():
    key = (0, 2**32 - 1, 2**32, 2**63 - 1)
    spec, xb = AugmentSpec(n_ops=3, seed=2**70 + 1), np.arange(12.0).reshape(4, 3)
    plan = draw_plan(spec, key, xb.shape)
    ints, floats = _pack_step(key, xb.shape, plan, (np.zeros((4, 2)), np.ones((4, 2))))
    # the head: _STEP, rows, dim, the part count, the parts, then the plan's 3 arrays
    assert ints[3:12].tolist() == [0, 4, 3, 4, 0, 2**32 - 1, 2**32, 2**63 - 1, 3]
    got_key, shape, got, (t_real, t_virtual) = _unpack(ints, floats)
    assert got_key == key and shape == xb.shape
    assert same_arrays(got, plan)
    assert np.array_equal(virtual_batch(xb, spec, key, got), virtual_batch(xb, spec, key))
    assert np.array_equal(t_real, np.zeros((4, 2))) and np.array_equal(t_virtual, np.ones((4, 2)))


@pytest.mark.parametrize("part", [2**63, 2**64, -2**63 - 1])
def test_a_key_part_outside_int64_cannot_be_packed(part):
    with pytest.raises(OverflowError):
        _pack_step((0, part), (4, 3), None, ())


def test_a_worker_whose_key_cannot_be_packed_is_a_worker_error(forks):
    # the worker draws the plan of a key past int64, then fails to send it
    xb, spec, key = np.zeros((4, 3)), AugmentSpec(), (2**63, 0)
    with _drawn_ahead(vrm_side(MLP(MLPSpec([3, 5, 2])), spec), spec, [(key, xb)]) as next_step:
        with pytest.raises(WorkerError, match=r"\(exit status 1\): OverflowError: \S"):
            next_step(key, xb)
    assert_reaped(forks[0])


@pytest.mark.parametrize("shapes", [[(4,), (5, 5), (2, 3, 4)], [(1,), (1, 1), (1, 1, 1)],
                                    [(0,), (3, 0), (0, 2, 2)], []],
                         ids=["some", "ones", "empty", "none"])
def test_a_step_message_without_a_plan_carries_its_arrays_and_their_shapes(shapes):
    rng = np.random.default_rng(0)
    arrays = [make(shape) for shape in shapes
              for make in (rng.standard_normal, lambda s: rng.integers(-2**63, 2**63 - 1, s))]
    ints, floats = _pack_step((2, 7), (5, 3), None, arrays)
    got_key, shape, plan, got = _unpack(ints, floats)
    assert (got_key, shape, plan) == ((2, 7), (5, 3), None)
    assert same_arrays(got, arrays)


@pytest.mark.parametrize("n_ops,rows", [(0, 4), (0, 1), (2, 1), (4, 1), (4, 6)])
def test_a_plan_crosses_the_message_at_every_slot_and_row_count(n_ops, rows):
    spec, key = AugmentSpec(n_ops=n_ops, magnitude=0.5), (3, 1)
    xb = np.random.default_rng(n_ops).standard_normal((rows, 5))
    plan = draw_plan(spec, key, xb.shape)
    assert [a.shape for a in plan] == [(n_ops, rows), (n_ops, len(AUGMENT_OPS) + 1),
                                       (n_ops, rows, 7)]
    got_key, shape, got, arrays = _unpack(*_pack_step(key, xb.shape, plan, (np.ones(rows),)))
    assert (got_key, shape) == (key, xb.shape)
    assert same_arrays(got, plan) and same_arrays(arrays, (np.ones(rows),))
    assert np.array_equal(virtual_batch(xb, spec, key, got), virtual_batch(xb, spec, key))


def check_worker_logits(batch_size, widths, n_steps=8, objective="vrm"):
    """The teacher side ``objective``'s worker sends for ``n_steps``
    shuffled batches is, bit for bit, the one it gives in this process:
    the logits ``teacher.logits`` gives, or the relation targets."""
    rng = np.random.default_rng(batch_size)
    teacher = MLP(MLPSpec(list(widths), "relu", 3))
    x = rng.standard_normal((3 * batch_size, widths[0]))
    config = TrainConfig(augment=AugmentSpec(seed=5))
    side = teacher_side(objective, teacher, config)
    batches = [((0, step), x[rng.permutation(len(x))[:batch_size]]) for step in range(n_steps)]
    with _drawn_ahead(side, config.augment, batches) as next_step:
        for key, xb in batches:
            _, xv, arrays = next_step(key, xb)
            want = side(key, xb)[2]
            if objective == "vrm":
                assert arrays[0].tobytes() == teacher.logits(xb).tobytes()
                assert arrays[1].tobytes() == teacher.logits(xv).tobytes()
            assert [(a.shape, a.tobytes()) for a in arrays] == [(a.shape, a.tobytes())
                                                                for a in want]


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_check_worker_logits(blas, *args):
    # a fresh process, with BLAS on one thread or on as many as it picks
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    if blas == "pinned":
        env.update(dict.fromkeys(BLAS_THREADS, "1"))
    here = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    code = f"from test_training import check_worker_logits; check_worker_logits{args!r}"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# the teachers of the two vrm workloads of bench/vrmbench/workloads.py
@pytest.mark.parametrize("batch_size,widths", [(32, (16, 128, 64, 10)),
                                               (128, (32, 128, 64, 32))])
@pytest.mark.parametrize("blas", ["pinned", "unpinned"])
def test_the_workers_teacher_logits_are_the_parents_bit_for_bit(batch_size, widths, blas):
    run_check_worker_logits(blas, batch_size, widths)


# gram's worker sends the Gram matrices of the teacher's softened logits,
# angular's the logits its [B, B, B] angles are made from in the loop
@pytest.mark.parametrize("objective", ["gram", "angular"])
@pytest.mark.parametrize("batch_size,widths", [(32, (16, 128, 64, 10)),
                                               (128, (32, 128, 64, 32))])
@pytest.mark.parametrize("blas", ["pinned", "unpinned"])
def test_the_workers_teacher_side_is_the_parents_bit_for_bit(batch_size, widths, blas,
                                                             objective):
    run_check_worker_logits(blas, batch_size, widths, 8, objective)


# -- placement: the worker on a CPU of its own ------------------------------

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(_cpus()) < 2,
    reason="the host has one CPU, where a run forks no worker")


@needs_two_cpus
@pytest.mark.parametrize("objective", ["vrm", "gram"])
def test_the_worker_runs_on_a_cpu_the_loop_leaves_it(blobs, blobs_teacher, quick_config,
                                                     monkeypatch, objective):
    teacher, _ = blobs_teacher
    pids, seen, entry = record_forks(monkeypatch), [], OBJECTIVES[objective]

    def loss(*args):
        # the worker has written a message, so it has pinned itself
        seen.append((os.sched_getaffinity(pids[0]), os.sched_getaffinity(0)))
        return entry.loss(*args)

    monkeypatch.setitem(OBJECTIVES, objective, entry._replace(loss=loss))
    before = os.sched_getaffinity(0)
    distill_student(MLPSpec([6, 12, 3], "relu", 1), teacher, blobs, quick_config, objective)
    assert len(pids) == 1 and seen
    for worker, loop in seen:
        assert len(worker) == 1 and not worker & loop
        assert worker | loop == before
    assert os.sched_getaffinity(0) == before


def raising_pack(*args):
    raise ValueError("no message")


@needs_two_cpus
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("ending", ["completes", "diverges", "worker_error"])
def test_a_run_puts_the_thread_back_on_its_cpus(blobs, blobs_teacher, quick_config,
                                               monkeypatch, ending):
    teacher, _ = blobs_teacher
    pids, config = record_forks(monkeypatch), quick_config
    if ending == "diverges":
        config = dataclasses.replace(quick_config, lr=1e200)
    elif ending == "worker_error":
        # the worker runs its steps, then fails to write the first one
        monkeypatch.setattr(training, "_pack_step", raising_pack)
    before = os.sched_getaffinity(0)
    raises = {"completes": contextlib.nullcontext(), "diverges": pytest.raises(TrainingError),
              "worker_error": pytest.raises(WorkerError, match="ValueError: no message")}
    with raises[ending]:
        distill_student(MLPSpec([6, 12, 3], "relu", 1), teacher, blobs, config, "vrm")
    assert len(pids) == 1
    assert_reaped(pids[0])
    assert os.sched_getaffinity(0) == before


@pytest.mark.parametrize("objective", TEACHER_OBJECTIVES)
def test_one_cpu_neither_forks_nor_sets_affinity(blobs, blobs_teacher, quick_config,
                                                 monkeypatch, objective):
    teacher, _ = blobs_teacher
    pids, calls = record_forks(monkeypatch), []
    use_cpus(monkeypatch, {0})
    monkeypatch.setattr(os, "sched_setaffinity", lambda *args: calls.append(args),
                        raising=False)
    distill_student(MLPSpec([6, 12, 3], "relu", 1), teacher, blobs, quick_config, objective)
    assert pids == [] and calls == []


def test_a_failed_affinity_call_never_fails_a_run(blobs, blobs_teacher, quick_config, forks,
                                                  monkeypatch, tmp_path):
    teacher, _ = blobs_teacher
    spec = MLPSpec([6, 12, 3], "relu", 1)
    placed = outputs(*distill_student(spec, teacher, blobs, quick_config, "gram"),
                     tmp_path / "placed")
    calls = []

    def failing(*args):
        calls.append(args)
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", failing, raising=False)
    unplaced = outputs(*distill_student(spec, teacher, blobs, quick_config, "gram"),
                       tmp_path / "unplaced")
    assert len(forks) == 2 and unplaced == placed
    # the loop's pin and its restore; the worker's own call is in its process
    assert len(calls) == 2
