"""SGD training loops: teacher pretraining and student distillation
under the relation-matching, instance-matching, plain-CE, and baseline
objectives."""
from __future__ import annotations

import contextlib
import csv
import fcntl
import functools
import io
import itertools
import math
import os
import signal
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .baselines import angular_relations, gram_inter_class, gram_inter_sample
from .data import (AugmentPlan, AugmentSpec, Dataset, _seed_words, draw_plan, virtual_batch,
                   write_whole)
from .errors import (InputError, NumericError, ParameterError, TrainingError, UsageError,
                     WorkerError, check_fields)
from .graphs import LogitBatch
from .losses import VRMWeights, total_loss
from .models import MLP, MLPSpec

@dataclass
class TrainConfig:
    """Optimizer, schedule, and objective hyperparameters for one run."""

    weights: VRMWeights = field(default_factory=VRMWeights)
    augment: AugmentSpec = field(default_factory=AugmentSpec)
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_decay: float = 0.1
    milestones: tuple = (30, 40, 50)
    batch_size: int = 32
    epochs: int = 60
    seed: int = 0
    im_kd_weight: float = 1.0

    def __post_init__(self):
        self.milestones = stones = tuple(self.milestones)
        check_fields(vars(self), (
            ("lr", 0 < self.lr < math.inf, "must be finite and positive"),
            ("momentum", math.isfinite(self.momentum), "must be finite"),
            ("weight_decay", math.isfinite(self.weight_decay), "must be finite"),
            ("lr_decay", math.isfinite(self.lr_decay), "must be finite"),
            ("im_kd_weight", math.isfinite(self.im_kd_weight), "must be finite"),
            ("batch_size", self.batch_size >= 2, "must be >= 2 (relations need pairs)"),
            ("milestones", all(a < b for a, b in zip(stones, stones[1:])),
             "must be strictly increasing"),
            ("epochs", self.epochs >= 1, "must be positive"),
            ("seed", self.seed >= 0, "must be nonnegative")))

    def lr_at(self, epoch: int) -> float:
        passed = sum(1 for m in self.milestones if epoch >= m)
        return self.lr * self.lr_decay ** passed


class SGD:
    """Momentum SGD with decoupled-from-nothing classic weight decay."""

    def __init__(self, params, lr, momentum=0.9, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            g = p.grad + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data = p.data - self.lr * v


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_acc: float
    val_acc: float
    total: float
    ce_real: float
    ce_virtual: float
    isv: float
    icv: float
    kept_isv_frac: float
    kept_icv_frac: float


def accuracy(model: MLP, inputs: np.ndarray, labels: np.ndarray) -> float:
    if inputs.shape[0] == 0:
        return 0.0
    return float((model.predict(inputs) == labels).mean())


def _batch_rows(n_train: int, batch_size: int, seed: int, epoch: int) -> np.ndarray:
    """The epoch's seeded shuffle as [batches, batch_size] row indices,
    full batches only (relations need pairs)."""
    perm = np.random.default_rng([seed, 7919, epoch]).permutation(n_train)
    return perm[:n_train // batch_size * batch_size].reshape(-1, batch_size)


def _epoch_batches(n_train: int, batch_size: int, seed: int, epoch: int):
    """The rows of :func:`_batch_rows`, one batch at a time: the loop's own
    generator, which a step timer may wrap, so a worker replays
    :func:`_batch_rows` instead."""
    yield from _batch_rows(n_train, batch_size, seed, epoch)


# the per-step breakdown row every OBJECTIVES entry returns, in the order
# breakdown.csv writes it after epoch and total: the loss parts, 0.0 where an
# objective has none, and the fractions of ISV and ICV edges kept
STEP_COLUMNS = ("ce_real", "ce_virtual", "isv", "icv", "kept_isv_frac", "kept_icv_frac")


def _row(*values) -> dict:
    """The breakdown row of ``values``, given in :data:`STEP_COLUMNS` order."""
    return dict(zip(STEP_COLUMNS, values, strict=True))


def _ce_only(model, t_side, xb, yb, xv, config):
    """Label cross-entropy alone; the teacher is never consulted."""
    loss = ad.cross_entropy(model(xb), yb)
    return loss, _row(loss.item(), 0.0, 0.0, 0.0, 0.0, 0.0)


def _vrm(model, t_logits, xb, yb, xv, config):
    """Masked cross-view edge matching plus label CE on both views
    (:func:`total_loss`)."""
    s_batch = LogitBatch(model(xb), model(xv))
    t_batch = LogitBatch(*map(Tensor, t_logits))
    bd = total_loss(s_batch, t_batch, yb, config.weights)
    b, c = s_batch.batch_size, s_batch.n_classes
    return bd.total, _row(bd.ce_real.item(), bd.ce_virtual.item(), bd.isv.item(),
                          bd.icv.item(), bd.kept_isv / (b * b), bd.kept_icv / (c * c))


def _vrm_teacher(teacher: MLP, config: TrainConfig, key, xb: np.ndarray) -> tuple:
    """Step ``key`` of batch ``xb`` as ``(plan, xv, (t_real, t_virtual))``:
    the AugmentPlan of the batch's virtual views, the views, and the frozen
    teacher's logits on the batch and on the views.  The teacher runs on
    the batch as the loop would, so its logits have the loop's bits."""
    plan = draw_plan(config.augment, key, xb.shape)
    xv = virtual_batch(xb, config.augment, key, plan)
    return plan, xv, (teacher.logits(xb), teacher.logits(xv))


# the classic distillation arms see the real view only, so any difference
# against vrm comes from the objective itself


def _single_view(model, xb, yb):
    """Student logits (on the tape) and label CE."""
    s_logits = model(xb)
    return s_logits, ad.cross_entropy(s_logits, yb)


def _im_kd(model, t_logits, xb, yb, xv, config):
    """Instance matching (Hinton et al.): label CE plus the softened KL
    divergence from the teacher, logged in the ``isv`` column."""
    s_logits, ce = _single_view(model, xb, yb)
    kl = ad.kld(Tensor(t_logits[0]), s_logits, config.weights.tau)
    loss = ce + kl * config.im_kd_weight
    return loss, _row(ce.item(), 0.0, kl.item(), 0.0, 1.0, 1.0)


def _teacher_logits(teacher: MLP, config: TrainConfig, key, xb: np.ndarray) -> tuple:
    """The frozen teacher's logits on the batch."""
    return None, None, (teacher.logits(xb),)


def _relation_arm(model, t_encodings, xb, yb, config, *encoders):
    """Label CE plus, for each relation encoder in turn, the mean Huber
    distance between its encoding of the student's softened predictions
    and ``t_encodings``' entry, weighted by alpha, then beta."""
    w = config.weights
    s_logits, ce = _single_view(model, xb, yb)
    s_soft = ad.softmax(s_logits, axis=1, tau=w.tau)
    rels = [ad.huber(encode(s_soft), Tensor(target), w.huber_delta).mean()
            for encode, target in zip(encoders, t_encodings, strict=True)]
    loss = ce
    for rel, weight in zip(rels, (w.alpha, w.beta)):
        loss = loss + rel * weight
    isv, icv = ([rel.item() for rel in rels] + [0.0])[:2]
    return loss, _row(ce.item(), 0.0, isv, icv, 1.0, 1.0)


def _encodings(t_logits: np.ndarray, config: TrainConfig, *encoders) -> tuple:
    """Each encoder's encoding of the softened teacher logits ``t_logits``,
    made off the tape, as arrays."""
    with ad.no_grad():
        t_soft = ad.softmax(Tensor(t_logits), axis=1, tau=config.weights.tau)
        return tuple(encode(t_soft).data for encode in encoders)


def _gram(model, t_grams, xb, yb, xv, config):
    """SP baseline (Tung & Mori, 2019): inter-sample and inter-class Gram
    matrices, logged as ``isv`` and ``icv``."""
    return _relation_arm(model, t_grams, xb, yb, config, gram_inter_sample, gram_inter_class)


def _gram_teacher(teacher, config, key, xb):
    """The teacher's inter-sample [B, B] and inter-class [C, C] Gram matrices."""
    return None, None, _encodings(teacher.logits(xb), config, gram_inter_sample,
                                  gram_inter_class)


def _angular(model, t_logits, xb, yb, xv, config):
    """RKD-angle baseline (Park et al., 2019): third-order angular
    relations, logged as ``isv``.  The teacher's [B, B, B] angles are
    made here from its logits, which cross a worker's pipe at B x C."""
    return _relation_arm(model, _encodings(t_logits[0], config, angular_relations), xb, yb,
                         config, angular_relations)


class Objective(NamedTuple):
    """One training objective.  ``teacher_side(teacher, config, key, xb)``
    is the work step ``key`` of batch ``xb`` does on the frozen teacher
    alone, ``(plan, xv, arrays)``: a vrm step's AugmentPlan and virtual
    views (None elsewhere) and the float64 arrays the student side takes;
    None for an objective that never consults the teacher.
    ``loss(model, arrays, xb, yb, xv, config)`` is the student side: the
    loss tensor and the breakdown row."""

    loss: Callable
    teacher_side: Callable | None


# Both sides look up the functions they call when called, so a rebinding of,
# say, ``training.total_loss`` reaches them.
OBJECTIVES = {"vrm": Objective(_vrm, _vrm_teacher), "im_kd": Objective(_im_kd, _teacher_logits),
              "ce_only": Objective(_ce_only, None), "gram": Objective(_gram, _gram_teacher),
              "angular": Objective(_angular, _teacher_logits)}


def teacher_side(objective: str, teacher: MLP | None, config: TrainConfig):
    """The step function ``(key, xb) -> (plan, xv, arrays)`` of the
    :data:`OBJECTIVES` entry ``objective``'s teacher side on ``teacher``;
    ``(None, None, ())`` for an objective without one."""
    side = OBJECTIVES[objective].teacher_side
    if side is None:
        return lambda key, xb: (None, None, ())
    return functools.partial(side, teacher, config)


# A worker's message is one int64 buffer, then one float64 buffer.  The
# int64 one opens with its own length, the float64 one's length and the
# length of the head after them.  The head of a step starts with _STEP, the
# batch's rows and dim, and the step key: its part count, then per part the
# count of its 32-bit words and the words, low first.  Then comes the plan:
# -1 for none, else its entry count and per entry its slot, its op's index
# in the spec's pool and its draw count.  Last, per array (each plan entry's
# rows and draws, then the teacher side's arrays, each C-ordered with one or
# two dimensions) its buffer (0 int64, 1 float64), offset, rows and columns
# (-1 for a 1-D array).  An error's head is _ERROR (a NumericError) or
# _FAILED (any other exception, as its class and text) and the bytes of its
# text.
_OPEN, _STEP, _ERROR, _FAILED = 3, 0, 1, 2


def _pack_step(spec: AugmentSpec, key, shape, plan: AugmentPlan | None, arrays) -> tuple:
    """The int64 and float64 buffers of one step's message: step ``key``
    of a batch of ``shape``, its ``plan`` of ``spec`` or None, and the
    teacher side's ``arrays``."""
    head = [_STEP, *shape, len(key)]
    for part in key:
        words = _seed_words((part,)).tolist()
        head += [len(words), *words]
    plan_arrays = []
    if plan is None:
        head.append(-1)
    else:
        entries = [(s, name, rows, draws) for s, slot in enumerate(plan.slots)
                   for name, rows, draws in slot]
        head.append(len(entries))
        for s, name, rows, draws in entries:
            head += [s, spec.op_pool.index(name), len(draws)]
            plan_arrays += [rows, *draws]
    arrays = [*plan_arrays, *arrays]
    n_head = len(head) + 4 * len(arrays)
    ends, parts = [_OPEN + n_head, 0], ([], [])
    for a in arrays:
        buf = int(a.dtype.kind == "f")
        head += [buf, ends[buf], a.shape[0], a.shape[1] if a.ndim == 2 else -1]
        ends[buf] += a.size
        parts[buf].append(a.ravel())
    ints = np.concatenate([np.array([*ends, n_head, *head], dtype=np.int64), *parts[0]])
    return ints, np.concatenate((np.empty(0), *parts[1]))


def _pack_error(kind: int, text: str) -> tuple:
    head = [kind, *text.encode()]
    return np.array([_OPEN + len(head), 0, len(head), *head], dtype=np.int64), np.empty(0)


def _unpack(spec: AugmentSpec, ints: np.ndarray, floats: np.ndarray) -> tuple:
    """The ``(key, shape, plan, arrays)`` of a step's message: its step
    key, its batch's shape, its AugmentPlan of ``spec`` or None, and the
    teacher side's arrays, slices of ``ints`` and ``floats``.  An error's
    raises NumericError, and a failure's WorkerError with the worker's
    exception."""
    head = ints[_OPEN:_OPEN + ints[2]].tolist()
    if head[0] != _STEP:
        raise (NumericError if head[0] == _ERROR else WorkerError)(bytes(head[1:]).decode())
    items = iter(head[1:])
    shape = next(items), next(items)
    key = []
    for _ in range(next(items)):
        n_words = next(items)
        key.append(sum(next(items) << 32 * i for i in range(n_words)))
    n_entries = next(items)
    entries = [(next(items), spec.op_pool[next(items)], next(items))
               for _ in range(max(n_entries, 0))]
    bufs = (ints, floats)
    # the rest of the head is one (buffer, offset, rows, columns) per array
    arrays = iter([bufs[buf][at:at + rows] if cols < 0 else
                   bufs[buf][at:at + rows * cols].reshape(rows, cols)
                   for buf, at, rows, cols in zip(items, items, items, items)])
    plan = None
    if n_entries >= 0:
        slots = [[] for _ in range(spec.n_ops)]
        for s, name, n_draws in entries:
            slots[s].append((name, next(arrays), tuple(itertools.islice(arrays, n_draws))))
        plan = AugmentPlan((spec.seed, spec.n_ops, spec.op_pool, *key), shape,
                           tuple(map(tuple, slots)))
    return tuple(key), shape, plan, tuple(arrays)


def _fill(pipe, array: np.ndarray) -> None:
    """Read ``array``'s bytes from ``pipe``; EOFError if it ends first."""
    if pipe.readinto(array) != array.nbytes:
        raise EOFError


def _read_message(pipe) -> tuple:
    """The int64 and float64 buffers of the next message, each read into a
    fresh array, since the tensors made from them may keep them."""
    opening = np.empty(_OPEN, dtype=np.int64)
    _fill(pipe, opening)
    ints = np.empty(opening[0], dtype=np.int64)
    ints[:_OPEN] = opening
    _fill(pipe, ints[_OPEN:])
    floats = np.empty(opening[1])
    _fill(pipe, floats)
    return ints, floats


def _widen(fd: int) -> None:
    """Size the pipe ``fd`` at the system's limit (1 MiB by default: about
    ten messages of a wide step, of which 64 KiB holds less than one);
    where the limit cannot be read or set (Linux only), keep the size."""
    with contextlib.suppress(OSError, ValueError, AttributeError):
        with open("/proc/sys/fs/pipe-max-size") as limit:
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, int(limit.read()))


def _cpus() -> set:
    """The CPUs the calling thread may run on; all the machine's where the
    platform cannot tell."""
    if hasattr(os, "sched_getaffinity"):
        return os.sched_getaffinity(0)
    return set(range(os.cpu_count() or 1))


def _pin(cpus) -> None:
    """Run the calling thread on ``cpus`` only; where the platform has no
    affinity or the call fails, leave it where it runs."""
    with contextlib.suppress(OSError, AttributeError):
        os.sched_setaffinity(0, cpus)


def _write_steps(pipe, write_fd: int, mask, cpu, step, spec: AugmentSpec, batches):
    """The body of :func:`_drawn_ahead`'s worker, which never returns: it
    pins itself to ``cpu`` (None: stays where it runs), then writes the
    ``step(key, xb)`` of each of ``batches`` to ``write_fd`` as a message,
    blocking while the pipe is full, and a NumericError one raises as an
    error message; any other exception it sends as a failure message,
    then exits 1.
    It leaves through ``os._exit``, so it flushes none of the parent's stdio
    and runs none of its exit code.  A parent that closed the pipe (EPIPE)
    ends it quietly."""
    code = 1
    try:
        # SIGTERM kills it outright; a terminal's SIGINT and SIGHUP are the parent's to handle
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGHUP, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        pipe.close()
        if cpu is not None:
            _pin({cpu})
        with open(write_fd, "wb") as out:
            def send(ints, floats):
                out.write(ints)
                out.write(floats)
                out.flush()

            try:
                for key, xb in batches:
                    plan, _, arrays = step(key, xb)
                    send(*_pack_step(spec, key, xb.shape, plan, arrays))
            except NumericError as exc:
                send(*_pack_error(_ERROR, str(exc)))
            except Exception as exc:
                # the parent names it in its WorkerError; leaving here exits 1
                send(*_pack_error(_FAILED, f"{type(exc).__name__}: {exc}"))
                return
        code = 0
    except BrokenPipeError:
        code = 0
    finally:
        os._exit(code)


@contextlib.contextmanager
def _drawn_ahead(step, spec: AugmentSpec, batches):
    """Fork a worker that runs ``step(key, xb)``, a :func:`teacher_side`,
    on each ``(key, batch)`` of ``batches`` and writes its plan and arrays
    as a flat message.  The block gets ``next_step(key, xb)``, which reads
    the next message and returns it as ``step`` would, a plan of ``spec``
    with the views ``virtual_batch(xb, spec, key, plan)`` makes; a
    UsageError for a message of another key or shape.
    The steps do not depend on the student, so the worker runs them while
    the caller trains, as far ahead as the pipe between them holds.  A
    NumericError of a step reaches the caller at that step; a worker that
    ends before its last step raises WorkerError, which names the
    exception that ended it, if any.
    Where the calling thread may run on two CPUs or more, the worker pins
    itself to the last of them and the thread runs on the others while
    the worker lives, so that neither waits for the other's CPU (with the
    worker pinned alone, the two still shared one CPU in some processes).
    Leaving closes the pipe, kills and reaps the worker, and puts the
    thread back on the CPUs it had, however the block ends; a thread it
    started meanwhile keeps the narrower set."""
    cpus = _cpus()
    cpu = max(cpus) if len(cpus) > 1 else None
    read_fd, write_fd = os.pipe()
    _widen(write_fd)
    pipe = open(read_fd, "rb")
    pid = status = None
    try:
        # no signal handler may run in the child before it has its own handlers
        mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                      (signal.SIGINT, signal.SIGTERM, signal.SIGHUP))
        try:
            pid = os.fork()
            if pid == 0:
                _write_steps(pipe, write_fd, mask, cpu, step, spec, batches)
        finally:
            os.close(write_fd)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if cpu is not None:
            _pin(cpus - {cpu})

        def reap():
            nonlocal status
            status = os.waitpid(pid, 0)[1]
            return status

        def next_step(key, xb):
            try:
                got_key, shape, plan, arrays = _unpack(spec, *_read_message(pipe))
            except (EOFError, WorkerError) as exc:
                # the worker's end of the pipe closes only as it exits, so a
                # wait gets its own status, not that of a kill
                code = os.waitstatus_to_exitcode(reap())
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                failure = f": {exc}" if isinstance(exc, WorkerError) else ""
                raise WorkerError(f"the teacher worker ended early ({how}){failure}") from None
            xv = None if plan is None else virtual_batch(xb, spec, key, plan)
            if (got_key, shape) != (tuple(key), xb.shape):
                raise UsageError(f"the teacher worker's step {got_key} at shape {shape} "
                                 f"is not step {tuple(key)} at shape {xb.shape}")
            return plan, xv, arrays

        yield next_step
    finally:
        pipe.close()
        if pid and status is None:
            os.kill(pid, signal.SIGKILL)
            reap()
        if pid and cpu is not None:
            _pin(cpus)


def _train(model: MLP, teacher, data: Dataset, config: TrainConfig,
           objective: str) -> list[EpochRecord]:
    """SGD on the :data:`OBJECTIVES` entry ``objective``, over full batches.
    Each step's teacher side (:func:`teacher_side`) runs in a worker
    process (:func:`_drawn_ahead`) where the objective has one and the
    process may use two CPUs or more, and a vrm step's views are made
    here from the worker's plan; otherwise the loop calls the same
    function inline, which makes the views itself."""
    check_objective(objective, teacher, config, data)
    entry = OBJECTIVES[objective]
    x_train, y_train = data.train_inputs, data.train_labels
    params = model.parameters()
    opt = SGD(params, config.lr, config.momentum, config.weight_decay)
    records: list[EpochRecord] = []
    step_teacher = teacher_side(objective, teacher, config)
    if entry.teacher_side is not None and len(_cpus()) > 1:
        # the key and the batch of each step, in the loop's order
        batches = (((epoch, step), x_train[idx]) for epoch in range(config.epochs)
                   for step, idx in enumerate(_batch_rows(
                       len(x_train), config.batch_size, config.seed, epoch)))
        source = _drawn_ahead(step_teacher, config.augment, batches)
    else:
        source = contextlib.nullcontext(step_teacher)

    with source as next_step:
        for epoch in range(config.epochs):
            opt.lr = config.lr_at(epoch)
            sums = dict.fromkeys(("total", *STEP_COLUMNS), 0.0)
            n_steps = 0
            for step, batch_idx in enumerate(_epoch_batches(
                    x_train.shape[0], config.batch_size, config.seed, epoch)):
                xb, yb = x_train[batch_idx], y_train[batch_idx]
                try:
                    _, xv, t_side = next_step((epoch, step), xb)
                    loss, row = entry.loss(model, t_side, xb, yb, xv, config)
                    row["total"] = loss.item()
                    if not np.isfinite(row["total"]):
                        raise NumericError("loss is not finite")
                    opt.zero_grad()
                    backward(loss)
                    opt.step()
                except NumericError as exc:
                    raise TrainingError(f"diverged at epoch {epoch}: {exc}",
                                        epoch=epoch) from exc
                for k, v in row.items():
                    sums[k] += v
                n_steps += 1

            records.append(EpochRecord(
                epoch, opt.lr, accuracy(model, x_train, y_train),
                accuracy(model, data.val_inputs, data.val_labels),
                **{k: v / n_steps for k, v in sums.items()}))
    return records


# the fewest (samples in a batch, classes in the data) an objective's relations
# take, where (2, 1) is not enough: RKD angles join three samples
_RELATION_SHAPES = {"vrm": (2, 2), "gram": (2, 2), "angular": (3, 1)}


def check_objective(objective: str, teacher: MLP | None, config: TrainConfig,
                    data: Dataset) -> None:
    """Reject a run before any work.  ParameterError, naming the field, for
    an unknown :data:`OBJECTIVES` name, an objective that needs a teacher
    when ``teacher`` is None, or a batch larger than the train split or
    smaller than the objective's relations take; InputError for data with
    fewer classes than they relate."""
    if objective not in OBJECTIVES:
        raise ParameterError(f"objective must be one of {', '.join(OBJECTIVES)}")
    if OBJECTIVES[objective].teacher_side is not None and teacher is None:
        raise ParameterError(f"objective {objective!r} needs a teacher")
    n_train = len(data.train_idx)
    if config.batch_size > n_train:
        raise ParameterError(f"batch_size {config.batch_size} exceeds the "
                             f"{n_train} training samples")
    samples, classes = _RELATION_SHAPES.get(objective, (2, 1))
    if config.batch_size < samples:
        raise ParameterError(f"batch_size {config.batch_size} is below the {samples} "
                             f"samples {objective} relations take")
    if data.n_classes < classes:
        raise InputError(f"{objective} relations take at least {classes} classes, "
                         f"the data has {data.n_classes}")


def train_teacher(spec: MLPSpec, data: Dataset, config: TrainConfig):
    """Label-only SGD training; returns (model, per-epoch records)."""
    model = MLP(spec)
    records = _train(model, None, data, config, "ce_only")
    return model, records


def distill_student(student_spec: MLPSpec, teacher: MLP | None, data: Dataset,
                    config: TrainConfig, objective: str = "vrm"):
    """Train a student under the chosen :data:`OBJECTIVES` entry with a
    frozen teacher.

    The vrm objective draws fresh virtual views every step (the same
    views are fed to teacher and student); the other objectives see the
    real view only.  ``ce_only`` ignores the teacher, which makes it
    identical to :func:`train_teacher` on the student architecture.
    """
    student = MLP(student_spec)
    records = _train(student, teacher, data, config, objective)
    return student, records


# -- metrics files --------------------------------------------------------


def _fmt(value) -> str:
    """Floats with every digit a float64 needs to round-trip; else str."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, header, rows) -> None:
    """A header line, then one line per row with each value through :func:`_fmt`."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    write_whole(path, text.getvalue().encode())


def write_metrics_csv(records: list[EpochRecord], path) -> None:
    cols = ["epoch", "lr", "train_acc", "val_acc"]
    write_csv(path, cols, ([getattr(r, c) for c in cols] for r in records))


def write_breakdown_csv(records: list[EpochRecord], path) -> None:
    cols = ["epoch", "total", *STEP_COLUMNS]
    write_csv(path, cols, ([getattr(r, c) for c in cols] for r in records))
