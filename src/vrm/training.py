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
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .baselines import angular_relations, gram_inter_class, gram_inter_sample
from .data import AugmentPlan, AugmentSpec, Dataset, draw_plan, virtual_batch, write_whole
from .errors import (InputError, NumericError, ParameterError, TrainingError, WorkerError,
                     check_fields)
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


def _ce_only(model, t_logits, xb, yb, xv, config):
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


# the classic distillation arms see the real view only, so any difference
# against vrm comes from the objective itself


def _single_view(model, t_logits, xb, yb):
    """Student logits (on the tape), teacher logits (off it) and label CE."""
    s_logits = model(xb)
    return s_logits, Tensor(t_logits[0]), ad.cross_entropy(s_logits, yb)


def _im_kd(model, t_logits, xb, yb, xv, config):
    """Instance matching (Hinton et al.): label CE plus the softened KL
    divergence from the teacher, logged in the ``isv`` column."""
    s_logits, t_logits, ce = _single_view(model, t_logits, xb, yb)
    kl = ad.kld(t_logits, s_logits, config.weights.tau)
    loss = ce + kl * config.im_kd_weight
    return loss, _row(ce.item(), 0.0, kl.item(), 0.0, 1.0, 1.0)


def _relation_arm(model, t_logits, xb, yb, config, *encoders):
    """Label CE plus, for each relation encoder in turn, the mean Huber
    distance between the encodings of the student's and the teacher's
    softened predictions, weighted by alpha, then beta."""
    w = config.weights
    s_logits, t_logits, ce = _single_view(model, t_logits, xb, yb)
    s_soft = ad.softmax(s_logits, axis=1, tau=w.tau)
    with ad.no_grad():
        t_soft = ad.softmax(t_logits, axis=1, tau=w.tau)
    rels = [ad.huber(encode(s_soft), encode(t_soft).detach(), w.huber_delta).mean()
            for encode in encoders]
    loss = ce
    for rel, weight in zip(rels, (w.alpha, w.beta)):
        loss = loss + rel * weight
    isv, icv = ([rel.item() for rel in rels] + [0.0])[:2]
    return loss, _row(ce.item(), 0.0, isv, icv, 1.0, 1.0)


def _gram(model, t_logits, xb, yb, xv, config):
    """SP baseline (Tung & Mori, 2019): inter-sample and inter-class Gram
    matrices, logged as ``isv`` and ``icv``."""
    return _relation_arm(model, t_logits, xb, yb, config, gram_inter_sample, gram_inter_class)


def _angular(model, t_logits, xb, yb, xv, config):
    """RKD-angle baseline (Park et al., 2019): third-order angular
    relations, logged as ``isv``."""
    return _relation_arm(model, t_logits, xb, yb, config, angular_relations)


# objective -> fn(model, t_logits, xb, yb, xv, config) -> (loss tensor,
# breakdown row), where t_logits is the frozen teacher's logits on xb and on
# xv, each None where the objective does without.  The entries look up their
# loss functions when called, so a rebinding of, say, ``training.total_loss``
# reaches them.
OBJECTIVES = {"vrm": _vrm, "im_kd": _im_kd, "ce_only": _ce_only,
              "gram": _gram, "angular": _angular}


def _teacher_step(teacher: MLP, spec: AugmentSpec | None, key, xb: np.ndarray) -> tuple:
    """Step ``key`` of batch ``xb`` as ``(plan, xv, t_real, t_virtual)``:
    the AugmentPlan of the batch's virtual views, the views, and the frozen
    teacher's logits on the batch and on the views; ``(None, None, t_real,
    None)`` for ``spec`` None.  The teacher runs on the batch as the loop
    would, so its logits have the loop's bits."""
    plan = xv = None
    if spec is not None:
        plan = draw_plan(spec, key, xb.shape)
        xv = virtual_batch(xb, spec, key, plan)
    return plan, xv, teacher.logits(xb), None if xv is None else teacher.logits(xv)


# A worker's message is one int64 buffer, then one float64 buffer.  The
# int64 one opens with its own length, the float64 one's length and the
# length of the head after them.  The head of a step starts with _STEP, the
# batch's rows and dim, and the step key: its part count, then per part the
# count of its 32-bit words and the words, low first.  Then come the plan's
# entry count and per entry its slot, its op's index in the spec's pool and
# its draw count.  Last, per array (each entry's rows and draws, then the
# teacher's logits on both views) its buffer (0 int64, 1 float64), offset,
# rows and columns (-1 for a 1-D array).  An error's head is _ERROR and the
# bytes of its text.
_OPEN, _STEP, _ERROR = 3, 0, 1


def _words(part: int) -> list:
    """A nonnegative int's 32-bit words, low first; [0] for 0."""
    words = [part & 0xFFFFFFFF]
    while part := part >> 32:
        words.append(part & 0xFFFFFFFF)
    return words


def _pack_step(spec: AugmentSpec, plan: AugmentPlan, t_real, t_virtual) -> tuple:
    """The int64 and float64 buffers of one step's message."""
    step_key = plan.key[3:]   # after the spec's seed, n_ops and op_pool
    head = [_STEP, *plan.shape, len(step_key)]
    for part in step_key:
        words = _words(part)
        head += [len(words), *words]
    entries = [(s, name, rows, draws) for s, slot in enumerate(plan.slots)
               for name, rows, draws in slot]
    head.append(len(entries))
    arrays = []
    for s, name, rows, draws in entries:
        head += [s, spec.op_pool.index(name), len(draws)]
        arrays += [rows, *draws]
    arrays += [t_real, t_virtual]
    n_head = len(head) + 4 * len(arrays)
    ends, parts = [_OPEN + n_head, 0], ([], [])
    for a in arrays:
        buf = int(a.dtype.kind == "f")
        head += [buf, ends[buf], a.shape[0], a.shape[1] if a.ndim == 2 else -1]
        ends[buf] += a.size
        parts[buf].append(a.ravel())
    ints = np.concatenate([np.array([*ends, n_head, *head], dtype=np.int64), *parts[0]])
    return ints, np.concatenate(parts[1])


def _pack_error(text: str) -> tuple:
    head = [_ERROR, *text.encode()]
    return np.array([_OPEN + len(head), 0, len(head), *head], dtype=np.int64), np.empty(0)


def _unpack(spec: AugmentSpec, ints: np.ndarray, floats: np.ndarray) -> tuple:
    """The ``(plan, t_real, t_virtual)`` of a step's message, its arrays
    slices of ``ints`` and ``floats``; an error's raises NumericError."""
    head = ints[_OPEN:_OPEN + ints[2]].tolist()
    if head[0] == _ERROR:
        raise NumericError(bytes(head[1:]).decode())
    items = iter(head[1:])
    shape = next(items), next(items)
    step_key = []
    for _ in range(next(items)):
        n_words = next(items)
        step_key.append(sum(next(items) << 32 * i for i in range(n_words)))
    entries = [(next(items), spec.op_pool[next(items)], next(items))
               for _ in range(next(items))]
    bufs = (ints, floats)
    # the rest of the head is one (buffer, offset, rows, columns) per array
    arrays = iter([bufs[buf][at:at + rows] if cols < 0 else
                   bufs[buf][at:at + rows * cols].reshape(rows, cols)
                   for buf, at, rows, cols in zip(items, items, items, items)])
    slots = [[] for _ in range(spec.n_ops)]
    for s, name, n_draws in entries:
        slots[s].append((name, next(arrays), tuple(itertools.islice(arrays, n_draws))))
    plan = AugmentPlan((spec.seed, spec.n_ops, spec.op_pool, *step_key), shape,
                       tuple(map(tuple, slots)))
    return plan, next(arrays), next(arrays)


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


def _write_steps(pipe, write_fd: int, mask, teacher: MLP, spec: AugmentSpec, batches):
    """The body of :func:`_drawn_ahead`'s worker, which never returns: it
    writes the :func:`_teacher_step` of each of ``batches`` to ``write_fd``
    as a message, blocking while the pipe is full, and a NumericError one
    raises as an error message;
    it leaves through ``os._exit``, so it flushes none of the parent's stdio
    and runs none of its exit code.  A parent that closed the pipe (EPIPE)
    ends it quietly."""
    code = 1
    try:
        # SIGTERM kills it outright, and a terminal's SIGINT is the parent's to handle
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        pipe.close()
        with open(write_fd, "wb") as out:
            def send(ints, floats):
                out.write(ints)
                out.write(floats)
                out.flush()

            try:
                for key, xb in batches:
                    plan, _, t_real, t_virtual = _teacher_step(teacher, spec, key, xb)
                    send(*_pack_step(spec, plan, t_real, t_virtual))
            except NumericError as exc:
                send(*_pack_error(str(exc)))
        code = 0
    except BrokenPipeError:
        code = 0
    finally:
        os._exit(code)


@contextlib.contextmanager
def _drawn_ahead(teacher: MLP, spec: AugmentSpec, batches):
    """Fork a worker that runs the :func:`_teacher_step` of each ``(key,
    batch)`` of ``batches`` and writes it, but for its views, as a flat
    message.  The block gets ``next_step(key, xb)``, which reads the next
    message and returns its step with the views ``virtual_batch(xb, spec,
    key, plan)`` makes, a UsageError for a plan of another key or shape.
    The steps do not depend on the student, so the worker runs them while
    the caller trains, as far ahead as the pipe between them holds.  A
    NumericError of a step reaches the caller at that step; a worker that
    ends before its last step raises WorkerError.  Leaving closes the pipe
    and kills and reaps the worker, however the block ends."""
    read_fd, write_fd = os.pipe()
    _widen(write_fd)
    pipe = open(read_fd, "rb")
    pid = status = None
    try:
        # no signal handler may run in the child before it has its own handlers
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
        try:
            pid = os.fork()
            if pid == 0:
                _write_steps(pipe, write_fd, mask, teacher, spec, batches)
        finally:
            os.close(write_fd)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

        def reap():
            nonlocal status
            status = os.waitpid(pid, 0)[1]
            return status

        def next_step(key, xb):
            try:
                message = _read_message(pipe)
            except EOFError:
                # the worker's end of the pipe closes only as it exits, so a
                # wait gets its own status, not that of a kill
                code = os.waitstatus_to_exitcode(reap())
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise WorkerError(f"the virtual-view worker ended early ({how})") from None
            plan, t_real, t_virtual = _unpack(spec, *message)
            return plan, virtual_batch(xb, spec, key, plan), t_real, t_virtual

        yield next_step
    finally:
        pipe.close()
        if pid and status is None:
            os.kill(pid, signal.SIGKILL)
            reap()


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _train(model: MLP, teacher, data: Dataset, config: TrainConfig,
           objective: str) -> list[EpochRecord]:
    """SGD on the :data:`OBJECTIVES` entry ``objective``, over full batches.
    The teacher's logits, and a vrm run's virtual views, come from
    :func:`_teacher_step`.  A vrm run that may use more than one CPU runs
    it in a worker process (:func:`_drawn_ahead`) and makes each step's
    views from the worker's plan here; otherwise it runs inline, where it
    makes the views itself."""
    check_objective(objective, teacher, config, data)
    step_loss = OBJECTIVES[objective]
    x_train, y_train = data.train_inputs, data.train_labels
    needs_virtual = step_loss is _vrm
    params = model.parameters()
    opt = SGD(params, config.lr, config.momentum, config.weight_decay)
    records: list[EpochRecord] = []
    if step_loss is _ce_only:
        source = contextlib.nullcontext(lambda key, xb: (None, None, None, None))
    elif needs_virtual and _cpus() > 1:
        # the key and the batch of each step, in the loop's order
        batches = (((epoch, step), x_train[idx]) for epoch in range(config.epochs)
                   for step, idx in enumerate(_batch_rows(
                       len(x_train), config.batch_size, config.seed, epoch)))
        source = _drawn_ahead(teacher, config.augment, batches)
    else:
        source = contextlib.nullcontext(functools.partial(
            _teacher_step, teacher, config.augment if needs_virtual else None))

    with source as next_step:
        for epoch in range(config.epochs):
            opt.lr = config.lr_at(epoch)
            sums = dict.fromkeys(("total", *STEP_COLUMNS), 0.0)
            n_steps = 0
            for step, batch_idx in enumerate(_epoch_batches(
                    x_train.shape[0], config.batch_size, config.seed, epoch)):
                xb, yb = x_train[batch_idx], y_train[batch_idx]
                try:
                    _, xv, *t_logits = next_step((epoch, step), xb)
                    loss, row = step_loss(model, t_logits, xb, yb, xv, config)
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
    if objective != "ce_only" and teacher is None:
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
