"""SGD training loops: teacher pretraining and student distillation
under the relation-matching, instance-matching, plain-CE, and baseline
objectives."""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .baselines import angular_relations, gram_inter_class, gram_inter_sample
from .data import AugmentSpec, Dataset, draw_plan, virtual_batch, write_whole
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


def _epoch_batches(n_train: int, batch_size: int, seed: int, epoch: int):
    """Seeded shuffle, full batches only (relations need pairs)."""
    rng = np.random.default_rng([seed, 7919, epoch])
    perm = rng.permutation(n_train)
    n_batches = n_train // batch_size
    for b in range(n_batches):
        yield perm[b * batch_size:(b + 1) * batch_size]


# the per-step breakdown row every OBJECTIVES entry returns, in the order
# breakdown.csv writes it after epoch and total: the loss parts, 0.0 where an
# objective has none, and the fractions of ISV and ICV edges kept
STEP_COLUMNS = ("ce_real", "ce_virtual", "isv", "icv", "kept_isv_frac", "kept_icv_frac")


def _row(*values) -> dict:
    """The breakdown row of ``values``, given in :data:`STEP_COLUMNS` order."""
    return dict(zip(STEP_COLUMNS, values, strict=True))


def _ce_only(model, teacher, xb, yb, xv, config):
    """Label cross-entropy alone; the teacher is never consulted."""
    loss = ad.cross_entropy(model(xb), yb)
    return loss, _row(loss.item(), 0.0, 0.0, 0.0, 0.0, 0.0)


def _vrm(model, teacher, xb, yb, xv, config):
    """Masked cross-view edge matching plus label CE on both views
    (:func:`total_loss`)."""
    s_batch = LogitBatch(model(xb), model(xv))
    with ad.no_grad():
        t_batch = LogitBatch(Tensor(teacher.logits(xb)), Tensor(teacher.logits(xv)))
    bd = total_loss(s_batch, t_batch, yb, config.weights)
    b, c = s_batch.batch_size, s_batch.n_classes
    return bd.total, _row(bd.ce_real.item(), bd.ce_virtual.item(), bd.isv.item(),
                          bd.icv.item(), bd.kept_isv / (b * b), bd.kept_icv / (c * c))


# the classic distillation arms see the real view only, so any difference
# against vrm comes from the objective itself


def _single_view(model, teacher, xb, yb):
    """Student logits (on the tape), teacher logits (off it) and label CE."""
    s_logits = model(xb)
    with ad.no_grad():
        t_logits = Tensor(teacher.logits(xb))
    return s_logits, t_logits, ad.cross_entropy(s_logits, yb)


def _im_kd(model, teacher, xb, yb, xv, config):
    """Instance matching (Hinton et al.): label CE plus the softened KL
    divergence from the teacher, logged in the ``isv`` column."""
    s_logits, t_logits, ce = _single_view(model, teacher, xb, yb)
    kl = ad.kld(t_logits, s_logits, config.weights.tau)
    loss = ce + kl * config.im_kd_weight
    return loss, _row(ce.item(), 0.0, kl.item(), 0.0, 1.0, 1.0)


def _relation_arm(model, teacher, xb, yb, config, *encoders):
    """Label CE plus, for each relation encoder in turn, the mean Huber
    distance between the encodings of the student's and the teacher's
    softened predictions, weighted by alpha, then beta."""
    w = config.weights
    s_logits, t_logits, ce = _single_view(model, teacher, xb, yb)
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


def _gram(model, teacher, xb, yb, xv, config):
    """SP baseline (Tung & Mori, 2019): inter-sample and inter-class Gram
    matrices, logged as ``isv`` and ``icv``."""
    return _relation_arm(model, teacher, xb, yb, config, gram_inter_sample, gram_inter_class)


def _angular(model, teacher, xb, yb, xv, config):
    """RKD-angle baseline (Park et al., 2019): third-order angular
    relations, logged as ``isv``."""
    return _relation_arm(model, teacher, xb, yb, config, angular_relations)


# objective -> fn(model, teacher, xb, yb, xv, config) -> (loss tensor,
# breakdown row).  The entries look up their loss functions when called, so
# a rebinding of, say, ``training.total_loss`` reaches them.
OBJECTIVES = {"vrm": _vrm, "im_kd": _im_kd, "ce_only": _ce_only,
              "gram": _gram, "angular": _angular}


def _write_plans(pipe, write_fd: int, mask, spec: AugmentSpec, shape, keys):
    """The body of :func:`_drawn_ahead`'s worker, which never returns: it
    writes the pickled ``draw_plan`` of each key to ``write_fd`` in turn,
    blocking while the pipe is full, and leaves through ``os._exit``, so
    it flushes none of the parent's stdio and runs none of its exit code.
    A parent that closed the pipe (EPIPE) ends it quietly."""
    code = 1
    try:
        # SIGTERM kills it outright, and a terminal's SIGINT is the parent's to handle
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        pipe.close()
        with open(write_fd, "wb") as out:
            for key in keys:
                pickle.dump(draw_plan(spec, key, shape), out, pickle.HIGHEST_PROTOCOL)
                out.flush()
        code = 0
    except BrokenPipeError:
        code = 0
    finally:
        os._exit(code)


@contextlib.contextmanager
def _drawn_ahead(spec: AugmentSpec, shape, keys):
    """Fork a worker that draws ``draw_plan(spec, key, shape)`` for each key
    of ``keys`` in turn; the block gets a function that returns the next
    plan.  The draws do not depend on the batch, so the worker makes them
    while the caller trains, as far ahead as the pipe between them holds.
    A worker that ends before its last plan raises WorkerError.  Leaving
    closes the pipe and kills and reaps the worker, however the block ends."""
    read_fd, write_fd = os.pipe()
    pipe = open(read_fd, "rb")
    pid = status = None
    try:
        # no signal handler may run in the child before it has its own handlers
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
        try:
            pid = os.fork()
            if pid == 0:
                _write_plans(pipe, write_fd, mask, spec, shape, keys)
        finally:
            os.close(write_fd)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

        def stop():
            nonlocal status
            if status is None:
                os.kill(pid, signal.SIGKILL)
                status = os.waitpid(pid, 0)[1]
            return status

        def next_plan():
            try:
                return pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                code = os.waitstatus_to_exitcode(stop())
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise WorkerError(f"the virtual-view worker ended early ({how})") from None

        yield next_plan
    finally:
        pipe.close()
        if pid:
            stop()


def _train(model: MLP, teacher, data: Dataset, config: TrainConfig,
           objective: str) -> list[EpochRecord]:
    """SGD on the :data:`OBJECTIVES` entry ``objective``, over full batches.
    A vrm run draws its virtual views' randomness in a worker process
    (:func:`_drawn_ahead`) and applies it to each batch here."""
    check_objective(objective, teacher, config, data)
    step_loss = OBJECTIVES[objective]
    x_train, y_train = data.train_inputs, data.train_labels
    needs_virtual = step_loss is _vrm
    params = model.parameters()
    opt = SGD(params, config.lr, config.momentum, config.weight_decay)
    records: list[EpochRecord] = []
    # the key of each batch _epoch_batches yields, in the loop's order
    n_batches = len(x_train) // config.batch_size
    keys = ((epoch, step) for epoch in range(config.epochs) for step in range(n_batches))
    plans = (_drawn_ahead(config.augment, (config.batch_size, x_train.shape[1]), keys)
             if needs_virtual else contextlib.nullcontext())

    with plans as next_plan:
        for epoch in range(config.epochs):
            opt.lr = config.lr_at(epoch)
            sums = dict.fromkeys(("total", *STEP_COLUMNS), 0.0)
            n_steps = 0
            for step, batch_idx in enumerate(_epoch_batches(
                    x_train.shape[0], config.batch_size, config.seed, epoch)):
                xb, yb = x_train[batch_idx], y_train[batch_idx]
                xv = (virtual_batch(xb, config.augment, (epoch, step), next_plan())
                      if needs_virtual else None)
                try:
                    loss, row = step_loss(model, teacher, xb, yb, xv, config)
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
