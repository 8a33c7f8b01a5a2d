"""SGD training loops: teacher pretraining and student distillation
under the relation-matching, instance-matching, plain-CE, and baseline
objectives."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .baselines import angular_relations, gram_inter_class, gram_inter_sample
from .data import AugmentSpec, Dataset, virtual_batch
from .errors import NumericError, ParameterError, TrainingError, require_finite
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
        require_finite(self, ("lr", "momentum", "weight_decay", "lr_decay", "im_kd_weight"))
        if self.batch_size < 2:
            raise ParameterError("relations need batches of at least 2")
        stones = tuple(self.milestones)
        if any(b >= a for a, b in zip(stones[1:], stones)):
            raise ParameterError("milestones must be strictly increasing")
        self.milestones = stones
        if self.epochs < 1:
            raise ParameterError("epochs must be positive")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")
        if self.lr <= 0:
            raise ParameterError("learning rate must be positive")

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


PARTS = ("ce_real", "ce_virtual", "isv", "icv")


def _parts(ce_real, ce_virtual=None, isv=None, icv=None) -> dict:
    """The per-step loss components as floats; an absent one reads 0."""
    values = (ce_real, ce_virtual, isv, icv)
    return {k: 0.0 if v is None else v.item() for k, v in zip(PARTS, values)}


def _ce_only(model, teacher, xb, yb, xv, config):
    """Label cross-entropy alone; the teacher is never consulted."""
    loss = ad.cross_entropy(model(xb), yb)
    return loss, _parts(loss), (0.0, 0.0)


def _vrm(model, teacher, xb, yb, xv, config):
    """Masked cross-view edge matching plus label CE on both views
    (:func:`total_loss`)."""
    s_batch = LogitBatch(model(xb), model(xv))
    with ad.no_grad():
        t_batch = LogitBatch(Tensor(teacher.logits(xb)), Tensor(teacher.logits(xv)))
    bd = total_loss(s_batch, t_batch, yb, config.weights)
    b, c = s_batch.batch_size, s_batch.n_classes
    parts = _parts(bd.ce_real, bd.ce_virtual, bd.isv, bd.icv)
    return bd.total, parts, (bd.kept_isv / (b * b), bd.kept_icv / (c * c))


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
    return loss, _parts(ce, isv=kl), (1.0, 1.0)


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
    return loss, _parts(ce, None, *rels), (1.0, 1.0)


def _gram(model, teacher, xb, yb, xv, config):
    """SP baseline (Tung & Mori, 2019): inter-sample and inter-class Gram
    matrices, logged as ``isv`` and ``icv``."""
    return _relation_arm(model, teacher, xb, yb, config, gram_inter_sample, gram_inter_class)


def _angular(model, teacher, xb, yb, xv, config):
    """RKD-angle baseline (Park et al., 2019): third-order angular
    relations, logged as ``isv``."""
    return _relation_arm(model, teacher, xb, yb, config, angular_relations)


# objective -> fn(model, teacher, xb, yb, xv, config) -> (loss tensor,
# PARTS dict, (kept ISV fraction, kept ICV fraction)).  The entries look
# up their loss functions when called, so a rebinding of, say,
# ``training.total_loss`` reaches them.
OBJECTIVES = {"vrm": _vrm, "im_kd": _im_kd, "ce_only": _ce_only,
              "gram": _gram, "angular": _angular}


def _train(model: MLP, teacher, data: Dataset, config: TrainConfig,
           step_loss) -> list[EpochRecord]:
    """SGD on ``step_loss``, an :data:`OBJECTIVES` entry, over full batches."""
    x_train, y_train = data.train_inputs, data.train_labels
    if config.batch_size > x_train.shape[0]:
        raise ParameterError(f"batch size {config.batch_size} exceeds the "
                             f"{x_train.shape[0]} training samples")
    needs_virtual = step_loss is _vrm
    params = model.parameters()
    opt = SGD(params, config.lr, config.momentum, config.weight_decay)
    records: list[EpochRecord] = []

    for epoch in range(config.epochs):
        opt.lr = config.lr_at(epoch)
        sums = dict.fromkeys(("total",) + PARTS, 0.0)
        kept = [0.0, 0.0]
        n_steps = 0
        for step, batch_idx in enumerate(_epoch_batches(
                x_train.shape[0], config.batch_size, config.seed, epoch)):
            xb, yb = x_train[batch_idx], y_train[batch_idx]
            xv = (virtual_batch(xb, config.augment, (epoch, step))
                  if needs_virtual else None)
            try:
                loss, parts, fracs = step_loss(model, teacher, xb, yb, xv, config)
                loss_val = loss.item()
                if not np.isfinite(loss_val):
                    raise NumericError("loss is not finite")
                opt.zero_grad()
                backward(loss)
                opt.step()
            except NumericError as exc:
                raise TrainingError(f"diverged at epoch {epoch}: {exc}", epoch=epoch) from exc
            sums["total"] += loss_val
            for k in PARTS:
                sums[k] += parts[k]
            kept[0] += fracs[0]
            kept[1] += fracs[1]
            n_steps += 1

        records.append(EpochRecord(
            epoch=epoch,
            lr=opt.lr,
            train_acc=accuracy(model, x_train, y_train),
            val_acc=accuracy(model, data.val_inputs, data.val_labels),
            total=sums["total"] / n_steps,
            ce_real=sums["ce_real"] / n_steps,
            ce_virtual=sums["ce_virtual"] / n_steps,
            isv=sums["isv"] / n_steps,
            icv=sums["icv"] / n_steps,
            kept_isv_frac=kept[0] / n_steps,
            kept_icv_frac=kept[1] / n_steps,
        ))
    return records


def lookup_objective(objective: str, teacher: MLP | None):
    """The :data:`OBJECTIVES` entry for ``objective``.  Raises
    ParameterError for an unknown name, or for an objective that needs a
    teacher when ``teacher`` is None."""
    step_loss = OBJECTIVES.get(objective)
    if step_loss is None:
        raise ParameterError(f"objective must be one of {', '.join(OBJECTIVES)}")
    if step_loss is not _ce_only and teacher is None:
        raise ParameterError(f"objective {objective!r} needs a teacher")
    return step_loss


def train_teacher(spec: MLPSpec, data: Dataset, config: TrainConfig):
    """Label-only SGD training; returns (model, per-epoch records)."""
    model = MLP(spec)
    records = _train(model, None, data, config, _ce_only)
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
    step_loss = lookup_objective(objective, teacher)
    student = MLP(student_spec)
    records = _train(student, teacher, data, config, step_loss)
    return student, records


# -- metrics files --------------------------------------------------------


def _fmt(value) -> str:
    """Floats with every digit a float64 needs to round-trip; else str."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, header, rows) -> None:
    """A header line, then one line per row with each value through :func:`_fmt`."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def write_metrics_csv(records: list[EpochRecord], path) -> None:
    cols = ["epoch", "lr", "train_acc", "val_acc"]
    write_csv(path, cols, ([getattr(r, c) for c in cols] for r in records))


def write_breakdown_csv(records: list[EpochRecord], path) -> None:
    cols = ["epoch", "total", "ce_real", "ce_virtual", "isv", "icv",
            "kept_isv_frac", "kept_icv_frac"]
    write_csv(path, cols, ([getattr(r, c) for c in cols] for r in records))
