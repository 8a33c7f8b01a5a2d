"""The benchmark's workloads: fixed shapes and schedules, with the inputs
derived from the workload seed.

Each workload is one ``distill_student`` configuration run back to back
(a closed loop with one client).  A run sets up ``SETUPS`` independent
dataset/teacher pairs from the seed, and ``setup_s`` is the median of
their set-up times.  The timed distillation runs cycle over the first
``DISTILL_SETUPS`` of them, so ``val_acc`` is a median over several
datasets rather than a reading of one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SETUPS = 9
DISTILL_SETUPS = 5
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    objective: str
    n_classes: int
    dim: int
    n_per_class: int
    noise: float
    batch_size: int
    teacher_widths: tuple
    student_widths: tuple
    teacher_epochs: int
    teacher_lr: float
    teacher_milestones: tuple
    epochs: int
    lr: float
    milestones: tuple
    alpha: float
    beta: float
    # correctness floors: a run below them counts as failed
    teacher_val_floor: float
    val_floor: float
    # sha256 of metrics.csv + breakdown.csv + student.ckpt of the first
    # setup at DEFAULT_SEED; a mismatch is reported, not failed
    reference_digest: str

    @property
    def n_train(self) -> int:
        return int(round(0.8 * self.n_classes * self.n_per_class))

    @property
    def steps_per_run(self) -> int:
        return self.epochs * (self.n_train // self.batch_size)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="vrm_desk",
        why="vrm objective at the acceptance-gate shapes (B=32, C=10): edges fit in L2, "
            "so per-sample augmentation and tape overhead dominate a ~5 ms step",
        objective="vrm", n_classes=10, dim=16, n_per_class=35, noise=0.02, batch_size=32,
        teacher_widths=(16, 128, 64, 10), student_widths=(16, 32, 10),
        teacher_epochs=60, teacher_lr=0.1, teacher_milestones=(36, 48, 54),
        epochs=30, lr=0.1, milestones=(18, 24, 27), alpha=128.0, beta=32.0,
        teacher_val_floor=0.5, val_floor=0.4,
        reference_digest="e139623d69f4264de4937e0941de45aa95aa9f67f3addd67d36e1d031689cc06",
    ),
    Workload(
        name="vrm_wide",
        why="vrm objective at B=128, C=32: each [128,128,32] edge tensor is 4 MiB, above L2, "
            "so edge graph, backward and UEP dominate and augmentation is small",
        objective="vrm", n_classes=32, dim=32, n_per_class=40, noise=0.01, batch_size=128,
        teacher_widths=(32, 128, 64, 32), student_widths=(32, 64, 32),
        teacher_epochs=60, teacher_lr=0.2, teacher_milestones=(36, 48, 54),
        epochs=10, lr=0.3, milestones=(), alpha=128.0, beta=32.0,
        teacher_val_floor=0.3, val_floor=0.08,
        reference_digest="3b6af8b81b3670504b33548a0db14c759640b84468552af69b946f29118b9d2d",
    ),
    Workload(
        name="gram_desk",
        why="gram (SP baseline) objective at the vrm_desk shapes: no virtual views, UEP or "
            "ISV/ICV, so a ~1 ms step is tape overhead and model forward/backward",
        objective="gram", n_classes=10, dim=16, n_per_class=35, noise=0.02, batch_size=32,
        teacher_widths=(16, 128, 64, 10), student_widths=(16, 32, 10),
        teacher_epochs=60, teacher_lr=0.1, teacher_milestones=(36, 48, 54),
        epochs=60, lr=0.1, milestones=(36, 48, 54), alpha=32.0, beta=8.0,
        teacher_val_floor=0.5, val_floor=0.4,
        reference_digest="bd09f48c97e36396d5286900acaef9bd3ac5e84cbe2ec13a28ae353fc3d1b991",
    ),
)}


@dataclass(frozen=True)
class SetupSeeds:
    """The seeds one dataset/teacher/student setup is built from."""

    dataset: int
    teacher: int
    student: int
    train: int  # shuffle and augmentation stream of the distillation run


def setup_seeds(seed: int, n_setups: int = SETUPS) -> list[SetupSeeds]:
    """Independent seeds for each setup, all derived from the workload seed."""
    children = np.random.SeedSequence(seed).spawn(n_setups)
    out = []
    for child in children:
        d, t, s, r = (int(v) for v in child.generate_state(4) % (2 ** 31))
        out.append(SetupSeeds(d, t, s, r))
    return out
