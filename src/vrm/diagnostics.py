"""Numerical reproductions of the analytical studies: how a spurious
prediction's gradient spreads through a batch under instance- versus
relation-matching losses, gradient-conflict summaries, and logit
statistics."""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .baselines import gram_inter_sample
from .errors import ParameterError
from .graphs import build_inter_sample_edges
from .training import _fmt

PILOT_LOSS_KINDS = ("IM", "RM", "RM_GRAM")


@dataclass
class PilotSpec:
    """Spurious-gradient experiment: perturb row ``t`` of a random
    prediction matrix by ``c``-scaled noise and watch how every row's
    gradient norm responds."""

    B: int = 64
    D: int = 16
    t: int = 32
    c: float = 1.0
    seed: int = 0
    loss_kind: str = "RM"

    def __post_init__(self):
        if not 0 <= self.t < self.B:
            raise ParameterError("spurious index t must lie in [0, B)")
        if self.c < 0:
            raise ParameterError("noise scale must be nonnegative")
        if self.loss_kind not in PILOT_LOSS_KINDS:
            raise ParameterError(f"loss_kind must be one of {PILOT_LOSS_KINDS}")


def _pilot_loss(x: Tensor, y: np.ndarray, kind: str) -> Tensor:
    if kind == "IM":
        d = x - Tensor(y)
        return (d * d).mean()
    if kind == "RM":
        e_x = build_inter_sample_edges(x)
        with ad.no_grad():
            e_y = build_inter_sample_edges(Tensor(y))
        return ad.huber(e_x.values, e_y.values, 1.0).mean()
    # RM_GRAM: same experiment through an inner-product relation encoder
    g_x = gram_inter_sample(x)
    with ad.no_grad():
        g_y = gram_inter_sample(Tensor(y))
    return ad.huber(g_x, g_y, 1.0).mean()


def _row_grad_norms(x_data: np.ndarray, y: np.ndarray, kind: str) -> np.ndarray:
    x = Tensor(x_data, requires_grad=True)
    backward(_pilot_loss(x, y, kind))
    return np.sqrt((x.grad * x.grad).sum(axis=1))


def gradient_diffusion_pilot(spec: PilotSpec) -> np.ndarray:
    """Per-sample change in gradient norm after injecting the spurious
    prediction: delta_g[i] = |dL/dx'_i| - |dL/dx_i| where x' differs
    from x only at row t.  Deterministic in the seed."""
    rng = np.random.default_rng(spec.seed)
    x = rng.standard_normal((spec.B, spec.D))
    y = rng.standard_normal((spec.B, spec.D))
    eps = spec.c * rng.standard_normal(spec.D)

    before = _row_grad_norms(x, y, spec.loss_kind)
    x_prime = x.copy()
    x_prime[spec.t] += eps
    after = _row_grad_norms(x_prime, y, spec.loss_kind)
    return after - before


def diffusion_summary(B=64, D=16, t=32, c=1.0, seeds=range(20),
                      kinds=("IM", "RM")) -> dict:
    """Medians of off-target |delta_g| per loss kind across seeds."""
    out = {}
    for kind in kinds:
        med = []
        for seed in seeds:
            dg = gradient_diffusion_pilot(PilotSpec(B, D, t, c, seed, kind))
            off = np.abs(np.delete(dg, t))
            med.append(np.median(off))
        out[kind] = float(np.median(med))
    return out


@dataclass
class ConflictResult:
    mean_cosine: float
    n_pairs: int
    n_excluded: int
    defined: bool


def gradient_conflict(grad_vectors) -> ConflictResult:
    """Mean pairwise cosine similarity over all unordered pairs of
    nonzero gradient vectors.  Zero vectors are excluded and counted;
    with fewer than two nonzero vectors the mean is undefined."""
    vecs = [np.asarray(g, dtype=float).ravel() for g in grad_vectors]
    norms = [np.linalg.norm(v) for v in vecs]
    live = [v / n for v, n in zip(vecs, norms) if n > 0.0]
    excluded = len(vecs) - len(live)
    if len(live) < 2:
        return ConflictResult(float("nan"), 0, excluded, False)
    total = 0.0
    pairs = 0
    for i in range(len(live)):
        for j in range(i + 1, len(live)):
            total += float(live[i] @ live[j])
            pairs += 1
    return ConflictResult(total / pairs, pairs, excluded, True)


def dynamics_log(records) -> list:
    """Normalize a training run's per-epoch records into the rows the
    overfitting comparison works from: accuracy pair, generalization
    gap, loss components, and kept-edge fractions.  Append-only: one row
    per epoch in training order."""
    rows = []
    for r in records:
        rows.append({
            "epoch": r.epoch,
            "train_acc": r.train_acc,
            "val_acc": r.val_acc,
            "gap": r.train_acc - r.val_acc,
            "total": r.total,
            "ce_real": r.ce_real,
            "ce_virtual": r.ce_virtual,
            "isv": r.isv,
            "icv": r.icv,
            "kept_isv_frac": r.kept_isv_frac,
            "kept_icv_frac": r.kept_icv_frac,
        })
    return rows


@dataclass
class LogitStats:
    means: np.ndarray
    stds: np.ndarray
    hist: np.ndarray
    mean_edges: np.ndarray
    std_edges: np.ndarray


def logit_stats(model, inputs: np.ndarray, bins: int = 50) -> LogitStats:
    """Per-sample mean and standard deviation of the logit vector plus a
    fixed-bin 2-D histogram over the observed ranges."""
    logits = model.logits(inputs)
    means = logits.mean(axis=1)
    stds = logits.std(axis=1)
    hist, mean_edges, std_edges = np.histogram2d(means, stds, bins=bins)
    return LogitStats(means, stds, hist, mean_edges, std_edges)


# -- CSV writers ----------------------------------------------------------


def write_pilot_csv(delta_g: np.ndarray, t: int, path) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "delta_g", "is_spurious"])
        for i, dg in enumerate(delta_g):
            writer.writerow([i, _fmt(dg), int(i == t)])


def write_logit_stats_csv(stats: LogitStats, stats_path, hist_path) -> None:
    with open(stats_path, "w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "mean", "std"])
        for i, (m, s) in enumerate(zip(stats.means, stats.stds)):
            writer.writerow([i, _fmt(m), _fmt(s)])
    with open(hist_path, "w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mean_lo", "mean_hi", "std_lo", "std_hi", "count"])
        for i in range(stats.hist.shape[0]):
            for j in range(stats.hist.shape[1]):
                writer.writerow([
                    _fmt(stats.mean_edges[i]), _fmt(stats.mean_edges[i + 1]),
                    _fmt(stats.std_edges[j]), _fmt(stats.std_edges[j + 1]),
                    int(stats.hist[i, j]),
                ])
