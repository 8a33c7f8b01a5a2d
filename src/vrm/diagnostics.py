"""Numerical reproduction of the spurious-gradient study: how one bad
prediction's gradient spreads through a batch under instance- versus
relation-matching losses."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .baselines import gram_inter_sample
from .errors import check_fields
from .graphs import build_inter_sample_edges
from .training import write_csv

PILOT_LOSS_KINDS = ("IM", "RM", "RM_GRAM")


@dataclass
class PilotSpec:
    """Spurious-gradient experiment: perturb row ``t`` of a random
    prediction matrix by ``c``-scaled noise and watch how every row's
    gradient norm responds.  Each error message starts with the name of
    the field at fault."""

    B: int = 64
    D: int = 16
    t: int = 32
    c: float = 1.0
    seed: int = 0
    loss_kind: str = "RM"

    def __post_init__(self):
        check_fields(vars(self), (
            ("B", self.B >= 2, "must be >= 2"),
            ("D", self.D >= 1, "must be >= 1"),
            ("t", 0 <= self.t < self.B, f"must lie in [0, {self.B})"),
            ("c", 0 <= self.c < math.inf, "must be finite and nonnegative"),
            ("loss_kind", self.loss_kind in PILOT_LOSS_KINDS,
             f"must be one of {PILOT_LOSS_KINDS}")))


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


def write_pilot_csv(delta_g: np.ndarray, t: int, path) -> None:
    write_csv(path, ["index", "delta_g", "is_spurious"],
              ([i, dg, int(i == t)] for i, dg in enumerate(delta_g)))

