"""Unreliable-edge pruning via a joint-entropy percentile criterion.

An edge is kept while the entropy of the equal-weight mixture of its two
endpoint distributions stays at or below the m-th percentile of the
current batch.  The mixture entropy grows with the discrepancy between
the endpoints and collapses to their individual entropy when they agree,
so it scores both relative and absolute uncertainty of a relation.

Masks are recomputed from student predictions every iteration and are
constants for gradient purposes: nothing differentiates through their
construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import InputError, ParameterError, UsageError
from .graphs import EdgeTensor, LogitBatch

MASK_KINDS = ("ISV", "ICV")


@dataclass
class EdgeMask:
    """Boolean retention matrix over the leading two edge axes.

    Under the nearest-rank percentile rule the retained count equals
    ceil(m/100 * N) whenever the threshold value is unique; entries tied
    with the threshold are all kept.
    """

    kind: str
    keep: np.ndarray
    percentile_m: float
    threshold_value: float

    def __post_init__(self):
        if self.kind not in MASK_KINDS:
            raise UsageError(f"unknown mask kind {self.kind!r}")
        self.keep = np.asarray(self.keep, dtype=bool)

    @property
    def kept_count(self) -> int:
        return int(self.keep.sum())

    @property
    def kept_fraction(self) -> float:
        return self.kept_count / self.keep.size


def mixture_entropy(p, q) -> float:
    """Entropy of the equal-weight mixture of two categorical distributions."""
    m = (np.asarray(p, dtype=float) + np.asarray(q, dtype=float)) / 2.0
    pos = m > 0.0
    return float(-(m[pos] * np.log(m[pos])).sum())


def _mixture_entropy_grid(P, Q):
    # JE[i, j] pairs row j of P with row i of Q, matching edge orientation
    mix = P[None, :, :] + Q[:, None, :]
    mix /= 2.0
    pos = mix > 0.0
    # mix log(mix) where mix > 0, else 0, in one scratch buffer
    plogp = np.where(pos, mix, 1.0)
    np.log(plogp, out=plogp)
    plogp *= mix
    np.copyto(plogp, 0.0, where=~pos)
    return -plogp.sum(axis=2)


def joint_entropy_matrix(batch: LogitBatch, kind: str) -> np.ndarray:
    """Pairwise mixture entropies between the two views of a batch.

    kind ISV pairs prediction rows: JE[i, j] scores the edge between the
    real view of sample j and the virtual view of sample i.  kind ICV
    pairs class columns after converting each column to a distribution
    with a softmax over the batch axis: JE[p, q] scores the edge between
    real column q and virtual column p.
    """
    if kind not in MASK_KINDS:
        raise UsageError(f"unknown mask kind {kind!r}")
    if not batch.softened:
        raise InputError("joint entropy needs softened predictions")
    real = batch.real.data
    virt = batch.virtual.data
    if kind == "ISV":
        for name, m in (("real", real), ("virtual", virt)):
            if m.min() < -1e-9 or np.abs(m.sum(axis=1) - 1.0).max() > 1e-9:
                raise InputError(f"{name} rows are not distributions")
        return _mixture_entropy_grid(real, virt)
    # class columns are not distributions; normalize each over the batch
    r_cols = _batch_softmax(real)
    v_cols = _batch_softmax(virt)
    return _mixture_entropy_grid(r_cols.T, v_cols.T)


def _batch_softmax(m):
    u = m - m.max(axis=0, keepdims=True)
    e = np.exp(u)
    return e / e.sum(axis=0, keepdims=True)


def uep_mask(JE, m: float, kind: str = "ISV") -> EdgeMask:
    """Retention mask keeping entries at or below the m-th percentile.

    The cutoff P_m is the nearest-rank percentile: the value at 1-based
    index ceil(m/100 * N) of the ascending sort of all N entries, found
    by selection rather than a full sort.  Ties at the cutoff are all
    kept, and m = 100 keeps everything.
    """
    if not 0.0 < m <= 100.0:
        raise ParameterError("percentile must lie in (0, 100]")
    je = np.asarray(JE.data if isinstance(JE, Tensor) else JE, dtype=float)
    if je.size == 0:
        raise InputError("empty joint-entropy matrix")
    rank = math.ceil(m / 100.0 * je.size)
    threshold = np.partition(je, rank - 1, axis=None)[rank - 1]
    return EdgeMask(kind, je <= threshold, m, float(threshold))


def apply_mask(edges: EdgeTensor, mask: EdgeMask) -> Tensor:
    """Zero out pruned fibers of an edge tensor.

    Multiplication by the 0/1 mask makes pruned fibers contribute
    exactly zero to any reduction and pass exactly zero gradient back.
    """
    return edges.values * Tensor(mask_weights(edges, mask))


def mask_weights(edges: EdgeTensor, mask: EdgeMask) -> np.ndarray:
    """The 0/1 fiber weights of ``mask``, shaped to broadcast over ``edges``."""
    if edges.kind != mask.kind:
        raise UsageError(f"mask kind {mask.kind} does not match edges {edges.kind}")
    if edges.values.shape[:2] != mask.keep.shape:
        raise UsageError("mask shape does not match edge leading axes")
    return mask.keep.astype(float)[:, :, None]


def full_mask(edges: EdgeTensor, m: float = 100.0) -> EdgeMask:
    """All-true mask matching an edge tensor (no pruning)."""
    if edges.kind not in MASK_KINDS:
        raise UsageError(f"masks only apply to {MASK_KINDS} edges")
    return EdgeMask(edges.kind, np.ones(edges.values.shape[:2], dtype=bool), m, float("inf"))
