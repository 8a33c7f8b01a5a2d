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

from .autodiff import Tensor, _row_blocks
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


def mixture_entropy(p, q) -> float:
    """Entropy of the equal-weight mixture of two categorical distributions."""
    m = (np.asarray(p, dtype=float) + np.asarray(q, dtype=float)) / 2.0
    pos = m > 0.0
    return float(-(m[pos] * np.log(m[pos])).sum())


def _mixture_entropy_grid(P, Q):
    # JE[i, j] pairs row j of P with row i of Q, matching edge orientation.
    # The [len(Q), len(P), C] grid is streamed through row blocks of Q that
    # stay in cache; each entry sums its own fiber, so blocks are exact.
    je = np.empty((Q.shape[0], P.shape[0]))
    for rows in _row_blocks(Q.shape[0], P.size):
        mix = P[None, :, :] + Q[rows, None, :]
        mix /= 2.0
        if mix.min() > 0.0:
            # every entry positive: the masking below would change nothing
            plogp = np.log(mix)
            plogp *= mix
        else:
            pos = mix > 0.0
            # mix log(mix) where mix > 0, else 0, in one scratch buffer
            plogp = np.where(pos, mix, 1.0)
            np.log(plogp, out=plogp)
            plogp *= mix
            np.copyto(plogp, 0.0, where=~pos)
        np.negative(plogp.sum(axis=2), out=je[rows])
    return je


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
    check_fit(mask, edges.kind, edges.values.shape[:2])
    return edges.values * Tensor(mask.keep.astype(float)[:, :, None])


def check_fit(mask: EdgeMask, kind: str, shape) -> None:
    """Raise UsageError unless ``mask`` fits ``kind`` edges of leading shape ``shape``."""
    if kind != mask.kind:
        raise UsageError(f"mask kind {mask.kind} does not match edges {kind}")
    if tuple(shape) != mask.keep.shape:
        raise UsageError("mask shape does not match edge leading axes")
