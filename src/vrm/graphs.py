"""Affinity edge tensors over batches of predictions.

Edges are unit-normalized pairwise differences.  Within one view they
relate samples (fiber length = class count) or classes (fiber length =
batch size); across the real and virtual views only the cross-view
pairs are materialized, which structurally removes the redundant
symmetric half and the intra-view relations.

Every kind is a composite of the generic tape ops (reshape, subtract,
transpose and l2_normalize).  The objective's two cross-view terms do
not build edges here: each is one fused node in :mod:`vrm.losses`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import DEFAULT_NORM_EPS, Tensor, _coerce, l2_normalize, softmax
from .errors import InputError, UsageError

EDGE_KINDS = ("IS", "IC", "ISV", "ICV")

# Largest batch/class count accepted by the scalar-loop oracle.
ORACLE_MAX_DIM = 16


@dataclass
class LogitBatch:
    """Paired real-view and virtual-view prediction matrices [B, C].

    ``softened`` records whether entries are temperature-softened
    probabilities (rows summing to 1) or raw logits.
    """

    real: Tensor
    virtual: Tensor
    softened: bool = False

    def __post_init__(self):
        self.real = _coerce(self.real)
        self.virtual = _coerce(self.virtual)
        if self.real.ndim != 2 or self.real.shape != self.virtual.shape:
            raise InputError("real and virtual views must share one [B, C] shape")
        if self.softened:
            for name, t in (("real", self.real), ("virtual", self.virtual)):
                sums = t.data.sum(axis=1)
                if np.abs(sums - 1.0).max() > 1e-9:
                    raise InputError(f"softened {name} rows must sum to 1")

    @property
    def batch_size(self) -> int:
        return self.real.shape[0]

    @property
    def n_classes(self) -> int:
        return self.real.shape[1]

    def detach(self) -> "LogitBatch":
        return LogitBatch(self.real.detach(), self.virtual.detach(), self.softened)


def soften(batch: LogitBatch, tau: float) -> LogitBatch:
    """Convert raw logits to temperature-softened probabilities, row-wise."""
    if batch.softened:
        raise UsageError("batch is already softened")
    return LogitBatch(
        softmax(batch.real, axis=1, tau=tau),
        softmax(batch.virtual, axis=1, tau=tau),
        softened=True,
    )


@dataclass
class EdgeTensor:
    """A relation edge matrix, unit-normalized along axis 2."""

    kind: str
    values: Tensor

    def __post_init__(self):
        if self.kind not in EDGE_KINDS:
            raise UsageError(f"unknown edge kind {self.kind!r}")

    @property
    def fiber_length(self) -> int:
        return self.values.shape[2]


def build_inter_sample_edges(Z) -> EdgeTensor:
    """Edges between sample predictions within one view.

    Fiber (i, j) is the unit-normalized difference row_i - row_j, so the
    result is antisymmetric over its leading axes and keeps the full
    class-wise profile of each relation.
    """
    z = _coerce(Z)
    if z.ndim != 2 or z.shape[0] < 2:
        raise InputError("inter-sample edges need a [B >= 2, C] matrix")
    b, c = z.shape
    diff = z.reshape(b, 1, c) - z.reshape(1, b, c)
    return EdgeTensor("IS", l2_normalize(diff, axis=2))


def build_inter_class_edges(Z) -> EdgeTensor:
    """Edges between per-class score vectors (columns) within one view.

    Mirrors the inter-sample construction with the roles of samples and
    classes swapped; fibers run along the batch axis.
    """
    z = _coerce(Z)
    if z.ndim != 2 or z.shape[1] < 2:
        raise InputError("inter-class edges need a [B, C >= 2] matrix")
    b, c = z.shape
    w = z.transpose()  # [C, B]
    diff = w.reshape(c, 1, b) - w.reshape(1, c, b)
    return EdgeTensor("IC", l2_normalize(diff, axis=2))


def build_isv_edges(batch: LogitBatch) -> EdgeTensor:
    """Cross-view inter-sample edges, shape [B, B, C].

    Fiber (i, j) is the unit-normalized difference between the real-view
    prediction of sample j and the virtual-view prediction of sample i.
    Only real-virtual pairs exist here, including the (i, i) pair of the
    two views of the same sample; real-real and virtual-virtual
    relations are never materialized.
    """
    b, c = batch.real.shape
    diff = batch.real.reshape(1, b, c) - batch.virtual.reshape(b, 1, c)
    return EdgeTensor("ISV", l2_normalize(diff, axis=2))


def build_icv_edges(batch: LogitBatch) -> EdgeTensor:
    """Cross-view inter-class edges, canonical shape [C, C, B].

    Fiber (p, q) is the unit-normalized difference between real-view
    class column q and virtual-view class column p, normalized along the
    batch axis, so the relation spans the two views at batch length B
    rather than concatenating views into 2B-vectors.  The difference is
    formed as [B, C, C] and normalized through its [C, C, B] view.
    """
    if batch.n_classes < 2:
        raise InputError("inter-class edges need at least 2 classes")
    b, c = batch.real.shape
    diff = batch.real.reshape(b, 1, c) - batch.virtual.reshape(b, c, 1)
    return EdgeTensor("ICV", l2_normalize(diff.transpose((1, 2, 0)), axis=2))


# -- scalar-loop oracle -------------------------------------------------


def _unit_or_zero(diff):
    norm_sq = 0.0
    for d in diff:
        norm_sq += d * d
    norm = math.sqrt(norm_sq)
    if norm < DEFAULT_NORM_EPS:
        return [0.0] * len(diff)
    return [d / norm for d in diff]


def brute_force_edges(source, kind: str) -> EdgeTensor:
    """Edge construction by explicit scalar loops, for equivalence tests.

    Takes a plain [B, C] matrix for kinds IS/IC and a LogitBatch for
    kinds ISV/ICV.  No vectorization, no intermediates shared with the
    production builders.
    """
    if kind in ("IS", "IC"):
        if isinstance(source, LogitBatch):
            raise UsageError(f"kind {kind} takes a single matrix, not a LogitBatch")
        z = np.asarray(source.data if isinstance(source, Tensor) else source, dtype=float)
        b, c = z.shape
        real = virtual = z
    elif kind in ("ISV", "ICV"):
        if not isinstance(source, LogitBatch):
            raise UsageError(f"kind {kind} takes a LogitBatch")
        real = source.real.data
        virtual = source.virtual.data
        b, c = real.shape
    else:
        raise UsageError(f"unknown edge kind {kind!r}")
    if b > ORACLE_MAX_DIM or c > ORACLE_MAX_DIM:
        raise UsageError("oracle accepts at most 16 samples and 16 classes")

    if kind == "IS":
        out = np.zeros((b, b, c))
        for i in range(b):
            for j in range(b):
                diff = [float(z[i, k]) - float(z[j, k]) for k in range(c)]
                out[i, j, :] = _unit_or_zero(diff)
    elif kind == "IC":
        out = np.zeros((c, c, b))
        for i in range(c):
            for j in range(c):
                diff = [float(z[k, i]) - float(z[k, j]) for k in range(b)]
                out[i, j, :] = _unit_or_zero(diff)
    elif kind == "ISV":
        out = np.zeros((b, b, c))
        for i in range(b):
            for j in range(b):
                diff = [float(real[j, k]) - float(virtual[i, k]) for k in range(c)]
                out[i, j, :] = _unit_or_zero(diff)
    else:  # ICV
        out = np.zeros((c, c, b))
        for p in range(c):
            for q in range(c):
                diff = [float(real[k, q]) - float(virtual[k, p]) for k in range(b)]
                out[p, q, :] = _unit_or_zero(diff)
    return EdgeTensor(kind, Tensor(out))
