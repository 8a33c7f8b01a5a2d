"""Affinity edge tensors over batches of predictions.

Edges are unit-normalized pairwise differences.  Within one view they
relate samples (fiber length = class count) or classes (fiber length =
batch size); across the real and virtual views only the cross-view
pairs are materialized, which structurally removes the redundant
symmetric half and the intra-view relations.

An inter-class relation is the inter-sample relation of the class
columns (:func:`relation_items`).  Every kind is a composite of the
generic tape ops (reshape, subtract, transpose and l2_normalize).  The
objective's two cross-view terms do not build edges here: each is one
fused node in :mod:`vrm.losses`.
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


def relation_items(kind: str, *matrices):
    """Each [B, C] matrix as the rows ``kind`` relates: itself (its samples)
    for IS and ISV, its ``.T`` (its class columns) for IC and ICV.  ``.T``
    serves Tensors and arrays and undoes itself, so gradients go back alike."""
    if kind not in EDGE_KINDS:
        raise UsageError(f"unknown edge kind {kind!r}")
    return tuple(m.T for m in matrices) if kind in ("IC", "ICV") else matrices


# what each kind relates; every kind but ISV needs a pair of them
_PAIRED = {"IS": "samples", "IC": "classes", "ICV": "classes"}


def check_items(kind: str, items) -> None:
    """InputError unless ``items``, of :func:`relation_items`, is a matrix
    of the 2 or more items ``kind`` needs."""
    if kind in _PAIRED and (items.ndim != 2 or items.shape[0] < 2):
        raise InputError(f"{kind} edges need a [B, C] matrix of at least 2 {_PAIRED[kind]}")


def _edges(kind: str, *views) -> EdgeTensor:
    """The ``kind`` edges among the items of one view, fiber (i, j) = item i
    - item j, or across two, fiber (i, j) = real item j - virtual item i."""
    items = relation_items(kind, *views)
    check_items(kind, items[0])
    n, length = items[0].shape
    if len(items) == 1:
        diff = items[0].reshape(n, 1, length) - items[0].reshape(1, n, length)
    else:
        diff = items[0].reshape(1, n, length) - items[1].reshape(n, 1, length)
    return EdgeTensor(kind, l2_normalize(diff, axis=2))


def build_inter_sample_edges(Z) -> EdgeTensor:
    """Edges between sample predictions within one view.

    Fiber (i, j) is the unit-normalized difference row_i - row_j, so the
    result is antisymmetric over its leading axes and keeps the full
    class-wise profile of each relation.
    """
    return _edges("IS", _coerce(Z))


def build_inter_class_edges(Z) -> EdgeTensor:
    """Edges between per-class score vectors (columns) within one view:
    the inter-sample edges of the class columns, fibers along the batch
    axis, shape [C, C, B]."""
    return _edges("IC", _coerce(Z))


def build_isv_edges(batch: LogitBatch) -> EdgeTensor:
    """Cross-view inter-sample edges, shape [B, B, C].

    Fiber (i, j) is the unit-normalized difference between the real-view
    prediction of sample j and the virtual-view prediction of sample i.
    Only real-virtual pairs exist here, including the (i, i) pair of the
    two views of the same sample; real-real and virtual-virtual
    relations are never materialized.
    """
    return _edges("ISV", batch.real, batch.virtual)


def build_icv_edges(batch: LogitBatch) -> EdgeTensor:
    """Cross-view inter-class edges, shape [C, C, B]: the ISV edges of the
    class columns.  Fiber (p, q) is the unit-normalized difference between
    real-view class column q and virtual-view class column p, so the
    relation spans the two views at batch length B rather than
    concatenating views into 2B-vectors."""
    return _edges("ICV", batch.real, batch.virtual)


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
    if kind not in EDGE_KINDS:
        raise UsageError(f"unknown edge kind {kind!r}")
    cross = kind in ("ISV", "ICV")
    if isinstance(source, LogitBatch) != cross:
        raise UsageError(f"kind {kind} takes {'a LogitBatch' if cross else 'a single matrix'}")
    views = (source.real, source.virtual) if cross else (source, source)
    real, virtual = (np.asarray(getattr(v, "data", v), dtype=float) for v in views)
    if max(real.shape) > ORACLE_MAX_DIM:
        raise UsageError("oracle accepts at most 16 samples and 16 classes")
    if kind in ("IC", "ICV"):
        real, virtual = real.T, virtual.T
    n, length = real.shape
    out = np.zeros((n, n, length))
    for i in range(n):
        for j in range(n):
            # within a view fiber (i, j) is item i - item j; across the
            # views, real item j - virtual item i
            a, b = (real[j], virtual[i]) if cross else (real[i], real[j])
            out[i, j, :] = _unit_or_zero([float(a[k]) - float(b[k]) for k in range(length)])
    return EdgeTensor(kind, Tensor(out))
