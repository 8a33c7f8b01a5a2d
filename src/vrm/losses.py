"""The full training objective: masked Huber matching of cross-view
edges between teacher and student, plus label supervision on both views.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InputError, ParameterError, UsageError, require_finite
from .graphs import (
    EdgeTensor,
    LogitBatch,
    build_icv_edges,
    build_isv_edges,
    soften,
)
# the fused edge loss applies mask weights itself; apply_mask stays bound
# here because the benchmark's tracer wraps the step's helpers by name
from .pruning import EdgeMask, apply_mask, joint_entropy_matrix, mask_weights, uep_mask


@dataclass
class VRMWeights:
    """Hyperparameters of the relation-matching objective.

    ``alpha`` and ``beta`` weight the inter-sample and inter-class edge
    losses, ``tau`` softens the logits edges are built from, and
    ``uep_percentile`` sets how aggressively unreliable edges are
    pruned (100 = keep everything).
    """

    alpha: float = 128.0
    beta: float = 32.0
    tau: float = 4.0
    huber_delta: float = 1.0
    uep_percentile: float = 95.0

    def __post_init__(self):
        require_finite(self, ("alpha", "beta", "tau", "huber_delta"))
        if self.alpha < 0 or self.beta < 0:
            raise ParameterError("edge-loss weights must be nonnegative")
        if self.tau <= 0:
            raise ParameterError("temperature must be positive")
        if self.huber_delta <= 0:
            raise ParameterError("huber delta must be positive")
        if not 0.0 < self.uep_percentile <= 100.0:
            raise ParameterError("percentile must lie in (0, 100]")


@dataclass
class LossBreakdown:
    """All scalar components of one objective evaluation.

    ``total`` carries the tape for the backward pass; the identity
    total = ce_real + ce_virtual + alpha * isv + beta * icv holds
    exactly as written.
    """

    total: Tensor
    ce_real: Tensor
    ce_virtual: Tensor
    isv: Tensor
    icv: Tensor
    kept_isv: int
    kept_icv: int


def _masked_edge_loss(e_s: EdgeTensor, e_t: EdgeTensor, mask: EdgeMask | None,
                      delta: float):
    """The body of both edge losses: the Huber penalty, averaged over the
    elements of the kept fibers.  Returns (scalar, kept_count)."""
    if e_s.kind != e_t.kind:
        raise UsageError("student and teacher edge kinds differ")
    if e_s.values.shape != e_t.values.shape:
        raise UsageError("student and teacher edge shapes differ")

    if mask is None:
        kept = e_s.values.shape[0] * e_s.values.shape[1]
        weights = None
    else:
        kept = mask.kept_count
        if kept == 0:
            warnings.warn(
                f"all {e_s.kind} edges pruned; relation loss is zero this step",
                RuntimeWarning,
                stacklevel=3,
            )
            return Tensor(0.0), 0
        weights = mask_weights(e_s, mask)
    scale = 1.0 / (kept * e_s.fiber_length)
    return _edge_loss(e_s.values, e_t.values.data, weights, delta, scale), kept


def _edge_loss(values_s: Tensor, values_t, weights, delta: float, scale: float) -> Tensor:
    """Masked Huber penalty of the student edges against constant teacher
    edges, summed and scaled, as one tape node.

    It replays the composite of apply_mask, huber, sum and the
    1/(kept * fiber_len) scale on the same array layouts, so the value and
    the gradient are bit-identical to it.  The gradient reaches the student
    edges only, so the products the composite formed for the teacher edges
    and the mask weights are never computed.
    """
    s = values_s.data
    # the outputs keep the layout of the edges (one builder makes both
    # sides), as the composite's temporaries did, so elem.sum() adds in
    # the same order; a C-ordered tensor is streamed through row blocks
    # that stay in cache, since every step but that sum is elementwise
    elem = np.empty_like(s)
    slope = np.empty_like(s)
    blocks = (ad._row_blocks(len(s), math.prod(s.shape[1:])) if s.flags.c_contiguous
              else [slice(None)])
    for rows in blocks:
        e, r = elem[rows], slope[rows]
        if weights is None:
            np.subtract(s[rows], values_t[rows], out=r)
        else:
            w = weights[rows]
            np.multiply(values_t[rows], w, out=e)
            np.multiply(s[rows], w, out=r)
            r -= e
        # delta (|r| - delta / 2), then 0.5 r^2 where |r| <= delta
        np.abs(r, out=e)
        quadratic = e <= delta
        e -= 0.5 * delta
        e *= delta
        np.multiply(0.5, r, out=e, where=quadratic)
        np.multiply(e, r, out=e, where=quadratic)
        np.clip(r, -delta, delta, out=r)
    out = np.asarray(elem.sum()) * scale
    # elem is free after the sum; a first backward writes the gradient into
    # it when it has the C layout that gradient needs, saving a fresh buffer
    spare = [elem] if elem.flags.c_contiguous else []

    def grad_fn(g):
        g = g * scale
        # the composite spreads g over a C-ordered buffer before the
        # product; the layout fixes the order of later fiber-axis sums.
        # It then multiplies by the 0/1 weights, which changes no bit: the
        # slope is already a signed zero wherever a weight is 0
        return (np.multiply(g, slope, out=spare.pop() if spare else None, order="C"),)

    return ad._result(out, (values_s,), grad_fn, "masked_edge_loss")


def loss_isv(e_s: EdgeTensor, e_t: EdgeTensor, mask: EdgeMask | None = None,
             delta: float = 1.0) -> Tensor:
    """Huber penalty between student and teacher inter-sample cross-view edges.

    Gradients flow into the student edges only; teacher values are
    detached here even if the caller forgot to.
    """
    if e_s.kind != "ISV":
        raise UsageError("loss_isv expects ISV edges")
    value, _ = _masked_edge_loss(e_s, e_t, mask, delta)
    return value


def loss_icv(e_s: EdgeTensor, e_t: EdgeTensor, mask: EdgeMask | None = None,
             delta: float = 1.0) -> Tensor:
    """Huber penalty between student and teacher inter-class cross-view edges."""
    if e_s.kind != "ICV":
        raise UsageError("loss_icv expects ICV edges")
    value, _ = _masked_edge_loss(e_s, e_t, mask, delta)
    return value


def uep_masks_for(student: LogitBatch, weights: VRMWeights) -> tuple[EdgeMask, EdgeMask]:
    """Fresh retention masks from the student's current softened
    predictions; raw logits are softened with ``weights.tau`` first.
    Detached by construction: mask building never joins the tape."""
    with ad.no_grad():
        probs = student if student.softened else soften(student.detach(), weights.tau)
        m_isv = uep_mask(joint_entropy_matrix(probs, "ISV"), weights.uep_percentile, "ISV")
        m_icv = uep_mask(joint_entropy_matrix(probs, "ICV"), weights.uep_percentile, "ICV")
    return m_isv, m_icv


def total_loss(student: LogitBatch, teacher: LogitBatch, labels, weights: VRMWeights,
               masks: tuple[EdgeMask, EdgeMask] | None = None) -> LossBreakdown:
    """Assemble the complete objective from raw logits of both models.

    Both models' logits are softened with ``weights.tau``; cross-view
    edges are built for each; unreliable-edge masks come from the
    student's own predictions (or are passed in frozen via ``masks``);
    and label supervision is applied to the student's real and virtual
    views.  Gradients reach student logits only.
    """
    if student.softened or teacher.softened:
        raise InputError("total_loss expects raw logits, not softened probabilities")
    if student.real.shape != teacher.real.shape:
        raise InputError("student and teacher shapes differ")

    teacher = teacher.detach()
    labels = np.asarray(labels)

    ce_real = ad.cross_entropy(student.real, labels)
    ce_virtual = ad.cross_entropy(student.virtual, labels)

    s_in = soften(student, weights.tau)
    with ad.no_grad():
        t_in = soften(teacher, weights.tau)

    if masks is None:
        masks = uep_masks_for(s_in, weights)

    # one edge kind at a time: a kind's edges are freed before the next
    # kind is built, which keeps the step's peak memory down
    terms = []
    for build, mask in zip((build_isv_edges, build_icv_edges), masks):
        e_s = build(s_in)
        with ad.no_grad():
            e_t = build(t_in)
        terms.append(_masked_edge_loss(e_s, e_t, mask, weights.huber_delta))
        del e_s, e_t
    (isv, kept_isv), (icv, kept_icv) = terms

    total = ce_real + ce_virtual + isv * weights.alpha + icv * weights.beta
    return LossBreakdown(total, ce_real, ce_virtual, isv, icv, kept_isv, kept_icv)
