"""The full training objective: masked Huber matching of cross-view
edges between teacher and student, plus label supervision on both views,
and the classic softened-KL instance-matching objective for comparison.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InputError, ParameterError, UsageError
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
    reduction: str = "mean_over_kept"
    metric: str = "huber"
    include_virtual_ce: bool = True
    vertex_weight: float = 0.0
    soften_edges: bool = True

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ParameterError("edge-loss weights must be nonnegative")
        if self.tau <= 0:
            raise ParameterError("temperature must be positive")
        if self.huber_delta <= 0:
            raise ParameterError("huber delta must be positive")
        if not 0.0 < self.uep_percentile <= 100.0:
            raise ParameterError("percentile must lie in (0, 100]")
        if self.reduction not in ("mean_over_kept", "sum"):
            raise ParameterError(f"unknown reduction {self.reduction!r}")
        if self.metric not in ("huber", "mse"):
            raise ParameterError(f"unknown metric {self.metric!r}")
        if self.vertex_weight < 0:
            raise ParameterError("vertex weight must be nonnegative")


@dataclass
class LossBreakdown:
    """All scalar components of one objective evaluation.

    ``total`` carries the tape for the backward pass; the identity
    total = ce_real + ce_virtual + alpha * isv + beta * icv holds
    exactly as written (plus the optional vertex term when enabled).
    """

    total: Tensor
    ce_real: Tensor
    ce_virtual: Tensor
    isv: Tensor
    icv: Tensor
    kept_isv: int
    kept_icv: int
    vertex: Tensor | None = None

    def as_dict(self) -> dict:
        out = {
            "total": self.total.item(),
            "ce_real": self.ce_real.item(),
            "ce_virtual": self.ce_virtual.item(),
            "isv": self.isv.item(),
            "icv": self.icv.item(),
            "kept_isv": self.kept_isv,
            "kept_icv": self.kept_icv,
        }
        if self.vertex is not None:
            out["vertex"] = self.vertex.item()
        return out


def _masked_edge_loss(e_s: EdgeTensor, e_t: EdgeTensor, mask: EdgeMask | None,
                      delta: float, reduction: str, metric: str = "huber"):
    """Shared reduction for both edge losses.  Returns (scalar, kept_count)."""
    if e_s.kind != e_t.kind:
        raise UsageError("student and teacher edge kinds differ")
    if e_s.values.shape != e_t.values.shape:
        raise UsageError("student and teacher edge shapes differ")
    if reduction not in ("mean_over_kept", "sum"):
        raise ParameterError(f"unknown reduction {reduction!r}")

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
    scale = None if reduction == "sum" else 1.0 / (kept * e_s.fiber_length)
    return _edge_loss(e_s.values, e_t.values.data, weights, delta, metric, scale), kept


def _edge_loss(values_s: Tensor, values_t, weights, delta: float, metric: str,
               scale) -> Tensor:
    """Masked residual penalty of the student edges against constant teacher
    edges, summed and optionally scaled, as one tape node.

    It replays the composite of apply_mask, huber (or a squared
    difference), sum and the 1/(kept * fiber_len) scale on the same array
    layouts, so the value and the gradient are bit-identical to it.  The
    gradient reaches the student edges only, so the products the composite
    formed for the teacher edges and the mask weights are never computed.
    """
    # the buffers below are reused in place and keep the layout of the
    # edges (one builder makes both sides), as the composite's temporaries
    # did, so elem.sum() adds in the same order
    if weights is None:
        r = values_s.data - values_t
        elem = np.empty_like(r)
    else:
        elem = values_t * weights
        r = values_s.data * weights
        r -= elem
    if metric == "huber":
        # delta (|r| - delta / 2), then 0.5 r^2 where |r| <= delta
        np.abs(r, out=elem)
        quadratic = elem <= delta
        elem -= 0.5 * delta
        elem *= delta
        np.multiply(0.5, r, out=elem, where=quadratic)
        np.multiply(elem, r, out=elem, where=quadratic)
        slope = np.clip(r, -delta, delta, out=r)
    else:
        np.multiply(r, r, out=elem)
        slope = r
    out = np.asarray(elem.sum())
    if scale is not None:
        out = out * scale

    def grad_fn(g):
        if scale is not None:
            g = g * scale
        # the composite spreads g over a C-ordered buffer before the
        # product; the layout fixes the order of later fiber-axis sums
        gs = np.multiply(g, slope, order="C")
        if metric != "huber":
            gs += gs
        if weights is not None:
            gs *= weights
        return (gs,)

    return ad._result(out, (values_s,), grad_fn, "masked_edge_loss")


def loss_isv(e_s: EdgeTensor, e_t: EdgeTensor, mask: EdgeMask | None = None,
             delta: float = 1.0, reduction: str = "mean_over_kept",
             metric: str = "huber") -> Tensor:
    """Penalty between student and teacher inter-sample cross-view edges.

    Gradients flow into the student edges only; teacher values are
    detached here even if the caller forgot to.
    """
    if e_s.kind != "ISV":
        raise UsageError("loss_isv expects ISV edges")
    value, _ = _masked_edge_loss(e_s, e_t, mask, delta, reduction, metric)
    return value


def loss_icv(e_s: EdgeTensor, e_t: EdgeTensor, mask: EdgeMask | None = None,
             delta: float = 1.0, reduction: str = "mean_over_kept",
             metric: str = "huber") -> Tensor:
    """Penalty between student and teacher inter-class cross-view edges."""
    if e_s.kind != "ICV":
        raise UsageError("loss_icv expects ICV edges")
    value, _ = _masked_edge_loss(e_s, e_t, mask, delta, reduction, metric)
    return value


def uep_masks_for(student_raw: LogitBatch, weights: VRMWeights) -> tuple[EdgeMask, EdgeMask]:
    """Fresh retention masks from the student's current softened
    predictions.  Detached by construction: mask building never joins
    the tape."""
    with ad.no_grad():
        probs = soften(student_raw.detach(), weights.tau)
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
    if weights.include_virtual_ce:
        ce_virtual = ad.cross_entropy(student.virtual, labels)
    else:
        ce_virtual = Tensor(0.0)

    if weights.soften_edges:
        s_in = soften(student, weights.tau)
        with ad.no_grad():
            t_probs = soften(teacher, weights.tau)
        t_in = t_probs
    else:
        s_in, t_in = student, teacher

    e_s_isv = build_isv_edges(s_in)
    e_s_icv = build_icv_edges(s_in)
    with ad.no_grad():
        e_t_isv = build_isv_edges(t_in)
        e_t_icv = build_icv_edges(t_in)

    if masks is None:
        mask_isv, mask_icv = uep_masks_for(student, weights)
    else:
        mask_isv, mask_icv = masks

    isv, kept_isv = _masked_edge_loss(
        e_s_isv, e_t_isv, mask_isv, weights.huber_delta, weights.reduction, weights.metric)
    icv, kept_icv = _masked_edge_loss(
        e_s_icv, e_t_icv, mask_icv, weights.huber_delta, weights.reduction, weights.metric)

    total = ce_real + ce_virtual + isv * weights.alpha + icv * weights.beta

    vertex = None
    if weights.vertex_weight > 0:
        vertex = (ad.huber(s_in.real, t_in.real.detach(), weights.huber_delta).mean()
                  + ad.huber(s_in.virtual, t_in.virtual.detach(), weights.huber_delta).mean())
        total = total + vertex * weights.vertex_weight

    return LossBreakdown(total, ce_real, ce_virtual, isv, icv, kept_isv, kept_icv, vertex)


def im_kd_parts(student: LogitBatch, teacher: LogitBatch, labels,
                tau: float = 4.0, weight: float = 1.0) -> dict:
    """Components of the instance-matching objective: label CE on both
    views plus the softened KL divergence to the teacher, view-averaged."""
    if student.softened or teacher.softened:
        raise InputError("instance matching expects raw logits")
    teacher = teacher.detach()
    labels = np.asarray(labels)
    ce_real = ad.cross_entropy(student.real, labels)
    ce_virtual = ad.cross_entropy(student.virtual, labels)
    kl = (ad.kld(teacher.real, student.real, tau)
          + ad.kld(teacher.virtual, student.virtual, tau)) * 0.5
    total = ce_real + ce_virtual + kl * weight
    return {"total": total, "ce_real": ce_real, "ce_virtual": ce_virtual, "kld": kl}


def im_kd_loss(student: LogitBatch, teacher: LogitBatch, labels,
               tau: float = 4.0, weight: float = 1.0) -> Tensor:
    """Scalar instance-matching objective (see :func:`im_kd_parts`)."""
    return im_kd_parts(student, teacher, labels, tau, weight)["total"]
