"""The full training objective: masked Huber matching of cross-view
edges between teacher and student, plus label supervision on both views.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InputError, ParameterError, UsageError, require_finite
from .graphs import (
    EdgeTensor,
    LogitBatch,
    _icv_fibers,
    _icv_grad,
    _isv_fibers,
    _isv_grad,
    build_icv_edges,
    build_isv_edges,
    soften,
)
# the objective builds no edges and applies no mask product itself;
# build_isv_edges, build_icv_edges and apply_mask stay bound here because
# the benchmark's tracer wraps the step's helpers by name
from .pruning import EdgeMask, apply_mask, joint_entropy_matrix, pruned_fibers, uep_mask


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
    kept, pruned = _kept_fibers(e_s.kind, e_s.values.shape, mask)
    if kept * e_s.fiber_length == 0:
        return Tensor(0.0), kept
    scale = 1.0 / (kept * e_s.fiber_length)
    return _edge_loss(e_s.values, e_t.values.data, pruned, delta, scale), kept


def _kept_fibers(kind: str, shape, mask: EdgeMask | None):
    """The number of fibers ``mask`` keeps of edges of ``shape`` (all of
    them without a mask) and the indices of the pruned ones, None when
    there are none.  Warns when every fiber is pruned."""
    if mask is None:
        return shape[0] * shape[1], None
    pruned = pruned_fibers(mask, kind, shape[:2])
    kept = mask.kept_count
    if kept == 0:
        warnings.warn(f"all {kind} edges pruned; relation loss is zero this step",
                      RuntimeWarning, stacklevel=4)
    return kept, pruned if len(pruned[0]) else None


def _block_fixups(pruned, blocks):
    """The pruned fibers of each row block, indexed within the block, or
    None for a block that has none; ``pruned`` is row-major."""
    if pruned is None:
        return [None] * len(blocks)
    if len(blocks) == 1:
        return [pruned]
    rows, cols = pruned
    cuts = np.searchsorted(rows, [r.start for r in blocks] + [blocks[-1].stop])
    return [(rows[lo:hi] - r.start, cols[lo:hi]) if hi > lo else None
            for r, lo, hi in zip(blocks, cuts[:-1], cuts[1:])]


def _huber_rows(s, t, pruned, delta: float, elem, slope) -> None:
    """The Huber penalty of the residual s - t into ``elem`` and its
    slope into ``slope``, with the arithmetic of the composite of
    apply_mask, huber and its clipped slope.

    The 0/1 mask product changes no kept residual, and gives the pruned
    fibers s*0 - t*0, a signed zero; those few fibers are fixed up after
    one contiguous subtraction.  Likewise every entry gets 0.5 r^2, and
    the few past ``delta`` (about 1 in 10^4) are then overwritten with
    delta (|r| - delta/2) and their slope clipped to +-delta, the only
    entries a clip would change.  ``elem`` and ``slope`` are dense and
    share one layout, so their memory-order ravels are views that index
    the same entries.
    """
    if pruned is not None:
        # formed first: ``t`` may be ``slope`` itself
        zeros = s[pruned] * 0.0 - t[pruned] * 0.0
    np.subtract(s, t, out=slope)
    if pruned is not None:
        slope[pruned] = zeros
    e, r = elem.ravel("K"), slope.ravel("K")
    np.abs(r, out=e)
    linear = np.flatnonzero(e > delta)
    np.multiply(r, 0.5, out=e)
    e *= r
    if len(linear):
        past = r[linear]
        e[linear] = (np.abs(past) - 0.5 * delta) * delta
        r[linear] = np.clip(past, -delta, delta)


def _edge_loss(values_s: Tensor, values_t, pruned, delta: float, scale: float) -> Tensor:
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
    # the same order
    elem = np.empty_like(s)
    slope = np.empty_like(s)
    _huber_rows(s, values_t, pruned, delta, elem, slope)
    out = np.asarray(elem.sum()) * scale

    def grad_fn(g):
        # the composite spreads g over a C-ordered buffer before the
        # product; the layout fixes the order of later fiber-axis sums.
        # It then multiplies by the 0/1 weights, which changes no bit: the
        # slope is already a signed zero wherever a weight is 0
        return (np.multiply(g * scale, slope, order="C"),)

    return ad._result(out, (values_s,), grad_fn, "masked_edge_loss")


def isv_edge_loss(student: LogitBatch, teacher: LogitBatch, mask: EdgeMask | None,
                  delta: float) -> tuple[Tensor, int]:
    """The ISV term of the objective as one tape node, from both models'
    softened views to the masked Huber loss.  Returns (scalar, kept_count).

    It is :func:`build_isv_edges` of both batches followed by the masked
    edge loss, run together through the row blocks of the ISV builder:
    each block computes the student's fibers into the saved edges, the
    teacher's into the block's rows of the slope buffer and then the
    block's penalty into a block-sized scratch buffer while all are in
    cache, so neither the teacher's [B, B, C] edges nor a full-size
    penalty ever exist.  The arithmetic and the layouts are those of the
    separate nodes, and :func:`autodiff._blocked_sum` adds the penalties
    as one sum over the whole tensor does, so the value and the view
    gradients are bit-identical to theirs.  Any non-finite fiber, the
    student's or the teacher's, makes the loss non-finite, so one check of
    the loss covers them all.
    """
    if student.real.shape != teacher.real.shape:
        raise UsageError("student and teacher shapes differ")
    b, c = student.real.shape
    kept, pruned = _kept_fibers("ISV", (b, b), mask)
    if kept * c == 0:
        return Tensor(0.0), kept
    scale = 1.0 / (kept * c)
    s_real, s_virtual = student.real.data, student.virtual.data
    t_real, t_virtual = teacher.real.data, teacher.virtual.data
    blocks = ad._row_blocks(b, b * c)
    y = np.empty((b, b, c))
    n_safe = np.empty((b, b, 1))
    live = np.empty((b, b, 1), dtype=bool)
    slope = np.empty_like(y)
    scratch = np.empty((blocks[0].stop, b, c))

    def penalties():
        for rows, fixups in zip(blocks, _block_fixups(pruned, blocks)):
            # the scratch holds the views' differences until the penalty
            # overwrites them, and the block's rows of slope the teacher's fibers
            e, r = scratch[:rows.stop - rows.start], slope[rows]
            _, n_safe[rows], live[rows] = _isv_fibers(s_real, s_virtual[rows], y[rows], e)
            t, _, _ = _isv_fibers(t_real, t_virtual[rows], r, e)
            _huber_rows(y[rows], t, fixups, delta, e, r)
            yield e.ravel()

    out = np.asarray(ad._blocked_sum(penalties(), b * b * c)) * scale

    def grad_fn(g):
        g = g * scale
        g_buf = np.empty((blocks[0].stop, b, c))

        def g_rows(rows):
            # the separate loss node formed g * slope over the whole tensor
            # before the builder's backward read it block by block
            return np.multiply(g, slope[rows], out=g_buf[:rows.stop - rows.start])

        return _isv_grad(g_rows, y, n_safe, live, blocks)

    return ad._result(out, (student.real, student.virtual), grad_fn, "isv_edge_loss"), kept


def icv_edge_loss(student: LogitBatch, teacher: LogitBatch, mask: EdgeMask | None,
                  delta: float) -> tuple[Tensor, int]:
    """The ICV term of the objective as one tape node, from both models'
    softened views to the masked Huber loss.  Returns (scalar, kept_count).

    It is :func:`build_icv_edges` of both batches followed by the masked
    edge loss, on their array layouts: [B, C, C] buffers viewed as
    [C, C, B] edges.  The student's fibers are saved, the teacher's are
    written into the slope buffer, and the student's difference buffer
    takes the penalty, so the teacher's edges never exist on their own.
    The norm and penalty sums run in the same memory order and the
    backward forms the same C-ordered ``g * slope``, so the value and the
    view gradients are bit-identical to the separate nodes'.  As in
    :func:`isv_edge_loss`, one check of the loss covers every fiber.
    """
    if student.real.shape != teacher.real.shape:
        raise UsageError("student and teacher shapes differ")
    b, c = student.real.shape
    if c < 2:
        raise InputError("inter-class edges need at least 2 classes")
    kept, pruned = _kept_fibers("ICV", (c, c), mask)
    if kept * b == 0:
        return Tensor(0.0), kept
    scale = 1.0 / (kept * b)
    diff = np.empty((b, c, c))
    y, n_safe, live = _icv_fibers(student.real.data, student.virtual.data, scratch=diff)
    # the teacher's fibers, until the penalty turns them into its slope
    slope = _icv_fibers(teacher.real.data, teacher.virtual.data, np.empty_like(diff), diff)[0]
    elem = diff.transpose(1, 2, 0)
    _huber_rows(y, slope, pruned, delta, elem, slope)
    out = np.asarray(elem.sum()) * scale

    def grad_fn(g):
        # the separate loss node spread g over a C-ordered buffer, whose
        # layout fixes the order of the builder's fiber-axis sums
        return _icv_grad(np.multiply(g * scale, slope, order="C"), y, n_safe, live)

    return ad._result(out, (student.real, student.virtual), grad_fn, "icv_edge_loss"), kept


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

    isv, kept_isv = isv_edge_loss(s_in, t_in, masks[0], weights.huber_delta)
    icv, kept_icv = icv_edge_loss(s_in, t_in, masks[1], weights.huber_delta)

    total = ce_real + ce_virtual + isv * weights.alpha + icv * weights.beta
    return LossBreakdown(total, ce_real, ce_virtual, isv, icv, kept_isv, kept_icv)
