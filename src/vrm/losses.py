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
# the objective builds no edges itself; build_isv_edges and build_icv_edges
# stay bound here because the benchmark's tracer wraps the step's helpers by name
from .graphs import EdgeTensor, LogitBatch, build_icv_edges, build_isv_edges, soften
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
                      delta: float) -> Tensor:
    """The body of both edge losses, a composite of tape ops: the Huber
    penalty of the masked student edges against the masked, detached
    teacher edges, averaged over the elements of the kept fibers."""
    if e_s.kind != e_t.kind:
        raise UsageError("student and teacher edge kinds differ")
    if e_s.values.shape != e_t.values.shape:
        raise UsageError("student and teacher edge shapes differ")
    kept, _ = _kept_fibers(e_s.kind, e_s.values.shape, mask)
    if kept * e_s.fiber_length == 0:
        return Tensor(0.0)
    s, t = e_s.values, e_t.values.detach()
    if mask is not None:
        s = apply_mask(e_s, mask)
        t = apply_mask(EdgeTensor(e_t.kind, t), mask)
    return ad.huber(s, t, delta).sum() * (1.0 / (kept * e_s.fiber_length))


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


def _isv_fibers(real, virtual_rows, out, scratch=None):
    """The ISV fibers of some virtual-view rows against every real-view
    row, written to ``out``, plus the state :func:`_isv_grad` needs; the
    differences go to ``scratch`` when given, a C-ordered buffer of
    ``out``'s shape.  The arithmetic is that of :func:`build_isv_edges`
    on those rows."""
    b, c = real.shape
    x = np.subtract(real.reshape(1, b, c), virtual_rows.reshape(-1, 1, c), out=scratch)
    return ad._unit_fibers(x, 2, out=out)


def _isv_grad(g_rows, y, n_safe, live, blocks):
    """The [B, C] gradients of the real and virtual views from ISV fibers
    ``y`` saved in row ``blocks``; ``g_rows(rows)`` gives the gradient of
    the fibers of one block.

    The virtual view's gradient sums each row on its own; the real
    view's, a sum over rows, keeps its running total in row 0 of the block
    buffer, so it adds the rows in the order one ``sum(axis=0)`` over the
    whole tensor does, as the backward of :func:`build_isv_edges` does.
    """
    b, _, c = y.shape
    g_virtual = np.empty((b, c))
    buf = np.empty((1 + blocks[0].stop, b, c))
    for k, rows in enumerate(blocks):
        n = rows.stop - rows.start
        gx = ad._unit_fibers_grad(g_rows(rows), y[rows], n_safe[rows], live[rows], 2,
                                  out=buf[1:1 + n])
        g_virtual[rows] = gx.sum(axis=1)
        buf[0] = buf[1 if k == 0 else 0:1 + n].sum(axis=0)
    return buf[0].copy(), -g_virtual


def isv_edge_loss(student: LogitBatch, teacher: LogitBatch, mask: EdgeMask | None,
                  delta: float) -> tuple[Tensor, int]:
    """The ISV term of the objective as one tape node, from both models'
    softened views to the masked Huber loss.  Returns (scalar, kept_count).

    It is :func:`build_isv_edges` of both batches followed by
    :func:`loss_isv`, run together through row blocks of virtual-view
    samples (:func:`autodiff._row_blocks`): each block computes the
    student's fibers into the saved edges, the teacher's into the block's
    rows of the slope buffer and then the block's penalty into a
    block-sized scratch buffer while all are in cache, so neither the
    teacher's [B, B, C] edges nor a full-size penalty ever exist.  The
    arithmetic and the layouts are the composite's, and
    :func:`autodiff._blocked_sum` adds the penalties as one sum over the
    whole tensor does, so the value and the view gradients are
    bit-identical to it.  Any non-finite fiber, the
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
            # the composite forms g * slope over the whole tensor before
            # the l2_normalize backward reads it block by block
            return np.multiply(g, slope[rows], out=g_buf[:rows.stop - rows.start])

        return _isv_grad(g_rows, y, n_safe, live, blocks)

    return ad._result(out, (student.real, student.virtual), grad_fn, "isv_edge_loss"), kept


def _icv_fibers(real, virtual, out=None, scratch=None):
    """The ICV fibers of two [B, C] views, plus the state :func:`_icv_grad`
    needs.  As in :func:`build_icv_edges`, their [B, C, C] difference
    (written to ``scratch`` when given) is normalized through its [C, C, B]
    view, into ``out`` when given, a C-ordered [B, C, C] buffer."""
    b, c = real.shape
    x = np.subtract(real.reshape(b, 1, c), virtual.reshape(b, c, 1), out=scratch)
    return ad._unit_fibers(x.transpose(1, 2, 0), 2,
                           out=None if out is None else out.transpose(1, 2, 0))


def _icv_grad(g, y, n_safe, live):
    """The [B, C] gradients of the real and virtual views from the
    gradient ``g`` of the ICV fibers ``y``: the l2_normalize rule, on the
    array layouts of the backward of :func:`build_icv_edges`."""
    # each view's gradient sums the broadcast difference over the axis
    # only the other view varies along
    g_diff = ad._unit_fibers_grad(g, y, n_safe, live, 2).transpose(2, 0, 1)
    return g_diff.sum(axis=1), -g_diff.sum(axis=2)


def icv_edge_loss(student: LogitBatch, teacher: LogitBatch, mask: EdgeMask | None,
                  delta: float) -> tuple[Tensor, int]:
    """The ICV term of the objective as one tape node, from both models'
    softened views to the masked Huber loss.  Returns (scalar, kept_count).

    It is :func:`build_icv_edges` of both batches followed by
    :func:`loss_icv`, on their array layouts: [B, C, C] buffers viewed as
    [C, C, B] edges.  The student's fibers are saved, the teacher's are
    written into the slope buffer, and the student's difference buffer
    takes the penalty, so the teacher's edges never exist on their own.
    The norm and penalty sums run in the same memory order and the
    backward forms the same C-ordered ``g * slope``, so the value and the
    view gradients are bit-identical to the composite's.  As in
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
        # the composite spreads g over a C-ordered buffer, whose layout
        # fixes the order of the l2_normalize backward's fiber-axis sums
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
    return _masked_edge_loss(e_s, e_t, mask, delta)


def loss_icv(e_s: EdgeTensor, e_t: EdgeTensor, mask: EdgeMask | None = None,
             delta: float = 1.0) -> Tensor:
    """Huber penalty between student and teacher inter-class cross-view edges."""
    if e_s.kind != "ICV":
        raise UsageError("loss_icv expects ICV edges")
    return _masked_edge_loss(e_s, e_t, mask, delta)


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
