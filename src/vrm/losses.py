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
from .errors import InputError, UsageError, check_fields
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
        check_fields(vars(self), (
            ("alpha", 0 <= self.alpha < math.inf, "must be finite and nonnegative"),
            ("beta", 0 <= self.beta < math.inf, "must be finite and nonnegative"),
            ("tau", 0 < self.tau < math.inf, "must be finite and positive"),
            ("huber_delta", 0 < self.huber_delta < math.inf, "must be finite and positive"),
            ("uep_percentile", 0 < self.uep_percentile <= 100, "must lie in (0, 100]")))


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


def _isv_fibers(real, virtual_rows, out, scratch):
    """The ISV fibers of some virtual-view rows against every real-view
    row as :func:`build_isv_edges` computes them, written to ``out``, with
    the state their gradient needs; the differences go to ``scratch``."""
    b, c = real.shape
    x = np.subtract(real.reshape(1, b, c), virtual_rows.reshape(-1, 1, c), out=scratch)
    return ad._unit_fibers(x, 2, out=out)


def _term_node(run, scale, student: LogitBatch, upstream, op) -> Tensor:
    """The tape node of a fused edge term, whose ``run(g)`` gives the
    penalty sum and, unless ``g`` is None, both views' gradients for the
    upstream gradient ``g``.  The forward runs it for ``upstream`` when
    the node goes on the tape, so the node keeps only those gradients;
    the backward hands them out once, if its ``g`` has ``upstream``'s bytes
    (-0.0 is not +0.0), and reruns ``run`` otherwise."""
    views = (student.real, student.virtual)
    taped = ad._grad_enabled and any(v.requires_grad for v in views)
    total, saved = run(upstream if taped else None)

    def grad_fn(g):
        nonlocal saved
        grads, saved = saved, None
        if grads is None or np.float64(g).tobytes() != np.float64(upstream).tobytes():
            grads = run(g)[1]
        return grads

    return ad._result(np.asarray(total) * scale, views, grad_fn, op)


def isv_edge_loss(student: LogitBatch, teacher: LogitBatch, mask: EdgeMask | None,
                  delta: float, upstream: float = 1.0) -> tuple[Tensor, int]:
    """The ISV term of the objective as one tape node, from both models'
    softened views to the masked Huber loss.  Returns (scalar, kept_count).

    It is :func:`build_isv_edges` of both batches followed by
    :func:`loss_isv`, run together through row blocks of virtual-view
    samples (:func:`autodiff._row_blocks`).  While a block is in cache it
    gets both models' fibers, the penalty, its slope and, for the expected
    upstream gradient ``upstream`` (the term's weight in the objective,
    see :func:`_term_node`), its share of both view gradients, so no
    [B, B, C] array ever exists.  The arithmetic and the layouts are the
    composite's, and :func:`autodiff._blocked_sum` adds the penalties as
    one sum over the whole tensor does, so the value and the view
    gradients are bit-identical to it.  Any non-finite fiber, the
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
    fixups = _block_fixups(pruned, blocks)

    def run(g):
        # a block's student fibers; the teacher's, then the slope, then g
        # times it; and the views' differences, then the penalty
        y, r, e = (np.empty((blocks[0].stop, b, c)) for _ in range(3))
        if g is not None:
            g = g * scale
            g_virtual = np.empty((b, c))
            # the real view's gradient keeps its running total in row 0,
            # so it adds the rows in the order one sum(axis=0) over them does
            buf = np.empty((1 + blocks[0].stop, b, c))

        def penalties():
            for k, (rows, fix) in enumerate(zip(blocks, fixups)):
                n = rows.stop - rows.start
                y_k, r_k, e_k = y[:n], r[:n], e[:n]
                _, n_safe, live = _isv_fibers(s_real, s_virtual[rows], y_k, e_k)
                t, _, _ = _isv_fibers(t_real, t_virtual[rows], r_k, e_k)
                _huber_rows(y_k, t, fix, delta, e_k, r_k)
                if g is not None:
                    gx = ad._unit_fibers_grad(np.multiply(g, r_k, out=r_k), y_k, n_safe, live,
                                              2, out=buf[1:1 + n])
                    g_virtual[rows] = gx.sum(axis=1)
                    buf[0] = buf[1 if k == 0 else 0:1 + n].sum(axis=0)
                # last: the sum may stop drawing once it has the last block
                yield e_k.ravel()

        total = ad._blocked_sum(penalties(), b * b * c)
        return total, None if g is None else (buf[0].copy(), -g_virtual)

    return _term_node(run, scale, student, upstream, "isv_edge_loss"), kept


def _icv_fibers(real, virtual, scratch, out=None):
    """The ICV fibers of two [B, C] views, with the state their gradient
    needs.  As in :func:`build_icv_edges`, their [B, C, C] difference
    (written to ``scratch``) is normalized through its [C, C, B] view,
    into ``out`` when given, a C-ordered [B, C, C] buffer."""
    b, c = real.shape
    x = np.subtract(real.reshape(b, 1, c), virtual.reshape(b, c, 1), out=scratch)
    return ad._unit_fibers(x.transpose(1, 2, 0), 2,
                           out=None if out is None else out.transpose(1, 2, 0))


def icv_edge_loss(student: LogitBatch, teacher: LogitBatch, mask: EdgeMask | None,
                  delta: float, upstream: float = 1.0) -> tuple[Tensor, int]:
    """The ICV term of the objective as one tape node, from both models'
    softened views to the masked Huber loss.  Returns (scalar, kept_count).

    It is :func:`build_icv_edges` of both batches followed by
    :func:`loss_icv`, on their array layouts: [B, C, C] buffers viewed as
    [C, C, B] edges.  The teacher's fibers are written into the slope
    buffer and the student's difference buffer takes the penalty, so the
    teacher's edges never exist on their own.  For the expected upstream
    gradient (see :func:`_term_node`) those dead buffers then take g times
    the slope and its gradient, C-ordered like the composite's fresh
    temporaries, so every sum runs in the same order and the value and the
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
    s_real, s_virtual = student.real.data, student.virtual.data
    t_real, t_virtual = teacher.real.data, teacher.virtual.data

    def run(g):
        diff, t_buf = np.empty((b, c, c)), np.empty((b, c, c))
        y, n_safe, live = _icv_fibers(s_real, s_virtual, diff)
        # the teacher's fibers, until the penalty turns them into its slope
        slope = _icv_fibers(t_real, t_virtual, diff, t_buf)[0]
        elem = diff.transpose(1, 2, 0)
        _huber_rows(y, slope, pruned, delta, elem, slope)
        total = elem.sum()
        if g is None:
            return total, None
        g_slope = np.multiply(g * scale, slope, out=diff.reshape(c, c, b))
        # each view's gradient sums the broadcast difference over the axis
        # only the other view varies along
        g_diff = ad._unit_fibers_grad(g_slope, y, n_safe, live, 2,
                                      out=t_buf.reshape(c, c, b)).transpose(2, 0, 1)
        return total, (g_diff.sum(axis=1), -g_diff.sum(axis=2))

    return _term_node(run, scale, student, upstream, "icv_edge_loss"), kept


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

    # each term's weight is the gradient the backward passes it
    isv, kept_isv = isv_edge_loss(s_in, t_in, masks[0], weights.huber_delta, weights.alpha)
    icv, kept_icv = icv_edge_loss(s_in, t_in, masks[1], weights.huber_delta, weights.beta)

    total = ce_real + ce_virtual + isv * weights.alpha + icv * weights.beta
    return LossBreakdown(total, ce_real, ce_virtual, isv, icv, kept_isv, kept_icv)
