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
from .errors import InputError, NumericError, UsageError, check_fields
# the objective builds no edges itself; build_isv_edges and build_icv_edges
# stay bound here because the benchmark's tracer wraps the step's helpers by name
from .graphs import (EdgeTensor, LogitBatch, build_icv_edges, build_isv_edges, check_items,
                     relation_items, soften)
from .pruning import EdgeMask, apply_mask, check_fit, joint_entropy_matrix, uep_mask


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


def _masked_edge_loss(kind: str, e_s: EdgeTensor, e_t: EdgeTensor, mask: EdgeMask | None,
                      delta: float) -> Tensor:
    """The body of both edge losses, a composite of tape ops: the Huber
    penalty of the masked student edges against the masked, detached
    teacher edges, averaged over the elements of the kept fibers."""
    if not e_s.kind == e_t.kind == kind:
        raise UsageError(f"loss_{kind.lower()} expects {kind} edges of both models")
    if e_s.values.shape != e_t.values.shape:
        raise UsageError("student and teacher edge shapes differ")
    kept, _ = _kept_fibers(kind, e_s.values.shape, mask)
    if kept * e_s.fiber_length == 0:
        return Tensor(0.0)
    s, t = e_s.values, e_t.values.detach()
    if mask is not None:
        s = apply_mask(e_s, mask)
        t = apply_mask(EdgeTensor(kind, t), mask)
    return ad.huber(s, t, delta).sum() * (1.0 / (kept * e_s.fiber_length))


def _kept_fibers(kind: str, shape, mask: EdgeMask | None):
    """The number of fibers ``mask`` keeps of edges of ``shape`` (all of
    them without a mask) and its [n, n] keep matrix, None without a mask.
    Warns when every fiber is pruned."""
    if mask is None:
        return shape[0] * shape[1], None
    check_fit(mask, kind, shape[:2])
    if mask.kept_count == 0:
        warnings.warn(f"all {kind} edges pruned; relation loss is zero this step",
                      RuntimeWarning, stacklevel=4)
    return mask.kept_count, mask.keep


# c, the floor and the ceiling of a quadratic fiber, and the float32
# screen's slack on delta, 2 u32 (4 sqrt(2/c) + 7) (see _relation_term)
_CANCEL, _FLOOR, _CEIL = 2.0 ** -10, 2.0 ** -76, 2.0 ** 128
_SLACK = 2.0 ** -23 * (4.0 * math.sqrt(2.0 / _CANCEL) + 7.0)


def _cos_error(length):
    """e: the bound 4 gamma_(L+3) / c + 6u on the rounding error of cos of
    a quadratic fiber of length L (see _relation_term)."""
    u = 2.0 ** -53
    return 4.0 * (length + 3) * u / (1.0 - (length + 3) * u) / _CANCEL + 6.0 * u


def _cleared(cos, limit, length):
    """The fibers of cos that the L2 bound shows the screen cannot flag,
    sqrt(max(0, 2 - 2 cos + 2e)) <= T = limit - _SLACK, tested squared:
    cos >= 1 + e - T^2 / 2 while T >= 0, and none for T < 0; never a NaN
    cos.  Rounding that scalar moves the test by a few float64 ulps of 1 +
    T^2 / 2, far inside the _SLACK / 2 the bound leaves."""
    # in float64: a float32 limit would round limit - _SLACK
    threshold = float(limit) - _SLACK
    if threshold < 0.0:
        return np.zeros(cos.shape, dtype=bool)
    return cos >= 1.0 + _cos_error(length) - 0.5 * threshold * threshold


def _gathered_screen(s, t, inv, fibers, limit):
    """The [n, n] boolean of the screened ``fibers`` (flat indices into
    the [n, n] grid) that have a component of y - u past ``limit``; no
    other fiber is flagged.  Fiber [i, j] of model b is (t[b, j] - s[b,
    i]) times inv[b, i, j], formed in float32 and gathered in parts of
    about ``ad._BLOCK_BYTES``."""
    n, length = s.shape[1:]
    # rows past float32's range become inf; only fibers not screened hold them
    with np.errstate(over="ignore"):
        s, t = s.astype(np.float32), t.astype(np.float32)
    inv = np.take(inv.reshape(2, -1), fibers, axis=1).astype(np.float32)[..., None]
    step = max(1, ad._BLOCK_BYTES // (8 * length))
    grid = np.empty((2, 2, min(step, len(fibers)), length), dtype=np.float32)
    flagged = np.zeros(n * n, dtype=bool)
    for lo in range(0, len(fibers), step):
        part = fibers[lo:lo + step]
        rows, cols = np.divmod(part, n)
        d, s_part = grid[:, :, :len(part)]
        # the indices are in range; mode="raise" would buffer the output
        np.take(t, cols, axis=1, out=d, mode="clip")
        np.take(s, rows, axis=1, out=s_part, mode="clip")
        # each model's fiber t - s times inv, then |y - u| of the two
        d -= s_part
        d *= inv[:, lo:lo + step]
        y = np.abs(np.subtract(d[0], d[1], out=d[0]), out=d[0])
        flagged[part[np.flatnonzero(y > limit) // length]] = True
    return flagged.reshape(n, n)


def _quadratic(R, V, P, N, keep):
    """The fibers of rows R, V, P, N (see :func:`_relation_term`): each
    model's i side s and j side t, fiber [b, i, j] = t[b, j] - s[b, i];
    the [n, n] quadratic fibers ``keep`` keeps (all for None); inv, 1/ns
    and 1/nt on them, else 0; and cos, the cross dot times both."""
    s, t = np.stack((V, N)), np.stack((R, P))
    sq = np.einsum("bij,bij->bi", s, s)[:, :, None] + np.einsum("bij,bij->bi", t, t)[:, None]
    n2 = sq - 2.0 * (s @ t.transpose(0, 2, 1))
    quad = ((n2 > _CANCEL * sq) & (n2 > _FLOOR) & (sq < _CEIL)).all(axis=0)
    if keep is not None:
        quad &= keep
    inv = quad / np.sqrt(np.where(quad, n2, 1.0))
    del sq, n2
    # D_s . D_t = r.rho + v.nu - r.nu - v.rho
    cos = np.einsum("ij,ij->i", V, N)[:, None] + np.einsum("ij,ij->i", R, P)
    cos -= (s @ t[::-1].transpose(0, 2, 1)).sum(axis=0)
    cos *= inv[0]
    cos *= inv[1]
    return s, t, quad, inv, cos


def _screen_limit(delta):
    """The float32 screen's limit, delta (1 - 2^-22) - _SLACK."""
    return np.float32(delta * (1.0 - 2.0 ** -22) - _SLACK)


def _relation_term(op, R, V, P, N, keep, delta: float, scale: float, g):
    """The penalty sum of the relation term ``op`` and, unless ``g`` is
    None, the gradients for upstream gradient ``g`` of the student's rows
    R, V.  Fiber [i, j] pairs D_s = R[j] - V[i] with the teacher's D_t =
    P[j] - N[i]; the sum runs over the fibers ``keep`` keeps (all for
    None) of the Huber penalty of y - u, y and u the unit fibers of D_s
    and D_t.

    **Quadratic fibers.**  With no component of y - u past ``delta`` the
    penalty is 1 - cos, cos = y . u.  For r = R[j], v = V[i], rho = P[j],
    nu = N[i]: ns^2 = |r|^2 + |v|^2 - 2 r.v (nt^2 alike) and D_s . D_t =
    r.rho + v.nu - r.nu - v.rho, from row dots and [n, L] x [L, n]
    products.  With W = g scale K / (ns nt) and Z = W cos nt / ns (K the
    quadratic fibers), dR = -P colsum(W) + W^T N + R colsum(Z) - Z^T V and
    dV = W P - N rowsum(W) - Z R + V rowsum(Z).

    **Error.**  With u = 2^-53, gamma_k = k u / (1 - k u), a = |r|^2 +
    |v|^2 and kappa_s = a / ns^2 (A, kappa_t alike): a dot is within
    gamma_L of the sum of its terms' moduli, so ns^2 is within eps_s =
    2 gamma_(L+2) kappa_s of itself, relatively; the cross dot is within
    gamma_(L+3) (|r| + |v|)(|rho| + |nu|) <= 2 gamma_(L+3) sqrt(a A); so
    cos and 1 - cos are within e_f = 2 gamma_(L+3) (kappa_s + kappa_t) + 6u,
    to first order.  **c:** a fiber is quadratic only while ns^2 > c a and
    nt^2 > c A, so e_f < 4 gamma_(L+3) / c + 6u; c = 2^-10 keeps that under
    2^12 gamma_(L+3) and sent 0.7-2.5% of the fibers (near-duplicate rows)
    to the exact path at captured bench steps.  The test also catches
    norms lost to cancellation.  A quadratic fiber also needs ns^2 > 2^-76
    (ns > 3 eps, live in the composite) and a < 2^128 (rows fit float32).

    **The screen.**  Huber's linear branch needs |y_k - u_k| > delta.  In
    float32 (u32 = 2^-24) a component of D_s rounds within 2 u32 (|r_k| +
    |v_k|) <= 2 u32 sqrt(2 kappa_s) ns, so the computed |y_k - u_k| is
    within u32 (4 sqrt(2/c) + 7) of the truth.  Flagging components past
    delta (1 - margin), delta * margin = 2 u32 (4 sqrt(2/c) + 7) = 2.2e-5
    (the 2 covers second-order terms and the limit's rounding), flags
    every fiber with one past delta.

    **The L2 bound.**  No component of y - u exceeds |y - u|_2 = sqrt(2 -
    2 cos), and the computed cos is within e_f < e = 4 gamma_(L+3) / c + 6u
    of the true one (:func:`_cos_error`).  So a quadratic fiber with
    sqrt(max(0, 2 - 2 cos + 2e)) <= limit - _SLACK (:func:`_cleared`) has
    every float32 |y_k - u_k| within limit - _SLACK + _SLACK / 2 < limit,
    and the float64 rounding of the test is far inside the _SLACK / 2
    left (as are e_f's second-order terms): the screen cannot flag it.
    The screen then forms only the quadratic fibers left, gathered
    (:func:`_gathered_screen`), each with the bits it would get in a
    screen of every quadratic fiber.  A flagged fiber's cos becomes dot *
    0 * 0, sign kept, as when the screen ran before cos.

    Flagged fibers and kept fibers that are not quadratic get the
    composite's elementwise Huber on gathered [k, L] fibers, gradients
    scattered back with ``np.add.at``.  A kept fiber whose squared norm
    overflows (a non-finite one included) is not quadratic, and there
    raises NumericError naming ``op``, as ``l2_normalize`` does; every
    other fiber's penalty is finite.
    """
    length = R.shape[1]
    s, t, quad, inv, cos = _quadratic(R, V, P, N, keep)
    limit = _screen_limit(delta)
    # a flagged fiber leaves the quadratic path: cos = dot * 0 * 0, sign kept
    left = np.flatnonzero(quad & ~_cleared(cos, limit, length))
    if left.size:
        i, j = np.nonzero(_gathered_screen(s, t, inv, left, limit))
        quad[i, j] = False
        inv[:, i, j] = 0.0
        cos[i, j] *= 0.0
    total = np.subtract(quad, cos).sum()

    if g is not None:
        gs = g * scale
        # [-Z, W]: fiber [b, i, j] adds -c[b, i, j] (t[b, j] - s[b, i]) to its rows
        c = np.stack((cos * inv[0] * inv[0] * -gs, inv[0] * inv[1] * gs))
        d_real = (c.transpose(0, 2, 1) @ s - t * c.sum(axis=1)[:, :, None]).sum(axis=0)
        d_virtual = (c @ t - s * c.sum(axis=2)[:, :, None]).sum(axis=0)
        del c
    del cos, inv

    # the exact path, in parts of about ad._BLOCK_BYTES
    off = ~quad if keep is None else keep & ~quad
    if off.any():
        i, j = np.nonzero(off)
        step = max(1, ad._BLOCK_BYTES // (16 * length))
        for lo in range(0, len(i), step):
            rows, cols = i[lo:lo + step], j[lo:lo + step]
            y, n_safe, live = ad._unit_fibers(t[:, cols] - s[:, rows], 2)
            if not np.isfinite(n_safe).all():
                raise NumericError(f"{op} overflowed a squared norm")
            res = y[0] - y[1]
            slope = np.clip(res, -delta, delta)
            # 1/2 res^2 inside delta, delta (|res| - delta/2) past it
            total += (slope * (res - 0.5 * slope)).sum()
            if g is not None:
                gx = ad._unit_fibers_grad(gs * slope, y[0], n_safe[0], live[0], 1)
                np.add.at(d_real, cols, gx)
                np.add.at(d_virtual, rows, -gx)
    return total, None if g is None else (d_real, d_virtual)


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
    It is :func:`build_isv_edges` of both batches then :func:`loss_isv`:
    :func:`_relation_term` on the views' rows, fiber [i, j] = real[j] -
    virtual[i], with its view gradients formed in the forward for the
    expected ``upstream`` (the term's weight, see :func:`_term_node`)."""
    return _edge_term("ISV", student, teacher, mask, delta, upstream)


def icv_edge_loss(student: LogitBatch, teacher: LogitBatch, mask: EdgeMask | None,
                  delta: float, upstream: float = 1.0) -> tuple[Tensor, int]:
    """The ICV term, as :func:`isv_edge_loss` is the ISV one, from
    :func:`build_icv_edges` then :func:`loss_icv`: :func:`_relation_term`
    on the views' class columns (:func:`graphs.relation_items`), fiber
    [p, q] = real[:, q] - virtual[:, p], its two gradients handed back
    through the same call."""
    return _edge_term("ICV", student, teacher, mask, delta, upstream)


def _edge_term(kind, student: LogitBatch, teacher: LogitBatch, mask, delta, upstream):
    if student.real.shape != teacher.real.shape:
        raise UsageError("student and teacher shapes differ")
    rows = relation_items(kind, *(x.data for x in (student.real, student.virtual,
                                                   teacher.real, teacher.virtual)))
    check_items(kind, rows[0])
    n, length = rows[0].shape
    kept, keep = _kept_fibers(kind, (n, n), mask)
    if kept * length == 0:
        return Tensor(0.0), kept
    scale = 1.0 / (kept * length)
    op = f"{kind.lower()}_edge_loss"

    def run(g):
        total, grads = _relation_term(op, *rows, keep, delta, scale, g)
        return total, None if grads is None else relation_items(kind, *grads)

    return _term_node(run, scale, student, upstream, op), kept


def loss_isv(e_s: EdgeTensor, e_t: EdgeTensor, mask: EdgeMask | None = None,
             delta: float = 1.0) -> Tensor:
    """Huber penalty between student and teacher inter-sample cross-view edges.

    Gradients flow into the student edges only; teacher values are
    detached here even if the caller forgot to.
    """
    return _masked_edge_loss("ISV", e_s, e_t, mask, delta)


def loss_icv(e_s: EdgeTensor, e_t: EdgeTensor, mask: EdgeMask | None = None,
             delta: float = 1.0) -> Tensor:
    """Huber penalty between student and teacher inter-class cross-view edges."""
    return _masked_edge_loss("ICV", e_s, e_t, mask, delta)


def uep_masks_for(student: LogitBatch, weights: VRMWeights) -> tuple[EdgeMask, EdgeMask]:
    """Fresh retention masks from the student's current softened
    predictions; raw logits are softened with ``weights.tau`` first.
    Detached by construction: mask building never joins the tape."""
    with ad.no_grad():
        probs = student if student.softened else soften(student.detach(), weights.tau)
        # the batch itself lets uep_mask screen the ISV grid in float32
        m_isv = uep_mask(probs, weights.uep_percentile, "ISV")
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
