"""Reference relation encoders for head-to-head comparison with the
edge-tensor objective: inner-product Gram matrices (SP, Tung & Mori 2019)
and third-order angular relations (RKD, Park et al. 2019).  The ``gram``
and ``angular`` training objectives match them with the Huber metric."""
from __future__ import annotations

from . import autodiff as ad
from .autodiff import Tensor, _coerce
from .errors import InputError
from .graphs import build_inter_sample_edges


def gram_inter_sample(Z) -> Tensor:
    """Row-cosine Gram matrix [B, B]: unit-normalize each row, then the
    inner product of every pair.  Zero rows stay zero (diagonal 0)."""
    z = _coerce(Z)
    if z.ndim != 2 or z.shape[0] < 2:
        raise InputError("gram_inter_sample needs a [B >= 2, C] matrix")
    zn = ad.l2_normalize(z, axis=1)
    return zn @ zn.T


def gram_inter_class(Z) -> Tensor:
    """Column analog of :func:`gram_inter_sample`, shape [C, C]."""
    z = _coerce(Z)
    if z.ndim != 2 or z.shape[1] < 2:
        raise InputError("gram_inter_class needs a [B, C >= 2] matrix")
    zn = ad.l2_normalize(z, axis=0)
    return zn.T @ zn


def angular_relations(Z) -> Tensor:
    """Third-order relations [B, B, B]: entry (i, j, k) is the cosine of
    the angle at vertex j spanned by the differences Z_i - Z_j and
    Z_k - Z_j.  Degenerate (zero) differences contribute cosine 0."""
    z = _coerce(Z)
    if z.ndim != 2 or z.shape[0] < 3:
        raise InputError("angular relations need at least 3 samples")
    b, c = z.shape
    # unit difference vectors e[i, j] = unit(Z_i - Z_j), zero on the diagonal
    e = build_inter_sample_edges(z).values
    left = e.reshape(b, b, 1, c)
    right = e.transpose((1, 0, 2)).reshape(1, b, b, c)
    return (left * right).sum(axis=3)
