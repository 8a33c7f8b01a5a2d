"""Unreliable-edge pruning via a joint-entropy percentile criterion.

An edge is kept while the entropy of the equal-weight mixture of its two
endpoint distributions stays at or below the m-th percentile of the
current batch.  The mixture entropy grows with the discrepancy between
the endpoints and collapses to their individual entropy when they agree,
so it scores both relative and absolute uncertainty of a relation.

Masks are recomputed from student predictions every iteration and are
constants for gradient purposes: nothing differentiates through their
construction.  Only the rank of each entry matters, so the ISV mask of a
batch whose grid spans several row blocks is taken from a float32 grid,
with the entries near the cutoff recomputed in float64 (see
:func:`_screened_mask`); the mask and its threshold are the float64
grid's, bit for bit.
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


def _nearest_rank(m: float, n: int) -> int:
    """The 1-based nearest-rank index ceil(m/100 * n), in exact integer
    arithmetic on m's ratio: m/100 * n in floating point can land just
    above an integer (m = 55, n = 100 gives 55.00000000000001)."""
    num, den = float(m).as_integer_ratio()
    return -(-num * n // (100 * den))


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
    return _mixture_entropy_grid(*_grid_inputs(batch, kind))


def _grid_inputs(batch: LogitBatch, kind: str):
    """The distributions (P, Q) whose :func:`_mixture_entropy_grid` is the
    ``kind`` joint-entropy matrix of ``batch``."""
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
        return real, virt
    # class columns are not distributions; normalize each over the batch
    return _batch_softmax(real).T, _batch_softmax(virt).T


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

    ``JE`` is a joint-entropy matrix, finite and 2-D (else InputError), or
    a softened batch whose ``kind`` matrix is meant: its ISV mask comes from
    :func:`_screened_mask` when the float64 grid spans more than one row
    block, and equals the matrix's mask bit for bit.
    """
    if not 0.0 < m <= 100.0:
        raise ParameterError("percentile must lie in (0, 100]")
    if isinstance(JE, LogitBatch):
        P, Q = _grid_inputs(JE, kind)
        # not ICV: batch-softmaxed class columns are near uniform, so their
        # entries span a few e and nearly all would land in the band; and
        # not a grid of one row block, which costs about what the screen does
        if kind == "ISV" and len(_row_blocks(len(Q), P.size)) > 1:
            screened = _screened_mask(P, Q, _nearest_rank(m, len(P) * len(Q)))
            if screened is not None:
                return EdgeMask(kind, screened[0], m, screened[1])
        JE = _mixture_entropy_grid(P, Q)
    je = np.asarray(JE, dtype=float)
    if je.size == 0:
        raise InputError("empty joint-entropy matrix")
    if je.ndim != 2 or not np.isfinite(je).all():
        raise InputError("joint-entropy matrix must be finite and 2-D")
    rank = _nearest_rank(m, je.size)
    threshold = np.partition(je, rank - 1, axis=None)[rank - 1]
    return EdgeMask(kind, je <= threshold, m, float(threshold))


# np.log is taken to lie within this many ulp, in float32 and float64
# (numpy documents at most 3.83 for its SIMD float32 log)
_LOG_ULPS = 16


def _screen_error(c: int) -> float:
    """A bound e on |JE32 - JE64| for each entry, JE32 the float32 grid
    of :func:`_entropy_grid32` and JE64 :func:`_mixture_entropy_grid`'s,
    on rows of C = ``c`` classes.

    **Model.**  p = P[j] and q = Q[i] are float64 rows of nonnegative
    entries summing to within 1e-9 of 1, so m = (p + q)/2 has S = sum m
    < 1 + 2^-10, no entry of m exceeds 1 by more than 1e-9, and A = sum m
    |log m| < log C + 2^-10 (the entropy of m is at most S log(C/S)).  The
    screen runs only when every float32 cast p^, q^ is at least 2^-126,
    so each float32 value below is normal and rounds within u = 2^-24,
    relatively.

    * Casts, add, halving: p^ + q^ = (p + q)(1 + th), |th| <= u, as both
      are positive; the add rounds once more and the halving is exact,
      so m^ = m (1 + eps), |eps| <= 2u + u^2, and log m^ is within
      2u + O(u^2) of log m.
    * Log: np.log(m^) is taken within 16 ulp of log m^, or of 32u
      absolute where log m^ is near 0: |eta| <= 32u (|log m^| + 1).  So
      |m^ log^(m^) - m log m| <= 34u m |log m| + 34u m.
    * Products and fiber sum: ``np.einsum`` rounds the C products (or
      fuses them into the adds) and adds them in an order numpy leaves
      open; either way the result is within gamma_C = Cu / (1 - Cu) of
      the sum of the products' moduli, about A.

    So |JE32 - H| <= (34u + gamma_C) A + 34u S, H the exact mixture
    entropy, and the float64 grid is within the same with u = 2^-53 (its
    products and pairwise fiber sum fall under the same two steps).  e
    is their sum at the largest A and S, doubled to cover the
    second-order terms and the rounding of the band's edges.
    """
    def side(u):
        k = (2 * _LOG_ULPS + 2) * u
        a, s = math.log(c) + 2.0 ** -10, 1.0 + 2.0 ** -10
        return (k + c * u / (1.0 - c * u)) * a + k * s

    return 2.0 * (side(2.0 ** -24) + side(2.0 ** -53))


def _entropy_grid32(P32, Q32):
    """The [len(Q), len(P)] mixture-entropy grid in float32, from float32
    P, Q: each row block of Q is laid out [rows, C, len(P)], so numpy's
    inner loops run over len(P), and summed over the class axis."""
    PT = np.ascontiguousarray(P32.T)
    blocks = _row_blocks(len(Q32), P32.size)
    mix = np.empty((blocks[0].stop,) + PT.shape, dtype=np.float32)
    log = np.empty_like(mix)
    je = np.empty((len(Q32), len(P32)), dtype=np.float32)
    for rows in blocks:
        m, t = mix[:rows.stop - rows.start], log[:rows.stop - rows.start]
        np.add(PT, Q32[rows, :, None], out=m)
        m *= np.float32(0.5)
        np.log(m, out=t)
        np.einsum("rkj,rkj->rj", m, t, out=je[rows])
    return np.negative(je, out=je)


def _exact_entries(P, Q, rows, cols):
    """``_mixture_entropy_grid(P, Q)[np.ix_(rows, cols)]``, bit for bit.
    Each entry sums its own fiber, in an order set by the memory layout,
    so the rows of P and Q are gathered in their own layouts.  For
    C-contiguous P and Q (the ISV rows) each fiber is a contiguous last
    axis wherever it sits, so any rows and columns reproduce the grid.
    The transposed ICV P has strided fibers, which numpy adds in order,
    and a contiguous copy of it would add them pairwise (4e-15 apart);
    a lone fiber, a 1 x 1 sub-grid, is contiguous and added pairwise too.
    """
    def gather(X, idx):
        return np.take(X, idx, axis=0, out=np.empty_like(X[:len(idx)]))

    return _mixture_entropy_grid(gather(P, cols), gather(Q, rows))


def _screened_mask(P, Q, rank):
    """The keep matrix and threshold of the float64 grid of P, Q at
    nearest rank ``rank``, from the float32 grid; None when a float32
    input falls below 2^-126 (see :func:`_screen_error`)."""
    P32, Q32 = P.astype(np.float32), Q.astype(np.float32)
    if not min(P32.min(), Q32.min()) >= np.finfo(np.float32).tiny:
        return None
    return _band_select(_entropy_grid32(P32, Q32), _screen_error(P.shape[1]), rank,
                        lambda rows, cols: _exact_entries(P, Q, rows, cols))


def _band_select(approx, err, rank, exact):
    """The keep matrix and the rank-th smallest value of a grid X, given
    ``approx`` within ``err`` of X entrywise and ``exact(rows, cols)``,
    which returns X[np.ix_(rows, cols)].

    The rank-th smallest c of ``approx`` is within ``err`` of X's, x*.
    An entry with approx < c - 2 err has X < x*, so it is kept; one with
    approx > c + 2 err has X > x*, so it is pruned.  x* is an entry of
    neither, so it is the (rank - below)-th smallest X of the entries in
    the band between, which are taken exactly.
    """
    approx = np.asarray(approx, dtype=float)
    c = np.partition(approx, rank - 1, axis=None)[rank - 1]
    keep = approx < c - 2.0 * err
    band = ~keep & (approx <= c + 2.0 * err)
    rows, cols = np.flatnonzero(band.any(axis=1)), np.flatnonzero(band.any(axis=0))
    sub = np.ix_(rows, cols)
    x = exact(rows, cols)
    k = rank - int(keep.sum())
    threshold = np.partition(x[band[sub]], k - 1)[k - 1]
    keep[sub] = x <= threshold
    return keep, float(threshold)


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
