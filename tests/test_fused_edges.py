"""The fused ISV and ICV terms of the objective against the public
composites they replace; the public composites on their own (gradients,
empty batches, overflow); and the memory the fused terms take.

The reference is the public API: ``build_isv_edges`` / ``build_icv_edges``
build the edges from reshape, subtraction, transpose and l2_normalize, and
``loss_isv`` / ``loss_icv`` the loss from apply_mask, huber, sum and the
1/(kept * fiber length) scale.  The fused terms form the same quantities
from matrix products, so they must agree with the composite within the
rounding bound :func:`vrm.checks.term_bound` derives, in the loss and in
the gradients that reach the real and virtual views.
"""
import gc
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vrm import autodiff as ad
from vrm import checks, losses
from vrm.autodiff import Tensor, backward, finite_diff_check, row_slice
from vrm.checks import term_bound
from vrm.errors import InputError, NumericError, ParameterError
from vrm.graphs import (EdgeTensor, LogitBatch, build_icv_edges, build_isv_edges, relation_items,
                        soften)
from vrm.losses import VRMWeights, icv_edge_loss, isv_edge_loss, loss_icv, loss_isv, total_loss
from vrm.pruning import EdgeMask, uep_mask

BUILDERS = {"ISV": build_isv_edges, "ICV": build_icv_edges}
LOSSES = {"ISV": loss_isv, "ICV": loss_icv}
TERMS = {"ISV": isv_edge_loss, "ICV": icv_edge_loss}


# -- helpers -------------------------------------------------------------


def probs(rng, b, c):
    z = rng.standard_normal((b, c)) * 2.0
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def fiber_grid(kind, b, c):
    """The [n, n] grid of ``kind``'s fibers on [b, c] views."""
    n = len(relation_items(kind, np.empty((b, c)))[0])
    return n, n


def random_mask(rng, kind, shape, m):
    if m is None:
        return None
    je = rng.random(shape)
    return uep_mask(je, m, kind)


def assert_same_bits(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def assert_within_bound(kind, real, virtual, teacher, mask, fused, ref, k):
    """The loss and view gradients ``fused`` and ``ref`` of :func:`run_term`,
    differentiated through ``loss * k``, within the derived bound."""
    if mask is not None and mask.kept_count == 0:
        assert float(fused[0]) == float(ref[0]) == 0.0
        assert fused[1] is fused[2] is ref[1] is ref[2] is None
        return
    value_bound, g_real, g_virtual = term_bound(kind, LogitBatch(real, virtual), teacher, mask)
    assert abs(float(fused[0]) - float(ref[0])) <= value_bound(abs(float(ref[0])))
    assert (np.abs(fused[1] - ref[1]) <= abs(k) * g_real).all()
    assert (np.abs(fused[2] - ref[2]) <= abs(k) * g_virtual).all()


def run_term(kind, real, virtual, teacher, mask, delta, fused, upstream=1.0, k=1.0):
    """The ISV or ICV term and the gradients of both views through
    ``loss * k``: the fused node, told to expect the upstream gradient
    ``upstream``, or the reference, the public builder of the edges of both
    models followed by the public loss."""
    r = Tensor(real, requires_grad=True)
    v = Tensor(virtual, requires_grad=True)
    if fused:
        loss, _ = TERMS[kind](LogitBatch(r, v), teacher, mask, delta, upstream=upstream)
    else:
        loss = LOSSES[kind](BUILDERS[kind](LogitBatch(r, v)), BUILDERS[kind](teacher),
                            mask, delta)
    if loss.node is not None:
        backward(loss * k)
    return loss.data, r.grad, v.grad


# the weights total_loss multiplies the terms by, and so passes as upstream
UPSTREAM = {"ISV": VRMWeights().alpha, "ICV": VRMWeights().beta}


def check_term(rng, kind, b, c, m, delta=1.0, tied_rows=()):
    real = probs(rng, b, c)
    virtual = probs(rng, b, c)
    # a virtual row within 1e-14 of its real row makes the ISV fiber (i, i)
    # dead: below the norm floor, yet not zero until it is zeroed
    virtual[list(tied_rows)] = real[list(tied_rows)]
    virtual[list(tied_rows), 0] += 1e-14
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    mask = random_mask(rng, kind, fiber_grid(kind, b, c), m)
    upstream = UPSTREAM[kind]
    # k == upstream hands out the gradients the forward formed, another k
    # runs the term again
    for k in (upstream, upstream + 1.0):
        fused = run_term(kind, real, virtual, teacher, mask, delta, True, upstream, k)
        ref = run_term(kind, real, virtual, teacher, mask, delta, False, upstream, k)
        assert_within_bound(kind, real, virtual, teacher, mask, fused, ref, k)
    return real, virtual, teacher


# -- the fused terms against the public composites ---------------------------


# retention percentiles of the masks; None passes no mask
PERCENTILES = (50.0, 95.0, 100.0, None)
# B=131, C=24: the ISV term's screen runs in blocks of 10 rows, the last of
# which holds a single row
PARTIAL = (131, 24)
WIDE = (128, 32)

# pinned cases of the property below: kind, shape, m, delta, tie share,
# jitter, seed
TERM_ARGS = ("kind", "shape", "m", "delta", "ties", "jitter", "seed")
TERM_ROWS = [
    # small shapes, one per mask (the bench shape and the partial last block
    # of the screen are the examples after the property)
    *(("ICV", shape, m, 1.0, 0.0, 0.0, 8)
      for shape, m in zip([(2, 16), (16, 2), (7, 5), (13, 11)], PERCENTILES)),
    ("ISV", (2, 16), 95.0, 1.0, 0.0, 0.0, 7),
    ("ISV", (16, 2), None, 1.0, 0.0, 0.0, 7),
    # identical views (augmentation with n_ops=0): the diagonal fibers are
    # exact zeros, so the l2_normalize zero branch applies in both paths
    *((kind, (11, 7), m, 1.0, 1.0, 0.0, 12) for kind in ("ISV", "ICV") for m in PERCENTILES),
    # a small delta puts residuals on both branches of the Huber penalty
    *((kind, (9, 6), m, 0.05, 0.0, 0.0, 13) for kind in ("ISV", "ICV") for m in (50.0, None)),
    # views within 1e-14: dead fibers that are not zero
    ("ISV", PARTIAL, 95.0, 1.0, 0.3, 1e-14, 19),
    ("ICV", (16, 10), None, 1.0, 1.0, 1e-14, 19),
]


def pinned(rows):
    """Each of ``rows`` as an ``@example`` of the property."""
    def wrap(test):
        for row in rows:
            test = example(**dict(zip(TERM_ARGS, row)))(test)
        return test
    return wrap


@given(kind=st.sampled_from(["ISV", "ICV"]),
       shape=st.one_of(st.tuples(st.integers(2, 16), st.integers(2, 16)),
                       st.sampled_from([WIDE, PARTIAL])),
       m=st.sampled_from([*PERCENTILES, 0.0]),
       delta=st.sampled_from([0.05, 0.3, 1.0]),
       ties=st.sampled_from([0.0, 0.3, 1.0]),
       jitter=st.sampled_from([0.0, 1e-14, 1e-9]),
       seed=st.integers(0, 2**32 - 1))
@pinned(TERM_ROWS)
@settings(max_examples=80, deadline=None)
def test_term_matches_composite_within_the_bound(kind, shape, m, delta, ties, jitter, seed):
    """A term, a shape, a mask percentile (0 prunes every fiber, None passes
    no mask) and a delta, on views of which a share ``ties`` of rows agree,
    exactly or to ``jitter``: dead fibers and norms lost to cancellation."""
    b, c = shape
    rng = np.random.default_rng(seed)
    real, virtual = probs(rng, b, c), probs(rng, b, c)
    teacher = [probs(rng, b, c), probs(rng, b, c)]
    # tying every row makes the ICV fibers (p, p) dead or cancelled too
    tied = rng.random(b) < ties
    virtual[tied] = real[tied]
    teacher[1][tied[::-1]] = teacher[0][tied[::-1]]
    if jitter:
        virtual[tied] += rng.standard_normal((tied.sum(), c)) * jitter
    teacher = LogitBatch(*teacher)
    grid = fiber_grid(kind, b, c)
    mask = (EdgeMask(kind, np.zeros(grid, dtype=bool), 50.0, 0.0) if m == 0.0
            else random_mask(rng, kind, grid, m))
    upstream = UPSTREAM[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        # k == upstream hands out the gradients the forward formed, 2 runs
        # the term again
        for k in (upstream, 2.0):
            fused = run_term(kind, real, virtual, teacher, mask, delta, True, upstream, k)
            ref = run_term(kind, real, virtual, teacher, mask, delta, False, upstream, k)
            assert_within_bound(kind, real, virtual, teacher, mask, fused, ref, k)


@pytest.mark.parametrize("shape", [WIDE, PARTIAL, (7, 5)], ids=["128x32", "131x24", "7x5"])
@pytest.mark.parametrize("m", PERCENTILES, ids=["m50", "m95", "m100", "no-mask"])
def test_isv_term_matches_composite(shape, m):
    check_term(np.random.default_rng(30), "ISV", *shape, m)


@pytest.mark.parametrize("m", PERCENTILES, ids=["m50", "m95", "m100", "no-mask"])
def test_icv_term_matches_composite(m):
    rng = np.random.default_rng(40)
    for _ in range(4):
        b, c = (int(n) for n in rng.integers(2, 17, size=2))
        check_term(rng, "ICV", b, c, m)
    check_term(rng, "ICV", *WIDE, m)


def test_isv_rows_split_into_blocks_with_a_partial_last_block():
    b, c = PARTIAL
    blocks = ad._row_blocks(b, b * c)
    assert len(blocks) > 1 and blocks[0].stop - blocks[0].start == 10
    assert blocks[-1] == slice(130, 131)


@pytest.mark.parametrize("tied_rows", [(), (4,), (3, 71, 130), tuple(range(131))],
                         ids=["all-live", "one-block-dead", "three-blocks-dead",
                              "every-block-dead"])
def test_isv_term_with_dead_fibers(tied_rows):
    # dead diagonal fibers in no, one, three or every screen block of rows;
    # forward and backward must match the composite within the bound
    rng = np.random.default_rng(32)
    for m in (95.0, None):
        real, virtual, _ = check_term(rng, "ISV", *PARTIAL, m, tied_rows=tied_rows)
        # the tied rows, and only they, give dead diagonal fibers
        values = build_isv_edges(LogitBatch(real, virtual)).values.data
        dead = np.abs(values).sum(axis=2) == 0.0
        assert sorted(np.flatnonzero(dead.diagonal())) == sorted(tied_rows)


@pytest.mark.parametrize("kind,shape", [("ISV", PARTIAL), ("ISV", (7, 5)), ("ICV", (9, 6))],
                         ids=["ISV-131x24", "ISV-7x5", "ICV-9x6"])
def test_term_both_huber_branches(kind, shape):
    delta = 0.05
    rng = np.random.default_rng(31)
    for m in (95.0, None):
        real, virtual, teacher = check_term(rng, kind, *shape, m, delta)
        residual = (BUILDERS[kind](LogitBatch(real, virtual)).values.data
                    - BUILDERS[kind](teacher).values.data)
        assert (np.abs(residual) > delta).any() and (np.abs(residual) <= delta).any()


def test_isv_term_with_whole_rows_and_columns_pruned():
    # a view row whose fibers are all pruned gets a zero gradient
    rng = np.random.default_rng(37)
    b, c = 9, 6
    keep = rng.random((b, b)) < 0.7
    keep[2] = keep[5] = False
    keep[:, 4] = False
    mask = EdgeMask("ISV", keep, 70.0, 0.0)
    real, virtual = probs(rng, b, c), probs(rng, b, c)
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    for k in (1.0, 3.0):
        fused = run_term("ISV", real, virtual, teacher, mask, 1.0, True, 1.0, k)
        ref = run_term("ISV", real, virtual, teacher, mask, 1.0, False, 1.0, k)
        assert_within_bound("ISV", real, virtual, teacher, mask, fused, ref, k)
        assert not fused[2][[2, 5]].any() and not fused[1][4].any()


# -- the screen of the fused terms and the L2 bound before it ----------------


def screened_term(monkeypatch, kind, views, teacher, mask):
    """The term's loss and view gradients, and the number of fibers its
    screen formed and the flags it returned."""
    screen, screened = losses._gathered_screen, []

    def spy(s, t, inv, fibers, limit):
        screened.append((len(fibers), screen(s, t, inv, fibers, limit)))
        return screened[-1][1]

    monkeypatch.setattr(losses, "_gathered_screen", spy)
    upstream = UPSTREAM[kind]
    out = run_term(kind, views.real.data, views.virtual.data, teacher, mask, 1.0, True,
                   upstream, upstream)
    monkeypatch.setattr(losses, "_gathered_screen", screen)
    (count, flags), = screened
    return out, count, flags


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
@pytest.mark.parametrize("batch", ["near-converged", "first-step"])
def test_screen_paths_give_the_same_bits(monkeypatch, kind, batch):
    # a student near its teacher, where the L2 bound clears most fibers, and
    # a random one, as at a first step, where it clears almost none; the
    # term as it runs, then with the bound made to clear nothing
    rng = np.random.default_rng(49)
    b, c = PARTIAL
    logits = [4.0 * rng.standard_normal((b, c)) for _ in range(2)]
    student = [(x if batch == "near-converged" else 0.0) + 4.0 * rng.standard_normal((b, c))
               for x in logits]
    views, teacher = (soften(LogitBatch(*x), 4.0) for x in (student, logits))
    teacher = teacher.detach()
    mask = random_mask(rng, kind, fiber_grid(kind, b, c), 95.0)
    rows = relation_items(kind, *(x.data for x in (views.real, views.virtual, teacher.real,
                                                   teacher.virtual)))
    _, _, quad, _, cos = losses._quadratic(*rows, mask.keep)
    cleared = quad & losses._cleared(cos, losses._screen_limit(1.0), rows[0].shape[1])
    if batch == "near-converged":
        assert cleared.mean() > 0.6 and (quad & ~cleared).any()
    else:
        assert cleared.mean() < 0.01
    out, count, flags = screened_term(monkeypatch, kind, views, teacher, mask)
    monkeypatch.setattr(losses, "_cleared", lambda cos, limit, length: np.zeros(cos.shape, bool))
    every_out, every_count, every_flags = screened_term(monkeypatch, kind, views, teacher, mask)
    assert (count, every_count) == ((quad & ~cleared).sum(), quad.sum())
    assert_same_bits(flags, every_flags)
    for x, y in zip(out, every_out):
        assert_same_bits(x, y)


# -- the relation term against a frozen copy of its earlier form ----------------


def frozen_quadratic(R, V, P, N, keep):
    """``losses._quadratic`` as it stood before its numpy calls were cut:
    the same s, t, quad, inv and cos, formed from fresh temporaries."""
    s, t = np.stack((V, N)), np.stack((R, P))
    sq = np.einsum("bij,bij->bi", s, s)[:, :, None] + np.einsum("bij,bij->bi", t, t)[:, None]
    n2 = sq - 2.0 * (s @ t.transpose(0, 2, 1))
    quad = ((n2 > losses._CANCEL * sq) & (n2 > losses._FLOOR) & (sq < losses._CEIL)).all(axis=0)
    if keep is not None:
        quad &= keep
    inv = quad / np.sqrt(np.where(quad, n2, 1.0))
    cos = np.einsum("ij,ij->i", V, N)[:, None] + np.einsum("ij,ij->i", R, P)
    cos -= (s @ t[::-1].transpose(0, 2, 1)).sum(axis=0)
    cos *= inv[0]
    cos *= inv[1]
    return s, t, quad, inv, cos


def frozen_screen(s, t, inv, fibers, limit):
    """The [n, n] flags of the float32 screen of ``fibers``, formed as the
    earlier ``losses._gathered_screen`` formed them."""
    n, length = s.shape[1:]
    with np.errstate(over="ignore"):
        s, t = s.astype(np.float32), t.astype(np.float32)
    inv = np.take(inv.reshape(2, -1), fibers, axis=1).astype(np.float32)[..., None]
    flagged = np.zeros(n * n, dtype=bool)
    rows, cols = np.divmod(fibers, n)
    y = np.abs(np.subtract(*((t[:, cols] - s[:, rows]) * inv)))
    flagged[fibers[np.flatnonzero(y > limit) // length]] = True
    return flagged.reshape(n, n)


def unskipped_relation_term(op, R, V, P, N, keep, delta, scale, g):
    """``losses._relation_term`` as it stood before its numpy calls were
    cut, with its screen and its exact path run on every call, even on no
    fiber: the unit fibers and their gradient as ``l2_normalize`` forms
    them, and the gradients scattered row by row with ``np.add.at``."""
    length = R.shape[1]
    s, t, quad, inv, cos = frozen_quadratic(R, V, P, N, keep)
    limit = losses._screen_limit(delta)
    left = np.flatnonzero(quad & ~losses._cleared(cos, limit, length))
    i, j = np.nonzero(frozen_screen(s, t, inv, left, limit))
    quad[i, j] = False
    inv[:, i, j] = 0.0
    cos[i, j] *= 0.0
    total = np.subtract(quad, cos).sum()
    if g is not None:
        gs = g * scale
        c = np.stack((cos * inv[0] * inv[0] * -gs, inv[0] * inv[1] * gs))
        d_real = (c.transpose(0, 2, 1) @ s - t * c.sum(axis=1)[:, :, None]).sum(axis=0)
        d_virtual = (c @ t - s * c.sum(axis=2)[:, :, None]).sum(axis=0)
    i, j = np.nonzero(~quad if keep is None else keep & ~quad)
    step = max(1, ad._BLOCK_BYTES // (16 * length))
    for lo in range(0, len(i), step):
        rows, cols = i[lo:lo + step], j[lo:lo + step]
        x = t[:, cols] - s[:, rows]
        n = np.sqrt((x * x).sum(axis=2, keepdims=True))
        live = n >= ad.DEFAULT_NORM_EPS
        n_safe = np.where(live, n, 1.0)
        if not np.isfinite(n_safe).all():
            raise NumericError(f"{op} overflowed a squared norm")
        y = np.where(live, x / n_safe, 0.0)
        res = y[0] - y[1]
        slope = np.clip(res, -delta, delta)
        total += (slope * (res - 0.5 * slope)).sum()
        if g is not None:
            gy = gs * slope
            gx = (gy - y[0] * (gy * y[0]).sum(axis=1, keepdims=True)) / n_safe[0]
            gx = np.where(live[0], gx, 0.0)
            np.add.at(d_real, cols, gx)
            np.add.at(d_virtual, rows, -gx)
    return total, None if g is None else (d_real, d_virtual)


def relation_rows(rng, n, length, converged):
    """R, V, P, N of an [n, n] fiber grid of fibers of ``length``.  A
    converged student equals its teacher, so the L2 bound clears every
    quadratic fiber, and it ties V[1] to R[3], so fiber [1, 3] is dead and
    takes the exact path; otherwise every fiber is quadratic and few are
    cleared."""
    R, V, P, N = (rng.standard_normal((n, length)) for _ in range(4))
    if converged:
        V[1] = R[3]
        P, N = R.copy(), V.copy()
    return R, V, P, N


@pytest.mark.parametrize("g", [None, 2.0])
@pytest.mark.parametrize("n,length", [(32, 10), (10, 32)])
@pytest.mark.parametrize("converged", [True, False])
def test_a_skipped_screen_or_exact_path_gives_the_unskipped_bits(monkeypatch, converged, n,
                                                                  length, g):
    # converged: nothing is left to screen, one fiber takes the exact path;
    # else fibers are left to screen, none is flagged at this delta, and so
    # no kept fiber takes the exact path
    delta = 1.0 if converged else 1.7
    rows = relation_rows(np.random.default_rng(n), n, length, converged)
    keep = None if converged else np.random.default_rng(1).random((n, n)) < 0.9
    _, _, quad, _, cos = losses._quadratic(*rows, keep)
    left = quad & ~losses._cleared(cos, losses._screen_limit(delta), length)
    exact = ~quad if keep is None else keep & ~quad
    assert (left.any(), exact.sum()) == ((False, 1) if converged else (True, 0))
    calls = []
    for name in ("_gathered_screen", "_unit_fibers"):
        module = losses if name == "_gathered_screen" else ad
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name: (
            calls.append(name), real(*a))[1])
    got = losses._relation_term("term", *rows, keep, delta, 0.25, g)
    assert calls == (["_unit_fibers"] if converged else ["_gathered_screen"])
    want = unskipped_relation_term("term", *rows, keep, delta, 0.25, g)
    assert_same_bits(got[0], want[0])
    for x, y in zip(got[1] or (), want[1] or (), strict=True):
        assert_same_bits(x, y)


@pytest.mark.parametrize("g", [None, 2.0])
def test_a_delta_past_float32s_range_gives_the_bits_of_delta_4_without_a_warning(g):
    # every fiber is quadratic, and no component of y - u passes 2, so the
    # limit of delta 4 flags none of them and the +inf one clears them all
    rows = relation_rows(np.random.default_rng(3), 32, 10, converged=False)
    assert losses._quadratic(*rows, None)[2].all()
    assert losses._screen_limit(1e308) == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = losses._relation_term("term", *rows, None, 1e308, 0.25, g)
    want = losses._relation_term("term", *rows, None, 4.0, 0.25, g)
    assert_same_bits(got[0], want[0])
    for x, y in zip(got[1] or (), want[1] or (), strict=True):
        assert_same_bits(x, y)


def student_rows(rng, n, length, student, tied, layout="C"):
    """R, V, P, N of an [n, n] fiber grid: the teacher's P and N softmax
    rows, the student's equal to them (converged: the L2 bound clears every
    quadratic fiber), within 2% of them (near: a few fibers flagged at
    delta 0.05) or drawn apart (random: most left to the screen).  ``tied``
    makes fiber [1, 0] dead in both models and fiber [0, 1] a cancellation
    in the student's, so both take the exact path.  ``layout`` "F" lays
    the four out as the ICV term's class columns are, "C" as the ISV
    term's rows."""
    P, N = probs(rng, n, length), probs(rng, n, length)
    if student == "random":
        R, V = probs(rng, n, length), probs(rng, n, length)
    else:
        jitter = 0.0 if student == "converged" else 0.02
        R, V = (x + jitter * x * rng.standard_normal(x.shape) for x in (P, N))
    if tied:
        V[1], N[1] = R[0], P[0]
        V[0], N[0] = R[1] + 1e-9 * rng.standard_normal(length), P[1]
    return tuple(np.asarray(x, order=layout) for x in (R, V, P, N))


TERM_SHAPES = [(32, 10), (10, 32), (128, 32), (32, 128)]


@given(shape=st.one_of(st.tuples(st.integers(2, 40), st.integers(2, 40)),
                       st.sampled_from(TERM_SHAPES)),
       keep=st.sampled_from(["all", "random", "none"]),
       delta=st.sampled_from([0.05, 0.3, 1.0]),
       student=st.sampled_from(["converged", "near", "random"]),
       tied=st.booleans(),
       layout=st.sampled_from(["C", "F"]),
       g=st.sampled_from([None, 2.0, 128.0]),
       seed=st.integers(0, 2**32 - 1))
@example(shape=(32, 10), keep="random", delta=0.05, student="near", tied=True, layout="C",
         g=128.0, seed=0)
@example(shape=(10, 32), keep="random", delta=1.0, student="random", tied=True, layout="F",
         g=2.0, seed=0)
@example(shape=(128, 32), keep="all", delta=0.05, student="near", tied=True, layout="C",
         g=128.0, seed=0)
@example(shape=(32, 128), keep="random", delta=0.3, student="random", tied=True, layout="F",
         g=None, seed=0)
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_relation_term_keeps_the_unskipped_bits(shape, keep, delta, student, tied, layout, g,
                                                seed):
    """The total and both gradients of ``losses._relation_term``, bit for
    bit those of its earlier, unskipped form: a keep of every fiber (None),
    of a random 80% or of none, on converged, near and random students,
    with and without a dead and a cancelled fiber, on C rows (ISV) and F
    columns (ICV)."""
    n, length = shape
    rng = np.random.default_rng(seed)
    rows = student_rows(rng, n, length, student, tied, layout)
    keep = {"all": None, "random": rng.random((n, n)) < 0.8,
            "none": np.zeros((n, n), dtype=bool)}[keep]
    scale = 1.0 / (n * n * length)
    got = losses._relation_term("term", *rows, keep, delta, scale, g)
    want = unskipped_relation_term("term", *rows, keep, delta, scale, g)
    assert_same_bits(got[0], want[0])
    for x, y in zip(got[1] or (), want[1] or (), strict=True):
        assert_same_bits(x, y)
        assert x.dtype == y.dtype and x.shape == y.shape


@pytest.mark.parametrize("shape", TERM_SHAPES)
def test_student_rows_reach_the_screen_and_the_exact_path(shape):
    # a converged student leaves nothing to the screen; at delta 1 a random
    # one leaves fibers, some flagged and some not; the ties send two fibers
    # to the exact path
    n, length = shape
    for student, delta in (("converged", 0.05), ("random", 1.0)):
        rows = student_rows(np.random.default_rng(0), n, length, student, True)
        s, t, quad, inv, cos = losses._quadratic(*rows, None)
        assert (~quad).sum() == 2
        limit = losses._screen_limit(delta)
        left = np.flatnonzero(quad & ~losses._cleared(cos, limit, length))
        flagged = losses._gathered_screen(s, t, inv, left, limit)
        if student == "converged":
            assert len(left) == 0
        else:
            assert 0 < len(flagged) < len(left)


def relation_screen_check():
    return next(r for r in checks.exactness_checks() if r.name == "exact:relation_screen")


@pytest.mark.parametrize("fault", ["half-cos-error", "half-slack", "over-clearing"])
def test_relation_screen_check_catches_a_fault(monkeypatch, fault):
    assert relation_screen_check().passed
    if fault == "half-cos-error":
        # the clearing rule with half its e
        cos_error = losses._cos_error
        monkeypatch.setattr(losses, "_cos_error", lambda length: cos_error(length) / 2)
    elif fault == "half-slack":
        # half the slack: the clearing threshold sits _SLACK / 2 below the limit
        monkeypatch.setattr(losses, "_SLACK", losses._SLACK / 2)
    else:
        # a clearing threshold 8 float32 ulps past the limit, not _SLACK below it
        cleared = losses._cleared
        monkeypatch.setattr(checks, "_cleared", lambda cos, limit, length: cleared(
            cos, float(limit) * (1.0 + 2.0 ** -20) + losses._SLACK, length))
    result = relation_screen_check()
    want = ("flags of the fibers left differ" if fault == "over-clearing"
            else "stand-in reaches the limit")
    assert not result.passed and want in result.detail


@pytest.mark.parametrize("delta", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("fused", [True, False], ids=["fused", "composite"])
@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_a_delta_that_is_not_positive_is_a_parameter_error(kind, fused, delta):
    # the fused term rejects it as the composite's huber does, before any work
    rng = np.random.default_rng(6)
    real, virtual = probs(rng, 6, 4), probs(rng, 6, 4)
    teacher = LogitBatch(probs(rng, 6, 4), probs(rng, 6, 4))
    with pytest.raises(ParameterError, match="huber delta must be positive"):
        run_term(kind, real, virtual, teacher, None, delta, fused)


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_all_pruned_mask_warns_and_returns_untaped_zero(kind):
    # the fused term and the composite alike
    rng = np.random.default_rng(14)
    b, c = 5, 4
    mask = EdgeMask(kind, np.zeros(fiber_grid(kind, b, c), dtype=bool), 50.0, 0.0)
    views = LogitBatch(Tensor(probs(rng, b, c), requires_grad=True),
                       Tensor(probs(rng, b, c), requires_grad=True))
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    with pytest.warns(RuntimeWarning, match=f"all {kind} edges pruned"):
        loss, kept = TERMS[kind](views, teacher, mask, 1.0)
    assert float(loss) == 0.0 and loss.node is None and kept == 0
    with pytest.warns(RuntimeWarning, match=f"all {kind} edges pruned"):
        loss = LOSSES[kind](BUILDERS[kind](views), BUILDERS[kind](teacher), mask, 1.0)
    assert float(loss) == 0.0 and loss.node is None


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_second_backward_through_the_loss_node_keeps_the_first(kind):
    # a second backward through the same term node gets its own gradient
    # buffers and leaves the first one's intact
    rng = np.random.default_rng(21)
    r = Tensor(probs(rng, 9, 6), requires_grad=True)
    v = Tensor(probs(rng, 9, 6), requires_grad=True)
    teacher = LogitBatch(probs(rng, 9, 6), probs(rng, 9, 6))
    loss, _ = TERMS[kind](LogitBatch(r, v), teacher, None, 1.0)
    first = backward(loss * 1.0)
    kept = {key: g.copy() for key, g in first.items()}
    r.grad = v.grad = None
    second = backward(loss * 1.0)
    for key in (id(r), id(v)):
        assert second[key] is not first[key]
        assert_same_bits(first[key], kept[key])
        assert_same_bits(second[key], kept[key])


def test_isv_term_second_backward_through_a_kept_alive_loss():
    rng = np.random.default_rng(34)
    b, c = PARTIAL
    real, virtual = probs(rng, b, c), probs(rng, b, c)
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    mask = random_mask(rng, "ISV", (b, b), 95.0)
    ref = run_term("ISV", real, virtual, teacher, mask, 1.0, False)
    r = Tensor(real, requires_grad=True)
    v = Tensor(virtual, requires_grad=True)
    loss, _ = isv_edge_loss(LogitBatch(r, v), teacher, mask, 1.0)
    grads = []
    for _ in range(2):
        r.grad = v.grad = None
        backward(loss * 1.0)
        assert_within_bound("ISV", real, virtual, teacher, mask, (loss.data, r.grad, v.grad),
                            ref, 1.0)
        grads.append((r.grad, v.grad))
    for x, y in zip(*grads):
        assert_same_bits(x, y)


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_term_is_one_tape_node_over_the_student_views(kind):
    rng = np.random.default_rng(35)
    views = LogitBatch(Tensor(probs(rng, 6, 4), requires_grad=True),
                       Tensor(probs(rng, 6, 4), requires_grad=True))
    loss, kept = TERMS[kind](views, LogitBatch(probs(rng, 6, 4), probs(rng, 6, 4)), None, 1.0)
    assert loss.node.op == f"{kind.lower()}_edge_loss"
    assert kept == {"ISV": 36, "ICV": 16}[kind]
    assert loss.node.inputs == (views.real, views.virtual)


def count_gradient_runs(monkeypatch):
    """A list that grows by one at each run of a fused term that forms
    view gradients."""
    calls = []
    real = losses._relation_term

    def counted(*args, **kwargs):
        if args[-1] is not None:
            calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(losses, "_relation_term", counted)
    return calls


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
@pytest.mark.parametrize("upstream,k,reruns", [(128.0, 128.0, False), (128.0, 2.0, True),
                                               (0.0, -0.0, True)],
                         ids=["expected", "other", "negative-zero"])
def test_term_backward_reruns_only_for_an_unexpected_upstream(monkeypatch, kind, upstream, k,
                                                              reruns):
    # the backward hands out the forward's gradients for the upstream
    # gradient it was told to expect, compared by its bytes
    rng = np.random.default_rng(22)
    views = LogitBatch(Tensor(probs(rng, *PARTIAL), requires_grad=True),
                       Tensor(probs(rng, *PARTIAL), requires_grad=True))
    teacher = LogitBatch(probs(rng, *PARTIAL), probs(rng, *PARTIAL))
    loss, _ = TERMS[kind](views, teacher, None, 1.0, upstream=upstream)
    scaled = loss * k
    calls = count_gradient_runs(monkeypatch)
    backward(scaled)
    assert bool(calls) == reruns


def test_total_loss_backward_forms_no_edge_gradient(monkeypatch):
    # the forward of each term formed its view gradients for the term's
    # weight, which is what the backward passes it
    rng = np.random.default_rng(23)
    b, c = 40, 10
    student = LogitBatch(Tensor(rng.standard_normal((b, c)), requires_grad=True),
                         Tensor(rng.standard_normal((b, c)), requires_grad=True))
    teacher = LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c)))
    calls = count_gradient_runs(monkeypatch)
    breakdown = total_loss(student, teacher, rng.integers(0, c, size=b), VRMWeights())
    assert calls
    calls.clear()
    backward(breakdown.total)
    assert not calls and student.real.grad is not None


def test_forward_under_no_grad_forms_no_edge_gradient(monkeypatch):
    rng = np.random.default_rng(24)
    b, c = 40, 10
    student = LogitBatch(Tensor(rng.standard_normal((b, c)), requires_grad=True),
                         Tensor(rng.standard_normal((b, c)), requires_grad=True))
    teacher = LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c)))
    calls = count_gradient_runs(monkeypatch)
    with ad.no_grad():
        breakdown = total_loss(student, teacher, rng.integers(0, c, size=b), VRMWeights())
    assert not calls and breakdown.total.node is None


def test_icv_term_needs_two_classes():
    views = LogitBatch(np.full((4, 1), 1.0), np.full((4, 1), 1.0))
    with pytest.raises(InputError, match="2 classes"):
        icv_edge_loss(views, views, None, 1.0)
    with pytest.raises(InputError, match="2 classes"):
        total_loss(views, views, np.zeros(4, dtype=int), VRMWeights())


# -- gradients and non-finite values ----------------------------------------


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_builder_finite_difference(kind):
    rng = np.random.default_rng(16)
    b, c = 4, 3
    shape = (b, b, c) if kind == "ISV" else (c, c, b)
    probe = Tensor(rng.standard_normal(shape))

    def f(x):
        edges = BUILDERS[kind](LogitBatch(row_slice(x, 0, b), row_slice(x, b, 2 * b)))
        return (edges.values * probe).sum()

    for _ in range(5):
        assert finite_diff_check(f, rng.standard_normal((2 * b, c))) < 1e-6


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_edge_loss_finite_difference(kind):
    rng = np.random.default_rng(17)
    b, c = 4, 3
    shape = (b, b, c) if kind == "ISV" else (c, c, b)
    teacher = EdgeTensor(kind, Tensor(rng.standard_normal(shape) * 0.3))
    mask = random_mask(rng, kind, shape[:2], 75.0)

    def f(x):
        return LOSSES[kind](EdgeTensor(kind, x), teacher, mask, 1.0)

    for _ in range(5):
        assert finite_diff_check(f, rng.standard_normal(shape) * 0.3) < 1e-6


@pytest.mark.parametrize("kind,seed,delta", [("ISV", 36, 0.2), ("ICV", 45, 1.0)],
                         ids=["ISV", "ICV"])
def test_term_finite_difference(kind, seed, delta):
    rng = np.random.default_rng(seed)
    b, c = 4, 3
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    mask = random_mask(rng, kind, fiber_grid(kind, b, c), 75.0)

    def f(x):
        views = LogitBatch(row_slice(x, 0, b), row_slice(x, b, 2 * b))
        return TERMS[kind](views, teacher, mask, delta)[0]

    for _ in range(5):
        assert finite_diff_check(f, rng.standard_normal((2 * b, c))) < 1e-6


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_overflowing_logits_raise_in_the_public_builders(kind):
    # the difference of the views overflows in the generic subtraction
    real = np.zeros((3, 4))
    virtual = np.zeros((3, 4))
    real[1] = 1e308
    virtual[1] = -1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="sub produced non-finite values"):
            BUILDERS[kind](LogitBatch(real, virtual))


def test_overflowing_edges_raise_in_the_public_loss():
    values = np.zeros((3, 3, 2))
    values[0, 1] = 1e308
    student = EdgeTensor("ISV", Tensor(values))
    teacher = EdgeTensor("ISV", Tensor(-values))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="huber produced non-finite values"):
            loss_isv(student, teacher, None)


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
@pytest.mark.parametrize("side", ["student", "teacher"])
@pytest.mark.parametrize("value", [1e308, -1e308, 1e200], ids=["plus", "minus", "square"])
def test_overflowing_views_name_the_term(kind, side, value):
    huge = np.zeros(PARTIAL), np.zeros(PARTIAL)
    # an item of each view (a row, or a class column) at value and at
    # -value: at 1e308 their difference overflows, at 1e200 only its
    # squared norm does, which the fused term once mapped to a zero penalty
    real_items, virtual_items = relation_items(kind, *huge)
    real_items[1] = value
    virtual_items[2] = -value
    calm = LogitBatch(np.zeros(PARTIAL), np.zeros(PARTIAL))
    views = LogitBatch(*huge) if side == "student" else calm
    teacher = LogitBatch(*huge) if side == "teacher" else calm
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=f"{kind.lower()}_edge_loss"):
            TERMS[kind](views, teacher, None, 1.0)


def test_l2_normalize_gradient_keeps_layout_of_upstream():
    # the array helpers behind l2_normalize reuse buffers in place; the
    # result must equal the out-of-place rule on a transposed input too
    rng = np.random.default_rng(18)
    x = rng.standard_normal((5, 4, 3)).transpose((1, 2, 0))
    g = rng.standard_normal((4, 3, 5))
    x[0, 0] = 0.0
    n = np.sqrt((x * x).sum(axis=2, keepdims=True))
    live = n >= ad.DEFAULT_NORM_EPS
    n_safe = np.where(live, n, 1.0)
    y_ref = np.where(live, x / n_safe, 0.0)
    gx_ref = np.where(live, (g - y_ref * (g * y_ref).sum(axis=2, keepdims=True)) / n_safe, 0.0)
    xt = Tensor(x, requires_grad=True)
    y = ad.l2_normalize(xt, axis=2)
    backward((y * Tensor(g)).sum())
    assert_same_bits(y.data, y_ref)
    assert_same_bits(xt.grad, gx_ref)
    assert y.data.strides == y_ref.strides


# -- empty batches ------------------------------------------------------------


def test_empty_batch_builds_reduces_and_backpropagates():
    r = Tensor(np.zeros((0, 3)), requires_grad=True)
    v = Tensor(np.zeros((0, 3)), requires_grad=True)
    edges = build_isv_edges(LogitBatch(r, v))
    loss = edges.values.sum()
    assert edges.values.shape == (0, 0, 3) and float(loss) == 0.0
    backward(loss)
    assert r.grad.shape == v.grad.shape == (0, 3)


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_empty_batch_loss_is_an_untaped_zero(kind):
    # the fused term and the composite alike: no ISV fibers, and ICV fibers
    # of length 0
    views = LogitBatch(Tensor(np.zeros((0, 3)), requires_grad=True),
                       Tensor(np.zeros((0, 3)), requires_grad=True))
    edges = BUILDERS[kind](views)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = LOSSES[kind](edges, edges, None)
        term, kept = TERMS[kind](views, views, None, 1.0)
    assert float(loss) == 0.0 and loss.node is None
    assert float(term) == 0.0 and term.node is None and kept == {"ISV": 0, "ICV": 9}[kind]


# -- memory ------------------------------------------------------------------------


def traced_peak_mib(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def wide_case(kind):
    rng = np.random.default_rng(47)
    b, c = 128, 32
    views = LogitBatch(Tensor(probs(rng, b, c), requires_grad=True),
                       Tensor(probs(rng, b, c), requires_grad=True))
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    mask = random_mask(rng, kind, fiber_grid(kind, b, c), 95.0)
    return views, teacher, mask


@pytest.mark.parametrize("kind,bound", [("ISV", 2.0), ("ICV", 3.5)])
def test_fused_term_forward_peak_at_the_wide_shape(kind, bound):
    # ISV works in row blocks of about 256 KiB, so a single [B, B, C] array
    # (4 MiB) would pass the bound; ICV holds three [C, C, B] buffers (1 MiB
    # each), so the teacher's edges or a fresh gradient on top would pass it
    views, teacher, mask = wide_case(kind)
    assert traced_peak_mib(lambda: TERMS[kind](views, teacher, mask, 1.0)) <= bound


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_fused_term_holds_only_the_view_gradients_after_its_forward(kind):
    # the two [B, C] view gradients are 64 KiB; any edge-shaped buffer kept
    # for the backward would pass the bound
    views, teacher, mask = wide_case(kind)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss, _ = TERMS[kind](views, teacher, mask, 1.0)
        held = (tracemalloc.get_traced_memory()[0] - base) / 2**20
    finally:
        tracemalloc.stop()
    assert loss.node is not None and held <= 0.25


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_fused_term_frees_its_buffers_without_the_cycle_collector(kind):
    # a reference cycle would keep each step's [B, B, C] buffers alive
    # until the cycle collector happens to run
    rng = np.random.default_rng(48)
    b, c = PARTIAL
    views = LogitBatch(Tensor(probs(rng, b, c), requires_grad=True),
                       Tensor(probs(rng, b, c), requires_grad=True))
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    mask = random_mask(rng, kind, fiber_grid(kind, b, c), 95.0)
    gc.collect()
    gc.disable()
    try:
        loss, _ = TERMS[kind](views, teacher, mask, 1.0)
        backward(loss)
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()
