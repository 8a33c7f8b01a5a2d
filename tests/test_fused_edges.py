"""The fused ISV and ICV terms of the objective against the public
composites they replace; the public composites on their own (gradients,
empty batches, overflow); the exact block-wise sum of the ISV term against
``np.sum``; and the memory the fused terms take.

The reference is the public API: ``build_isv_edges`` / ``build_icv_edges``
build the edges from reshape, subtraction, transpose and l2_normalize, and
``loss_isv`` / ``loss_icv`` the loss from apply_mask, huber, sum and the
1/(kept * fiber length) scale.  The fused terms must agree with them bit
for bit, in the loss and in the gradients that reach the real and virtual
views.
"""
import gc
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrm import autodiff as ad
from vrm.autodiff import Tensor, backward, finite_diff_check, row_slice
from vrm.errors import InputError, NumericError
from vrm.graphs import EdgeTensor, LogitBatch, build_icv_edges, build_isv_edges
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


def run_term(kind, real, virtual, teacher, mask, delta, fused):
    """The ISV or ICV term and the gradients of both views: the fused node,
    or the reference, the public builder of the edges of both models
    followed by the public loss."""
    r = Tensor(real, requires_grad=True)
    v = Tensor(virtual, requires_grad=True)
    if fused:
        loss, _ = TERMS[kind](LogitBatch(r, v), teacher, mask, delta)
    else:
        loss = LOSSES[kind](BUILDERS[kind](LogitBatch(r, v)), BUILDERS[kind](teacher),
                            mask, delta)
    if loss.node is not None:
        backward(loss)
    return loss.data, r.grad, v.grad


def check_term(rng, kind, b, c, m, delta=1.0, tied_rows=(), same_views=False):
    real = probs(rng, b, c)
    virtual = real.copy() if same_views else probs(rng, b, c)
    # a virtual row within 1e-14 of its real row makes the ISV fiber (i, i)
    # dead: below the norm floor, yet not zero until it is zeroed
    virtual[list(tied_rows)] = real[list(tied_rows)]
    virtual[list(tied_rows), 0] += 1e-14
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    mask = random_mask(rng, kind, (b, b) if kind == "ISV" else (c, c), m)
    fused = run_term(kind, real, virtual, teacher, mask, delta, True)
    ref = run_term(kind, real, virtual, teacher, mask, delta, False)
    for x, y in zip(fused, ref):
        assert_same_bits(x, y)
    return real, virtual, teacher


# -- the fused terms against the public composites ---------------------------


# retention percentiles of the masks; None passes no mask
PERCENTILES = (50.0, 95.0, 100.0, None)


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_fused_path_is_bit_identical_to_composite(kind):
    rng = np.random.default_rng(7 if kind == "ISV" else 8)
    for m in PERCENTILES:
        for _ in range(3):
            b, c = (int(n) for n in rng.integers(2, 17, size=2))
            check_term(rng, kind, b, c, m)


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_fused_path_is_bit_identical_at_wide_shape(kind):
    rng = np.random.default_rng(11)
    check_term(rng, kind, 128, 32, 95.0)


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_fused_path_is_bit_identical_with_zero_norm_fibers(kind):
    # identical views (augmentation with n_ops=0): diagonal fibers are exact
    # zeros, so the l2_normalize zero branch applies in both paths
    rng = np.random.default_rng(12)
    for m in PERCENTILES:
        b, c = (int(n) for n in rng.integers(2, 17, size=2))
        check_term(rng, kind, b, c, m, same_views=True)


# B=131, C=24: the ISV term runs in blocks of 10 rows, the last of which
# holds a single row
PARTIAL = (131, 24)


def test_isv_rows_split_into_blocks_with_a_partial_last_block():
    b, c = PARTIAL
    blocks = ad._row_blocks(b, b * c)
    assert len(blocks) > 1 and blocks[0].stop - blocks[0].start == 10
    assert blocks[-1] == slice(130, 131)


def test_fused_path_is_bit_identical_with_a_partial_last_block():
    rng = np.random.default_rng(19)
    for m in PERCENTILES:
        check_term(rng, "ISV", *PARTIAL, m)


@pytest.mark.parametrize("tied_rows", [(), (4,), (3, 71, 130), tuple(range(131))],
                         ids=["all-live", "one-block-dead", "three-blocks-dead",
                              "every-block-dead"])
def test_blocked_dead_fiber_shortcut_both_branches(tied_rows):
    # blocks without a zero-norm fiber skip zeroing dead fibers, the others
    # zero them, forward and backward; both must match the composite
    rng = np.random.default_rng(20)
    for m in (95.0, None):
        check_term(rng, "ISV", *PARTIAL, m, tied_rows=tied_rows)


def test_empty_batch_builds_reduces_and_backpropagates():
    r = Tensor(np.zeros((0, 3)), requires_grad=True)
    v = Tensor(np.zeros((0, 3)), requires_grad=True)
    edges = build_isv_edges(LogitBatch(r, v))
    loss = edges.values.sum()
    assert edges.values.shape == (0, 0, 3) and float(loss) == 0.0
    backward(loss)
    assert r.grad.shape == v.grad.shape == (0, 3)


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


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_fused_path_residuals_beyond_delta(kind):
    # a small delta puts residuals on both branches of the Huber penalty
    rng = np.random.default_rng(13)
    for m in (50.0, None):
        check_term(rng, kind, 9, 6, m, delta=0.05)


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_all_pruned_mask_warns_and_returns_untaped_zero(kind):
    rng = np.random.default_rng(14)
    b, c = 5, 4
    shape = (b, b) if kind == "ISV" else (c, c)
    mask = EdgeMask(kind, np.zeros(shape, dtype=bool), 50.0, 0.0)
    real, virtual = probs(rng, b, c), probs(rng, b, c)
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    with pytest.warns(RuntimeWarning, match="pruned"):
        loss, g_real, g_virtual = run_term(kind, real, virtual, teacher, mask, 1.0, False)
    assert float(loss) == 0.0 and g_real is None and g_virtual is None


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


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_overflowing_logits_raise_in_the_public_builders(kind):
    # the difference of the views overflows in the generic subtraction
    real = np.zeros((3, 4))
    virtual = np.zeros((3, 4))
    real[1] = 1e308
    virtual[1] = -1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="add produced non-finite values"):
            BUILDERS[kind](LogitBatch(real, virtual))


def test_overflowing_edges_raise_in_the_public_loss():
    values = np.zeros((3, 3, 2))
    values[0, 1] = 1e308
    student = EdgeTensor("ISV", Tensor(values))
    teacher = EdgeTensor("ISV", Tensor(-values))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="huber produced non-finite values"):
            loss_isv(student, teacher, None)


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


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_empty_batch_loss_is_an_untaped_zero(kind):
    views = LogitBatch(Tensor(np.zeros((0, 3)), requires_grad=True),
                       Tensor(np.zeros((0, 3)), requires_grad=True))
    edges = BUILDERS[kind](views)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = LOSSES[kind](edges, edges, None)
    assert float(loss) == 0.0 and loss.node is None


# 131 x 24 runs in blocks of 10 rows with a one-row last block
ISV_SHAPES = [(128, 32), PARTIAL, (7, 5)]


@pytest.mark.parametrize("shape", ISV_SHAPES, ids=["128x32", "131x24", "7x5"])
@pytest.mark.parametrize("m", [50.0, 95.0, 100.0, None], ids=["m50", "m95", "m100", "no-mask"])
def test_isv_term_is_bit_identical_to_composite(shape, m):
    check_term(np.random.default_rng(30), "ISV", *shape, m)


@pytest.mark.parametrize("shape", [PARTIAL, (7, 5)], ids=["131x24", "7x5"])
def test_isv_term_both_huber_branches(shape):
    delta = 0.05
    real, virtual, teacher = check_term(np.random.default_rng(31), "ISV", *shape, 95.0, delta)
    residual = (build_isv_edges(LogitBatch(real, virtual)).values.data
                - build_isv_edges(teacher).values.data)
    assert (np.abs(residual) > delta).any() and (np.abs(residual) <= delta).any()


@pytest.mark.parametrize("tied_rows", [(4,), (3, 71, 130), tuple(range(131))],
                         ids=["one-block-dead", "three-blocks-dead", "every-block-dead"])
def test_isv_term_with_dead_fibers(tied_rows):
    rng = np.random.default_rng(32)
    for m in (95.0, None):
        real, virtual, _ = check_term(rng, "ISV", *PARTIAL, m, tied_rows=tied_rows)
        # the tied rows, and only they, give dead diagonal fibers
        values = build_isv_edges(LogitBatch(real, virtual)).values.data
        dead = np.abs(values).sum(axis=2) == 0.0
        assert sorted(np.flatnonzero(dead.diagonal())) == sorted(tied_rows)


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
    fused = run_term("ISV", real, virtual, teacher, mask, 1.0, True)
    ref = run_term("ISV", real, virtual, teacher, mask, 1.0, False)
    for x, y in zip(fused, ref):
        assert_same_bits(x, y)
    assert not ref[2][[2, 5]].any() and not ref[1][4].any()


def test_isv_term_with_every_fiber_pruned_warns_and_is_an_untaped_zero():
    rng = np.random.default_rng(33)
    b, c = 5, 4
    mask = EdgeMask("ISV", np.zeros((b, b), dtype=bool), 50.0, 0.0)
    views = LogitBatch(Tensor(probs(rng, b, c), requires_grad=True),
                       Tensor(probs(rng, b, c), requires_grad=True))
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    with pytest.warns(RuntimeWarning, match="all ISV edges pruned"):
        loss, kept = isv_edge_loss(views, teacher, mask, 1.0)
    assert float(loss) == 0.0 and loss.node is None and kept == 0


def test_isv_term_of_an_empty_batch_is_an_untaped_zero():
    views = LogitBatch(Tensor(np.zeros((0, 3)), requires_grad=True),
                       Tensor(np.zeros((0, 3)), requires_grad=True))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, kept = isv_edge_loss(views, views, None, 1.0)
    assert float(loss) == 0.0 and loss.node is None and kept == 0


def test_isv_term_second_backward_through_a_kept_alive_loss():
    rng = np.random.default_rng(34)
    b, c = PARTIAL
    real, virtual = probs(rng, b, c), probs(rng, b, c)
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    mask = random_mask(rng, "ISV", (b, b), 95.0)
    _, ref_real, ref_virtual = run_term("ISV", real, virtual, teacher, mask, 1.0, False)
    r = Tensor(real, requires_grad=True)
    v = Tensor(virtual, requires_grad=True)
    loss, _ = isv_edge_loss(LogitBatch(r, v), teacher, mask, 1.0)
    for _ in range(2):
        r.grad = v.grad = None
        backward(loss * 1.0)
        assert_same_bits(r.grad, ref_real)
        assert_same_bits(v.grad, ref_virtual)


def test_isv_term_is_one_tape_node_over_the_student_views():
    rng = np.random.default_rng(35)
    views = LogitBatch(Tensor(probs(rng, 6, 4), requires_grad=True),
                       Tensor(probs(rng, 6, 4), requires_grad=True))
    loss, kept = isv_edge_loss(views, LogitBatch(probs(rng, 6, 4), probs(rng, 6, 4)),
                               None, 1.0)
    assert loss.node.op == "isv_edge_loss" and kept == 36
    assert loss.node.inputs == (views.real, views.virtual)


def test_isv_term_finite_difference():
    rng = np.random.default_rng(36)
    b, c = 4, 3
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    mask = random_mask(rng, "ISV", (b, b), 75.0)

    def f(x):
        views = LogitBatch(row_slice(x, 0, b), row_slice(x, b, 2 * b))
        return isv_edge_loss(views, teacher, mask, 0.2)[0]

    for _ in range(5):
        assert finite_diff_check(f, rng.standard_normal((2 * b, c))) < 1e-6


@pytest.mark.parametrize("side", ["student", "teacher"])
def test_overflowing_views_name_the_isv_term(side):
    b, c = PARTIAL
    huge = np.zeros((b, c)), np.zeros((b, c))
    huge[1][-1] = 1e308
    huge[0][0] = -1e308
    calm = LogitBatch(np.zeros((b, c)), np.zeros((b, c)))
    views = LogitBatch(*huge) if side == "student" else calm
    teacher = LogitBatch(*huge) if side == "teacher" else calm
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="isv_edge_loss"):
            isv_edge_loss(views, teacher, None, 1.0)


@pytest.mark.parametrize("m", [50.0, 95.0, 100.0, None], ids=["m50", "m95", "m100", "no-mask"])
def test_icv_term_is_bit_identical_to_composite(m):
    rng = np.random.default_rng(40)
    for _ in range(4):
        b, c = (int(n) for n in rng.integers(2, 17, size=2))
        check_term(rng, "ICV", b, c, m)
    check_term(rng, "ICV", 128, 32, m)


def test_icv_term_both_huber_branches():
    delta = 0.05
    rng = np.random.default_rng(41)
    for m in (95.0, None):
        real, virtual, teacher = check_term(rng, "ICV", 9, 6, m, delta)
        residual = (build_icv_edges(LogitBatch(real, virtual)).values.data
                    - build_icv_edges(teacher).values.data)
        assert (np.abs(residual) > delta).any() and (np.abs(residual) <= delta).any()


def test_icv_term_with_zero_norm_fibers():
    # identical views: the diagonal fibers (p, p) are exact zeros
    rng = np.random.default_rng(42)
    for m in PERCENTILES:
        b, c = (int(n) for n in rng.integers(2, 17, size=2))
        check_term(rng, "ICV", b, c, m, same_views=True)


def test_icv_term_with_every_fiber_pruned_warns_and_is_an_untaped_zero():
    rng = np.random.default_rng(43)
    b, c = 5, 4
    mask = EdgeMask("ICV", np.zeros((c, c), dtype=bool), 50.0, 0.0)
    views = LogitBatch(Tensor(probs(rng, b, c), requires_grad=True),
                       Tensor(probs(rng, b, c), requires_grad=True))
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    with pytest.warns(RuntimeWarning, match="all ICV edges pruned"):
        loss, kept = icv_edge_loss(views, teacher, mask, 1.0)
    assert float(loss) == 0.0 and loss.node is None and kept == 0


def test_icv_term_needs_two_classes():
    views = LogitBatch(np.full((4, 1), 1.0), np.full((4, 1), 1.0))
    with pytest.raises(InputError, match="2 classes"):
        icv_edge_loss(views, views, None, 1.0)
    with pytest.raises(InputError, match="2 classes"):
        total_loss(views, views, np.zeros(4, dtype=int), VRMWeights())


def test_icv_term_is_one_tape_node_over_the_student_views():
    rng = np.random.default_rng(44)
    views = LogitBatch(Tensor(probs(rng, 6, 4), requires_grad=True),
                       Tensor(probs(rng, 6, 4), requires_grad=True))
    loss, kept = icv_edge_loss(views, LogitBatch(probs(rng, 6, 4), probs(rng, 6, 4)),
                               None, 1.0)
    assert loss.node.op == "icv_edge_loss" and kept == 16
    assert loss.node.inputs == (views.real, views.virtual)


def test_icv_term_finite_difference():
    rng = np.random.default_rng(45)
    b, c = 4, 3
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    mask = random_mask(rng, "ICV", (c, c), 75.0)

    def f(x):
        views = LogitBatch(row_slice(x, 0, b), row_slice(x, b, 2 * b))
        return icv_edge_loss(views, teacher, mask, 1.0)[0]

    for _ in range(5):
        assert finite_diff_check(f, rng.standard_normal((2 * b, c))) < 1e-6


@pytest.mark.parametrize("side", ["student", "teacher"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
def test_overflowing_views_name_the_icv_term(side, sign):
    b, c = 9, 6
    huge = np.zeros((b, c)), np.zeros((b, c))
    huge[0][:, 1] = sign * 1e308
    huge[1][:, 2] = -sign * 1e308
    calm = LogitBatch(np.zeros((b, c)), np.zeros((b, c)))
    views = LogitBatch(*huge) if side == "student" else calm
    teacher = LogitBatch(*huge) if side == "teacher" else calm
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="icv_edge_loss"):
            icv_edge_loss(views, teacher, None, 1.0)


# -- the block-wise sum --------------------------------------------------------


@st.composite
def split_values(draw):
    """Values of varied magnitude and sign (signed zeros among them) and
    the cut points of their chunks; every cut is drawn from a band around
    a leaf of 128, so a chunk boundary often falls inside a leaf."""
    n = draw(st.integers(1, 5000))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)
    values[rng.random(n) < 0.05] = draw(st.sampled_from([0.0, -0.0]))
    cuts = draw(st.lists(st.integers(1, max(1, n - 1)), max_size=12))
    return values, sorted(set(c for c in cuts if c < n))


@given(split_values())
@settings(max_examples=300, deadline=None)
def test_blocked_sum_is_bit_identical_to_np_sum(case):
    values, cuts = case
    bounds = [0, *cuts, len(values)]
    scratch = np.empty(len(values))

    def chunks():
        # one reused buffer, spoiled after each chunk is consumed
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            chunk = scratch[:hi - lo]
            chunk[:] = values[lo:hi]
            yield chunk
            chunk[:] = np.nan

    assert_same_bits(ad._blocked_sum(chunks(), len(values)), values.sum())


def test_blocked_sum_gathers_a_leaf_split_over_chunks():
    # numpy sums 300 values as leaves starting at 0, 72, 144 and 216: a cut
    # at 200 splits the third leaf over two chunks, cuts at 80, 90 and 100
    # the second one over four
    rng = np.random.default_rng(46)
    values = rng.standard_normal(300) * 1e6
    for cuts in ([200], [80, 90, 100]):
        chunks = np.split(values, cuts)
        assert_same_bits(ad._blocked_sum(chunks, 300), values.sum())
    assert_same_bits(ad._blocked_sum(np.split(-np.zeros(300), [200]), 300), np.float64(0.0))


# -- memory ------------------------------------------------------------------------


def traced_peak_mib(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind,bound", [("ISV", 9.0), ("ICV", 3.5)])
def test_fused_term_forward_peak_at_the_wide_shape(kind, bound):
    # the saved fibers and the slope are [B, B, C] or [C, C, B] each; a
    # full-size penalty or the teacher's edges on top would pass the bound
    rng = np.random.default_rng(47)
    b, c = 128, 32
    views = LogitBatch(Tensor(probs(rng, b, c), requires_grad=True),
                       Tensor(probs(rng, b, c), requires_grad=True))
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    mask = random_mask(rng, kind, (b, b) if kind == "ISV" else (c, c), 95.0)
    assert traced_peak_mib(lambda: TERMS[kind](views, teacher, mask, 1.0)) <= bound


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_fused_term_frees_its_buffers_without_the_cycle_collector(kind):
    # a reference cycle would keep each step's [B, B, C] buffers alive
    # until the cycle collector happens to run
    rng = np.random.default_rng(48)
    b, c = PARTIAL
    views = LogitBatch(Tensor(probs(rng, b, c), requires_grad=True),
                       Tensor(probs(rng, b, c), requires_grad=True))
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    mask = random_mask(rng, kind, (b, b) if kind == "ISV" else (c, c), 95.0)
    gc.collect()
    gc.disable()
    try:
        loss, _ = TERMS[kind](views, teacher, mask, 1.0)
        backward(loss)
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()
