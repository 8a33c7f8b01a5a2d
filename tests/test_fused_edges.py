"""The fused cross-view edge builders and the fused masked edge loss
against the composite of public tape ops they replace.

The composite below is the reference: it builds the edges from reshape,
subtraction, transpose and l2_normalize, and the loss from apply_mask,
huber (or a squared difference), sum and a scale.  The fused nodes must
agree with it bit for bit, in the loss and in the gradients that reach
the real and virtual views.
"""
import warnings

import numpy as np
import pytest

from vrm import autodiff as ad
from vrm.autodiff import Tensor, backward, finite_diff_check, row_slice
from vrm.errors import NumericError
from vrm.graphs import EdgeTensor, LogitBatch, build_icv_edges, build_isv_edges
from vrm.losses import loss_icv, loss_isv
from vrm.pruning import EdgeMask, apply_mask, uep_mask

BUILDERS = {"ISV": build_isv_edges, "ICV": build_icv_edges}
LOSSES = {"ISV": loss_isv, "ICV": loss_icv}


# -- reference composite -----------------------------------------------


def composite_edges(batch, kind):
    b, c = batch.real.shape
    if kind == "ISV":
        diff = batch.real.reshape(1, b, c) - batch.virtual.reshape(b, 1, c)
        return EdgeTensor("ISV", ad.l2_normalize(diff, axis=2))
    diff = batch.real.reshape(b, 1, c) - batch.virtual.reshape(b, c, 1)
    return EdgeTensor("ICV", ad.l2_normalize(diff.transpose((1, 2, 0)), axis=2))


def composite_loss(e_s, e_t, mask, delta, reduction, metric):
    teacher = e_t.values.detach()
    if mask is None:
        kept = e_s.values.shape[0] * e_s.values.shape[1]
        s, t = e_s.values, teacher
    else:
        kept = mask.kept_count
        if kept == 0:
            return Tensor(0.0)
        s = apply_mask(e_s, mask)
        t = apply_mask(EdgeTensor(e_t.kind, teacher), mask)
    if metric == "huber":
        elem = ad.huber(s, t, delta)
    else:
        diff = s - t
        elem = diff * diff
    total = elem.sum()
    if reduction == "sum":
        return total
    return total * (1.0 / (kept * e_s.fiber_length))


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


def run(kind, real, virtual, teacher, mask, delta, reduction, metric, fused):
    r = Tensor(real, requires_grad=True)
    v = Tensor(virtual, requires_grad=True)
    if fused:
        e_s = BUILDERS[kind](LogitBatch(r, v))
        with ad.no_grad():
            e_t = BUILDERS[kind](teacher)
        loss = LOSSES[kind](e_s, e_t, mask, delta, reduction, metric)
    else:
        e_s = composite_edges(LogitBatch(r, v), kind)
        with ad.no_grad():
            e_t = composite_edges(teacher, kind)
        loss = composite_loss(e_s, e_t, mask, delta, reduction, metric)
    if loss.node is not None:
        backward(loss)
    return loss.data, r.grad, v.grad


def assert_same_bits(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def check_case(rng, kind, b, c, m, reduction, metric, same_views=False, delta=1.0):
    real = probs(rng, b, c)
    virtual = real.copy() if same_views else probs(rng, b, c)
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    shape = (b, b) if kind == "ISV" else (c, c)
    mask = random_mask(rng, kind, shape, m)
    fused = run(kind, real, virtual, teacher, mask, delta, reduction, metric, True)
    ref = run(kind, real, virtual, teacher, mask, delta, reduction, metric, False)
    for x, y in zip(fused, ref):
        assert_same_bits(x, y)


# -- exactness -----------------------------------------------------------


CONFIGS = [(m, reduction, metric)
           for m in (50.0, 95.0, 100.0, None)
           for reduction in ("mean_over_kept", "sum")
           for metric in ("huber", "mse")]


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_fused_path_is_bit_identical_to_composite(kind):
    rng = np.random.default_rng(7 if kind == "ISV" else 8)
    for m, reduction, metric in CONFIGS:
        for _ in range(3):
            b, c = (int(n) for n in rng.integers(2, 17, size=2))
            check_case(rng, kind, b, c, m, reduction, metric)


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_fused_path_is_bit_identical_at_wide_shape(kind):
    rng = np.random.default_rng(11)
    check_case(rng, kind, 128, 32, 95.0, "mean_over_kept", "huber")


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_fused_path_is_bit_identical_with_zero_norm_fibers(kind):
    # identical views (augmentation with n_ops=0): diagonal fibers are exact
    # zeros, so the l2_normalize zero branch applies in both paths
    rng = np.random.default_rng(12)
    for m, reduction, metric in CONFIGS:
        b, c = (int(n) for n in rng.integers(2, 17, size=2))
        check_case(rng, kind, b, c, m, reduction, metric, same_views=True)


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_fused_path_residuals_beyond_delta(kind):
    # a small delta puts residuals on both branches of the Huber penalty
    rng = np.random.default_rng(13)
    for m in (50.0, None):
        check_case(rng, kind, 9, 6, m, "mean_over_kept", "huber", delta=0.05)


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_all_pruned_mask_warns_and_returns_untaped_zero(kind):
    rng = np.random.default_rng(14)
    b, c = 5, 4
    shape = (b, b) if kind == "ISV" else (c, c)
    mask = EdgeMask(kind, np.zeros(shape, dtype=bool), 50.0, 0.0)
    real, virtual = probs(rng, b, c), probs(rng, b, c)
    teacher = LogitBatch(probs(rng, b, c), probs(rng, b, c))
    with pytest.warns(RuntimeWarning, match="pruned"):
        loss, g_real, g_virtual = run(kind, real, virtual, teacher, mask, 1.0,
                                      "mean_over_kept", "huber", True)
    assert float(loss) == 0.0 and g_real is None and g_virtual is None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = run(kind, real, virtual, teacher, mask, 1.0, "mean_over_kept", "huber", False)
    assert float(ref[0]) == 0.0


# -- one node each ---------------------------------------------------------


def test_each_edge_kind_is_one_tape_node():
    rng = np.random.default_rng(15)
    batch = LogitBatch(Tensor(probs(rng, 6, 4), requires_grad=True),
                       Tensor(probs(rng, 6, 4), requires_grad=True))
    teacher = LogitBatch(probs(rng, 6, 4), probs(rng, 6, 4))
    for kind, builder in BUILDERS.items():
        e_s = builder(batch)
        assert e_s.values.node.op == f"{kind.lower()}_edges"
        assert e_s.values.node.inputs == (batch.real, batch.virtual)
        loss = LOSSES[kind](e_s, builder(teacher), None)
        assert loss.node.op == "masked_edge_loss"
        assert loss.node.inputs == (e_s.values,)


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


@pytest.mark.parametrize("metric", ["huber", "mse"])
@pytest.mark.parametrize("reduction", ["mean_over_kept", "sum"])
@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_edge_loss_finite_difference(kind, reduction, metric):
    rng = np.random.default_rng(17)
    b, c = 4, 3
    shape = (b, b, c) if kind == "ISV" else (c, c, b)
    teacher = EdgeTensor(kind, Tensor(rng.standard_normal(shape) * 0.3))
    mask = random_mask(rng, kind, shape[:2], 75.0)

    def f(x):
        return LOSSES[kind](EdgeTensor(kind, x), teacher, mask, 1.0, reduction, metric)

    for _ in range(5):
        assert finite_diff_check(f, rng.standard_normal(shape) * 0.3) < 1e-6


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_overflowing_logits_name_the_fused_builder(kind):
    real = np.zeros((3, 4))
    virtual = np.zeros((3, 4))
    real[1] = 1e308
    virtual[1] = -1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=f"{kind.lower()}_edges"):
            BUILDERS[kind](LogitBatch(real, virtual))


def test_overflowing_edges_name_the_fused_loss():
    values = np.zeros((3, 3, 2))
    values[0, 1] = 1e308
    student = EdgeTensor("ISV", Tensor(values))
    teacher = EdgeTensor("ISV", Tensor(-values))
    for metric in ("huber", "mse"):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="masked_edge_loss"):
                loss_isv(student, teacher, None, metric=metric)


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
