import math

import numpy as np
import pytest

from vrm import autodiff as ad
from vrm.autodiff import Tensor, backward, finite_diff_check
from vrm.errors import InputError, NumericError, ParameterError, UsageError
from vrm.graphs import build_inter_sample_edges


def test_tensor_rejects_non_finite():
    with pytest.raises(InputError):
        Tensor([1.0, np.inf])
    with pytest.raises(InputError):
        Tensor([np.nan])


def test_softmax_uniform_logits():
    p = ad.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    assert np.allclose(p.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_closed_form_values():
    # exp(z/2)/sum for z=[2,0,0]: e/(e+2), 1/(e+2), 1/(e+2)
    p = ad.softmax(Tensor([2.0, 0.0, 0.0]), axis=0, tau=2.0)
    e = math.exp(1.0)
    expected = np.array([e, 1.0, 1.0]) / (e + 2.0)
    assert np.allclose(p.data, expected, atol=1e-15)


def test_softmax_temperature_flattens_monotonically():
    z = Tensor([1.0, 0.0])
    gaps = [ad.softmax(z, axis=0, tau=t).data[0] - 0.5 for t in (1.0, 4.0, 16.0, 64.0)]
    assert all(a > b > 0 for a, b in zip(gaps, gaps[1:]))


def test_softmax_sums_and_shift_invariance():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((5, 7))
    p = ad.softmax(Tensor(z), axis=1, tau=3.0)
    assert np.abs(p.data.sum(axis=1) - 1.0).max() < 1e-12
    shifted = ad.softmax(Tensor(z + 13.7), axis=1, tau=3.0)
    assert np.abs(p.data - shifted.data).max() < 1e-12


def test_softmax_rejects_bad_tau():
    with pytest.raises(ParameterError):
        ad.softmax(Tensor([1.0, 2.0]), axis=0, tau=0.0)
    with pytest.raises(ParameterError):
        ad.softmax(Tensor([1.0, 2.0]), axis=0, tau=-1.0)


def test_l2_normalize_examples():
    out = ad.l2_normalize(Tensor([3.0, 4.0]), axis=0)
    assert np.allclose(out.data, [0.6, 0.8], atol=1e-15)
    out = ad.l2_normalize(Tensor([1.0, -1.0]), axis=0)
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(out.data, [r, -r], atol=1e-15)
    out = ad.l2_normalize(Tensor([0.0, 0.0]), axis=0)
    assert np.array_equal(out.data, [0.0, 0.0])


def test_l2_normalize_zero_branch_has_zero_gradient():
    x = Tensor(np.zeros(3), requires_grad=True)
    backward(ad.l2_normalize(x, axis=0).sum())
    assert np.array_equal(x.grad, np.zeros(3))


def test_huber_rejects_bad_delta():
    # a NaN delta too, which no comparison passes
    for delta in (0.0, -1.0, math.nan):
        with pytest.raises(ParameterError, match="huber delta must be positive"):
            ad.huber(Tensor([1.0]), Tensor([0.0]), delta=delta)


def test_huber_branch_values():
    z = Tensor([0.0])
    assert ad.huber(Tensor([0.5]), z, 1.0).data[0] == pytest.approx(0.125, abs=1e-15)
    assert ad.huber(Tensor([2.0]), z, 1.0).data[0] == pytest.approx(1.5, abs=1e-15)
    same = Tensor(np.linspace(-2, 2, 9))
    assert np.array_equal(ad.huber(same, same, 1.0).data, np.zeros(9))


def test_huber_symmetry_and_mse_region():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(50), rng.standard_normal(50)
    d = 2.0
    ab = ad.huber(Tensor(a), Tensor(b), d).data
    ba = ad.huber(Tensor(b), Tensor(a), d).data
    assert np.array_equal(ab, ba)
    small = np.clip(a - b, -0.5, 0.5)
    inside = ad.huber(Tensor(b + small), Tensor(b), 1.0).data
    assert np.abs(inside - 0.5 * small**2).max() < 1e-15


def test_huber_gradient_branches():
    for value, expected in ((0.5, 0.5), (2.0, 1.0), (-3.0, -1.0)):
        x = Tensor([value], requires_grad=True)
        backward(ad.huber(x, Tensor([0.0]), 1.0).sum())
        assert x.grad[0] == pytest.approx(expected, abs=1e-15)


def test_cross_entropy_uniform_and_confident():
    logits = np.zeros((4, 10))
    val = ad.cross_entropy(Tensor(logits), np.array([3, 1, 0, 9])).item()
    assert val == pytest.approx(math.log(10.0), abs=1e-12)
    big = np.full((2, 3), -50.0)
    big[0, 1] = big[1, 2] = 50.0
    assert ad.cross_entropy(Tensor(big), np.array([1, 2])).item() < 1e-12


def test_cross_entropy_matches_per_sample_oracle():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((2, 3))
    labels = np.array([2, 0])
    total = 0.0
    for i in range(2):
        row = logits[i]
        total += -math.log(math.exp(row[labels[i]]) / np.exp(row).sum())
    got = ad.cross_entropy(Tensor(logits), labels).item()
    assert got == pytest.approx(total / 2.0, rel=1e-12)


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(InputError):
        ad.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(InputError):
        ad.cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, 0]))


def test_kld_zero_at_identical_and_closed_form():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, 6))
    assert ad.kld(Tensor(z), Tensor(z.copy()), tau=2.0).item() == pytest.approx(0.0, abs=1e-15)
    # two-class closed form: KL([1,0] vs [0,1] logits, tau=1) = tanh(1/2)
    v = ad.kld(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]), tau=1.0).item()
    assert v == pytest.approx(math.tanh(0.5), rel=1e-12)


def test_kld_shift_invariance_and_nonnegativity():
    rng = np.random.default_rng(4)
    zt, zs = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    base = ad.kld(Tensor(zt), Tensor(zs), tau=3.0).item()
    shifts = rng.standard_normal((5, 1))
    shifted = ad.kld(Tensor(zt + shifts), Tensor(zs), tau=3.0).item()
    assert shifted == pytest.approx(base, abs=1e-12)
    assert base >= 0.0


def test_backward_sum_gradient():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    backward(x.sum())
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_returns_gradient_map():
    x = Tensor([1.0, -1.0], requires_grad=True)
    y = Tensor([2.0, 3.0], requires_grad=True)
    grads = backward((x * y).sum())
    assert np.array_equal(grads[id(x)], y.data)
    assert np.array_equal(grads[id(y)], x.data)


def test_backward_shared_subexpression():
    # y = x*x + x: gradient 2x + 1, exercising gradient accumulation
    x = Tensor([0.5, -2.0], requires_grad=True)
    y = (x * x + x).sum()
    backward(y)
    assert np.allclose(x.grad, 2 * x.data + 1, atol=1e-15)


def test_backward_usage_errors():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(UsageError):
        backward(x * 2.0)  # non-scalar
    with pytest.raises(UsageError):
        backward(Tensor(3.0))  # no tape
    s = x.sum()
    backward(s)
    with pytest.raises(UsageError):
        backward(s)


def test_no_grad_suppresses_tape():
    x = Tensor([1.0], requires_grad=True)
    with ad.no_grad():
        y = x * 2.0
    assert y.node is None and not y.requires_grad


def test_tape_orders_inputs_before_consumers():
    x = Tensor([1.0], requires_grad=True)
    y = x * 3.0
    z = (y + x).sum()
    tape = ad.Tape.trace(z)
    pos = {id(t): i for i, t in enumerate(tape.nodes)}
    for t in tape.nodes:
        if t.node is not None:
            assert all(pos[id(i)] < pos[id(t)] for i in t.node.inputs if id(i) in pos)


def test_finite_diff_exact_quadratic():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(8)
    err = finite_diff_check(lambda t: (t * t).sum() * 0.5, Tensor(x))
    assert err < 1e-8


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [0, 5])
def test_finite_diff_check_fails_a_non_finite_gradient_entry(bad, entry):
    # one entry of the reverse-mode gradient of sum(t^2)/2 is made non-finite;
    # max() over a NaN error would keep the finite ones
    def f(t):
        out = (t * t * 0.5).sum()
        if out.node is not None:  # the reverse-mode side, not the difference side
            grad_fn = out.node.grad_fn

            def spoiled(g):
                (grad,) = grad_fn(g)
                grad = np.array(grad, dtype=float)
                grad.flat[entry] = bad
                return (grad,)

            out.node.grad_fn = spoiled
        return out

    x = np.random.default_rng(6).standard_normal(8)
    assert finite_diff_check(f, Tensor(x)) == np.inf


@pytest.mark.parametrize("seed", range(5))
def test_finite_diff_cross_entropy(seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=4)
    err = finite_diff_check(lambda t: ad.cross_entropy(t, labels), Tensor(rng.standard_normal((4, 3))))
    assert err < 1e-5


def test_finite_diff_each_op_20_instances():
    # every exported differentiable op, 20 seeded instances each
    rng = np.random.default_rng(7)
    proj = rng.standard_normal((4, 5))
    kld_teacher = rng.standard_normal((4, 5))
    mat = rng.standard_normal((5, 2))
    cases = [
        lambda t: (ad.softmax(t, axis=1, tau=2.5) * Tensor(proj)).sum(),
        lambda t: (ad.l2_normalize(t, axis=1) * Tensor(proj)).sum(),
        lambda t: ad.huber(t, Tensor(np.zeros((4, 5))), 0.8).sum(),
        lambda t: ad.kld(Tensor(kld_teacher), t, tau=3.0),
        lambda t: ad.tanh(t).sum(),
        lambda t: ad.relu(t + 0.123).sum(),
        lambda t: ((t @ Tensor(mat)) * (t @ Tensor(mat))).mean(),
        lambda t: (t.transpose() @ Tensor(proj)).sum(),
        lambda t: (ad.row_slice(t, 1, 3) * ad.row_slice(t, 0, 2)).sum(),
    ]
    for fn in cases:
        for seed in range(20):
            x = np.random.default_rng(seed).standard_normal((4, 5))
            assert finite_diff_check(fn, Tensor(x)) < 1e-4


def test_matmul_gradients():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    err = finite_diff_check(lambda t: (t @ Tensor(b)).sum(), Tensor(a))
    assert err < 1e-8
    err = finite_diff_check(lambda t: (Tensor(a) @ t).sum(), Tensor(b))
    assert err < 1e-8


def test_broadcast_add_unbroadcasts_gradient():
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    bias = Tensor(np.ones(4), requires_grad=True)
    backward((x + bias).sum())
    assert np.array_equal(bias.grad, np.full(4, 3.0))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def affine_case(rng, x_grad, row_bias):
    n, d, h = (int(v) for v in rng.integers(1, 9, size=3))
    x = Tensor(rng.standard_normal((n, d)), requires_grad=x_grad)
    w = Tensor(rng.standard_normal((d, h)), requires_grad=True)
    b = Tensor(rng.standard_normal((1, h) if row_bias else h), requires_grad=True)
    return x, w, b


def leaf_grads(out, leaves, upstream):
    backward((out * Tensor(upstream)).sum())
    grads = [None if t.grad is None else t.grad.copy() for t in leaves]
    for t in leaves:
        t.grad = None
    return grads


@pytest.mark.parametrize("x_grad", [True, False])
def test_affine_is_bit_identical_to_matmul_then_add(x_grad):
    rng = np.random.default_rng(21)
    for trial in range(30):
        x, w, b = affine_case(rng, x_grad, row_bias=trial % 2 == 1)
        upstream = rng.standard_normal((x.shape[0], w.shape[1]))
        fused = ad.affine(x, w, b)
        composite = ad.add(ad.matmul(x, w), b)
        assert np.array_equal(fused.data, composite.data)
        g_fused = leaf_grads(fused, (x, w, b), upstream)
        g_comp = leaf_grads(composite, (x, w, b), upstream)
        for gf, gc in zip(g_fused, g_comp):
            if gc is None:
                assert gf is None
            else:
                assert np.array_equal(gf, gc)
                assert np.array_equal(np.signbit(gf), np.signbit(gc))
        assert fused.node.op == "affine" and len(fused.node.inputs) == 3


def test_affine_gradients_against_finite_differences():
    rng = np.random.default_rng(22)
    x, w, b = (rng.standard_normal(s) for s in ((5, 4), (4, 3), (3,)))
    up = rng.standard_normal((5, 3))
    assert finite_diff_check(lambda t: (ad.affine(t, Tensor(w), Tensor(b)) * up).sum(), x) < 1e-6
    assert finite_diff_check(lambda t: (ad.affine(Tensor(x), t, Tensor(b)) * up).sum(), w) < 1e-6
    assert finite_diff_check(lambda t: (ad.affine(Tensor(x), Tensor(w), t) * up).sum(), b) < 1e-6


def test_affine_overflow_names_the_op():
    x = Tensor([[1e308, 1e308], [-1e308, -1e308]])
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="affine"):
        ad.affine(x, Tensor(np.ones((2, 3))), Tensor(np.zeros(3)))
    with pytest.raises(UsageError):
        ad.affine(Tensor(np.ones(3)), Tensor(np.ones((3, 2))), Tensor(np.zeros(2)))


# finite inputs each op turns non-finite; affine and the fused edge terms
# have their own tests (above, and test_overflowing_views_name_the_term)
OVERFLOWS = [
    ("add", lambda: ad.add(Tensor([1e308]), Tensor([1e308]))),
    ("mul", lambda: ad.mul(Tensor([1e200]), Tensor([1e200]))),
    ("matmul", lambda: ad.matmul(Tensor([[1e308, 1e308]]), Tensor([[1.0], [1.0]]))),
    ("exp", lambda: ad.exp(Tensor([710.0]))),
    ("sum", lambda: ad.tsum(Tensor([1e308, 1e308]))),
    ("mean", lambda: ad.tmean(Tensor([1e308, 1e308]))),
    ("softmax", lambda: ad.softmax(Tensor([[1.0, 2.0]]), tau=1e-308)),
    ("log_softmax", lambda: ad.log_softmax(Tensor([[1.0, 2.0]]), tau=1e-308)),
    # a squared norm that overflows would map its fiber to all zeros
    ("l2_normalize", lambda: ad.l2_normalize(Tensor([[1e200, 1e200]]))),
    ("l2_normalize", lambda: build_inter_sample_edges(np.array([[1e200, 1e200], [-1e200, -1e200]]))),
]


@pytest.mark.parametrize("op, overflow", OVERFLOWS,
                         ids=[op for op, _ in OVERFLOWS[:-1]] + ["l2_normalize-in-edges"])
def test_overflow_names_the_op(op, overflow):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as exc_info:
        overflow()
    assert str(exc_info.value).split(" ", 1)[0] == op


@pytest.mark.parametrize("n_rows, row_elems", [(1, 1), (5, 3), (128, 4096), (131, 3144),
                                               (3, 10**6), (32, 320), (0, 7), (4, 0)])
def test_row_blocks_cover_rows_in_order_within_the_budget(n_rows, row_elems):
    blocks = ad._row_blocks(n_rows, row_elems)
    assert blocks
    assert [i for rows in blocks for i in range(rows.start, rows.stop)] == list(range(n_rows))
    sizes = [rows.stop - rows.start for rows in blocks]
    if n_rows * row_elems * 8 <= ad._BLOCK_BYTES:
        assert sizes == [n_rows]
    else:
        # full blocks hold as many rows as fit, and at least one
        assert all(s == max(1, ad._BLOCK_BYTES // (8 * row_elems)) for s in sizes[:-1])
        assert sizes[0] * row_elems * 8 <= ad._BLOCK_BYTES or sizes[0] == 1
