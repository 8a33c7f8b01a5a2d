import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrm import autodiff as ad
from vrm.autodiff import Tensor, backward, finite_diff_check, row_slice
from vrm.errors import InputError, ParameterError, UsageError
from vrm.graphs import LogitBatch, build_icv_edges, build_isv_edges, soften
from vrm.losses import (
    LossBreakdown,
    VRMWeights,
    loss_icv,
    loss_isv,
    total_loss,
    uep_masks_for,
)
from vrm.models import MLP, MLPSpec
from vrm.pruning import EdgeMask, joint_entropy_matrix, uep_mask
from vrm.training import OBJECTIVES, TrainConfig, teacher_side


def raw_pair(rng, b, c):
    student = LogitBatch(Tensor(rng.standard_normal((b, c)), requires_grad=True),
                         Tensor(rng.standard_normal((b, c)), requires_grad=True))
    teacher = LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c)))
    return student, teacher


def scalar_loop_loss(e_s, e_t, keep, delta=1.0):
    total, kept = 0.0, 0
    n0, n1, fl = e_s.shape
    for i in range(n0):
        for j in range(n1):
            if keep is not None and not keep[i, j]:
                continue
            kept += 1
            for k in range(fl):
                r = e_s[i, j, k] - e_t[i, j, k]
                if abs(r) <= delta:
                    total += 0.5 * r * r
                else:
                    total += delta * (abs(r) - 0.5 * delta)
    return total / (kept * fl) if kept else 0.0


def test_weights_validation():
    VRMWeights()  # defaults are legal
    for kw in (dict(alpha=-1.0), dict(beta=-0.5), dict(tau=0.0), dict(huber_delta=0.0),
               dict(uep_percentile=0.0), dict(uep_percentile=101.0)):
        with pytest.raises(ParameterError):
            VRMWeights(**kw)


def test_loss_isv_zero_at_equal_edges():
    rng = np.random.default_rng(0)
    lb = soften(LogitBatch(rng.standard_normal((4, 3)), rng.standard_normal((4, 3))), 4.0)
    e = build_isv_edges(lb)
    assert loss_isv(e, e).item() == 0.0


def test_loss_isv_single_fiber_value():
    # one kept fiber, residual 0.5 everywhere, C=2, delta=1, mean reduction:
    # per-element huber 0.125
    vals_s = np.zeros((2, 2, 2))
    vals_t = np.zeros((2, 2, 2))
    vals_s[0, 1] = 0.5
    from vrm.graphs import EdgeTensor
    e_s = EdgeTensor("ISV", Tensor(vals_s))
    e_t = EdgeTensor("ISV", Tensor(vals_t))
    keep = np.zeros((2, 2), bool)
    keep[0, 1] = True
    mask = EdgeMask("ISV", keep, 25.0, 0.0)
    assert loss_isv(e_s, e_t, mask).item() == pytest.approx(0.125, abs=1e-15)


def test_masked_losses_match_scalar_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        b, c = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        lb_s = soften(LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c))), 4.0)
        lb_t = soften(LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c))), 4.0)
        e_s, e_t = build_isv_edges(lb_s), build_isv_edges(lb_t)
        keep = rng.random((b, b)) > 0.5
        keep[0, 0] = True  # at least one fiber
        mask = EdgeMask("ISV", keep, 50.0, 0.0)
        got = loss_isv(e_s, e_t, mask).item()
        want = scalar_loop_loss(e_s.values.data, e_t.values.data, keep)
        assert got == pytest.approx(want, abs=1e-12)

        f_s, f_t = build_icv_edges(lb_s), build_icv_edges(lb_t)
        keep_c = rng.random((c, c)) > 0.5
        keep_c[0, 0] = True
        mask_c = EdgeMask("ICV", keep_c, 50.0, 0.0)
        got = loss_icv(f_s, f_t, mask_c).item()
        want = scalar_loop_loss(f_s.values.data, f_t.values.data, keep_c)
        assert got == pytest.approx(want, abs=1e-12)


def test_all_true_mask_equals_unmasked():
    rng = np.random.default_rng(2)
    lb_s = soften(LogitBatch(rng.standard_normal((4, 3)), rng.standard_normal((4, 3))), 4.0)
    lb_t = soften(LogitBatch(rng.standard_normal((4, 3)), rng.standard_normal((4, 3))), 4.0)
    e_s, e_t = build_isv_edges(lb_s), build_isv_edges(lb_t)
    unmasked = loss_isv(e_s, e_t, None).item()
    keep_all = uep_mask(joint_entropy_matrix(lb_s, "ISV"), 100.0)
    masked = loss_isv(e_s, e_t, keep_all).item()
    assert masked == pytest.approx(unmasked, abs=1e-15)


def test_all_false_mask_returns_zero_with_warning():
    rng = np.random.default_rng(3)
    lb = soften(LogitBatch(rng.standard_normal((3, 3)), rng.standard_normal((3, 3))), 4.0)
    e = build_isv_edges(lb)
    mask = EdgeMask("ISV", np.zeros((3, 3), bool), 50.0, 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = loss_isv(e, e, mask)
    assert value.item() == 0.0
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)


def test_loss_kind_guards():
    rng = np.random.default_rng(4)
    lb = soften(LogitBatch(rng.standard_normal((3, 3)), rng.standard_normal((3, 3))), 4.0)
    e_isv, e_icv = build_isv_edges(lb), build_icv_edges(lb)
    with pytest.raises(UsageError):
        loss_isv(e_icv, e_icv)
    with pytest.raises(UsageError):
        loss_icv(e_isv, e_isv)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(b=st.integers(2, 16), c=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
       alpha=st.floats(0.0, 1000.0), beta=st.floats(0.0, 1000.0), tau=st.floats(0.1, 20.0),
       delta=st.floats(0.01, 5.0), m=st.floats(1.0, 100.0),
       masks=st.sampled_from(["none", "random", "all-pruned"]))
def test_total_loss_identity_and_teacher_clone(b, c, seed, alpha, beta, tau, delta, m, masks):
    rng = np.random.default_rng(seed)
    w = VRMWeights(alpha=alpha, beta=beta, tau=tau, huber_delta=delta, uep_percentile=m)
    logits = [rng.standard_normal((b, c)) * rng.uniform(0.1, 10.0) for _ in range(2)]
    teacher = LogitBatch(*logits)
    labels = rng.integers(0, c, size=b)
    frozen = None
    if masks != "none":
        keep_share = rng.uniform() if masks == "random" else 0.0
        frozen = (EdgeMask("ISV", rng.random((b, b)) < keep_share, m, 0.0),
                  EdgeMask("ICV", rng.random((c, c)) < keep_share, m, 0.0))
    student, _ = raw_pair(rng, b, c)
    # a student cloned from the teacher, with its own tape
    clone = LogitBatch(*(Tensor(z.copy(), requires_grad=True) for z in logits))
    for views in (student, clone):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # all edges pruned
            bd = total_loss(views, teacher, labels, w, masks=frozen)
        # exactly as the LossBreakdown docstring writes it
        assert bd.total.item() == (bd.ce_real.item() + bd.ce_virtual.item()
                                   + w.alpha * bd.isv.item() + w.beta * bd.icv.item())
    # the clone matches every relation, and its labels still cost
    assert bd.isv.item() + bd.icv.item() < 1e-10
    assert bd.ce_real.item() > 0.0


def test_total_loss_zero_weights_degenerate():
    rng = np.random.default_rng(8)
    student, teacher = raw_pair(rng, 4, 3)
    labels = rng.integers(0, 3, size=4)
    bd = total_loss(student, teacher, labels, VRMWeights(alpha=0.0, beta=0.0))
    assert bd.total.item() == bd.ce_real.item() + bd.ce_virtual.item()


def test_total_loss_paper_default_weights_gradcheck():
    rng = np.random.default_rng(9)
    b, c = 8, 10
    w = VRMWeights()  # alpha=128, beta=32, tau=4
    base = rng.standard_normal((2 * b, c))
    teacher = LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c)))
    labels = rng.integers(0, c, size=b)
    frozen = uep_masks_for(LogitBatch(base[:b], base[b:]), w)

    def objective(t):
        student = LogitBatch(row_slice(t, 0, b), row_slice(t, b, 2 * b))
        bd = total_loss(student, teacher, labels, w, masks=frozen)
        lhs = bd.total.item()
        rhs = (bd.ce_real.item() + bd.ce_virtual.item()
               + w.alpha * bd.isv.item() + w.beta * bd.icv.item())
        assert lhs == pytest.approx(rhs, abs=1e-12)
        return bd.total

    assert finite_diff_check(objective, Tensor(base)) < 1e-4


def test_total_loss_gradients_reach_student_only():
    rng = np.random.default_rng(10)
    student, teacher = raw_pair(rng, 4, 3)
    labels = rng.integers(0, 3, size=4)
    bd = total_loss(student, teacher, labels, VRMWeights(alpha=8.0, beta=2.0))
    backward(bd.total)
    assert student.real.grad is not None and np.abs(student.real.grad).max() > 0
    assert student.virtual.grad is not None
    assert teacher.real.grad is None and teacher.virtual.grad is None


def test_total_loss_per_sample_shift_invariance():
    rng = np.random.default_rng(11)
    b, c = 5, 4
    student, teacher = raw_pair(rng, b, c)
    labels = rng.integers(0, c, size=b)
    w = VRMWeights(alpha=16.0, beta=4.0)
    masks = uep_masks_for(student, w)
    bd0 = total_loss(student, teacher, labels, w, masks=masks)
    shifts = rng.standard_normal((b, 1))
    shifted = LogitBatch(Tensor(student.real.data + shifts), Tensor(student.virtual.data + shifts))
    bd1 = total_loss(shifted, teacher, labels, w, masks=masks)
    assert bd1.isv.item() == pytest.approx(bd0.isv.item(), abs=1e-12)
    assert bd1.icv.item() == pytest.approx(bd0.icv.item(), abs=1e-12)


def test_total_loss_batch_permutation_invariance():
    rng = np.random.default_rng(12)
    b, c = 6, 4
    student, teacher = raw_pair(rng, b, c)
    labels = rng.integers(0, c, size=b)
    w = VRMWeights(alpha=16.0, beta=4.0)
    bd0 = total_loss(student, teacher, labels, w)
    perm = rng.permutation(b)
    student_p = LogitBatch(student.real.data[perm], student.virtual.data[perm])
    teacher_p = LogitBatch(teacher.real.data[perm], teacher.virtual.data[perm])
    bd1 = total_loss(student_p, teacher_p, labels[perm], w)
    for field in ("total", "ce_real", "ce_virtual", "isv", "icv"):
        assert getattr(bd1, field).item() == pytest.approx(getattr(bd0, field).item(), abs=1e-12)
    assert (bd1.kept_isv, bd1.kept_icv) == (bd0.kept_isv, bd0.kept_icv)


def test_total_loss_rejects_softened_and_mismatched():
    rng = np.random.default_rng(13)
    student, teacher = raw_pair(rng, 4, 3)
    labels = rng.integers(0, 3, size=4)
    with pytest.raises(InputError):
        total_loss(soften(student, 4.0), teacher, labels, VRMWeights())
    bad_teacher = LogitBatch(rng.standard_normal((5, 3)), rng.standard_normal((5, 3)))
    with pytest.raises(InputError):
        total_loss(student, bad_teacher, labels, VRMWeights())


# instance matching is the OBJECTIVES["im_kd"] training objective: label CE
# plus the softened KL from the teacher on the real view, logged as isv


def im_kd_case(seed, b, c, dim=4):
    rng = np.random.default_rng(seed)
    xb = rng.standard_normal((b, dim))
    yb = rng.integers(0, c, size=b)
    return MLP(MLPSpec([dim, 5, c], "relu", seed)), xb, yb


def im_kd_loss(student, teacher, xb, yb, config):
    """The im_kd (loss, row) on batch ``xb``, its teacher side made by the
    function a run makes it with."""
    xv, t_side = teacher_side("im_kd", teacher, config)((0, 0), xb)
    return OBJECTIVES["im_kd"].loss(student, t_side, xb, yb, xv, config)


def test_im_kd_examples():
    student, xb, yb = im_kd_case(16, 4, 3)
    teacher = MLP(MLPSpec([4, 6, 3], "relu", 99))
    _, row = im_kd_loss(student, MLP(student.spec), xb, yb, TrainConfig())
    assert row["isv"] == pytest.approx(0.0, abs=1e-14)
    assert (row["kept_isv_frac"], row["kept_icv_frac"]) == (1.0, 1.0)

    zero_w = TrainConfig(im_kd_weight=0.0)
    loss, row = im_kd_loss(student, teacher, xb, yb, zero_w)
    assert row["isv"] > 0.0 and row["ce_virtual"] == 0.0 and row["icv"] == 0.0
    ce = ad.cross_entropy(Tensor(student.logits(xb)), yb).item()
    assert loss.item() == pytest.approx(ce, abs=1e-12)

    def f(w):
        student.weights[-1] = w
        return im_kd_loss(student, teacher, xb, yb, TrainConfig())[0]

    assert finite_diff_check(f, student.weights[-1].data) < 1e-4


def test_im_kd_matches_scalar_oracle():
    b, c, tau = 3, 4, 2.0
    student, xb, yb = im_kd_case(17, b, c)
    teacher = MLP(MLPSpec([4, 6, c], "relu", 98))
    config = TrainConfig(weights=VRMWeights(tau=tau), im_kd_weight=0.7)
    loss, row = im_kd_loss(student, teacher, xb, yb, config)

    def kl_rows(zt, zs):
        total = 0.0
        for i in range(zt.shape[0]):
            pt = np.exp(zt[i] / tau) / np.exp(zt[i] / tau).sum()
            ps = np.exp(zs[i] / tau) / np.exp(zs[i] / tau).sum()
            total += (pt * np.log(pt / ps)).sum()
        return tau * tau * total / zt.shape[0]

    want = kl_rows(teacher.logits(xb), student.logits(xb))
    assert row["isv"] == pytest.approx(want, rel=1e-10)
    assert loss.item() == pytest.approx(row["ce_real"] + 0.7 * want, rel=1e-12)


def test_uep_masks_equal_on_raw_and_softened_student():
    rng = np.random.default_rng(31)
    for b, c in ((2, 2), (8, 10), (32, 10), (17, 5)):
        raw = LogitBatch(rng.standard_normal((b, c)) * 3.0, rng.standard_normal((b, c)) * 3.0)
        for w in (VRMWeights(), VRMWeights(tau=1.0, uep_percentile=50.0),
                  VRMWeights(uep_percentile=100.0)):
            from_raw = uep_masks_for(raw, w)
            from_soft = uep_masks_for(soften(raw, w.tau), w)
            for m_raw, m_soft in zip(from_raw, from_soft):
                assert m_raw.kind == m_soft.kind
                assert np.array_equal(m_raw.keep, m_soft.keep)
                assert m_raw.threshold_value == m_soft.threshold_value
