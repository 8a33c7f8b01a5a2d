import math

import numpy as np
import pytest

from vrm.autodiff import Tensor, finite_diff_check
from vrm.errors import InputError, ParameterError, UsageError
from vrm.graphs import LogitBatch, build_isv_edges, soften
from vrm.losses import VRMWeights, total_loss, uep_masks_for
from vrm.pruning import (
    EdgeMask,
    apply_mask,
    full_mask,
    joint_entropy_matrix,
    mixture_entropy,
    uep_mask,
)

LN2 = math.log(2.0)


def softened_batch(rng, b, c, tau=4.0):
    return soften(LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c))), tau)


def test_mixture_entropy_examples():
    assert mixture_entropy([0.5, 0.5], [0.5, 0.5]) == pytest.approx(LN2, abs=1e-12)
    # disjoint one-hots: mixture is uniform, both endpoints certain
    assert mixture_entropy([1.0, 0.0], [0.0, 1.0]) == pytest.approx(LN2, abs=1e-12)
    assert mixture_entropy([1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)


def test_joint_entropy_matches_individual_entropy_when_aligned():
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(5), size=4)
    lb = LogitBatch(p, p.copy(), softened=True)
    je = joint_entropy_matrix(lb, "ISV")
    for i in range(4):
        h = -(p[i] * np.log(p[i])).sum()
        assert je[i, i] == pytest.approx(h, abs=1e-12)


def test_joint_entropy_orientation_matches_edges():
    rng = np.random.default_rng(1)
    lb = softened_batch(rng, 3, 4)
    je = joint_entropy_matrix(lb, "ISV")
    # entry (i, j) pairs real row j with virtual row i
    expect = mixture_entropy(lb.real.data[2], lb.virtual.data[0])
    assert je[0, 2] == pytest.approx(expect, abs=1e-12)


def test_joint_entropy_symmetry_under_view_swap():
    rng = np.random.default_rng(2)
    lb = softened_batch(rng, 5, 3)
    swapped = LogitBatch(lb.virtual, lb.real, softened=True)
    je = joint_entropy_matrix(lb, "ISV")
    je_swap = joint_entropy_matrix(swapped, "ISV")
    assert np.abs(je - je_swap.T).max() < 1e-15


def test_joint_entropy_jsd_nonnegativity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        lb = softened_batch(rng, 4, 5)
        je = joint_entropy_matrix(lb, "ISV")
        h_r = -(lb.real.data * np.log(lb.real.data)).sum(axis=1)
        h_v = -(lb.virtual.data * np.log(lb.virtual.data)).sum(axis=1)
        # JE[i, j] - (H(real_j) + H(virtual_i)) / 2 >= 0
        margin = je - (h_r[None, :] + h_v[:, None]) / 2.0
        assert margin.min() > -1e-12


def test_joint_entropy_icv_shape_and_symmetry():
    rng = np.random.default_rng(4)
    lb = softened_batch(rng, 6, 4)
    je = joint_entropy_matrix(lb, "ICV")
    assert je.shape == (4, 4)
    swapped = LogitBatch(lb.virtual, lb.real, softened=True)
    assert np.abs(je - joint_entropy_matrix(swapped, "ICV").T).max() < 1e-15


def test_joint_entropy_requires_softened_input():
    rng = np.random.default_rng(5)
    raw = LogitBatch(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
    with pytest.raises(InputError):
        joint_entropy_matrix(raw, "ISV")


def test_uep_mask_hand_example():
    je = np.array([[0.1, 0.9], [0.5, 0.7]])
    mask = uep_mask(je, 50.0)
    assert mask.threshold_value == pytest.approx(0.5)
    assert mask.keep.tolist() == [[True, False], [True, False]]
    assert mask.kept_count == 2


def test_uep_mask_full_percentile_keeps_all():
    rng = np.random.default_rng(6)
    je = rng.standard_normal((5, 5))
    assert uep_mask(je, 100.0).keep.all()


def test_uep_mask_tie_saturation():
    mask = uep_mask(np.full((4, 4), 2.5), 25.0)
    assert mask.kept_count == 16


@pytest.mark.parametrize("m", [50.0, 75.0, 90.0, 95.0, 100.0])
def test_uep_retention_counts_nearest_rank(m):
    rng = np.random.default_rng(int(m))
    for _ in range(20):
        n0, n1 = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        je = rng.standard_normal((n0, n1))  # ties have probability zero
        mask = uep_mask(je, m)
        n = je.size
        # nearest-rank scalar re-implementation
        flat = sorted(float(v) for v in je.ravel())
        rank = math.ceil(m / 100.0 * n)
        threshold = flat[rank - 1]
        expected = sum(1 for v in flat if v <= threshold)
        assert mask.kept_count == expected == rank
        assert mask.kept_count == n - math.floor((100.0 - m) / 100.0 * n)


def test_uep_mask_validation():
    with pytest.raises(ParameterError):
        uep_mask(np.ones((2, 2)), 0.0)
    with pytest.raises(ParameterError):
        uep_mask(np.ones((2, 2)), 101.0)
    with pytest.raises(InputError):
        uep_mask(np.empty((0, 0)), 50.0)


def test_apply_mask_shapes_and_kinds():
    rng = np.random.default_rng(7)
    edges = build_isv_edges(softened_batch(rng, 4, 3))
    wrong_kind = EdgeMask("ICV", np.ones((4, 4), bool), 50.0, 0.0)
    with pytest.raises(UsageError):
        apply_mask(edges, wrong_kind)
    wrong_shape = EdgeMask("ISV", np.ones((3, 3), bool), 50.0, 0.0)
    with pytest.raises(UsageError):
        apply_mask(edges, wrong_shape)


def test_apply_mask_zeroes_values_and_gradients():
    rng = np.random.default_rng(8)
    lb = softened_batch(rng, 4, 3)
    keep = rng.random((4, 4)) > 0.5
    keep[0, 0] = False
    mask = EdgeMask("ISV", keep, 50.0, 0.0)

    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)

    def masked_sum(t):
        probs = soften(LogitBatch(t, lb.virtual.detach()), 4.0)
        return (apply_mask(build_isv_edges(probs), mask) * Tensor(np.ones((4, 4, 3)))).sum()

    masked = apply_mask(build_isv_edges(lb), mask)
    assert np.array_equal(masked.data[~keep], np.zeros((int((~keep).sum()), 3)))
    assert finite_diff_check(masked_sum, x) < 1e-4


def test_full_mask_matches_unmasked_loss():
    rng = np.random.default_rng(9)
    lb = softened_batch(rng, 5, 4)
    edges = build_isv_edges(lb)
    assert full_mask(edges).kept_count == 25
    masked = apply_mask(edges, full_mask(edges))
    assert np.array_equal(masked.data, edges.values.data)


def test_mask_construction_carries_no_gradient():
    # finite differences agree with autodiff when the mask is frozen,
    # so mask construction contributes nothing to the gradient
    rng = np.random.default_rng(10)
    b, c = 4, 3
    base = rng.standard_normal((2 * b, c))
    weights = VRMWeights(alpha=4.0, beta=2.0)
    frozen = uep_masks_for(LogitBatch(base[:b], base[b:]), weights)
    teacher = LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c)))
    labels = rng.integers(0, c, size=b)

    from vrm.autodiff import row_slice

    def objective(t):
        student = LogitBatch(row_slice(t, 0, b), row_slice(t, b, 2 * b))
        return total_loss(student, teacher, labels, weights, masks=frozen).total

    assert finite_diff_check(objective, Tensor(base)) < 1e-4


def test_uep_masks_recomputed_from_student():
    rng = np.random.default_rng(11)
    b, c = 5, 4
    weights = VRMWeights(uep_percentile=80.0)
    batch1 = LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c)))
    batch2 = LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c)))
    m1, _ = uep_masks_for(batch1, weights)
    m2, _ = uep_masks_for(batch2, weights)
    assert not np.array_equal(m1.keep, m2.keep)
    m1_again, _ = uep_masks_for(batch1, weights)
    assert np.array_equal(m1.keep, m1_again.keep)


def test_uep_cutoff_matches_full_sort_with_ties():
    # the cutoff is a selection, not a sort: same threshold and mask as the
    # value at nearest rank of the ascending sort, ties at the cutoff included
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        je = rng.integers(0, 4, size=(n, n)).astype(float)  # heavy ties
        for m in (1.0, 25.0, 50.0, 95.0, 99.9, 100.0):
            rank = math.ceil(m / 100.0 * je.size)
            expected = np.sort(je, axis=None)[rank - 1]
            mask = uep_mask(je, m)
            assert mask.threshold_value == expected
            assert np.array_equal(mask.keep, je <= expected)
    assert uep_mask(je, 100.0).keep.all()
