from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrm.autodiff import Tensor, backward, finite_diff_check, l2_normalize
from vrm.errors import InputError, UsageError
from vrm.graphs import (
    ORACLE_MAX_DIM,
    LogitBatch,
    brute_force_edges,
    build_icv_edges,
    build_inter_class_edges,
    build_inter_sample_edges,
    build_isv_edges,
    soften,
)

R2 = 1.0 / np.sqrt(2.0)


def random_batch(rng, b, c, softened_tau=None):
    lb = LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c)))
    return soften(lb, softened_tau) if softened_tau else lb


def test_inter_sample_hand_instance():
    e = build_inter_sample_edges(Tensor([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(e.values.data[0, 1], [R2, -R2], atol=1e-15)
    assert np.allclose(e.values.data[1, 0], [-R2, R2], atol=1e-15)
    assert np.array_equal(e.values.data[0, 0], [0.0, 0.0])
    assert np.array_equal(e.values.data[1, 1], [0.0, 0.0])


def test_inter_sample_identical_rows_give_zero_fiber():
    z = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])
    e = build_inter_sample_edges(Tensor(z))
    assert np.array_equal(e.values.data[0, 1], np.zeros(3))
    assert np.array_equal(e.values.data[1, 0], np.zeros(3))


def test_inter_sample_rejects_single_row():
    with pytest.raises(InputError):
        build_inter_sample_edges(Tensor([[1.0, 2.0]]))


def test_inter_class_is_role_swap_of_inter_sample():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 6))
    ic = build_inter_class_edges(Tensor(z))
    is_of_t = build_inter_sample_edges(Tensor(z.T))
    assert np.array_equal(ic.values.data, is_of_t.values.data)


def test_inter_class_constant_columns_zero_fiber():
    z = np.ones((5, 3))
    e = build_inter_class_edges(Tensor(z))
    assert np.array_equal(e.values.data, np.zeros((3, 3, 5)))


@pytest.mark.parametrize("kind,b,c", [("IS", 5, 4), ("IC", 4, 5)])
def test_intra_view_oracle_equivalence(kind, b, c):
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = rng.standard_normal((b, c))
        fast = (build_inter_sample_edges if kind == "IS" else build_inter_class_edges)(Tensor(z))
        slow = brute_force_edges(z, kind)
        assert np.abs(fast.values.data - slow.values.data).max() < 1e-12


def test_isv_orientation_and_same_sample_edge():
    rng = np.random.default_rng(2)
    lb = random_batch(rng, 4, 3)
    e = build_isv_edges(lb)
    for i in range(4):
        for j in range(4):
            d = lb.real.data[j] - lb.virtual.data[i]
            n = np.linalg.norm(d)
            assert np.abs(e.values.data[i, j] - d / n).max() < 1e-12
    # the (i, i) real-virtual pair is present, not special-cased away
    assert np.linalg.norm(e.values.data[1, 1]) == pytest.approx(1.0, abs=1e-9)


def test_isv_views_coincide_reduces_to_inter_sample_transpose():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((5, 4))
    lb = LogitBatch(z, z.copy())
    isv = build_isv_edges(lb)
    is_e = build_inter_sample_edges(Tensor(z))
    for i in range(5):
        assert np.array_equal(isv.values.data[i, i], np.zeros(4))
        for j in range(5):
            if i != j:
                assert np.array_equal(isv.values.data[i, j], is_e.values.data[j, i])


def test_isv_single_sample_batch():
    lb = LogitBatch(np.array([[2.0, 0.0]]), np.array([[0.0, 0.0]]))
    e = build_isv_edges(lb)
    assert e.values.shape == (1, 1, 2)
    assert np.allclose(e.values.data[0, 0], [1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_cross_view_oracle_equivalence(kind):
    rng = np.random.default_rng(4)
    build = build_isv_edges if kind == "ISV" else build_icv_edges
    for _ in range(50):
        b = int(rng.integers(2, 9))
        c = int(rng.integers(2, 6))
        lb = random_batch(rng, b, c)
        fast = build(lb)
        slow = brute_force_edges(lb, kind)
        assert np.abs(fast.values.data - slow.values.data).max() < 1e-12


def test_icv_aligned_views_zero_diagonal():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((4, 3))
    e = build_icv_edges(LogitBatch(z, z.copy()))
    for p in range(3):
        assert np.array_equal(e.values.data[p, p], np.zeros(4))


def test_icv_hand_instance_pinned_by_oracle():
    rng = np.random.default_rng(6)
    lb = random_batch(rng, 2, 2)
    fast = build_icv_edges(lb).values.data
    slow = brute_force_edges(lb, "ICV").values.data
    assert np.abs(fast - slow).max() < 1e-12
    d = lb.real.data[:, 1] - lb.virtual.data[:, 0]
    assert np.abs(fast[0, 1] - d / np.linalg.norm(d)).max() < 1e-12


def class_edges_reference(kind, real, virtual):
    """IC or ICV edges as the [B, C, C] difference of class columns,
    transposed to [C, C, B] and normalized along the batch axis."""
    b, c = real.shape
    if kind == "IC":
        diff = real.reshape(b, c, 1) - real.reshape(b, 1, c)
    else:
        diff = real.reshape(b, 1, c) - virtual.reshape(b, c, 1)
    return l2_normalize(diff.transpose((1, 2, 0)), axis=2)


@pytest.mark.parametrize("kind", ["IC", "ICV"])
@pytest.mark.parametrize("shape", [(5, 3), (16, 10), (32, 10), (128, 32), (131, 24)],
                         ids=["5x3", "16x10", "32x10", "128x32", "131x24"])
def test_class_edges_equal_the_transposed_difference_bit_for_bit(kind, shape):
    # the builders form class edges as the inter-sample edges of the class
    # columns; values and view gradients must keep every bit, sign bits too
    rng = np.random.default_rng(shape[0])
    real, virtual = rng.standard_normal(shape), rng.standard_normal(shape)
    # zero fibers: IC (1, 2) and ICV (0, 1) and (0, 2)
    real[:, 2] = real[:, 1] = virtual[:, 0]
    probe = Tensor(rng.standard_normal((shape[1], shape[1], shape[0])))
    build = {"IC": lambda r, v: build_inter_class_edges(r).values,
             "ICV": lambda r, v: build_icv_edges(LogitBatch(r, v)).values}[kind]
    results = []
    for edges in (build, partial(class_edges_reference, kind)):
        r, v = Tensor(real, requires_grad=True), Tensor(virtual, requires_grad=True)
        values = edges(r, v)
        backward((values * probe).sum())
        results.append((values.data, r.grad, v.grad))
    for got, want in zip(*results):
        if want is None:
            assert got is None
            continue
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_batch_permutation_moves_trailing_icv_axis():
    rng = np.random.default_rng(7)
    lb = random_batch(rng, 5, 3)
    perm = np.array([2, 0, 4, 1, 3])
    permuted = LogitBatch(lb.real.data[perm], lb.virtual.data[perm])
    e0 = build_icv_edges(lb).values.data
    e1 = build_icv_edges(permuted).values.data
    # norms are summed in permuted order, so equality holds to the last ulp
    assert np.abs(e1 - e0[:, :, perm]).max() < 1e-15


def test_antisymmetry_is_exact():
    rng = np.random.default_rng(8)
    for _ in range(10):
        z = rng.standard_normal((6, 4))
        e = build_inter_sample_edges(Tensor(z)).values.data
        assert np.abs(e + e.transpose(1, 0, 2)).max() == 0.0
        w = build_inter_class_edges(Tensor(z)).values.data
        assert np.abs(w + w.transpose(1, 0, 2)).max() == 0.0


def test_unit_norm_or_zero_property():
    rng = np.random.default_rng(9)
    for _ in range(10):
        lb = random_batch(rng, 6, 4)
        for e in (build_isv_edges(lb), build_icv_edges(lb),
                  build_inter_sample_edges(lb.real), build_inter_class_edges(lb.real)):
            norms = np.sqrt((e.values.data**2).sum(axis=2))
            ok = (norms == 0.0) | (np.abs(norms - 1.0) < 1e-9)
            assert ok.all()


def test_shift_invariance_of_softened_edges():
    rng = np.random.default_rng(10)
    raw = LogitBatch(rng.standard_normal((5, 4)), rng.standard_normal((5, 4)))
    shifts_r = rng.standard_normal((5, 1))
    shifts_v = rng.standard_normal((5, 1))
    shifted = LogitBatch(raw.real.data + shifts_r, raw.virtual.data + shifts_v)
    e0 = build_isv_edges(soften(raw, 4.0)).values.data
    e1 = build_isv_edges(soften(shifted, 4.0)).values.data
    assert np.abs(e0 - e1).max() < 1e-12


def test_permutation_equivariance_inter_sample():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((6, 3))
    perm = rng.permutation(6)
    e0 = build_inter_sample_edges(Tensor(z)).values.data
    e1 = build_inter_sample_edges(Tensor(z[perm])).values.data
    assert np.array_equal(e1, e0[np.ix_(perm, perm)])


def test_edges_are_differentiable():
    rng = np.random.default_rng(12)
    z = rng.standard_normal((4, 3))
    proj = rng.standard_normal((4, 4, 3))
    err = finite_diff_check(
        lambda t: (build_inter_sample_edges(t).values * Tensor(proj)).sum(), Tensor(z))
    assert err < 1e-4


def test_logit_batch_validation():
    with pytest.raises(InputError):
        LogitBatch(np.zeros((2, 3)), np.zeros((3, 3)))
    with pytest.raises(InputError):
        LogitBatch(np.full((2, 2), 0.4), np.full((2, 2), 0.5), softened=True)
    lb = LogitBatch(np.full((2, 2), 0.5), np.full((2, 2), 0.5), softened=True)
    assert lb.batch_size == 2 and lb.n_classes == 2


def test_soften_rejects_double_softening():
    lb = LogitBatch(np.full((2, 2), 0.5), np.full((2, 2), 0.5), softened=True)
    with pytest.raises(UsageError):
        soften(lb, 4.0)


def test_oracle_guards():
    rng = np.random.default_rng(13)
    with pytest.raises(UsageError):
        brute_force_edges(rng.standard_normal((17, 3)), "IS")
    with pytest.raises(UsageError):
        brute_force_edges(random_batch(rng, 3, 3), "IS")
    with pytest.raises(UsageError):
        brute_force_edges(rng.standard_normal((3, 3)), "ISV")
    with pytest.raises(UsageError):
        brute_force_edges(rng.standard_normal((3, 3)), "bogus")


@st.composite
def tied_batches(draw):
    """A [B, C] real/virtual pair, B and C in [2, 16], with optional exact
    ties: a virtual row equal to a real row (a zero ISV difference), a
    virtual column equal to a real column (a zero ICV difference) and a
    real column constant across the batch."""
    b = draw(st.integers(2, ORACLE_MAX_DIM))
    c = draw(st.integers(2, ORACLE_MAX_DIM))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = rng.standard_normal((b, c))
    virtual = rng.standard_normal((b, c))
    if draw(st.booleans()):
        virtual[draw(st.integers(0, b - 1))] = real[draw(st.integers(0, b - 1))]
    if draw(st.booleans()):
        virtual[:, draw(st.integers(0, c - 1))] = real[:, draw(st.integers(0, c - 1))]
    if draw(st.booleans()):
        real[:, draw(st.integers(0, c - 1))] = draw(st.floats(-3.0, 3.0))
    return LogitBatch(real, virtual)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(batch=tied_batches())
def test_cross_view_builders_match_the_oracle_property(batch):
    for kind, build in (("ISV", build_isv_edges), ("ICV", build_icv_edges)):
        fast = build(batch).values.data
        slow = brute_force_edges(batch, kind).values.data
        assert fast.shape == slow.shape
        assert np.abs(fast - slow).max() < 1e-12
        # a zero difference is the zero fiber in both, exactly
        assert np.array_equal(fast == 0.0, slow == 0.0)
