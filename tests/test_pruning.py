import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vrm.autodiff
import vrm.checks
import vrm.pruning
from vrm.autodiff import Tensor, finite_diff_check
from vrm.errors import InputError, ParameterError, UsageError
from vrm.graphs import LogitBatch, build_isv_edges, soften
from vrm.losses import VRMWeights, total_loss, uep_masks_for
from vrm.pruning import (
    _batch_softmax,
    _exact_entries,
    _grid_inputs,
    _mixture_entropy_grid,
    _nearest_rank,
    _screened_mask,
    EdgeMask,
    apply_mask,
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


def test_uep_cutoff_matches_full_sort_with_ties():
    # the cutoff is a selection, not a sort: same threshold and mask as the
    # value at nearest rank of the ascending sort, ties at the cutoff included
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        je = rng.integers(0, 4, size=(n, n)).astype(float)  # heavy ties
        for m in (1.0, 25.0, 50.0, 95.0, 99.9, 100.0):
            rank = math.ceil(Fraction(m) * je.size / 100)
            expected = np.sort(je, axis=None)[rank - 1]
            mask = uep_mask(je, m)
            assert mask.threshold_value == expected
            assert np.array_equal(mask.keep, je <= expected)
    assert uep_mask(je, 100.0).keep.all()


PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def je_matrices(draw):
    """[n0, n1] joint-entropy stand-ins, n0 and n1 in [1, 8]: distinct
    normal values, or a few integer levels with heavy ties."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.standard_normal(shape)
    return rng.integers(0, draw(st.integers(1, 4)), size=shape).astype(float)


@PROPERTY
@given(je=je_matrices(), m=st.floats(0.0, 100.0, exclude_min=True))
@example(je=np.full((4, 4), 2.5), m=25.0)   # every entry tied with the cutoff
@example(je=np.arange(25.0).reshape(5, 5), m=100.0)
# m/100 * N in floating point lands just above 55 and 7 here
@example(je=np.arange(100.0).reshape(10, 10), m=55.0)
@example(je=np.arange(100.0).reshape(10, 10), m=7.0)
def test_uep_mask_keeps_exactly_the_nearest_rank_cutoff(je, m):
    # the cutoff is the value at 1-based rank ceil(m/100 * N) of the
    # ascending sort, in exact arithmetic; every entry at or below it is
    # kept, ties included
    rank = math.ceil(Fraction(m) * je.size / 100)
    cutoff = np.sort(je, axis=None)[rank - 1]
    mask = uep_mask(je, m)
    assert mask.threshold_value == cutoff
    assert np.array_equal(mask.keep, je <= cutoff)
    assert mask.kept_count >= rank
    if m == 100.0:
        assert mask.keep.all()


@pytest.mark.parametrize("m", [50.0, 75.0, 90.0, 95.0, 100.0])
@PROPERTY
@given(shape=st.tuples(st.integers(1, 8), st.integers(1, 8)), seed=st.integers(0, 2**32 - 1))
def test_uep_retention_counts_nearest_rank(m, shape, seed):
    je = np.random.default_rng(seed).standard_normal(shape)  # ties have probability zero
    n = je.size
    kept = uep_mask(je, m).kept_count
    exact = Fraction(m) * n / 100
    assert kept == math.ceil(exact) == n - math.floor(n - exact)


def test_uep_mask_validation():
    with pytest.raises(ParameterError):
        uep_mask(np.ones((2, 2)), 0.0)
    with pytest.raises(ParameterError):
        uep_mask(np.ones((2, 2)), 101.0)
    with pytest.raises(InputError):
        uep_mask(np.empty((0, 0)), 50.0)
    # a 1-D JE would give a 1-D mask, and a NaN one a NaN threshold that keeps nothing
    for je in (np.ones(3), np.ones((2, 2, 2)), [[np.nan, np.nan], [np.nan, 1.0]],
               [[np.inf, 0.0], [0.0, 1.0]]):
        with pytest.raises(InputError, match="finite and 2-D"):
            uep_mask(je, 100.0)
    with pytest.raises(InputError, match="finite and 2-D"):
        uep_mask(np.ones(3), 50.0)


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
    keep_all = uep_mask(joint_entropy_matrix(lb, "ISV"), 100.0)
    assert keep_all.kept_count == 25
    masked = apply_mask(edges, keep_all)
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


@PROPERTY
@given(shape=st.tuples(st.integers(2, 9), st.integers(2, 6)), seed=st.integers(0, 2**32 - 1),
       m=st.sampled_from([50.0, 95.0, 100.0]))
def test_uep_masks_for_ignores_the_teacher_and_records_no_tape_node(shape, seed, m):
    rng = np.random.default_rng(seed)
    b, c = shape
    weights = VRMWeights(uep_percentile=m)
    student = LogitBatch(Tensor(rng.standard_normal(shape), requires_grad=True),
                         Tensor(rng.standard_normal(shape), requires_grad=True))
    nodes = []

    class CountingNode(vrm.autodiff._Node):
        def __init__(self, *args):
            nodes.append(args[-1])
            super().__init__(*args)

    with mock.patch.object(vrm.autodiff, "_Node", CountingNode):
        masks = uep_masks_for(student, weights)
        assert nodes == []
        soften(student, weights.tau)   # the count sees the ops that do record
    assert nodes == ["softmax", "softmax"]
    # total_loss builds the same masks, whichever teacher it is given
    labels = rng.integers(0, c, size=b)
    for _ in range(2):
        teacher = LogitBatch(rng.standard_normal(shape), rng.standard_normal(shape))
        own = total_loss(student, teacher, labels, weights)
        given_masks = total_loss(student, teacher, labels, weights, masks=masks)
        assert (own.kept_isv, own.kept_icv) == (masks[0].kept_count, masks[1].kept_count)
        assert np.array_equal(own.total.data, given_masks.total.data)


# -- blocked joint-entropy grid ------------------------------------------


def reference_grid(P, Q):
    """The whole-tensor mixture-entropy grid the row-blocked one replaces."""
    mix = P[None, :, :] + Q[:, None, :]
    mix /= 2.0
    pos = mix > 0.0
    plogp = np.where(pos, mix, 1.0)
    np.log(plogp, out=plogp)
    plogp *= mix
    np.copyto(plogp, 0.0, where=~pos)
    return -plogp.sum(axis=2)


def reference_joint_entropy(batch, kind):
    real, virt = batch.real.data, batch.virtual.data
    if kind == "ISV":
        return reference_grid(real, virt)
    return reference_grid(_batch_softmax(real).T, _batch_softmax(virt).T)


def with_zero_mixture_entry(rng, b, c, kind):
    """A softened batch with an exact-zero mixture entry: for ISV one class
    at zero in a real row and a virtual row, for ICV a dominant sample
    whose batch softmax underflows the rest of two class columns to zero."""
    lb = softened_batch(rng, b, c)
    real, virt = lb.real.data.copy(), lb.virtual.data.copy()
    if kind == "ISV":
        for m, row in ((real, b - 2), (virt, b - 1)):
            m[row, 1] += m[row, 3]
            m[row, 3] = 0.0
    else:
        for m in (real, virt):
            m[b - 1, :2] = (800.0, -799.0)
            m[b - 1, 2:] = 0.0
    return LogitBatch(real, virt, softened=True)


@pytest.mark.parametrize("shape", [(128, 32), (131, 24), (7, 5)])
@pytest.mark.parametrize("kind", ["ISV", "ICV"])
@pytest.mark.parametrize("zero", [False, True], ids=["all-positive", "zero-entry"])
def test_blocked_joint_entropy_is_bit_identical(kind, shape, zero):
    rng = np.random.default_rng(sum(shape) + zero)
    b, c = shape
    batch = with_zero_mixture_entry(rng, b, c, kind) if zero else softened_batch(rng, b, c)
    if kind == "ISV":
        P, Q = batch.real.data, batch.virtual.data
    else:
        P, Q = _batch_softmax(batch.real.data).T, _batch_softmax(batch.virtual.data).T
    mix_zero = (P[None, :, :] + Q[:, None, :]) / 2.0 == 0.0
    assert mix_zero.any() == zero
    got = joint_entropy_matrix(batch, kind)
    want = reference_joint_entropy(batch, kind)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# -- the float32 screen of the ISV mask ------------------------------------

# 128 x 32 and 131 x 24 span several row blocks, so their ISV masks are
# screened; 32 x 10 and 7 x 5 fit one block and take the float64 grid
SCREEN_SHAPES = [(128, 32), (131, 24), (32, 10), (7, 5)]


def screen_batch(rng, b, c, rows):
    """Softened views of unit-scale logits at tau 4 ("plain"), with every
    ninth row a copy of row 0 ("duplicated") or within 1e-12 of it
    ("near-tied"), or at tau 0.01, which underflows all but one class of
    most rows to zero ("one-hot")."""
    logits = [4.0 * rng.standard_normal((b, c)) for _ in range(2)]
    if rows in ("duplicated", "near-tied"):
        jitter = 0.0 if rows == "duplicated" else 1e-12
        for view in logits:
            view[1::9] = view[0] + jitter * rng.standard_normal(view[1::9].shape)
    return soften(LogitBatch(*logits), 0.01 if rows == "one-hot" else 4.0)


def assert_same_mask(got, want):
    assert np.array_equal(got.keep, want.keep)
    assert np.float64(got.threshold_value).tobytes() == np.float64(want.threshold_value).tobytes()
    assert (got.kind, got.percentile_m) == (want.kind, want.percentile_m)


@PROPERTY
@given(shape=st.sampled_from(SCREEN_SHAPES), seed=st.integers(0, 2**32 - 1),
       rows=st.sampled_from(["plain", "duplicated", "near-tied", "one-hot"]),
       m=st.sampled_from([50.0, 95.0, 100.0]))
@example(shape=(128, 32), seed=0, rows="near-tied", m=50.0)
@example(shape=(131, 24), seed=1, rows="duplicated", m=95.0)
@example(shape=(128, 32), seed=2, rows="one-hot", m=95.0)
@example(shape=(32, 10), seed=3, rows="near-tied", m=100.0)
def test_batch_masks_equal_the_float64_grid_masks(shape, seed, rows, m):
    batch = screen_batch(np.random.default_rng(seed), *shape, rows)
    for kind in ("ISV", "ICV"):
        assert_same_mask(uep_mask(batch, m, kind),
                         uep_mask(joint_entropy_matrix(batch, kind), m, kind))
    if shape in SCREEN_SHAPES[:2] and rows != "one-hot":
        # the screen answered, rather than falling back
        P, Q = _grid_inputs(batch, "ISV")
        assert _screened_mask(P, Q, _nearest_rank(m, P.shape[0] * Q.shape[0])) is not None


# 300 x 10 puts fibers of one row at offsets that are not multiples of 8
@pytest.mark.parametrize("shape", [(128, 32), (131, 24), (300, 10), (7, 5)])
@pytest.mark.parametrize("kind", ["ISV", "ICV"])
def test_exact_entries_reproduce_the_grid_bit_for_bit(kind, shape):
    # the ICV P is a transposed view; gathered into a C-contiguous copy it
    # would add each fiber in another order and move the last bits (a
    # lone ICV fiber is added pairwise anyway, so no 1 x 1 case for ICV)
    rng = np.random.default_rng(sum(shape))
    P, Q = _grid_inputs(softened_batch(rng, *shape), kind)
    grid = _mixture_entropy_grid(P, Q)
    n = len(Q)

    def some(k):
        return np.sort(rng.choice(n, size=k, replace=False))

    everything = np.arange(n)
    cases = [(everything, everything), (some(n // 2), everything), (some(1), everything),
             (some(3), some(n // 3)), (some(n // 2), some(1)), (some(1), some(2))]
    if kind == "ISV":
        cases.append((np.array([n - 1]), np.array([0])))
    for rows, cols in cases:
        got = _exact_entries(P, Q, rows, cols)
        assert got.tobytes() == grid[np.ix_(rows, cols)].tobytes()


@pytest.mark.parametrize("m", [50.0, 95.0, 100.0])
def test_screen_falls_back_on_a_zero_mixture_entry(m):
    batch = with_zero_mixture_entry(np.random.default_rng(12), 128, 32, "ISV")
    P, Q = _grid_inputs(batch, "ISV")
    assert _screened_mask(P, Q, _nearest_rank(m, len(P) * len(Q))) is None
    assert_same_mask(uep_mask(batch, m, "ISV"), uep_mask(joint_entropy_matrix(batch, "ISV"), m))


@pytest.mark.parametrize("m", [50.0, 95.0, 100.0])
def test_screen_is_exact_on_a_wide_band(monkeypatch, m):
    batch = screen_batch(np.random.default_rng(13), 128, 32, "plain")
    P, Q = _grid_inputs(batch, "ISV")
    # a bound this wide puts most of the grid in the band's rows and columns,
    # all of which are recomputed in float64
    monkeypatch.setattr(vrm.pruning, "_screen_error", lambda c: 1.0)
    exact_entries, spans = vrm.pruning._exact_entries, []

    def spy(P, Q, rows, cols):
        spans.append(len(rows) * len(cols) / (len(P) * len(Q)))
        return exact_entries(P, Q, rows, cols)

    monkeypatch.setattr(vrm.pruning, "_exact_entries", spy)
    keep, threshold = _screened_mask(P, Q, _nearest_rank(m, len(P) * len(Q)))
    assert spans[0] > 0.5
    want = uep_mask(joint_entropy_matrix(batch, "ISV"), m)
    assert_same_mask(EdgeMask("ISV", keep, m, threshold), want)
    assert_same_mask(uep_mask(batch, m, "ISV"), want)


def uep_mask_check():
    return next(r for r in vrm.checks.exactness_checks() if r.name == "exact:uep_mask")


def test_uep_mask_check_catches_a_screen_fault(monkeypatch):
    assert uep_mask_check().passed
    # band values taken a hair off the float64 grid's
    exact_entries = vrm.pruning._exact_entries
    monkeypatch.setattr(vrm.pruning, "_exact_entries",
                        lambda *args: exact_entries(*args) + 2.0 ** -40)
    result = uep_mask_check()
    assert not result.passed and "screen mask differs" in result.detail
    monkeypatch.undo()
    # a bound that no longer covers the error model
    screen_error = vrm.pruning._screen_error
    monkeypatch.setattr(vrm.checks, "_screen_error", lambda c: screen_error(c) / 2)
    result = uep_mask_check()
    assert not result.passed and "e below an entry's bound" in result.detail
