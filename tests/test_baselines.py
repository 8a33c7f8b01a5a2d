import numpy as np
import pytest

from vrm.autodiff import Tensor, finite_diff_check
from vrm.baselines import angular_relations, gram_inter_class, gram_inter_sample
from vrm.errors import InputError
from vrm.losses import VRMWeights
from vrm.models import MLP, MLPSpec
from vrm.training import OBJECTIVES, TrainConfig, teacher_side


def test_gram_inter_sample_orthonormal_rows():
    z = np.eye(3)
    g = gram_inter_sample(Tensor(z)).data
    assert np.allclose(g, np.eye(3), atol=1e-15)


def test_gram_inter_sample_duplicate_rows():
    z = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]])
    g = gram_inter_sample(Tensor(z)).data
    assert g[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_gram_zero_row_handling():
    z = np.array([[0.0, 0.0], [1.0, 0.0]])
    g = gram_inter_sample(Tensor(z)).data
    assert g[0, 0] == 0.0 and g[1, 1] == pytest.approx(1.0, abs=1e-15)


def test_gram_inter_sample_scalar_oracle():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 3))
    g = gram_inter_sample(Tensor(z)).data
    for i in range(4):
        for j in range(4):
            want = float(z[i] @ z[j] / (np.linalg.norm(z[i]) * np.linalg.norm(z[j])))
            assert g[i, j] == pytest.approx(want, abs=1e-12)


def test_gram_inter_class_duplicate_column_and_oracle():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((5, 3))
    z[:, 2] = z[:, 0]
    g = gram_inter_class(Tensor(z)).data
    assert g[0, 2] == pytest.approx(1.0, abs=1e-12)
    for p in range(3):
        for q in range(3):
            want = float(z[:, p] @ z[:, q] / (np.linalg.norm(z[:, p]) * np.linalg.norm(z[:, q])))
            assert g[p, q] == pytest.approx(want, abs=1e-12)


def test_gram_symmetry_and_diagonal_property():
    rng = np.random.default_rng(2)
    for _ in range(10):
        z = rng.standard_normal((5, 4))
        g = gram_inter_sample(Tensor(z)).data
        assert np.abs(g - g.T).max() < 1e-12
        assert np.abs(np.diag(g) - 1.0).max() < 1e-12


def test_angular_zero_angle_and_right_angle():
    z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    a = angular_relations(Tensor(z)).data
    # angle at vertex 0 between (z1 - z0) and (z2 - z0) is 90 degrees
    assert a[1, 0, 2] == pytest.approx(0.0, abs=1e-12)
    # i == k with distinct points: zero angle, cosine 1
    assert a[1, 0, 1] == pytest.approx(1.0, abs=1e-12)


def test_angular_collinear_points():
    # equally spaced points on a line: cosines are +/-1 by side
    z = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    a = angular_relations(Tensor(z)).data
    assert a[0, 1, 2] == pytest.approx(-1.0, abs=1e-12)  # opposite sides of vertex 1
    assert a[0, 2, 1] == pytest.approx(1.0, abs=1e-12)   # same side of vertex 2


def test_angular_degenerate_pair_maps_to_zero():
    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    a = angular_relations(Tensor(z)).data
    assert a[0, 1, 2] == pytest.approx(0.0, abs=1e-15)  # z0 == z1 difference is zero


def test_angular_range_property():
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.standard_normal((5, 3))
        a = angular_relations(Tensor(z)).data
        assert a.min() >= -1.0 - 1e-9 and a.max() <= 1.0 + 1e-9


def test_relation_input_guards():
    with pytest.raises(InputError):
        gram_inter_sample(Tensor(np.zeros((1, 3))))
    with pytest.raises(InputError):
        gram_inter_class(Tensor(np.zeros((3, 1))))
    with pytest.raises(InputError):
        angular_relations(Tensor(np.zeros((2, 3))))


# the relation baselines as training objectives: OBJECTIVES["gram"] (SP)
# and OBJECTIVES["angular"] (RKD) match these encoders of the student's and
# the teacher's softened predictions on the real view

CONFIG = TrainConfig(weights=VRMWeights(alpha=8.0, beta=2.0, tau=4.0, uep_percentile=100.0))


def models_and_batch(seed, b, c, dim=4):
    rng = np.random.default_rng(seed)
    xb = rng.standard_normal((b, dim))
    xv = xb + 0.3 * rng.standard_normal((b, dim))
    yb = rng.integers(0, c, size=b)
    student = MLP(MLPSpec([dim, 5, c], "relu", seed))
    teacher = MLP(MLPSpec([dim, 7, c], "relu", seed + 1))
    return student, teacher, xb, yb, xv


def step_loss(objective, student, teacher, xb, yb):
    """The objective's (loss, row) on batch ``xb``, its teacher side made by
    the function a run makes it with."""
    xv, t_side = teacher_side(objective, teacher, CONFIG)((0, 0), xb)
    return OBJECTIVES[objective].loss(student, t_side, xb, yb, xv, CONFIG)


def loss_of_last_layer(objective, student, teacher, xb, yb):
    def f(w):
        student.weights[-1] = w
        return step_loss(objective, student, teacher, xb, yb)[0]
    return f


@pytest.mark.parametrize("objective", ["gram", "angular", "vrm"])
def test_baseline_losses_zero_at_equality_and_nonnegative(objective):
    student, teacher, xb, yb, _ = models_and_batch(4, 5, 3)
    _, row = step_loss(objective, student, MLP(student.spec), xb, yb)
    assert row["isv"] == pytest.approx(0.0, abs=1e-15)
    assert row["icv"] == pytest.approx(0.0, abs=1e-15)
    _, row = step_loss(objective, student, teacher, xb, yb)
    assert row["isv"] > 0.0 and row["icv"] >= 0.0


def test_baseline_gram_loss_scalar_oracle():
    student, teacher, xb, yb, _ = models_and_batch(5, 3, 4)
    loss, row = step_loss("gram", student, teacher, xb, yb)

    def soft(z):
        e = np.exp(z / CONFIG.weights.tau)
        return e / e.sum(axis=1, keepdims=True)

    def gram(z):
        zn = z / np.linalg.norm(z, axis=1, keepdims=True)
        return zn @ zn.T

    def huber_mean(r):
        return np.where(np.abs(r) <= 1.0, 0.5 * r * r, np.abs(r) - 0.5).mean()

    zs, zt = soft(student.logits(xb)), soft(teacher.logits(xb))
    assert row["isv"] == pytest.approx(huber_mean(gram(zs) - gram(zt)), abs=1e-12)
    assert row["icv"] == pytest.approx(huber_mean(gram(zs.T) - gram(zt.T)), abs=1e-12)
    w = CONFIG.weights
    want = row["ce_real"] + w.alpha * row["isv"] + w.beta * row["icv"]
    assert loss.item() == pytest.approx(want, abs=1e-12)


def test_baseline_angular_gradcheck():
    student, teacher, xb, yb, _ = models_and_batch(7, 4, 3)
    f = loss_of_last_layer("angular", student, teacher, xb, yb)
    assert finite_diff_check(f, student.weights[-1].data) < 1e-4


def test_baseline_gram_gradcheck():
    student, teacher, xb, yb, _ = models_and_batch(8, 4, 3)
    f = loss_of_last_layer("gram", student, teacher, xb, yb)
    assert finite_diff_check(f, student.weights[-1].data) < 1e-4
