import numpy as np
import pytest

from vrm.data import (
    AUGMENT_OPS,
    AugmentSpec,
    Dataset,
    load_dataset,
    make_synthetic_dataset,
    save_dataset,
    virtual_view,
)
from vrm.errors import InputError, ParameterError
from vrm.models import MLP, MLPSpec, load_checkpoint, save_checkpoint


def test_dataset_determinism():
    a = make_synthetic_dataset("blobs", 3, 8, 20, 0.3, seed=5)
    b = make_synthetic_dataset("blobs", 3, 8, 20, 0.3, seed=5)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.train_idx, b.train_idx)
    c = make_synthetic_dataset("blobs", 3, 8, 20, 0.3, seed=6)
    assert not np.array_equal(a.inputs, c.inputs)


def test_blobs_noise_free_linearly_separable():
    data = make_synthetic_dataset("blobs", 4, 6, 15, 0.0, seed=1)
    # nearest-center classifier is an exact oracle when noise is zero
    centers = np.stack([data.inputs[data.labels == k][0] for k in range(4)])
    d2 = ((data.val_inputs[:, None, :] - centers[None]) ** 2).sum(axis=2)
    assert (d2.argmin(axis=1) == data.val_labels).all()


def test_spirals_class_counts_and_split():
    data = make_synthetic_dataset("spirals", 3, 5, 30, 0.1, seed=2)
    counts = np.bincount(data.labels, minlength=3)
    assert counts.tolist() == [30, 30, 30]
    assert data.train_idx.size == 72 and data.val_idx.size == 18
    assert np.intersect1d(data.train_idx, data.val_idx).size == 0


def test_dataset_parameter_validation():
    with pytest.raises(ParameterError):
        make_synthetic_dataset("rings", 3, 4, 20, 0.1, 0)
    with pytest.raises(ParameterError):
        make_synthetic_dataset("blobs", 1, 4, 20, 0.1, 0)
    with pytest.raises(ParameterError):
        make_synthetic_dataset("blobs", 3, 4, 5, 0.1, 0)
    with pytest.raises(ParameterError):
        make_synthetic_dataset("blobs", 3, 4, 20, -0.1, 0)
    # degenerate shapes, non-finite noise and negative seeds
    for kind, dim, noise, seed in [("blobs", 0, 0.1, 0), ("spirals", 1, 0.1, 0),
                                   ("blobs", 4, float("nan"), 0), ("blobs", 4, float("inf"), 0),
                                   ("spirals", 2, 0.1, -1)]:
        with pytest.raises(ParameterError):
            make_synthetic_dataset(kind, 3, dim, 20, noise, seed)
    assert make_synthetic_dataset("blobs", 3, 1, 20, 0.1, 0).dim == 1
    assert make_synthetic_dataset("spirals", 3, 2, 20, 0.1, 0).dim == 2


def test_dataset_type_invariants():
    with pytest.raises(InputError):
        Dataset(np.zeros((4, 2)), np.array([0, 1, 2, 3]), np.array([0, 1]), np.array([2, 3]), 3)
    with pytest.raises(InputError):
        Dataset(np.zeros((4, 2)), np.array([0, 1, 1, 0]), np.array([0, 1]), np.array([1, 3]), 2)


def test_dataset_rejects_bad_shapes_and_split_indices():
    x, y = np.zeros((4, 2)), np.array([0, 1, 0, 1])
    with pytest.raises(InputError, match="empty"):
        Dataset(np.zeros((0, 2)), np.zeros(0), np.zeros(0), np.zeros(0), 2)
    with pytest.raises(InputError, match="one label per row"):
        Dataset(x, y[:3], np.array([0, 1]), np.array([2]), 2)
    with pytest.raises(InputError, match="one label per row"):
        Dataset(np.zeros(4), y, np.array([0, 1]), np.array([2, 3]), 2)
    for train, val in (([0, 4], [1]), ([0, 1], [-1]), ([-2], [3])):
        with pytest.raises(InputError, match="split indices"):
            Dataset(x, y, np.array(train), np.array(val), 2)
    Dataset(x, y, np.array([0, 3]), np.array([], dtype=np.int64), 2)


def test_virtual_view_identity_cases():
    x = np.linspace(-2, 2, 10)
    out = virtual_view(x, AugmentSpec(n_ops=0, magnitude=0.5, seed=1), 0)
    assert np.array_equal(out, x)
    out = virtual_view(x, AugmentSpec(n_ops=1, magnitude=0.0, op_pool=("gaussian_noise",), seed=1), 0)
    assert np.array_equal(out, x)


def test_virtual_view_deterministic_and_seed_sensitive():
    x = np.linspace(-1, 1, 8)
    spec = AugmentSpec(n_ops=2, magnitude=0.3, seed=4)
    a = virtual_view(x, spec, 9)
    b = virtual_view(x, spec, 9)
    c = virtual_view(x, spec, 10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_virtual_view_pinned_regression_values():
    # frozen from a seeded run; guards against silent RNG-path changes
    x = np.linspace(-1.0, 1.0, 6)
    out = virtual_view(x, AugmentSpec(n_ops=2, magnitude=0.25, seed=11), 3)
    expected = [-1.2987396945099634, -0.8513781923574272, -0.43054524673659045,
                -0.07330692399777394, 0.32435869760114716, 0.712968798828257]
    assert np.array_equal(out, expected)
    out2 = virtual_view(x, AugmentSpec(n_ops=1, magnitude=0.5, op_pool=("random_scale",), seed=2), 7)
    expected2 = [-0.6205482095622838, -0.3723289257373703, -0.12410964191245674,
                 0.12410964191245688, 0.37232892573737036, 0.6205482095622838]
    assert np.array_equal(out2, expected2)


@pytest.mark.parametrize("op", AUGMENT_OPS)
def test_virtual_view_per_op_perturbation_bound(op):
    rng = np.random.default_rng(12)
    for magnitude in (0.1, 0.5, 1.0):
        spec = AugmentSpec(n_ops=1, magnitude=magnitude, op_pool=(op,), seed=3)
        for trial in range(200):
            x = rng.standard_normal(12) * rng.uniform(0.1, 5.0)
            out = virtual_view(x, spec, trial)
            bound = magnitude * (np.linalg.norm(x) + 1.0)
            assert np.linalg.norm(out - x) <= bound + 1e-12


def test_virtual_view_composite_bound():
    # per-op budgets compose: each op moves at most mag * (|input| + 1)
    spec = AugmentSpec(n_ops=4, magnitude=0.4, seed=5)
    rng = np.random.default_rng(13)
    for trial in range(100):
        x = rng.standard_normal(6) * 3.0
        out = virtual_view(x, spec, trial)
        budget, norm = 0.0, np.linalg.norm(x)
        for _ in range(spec.n_ops):
            budget += spec.magnitude * (norm + 1.0)
            norm = norm * (1.0 + spec.magnitude) + spec.magnitude
        assert np.linalg.norm(out - x) <= budget + 1e-12


def test_augment_spec_validation():
    with pytest.raises(ParameterError):
        AugmentSpec(n_ops=5)  # pool has 4 ops
    with pytest.raises(ParameterError):
        AugmentSpec(magnitude=1.5)
    with pytest.raises(ParameterError):
        AugmentSpec(seed=-1)
    with pytest.raises(ParameterError):
        AugmentSpec(op_pool=("warp",))


def test_dataset_file_round_trip(tmp_path):
    data = make_synthetic_dataset("spirals", 4, 7, 12, 0.2, seed=8)
    p1 = tmp_path / "a.vrmdata"
    save_dataset(data, p1)
    loaded = load_dataset(p1)
    assert np.array_equal(loaded.inputs, data.inputs)
    assert np.array_equal(loaded.labels, data.labels)
    assert np.array_equal(loaded.train_idx, data.train_idx)
    p2 = tmp_path / "b.vrmdata"
    save_dataset(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[:8] == b"VRMDATA1"


def test_dataset_file_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOTMAGIC" + b"\0" * 40)
    with pytest.raises(InputError):
        load_dataset(p)


def test_dataset_file_every_strict_prefix_raises_input_error(tmp_path):
    full = tmp_path / "full.vrmdata"
    save_dataset(make_synthetic_dataset("blobs", 2, 2, 10, 0.3, seed=2), full)
    blob = full.read_bytes()
    cut = tmp_path / "cut.vrmdata"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(InputError):
            load_dataset(cut)
    cut.write_bytes(blob + b"\0")
    with pytest.raises(InputError):
        load_dataset(cut)


def test_mlp_spec_validation():
    with pytest.raises(ParameterError):
        MLPSpec([4, 3])  # no hidden layer
    with pytest.raises(ParameterError):
        MLPSpec([4, 0, 3])
    with pytest.raises(ParameterError):
        MLPSpec([4, 8, 3], activation="gelu")


def test_mlp_deterministic_init_and_forward():
    a = MLP(MLPSpec([4, 8, 3], "relu", 7))
    b = MLP(MLPSpec([4, 8, 3], "relu", 7))
    assert a.param_checksum() == b.param_checksum()
    x = np.random.default_rng(0).standard_normal((5, 4))
    assert np.array_equal(a.logits(x), b.logits(x))
    c = MLP(MLPSpec([4, 8, 3], "relu", 8))
    assert a.param_checksum() != c.param_checksum()


def test_mlp_forward_shapes_and_tanh():
    model = MLP(MLPSpec([6, 10, 5, 4], "tanh", 1))
    x = np.zeros((3, 6))
    assert model.logits(x).shape == (3, 4)
    assert model.predict(x).shape == (3,)


def test_checkpoint_round_trip(tmp_path):
    model = MLP(MLPSpec([5, 9, 4], "tanh", 3))
    p1 = tmp_path / "m.ckpt"
    save_checkpoint(model, p1, epoch=17)
    loaded, meta = load_checkpoint(p1)
    assert meta == {"layer_widths": [5, 9, 4], "activation": "tanh", "seed": 3, "epoch": 17}
    assert loaded.param_checksum() == model.param_checksum()
    p2 = tmp_path / "m2.ckpt"
    save_checkpoint(loaded, p2, epoch=17)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[:8] == b"VRMCKPT1"


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"XXXXXXXX" + b"\0" * 16)
    with pytest.raises(InputError):
        load_checkpoint(p)


def test_checkpoint_every_strict_prefix_raises_input_error(tmp_path):
    full = tmp_path / "full.ckpt"
    save_checkpoint(MLP(MLPSpec([2, 3, 2], "relu", 1)), full, epoch=4)
    blob = full.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(InputError):
            load_checkpoint(cut)
    cut.write_bytes(blob + b"\0")
    with pytest.raises(InputError):
        load_checkpoint(cut)
