import functools
import hashlib
import inspect
import json

import numpy as np
import pytest

import vrm.data
from vrm.data import (
    AUGMENT_OPS,
    AugmentSpec,
    Dataset,
    draw_plan,
    load_dataset,
    make_synthetic_dataset,
    save_dataset,
    virtual_view,
)
from vrm.diagnostics import PilotSpec
from vrm.errors import InputError, ParameterError
from vrm.losses import VRMWeights
from vrm.models import MLP, MLPSpec, load_checkpoint, save_checkpoint
from vrm.training import TrainConfig, write_csv

NAN, INF = float("nan"), float("inf")
SYNTHETIC = functools.partial(make_synthetic_dataset, kind="blobs", n_classes=3, dim=4,
                              n_per_class=20, noise=0.5, seed=0)

# (record, one out-of-range field): every config record's range errors
RECORD_CASES = [
    (VRMWeights, {"alpha": -1.0}), (VRMWeights, {"beta": NAN}), (VRMWeights, {"tau": 0.0}),
    (VRMWeights, {"tau": INF}), (VRMWeights, {"huber_delta": 0.0}),
    (VRMWeights, {"uep_percentile": 0.0}), (VRMWeights, {"uep_percentile": 101.0}),
    (TrainConfig, {"lr": 0.0}), (TrainConfig, {"lr": -INF}), (TrainConfig, {"momentum": NAN}),
    (TrainConfig, {"weight_decay": INF}), (TrainConfig, {"lr_decay": NAN}),
    (TrainConfig, {"lr_decay": 0.0}), (TrainConfig, {"lr_decay": -1.0}),
    (TrainConfig, {"im_kd_weight": -INF}), (TrainConfig, {"batch_size": 1}),
    (TrainConfig, {"milestones": (3, 3)}), (TrainConfig, {"epochs": 0}),
    (TrainConfig, {"seed": -1}),
    (AugmentSpec, {"n_ops": 5}), (AugmentSpec, {"n_ops": -1}),
    (AugmentSpec, {"magnitude": NAN}), (AugmentSpec, {"seed": -1}),
    (MLPSpec, {"layer_widths": [4, 3]}), (MLPSpec, {"layer_widths": [4, 0, 3]}),
    (MLPSpec, {"activation": "gelu", "layer_widths": [4, 8, 3]}),
    (MLPSpec, {"seed": -1, "layer_widths": [4, 8, 3]}),
    (PilotSpec, {"B": 1}), (PilotSpec, {"D": 0}), (PilotSpec, {"t": 64}),
    (PilotSpec, {"c": NAN}), (PilotSpec, {"c": -1.0}), (PilotSpec, {"loss_kind": "X"}),
    (SYNTHETIC, {"kind": "rings"}), (SYNTHETIC, {"n_classes": 1}), (SYNTHETIC, {"dim": 0}),
    (SYNTHETIC, {"n_per_class": 5}), (SYNTHETIC, {"noise": INF}), (SYNTHETIC, {"seed": -1}),
]


@pytest.mark.parametrize("make,bad", RECORD_CASES,
                         ids=[f"{getattr(m, '__name__', 'synthetic')}-{k}={v}"
                              for m, b in RECORD_CASES for k, v in list(b.items())[:1]])
def test_record_error_starts_with_the_field_at_fault(make, bad):
    # so the command line can put the flag that set the field in its place
    with pytest.raises(ParameterError) as exc_info:
        make(**bad)
    field = str(exc_info.value).split(" ", 1)[0]
    assert field == next(iter(bad)) and field in inspect.signature(make).parameters


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
    for train, val in (([0, 4], [1]), ([0, 1], [-1]), ([-2], [3]), ([[0, 1]], [2])):
        with pytest.raises(InputError, match="split indices"):
            Dataset(x, y, np.array(train), np.array(val), 2)
    Dataset(x, y, np.array([0, 3]), np.array([], dtype=np.int64), 2)


def test_dataset_rejects_inputs_with_no_feature_columns():
    y = np.array([0, 1, 0, 1])
    with pytest.raises(InputError, match="no feature columns"):
        Dataset(np.zeros((4, 0)), y, np.array([0, 1]), np.array([2, 3]), 2)


def test_dataset_rejects_labels_and_indices_that_are_not_whole_numbers():
    x, y = np.zeros((4, 2)), np.array([0, 1, 0, 1])
    train, val = np.array([0, 1]), np.array([2, 3])
    for name, args in (("labels", (np.array([0.9, 1.7, 0.2, 1.0]), train, val)),
                       ("labels", (np.array([0.0, NAN, 0.0, 1.0]), train, val)),
                       ("train_idx", (y, np.array([0.6, 1.9]), val)),
                       ("val_idx", (y, train, np.array([2.0, INF])))):
        with pytest.raises(InputError, match=f"{name} must be whole numbers"):
            Dataset(x, *args, 2)
    whole = Dataset(x, y.astype(float), train.astype(float), val, 2)
    assert whole.labels.dtype == whole.train_idx.dtype == np.int64
    assert np.array_equal(whole.labels, y) and np.array_equal(whole.train_idx, train)


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_dataset_rejects_non_finite_inputs(bad):
    x = np.zeros((4, 2))
    x[2, 1] = bad
    with pytest.raises(InputError, match="finite"):
        Dataset(x, np.array([0, 1, 0, 1]), np.array([0, 1]), np.array([2, 3]), 2)


def test_virtual_view_identity_cases():
    x = np.linspace(-2, 2, 10)
    out = virtual_view(x, AugmentSpec(n_ops=0, magnitude=0.5, seed=1), 0)
    assert np.array_equal(out, x)
    # at magnitude 0 every op of the table leaves the sample as it is
    out = virtual_view(x, AugmentSpec(n_ops=len(AUGMENT_OPS), magnitude=0.0, seed=1), 0)
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
    # this row draws random_scale alone
    out2 = virtual_view(x, AugmentSpec(n_ops=1, magnitude=0.5, seed=2), 7)
    expected2 = [-1.2570673923160587, -0.7542404353896351, -0.25141347846321166,
                 0.25141347846321194, 0.7542404353896354, 1.2570673923160587]
    assert np.array_equal(out2, expected2)


@pytest.mark.parametrize("magnitude", [0.0, 0.1, 0.5, 1.0])
def test_virtual_view_per_op_perturbation_bound(magnitude):
    rng = np.random.default_rng(12)
    spec = AugmentSpec(n_ops=1, magnitude=magnitude, seed=3)
    trials_per_op = 0
    for trial in range(200):
        x = rng.standard_normal(12) * rng.uniform(0.1, 5.0)
        # the view virtual_batch gives row 0 at the key (trial,)
        out = virtual_view(x, spec, (trial, 0))
        bound = magnitude * (np.linalg.norm(x) + 1.0)
        assert np.linalg.norm(out - x) <= bound + 1e-12
        trials_per_op += np.diff(draw_plan(spec, (trial,), (1, x.size)).ends[0])
    # every op of the table was drawn alone, on many trials
    assert trials_per_op.shape == (len(AUGMENT_OPS),) and (trials_per_op >= 20).all()


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
        AugmentSpec(n_ops=5)  # the table has 4 ops
    with pytest.raises(ParameterError):
        AugmentSpec(magnitude=1.5)
    with pytest.raises(ParameterError):
        AugmentSpec(seed=-1)


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
    assert p1.read_bytes()[:8] == b"VRMDATA2"


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
    assert p1.read_bytes()[:8] == b"VRMCKPT2"


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


# -- the artifact codec both formats share ----------------------------------

ARTIFACTS = {
    "checkpoint": (lambda path: save_checkpoint(MLP(MLPSpec([2, 3, 2], "relu", 1)), path,
                                                epoch=4), load_checkpoint),
    "dataset": (lambda path: save_dataset(make_synthetic_dataset("blobs", 2, 2, 10, 0.3, seed=2),
                                          path), load_dataset),
}


def small_artifact(tmp_path, kind):
    save, load = ARTIFACTS[kind]
    path = tmp_path / f"small.{kind}"
    save(path)
    return path, load


def test_old_format_files_fail_on_their_magic(tmp_path):
    for kind, old_magic in (("checkpoint", b"VRMCKPT1"), ("dataset", b"VRMDATA1")):
        path, load = small_artifact(tmp_path, kind)
        path.write_bytes(old_magic + path.read_bytes()[8:])
        with pytest.raises(InputError, match=f"bad magic {old_magic!r}"):
            load(path)


@pytest.mark.parametrize("kind", list(ARTIFACTS))
def test_every_byte_flip_raises_input_error(tmp_path, kind):
    path, load = small_artifact(tmp_path, kind)
    blob = path.read_bytes()
    flipped = tmp_path / "flipped"
    for i in range(len(blob)):
        for mask in (0x01, 0x80, 0xFF):
            flipped.write_bytes(blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1:])
            with pytest.raises(InputError):
                load(flipped)


def resealed(path, edit):
    """``path``'s artifact with its JSON header (as a dict) and array bytes
    passed through ``edit``, under a valid sha256 trailer."""
    blob = path.read_bytes()
    n = int.from_bytes(blob[8:12], "little")
    head, data = edit(json.loads(blob[12:12 + n]), blob[12 + n:-32])
    if not isinstance(head, bytes):
        head = json.dumps(head).encode()
    body = blob[:8] + len(head).to_bytes(4, "little") + head + data
    return body + hashlib.sha256(body).digest()


def edit_entry(i, key, value):
    def edit(head, data):
        head["arrays"][i][key] = value
        return head, data
    return edit


def drop_key(*keys):
    def edit(head, data):
        owner = head
        for key in keys[:-1]:
            owner = owner[key]
        del owner[keys[-1]]
        return head, data
    return edit


def drop_last_array(head, data):
    last = head["arrays"].pop()
    return head, data[:len(data) - 8 * int(np.prod(last["shape"]))]


def duplicate_first_name(head, data):
    head["arrays"][1]["name"] = head["arrays"][0]["name"]
    return head, data


def add_array(head, data):
    head["arrays"].append({"name": "extra", "dtype": "<f8", "shape": [2]})
    return head, data + bytes(16)


def header_with(**fields):
    def edit(head, data):
        head["header"].update(fields)
        return head, data
    return edit


def first_value_nan(head, data):
    return head, np.array([NAN]).tobytes() + data[8:]


# header or array edits that a valid trailer does not vouch for
CRAFTED = {
    "bad-json": lambda head, data: (b'{"arrays": [', data),
    "not-utf8": lambda head, data: (b"\xff\xfe", data),
    "not-an-object": lambda head, data: (b"[1, 2]", data),
    "nested-too-deep": lambda head, data: (b"[" * 100_000 + b"]" * 100_000, data),
    "no-array-list": drop_key("arrays"),
    "no-header": drop_key("header"),
    "entry-without-a-shape": drop_key("arrays", 0, "shape"),
    "unknown-dtype": edit_entry(0, "dtype", "<f4"),
    "unhashable-dtype": edit_entry(0, "dtype", ["<f8"]),
    "negative-shape": edit_entry(0, "shape", [-1, 2]),
    "float-shape": edit_entry(0, "shape", [2.0, 2]),
    "oversized-shape": edit_entry(0, "shape", [2**40, 2**40]),
    "duplicate-name": duplicate_first_name,
    "unhashable-name": edit_entry(1, "name", ["w0"]),
    "array-missing": drop_last_array,
    "array-left-over": add_array,
    "bytes-left-over": lambda head, data: (head, data + bytes(8)),
    "bytes-missing": lambda head, data: (head, data[:-8]),
    "non-finite-float": first_value_nan,
    "header-a-list": lambda head, data: (dict(head, header=[2, 3, 2]), data),
}
CHECKPOINT_CRAFTED = {
    "widths-disagree": header_with(layer_widths=[2, 4, 2]),
    "widths-not-numbers": header_with(layer_widths=["2", "3", "2"]),
    "widths-floats": header_with(layer_widths=[2.0, 3, 2]),
    "negative-seed": header_with(seed=-1),
    "no-activation": drop_key("header", "activation"),
}
DATASET_CRAFTED = {
    "no-n-classes": drop_key("header", "n_classes"),
    "n-classes-a-string": header_with(n_classes="2"),
    "n-classes-a-float": header_with(n_classes=2.5),
    "array-renamed": edit_entry(1, "name", "label"),
}
CRAFTED_CASES = ([(kind, *case) for kind in ARTIFACTS for case in CRAFTED.items()]
                 + [("checkpoint", *case) for case in CHECKPOINT_CRAFTED.items()]
                 + [("dataset", *case) for case in DATASET_CRAFTED.items()])


@pytest.mark.parametrize("kind, edit", [(kind, edit) for kind, _, edit in CRAFTED_CASES],
                         ids=[f"{kind}-{case}" for kind, case, _ in CRAFTED_CASES])
def test_a_crafted_artifact_with_a_valid_trailer_raises_input_error(tmp_path, kind, edit):
    path, load = small_artifact(tmp_path, kind)
    path.write_bytes(resealed(path, edit))
    with pytest.raises(InputError):
        load(path)


@pytest.mark.parametrize("kind", list(ARTIFACTS))
def test_resealing_an_unedited_artifact_loads(tmp_path, kind):
    # so each crafted case fails on its edit, not on how it was resealed
    path, load = small_artifact(tmp_path, kind)
    path.write_bytes(resealed(path, lambda head, data: (head, data)))
    load(path)


def fail_halfway(monkeypatch):
    """Make every file the whole-file writer opens take half of what it is
    given and then fail, as a full disk would."""
    real_open = open

    class HalfWritten:
        def __init__(self, *args):
            self.fh = real_open(*args)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, blob):
            self.fh.write(blob[:len(blob) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(vrm.data, "open", HalfWritten, raising=False)


WRITERS = {
    "checkpoint": lambda path, k: save_checkpoint(MLP(MLPSpec([4, 5, 3], "relu", k)), path),
    "dataset": lambda path, k: save_dataset(SYNTHETIC(seed=k), path),
    "csv": lambda path, k: write_csv(path, ["a", "b"], [[k, 0.5], [2, 3]]),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_a_write_failing_halfway_leaves_no_file_and_the_earlier_one_intact(tmp_path, monkeypatch,
                                                                            writer):
    write = WRITERS[writer]
    earlier = tmp_path / "earlier"
    write(earlier, 1)
    before = earlier.read_bytes()
    fail_halfway(monkeypatch)
    for path in (earlier, tmp_path / "fresh"):
        with pytest.raises(OSError, match="No space"):
            write(path, 2)
    assert earlier.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["earlier"]
