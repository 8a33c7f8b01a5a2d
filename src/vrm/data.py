"""Synthetic classification datasets, virtual-view generation, and the
checksummed artifact format that dataset and checkpoint files share."""
from __future__ import annotations

import hashlib
import json
import math
import operator
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, check_fields

DATASET_MAGIC = b"VRMDATA2"

@dataclass
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        for name in ("labels", "train_idx", "val_idx"):
            given = np.asarray(getattr(self, name))
            with np.errstate(invalid="ignore"):
                whole = given.astype(np.int64, copy=False)
            if not np.array_equal(whole, given):
                raise InputError(f"dataset {name} must be whole numbers")
            setattr(self, name, whole)
        self.n_classes = operator.index(self.n_classes)
        n = self.inputs.shape[0]
        if self.inputs.ndim != 2 or self.labels.shape != (n,):
            raise InputError("need [n, dim] inputs and one label per row")
        if self.inputs.shape[1] == 0:
            raise InputError("dataset inputs have no feature columns")
        if not np.isfinite(self.inputs).all():
            raise InputError("dataset inputs must be finite")
        if n == 0:
            raise InputError("dataset is empty")
        for name, idx in (("train", self.train_idx), ("val", self.val_idx)):
            if idx.ndim != 1 or idx.size and (idx.min() < 0 or idx.max() >= n):
                raise InputError(f"{name} split indices must be a vector in [0, {n})")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise InputError("labels out of range")
        if np.intersect1d(self.train_idx, self.val_idx).size:
            raise InputError("train/val splits overlap")

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def train_inputs(self):
        return self.inputs[self.train_idx]

    @property
    def train_labels(self):
        return self.labels[self.train_idx]

    @property
    def val_inputs(self):
        return self.inputs[self.val_idx]

    @property
    def val_labels(self):
        return self.labels[self.val_idx]


def make_synthetic_dataset(kind: str, n_classes: int, dim: int, n_per_class: int,
                           noise: float, seed: int) -> Dataset:
    """Deterministic labelled point clouds with an 80/20 split.

    blobs: isotropic Gaussians around seeded class centers.
    spirals: interleaved 2-D arms lifted into ``dim`` dimensions by a
    fixed seeded orthonormal map, with Gaussian jitter applied in 2-D.
    """
    min_dim = 2 if kind == "spirals" else 1
    check_fields(locals(), (
        ("kind", kind in ("blobs", "spirals"), "must be blobs or spirals"),
        ("n_classes", n_classes >= 2, "must be >= 2"),
        ("n_per_class", n_per_class >= 10, "must be >= 10"),
        ("dim", dim >= min_dim, f"must be >= {min_dim} for {kind}"),
        ("noise", 0 <= noise < math.inf, "must be finite and nonnegative"),
        ("seed", seed >= 0, "must be nonnegative")))
    rng = np.random.default_rng(seed)
    n = n_classes * n_per_class
    labels = np.repeat(np.arange(n_classes), n_per_class)

    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "blobs":
            centers = rng.normal(size=(n_classes, dim)) * 3.0
            inputs = centers[labels] + noise * rng.standard_normal((n, dim))
        else:
            t = (np.arange(n_per_class) + 0.5) / n_per_class
            xy = np.empty((n, 2))
            for k in range(n_classes):
                theta = 2.0 * np.pi * (k / n_classes + 0.5 * t)
                radius = 0.5 + 2.5 * t
                rows = slice(k * n_per_class, (k + 1) * n_per_class)
                xy[rows, 0] = radius * np.cos(theta)
                xy[rows, 1] = radius * np.sin(theta)
            xy += noise * rng.standard_normal((n, 2))
            lift, _ = np.linalg.qr(rng.standard_normal((dim, 2)))
            inputs = xy @ lift.T
    check_fields(locals(), (("noise", np.isfinite(inputs).all(), "must keep the inputs finite"),))

    perm = rng.permutation(n)
    n_train = int(round(0.8 * n))
    return Dataset(inputs, labels, perm[:n_train], perm[n_train:], n_classes)


def _seed_words(parts) -> np.ndarray:
    """The uint32 words numpy's SeedSequence derives from a list of
    nonnegative ints: 0 is one word 0, a larger int its little-endian
    32-bit words.  Seeding from them gives the same generator state as
    seeding from the list, without the per-element conversion."""
    words = []
    for part in parts:
        part = operator.index(part)
        if part < 0:
            raise ValueError("expected non-negative integer")
        words.append(part & 0xFFFFFFFF)
        part >>= 32
        while part:
            words.append(part & 0xFFFFFFFF)
            part >>= 32
    return np.array(words, dtype=np.uint32)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # sqrt(row . row) per row, which is np.linalg.norm of a 1-D float64
    # row; a reduction over axis 1 differs from it in the last bit on some rows
    return np.sqrt((rows[:, None, :] @ rows[:, :, None]).reshape(-1))


# Each op draws for one row from that row's generator, then is applied to
# every row that drew it in the same slot at once.  draw(rng, dim, out)
# writes the row's draws into ``out``, its dim + 2 floats of the plan's
# draws, and returns False when the op leaves the row as it is;
# apply(rows, magnitude, draws) returns the new rows from their draws,
# stacked [rows, dim + 2].  gaussian_noise draws a direction, its norm and
# a fraction of the budget; feature_dropout the coordinates it softens,
# whole numbers a float64 holds exactly; the others one signed fraction.
# A row picks ops by their index in ``_OPS`` below, so its order is part of
# every view's bits.


def _noise_draw(rng, dim, out):
    out[:dim] = g = rng.standard_normal(dim)
    out[dim] = g_norm = math.sqrt(g.dot(g))
    if g_norm == 0.0:
        return False
    out[dim + 1] = rng.uniform()
    return True


def _noise_apply(x, magnitude, draws):
    dim = x.shape[1]
    budget = magnitude * (_row_norms(x) + 1.0)
    return x + (budget * draws[:, dim + 1])[:, None] * (draws[:, :dim] / draws[:, dim, None])


def _dropout_draw(rng, dim, out):
    # soften a random quarter of the coordinates instead of zeroing
    # them outright, which keeps the perturbation inside the budget
    k = max(1, dim // 4)
    out[:k] = rng.choice(dim, size=k, replace=False)
    return True


def _dropout_apply(x, magnitude, draws):
    idx = draws[:, :max(1, x.shape[1] // 4)].astype(np.intp)
    x[np.arange(x.shape[0])[:, None], idx] *= 1.0 - magnitude
    return x


def _signed_draw(rng, dim, out):
    out[0] = rng.uniform(-1.0, 1.0)
    return True


def _scale_apply(x, magnitude, draws):
    return x * (1.0 + magnitude * draws[:, 0])[:, None]


def _shift_apply(x, magnitude, draws):
    shift = magnitude * draws[:, 0] * (_row_norms(x) + 1.0) / np.sqrt(x.shape[1])
    return x + shift[:, None]


_OPS = {
    "gaussian_noise": (_noise_draw, _noise_apply),
    "feature_dropout": (_dropout_draw, _dropout_apply),
    "random_scale": (_signed_draw, _scale_apply),
    "random_shift": (_signed_draw, _shift_apply),
}
AUGMENT_OPS = tuple(_OPS)
_DRAWS, _APPLIES = zip(*_OPS.values())


@dataclass
class AugmentSpec:
    """How virtual views are produced: ``n_ops`` operations of
    ``AUGMENT_OPS`` drawn without replacement, each bounded so that one op
    moves a point by at most magnitude * (|x| + 1)."""

    n_ops: int = 2
    magnitude: float = 0.3
    seed: int = 0

    def __post_init__(self):
        self.n_ops, self.seed = operator.index(self.n_ops), operator.index(self.seed)
        check_fields(vars(self), (
            ("n_ops", 0 <= self.n_ops <= len(AUGMENT_OPS), f"must lie in [0, {len(AUGMENT_OPS)}]"),
            ("magnitude", 0 <= self.magnitude <= 1, "must lie in [0, 1]"),
            ("seed", self.seed >= 0, "must be nonnegative")))


class AugmentPlan(NamedTuple):
    """The draws of one batch's virtual views, made before the batch is
    seen, as three arrays that only this module reads, each with one entry
    s per op slot.  ``rows`` [n_ops, B]: the batch's rows, the ones slot s
    leaves as they are first, then those of each op of ``AUGMENT_OPS`` in
    turn, ascending within a group.  ``ends`` [n_ops, len(AUGMENT_OPS) + 1]:
    where each of those groups ends in ``rows[s]``.  ``draws``
    [n_ops, B, dim + 2]: each row's draws for slot s, in ``rows[s]`` order."""

    rows: np.ndarray
    ends: np.ndarray
    draws: np.ndarray


def _draw(spec: AugmentSpec, entropy: np.ndarray, dim: int) -> AugmentPlan:
    """The :class:`AugmentPlan` for the [n, k] uint32 seed words
    ``entropy``: row i draws from its own ``np.random.default_rng(entropy[i])``.
    It picks ``spec.n_ops`` ops with ``Generator.choice`` and makes every
    draw of them, in order, from the same generator."""
    draws = np.zeros((spec.n_ops, len(entropy), dim + 2))
    # groups[s, i]: 0 where slot s leaves row i as it is, else 1 + the table
    # index of the op it drew
    groups = np.zeros((spec.n_ops, len(entropy)), dtype=np.intp)
    # with no op slot there is nothing to draw, so no generator is made
    for i, words in enumerate(entropy if spec.n_ops else ()):
        rng = np.random.default_rng(words)
        for s, op_idx in enumerate(rng.choice(len(_DRAWS), spec.n_ops, replace=False).tolist()):
            if _DRAWS[op_idx](rng, dim, draws[s, i]):
                groups[s, i] = op_idx + 1
    rows = np.argsort(groups, axis=1, kind="stable")
    ends = (groups[:, :, None] <= np.arange(len(_DRAWS) + 1)).sum(axis=1)
    return AugmentPlan(rows, ends, np.take_along_axis(draws, rows[:, :, None], axis=1))


def _apply(x: np.ndarray, spec: AugmentSpec, plan: AugmentPlan) -> np.ndarray:
    """The views of the rows of ``x`` under ``plan``: each op slot in
    turn gathers the rows in the slot's order, makes one vectorized update
    per op on its contiguous group, with the arithmetic of a single row
    done elementwise, and scatters them back."""
    out = np.array(x, dtype=np.float64)
    for rows, ends, draws in zip(*plan):
        ends, views = ends.tolist(), out[rows]
        for apply, start, end in zip(_APPLIES, ends, ends[1:]):
            if start < end:
                views[start:end] = apply(views[start:end], spec.magnitude, draws[start:end])
        out[rows] = views
    return out


def virtual_view(x: np.ndarray, spec: AugmentSpec, per_sample_seed) -> np.ndarray:
    """One stochastic semantic-preserving transform of a sample.

    Deterministic in (spec.seed, per_sample_seed), an int or a sequence
    of them: each part of the key, like ``spec.seed``, must be a
    nonnegative integer (TypeError for a non-integer, ValueError for a
    negative one).  With n_ops = 0 the sample passes through unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    key = per_sample_seed if np.iterable(per_sample_seed) else (per_sample_seed,)
    words = _seed_words((spec.seed, *key))
    plan = _draw(spec, words[None, :], x.size)
    return _apply(x.reshape(1, -1), spec, plan).reshape(x.shape)


def draw_plan(spec: AugmentSpec, step_key, shape) -> AugmentPlan:
    """The draws of ``virtual_batch`` for a batch of ``shape`` (rows, dim)
    at ``step_key``, made without the batch."""
    n_rows, dim = shape
    prefix = _seed_words((spec.seed, *step_key))
    # a row index below 2**32 is the one word i
    entropy = np.empty((n_rows, prefix.size + 1), dtype=np.uint32)
    entropy[:, :-1] = prefix
    entropy[:, -1] = np.arange(n_rows)
    return _draw(spec, entropy, dim)


def virtual_batch(xb: np.ndarray, spec: AugmentSpec, step_key,
                  plan: AugmentPlan | None = None) -> np.ndarray:
    """Virtual views for a whole batch: sample i draws as
    ``virtual_view(xb[i], spec, (*step_key, i))`` does.  ``plan``, when
    given, is ``draw_plan(spec, step_key, xb.shape)`` made ahead of the
    call; the caller vouches that it was drawn for this spec, key and shape."""
    if plan is None:
        plan = draw_plan(spec, step_key, np.shape(xb))
    return _apply(xb, spec, plan)


# -- file format ---------------------------------------------------------


def save_dataset(data: Dataset, path) -> None:
    write_artifact(path, DATASET_MAGIC, {"n_classes": data.n_classes},
                   {"inputs": data.inputs, "labels": data.labels,
                    "train_idx": data.train_idx, "val_idx": data.val_idx})


def write_whole(path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` through a temporary file beside it and ``os.replace``,
    so a write that fails leaves no partial file and any earlier one intact."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_input(path, what: str) -> bytes:
    """The bytes of the input file ``path``.  A file that cannot be read
    (missing, a directory, no permission) raises InputError naming ``what``."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"{what} not found or unreadable: {path} ({exc.strerror})") from None


def write_artifact(path, magic: bytes, header: dict, arrays: dict) -> None:
    """Write ``magic``, the 4-byte little-endian length of a JSON header that
    holds ``header`` and each array's name, dtype and shape, the arrays in
    order (floats as <f8, the rest as <i8), then the sha256 of all before it."""
    listing, blobs = [], []
    for name, arr in arrays.items():
        dtype = "<f8" if arr.dtype.kind == "f" else "<i8"
        listing.append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
        blobs.append(arr.astype(dtype).tobytes())
    head = json.dumps({"arrays": listing, "header": header}, sort_keys=True).encode()
    body = b"".join((magic, len(head).to_bytes(4, "little"), head, *blobs))
    write_whole(path, body + hashlib.sha256(body).digest())


def read_artifact(path, magic: bytes, what: str) -> tuple[dict, dict]:
    """The header and name -> array dict ``write_artifact`` wrote to ``path``.
    A wrong magic or trailer, a header that does not describe the remaining
    bytes exactly, or a non-finite float raises InputError naming ``what``."""
    blob = read_input(path, what)
    if blob[:len(magic)] != magic:
        raise InputError(f"not a {what}: bad magic {blob[:len(magic)]!r}")
    body, start = blob[:-32], len(magic) + 4
    if hashlib.sha256(body).digest() != blob[-32:]:
        raise InputError(f"corrupt {what}: checksum mismatch")
    offset = start + int.from_bytes(body[len(magic):start], "little")
    arrays = {}
    try:
        head = json.loads(body[start:offset])
        for entry in head["arrays"]:
            name, dtype, shape = entry["name"], entry["dtype"], tuple(entry["shape"])
            if not (isinstance(name, str) and name not in arrays and dtype in ("<f8", "<i8")
                    and all(type(n) is int and n >= 0 for n in shape)):
                raise ValueError(f"bad array entry {entry!r}")
            # both dtypes take 8 bytes; one that runs past the end is short to reshape
            end = offset + 8 * math.prod(shape)
            arrays[name], offset = np.frombuffer(body[offset:end], dtype).reshape(shape).copy(), end
        header = head["header"]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise InputError(f"corrupt {what} header: {exc!r}") from None
    if offset != len(body):
        raise InputError(f"corrupt {what}: its header does not describe its {len(body)} bytes")
    if any(a.dtype.kind == "f" and not np.isfinite(a).all() for a in arrays.values()):
        raise InputError(f"{what} holds non-finite values")
    return header, arrays


def load_dataset(path) -> Dataset:
    header, arrays = read_artifact(path, DATASET_MAGIC, "dataset file")
    try:
        return Dataset(n_classes=header["n_classes"], **arrays)
    except (KeyError, TypeError) as exc:
        raise InputError(f"corrupt dataset file: {exc!r}") from None
