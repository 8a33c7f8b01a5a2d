"""Synthetic classification datasets, virtual-view generation, and the
dataset file format."""
from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError

DATASET_MAGIC = b"VRMDATA1"

AUGMENT_OPS = ("gaussian_noise", "feature_dropout", "random_scale", "random_shift")


@dataclass
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.train_idx = np.asarray(self.train_idx, dtype=np.int64)
        self.val_idx = np.asarray(self.val_idx, dtype=np.int64)
        n = self.inputs.shape[0]
        if self.inputs.ndim != 2 or self.labels.shape != (n,):
            raise InputError("need [n, dim] inputs and one label per row")
        if n == 0:
            raise InputError("dataset is empty")
        for name, idx in (("train", self.train_idx), ("val", self.val_idx)):
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise InputError(f"{name} split indices must lie in [0, {n})")
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
    if kind not in ("blobs", "spirals"):
        raise ParameterError(f"unknown dataset kind {kind!r}")
    if n_classes < 2:
        raise ParameterError("need >= 2 classes")
    if n_per_class < 10:
        raise ParameterError("need >= 10 points per class")
    min_dim = 2 if kind == "spirals" else 1
    if dim < min_dim:
        raise ParameterError(f"{kind} need dim >= {min_dim}")
    if not 0.0 <= noise < math.inf:
        raise ParameterError("noise must be finite and nonnegative")
    if seed < 0:
        raise ParameterError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    n = n_classes * n_per_class
    labels = np.repeat(np.arange(n_classes), n_per_class)

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

    perm = rng.permutation(n)
    n_train = int(round(0.8 * n))
    return Dataset(inputs, labels, perm[:n_train], perm[n_train:], n_classes)


@dataclass
class AugmentSpec:
    """How virtual views are produced: ``n_ops`` operations drawn
    without replacement from ``op_pool``, each bounded so that one op
    moves a point by at most magnitude * (|x| + 1)."""

    n_ops: int = 2
    magnitude: float = 0.3
    op_pool: tuple = AUGMENT_OPS
    seed: int = 0

    def __post_init__(self):
        self.op_pool = tuple(self.op_pool)
        unknown = set(self.op_pool) - set(AUGMENT_OPS)
        if unknown:
            raise ParameterError(f"unknown augment ops {sorted(unknown)}")
        if not 0 <= self.n_ops <= len(self.op_pool):
            raise ParameterError("n_ops must lie in [0, len(op_pool)]")
        if not 0.0 <= self.magnitude <= 1.0:
            raise ParameterError("magnitude must lie in [0, 1]")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")


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
    # one np.linalg.norm per row: a reduction over axis 1 differs from it
    # in the last bit on some rows
    return np.array([float(np.linalg.norm(row)) for row in rows])


# Each op draws for one row from that row's generator, then is applied to
# every row that drew it in the same slot at once.  draw(rng, dim) returns
# the row's draws, or None when the op leaves the row as it is;
# apply(rows, magnitude, *draws stacked over the rows) returns the new rows.


def _noise_draw(rng, dim):
    g = rng.standard_normal(dim)
    g_norm = np.linalg.norm(g)
    if g_norm == 0.0:
        return None
    return g, g_norm, rng.uniform()


def _noise_apply(x, magnitude, g, g_norm, u):
    budget = magnitude * (_row_norms(x) + 1.0)
    return x + (budget * u)[:, None] * (g / g_norm[:, None])


def _dropout_draw(rng, dim):
    # soften a random quarter of the coordinates instead of zeroing
    # them outright, which keeps the perturbation inside the budget
    return (rng.choice(dim, size=max(1, dim // 4), replace=False),)


def _dropout_apply(x, magnitude, idx):
    x[np.arange(x.shape[0])[:, None], idx] *= 1.0 - magnitude
    return x


def _signed_draw(rng, dim):
    return (rng.uniform(-1.0, 1.0),)


def _scale_apply(x, magnitude, u):
    return x * (1.0 + magnitude * u)[:, None]


def _shift_apply(x, magnitude, u):
    shift = magnitude * u * (_row_norms(x) + 1.0) / np.sqrt(x.shape[1])
    return x + shift[:, None]


_OPS = {
    "gaussian_noise": (_noise_draw, _noise_apply),
    "feature_dropout": (_dropout_draw, _dropout_apply),
    "random_scale": (_signed_draw, _scale_apply),
    "random_shift": (_signed_draw, _shift_apply),
}


def _augment(x: np.ndarray, spec: AugmentSpec, seeds) -> np.ndarray:
    """Virtual views of the rows of ``x``; row i draws from a generator
    seeded with the words ``seeds[i]``.

    Each row picks ``spec.n_ops`` ops and makes every draw of them, in
    order, from its own generator.  Then each op slot is applied across
    the batch, one vectorized update per op, with the arithmetic of a
    single row done elementwise.
    """
    out = np.array(x, dtype=np.float64)
    if spec.n_ops == 0:
        return out
    n_rows, dim = out.shape
    pool = [_OPS[name] for name in spec.op_pool]
    # slots[s][op] -> (rows that drew op in slot s, their draws)
    slots = [{} for _ in range(spec.n_ops)]
    for i in range(n_rows):
        rng = np.random.default_rng(seeds[i])
        for slot, op_idx in zip(slots, rng.choice(len(pool), size=spec.n_ops, replace=False)):
            draw, apply = pool[op_idx]
            drawn = draw(rng, dim)
            if drawn is not None:
                rows, draws = slot.setdefault(apply, ([], []))
                rows.append(i)
                draws.append(drawn)
    for slot in slots:
        for apply, (rows, draws) in slot.items():
            stacked = [np.array(column) for column in zip(*draws)]
            out[rows] = apply(out[rows], spec.magnitude, *stacked)
    return out


def virtual_view(x: np.ndarray, spec: AugmentSpec, per_sample_seed) -> np.ndarray:
    """One stochastic semantic-preserving transform of a sample.

    Deterministic in (spec.seed, per_sample_seed).  With n_ops = 0 the
    sample passes through unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    key = per_sample_seed if np.iterable(per_sample_seed) else (per_sample_seed,)
    words = _seed_words((spec.seed, *(int(s) for s in key)))
    return _augment(x.reshape(1, -1), spec, [words]).reshape(x.shape)


def virtual_batch(xb: np.ndarray, spec: AugmentSpec, step_key: tuple) -> np.ndarray:
    """Virtual views for a whole batch: sample i draws as
    ``virtual_view(xb[i], spec, (*step_key, i))`` does."""
    prefix = _seed_words((spec.seed, *(int(s) for s in step_key)))
    seeds = [np.concatenate((prefix, _seed_words((i,)))) for i in range(len(xb))]
    return _augment(xb, spec, seeds)


# -- file format ---------------------------------------------------------


def save_dataset(data: Dataset, path) -> None:
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        n, d = data.inputs.shape
        fh.write(struct.pack("<5I", n, d, data.n_classes,
                             data.train_idx.size, data.val_idx.size))
        fh.write(data.train_idx.astype("<u4").tobytes())
        fh.write(data.val_idx.astype("<u4").tobytes())
        fh.write(data.inputs.astype("<f8").tobytes())
        fh.write(data.labels.astype("<i4").tobytes())


def read_input(path, what: str) -> bytes:
    """The bytes of the input file ``path``.  A file that cannot be read
    (missing, a directory, no permission) raises InputError naming ``what``."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"{what} not found or unreadable: {path} ({exc.strerror})") from None


class ArtifactReader:
    """Reads a binary artifact front to back, after its magic bytes.  An
    unreadable file, a wrong magic, asking for more bytes than are left, or
    leaving bytes unread raises InputError."""

    def __init__(self, path, magic: bytes, what: str):
        self._blob = read_input(path, what)
        head = self._blob[:len(magic)]
        if head != magic:
            raise InputError(f"not a {what}: bad magic {head!r}")
        self._pos = len(magic)
        self.what = what

    @property
    def remaining(self) -> int:
        return len(self._blob) - self._pos

    def take(self, n_bytes: int) -> bytes:
        if n_bytes > self.remaining:
            raise InputError(f"truncated {self.what}: needs {n_bytes} more bytes, "
                             f"{self.remaining} left")
        self._pos += n_bytes
        return self._blob[self._pos - n_bytes:self._pos]

    def array(self, dtype: str, count: int) -> np.ndarray:
        return np.frombuffer(self.take(np.dtype(dtype).itemsize * count), dtype=dtype)

    def finish(self) -> None:
        if self.remaining:
            raise InputError(f"{self.what} has trailing bytes")


def load_dataset(path) -> Dataset:
    reader = ArtifactReader(path, DATASET_MAGIC, "dataset file")
    n, d, c, n_train, n_val = struct.unpack("<5I", reader.take(20))
    train_idx = reader.array("<u4", n_train).astype(np.int64)
    val_idx = reader.array("<u4", n_val).astype(np.int64)
    inputs = reader.array("<f8", n * d).reshape(n, d).copy()
    labels = reader.array("<i4", n).astype(np.int64)
    reader.finish()
    return Dataset(inputs, labels, train_idx, val_idx, c)
