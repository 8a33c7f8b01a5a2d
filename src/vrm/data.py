"""Synthetic classification datasets, virtual-view generation, and the
checksummed artifact format that dataset and checkpoint files share."""
from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, UsageError, check_fields

DATASET_MAGIC = b"VRMDATA2"

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
        self.op_pool = pool = tuple(self.op_pool)
        self.n_ops, self.seed = operator.index(self.n_ops), operator.index(self.seed)
        check_fields(vars(self), (
            ("op_pool", set(pool) <= set(AUGMENT_OPS) and len(set(pool)) == len(pool),
             f"must name distinct ops of {AUGMENT_OPS}"),
            ("n_ops", 0 <= self.n_ops <= len(pool), f"must lie in [0, {len(pool)}]"),
            ("magnitude", 0 <= self.magnitude <= 1, "must lie in [0, 1]"),
            ("seed", self.seed >= 0, "must be nonnegative")))


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


# numpy's SeedSequence hash constants (4-word pool) and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT, _MASK64, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, 2**64 - 1, 2**128 - 1


@functools.lru_cache(maxsize=16)
def _hash_consts(init: int, mult: int, n_calls: int) -> np.ndarray:
    """The [n_calls + 1, 1] uint32 constants of successive SeedSequence
    hashes from ``init``: call t xors with entry t, multiplies by entry t + 1."""
    return np.array([init * pow(mult, t, 2**32) % 2**32 for t in range(n_calls + 1)],
                    dtype=np.uint32)[:, None]


def _hash(v, consts, t, calls):
    """Hash calls t .. t + calls - 1 of ``v``, one per row of the result."""
    v = (v ^ consts[t:t + calls]) * consts[t + 1:t + calls + 1]
    return v ^ v >> np.uint32(16)


def _mix(x, y):
    v = x * _MIX_L - y * _MIX_R
    return v ^ v >> np.uint32(16)


def _pcg64_states(entropy: np.ndarray) -> list:
    """``(state, inc)`` of ``np.random.PCG64(row)`` for each row of the
    [n, k] uint32 ``entropy``, as Python ints: SeedSequence's mixing of its
    4-word pool, its ``generate_state(4, uint64)`` and PCG64's seeding, all
    of which NEP 19 keeps fixed.  The 32-bit steps run on [4, n] uint32
    arrays for all rows at once, wrapping as numpy's C does (one source
    word's updates of the other three are independent); the 128-bit steps
    run on Python ints."""
    n, k = entropy.shape
    hashes = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * max(0, k - 4))
    pool = np.zeros((4, n), dtype=np.uint32)
    pool[:k] = entropy[:, :4].T
    pool = _hash(pool, hashes, 0, 4)
    for src in range(4):
        others = [dst for dst in range(4) if dst != src]
        pool[others] = _mix(pool[others], _hash(pool[src], hashes, 4 + 3 * src, 3))
    for i in range(4, k):
        pool = _mix(pool, _hash(entropy[:, i], hashes, 4 * i, 4))
    # generate_state cycles through the pool for its 8 words, which it
    # reads as 4 little-endian uint64s: seed's high and low halves, then initseq's
    words = _hash(np.tile(pool, (2, 1)), _hash_consts(_INIT_B, _MULT_B, 8), 0, 8)
    states = []
    for s_hi, s_lo, q_hi, q_lo in np.ascontiguousarray(words.T, "<u4").view("<u8").tolist():
        inc = (q_hi << 65 | q_lo << 1 | 1) & _MASK128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return states


class _Stream:
    """numpy's PCG64 on Python ints from a ``(state, inc)``: the LCG step,
    the XSL-RR output and the buffered upper half of a 64-bit output,
    which ``next32`` hands out before stepping again."""

    __slots__ = ("state", "inc", "has_uint32", "uinteger")

    def __init__(self, state: int, inc: int):
        self.state, self.inc = state, inc
        self.has_uint32 = self.uinteger = 0

    def next32(self) -> int:
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        self.state = s = (self.state * _PCG_MULT + self.inc) & _MASK128
        x = ((s >> 64) ^ s) & _MASK64
        rot = s >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        self.has_uint32, self.uinteger = 1, x >> 32
        return x & 0xFFFFFFFF

    def bounded(self, high: int) -> int:
        """A draw from [0, high] by Lemire's rejection, for high < 2**32 - 1,
        as numpy's ``random_bounded_uint64`` makes it."""
        if high == 0:
            return 0
        span = high + 1
        m = self.next32() * span
        if m & 0xFFFFFFFF < span:
            threshold = (0xFFFFFFFF - high) % span
            while m & 0xFFFFFFFF < threshold:
                m = self.next32() * span
        return m >> 32

    def choice(self, pop: int, size: int) -> list:
        """``Generator.choice(pop, size, replace=False)`` for pop <= 10000:
        Floyd's sampling, then a Fisher-Yates shuffle of the picks."""
        picks = []
        for j in range(pop - size, pop):
            v = self.bounded(j)
            picks.append(j if v in picks else v)
        for i in range(size - 1, 0, -1):
            j = self.bounded(i)
            picks[i], picks[j] = picks[j], picks[i]
        return picks

    def numpy_state(self) -> dict:
        return {"bit_generator": "PCG64", "state": {"state": self.state, "inc": self.inc},
                "has_uint32": self.has_uint32, "uinteger": self.uinteger}


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # sqrt(row . row) per row, which is np.linalg.norm of a 1-D float64
    # row; a reduction over axis 1 differs from it in the last bit on some rows
    return np.array([math.sqrt(row.dot(row)) for row in rows])


# Each op draws for one row from that row's generator, then is applied to
# every row that drew it in the same slot at once.  draw(rng, dim) returns
# the row's draws, or None when the op leaves the row as it is;
# apply(rows, magnitude, *draws stacked over the rows) returns the new rows.


def _noise_draw(rng, dim):
    g = rng.standard_normal(dim)
    g_norm = math.sqrt(g.dot(g))
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


class AugmentPlan(NamedTuple):
    """The draws of one batch's virtual views, made before the batch is
    seen: for each op slot, a ``(op name, rows, draws)`` entry per op some
    row drew in that slot, with the draws stacked over those rows.  ``key``
    is the spec's seed, ``n_ops`` and ``op_pool``, then the step key, and
    ``shape`` the batch's ``(rows, dim)``: the draws depend on nothing else."""

    key: tuple
    shape: tuple
    slots: tuple


def _plan_key(spec: AugmentSpec, step_key) -> tuple:
    return (spec.seed, spec.n_ops, spec.op_pool, *map(operator.index, step_key))


def _draw(spec: AugmentSpec, entropy: np.ndarray, dim: int) -> tuple:
    """The slots of :class:`AugmentPlan` for the [n, k] uint32 seed words
    ``entropy``: row i draws from the generator
    ``np.random.default_rng(entropy[i])`` would give.  Each row picks
    ``spec.n_ops`` ops from its own stream and makes every draw of them,
    in order, from that stream."""
    if spec.n_ops == 0:
        return ()
    # slots[s][op name] -> (rows that drew the op in slot s, their draws)
    slots = [{} for _ in range(spec.n_ops)]
    # the picks come from a Python-int stream; one generator, set to each
    # row's state after them, makes the op draws
    rng = np.random.Generator(np.random.PCG64(0))
    for i, (state, inc) in enumerate(_pcg64_states(entropy)):
        stream = _Stream(state, inc)
        picks = stream.choice(len(spec.op_pool), spec.n_ops)
        rng.bit_generator.state = stream.numpy_state()
        for slot, op_idx in zip(slots, picks):
            name = spec.op_pool[op_idx]
            drawn = _OPS[name][0](rng, dim)
            if drawn is not None:
                rows, draws = slot.setdefault(name, ([], []))
                rows.append(i)
                draws.append(drawn)
    return tuple(tuple((name, np.array(rows), tuple(np.array(column) for column in zip(*draws)))
                       for name, (rows, draws) in slot.items()) for slot in slots)


def _apply(x: np.ndarray, magnitude: float, slots: tuple) -> np.ndarray:
    """The views of the rows of ``x`` under the drawn ``slots``: each op
    slot in turn, one vectorized update per op, with the arithmetic of a
    single row done elementwise."""
    out = np.array(x, dtype=np.float64)
    for slot in slots:
        for name, rows, draws in slot:
            out[rows] = _OPS[name][1](out[rows], magnitude, *draws)
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
    slots = _draw(spec, words[None, :], x.size)
    return _apply(x.reshape(1, -1), spec.magnitude, slots).reshape(x.shape)


def draw_plan(spec: AugmentSpec, step_key, shape) -> AugmentPlan:
    """The draws of ``virtual_batch`` for a batch of ``shape`` (rows, dim)
    at ``step_key``, made without the batch."""
    n_rows, dim = shape
    prefix = _seed_words((spec.seed, *step_key))
    # a row index below 2**32 is the one word i
    entropy = np.empty((n_rows, prefix.size + 1), dtype=np.uint32)
    entropy[:, :-1] = prefix
    entropy[:, -1] = np.arange(n_rows)
    return AugmentPlan(_plan_key(spec, step_key), (n_rows, dim), _draw(spec, entropy, dim))


def virtual_batch(xb: np.ndarray, spec: AugmentSpec, step_key,
                  plan: AugmentPlan | None = None) -> np.ndarray:
    """Virtual views for a whole batch: sample i draws as
    ``virtual_view(xb[i], spec, (*step_key, i))`` does.  ``plan``, when
    given, is ``draw_plan(spec, step_key, xb.shape)`` made ahead of the
    call; a plan drawn for another spec, key or shape raises UsageError."""
    if plan is None:
        plan = draw_plan(spec, step_key, np.shape(xb))
    elif (plan.key, plan.shape) != (_plan_key(spec, step_key), np.shape(xb)):
        raise UsageError(f"a plan drawn for {plan.key} at shape {plan.shape} cannot "
                         f"make the views of {_plan_key(spec, step_key)} at {np.shape(xb)}")
    return _apply(xb, spec.magnitude, plan.slots)


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
