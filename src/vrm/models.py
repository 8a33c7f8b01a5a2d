"""Small fully-connected classifiers and their checkpoint format."""
from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import ArtifactReader, write_whole
from .errors import InputError, check_fields

CHECKPOINT_MAGIC = b"VRMCKPT1"

_ACTIVATIONS = {"relu": ad.relu, "tanh": ad.tanh}


@dataclass
class MLPSpec:
    """Architecture description: [input_dim, hidden..., n_classes]."""

    layer_widths: list[int]
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        self.layer_widths = widths = list(self.layer_widths)
        check_fields(vars(self), (
            ("layer_widths", len(widths) >= 3, "must have at least one hidden layer"),
            ("layer_widths", all(w >= 1 for w in widths), "must be positive"),
            ("activation", self.activation in _ACTIVATIONS,
             f"must be one of {tuple(_ACTIVATIONS)}")))


class MLP:
    """Feed-forward classifier with seeded initialization.

    Weights use fan-in-scaled normal init (gain 2 for relu, 1 for tanh);
    biases start at zero.
    """

    def __init__(self, spec: MLPSpec):
        self.spec = spec
        self._act = _ACTIVATIONS[spec.activation]
        rng = np.random.default_rng(spec.seed)
        gain = 2.0 if spec.activation == "relu" else 1.0
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for fan_in, fan_out in zip(spec.layer_widths[:-1], spec.layer_widths[1:]):
            scale = np.sqrt(gain / fan_in)
            w = rng.standard_normal((fan_in, fan_out)) * scale
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(np.zeros(fan_out), requires_grad=True))

    def parameters(self) -> list[Tensor]:
        params = []
        for w, b in zip(self.weights, self.biases):
            params.extend((w, b))
        return params

    def forward(self, x) -> Tensor:
        h = x if isinstance(x, Tensor) else Tensor(x)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.affine(h, w, b)
            if i != last:
                h = self._act(h)
        return h

    __call__ = forward

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Forward pass with no tape, returning plain arrays."""
        with ad.no_grad():
            return self.forward(np.asarray(x, dtype=float)).data

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.logits(x).argmax(axis=1)

    def param_checksum(self) -> str:
        h = hashlib.sha256()
        for p in self.parameters():
            h.update(p.data.tobytes())
        return h.hexdigest()


def save_checkpoint(model: MLP, path, epoch: int = 0) -> None:
    """Write magic, a length-prefixed JSON metadata block, then every
    layer's weight and bias arrays as little-endian float64."""
    meta = {
        "layer_widths": model.spec.layer_widths,
        "activation": model.spec.activation,
        "seed": model.spec.seed,
        "epoch": epoch,
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", len(blob)), blob]
    for w, b in zip(model.weights, model.biases):
        parts += [w.data.astype("<f8").tobytes(), b.data.astype("<f8").tobytes()]
    write_whole(path, b"".join(parts))


def load_checkpoint(path) -> tuple[MLP, dict]:
    reader = ArtifactReader(path, CHECKPOINT_MAGIC, "checkpoint file")
    (meta_len,) = struct.unpack("<I", reader.take(4))
    try:
        meta = json.loads(reader.take(meta_len).decode("utf-8"))
        spec = MLPSpec(meta["layer_widths"], meta["activation"], meta["seed"])
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"corrupt checkpoint metadata: {exc}") from exc
    # sized before the model is built, so a corrupt width cannot allocate
    widths = spec.layer_widths
    n_values = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths[:-1], widths[1:]))
    if reader.remaining != 8 * n_values:
        raise InputError(f"checkpoint holds {reader.remaining} weight bytes, "
                         f"its layer widths need {8 * n_values}")
    model = MLP(spec)
    for w, b in zip(model.weights, model.biases):
        w.data = reader.array("<f8", w.data.size).reshape(w.shape).copy()
        b.data = reader.array("<f8", b.data.size).copy()
    return model, meta
