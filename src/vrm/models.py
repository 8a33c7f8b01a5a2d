"""Small fully-connected classifiers and their checkpoint format."""
from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import read_artifact, write_artifact
from .errors import InputError, check_fields

CHECKPOINT_MAGIC = b"VRMCKPT2"

_ACTIVATIONS = {"relu": ad.relu, "tanh": ad.tanh}


@dataclass
class MLPSpec:
    """Architecture description: [input_dim, hidden..., n_classes]."""

    layer_widths: list[int]
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        self.layer_widths = widths = [operator.index(w) for w in self.layer_widths]
        check_fields(vars(self), (
            ("layer_widths", len(widths) >= 3, "must have at least one hidden layer"),
            ("layer_widths", all(w >= 1 for w in widths), "must be positive"),
            ("activation", self.activation in _ACTIVATIONS,
             f"must be one of {tuple(_ACTIVATIONS)}"),
            ("seed", operator.index(self.seed) >= 0, "must be nonnegative")))


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


def _param_shapes(widths) -> dict:
    """Each parameter array's name and shape, in ``MLP.parameters`` order."""
    shapes = {}
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        shapes[f"w{i}"], shapes[f"b{i}"] = (fan_in, fan_out), (fan_out,)
    return shapes


def save_checkpoint(model: MLP, path, epoch: int = 0) -> None:
    """An artifact whose header holds the spec and ``epoch``, and whose
    arrays are every layer's weight and bias."""
    meta = dict(vars(model.spec), epoch=epoch)
    names = _param_shapes(model.spec.layer_widths)
    write_artifact(path, CHECKPOINT_MAGIC, meta,
                   {name: p.data for name, p in zip(names, model.parameters())})


def load_checkpoint(path) -> tuple[MLP, dict]:
    meta, arrays = read_artifact(path, CHECKPOINT_MAGIC, "checkpoint file")
    try:
        spec = MLPSpec(meta["layer_widths"], meta["activation"], meta["seed"])
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"corrupt checkpoint metadata: {exc!r}") from None
    # checked before the model is built, so a corrupt width cannot allocate
    shapes = _param_shapes(spec.layer_widths)
    if {name: arr.shape for name, arr in arrays.items()} != shapes:
        raise InputError(f"checkpoint arrays do not fit its layer widths {spec.layer_widths}")
    model = MLP(spec)
    for name, p in zip(shapes, model.parameters()):
        p.data = arrays[name]
    return model, meta
