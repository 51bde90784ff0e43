"""Single-bottleneck autoencoder trained with seeded mini-batch gradient
descent.

One encoder layer (identity or sigmoid activation) and one linear decoder
layer, mean squared reconstruction error, no momentum. Everything is
plain float64 numpy so the analytic gradients can be checked against
finite differences, and training is bit-reproducible from the seed. The
seeded draws (weight init and each epoch's shuffle) come from
:mod:`conceptmine.pcg64`, the stream of ``numpy.random.default_rng(seed)``
drawn in plain Python, so a run never imports ``numpy.random``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import ACTIVATIONS
from .matrix import CoocMatrix, concept_embeddings
from .pcg64 import PCG64

MODEL_FORMAT = "conceptmine-autoencoder-v1"


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class AEConfig:
    input_dim: int
    encoded_dim: int
    learning_rate: float = 0.01
    epochs: int = 500
    batch_size: int = 32
    seed: int = 0
    activation: str = "identity"

    def __post_init__(self) -> None:
        if self.encoded_dim <= 0 or self.input_dim <= 0:
            raise ValueError("dimensions must be positive")
        if self.encoded_dim >= self.input_dim:
            raise ValueError(
                f"encoded_dim {self.encoded_dim} must be smaller than "
                f"input_dim {self.input_dim}"
            )
        # learning_rate 0 is valid: updates become no-ops.
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")


@dataclass(frozen=True, eq=False)
class AEModel:
    W_enc: np.ndarray
    b_enc: np.ndarray
    W_dec: np.ndarray
    b_dec: np.ndarray
    activation: str

    @property
    def input_dim(self) -> int:
        return self.W_enc.shape[1]

    @property
    def encoded_dim(self) -> int:
        return self.W_enc.shape[0]


@dataclass(frozen=True)
class TrainReport:
    """Fields in the order ``train_report.json`` lists them."""

    seed: int
    final_loss: float
    loss_per_epoch: tuple[float, ...]


def init_model(config: AEConfig) -> AEModel:
    """Deterministic uniform(-s, s) weight init with s = sqrt(6/(m+k)),
    zero biases."""
    rng = PCG64(config.seed)
    scale = math.sqrt(6.0 / (config.input_dim + config.encoded_dim))
    k, m = config.encoded_dim, config.input_dim
    return AEModel(
        W_enc=np.array(rng.uniform(-scale, scale, k * m)).reshape(k, m),
        b_enc=np.zeros(k),
        W_dec=np.array(rng.uniform(-scale, scale, m * k)).reshape(m, k),
        b_dec=np.zeros(m),
        activation=config.activation,
    )


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "identity":
        return z
    if activation == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    raise ValueError(f"unknown activation {activation!r}")


def forward_all(model: AEModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched forward pass over rows of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(
            f"batch shape {X.shape} does not match input_dim {model.input_dim}"
        )
    encoded = _activate(X @ model.W_enc.T + model.b_enc, model.activation)
    reconstructed = encoded @ model.W_dec.T + model.b_dec
    return encoded, reconstructed


def _as_batch(batch: Sequence[np.ndarray] | np.ndarray, input_dim: int) -> np.ndarray:
    X = np.asarray(batch, dtype=np.float64)
    if X.ndim == 1 and X.size == 0:
        raise ValueError("batch is empty")
    X = np.atleast_2d(X)
    if X.shape[0] == 0:
        raise ValueError("batch is empty")
    if X.shape[1] != input_dim:
        raise ValueError(
            f"batch dimension {X.shape[1]} does not match input_dim {input_dim}"
        )
    return X


def _gradients(
    model: AEModel, X: np.ndarray
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Mean squared reconstruction error over the 2-D float64 batch X and
    its exact backpropagation gradients, in parameter order (W_enc, b_enc,
    W_dec, b_dec).

    Loss is the batch mean of (1/m) * sum_j (reconstructed_j - x_j)^2.
    """
    n, m = X.shape
    encoded, reconstructed = forward_all(model, X)
    residual = reconstructed - X
    loss = float(np.sum(residual * residual)) / (n * m)

    d_recon = (2.0 / (n * m)) * residual
    grad_W_dec = d_recon.T @ encoded
    grad_b_dec = d_recon.sum(axis=0)
    d_encoded = d_recon @ model.W_dec
    if model.activation == "sigmoid":
        d_pre = d_encoded * encoded * (1.0 - encoded)
    else:
        d_pre = d_encoded
    grad_W_enc = d_pre.T @ X
    grad_b_enc = d_pre.sum(axis=0)
    return loss, (grad_W_enc, grad_b_enc, grad_W_dec, grad_b_dec)


def train(
    model: AEModel, data: Sequence[np.ndarray] | np.ndarray, config: AEConfig
) -> tuple[AEModel, TrainReport]:
    """Seeded shuffled mini-batch gradient descent.

    Per-epoch losses are the pre-update training losses averaged over the
    epoch's batches (weighted by batch size). Raises
    :class:`TrainingDiverged` naming the epoch if the loss goes
    non-finite.
    """
    X = _as_batch(data, model.input_dim)
    n = X.shape[0]
    orders = PCG64(config.seed).permutations(n)
    # One model whose parameter arrays every step updates in place.
    trained = AEModel(
        W_enc=model.W_enc.copy(), b_enc=model.b_enc.copy(),
        W_dec=model.W_dec.copy(), b_dec=model.b_dec.copy(),
        activation=model.activation,
    )
    params = (trained.W_enc, trained.b_enc, trained.W_dec, trained.b_dec)
    lr = config.learning_rate
    losses: list[float] = []

    # Overflow to inf is the divergence signal checked below; do not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = np.array(next(orders))
            epoch_sse = 0.0
            for lo in range(0, n, config.batch_size):
                rows = order[lo : lo + config.batch_size]
                loss, grads = _gradients(trained, X[rows])
                if not math.isfinite(loss):
                    raise TrainingDiverged(f"non-finite loss in epoch {epoch}")
                epoch_sse += loss * len(rows)
                for param, grad in zip(params, grads):
                    param -= lr * grad
            losses.append(epoch_sse / n)
    return trained, TrainReport(
        seed=config.seed, final_loss=losses[-1], loss_per_epoch=tuple(losses)
    )


def encode_all(
    model: AEModel, C: CoocMatrix, normalized: bool = False
) -> np.ndarray:
    """Encoded vector of every (optionally L2-normalized) co-occurrence
    row, in concept order; shape (m, k)."""
    if model.input_dim != C.m_concepts:
        raise ValueError(
            f"model input_dim {model.input_dim} does not match "
            f"{C.m_concepts} concepts"
        )
    rows = concept_embeddings(C, normalized=normalized)
    encoded, _ = forward_all(model, rows)
    return encoded


def save_model(model: AEModel, path: str | Path, seed: int | None = None) -> None:
    """JSON model file; parameter floats round-trip bit-exactly."""
    record = {
        "format": MODEL_FORMAT,
        "input_dim": model.input_dim,
        "encoded_dim": model.encoded_dim,
        "activation": model.activation,
        "seed": seed,
        "w_enc": model.W_enc.tolist(),
        "b_enc": model.b_enc.tolist(),
        "w_dec": model.W_dec.tolist(),
        "b_dec": model.b_dec.tolist(),
    }
    Path(path).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> AEModel:
    """Read a :func:`save_model` file; every parameter's shape must agree
    with the header and the activation must be known."""
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if record.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} file")
    for key in ("input_dim", "encoded_dim", "activation", "w_enc", "b_enc", "w_dec", "b_dec"):
        if key not in record:
            raise ValueError(f"{path}: missing field {key!r}")
    if record["activation"] not in ACTIVATIONS:
        raise ValueError(f"{path}: activation must be one of {ACTIVATIONS}")
    k, m = record["encoded_dim"], record["input_dim"]
    shapes = {"w_enc": (k, m), "b_enc": (k,), "w_dec": (m, k), "b_dec": (m,)}
    params = {key: np.asarray(record[key], dtype=np.float64) for key in shapes}
    for key, shape in shapes.items():
        if params[key].shape != shape:
            raise ValueError(
                f"{path}: {key} has shape {params[key].shape}, header says {shape}"
            )
    return AEModel(
        W_enc=params["w_enc"],
        b_enc=params["b_enc"],
        W_dec=params["w_dec"],
        b_dec=params["b_dec"],
        activation=record["activation"],
    )
