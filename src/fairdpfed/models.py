"""Small differentiable models with closed-form gradients.

Two model kinds are supported: logistic regression (binary sigmoid head, or
softmax for >2 classes) and a one-hidden-layer tanh MLP. Parameters live in a
single flat float64 vector; flatten/unflatten is an exact bijection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numeric import ParamVector, RngStream

PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    kind: str  # "logistic_regression" | "mlp_1hidden"
    n_features: int
    n_classes: int = 2
    hidden_units: int = 0
    activation: str = "tanh"

    def __post_init__(self):
        if self.kind not in ("logistic_regression", "mlp_1hidden"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.n_features < 1:
            raise ValueError("n_features must be positive")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.kind == "mlp_1hidden" and self.hidden_units < 1:
            raise ValueError("mlp_1hidden requires hidden_units >= 1")
        if self.activation != "tanh":
            raise ValueError("only tanh activation is supported")

    @property
    def n_out(self) -> int:
        # binary models use a single sigmoid head
        return 1 if self.n_classes == 2 else self.n_classes

    @property
    def param_dim(self) -> int:
        d, out = self.n_features, self.n_out
        if self.kind == "logistic_regression":
            return out * d + out
        h = self.hidden_units
        return d * h + h + h * out + out


@dataclass(frozen=True)
class LabeledBatch:
    """Feature rows with class labels and a sensitive group index per row."""

    features: np.ndarray
    labels: np.ndarray
    groups: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        g = np.asarray(self.groups, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if len(X) != len(y) or len(y) != len(g):
            raise ValueError("features, labels, groups row counts disagree")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "groups", g)

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, idx) -> "LabeledBatch":
        return LabeledBatch(self.features[idx], self.labels[idx], self.groups[idx])


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: float
    per_group_accuracy: dict
    loss: float


def _unflatten(spec: ModelSpec, w: ParamVector):
    if w.shape != (spec.param_dim,):
        raise ValueError(
            f"parameter vector has dim {w.shape}, spec requires {spec.param_dim}"
        )
    d, out = spec.n_features, spec.n_out
    if spec.kind == "logistic_regression":
        W = w[: out * d].reshape(out, d)
        b = w[out * d :]
        return W, b
    h = spec.hidden_units
    i = 0
    W1 = w[i : i + d * h].reshape(d, h); i += d * h
    b1 = w[i : i + h]; i += h
    W2 = w[i : i + h * out].reshape(h, out); i += h * out
    b2 = w[i : i + out]
    return W1, b1, W2, b2


def _flatten(spec: ModelSpec, parts) -> ParamVector:
    return np.concatenate([p.ravel() for p in parts])


def _forward(spec: ModelSpec, w: ParamVector, X: np.ndarray):
    """Return (probabilities, hidden activations or None).

    Binary heads return p(class=1) of shape (n,); softmax heads return the
    full (n, n_classes) probability matrix.
    """
    if spec.kind == "logistic_regression":
        W, b = _unflatten(spec, w)
        z = X @ W.T + b
        hidden = None
    else:
        W1, b1, W2, b2 = _unflatten(spec, w)
        hidden = np.tanh(X @ W1 + b1)
        z = hidden @ W2 + b2
    if spec.n_out == 1:
        p = 1.0 / (1.0 + np.exp(-z[:, 0]))
    else:
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
    return p, hidden


def init_params(spec: ModelSpec, rng: RngStream) -> ParamVector:
    """Uniform[-0.05, 0.05] initialization, deterministic in the stream."""
    return rng.generator().uniform(-0.05, 0.05, size=spec.param_dim)


def loss(spec: ModelSpec, w: ParamVector, batch: LabeledBatch) -> float:
    """Mean cross-entropy with probabilities clamped away from 0 and 1."""
    if len(batch) == 0:
        raise ValueError("loss of empty batch is undefined")
    p, _ = _forward(spec, w, batch.features)
    y = batch.labels
    if spec.n_out == 1:
        p1 = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
        ll = np.where(y == 1, np.log(p1), np.log(1.0 - p1))
    else:
        py = np.clip(p[np.arange(len(y)), y], PROB_CLAMP, 1.0 - PROB_CLAMP)
        ll = np.log(py)
    return float(-np.mean(ll))


def gradient(spec: ModelSpec, w: ParamVector, batch: LabeledBatch) -> ParamVector:
    """Analytic gradient of :func:`loss` w.r.t. the flat parameter vector."""
    if len(batch) == 0:
        raise ValueError("gradient of empty batch is undefined")
    X, y = batch.features, batch.labels
    n = len(y)
    p, hidden = _forward(spec, w, X)
    if spec.n_out == 1:
        delta = (p - y.astype(np.float64))[:, None] / n  # (n, 1)
    else:
        delta = p.copy()
        delta[np.arange(n), y] -= 1.0
        delta /= n  # (n, C)
    if spec.kind == "logistic_regression":
        gW = delta.T @ X  # (out, d)
        gb = delta.sum(axis=0)
        return _flatten(spec, (gW, gb))
    W1, b1, W2, b2 = _unflatten(spec, w)
    gW2 = hidden.T @ delta  # (h, out)
    gb2 = delta.sum(axis=0)
    back = (delta @ W2.T) * (1.0 - hidden ** 2)  # (n, h)
    gW1 = X.T @ back  # (d, h)
    gb1 = back.sum(axis=0)
    return _flatten(spec, (gW1, gb1, gW2, gb2))


def local_train(
    spec: ModelSpec,
    w0: ParamVector,
    batch: LabeledBatch,
    epochs: int,
    lr: float,
    batch_size: int,
    rng: RngStream,
) -> ParamVector:
    """Mini-batch SGD; data reshuffled once per epoch from a per-epoch substream."""
    if len(batch) == 0:
        raise ValueError("cannot train on an empty shard")
    w = np.array(w0, dtype=np.float64, copy=True)
    n = len(batch)
    for e in range(epochs):
        perm = rng.child("epoch", e).generator().permutation(n)
        for start in range(0, n, batch_size):
            mb = batch.take(perm[start : start + batch_size])
            w -= lr * gradient(spec, w, mb)
    return w


def predict(spec: ModelSpec, w: ParamVector, X: np.ndarray) -> np.ndarray:
    """Class predictions; ties break toward the lowest class index."""
    p, _ = _forward(spec, w, X)
    if spec.n_out == 1:
        return (p > 0.5).astype(np.int64)
    return np.argmax(p, axis=1)


def evaluate(spec: ModelSpec, w: ParamVector, data: LabeledBatch) -> EvalMetrics:
    if len(data) == 0:
        raise ValueError("cannot evaluate on empty data")
    yhat = predict(spec, w, data.features)
    correct = yhat == data.labels
    per_group = {}
    for g in np.unique(data.groups):
        mask = data.groups == g
        per_group[int(g)] = float(np.mean(correct[mask]))
    return EvalMetrics(
        accuracy=float(np.mean(correct)),
        per_group_accuracy=per_group,
        loss=loss(spec, w, data),
    )
