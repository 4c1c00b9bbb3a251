"""Small differentiable models with closed-form gradients, and their trainer.

Two model kinds are supported: logistic regression (binary sigmoid head, or
softmax for >2 classes) and a one-hidden-layer tanh MLP. Parameters live in a
single flat float64 vector, whose blocks (weights, biases) unflatten gives as
views. A stack of models is a (g, P) matrix, one model per row.

:func:`train_clients` runs minibatch SGD for many clients together, client i
in row i of a matrix that it updates in place. At each step it groups the
clients by minibatch size and runs each group's forward and backward passes
as one stacked matmul per product, which applies to every (n, d) slice the
kernel that one model's 2-D product uses. Each row therefore ends
bit-identical to training its client alone. A row is set to the start model
at its client's first step and handed to a caller's hook right after its
last step, so a wide model's row is finished while it is still in cache.
:func:`gradient` and :func:`local_train` are the one-model cases of that code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numeric import ParamVector, RngStream, check_types, permutations

PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    kind: str  # "logistic_regression" | "mlp_1hidden"
    n_features: int
    n_classes: int = 2
    hidden_units: int = 0

    def __post_init__(self):
        check_types(self)
        if self.kind not in ("logistic_regression", "mlp_1hidden"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "mlp_1hidden" and self.hidden_units < 1:
            raise ValueError("mlp_1hidden requires hidden_units >= 1")

    @cached_property
    def n_out(self) -> int:
        # binary models use a single sigmoid head
        return 1 if self.n_classes == 2 else self.n_classes

    @cached_property
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
    """Views of the parameter blocks of w; leading axes of w index models."""
    if w.shape[-1:] != (spec.param_dim,):
        raise ValueError(
            f"parameter vector has dim {w.shape}, spec requires {spec.param_dim}"
        )
    lead = w.shape[:-1]
    d, out = spec.n_features, spec.n_out
    if spec.kind == "logistic_regression":
        W = w[..., : out * d].reshape(lead + (out, d))
        b = w[..., out * d :]
        return W, b
    h = spec.hidden_units
    i = 0
    W1 = w[..., i : i + d * h].reshape(lead + (d, h)); i += d * h
    b1 = w[..., i : i + h]; i += h
    W2 = w[..., i : i + h * out].reshape(lead + (h, out)); i += h * out
    b2 = w[..., i : i + out]
    return W1, b1, W2, b2


def _T(a: np.ndarray) -> np.ndarray:
    """Transpose the last two axes (a view)."""
    return a.swapaxes(-1, -2)


def _forward(spec: ModelSpec, parts, X: np.ndarray):
    """Return (probabilities, hidden activations or None).

    parts are :func:`_unflatten`'s blocks of one model (P,) with X (n, d), or
    of a stack of models (g, P) with one minibatch each, X (g, n, d). Binary
    heads return p(class=1) of shape (..., n); softmax heads return the full
    (..., n, n_classes) matrix.
    """
    if spec.kind == "logistic_regression":
        W, b = parts
        z = X @ _T(W) + b[..., None, :]
        hidden = None
    else:
        W1, b1, W2, b2 = parts
        hidden = np.tanh(X @ W1 + b1[..., None, :])
        z = hidden @ W2 + b2[..., None, :]
    if spec.n_out == 1:
        p = 1.0 / (1.0 + np.exp(-z[..., 0]))
    else:
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=-1, keepdims=True)
    return p, hidden


def init_params(spec: ModelSpec, rng: RngStream) -> ParamVector:
    """Uniform[-0.05, 0.05] initialization, deterministic in the stream."""
    return rng.generator().uniform(-0.05, 0.05, size=spec.param_dim)


def _mean_loss(spec: ModelSpec, p: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of :func:`_forward`'s probabilities p for labels y,
    with probabilities clamped away from 0 and 1."""
    if spec.n_out == 1:
        p1 = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
        ll = np.where(y == 1, np.log(p1), np.log(1.0 - p1))
    else:
        py = np.clip(p[np.arange(len(y)), y], PROB_CLAMP, 1.0 - PROB_CLAMP)
        ll = np.log(py)
    return float(-np.mean(ll))


def loss(spec: ModelSpec, w: ParamVector, batch: LabeledBatch) -> float:
    """Mean cross-entropy with probabilities clamped away from 0 and 1."""
    if len(batch) == 0:
        raise ValueError("loss of empty batch is undefined")
    p, _ = _forward(spec, _unflatten(spec, w), batch.features)
    return _mean_loss(spec, p, batch.labels)


def _gradients(spec: ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic gradients of :func:`loss`, one per model of the stack w (g, P),
    each on its own minibatch of n rows: X (g, n, d), y (g, n).

    Every product is a stacked matmul whose slices have the strides a single
    model's 2-D product has, so each slice runs the same kernel and row k of
    the result is bit-identical to the gradient of model k alone.
    """
    n = y.shape[-1]
    parts = _unflatten(spec, w)
    p, hidden = _forward(spec, parts, X)
    if spec.n_out == 1:
        delta = (p - y.astype(np.float64))[..., None] / n  # (g, n, 1)
    else:
        delta = p
        delta -= y[..., None] == np.arange(spec.n_out)
        delta /= n  # (g, n, C)
    G = np.empty(w.shape)
    if spec.kind == "logistic_regression":
        gW, gb = _unflatten(spec, G)  # views of G
        np.matmul(_T(delta), X, out=gW)
        gb[...] = delta.sum(axis=-2)
        return G
    gW1, gb1, gW2, gb2 = _unflatten(spec, G)
    back = (delta @ _T(parts[2])) * (1.0 - hidden ** 2)  # (g, n, h)
    np.matmul(_T(X), back, out=gW1)
    gb1[...] = back.sum(axis=-2)
    np.matmul(_T(hidden), delta, out=gW2)
    gb2[...] = delta.sum(axis=-2)
    return G


def gradient(spec: ModelSpec, w: ParamVector, batch: LabeledBatch) -> ParamVector:
    """Analytic gradient of :func:`loss` w.r.t. the flat parameter vector."""
    if len(batch) == 0:
        raise ValueError("gradient of empty batch is undefined")
    return _gradients(spec, w[None], batch.features[None], batch.labels[None])[0]


# A group step holds a few (g, P) float64 blocks at once (parameters,
# gradient, their parts). A group steps at most GROUP_BYTES // (8 * P) rows at
# a time, so those blocks, and the rows a caller's hook then finishes, stay
# within a 2 MB L2 cache: a 28,426-parameter model steps two rows at a time
# (its rounds ran ~9% faster than one row at a time, and no faster with
# four), a 21-parameter one three thousand.
GROUP_BYTES = 1 << 19


def _schedule(sizes: list, batch_size: int, max_rows: int) -> list:
    """The groups of every step of an epoch, for clients with these shard sizes.

    Client i's minibatch at step s is rows [s * batch_size, + n) of its
    shuffled shard, n = min(batch_size, sizes[i] - s * batch_size) when
    positive. A group is the clients of one step whose minibatches have the
    same n, at most max_rows of them. Returns, per step, its groups as
    (rows of W: a slice when contiguous, else a list; the clients; s *
    batch_size; n).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n_steps = -(-sizes // batch_size)
    cell_client = np.repeat(np.arange(len(sizes)), n_steps)
    cell_step = np.arange(int(n_steps.sum())) - np.repeat(np.cumsum(n_steps) - n_steps, n_steps)
    cell_rows = np.minimum(batch_size, sizes[cell_client] - cell_step * batch_size)
    cells = np.lexsort((cell_client, cell_rows, cell_step))
    client, step, rows = cell_client[cells], cell_step[cells], cell_rows[cells]

    # a group starts where (step, n) changes, and every max_rows cells on
    new_run = np.ones(len(cells), dtype=bool)
    new_run[1:] = (np.diff(step) != 0) | (np.diff(rows) != 0)
    run_start = np.maximum.accumulate(np.where(new_run, np.arange(len(cells)), 0))
    lo = np.flatnonzero((np.arange(len(cells)) - run_start) % max_rows == 0)
    hi = np.append(lo[1:], len(cells))
    clients = client.tolist()
    steps = [[] for _ in range(int(n_steps.max()))]
    for a, b, s, n in zip(lo.tolist(), hi.tolist(), step[lo].tolist(), rows[lo].tolist()):
        members = clients[a:b]
        first, last = members[0], members[-1]
        rows_of_W = slice(first, last + 1) if last - first == b - a - 1 else members
        steps[s].append((rows_of_W, members, s * batch_size, n))
    return steps


def train_clients(
    spec: ModelSpec,
    W: np.ndarray,
    w0: ParamVector,
    batches: list,
    epochs: int,
    lr: float,
    batch_size: int,
    rngs: list,
    finish=None,
) -> None:
    """Minibatch SGD for m clients at once from the start model w0, client i
    in row i of W.

    Client i trains on batches[i]. Row i of W is set to w0 at the client's
    first step (whatever W held before is ignored) and updated in place. Each
    epoch, client i reshuffles its shard with a permutation from
    rngs[i].child("epoch", e) and steps through it batch_size rows at a time.
    At each step the clients whose minibatch has the same row count form a
    group, whose forward and backward passes run as one stacked matmul per
    product (see :func:`_gradients`), so every row ends bit-identical to
    training its client alone. Right after client i's last step, finish(i)
    is called, once per client, in the order the steps run.
    """
    sizes = [len(b) for b in batches]
    steps = _schedule(sizes, batch_size, max(1, GROUP_BYTES // (8 * spec.param_dim)))
    last_step = [(n - 1) // batch_size for n in sizes]

    for e in range(epochs):
        perms = permutations([rng.child("epoch", e) for rng in rngs], sizes)
        for s, groups in enumerate(steps):
            for rows, members, start, n in groups:
                X = np.empty((len(members), n, spec.n_features))
                y = np.empty((len(members), n), dtype=np.int64)
                for j, i in enumerate(members):
                    # a permutation's indices are in range, so "clip" only
                    # skips the buffered bounds check the default mode makes
                    k = perms[i][start : start + n]
                    batches[i].features.take(k, axis=0, out=X[j], mode="clip")
                    batches[i].labels.take(k, out=y[j], mode="clip")
                Wg = W[rows]  # a view when the rows are contiguous, else a copy
                if e == 0 and s == 0:  # every client's first step
                    Wg[...] = w0
                G = _gradients(spec, Wg, X, y)
                G *= lr
                Wg -= G
                if not isinstance(rows, slice):
                    W[rows] = Wg
                if finish is not None and e == epochs - 1:
                    for i in members:
                        if last_step[i] == s:
                            finish(i)


def local_train(
    spec: ModelSpec,
    w0: ParamVector,
    batch: LabeledBatch,
    epochs: int,
    lr: float,
    batch_size: int,
    rng: RngStream,
) -> ParamVector:
    """Mini-batch SGD for one client (:func:`train_clients` with one row)."""
    W = np.array(w0, dtype=np.float64)[None]  # a copy, returned as is at 0 epochs
    train_clients(spec, W, w0, [batch], epochs, lr, batch_size, [rng])
    return W[0]


def evaluate(spec: ModelSpec, w: ParamVector, data: LabeledBatch) -> EvalMetrics:
    """Accuracy (ties break toward the lowest class index), per-group accuracy
    and :func:`loss`, from one forward pass over data."""
    p, _ = _forward(spec, _unflatten(spec, w), data.features)
    yhat = (p > 0.5).astype(np.int64) if spec.n_out == 1 else np.argmax(p, axis=1)
    correct = yhat == data.labels
    per_group = {}
    for g in np.unique(data.groups):
        mask = data.groups == g
        per_group[int(g)] = float(np.mean(correct[mask]))
    return EvalMetrics(
        accuracy=float(np.mean(correct)),
        per_group_accuracy=per_group,
        loss=_mean_loss(spec, p, data.labels),
    )
