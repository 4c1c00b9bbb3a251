"""Small differentiable models with closed-form gradients, and their one trainer.

Two model kinds are supported: logistic regression (binary sigmoid head, or
softmax for >2 classes) and a one-hidden-layer tanh MLP. Parameters live in a
single flat float64 vector, whose blocks (weights, biases) unflatten gives as
views. A stack of models is a (g, P) matrix, one model per row.

:func:`train_clients` is the one SGD loop: the federation's sampled clients
and the centralized baseline (one client on the whole training set) both
train through it. It runs minibatch SGD for many clients together, client i
in row i of a matrix that it updates in place, on row spans of one pool.
Each epoch it runs :func:`schedule`'s groups: the full minibatches step by
step, then the short last ones grouped by row count. A :class:`Plan` binds
those groups to the matrix once, while the sampled spans repeat: every
client's pool rows (shuffled in place each epoch by
numeric.shuffle_clients), each group's parameter and gradient views, and
the buffers its minibatch and its intermediates are written into. An epoch
therefore costs one pass over the groups plus the shuffles. A group's rows
are one gather from the pool, and its forward and backward passes run as
one stacked matmul per product, which applies to every (n, d) slice the
kernel that one model's 2-D product uses. Each row therefore ends
bit-identical to training its client alone. A row is set to the start
model at its client's first step and handed to a caller's hook right after
its last step, so a wide model's row is finished while it is still in
cache. Overflow is ignored: runaway weights saturate the probabilities, and
the hook's norm check reports the update. :func:`gradient` and
:func:`train_clients` share one gradient formula, :func:`_gradients`,
which writes every intermediate into work arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numeric import ParamVector, RngStream, check_types, shuffle_clients

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

    @cached_property
    def group_index(self) -> tuple:
        """(the groups present, ascending, as ints; each row's position among
        them; each group's row count), worked out once per batch."""
        groups, index, counts = np.unique(self.groups, return_inverse=True, return_counts=True)
        return groups.tolist(), index, counts


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


def _work(spec: ModelSpec, lead: tuple, flat=None) -> tuple:
    """The work arrays :func:`_forward` and :func:`_gradients` compute in, for
    inputs of lead = (..., n) rows: the head's outputs (..., n, n_out), one
    value per row (..., n, 1) and, for the MLP, the hidden activations and
    their backward pass, each (..., n, h). They are the leading elements of
    the flat buffers when given (one per array, as :func:`_work_widths`
    lists them), else new arrays."""
    widths = _work_widths(spec)
    if flat is None:
        return tuple(np.empty(lead + (w,)) for w in widths)
    size = math.prod(lead)
    return tuple(b[: size * w].reshape(lead + (w,)) for b, w in zip(flat, widths))


def _work_widths(spec: ModelSpec) -> tuple:
    mlp = spec.kind == "mlp_1hidden"
    return (spec.n_out, 1) + ((spec.hidden_units,) * 2 if mlp else ())


def _forward(spec: ModelSpec, parts, X: np.ndarray, work: tuple):
    """Return (probabilities, hidden activations or None), both views of the
    work arrays (see :func:`_work`).

    parts are :func:`_unflatten`'s blocks of one model (P,) with X (n, d), or
    of a stack of models (g, P) with one minibatch each, X (g, n, d). Binary
    heads return p(class=1) of shape (..., n); softmax heads return the full
    (..., n, n_classes) matrix.
    """
    z, r = work[:2]
    if spec.kind == "logistic_regression":
        W, b = parts
        np.matmul(X, _T(W), out=z)
        z += b[..., None, :]
        hidden = None
    else:
        W1, b1, W2, b2 = parts
        hidden = work[2]
        np.matmul(X, W1, out=hidden)
        hidden += b1[..., None, :]
        np.tanh(hidden, out=hidden)
        np.matmul(hidden, W2, out=z)
        z += b2[..., None, :]
    if spec.n_out == 1:  # 1 / (1 + exp(-z))
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        np.divide(1.0, z, out=z)
        return z[..., 0], hidden
    np.max(z, axis=-1, keepdims=True, out=r)
    z -= r
    np.exp(z, out=z)
    np.sum(z, axis=-1, keepdims=True, out=r)
    z /= r
    return z, hidden


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


@np.errstate(over="ignore")
def loss(spec: ModelSpec, w: ParamVector, batch: LabeledBatch) -> float:
    """Mean cross-entropy with probabilities clamped away from 0 and 1."""
    if len(batch) == 0:
        raise ValueError("loss of empty batch is undefined")
    p, _ = _forward(spec, _unflatten(spec, w), batch.features, _work(spec, batch.labels.shape))
    return _mean_loss(spec, p, batch.labels)


def _gradients(spec: ModelSpec, parts, X: np.ndarray, y: np.ndarray, grads,
               work: tuple) -> None:
    """Write the analytic gradients of :func:`loss` into grads.

    parts and grads are :func:`_unflatten`'s views of the parameters and of a
    gradient buffer of the same shape: one model (P,) with its minibatch of n
    rows X (n, d), y (n,), or a stack of models (g, P), each with its own
    minibatch, X (g, n, d), y (g, n). work is :func:`_work` for y's shape;
    every intermediate is written into it. Every product of a stack is a
    stacked matmul whose slices have the strides a single model's 2-D product
    has, so each slice runs the same kernel and model k's gradient is
    bit-identical to the gradient of model k alone.
    """
    n = y.shape[-1]
    p, hidden = _forward(spec, parts, X, work)
    delta = work[0]  # p's array, (..., n, n_out)
    if spec.n_out == 1:
        p -= y
    else:
        delta -= y[..., None] == np.arange(spec.n_out)
    delta /= n
    if spec.kind == "logistic_regression":
        gW, gb = grads
        np.matmul(_T(delta), X, out=gW)
        gb[...] = delta.sum(axis=-2)
        return
    gW1, gb1, gW2, gb2 = grads
    np.matmul(_T(hidden), delta, out=gW2)
    gb2[...] = delta.sum(axis=-2)
    back = np.matmul(delta, _T(parts[2]), out=work[3])  # (..., n, h)
    np.square(hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)
    back *= hidden
    np.matmul(_T(X), back, out=gW1)
    gb1[...] = back.sum(axis=-2)


@np.errstate(over="ignore")
def gradient(spec: ModelSpec, w: ParamVector, batch: LabeledBatch) -> ParamVector:
    """Analytic gradient of :func:`loss` w.r.t. the flat parameter vector."""
    if len(batch) == 0:
        raise ValueError("gradient of empty batch is undefined")
    G = np.empty(spec.param_dim)
    _gradients(spec, _unflatten(spec, w), batch.features, batch.labels, _unflatten(spec, G),
               _work(spec, batch.labels.shape))
    return G


# A group step holds a few (g, P) float64 blocks at once (parameters,
# gradient, their parts). A group steps at most GROUP_BYTES // (8 * P) rows at
# a time, so those blocks, and the rows a caller's hook then finishes, stay
# within a 2 MB L2 cache: a 28,426-parameter model steps two rows at a time
# (its rounds ran ~9% faster than one row at a time, and no faster with
# four), a 21-parameter one three thousand.
GROUP_BYTES = 1 << 19


def schedule(spec: ModelSpec, spans, batch_size: int) -> tuple:
    """The groups :func:`train_clients` runs each epoch, for clients that train
    on these [start, stop) spans of a pool.

    Full group s holds the clients with more than s full minibatches of
    batch_size rows; after the last one come the short last minibatches, one
    group per row count n, ascending. A group lists its clients in ascending
    order, at most GROUP_BYTES // (8 * P) of them, so each client's
    minibatches keep their order. Returns (sizes, offsets, groups, order). A
    group is (its rows of W, a slice when contiguous; n; the positions in it
    of the clients it starts; the clients it ends; its slice of order).
    (concatenated shuffles + offsets)[order] are the groups' pool rows.
    """
    spans = np.asarray(spans, dtype=np.int64).reshape(-1, 2)
    sizes = spans[:, 1] - spans[:, 0]
    n_steps = -(-sizes // batch_size)
    cell_client = np.repeat(np.arange(len(sizes)), n_steps)
    cell_step = np.arange(int(n_steps.sum())) - np.repeat(np.cumsum(n_steps) - n_steps, n_steps)
    cell_rows = np.minimum(batch_size, sizes[cell_client] - cell_step * batch_size)
    key = np.where(cell_rows == batch_size, cell_step, n_steps.max() + cell_rows)
    cells = np.lexsort((cell_client, key))
    client, step, rows, key = cell_client[cells], cell_step[cells], cell_rows[cells], key[cells]

    # a group starts where the key changes, and every max_rows cells on
    max_rows = max(1, GROUP_BYTES // (8 * spec.param_dim))
    new_run = np.ones(len(cells), dtype=bool)
    new_run[1:] = np.diff(key) != 0
    run_start = np.maximum.accumulate(np.where(new_run, np.arange(len(cells)), 0))
    lo = np.flatnonzero((np.arange(len(cells)) - run_start) % max_rows == 0)
    hi = np.append(lo[1:], len(cells))
    row_end = np.cumsum(rows)
    row_start = row_end - rows
    shuffle_start = (np.cumsum(sizes) - sizes)[client] + step * batch_size
    order = np.repeat(shuffle_start - row_start, rows) + np.arange(int(row_end[-1]))

    clients, first = client.tolist(), (step == 0).tolist()
    last = (step == n_steps[client] - 1).tolist()
    groups = []
    for a, b, n, r0, r1 in zip(lo.tolist(), hi.tolist(), rows[lo].tolist(),
                               row_start[lo].tolist(), row_end[hi - 1].tolist()):
        members = clients[a:b]
        contiguous = members[-1] - members[0] == b - a - 1
        groups.append((slice(members[0], members[-1] + 1) if contiguous else members, n,
                       [j for j in range(b - a) if first[a + j]],
                       [i for i, end in zip(members, last[a:b]) if end], slice(r0, r1)))
    return sizes, np.repeat(spans[:, 0], sizes), groups, order


class Plan:
    """:func:`schedule`'s groups for clients on these spans of a pool, bound
    once to the (m, P) matrix W that :func:`train_clients` trains them in.

    It holds everything an epoch reuses: every client's pool rows (the
    template its shuffle starts from), the buffer they are shuffled in and
    its per-client views, and one step per group. Shuffling a client's rows
    start .. stop - 1 in place draws the swaps of shuffling 0 .. n - 1, so
    the buffer then holds start plus the client's permutation. A step
    holds the group's parameter and gradient views, its minibatch buffers and
    its work arrays (see :func:`_work`). A contiguous group's parameters are
    views of W; a group of scattered clients is gathered into a buffer and
    written back after each step. Groups run one after another, so all of
    them share one buffer of each kind, sized for the largest group, and
    groups of one shape share its views.
    """

    def __init__(self, spec: ModelSpec, spans: list, batch_size: int, W: np.ndarray):
        self.spans, self.W = spans, W
        sizes, offsets, groups, order = schedule(spec, spans, batch_size)
        local = np.arange(len(offsets)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        self.span_rows = offsets + local  # client i's pool rows start .. stop - 1
        self.shuffled = np.empty_like(self.span_rows)
        self.views = np.split(self.shuffled, np.cumsum(sizes)[:-1])
        self.order = order
        self.rows = np.empty_like(order)  # the epoch's pool rows, in group order

        P, d = spec.param_dim, spec.n_features
        members = [rows.stop - rows.start if isinstance(rows, slice) else len(rows)
                   for rows, *_ in groups]
        max_cells = max(c.stop - c.start for *_, c in groups)
        X, y = np.empty(max_cells * d), np.empty(max_cells, dtype=np.int64)
        G, gathered = np.empty(max(members) * P), np.empty(max(members) * P)
        work = [np.empty(max_cells * w) for w in _work_widths(spec)]
        shapes = {}
        self.steps = []
        for g, (rows, n, fresh, done, cells) in zip(members, groups):
            if (g, n) not in shapes:
                Gg, Wb = G[: g * P].reshape(g, P), gathered[: g * P].reshape(g, P)
                shapes[g, n] = (X[: g * n * d].reshape(g, n, d), y[: g * n].reshape(g, n),
                                Gg, _unflatten(spec, Gg), _work(spec, (g, n), work),
                                Wb, _unflatten(spec, Wb))
            Xg, yg, Gg, grads, work_g, Wb, Wb_parts = shapes[g, n]
            if isinstance(rows, slice):
                gather, Wg = None, W[rows]
                parts = _unflatten(spec, Wg)
            else:
                gather, Wg, parts = np.array(rows), Wb, Wb_parts
            self.steps.append((self.rows[cells].reshape(g, n), Xg, yg, gather, Wg, parts, Gg,
                               grads, work_g, fresh, done))


@np.errstate(over="ignore")
def train_clients(
    spec: ModelSpec,
    w0: ParamVector,
    pool: LabeledBatch,
    plan: Plan,
    epochs: int,
    lr: float,
    rng: RngStream,
    ids: list,
    finish=None,
) -> None:
    """Minibatch SGD for m clients at once from the start model w0, client i
    in row i of plan.W.

    Client i trains on its span of pool, and plan is the :class:`Plan` of the
    spans. Row i of W is set to w0 at the client's first step (whatever W
    held before is ignored) and updated in place. Each epoch, client i's
    pool rows are shuffled in place as rng.child("client", ids[i])
    .child("epoch", e) would shuffle them (see :func:`shuffle_clients`), and
    the plan's groups run in turn. A group's rows are one take from the pool
    into its buffers, and its forward and backward passes run as one stacked
    matmul per product (see :func:`_gradients`), so every row ends
    bit-identical to training its client alone. Right after client i's last
    step, finish(i) is called, once per client, in the order the groups run.
    """
    W, rows = plan.W, plan.rows
    for e in range(epochs):
        np.copyto(plan.shuffled, plan.span_rows)
        shuffle_clients(rng, ids, e, plan.views)
        np.take(plan.shuffled, plan.order, out=rows)
        for idx, X, y, gather, Wg, parts, G, grads, work, fresh, done in plan.steps:
            # every index is in range: mode "clip" only spares take a buffer
            pool.features.take(idx, axis=0, out=X, mode="clip")
            pool.labels.take(idx, out=y, mode="clip")
            if gather is not None:
                W.take(gather, axis=0, out=Wg, mode="clip")
            if e == 0 and fresh:
                Wg[fresh] = w0
            _gradients(spec, parts, X, y, grads, work)
            G *= lr
            Wg -= G
            if gather is not None:
                W[gather] = Wg
            if finish is not None and e == epochs - 1:
                for i in done:
                    finish(i)


@np.errstate(over="ignore")
def evaluate(spec: ModelSpec, w: ParamVector, data: LabeledBatch) -> EvalMetrics:
    """Accuracy (ties break toward the lowest class index), per-group accuracy
    and :func:`loss`, from one forward pass over data and its group index."""
    p, _ = _forward(spec, _unflatten(spec, w), data.features, _work(spec, data.labels.shape))
    yhat = (p > 0.5).astype(np.int64) if spec.n_out == 1 else np.argmax(p, axis=1)
    correct = yhat == data.labels
    groups, index, counts = data.group_index
    hits = np.bincount(index, weights=correct, minlength=len(groups))
    return EvalMetrics(
        accuracy=float(np.mean(correct)),
        per_group_accuracy=dict(zip(groups, (hits / counts).tolist())),
        loss=_mean_loss(spec, p, data.labels),
    )
