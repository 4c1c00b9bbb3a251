"""Small differentiable models with closed-form gradients, and their one trainer.

Two model kinds are supported: logistic regression (binary sigmoid head, or
softmax for >2 classes) and a one-hidden-layer tanh MLP. Parameters live in a
single flat float64 vector, whose blocks (weights, biases) unflatten gives as
views. A stack of models is a (g, P) matrix, one model per row.

:func:`train_clients` is the one SGD loop: the federation's sampled clients
and the centralized baseline (one client on the whole training set) both
train through it. It runs minibatch SGD for many clients together, client i
in row i of a matrix that it updates in place, on row spans of one pool.
Each epoch it runs :func:`schedule`'s blocks: the full minibatches step by
step, then the short last ones as ragged blocks of at most
:func:`block_rows` clients, sorted by row count. A :class:`Plan` binds
those blocks to the matrix once, while the sampled spans repeat: every
client's pool rows (shuffled in place each epoch by
numeric.shuffle_clients), each block's parameter and gradient arrays and
its subgroups' views of them, and the buffers its minibatch and its
intermediates are written into. An epoch therefore costs one pass over the
blocks plus the shuffles. A block's rows are one gather from the pool. Its
clients with one row count form a subgroup, whose forward and backward
products run as one stacked matmul each, which applies to every (n, d)
slice the kernel that one model's 2-D product uses; a subgroup of one
client makes those 2-D calls itself. The elementwise stages, the update
and the write-back run once per block. Each row therefore ends
bit-identical to training its client alone. A row is set to the start
model at its client's first step, and a block's finished rows are handed
to a caller's hook at once, right after the block's step, so a wide
model's rows are finished while they are still in cache. Overflow is
ignored: runaway weights saturate the probabilities, and the hook's norm
check reports the update. :func:`gradient` (one block of one model) and
:func:`train_clients` share one gradient formula, :func:`_gradients`,
which writes every intermediate into work arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

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


def _forward(spec: ModelSpec, groups, work: tuple):
    """Return (probabilities, hidden activations or None) of a block, both
    views of its work arrays (see :func:`_work`).

    A block is a run of rows, one minibatch per model, in subgroups of equal
    row count. groups lists them as (parts, X, work, ...): :func:`_unflatten`'s
    blocks of one model (P,) with its minibatch X (n, d), or of a stack of
    models (g, P) with one minibatch each, X (g, n, d), and views of the
    block's work arrays for those rows. The products and bias adds run per
    subgroup; the elementwise stages run once, on work (R, ...) for all R
    rows of the block. Binary heads return p(class=1) of shape (R,); softmax
    heads return the full (R, n_classes) matrix.
    """
    z, r = work[:2]
    if spec.kind == "logistic_regression":
        hidden = None
        for (W, b), X, sub, *_ in groups:
            np.matmul(X, _T(W), out=sub[0])
            np.add(sub[0], b[..., None, :], out=sub[0])
    else:
        hidden = work[2]
        for (W1, b1, _, _), X, sub, *_ in groups:
            np.matmul(X, W1, out=sub[2])
            np.add(sub[2], b1[..., None, :], out=sub[2])
        np.tanh(hidden, out=hidden)
        for (_, _, W2, b2), _, sub, *_ in groups:
            np.matmul(sub[2], W2, out=sub[0])
            np.add(sub[0], b2[..., None, :], out=sub[0])
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
    work = _work(spec, batch.labels.shape)
    p, _ = _forward(spec, [(_unflatten(spec, w), batch.features, work)], work)
    return _mean_loss(spec, p, batch.labels)


def _gradients(spec: ModelSpec, groups, y: np.ndarray, n, work: tuple) -> None:
    """Write the analytic gradients of :func:`loss` for a block of models.

    groups lists the block's subgroups as (parts, X, work, grads), as
    :func:`_forward` reads them, with grads :func:`_unflatten`'s views of a
    gradient buffer shaped as the parts. y (R,) holds the block's labels and
    n each row's minibatch size: a number, or a column (R, 1) when the
    subgroups' row counts differ. work is :func:`_work` for (R,) rows; every
    intermediate is written into it. Every product of a stack is a stacked
    matmul whose slices have the strides a single model's 2-D product has,
    each slice runs the same kernel, and the elementwise stages act on each
    row alone, so model k's gradient is bit-identical to the gradient of
    model k alone.
    """
    p, hidden = _forward(spec, groups, work)
    delta = work[0]  # p's array, (R, n_out)
    if spec.n_out == 1:
        p -= y
    else:
        delta -= y[:, None] == np.arange(spec.n_out)
    delta /= n
    if spec.kind == "logistic_regression":
        for _, X, sub, (gW, gb) in groups:
            np.matmul(_T(sub[0]), X, out=gW)
            np.add.reduce(sub[0], axis=-2, out=gb)
        return
    for parts, _, sub, (_, _, gW2, gb2) in groups:
        np.matmul(_T(sub[2]), sub[0], out=gW2)
        np.add.reduce(sub[0], axis=-2, out=gb2)
        np.matmul(sub[0], _T(parts[2]), out=sub[3])  # the backward pass, (..., n, h)
    back = work[3]
    np.square(hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)
    back *= hidden
    for _, X, sub, (gW1, gb1, _, _) in groups:
        np.matmul(_T(X), sub[3], out=gW1)
        np.add.reduce(sub[3], axis=-2, out=gb1)


@np.errstate(over="ignore")
def gradient(spec: ModelSpec, w: ParamVector, batch: LabeledBatch) -> ParamVector:
    """Analytic gradient of :func:`loss` w.r.t. the flat parameter vector."""
    if len(batch) == 0:
        raise ValueError("gradient of empty batch is undefined")
    G = np.empty(spec.param_dim)
    work = _work(spec, batch.labels.shape)
    _gradients(spec, [(_unflatten(spec, w), batch.features, work, _unflatten(spec, G))],
               batch.labels, len(batch), work)
    return G


# A block step holds a few (g, P) float64 arrays at once (parameters,
# gradient, their parts). A block steps at most block_rows(P) models at a
# time, so those arrays, and the rows a caller's hook then finishes, stay
# within a 2 MB L2 cache: a 28,426-parameter model steps two rows at a time
# (its rounds ran ~9% faster than one row at a time, and no faster with
# four), a 21-parameter one three thousand. The server clips its updates
# in blocks of the same budget.
GROUP_BYTES = 1 << 19


def block_rows(param_dim: int) -> int:
    """The most models of param_dim parameters one block holds."""
    return max(1, GROUP_BYTES // (8 * param_dim))


def schedule(spec: ModelSpec, spans, batch_size: int) -> tuple:
    """The blocks :func:`train_clients` runs each epoch, for clients that
    train on these [start, stop) spans of a pool.

    Full step s is one block of the clients with more than s full minibatches
    of batch_size rows, in ascending order. After the last one, the short
    last minibatches run as ragged blocks: sorted by row count, then by
    client, and cut every block_rows(P) clients, so a block can span several
    row counts. Each client's minibatches therefore keep their order. A full
    step of more than block_rows(P) clients is cut the same way. Returns
    (sizes, offsets, blocks, order). A block is (its rows of W, a slice when
    contiguous; its subgroups, (clients, row count) each; the positions in it
    of the clients it starts; the positions of the clients it ends; its slice
    of order). (concatenated shuffles + offsets)[order] are the blocks' pool
    rows.
    """
    spans = np.asarray(spans, dtype=np.int64).reshape(-1, 2)
    sizes = spans[:, 1] - spans[:, 0]
    n_steps = -(-sizes // batch_size)
    cell_client = np.repeat(np.arange(len(sizes)), n_steps)
    cell_step = np.arange(int(n_steps.sum())) - np.repeat(np.cumsum(n_steps) - n_steps, n_steps)
    cell_rows = np.minimum(batch_size, sizes[cell_client] - cell_step * batch_size)
    tail = n_steps.max()  # the short last minibatches' key: one run after every full step
    cells = np.lexsort((cell_client, cell_rows, np.where(cell_rows == batch_size, cell_step, tail)))
    client, step, rows = cell_client[cells], cell_step[cells], cell_rows[cells]
    run = np.where(rows == batch_size, step, tail)

    # a block starts where the run changes, and every block_rows cells on
    max_rows = block_rows(spec.param_dim)
    new_run = np.ones(len(cells), dtype=bool)
    new_run[1:] = np.diff(run) != 0
    run_start = np.maximum.accumulate(np.where(new_run, np.arange(len(cells)), 0))
    lo = np.flatnonzero((np.arange(len(cells)) - run_start) % max_rows == 0)
    hi = np.append(lo[1:], len(cells))
    row_end = np.cumsum(rows)
    row_start = row_end - rows
    shuffle_start = (np.cumsum(sizes) - sizes)[client] + step * batch_size
    order = np.repeat(shuffle_start - row_start, rows) + np.arange(int(row_end[-1]))

    clients, first = client.tolist(), (step == 0).tolist()
    last, counts = (step == n_steps[client] - 1).tolist(), rows.tolist()
    blocks = []
    for a, b, r0, r1 in zip(lo.tolist(), hi.tolist(), row_start[lo].tolist(),
                            row_end[hi - 1].tolist()):
        members = clients[a:b]
        contiguous = members == list(range(members[0], members[0] + b - a))
        blocks.append((slice(members[0], members[-1] + 1) if contiguous else members,
                       [(len(list(same)), n) for n, same in groupby(counts[a:b])],
                       [j for j in range(b - a) if first[a + j]],
                       [j for j in range(b - a) if last[a + j]], slice(r0, r1)))
    return sizes, np.repeat(spans[:, 0], sizes), blocks, order


def _stack(a: np.ndarray, g: int) -> np.ndarray:
    """The rows a (g * n, ...) of g minibatches as the stack (g, n, ...), or
    as they are when g is 1: a subgroup of one model makes 2-D calls."""
    return a if g == 1 else a.reshape((g, -1) + a.shape[1:])


def _models(A: np.ndarray, c: int, g: int) -> np.ndarray:
    """Models c .. c + g - 1 of the (m, P) matrix A: the stack (g, P), or
    the one model (P,) when g is 1."""
    return A[c] if g == 1 else A[c : c + g]


class Plan:
    """:func:`schedule`'s blocks for clients on these spans of a pool, bound
    once to the (m, P) matrix W that :func:`train_clients` trains them in.

    It holds everything an epoch reuses: every client's pool rows (the
    template its shuffle starts from), the buffer they are shuffled in and
    its per-client views, and one step per block. Shuffling a client's rows
    start .. stop - 1 in place draws the swaps of shuffling 0 .. n - 1, so
    the buffer then holds start plus the client's permutation. A step holds
    the block's minibatch buffers, its parameter and gradient arrays, its
    work arrays (see :func:`_work`), each subgroup's views of them, and each
    row's minibatch size. A contiguous block's parameters are views of W; a
    block of scattered clients is gathered into a buffer and written back
    after each step. Blocks run one after another, so all of them share one
    buffer of each kind, sized for the largest block, and blocks of one
    shape share its views.
    """

    def __init__(self, spec: ModelSpec, spans: list, batch_size: int, W: np.ndarray):
        self.spans, self.W = spans, W
        sizes, offsets, blocks, order = schedule(spec, spans, batch_size)
        local = np.arange(len(offsets)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        self.span_rows = offsets + local  # client i's pool rows start .. stop - 1
        self.shuffled = np.empty_like(self.span_rows)
        self.views = np.split(self.shuffled, np.cumsum(sizes)[:-1])
        self.order = order
        self.rows = np.empty_like(order)  # the epoch's pool rows, in block order

        P, d = spec.param_dim, spec.n_features
        max_models = max(sum(g for g, _ in subgroups) for _, subgroups, *_ in blocks)
        max_cells = max(c.stop - c.start for *_, c in blocks)
        X, y = np.empty(max_cells * d), np.empty(max_cells, dtype=np.int64)
        G, gathered = np.empty(max_models * P), np.empty(max_models * P)
        work = [np.empty(max_cells * w) for w in _work_widths(spec)]
        shapes = {}
        self.steps = []
        for rows, subgroups, fresh, done, cells in blocks:
            m, R = sum(g for g, _ in subgroups), cells.stop - cells.start
            key = tuple(subgroups)
            if key not in shapes:
                Gb, Wb = G[: m * P].reshape(m, P), gathered[: m * P].reshape(m, P)
                Xb, work_b = X[: R * d].reshape(R, d), _work(spec, (R,), work)
                firsts = np.cumsum([(0, 0)] + [(g, g * n) for g, n in subgroups], axis=0)
                subs = [(c, g, slice(r, r + g * n)) for (c, r), (g, n) in zip(firsts, subgroups)]
                sizes_n = (subgroups[0][1] if len(subgroups) == 1 else  # each row's minibatch size
                           np.repeat([n for _, n in subgroups], [g * n for g, n in subgroups])
                           .astype(np.float64)[:, None])
                views = [(_stack(Xb[r], g), tuple(_stack(a[r], g) for a in work_b),
                          _unflatten(spec, _models(Gb, c, g)), _unflatten(spec, _models(Wb, c, g)))
                         for c, g, r in subs]
                shapes[key] = (Xb, y[:R], Gb, work_b, sizes_n, subs, Wb, views)
            Xb, yb, Gb, work_b, sizes_n, subs, Wb, views = shapes[key]
            if isinstance(rows, slice):
                clients, gather, Wg = np.arange(rows.start, rows.stop), None, W[rows]
                parts = [_unflatten(spec, _models(Wg, c, g)) for c, g, _ in subs]
            else:
                clients = gather = np.array(rows)
                Wg, parts = Wb, [gathered_parts for *_, gathered_parts in views]
            groups = [(p, Xs, ws, gs) for p, (Xs, ws, gs, _) in zip(parts, views)]
            # all of the block's clients (slice(None)), some or none (None)
            starts = None if not fresh else slice(None) if len(fresh) == m else fresh
            ends = (None if not done else (None, clients) if len(done) == m else
                    (done, clients[done]))
            self.steps.append((self.rows[cells], Xb, yb, gather, Wg, Gb, groups, sizes_n, work_b,
                               starts, ends))


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
    the plan's blocks run in turn. A block's rows are one take from the pool
    into its buffers; its products run per subgroup as stacked matmuls and
    everything else once per block (see :func:`_gradients`), so every row
    ends bit-identical to training its client alone. Right after the block
    that holds the last step of clients rows (an int array), finish(rows, B)
    is called with B (len(rows), P) holding their final models, once per
    client, in the order the blocks run. The hook may change B in place;
    W[rows] then holds what it left there.
    """
    W, rows = plan.W, plan.rows
    for e in range(epochs):
        np.copyto(plan.shuffled, plan.span_rows)
        shuffle_clients(rng, ids, e, plan.views)
        np.take(plan.shuffled, plan.order, out=rows)
        last = finish is not None and e == epochs - 1
        for idx, X, y, gather, Wg, G, groups, n, work, starts, ends in plan.steps:
            # every index is in range: mode "clip" only spares take a buffer
            pool.features.take(idx, axis=0, out=X, mode="clip")
            pool.labels.take(idx, out=y, mode="clip")
            fresh = starts if e == 0 else None
            if gather is not None and fresh != slice(None):  # else every row is set to w0
                W.take(gather, axis=0, out=Wg, mode="clip")
            if fresh is not None:
                Wg[fresh] = w0
            _gradients(spec, groups, y, n, work)
            G *= lr
            Wg -= G
            if last and ends is not None:
                done, done_rows = ends
                if done is None:  # the block's every client ends here
                    finish(done_rows, Wg)
                else:
                    B = Wg[done]
                    finish(done_rows, B)
                    Wg[done] = B
            if gather is not None:
                W[gather] = Wg


@np.errstate(over="ignore")
def evaluate(spec: ModelSpec, w: ParamVector, data: LabeledBatch) -> EvalMetrics:
    """Accuracy (ties break toward the lowest class index), per-group accuracy
    and :func:`loss`, from one forward pass over data and its group index."""
    work = _work(spec, data.labels.shape)
    p, _ = _forward(spec, [(_unflatten(spec, w), data.features, work)], work)
    yhat = (p > 0.5).astype(np.int64) if spec.n_out == 1 else np.argmax(p, axis=1)
    correct = yhat == data.labels
    groups, index, counts = data.group_index
    hits = np.bincount(index, weights=correct, minlength=len(groups))
    return EvalMetrics(
        accuracy=float(np.mean(correct)),
        per_group_accuracy=dict(zip(groups, (hits / counts).tolist())),
        loss=_mean_loss(spec, p, data.labels),
    )
