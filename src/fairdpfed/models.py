"""Small differentiable models with closed-form gradients, and their one trainer.

Two model kinds are supported: logistic regression (binary sigmoid head, or
softmax for >2 classes) and a one-hidden-layer tanh MLP. Parameters live in a
single flat float64 vector, whose blocks (weights, biases) unflatten gives as
views. A stack of models is a (g, P) matrix, one model per row.

:func:`train_clients` is the one SGD loop: the federation's sampled clients
and the centralized baseline (one client on the whole training set) both
train through it. It runs minibatch SGD for many clients together, client i
in row i of a matrix, on row spans of one pool. Each epoch it runs
:func:`schedule`'s blocks: the full minibatches step by step, then the short
last ones as ragged blocks of at most :func:`block_rows` clients, sorted by
row count. Every block trains in one parameter buffer, which takes a
block's rows of the matrix only when the block before held other rows and
writes them back only when the block after holds other rows. A block's
clients with one row count form a subgroup, whose forward and backward
products run as one stacked matmul each, which applies to every (n, d)
slice the kernel that one model's 2-D product uses; a subgroup of one
client makes those 2-D calls itself. The elementwise stages and the update
run once per block, and each act on each row alone, so each row ends
bit-identical to training its client alone.

The gradient formula is written once, as an emitter: :func:`_forward` and
:func:`_gradients` return a block's calls as a list of (ufunc, args) pairs,
every output passed positionally, every view they read or write (the
transposes, the bias rows, the p view, the subgroups' slices) built into
the list. :func:`gradient`, :func:`loss` and :func:`evaluate` emit a list
and run it once. A :class:`Plan` emits a block's list, followed by the
update, when it first binds a block of that shape (its subgroups), and keeps
the lists, and the buffers they are bound to, for the run: a step then runs
its list with no keyword parsing, scalar conversion or view building. The
calls are those the formula always made, with bit-identical substitutions:
``np.reciprocal(z)`` for ``1.0 / z`` (the one IEEE division either way);
read-only 0-d float64 arrays for 1.0, the minibatch size and the learning
rate (a ufunc turns a Python number into that array on every call); float64
labels, taken per block from a copy made per :func:`train_clients` call
(0/1 and class indices are exact in float64, and subtracting them is the
same float64 subtraction the int64 labels were cast to); a preallocated
softmax mask filled by np.equal (the same one-hot bools); and
np.maximum.reduce and np.add.reduce with positional keepdims, which is what
np.max and np.sum call. A row is set to the start model at its client's first step, and a
block's finished rows are handed to a caller's hook at once, right after the
block's step, so a wide model's rows are finished while they are still in
cache. Overflow is ignored: runaway weights saturate the probabilities, and
the hook's norm check reports the update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from .numeric import ParamVector, RngStream, check_floats, check_types, shuffle_clients

PROB_CLAMP = 1e-12


def _constant(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array: a call list's scalar operand,
    converted once. A ufunc takes it faster than a Python or numpy scalar,
    which it would convert to such an array on every call, and computes the
    same float64 loop."""
    a = np.array(float(value))
    a.flags.writeable = False
    return a


ONE = _constant(1.0)


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
        tail = ("hidden_units + (hidden_units + 1) * n_out" if self.kind == "mlp_1hidden"
                else "n_out")
        check_floats(f"P = (n_features + 1) * {tail}", self.param_dim)

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
    inputs of lead = (..., n) rows, as :func:`_work_layout` lists them: the
    head's outputs (..., n, n_out), one value per row (..., n, 1), for the
    MLP the hidden activations and their backward pass, each (..., n, h), and
    for a softmax head the label mask (..., n, n_out). They are the leading
    elements of the flat buffers when given (one per array), else new
    arrays."""
    layout = _work_layout(spec)
    if flat is None:
        return tuple(np.empty(lead + (w,), dtype) for w, dtype in layout)
    size = math.prod(lead)
    return tuple(b[: size * w].reshape(lead + (w,)) for b, (w, _) in zip(flat, layout))


def _work_layout(spec: ModelSpec) -> list:
    """(width, dtype) of each of :func:`_work`'s arrays."""
    layout = [(spec.n_out, np.float64), (1, np.float64)]
    if spec.kind == "mlp_1hidden":
        layout += [(spec.hidden_units, np.float64)] * 2
    if spec.n_out > 1:
        layout.append((spec.n_out, np.bool_))
    return layout


def _run(ops: list) -> None:
    """Make a call list's calls, in order."""
    for f, args in ops:
        f(*args)


def _forward(spec: ModelSpec, groups, work: tuple, ops: list) -> np.ndarray:
    """Append to ops the calls that compute a block's probabilities, and
    return the view of its work arrays (see :func:`_work`) they end in.

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
        for (W, b), X, sub, *_ in groups:
            ops += [(np.matmul, (X, _T(W), sub[0])), (np.add, (sub[0], b[..., None, :], sub[0]))]
    else:
        hidden = work[2]
        for (W1, b1, _, _), X, sub, *_ in groups:
            ops += [(np.matmul, (X, W1, sub[2])), (np.add, (sub[2], b1[..., None, :], sub[2]))]
        ops.append((np.tanh, (hidden, hidden)))
        for (_, _, W2, b2), _, sub, *_ in groups:
            ops += [(np.matmul, (sub[2], W2, sub[0])),
                    (np.add, (sub[0], b2[..., None, :], sub[0]))]
    if spec.n_out == 1:  # 1 / (1 + exp(-z))
        ops += [(np.negative, (z, z)), (np.exp, (z, z)), (np.add, (z, ONE, z)),
                (np.reciprocal, (z, z))]
        return z[..., 0]
    ops += [(np.maximum.reduce, (z, -1, None, r, True)), (np.subtract, (z, r, z)),
            (np.exp, (z, z)), (np.add.reduce, (z, -1, None, r, True)), (np.divide, (z, r, z))]
    return z


def init_params(spec: ModelSpec, rng: RngStream) -> ParamVector:
    """Uniform[-0.05, 0.05] initialization, deterministic in the stream."""
    return rng.generator().uniform(-0.05, 0.05, size=spec.param_dim)


def _probabilities(spec: ModelSpec, w: ParamVector, data: LabeledBatch) -> np.ndarray:
    """:func:`_forward`'s probabilities of one model on every row of data."""
    work, ops = _work(spec, data.labels.shape), []
    p = _forward(spec, [(_unflatten(spec, w), data.features, work)], work, ops)
    _run(ops)
    return p


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
    return _mean_loss(spec, _probabilities(spec, w, batch), batch.labels)


def _gradients(spec: ModelSpec, groups, y: np.ndarray, n, work: tuple) -> list:
    """The call list that writes the analytic gradients of :func:`loss` for
    a block of models: (ufunc, args) pairs, every output passed positionally.

    groups lists the block's subgroups as (parts, X, work, grads), as
    :func:`_forward` reads them, with grads :func:`_unflatten`'s views of a
    gradient buffer shaped as the parts. y (R,) holds the block's labels as
    float64 and n each row's minibatch size: a 0-d array, or a column
    (R, 1) when the subgroups' row counts differ. work is :func:`_work` for
    (R,) rows; every intermediate is written into it. The list holds every
    view it reads or writes, so running it reads whatever the arrays behind
    those views hold then. Every product of a stack is a stacked matmul
    whose slices have the strides a single model's 2-D product has, each
    slice runs the same kernel, and the elementwise stages act on each row
    alone, so model k's gradient is bit-identical to the gradient of model
    k alone.
    """
    ops = []
    p = _forward(spec, groups, work, ops)
    delta = work[0]  # p's array, (R, n_out)
    if spec.n_out == 1:
        ops.append((np.subtract, (p, y, p)))
    else:  # minus the one-hot labels
        mask = work[-1]
        ops += [(np.equal, (y[:, None], np.arange(spec.n_out, dtype=np.float64), mask)),
                (np.subtract, (delta, mask, delta))]
    ops.append((np.divide, (delta, n, delta)))
    if spec.kind == "logistic_regression":
        for _, X, sub, (gW, gb) in groups:
            ops += [(np.matmul, (_T(sub[0]), X, gW)), (np.add.reduce, (sub[0], -2, None, gb))]
        return ops
    hidden, back = work[2:4]
    for parts, _, sub, (_, _, gW2, gb2) in groups:
        ops += [(np.matmul, (_T(sub[2]), sub[0], gW2)), (np.add.reduce, (sub[0], -2, None, gb2)),
                (np.matmul, (sub[0], _T(parts[2]), sub[3]))]  # the backward pass, (..., n, h)
    ops += [(np.square, (hidden, hidden)), (np.subtract, (ONE, hidden, hidden)),
            (np.multiply, (back, hidden, back))]
    for _, X, sub, (gW1, gb1, _, _) in groups:
        ops += [(np.matmul, (_T(X), sub[3], gW1)), (np.add.reduce, (sub[3], -2, None, gb1))]
    return ops


@np.errstate(over="ignore")
def gradient(spec: ModelSpec, w: ParamVector, batch: LabeledBatch) -> ParamVector:
    """Analytic gradient of :func:`loss` w.r.t. the flat parameter vector."""
    if len(batch) == 0:
        raise ValueError("gradient of empty batch is undefined")
    G = np.empty(spec.param_dim)
    work = _work(spec, batch.labels.shape)
    _run(_gradients(spec, [(_unflatten(spec, w), batch.features, work, _unflatten(spec, G))],
                    batch.labels.astype(np.float64), _constant(len(batch)), work))
    return G


# A block step holds a few (g, P) float64 arrays at once (parameters,
# gradient, their parts). A block steps at most block_rows(P) models at a
# time, so those arrays, and the rows a caller's hook then finishes, stay
# within a 2 MB L2 cache: a 28,426-parameter model steps two rows at a time
# (its rounds ran ~9% faster than one row at a time, and no faster with
# four), a 21-parameter one three thousand.
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
    to the (m, P) matrix W that :func:`train_clients` trains them in with
    learning rate lr.

    It holds what a run's epochs reuse. Per sample of spans
    (:meth:`set_spans`): every client's pool rows (the template its shuffle
    starts from), the buffer they are shuffled in and its per-client views,
    the epoch's pool rows in block order, and one step per block. Shuffling
    a client's rows start .. stop - 1 in place draws the swaps of shuffling
    0 .. n - 1, so the buffer then holds start plus the client's
    permutation. For the run: the buffers and each block shape's call list.
    Blocks run one after another, so all of them share one buffer of each
    kind: the minibatch rows, their float64 labels and the work arrays (see
    :func:`_work`), sized for the largest block, and the gradient and the
    block's parameters, sized for block_rows(P) models. Every block trains
    in that one parameter buffer: a step loads its rows of W into it unless
    the step before held the same rows (or every row starts there), and
    stores them back unless the step after holds the same rows; an epoch's
    last step always stores. A client that trains alone moves its row once
    per epoch.

    A call list is :func:`_gradients`' list for the block's views, followed
    by the update G *= lr; W -= G on the parameter buffer, emitted when a
    block of its subgroups is first bound. Blocks of one shape share the
    list, across epochs, rounds and samples, whatever their rows: every
    step of a one-client plan with one minibatch size shares one. A sample
    whose largest block outgrows the minibatch buffers allocates larger
    ones and drops the lists bound to the old.
    """

    def __init__(self, spec: ModelSpec, spans: list, batch_size: int, lr: float,
                 W: np.ndarray):
        self.spec, self.batch_size, self.lr, self.W = spec, batch_size, _constant(lr), W
        size = min(len(W), block_rows(spec.param_dim)) * spec.param_dim
        self.G, self.params = np.empty(size), np.empty(size)
        self.cells, self.spans = 0, None
        self.set_spans(spans)

    def set_spans(self, spans: list) -> None:
        """Bind the plan to the clients on these spans (a no-op when they are
        its spans already), keeping its buffers and call lists."""
        if spans == self.spans:
            return
        self.spans = spans
        sizes, offsets, blocks, order = schedule(self.spec, spans, self.batch_size)
        local = np.arange(len(offsets)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        self.span_rows = offsets + local  # client i's pool rows start .. stop - 1
        self.shuffled = np.empty_like(self.span_rows)
        bounds = np.cumsum(sizes).tolist()
        self.views = [self.shuffled[a:b] for a, b in zip([0] + bounds, bounds)]
        self.order = order
        self.rows = np.empty_like(order)  # the epoch's pool rows, in block order

        cells = max(c.stop - c.start for *_, c in blocks)
        if cells > self.cells:
            self.cells, self.lists = cells, {}
            self.X, self.y = np.empty(cells * self.spec.n_features), np.empty(cells)
            self.work = [np.empty(cells * w, dtype) for w, dtype in _work_layout(self.spec)]
        members = [list(range(r.start, r.stop)) if isinstance(r, slice) else r for r, *_ in blocks]
        self.steps = []
        for k, (rows, subgroups, fresh, done, cells) in enumerate(blocks):
            key = tuple(subgroups)
            if key not in self.lists:
                self.lists[key] = self._bind(key)
            X, y, Wg, ops = self.lists[key]
            clients, m = np.array(members[k]), len(Wg)
            # all of the block's clients (slice(None)), some or none (None)
            starts = None if not fresh else slice(None) if len(fresh) == m else fresh
            ends = None
            if done:
                ends = (None, clients) if len(done) == m else (done, clients[done])
            # load unless the step before (for the first, the epoch before's
            # last) held these rows; store unless the step after holds them
            load = None if members[k - 1] == members[k] else clients
            store = (None if members[k + 1:k + 2] == [members[k]] else
                     rows if isinstance(rows, slice) else clients)
            self.steps.append((self.rows[cells], X, y, load, Wg, starts, ends, store, ops))

    def _bind(self, subgroups: tuple) -> tuple:
        """(minibatch buffer, label buffer, parameters, call list) of every
        block of these subgroups: the list's views of the minibatch, label,
        gradient, parameter and work buffers, each subgroup's slices of them,
        and each row's minibatch size."""
        spec = self.spec
        P, d = spec.param_dim, spec.n_features
        m, R = sum(g for g, _ in subgroups), sum(g * n for g, n in subgroups)
        G, Wg = self.G[: m * P].reshape(m, P), self.params[: m * P].reshape(m, P)
        X, y, work = self.X[: R * d].reshape(R, d), self.y[:R], _work(spec, (R,), self.work)
        groups, c, r = [], 0, 0
        for g, n in subgroups:
            rows = slice(r, r + g * n)
            groups.append((_unflatten(spec, _models(Wg, c, g)), _stack(X[rows], g),
                           tuple(_stack(a[rows], g) for a in work),
                           _unflatten(spec, _models(G, c, g))))
            c, r = c + g, r + g * n
        n = (_constant(subgroups[0][1]) if len(subgroups) == 1 else
             np.repeat([n for _, n in subgroups], [g * n for g, n in subgroups])
             .astype(np.float64)[:, None])
        ops = _gradients(spec, groups, y, n, work)
        ops += [(np.multiply, (G, self.lr, G)), (np.subtract, (Wg, G, Wg))]
        return X, y, Wg, ops


@np.errstate(over="ignore")
def train_clients(w0: ParamVector, pool: LabeledBatch, plan: Plan, epochs: int, rng: RngStream,
                  ids: list, finish=None) -> None:
    """Minibatch SGD for m clients at once from the start model w0, client i
    in row i of plan.W.

    Client i trains on its span of pool, and plan is the :class:`Plan` of the
    spans. Row i of W is set to w0 at the client's first step (whatever W
    held before is ignored), and holds the client's model after each epoch.
    Each epoch, client i's pool rows are shuffled in place as
    rng.child("client", ids[i]).child("epoch", e) would shuffle them (see
    :func:`shuffle_clients`), and the plan's blocks run in turn, each in the
    plan's one parameter buffer. A block's rows are one take of features
    and one of float64 labels into its buffers, its rows of W are taken
    into the parameter buffer unless it holds them already, any row that
    starts is set to w0, and then its call list runs: the products per
    subgroup as stacked matmuls, everything else once per block, then the
    update (see :func:`_gradients`), so every row ends bit-identical to
    training its client alone. Right after the block that holds the last
    step of clients rows (an int array), finish(rows, B) is called with B
    (len(rows), P) holding their final models, once per client, in the
    order the blocks run. The hook may change B in place; W[rows] then
    holds what it left there.
    """
    W, rows, features = plan.W, plan.rows, pool.features
    labels = pool.labels.astype(np.float64)  # as the pool holds them now, flipped or not
    for e in range(epochs):
        np.copyto(plan.shuffled, plan.span_rows)
        shuffle_clients(rng, ids, e, plan.views)
        np.take(plan.shuffled, plan.order, out=rows)
        last = finish is not None and e == epochs - 1
        for idx, X, y, load, Wg, starts, ends, store, ops in plan.steps:
            # take(indices, axis, out, mode), positional as in the call lists;
            # every index is in range: mode "clip" only spares take a buffer
            features.take(idx, 0, X, "clip")
            labels.take(idx, None, y, "clip")
            fresh = starts if e == 0 else None
            if load is not None and fresh != slice(None):  # else every row is set to w0
                W.take(load, 0, Wg, "clip")
            if fresh is not None:
                Wg[fresh] = w0
            for f, args in ops:  # _run, inline: this loop runs every step
                f(*args)
            if last and ends is not None:
                done, done_rows = ends
                if done is None:  # the block's every client ends here
                    finish(done_rows, Wg)
                else:
                    B = Wg[done]
                    finish(done_rows, B)
                    Wg[done] = B
            if store is not None:
                W[store] = Wg


@np.errstate(over="ignore")
def evaluate(spec: ModelSpec, w: ParamVector, data: LabeledBatch) -> EvalMetrics:
    """Accuracy (ties break toward the lowest class index), per-group accuracy
    and :func:`loss`, from one forward pass over data and its group index."""
    p = _probabilities(spec, w, data)
    yhat = (p > 0.5).astype(np.int64) if spec.n_out == 1 else np.argmax(p, axis=1)
    correct = yhat == data.labels
    groups, index, counts = data.group_index
    hits = np.bincount(index, weights=correct, minlength=len(groups))
    return EvalMetrics(
        accuracy=float(np.mean(correct)),
        per_group_accuracy=dict(zip(groups, (hits / counts).tolist())),
        loss=_mean_loss(spec, p, data.labels),
    )
