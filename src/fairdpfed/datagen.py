"""Synthetic data generation, horizontal partitioning, and bias injection.

Labels follow a planted logistic ground truth whose margin is controlled by
``class_separation``; a sensitive group attribute is attached per example with
tunable feature-group correlation. The data is built in place: one drawn
feature matrix, split once and standardized in each split's own memory.
Partitioning (IID shuffle-split or Dirichlet label skew) gives each training
row a client, and one stable sort of the rows' clients takes the training
set into one pool whose row ranges are the shards. Bias is injected either
at the data level (group-targeted label flipping, written into the pool) or
at the update level (a multiplicative tag applied by the server loop at
transmission time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .models import LabeledBatch
from .numeric import RngStream, check_floats, check_types


@dataclass(frozen=True)
class DataSpec:
    n_examples: int = 2000
    n_features: int = 20
    n_classes: int = 2
    n_groups: int = 2
    class_separation: float = 5.0
    group_correlation: float = 0.0

    def __post_init__(self):
        check_types(self)
        if self.n_examples < 3:  # the fewest whose 80/20 split fills both sides
            raise ValueError("n_examples must be >= 3")
        if self.n_features < 1:
            raise ValueError("n_features must be positive")
        if self.n_classes < 2 or self.n_groups < 2:
            raise ValueError("n_classes and n_groups must be >= 2")
        # each float check is written so that NaN fails it
        # well below ~1e150, where the standardization's squares overflow
        if not 0.0 < self.class_separation <= 1e100:
            raise ValueError("class_separation must be a number in (0, 1e100]")
        if not 0.0 <= self.group_correlation <= 1.0:
            raise ValueError("group_correlation must be in [0, 1]")
        # the feature matrix, the class directions and the group quantile grid
        check_floats("n_examples * n_features", self.n_examples * self.n_features)
        check_floats("n_classes * n_features", self.n_classes * self.n_features)
        check_floats("n_groups + 1", self.n_groups + 1)


@dataclass(frozen=True)
class BiasTag:
    """How a client's contribution is distorted. 'clean' means not at all."""

    mode: str = "clean"  # clean | label_flip | update_scale
    flip_prob: float = 0.0
    target_group: int = -1
    factor: float = 1.0

    def __post_init__(self):
        check_types(self)
        if self.mode not in ("clean", "label_flip", "update_scale"):
            raise ValueError(f"unknown bias mode {self.mode!r}")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError("flip probability must be in [0, 1]")
        if not self.factor > 0:
            raise ValueError("bias factor must be > 0")


@dataclass(frozen=True)
class ClientShard:
    """Rows [start, stop) of the pool, the training set in client order that
    every shard of a scenario shares; a shard keeps no copy of its own."""

    pool: LabeledBatch
    start: int
    stop: int
    bias_tag: BiasTag = BiasTag()

    @property
    def batch(self) -> LabeledBatch:
        """The shard's rows: a slice of the pool, so views, not a copy."""
        return self.pool.take(slice(self.start, self.stop))


@dataclass(frozen=True)
class PartitionScheme:
    kind: str = "iid"  # iid | dirichlet_label_skew
    alpha: float = 1.0

    def __post_init__(self):
        check_types(self)
        if self.kind not in ("iid", "dirichlet_label_skew"):
            raise ValueError(f"unknown partition kind {self.kind!r}")
        if self.kind == "dirichlet_label_skew" and not 0.0 < self.alpha < math.inf:
            raise ValueError("dirichlet alpha must be a finite number > 0")


def _quantiles(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.quantile(a, q) by its default linear method, on a sorted copy of a
    (np.quantile imports numpy.ma); only a zero's sign may differ."""
    a = np.sort(a)
    g, i = np.modf((len(a) - 1) * q)
    i = i.astype(np.intp)
    below, above = a[i], a[np.minimum(i + 1, len(a) - 1)]
    diff = above - below
    return np.where(g >= 0.5, above - diff * (1 - g), below + diff * g)


def generate(spec: DataSpec, rng: RngStream):
    """Build (train, test) with a deterministic 80/20 split.

    Features are standardized to zero mean / unit variance using train-split
    statistics only. The build is in place: the class offsets are added into
    the one drawn feature matrix, which is split once into its train and test
    rows and then dropped, and each split is standardized in its own memory.
    """
    g = rng.generator()
    n, d = spec.n_examples, spec.n_features
    # unit-variance Gaussian clusters whose means sit class_separation apart
    # along planted directions; the class posterior is exactly logistic in X
    y = g.integers(spec.n_classes, size=n)
    dirs = g.normal(size=(spec.n_classes, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    if spec.n_classes == 2:
        dirs[0] = -dirs[1]
    X = g.normal(size=(n, d))
    X += (0.5 * spec.class_separation * dirs)[y]

    # group attribute: correlated with a feature projection with prob
    # group_correlation, uniform otherwise
    v = g.normal(size=d)
    v /= np.linalg.norm(v)
    proj = X @ v
    edges = _quantiles(proj, np.linspace(0, 1, spec.n_groups + 1)[1:-1])
    corr_groups = np.searchsorted(edges, proj).astype(np.int64)
    rand_groups = g.integers(spec.n_groups, size=n)
    use_corr = g.random(n) < spec.group_correlation
    groups = np.where(use_corr, corr_groups, rand_groups)

    perm = g.permutation(n)
    n_train = int(round(0.8 * n))
    tr, te = perm[:n_train], perm[n_train:]
    X_tr, X_te = X[tr], X[te]
    del X
    mu = X_tr.mean(axis=0)
    sd = X_tr.std(axis=0, mean=mu)
    sd = np.where(sd < 1e-12, 1.0, sd)
    for part in (X_tr, X_te):
        part -= mu
        part /= sd
    return LabeledBatch(X_tr, y[tr], groups[tr]), LabeledBatch(X_te, y[te], groups[te])


def partition(train: LabeledBatch, K: int, scheme: PartitionScheme, rng: RngStream):
    """Split train into K disjoint client shards covering every example, each
    a span of the pool of the rows by client, then by row."""
    n = len(train)
    if K > n:
        raise ValueError(
            f"cannot partition {n} training examples across federation.K={K} clients")
    g = rng.generator()
    clients = np.arange(K, dtype=np.min_scalar_type(K - 1))
    if scheme.kind == "iid":
        # consecutive chunks of a permutation, the first n % K one row longer
        rows = g.permutation(n)
        owner = np.repeat(clients, n // K + (np.arange(K) < n % K))
    else:
        rows, owner = _dirichlet_split(train.labels, clients, scheme.alpha, g)
    # rows holds each training row once, so a stable sort of each row's owner
    # orders the rows by client, then by row; numpy sorts a one- or two-byte
    # key by radix, not by comparison
    row_owner = np.empty(n, dtype=clients.dtype)
    row_owner[rows] = owner
    pool = train.take(np.argsort(row_owner, kind="stable"))
    stops = np.cumsum(np.bincount(owner, minlength=K)).tolist()
    return [ClientShard(pool, start, stop) for start, stop in zip([0] + stops[:-1], stops)]


def _dirichlet_split(labels: np.ndarray, clients: np.ndarray, alpha: float,
                     g: np.random.Generator):
    """Per-class client proportions from Dirichlet(alpha): the training rows
    and the client of each row, one of clients. Resample until every client
    has a row."""
    K = len(clients)
    class_rows = [np.flatnonzero(labels == c) for c in np.flatnonzero(np.bincount(labels))]
    for _ in range(1000):
        rows, sizes = [], []
        for idx in class_rows:
            rows.append(g.permutation(idx))
            props = g.dirichlet(np.full(K, alpha))
            cuts = (np.cumsum(props)[:-1] * len(idx)).astype(int)
            # client k takes the positions i with cuts[k - 1] <= i < cuts[k]
            sizes.append(np.diff(cuts, prepend=0, append=len(idx)))
        if np.sum(sizes, axis=0).all():
            owner = np.concatenate([np.repeat(clients, s) for s in sizes])
            return np.concatenate(rows), owner
    raise ValueError(
        f"a Dirichlet split with partition.alpha={alpha} left some of the "
        f"federation.K={K} clients without data in 1000 draws; raise alpha or lower K")


def inject_bias(shard: ClientShard, tag: BiasTag, rng: RngStream,
                n_classes: int) -> ClientShard:
    """Apply a bias mode to a clean shard of data with n_classes classes.

    label_flip rewrites labels of the target group in the pool, before
    training, to any other of the n_classes classes, whichever the shard
    holds; update_scale only tags the shard, the distortion is applied to
    the transmitted update by the server loop.
    """
    if tag.mode == "clean":
        return shard
    if tag.mode == "update_scale":
        return replace(shard, bias_tag=tag)
    b = shard.batch
    y = b.labels  # a view of the pool's labels
    hit = (b.groups == tag.target_group) & (
        rng.generator().random(len(b)) < tag.flip_prob
    )
    if n_classes == 2:
        y[hit] = 1 - y[hit]
    else:
        shift = rng.child("flip-to").generator().integers(1, n_classes, size=len(y))
        y[hit] = (y[hit] + shift[hit]) % n_classes
    return replace(shard, bias_tag=tag)
