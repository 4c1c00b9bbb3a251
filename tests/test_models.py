import math

import numpy as np
import pytest

from fairdpfed import models
from fairdpfed.datagen import DataSpec, PartitionScheme, generate, partition
from fairdpfed.models import EvalMetrics, LabeledBatch, ModelSpec
from fairdpfed.numeric import RngStream


LOGREG = ModelSpec(kind="logistic_regression", n_features=4, n_classes=2)
SOFTMAX = ModelSpec(kind="logistic_regression", n_features=5, n_classes=3)
MLP = ModelSpec(kind="mlp_1hidden", n_features=4, n_classes=2, hidden_units=3)


def random_batch(spec, n=16, seed=0, n_groups=2):
    g = np.random.default_rng(seed)
    return LabeledBatch(
        g.normal(size=(n, spec.n_features)),
        g.integers(spec.n_classes, size=n),
        g.integers(n_groups, size=n),
    )


def fd_gradient(spec, w, batch, h=1e-6):
    """Central finite differences, the independent oracle for gradient()."""
    g = np.zeros_like(w)
    for k in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[k] += h
        wm[k] -= h
        g[k] = (models.loss(spec, wp, batch) - models.loss(spec, wm, batch)) / (2 * h)
    return g


class TestSpecAndInit:
    def test_logreg_binary_dim(self):
        assert LOGREG.param_dim == 5  # weights + bias, single sigmoid head

    def test_softmax_dim(self):
        assert SOFTMAX.param_dim == 3 * 5 + 3

    def test_mlp_dim(self):
        assert MLP.param_dim == 4 * 3 + 3 + 3 * 1 + 1  # 19

    def test_init_deterministic(self):
        r = RngStream(5).child("init")
        assert np.array_equal(models.init_params(MLP, r), models.init_params(MLP, r))

    def test_init_scale(self):
        w = models.init_params(SOFTMAX, RngStream(5).child("init"))
        assert np.all(np.abs(w) <= 0.05)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="transformer", n_features=4)
        with pytest.raises(ValueError):
            ModelSpec(kind="mlp_1hidden", n_features=4, hidden_units=0)


class TestLoss:
    def test_zero_weights_is_ln2(self):
        batch = random_batch(LOGREG)
        assert models.loss(LOGREG, np.zeros(5), batch) == pytest.approx(math.log(2), abs=1e-12)

    def test_large_margin_loss_small(self):
        g = np.random.default_rng(1)
        X = g.normal(size=(20, 4))
        u = np.array([1.0, 0.0, 0.0, 0.0])
        y = (X @ u > 0).astype(int)
        X[:, 0] += np.where(y == 1, 10.0, -10.0)  # margin >= 10
        batch = LabeledBatch(X, y, np.zeros(20, dtype=int))
        w = np.array([5.0, 0.0, 0.0, 0.0, 0.0])
        assert models.loss(LOGREG, w, batch) < 1e-3

    def test_order_invariant(self):
        batch = random_batch(SOFTMAX, n=12)
        w = models.init_params(SOFTMAX, RngStream(3).child("w"))
        perm = np.random.default_rng(2).permutation(12)
        assert models.loss(SOFTMAX, w, batch) == pytest.approx(
            models.loss(SOFTMAX, w, batch.take(perm)), rel=1e-12
        )

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            models.loss(LOGREG, np.zeros(7), random_batch(LOGREG))


class TestGradient:
    def test_hand_example(self):
        spec = ModelSpec(kind="logistic_regression", n_features=2, n_classes=2)
        batch = LabeledBatch(np.array([[1.0, 0.0]]), np.array([1]), np.array([0]))
        g = models.gradient(spec, np.zeros(3), batch)
        assert np.allclose(g, [-0.5, 0.0, -0.5], atol=1e-15)

    def test_norm_small_at_minimum(self):
        spec = ModelSpec(kind="logistic_regression", n_features=2, n_classes=2)
        # non-separable data: the optimum is interior, gradient vanishes there
        X = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1, 0, 0, 1])
        batch = LabeledBatch(X, y, np.zeros(4, dtype=int))
        w = np.zeros(3)
        for _ in range(5000):
            w -= 0.5 * models.gradient(spec, w, batch)
        assert np.linalg.norm(models.gradient(spec, w, batch)) < 1e-6

    @pytest.mark.parametrize("spec", [LOGREG, SOFTMAX, MLP])
    def test_matches_finite_differences(self, spec):
        for seed in range(5):
            w = models.init_params(spec, RngStream(seed).child("w")) * 10
            batch = random_batch(spec, seed=seed)
            g = models.gradient(spec, w, batch)
            g_fd = fd_gradient(spec, w, batch)
            rel = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-8)
            assert rel < 1e-5


class TestLocalTrain:
    def test_zero_epochs_is_identity(self):
        batch = random_batch(LOGREG)
        w0 = models.init_params(LOGREG, RngStream(0).child("w"))
        w = models.local_train(LOGREG, w0, batch, 0, 0.1, 4, RngStream(0).child("t"), 0)
        assert np.array_equal(w, w0)

    def test_single_full_batch_step(self):
        batch = random_batch(LOGREG)
        w0 = models.init_params(LOGREG, RngStream(0).child("w"))
        w = models.local_train(LOGREG, w0, batch, 1, 0.1, len(batch), RngStream(0).child("t"), 0)
        expected = w0 - 0.1 * models.gradient(LOGREG, w0, batch)
        assert np.allclose(w, expected, atol=0)

    def test_deterministic(self):
        batch = random_batch(MLP, n=30)
        w0 = models.init_params(MLP, RngStream(1).child("w"))
        run = lambda: models.local_train(MLP, w0, batch, 3, 0.05, 8, RngStream(1).child("t"), 0)
        assert np.array_equal(run(), run())

    def test_tiny_lr_stays_near_w0(self):
        batch = random_batch(LOGREG)
        w0 = models.init_params(LOGREG, RngStream(0).child("w"))
        w = models.local_train(LOGREG, w0, batch, 1, 1e-14, len(batch), RngStream(0).child("t"), 0)
        assert np.all(np.abs(w - w0) < 1e-12)

    def test_full_batch_descent_nonincreasing(self):
        batch = random_batch(LOGREG, n=40, seed=3)
        w = models.init_params(LOGREG, RngStream(2).child("w"))
        prev = models.loss(LOGREG, w, batch)
        for _ in range(50):
            w = models.local_train(LOGREG, w, batch, 1, 1e-2, len(batch), RngStream(2).child("t"), 0)
            cur = models.loss(LOGREG, w, batch)
            assert cur <= prev + 1e-12
            prev = cur


def one_row_train_clients(spec, w0, batch, epochs, lr, batch_size, rng, cid):
    """The reference for local_train: train_clients with one row from w0."""
    W = np.full((1, spec.param_dim), np.nan)
    plan = models.Plan(spec, [(0, len(batch))], batch_size, W)
    models.train_clients(spec, w0, batch, plan, epochs, lr, rng, [cid])
    return W[0]


class TestOneModelPath:
    @pytest.mark.parametrize("spec", [LOGREG, SOFTMAX, MLP], ids=["binary", "softmax", "mlp"])
    @pytest.mark.parametrize("epochs", [1, 2, 3])
    @pytest.mark.parametrize("n, batch_size", [(37, 8), (16, 16), (10, 32)],
                             ids=["ragged", "one_full_batch", "batch_exceeds_shard"])
    def test_local_train_matches_one_row_train_clients(self, spec, epochs, n, batch_size):
        batch = random_batch(spec, n=n, seed=n)
        w0 = models.init_params(spec, RngStream(9).child("init"))
        rng = RngStream(9).child("round", 0)
        got = models.local_train(spec, w0, batch, epochs, 0.1, batch_size, rng, 0)
        want = one_row_train_clients(spec, w0, batch, epochs, 0.1, batch_size, rng, 0)
        assert np.array_equal(got, want)
        assert np.array_equal(w0, models.init_params(spec, RngStream(9).child("init")))

    @pytest.mark.parametrize("spec", [LOGREG, SOFTMAX, MLP], ids=["binary", "softmax", "mlp"])
    def test_gradient_matches_stacked_rows(self, spec):
        W = np.stack([models.init_params(spec, RngStream(k).child("w")) * 10
                      for k in range(3)])
        batches = [random_batch(spec, n=12, seed=k) for k in range(3)]
        X = np.stack([b.features for b in batches])
        y = np.stack([b.labels for b in batches])
        G = np.empty_like(W)
        models._gradients(spec, models._unflatten(spec, W), X, y, models._unflatten(spec, G),
                          models._work(spec, y.shape))
        for k in range(3):
            assert np.array_equal(models.gradient(spec, W[k], batches[k]), G[k])


def per_client_sgd(spec, w0, batch, epochs, lr, batch_size, rng):
    """The per-client loop written out plainly: one gradient call per
    minibatch, taken as perm[start:start + batch_size] of the epoch's shuffle."""
    w = w0.copy()
    n = len(batch)
    for e in range(epochs):
        perm = rng.child("epoch", e).generator().permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            mb = LabeledBatch(batch.features[idx], batch.labels[idx], batch.groups[idx])
            w -= lr * models.gradient(spec, w, mb)
    return w


def finish_order(sizes, batch_size):
    """The order train_clients finishes clients in: those whose last minibatch
    is full by its step, then the rest by their last minibatch's row count,
    ascending ids within each."""
    def last_group(i):
        full, rest = divmod(sizes[i], batch_size)
        return (1, rest) if rest else (0, full - 1)
    return sorted(range(len(sizes)), key=lambda i: (last_group(i), i))


def assert_each_row_once_in_client_order(plan, sizes, batch_size):
    """Each epoch the plan's groups read every row once, and client i's
    minibatches are rows [k, k + batch_size) of its shuffle, k ascending."""
    _, _, groups, order = plan
    assert sorted(order.tolist()) == list(range(sum(sizes)))
    read = [[] for _ in sizes]
    for rows, n, _, _, cells in groups:
        members = range(len(sizes))[rows] if isinstance(rows, slice) else rows
        for i, positions in zip(members, order[cells].reshape(-1, n)):
            read[i].append(positions.tolist())
    starts = np.cumsum(sizes) - sizes
    for i, got in enumerate(read):
        shuffle = list(range(starts[i], starts[i] + sizes[i]))
        assert got == [shuffle[k:k + batch_size] for k in range(0, sizes[i], batch_size)]


class TestSchedule:
    SIZES = [5, 32, 40, 64, 70, 100]

    @staticmethod
    def spans(sizes, start=1000):
        stops = start + np.cumsum(sizes)
        return [(int(b - n), int(b)) for n, b in zip(sizes, stops)]

    def test_groups_full_steps_then_short_minibatches_by_row_count(self):
        sizes, offsets, groups, order = models.schedule(LOGREG, self.spans(self.SIZES), 32)
        assert sizes.tolist() == self.SIZES
        assert offsets.tolist() == np.repeat(1000 + np.cumsum(self.SIZES) - self.SIZES,
                                             self.SIZES).tolist()
        # (rows of W, n, positions of clients it starts, clients it ends, cells)
        assert groups == [
            (slice(1, 6), 32, [0, 1, 2, 3, 4], [1], slice(0, 160)),
            (slice(3, 6), 32, [], [3], slice(160, 256)),
            (slice(5, 6), 32, [], [], slice(256, 288)),
            (slice(5, 6), 4, [], [5], slice(288, 292)),
            (slice(0, 1), 5, [0], [0], slice(292, 297)),
            (slice(4, 5), 6, [], [4], slice(297, 303)),
            (slice(2, 3), 8, [], [2], slice(303, 311)),
        ]
        assert [i for g in groups for i in g[3]] == finish_order(self.SIZES, 32)

    @pytest.mark.parametrize("sizes, batch_size", [
        (SIZES, 32), ([100, 5, 64, 32, 70, 40], 32), ([64, 1, 63, 17, 16], 16), ([9], 32),
        ([2, 4, 6], 2)])
    def test_every_row_once_per_epoch_in_each_clients_own_order(self, sizes, batch_size):
        plan = models.schedule(LOGREG, self.spans(sizes), batch_size)
        assert_each_row_once_in_client_order(plan, sizes, batch_size)

    def test_max_rows_splits_groups(self, monkeypatch):
        monkeypatch.setattr(models, "GROUP_BYTES", 2 * 8 * LOGREG.param_dim)
        sizes = [100, 5, 64, 32, 70, 40]
        plan = models.schedule(LOGREG, self.spans(sizes), 32)
        groups = plan[2]
        assert [(rows, n, fresh) for rows, n, fresh, _, _ in groups] == [
            ([0, 2], 32, [0, 1]), (slice(3, 5), 32, [0, 1]), (slice(5, 6), 32, [0]),
            ([0, 2], 32, []), (slice(4, 5), 32, []), (slice(0, 1), 32, []),
            (slice(0, 1), 4, []), (slice(1, 2), 5, [0]), (slice(4, 5), 6, []),
            (slice(5, 6), 8, []),
        ]
        assert [i for g in groups for i in g[3]] == finish_order(sizes, 32)
        assert_each_row_once_in_client_order(plan, sizes, 32)


class TestTrainClients:
    BATCH_SIZE = 16

    @staticmethod
    def shards(spec):
        data = DataSpec(n_examples=500, n_features=spec.n_features,
                        n_classes=spec.n_classes, class_separation=2.0)
        train, _ = generate(data, RngStream(3).child("data"))
        scheme = PartitionScheme(kind="dirichlet_label_skew", alpha=0.3)
        return partition(train, 9, scheme, RngStream(3).child("p"))

    @staticmethod
    def train(spec, W, w0, shards, epochs, finish=None):
        """Train every shard's client, client i with RngStream(4)'s substreams
        of id i, as the rngs of the per-client loop are."""
        plan = models.Plan(spec, [(s.start, s.stop) for s in shards],
                           TestTrainClients.BATCH_SIZE, W)
        models.train_clients(spec, w0, shards[0].pool, plan, epochs, 0.1, RngStream(4),
                             list(range(len(shards))), finish)

    @pytest.mark.parametrize("spec", [LOGREG, SOFTMAX, MLP], ids=["binary", "softmax", "mlp"])
    @pytest.mark.parametrize("epochs", [1, 2, 8])
    @pytest.mark.parametrize("small_groups", [False, True])
    def test_matches_per_client_loop_bit_for_bit(self, monkeypatch, spec, epochs,
                                                  small_groups):
        shards = self.shards(spec)
        sizes = [len(s.batch) for s in shards]
        bs = self.BATCH_SIZE
        assert min(sizes) < bs and any(n % bs for n in sizes if n > bs)
        if small_groups:  # at most 2 rows per group step: chunks, gathered rows
            monkeypatch.setattr(models, "GROUP_BYTES", 2 * 8 * spec.param_dim)
        w0 = models.init_params(spec, RngStream(4).child("init"))
        rngs = [RngStream(4).child("client", i) for i in range(len(shards))]
        W = np.full((len(shards), spec.param_dim), np.nan)  # rows start from w0
        self.train(spec, W, w0, shards, epochs)
        for row, shard, rng in zip(W, shards, rngs):
            assert np.array_equal(row, per_client_sgd(spec, w0, shard.batch, epochs, 0.1, bs,
                                                      rng))

    @pytest.mark.parametrize("small_groups", [False, True])
    def test_finish_runs_once_per_client_right_after_its_last_step(self, monkeypatch,
                                                                   small_groups):
        shards = self.shards(MLP)
        sizes = [len(s.batch) for s in shards]
        bs = self.BATCH_SIZE
        if small_groups:
            monkeypatch.setattr(models, "GROUP_BYTES", 2 * 8 * MLP.param_dim)
        w0 = models.init_params(MLP, RngStream(4).child("init"))
        rngs = [RngStream(4).child("client", i) for i in range(len(shards))]
        final = [per_client_sgd(MLP, w0, s.batch, 2, 0.1, bs, r) for s, r in zip(shards, rngs)]
        W = np.empty((len(shards), MLP.param_dim))
        calls = []

        def finish(i):
            # the row holds the client's final model: its last step has run
            assert np.array_equal(W[i], final[i])
            calls.append(i)
            W[i] = np.nan  # later steps must not touch a finished row

        self.train(MLP, W, w0, shards, 2, finish)
        # clients whose last minibatch is full finish in step order, then the
        # rest by their last minibatch's row count
        assert calls == finish_order(sizes, bs)
        assert calls != sorted(calls) and any(n % bs == 0 for n in sizes)
        assert np.isnan(W).all()


class TestEvaluate:
    def test_perfect_classifier(self):
        spec = ModelSpec(kind="logistic_regression", n_features=2, n_classes=2)
        X = np.array([[5.0, 0], [4.0, 1], [-5.0, 0], [-4.0, 1]])
        y = np.array([1, 1, 0, 0])
        m = models.evaluate(spec, np.array([10.0, 0.0, 0.0]), LabeledBatch(X, y, y))
        assert m.accuracy == 1.0

    def test_zero_weights_ties_to_class_zero(self):
        batch = random_batch(LOGREG, n=20, seed=4)
        batch = LabeledBatch(batch.features, np.array([0, 1] * 10), batch.groups)
        m = models.evaluate(LOGREG, np.zeros(5), batch)
        assert m.accuracy == 0.5

    def test_group_accuracies_partition_overall(self):
        batch = random_batch(SOFTMAX, n=50, seed=5, n_groups=3)
        w = models.init_params(SOFTMAX, RngStream(6).child("w"))
        m = models.evaluate(SOFTMAX, w, batch)
        counts = {g: int(np.sum(batch.groups == g)) for g in np.unique(batch.groups)}
        weighted = sum(m.per_group_accuracy[g] * c for g, c in counts.items()) / len(batch)
        assert weighted == pytest.approx(m.accuracy, abs=1e-12)

    def test_empty_groups_omitted(self):
        batch = random_batch(LOGREG, n=10, seed=7, n_groups=2)
        m = models.evaluate(LOGREG, np.zeros(5), batch)
        assert set(m.per_group_accuracy) == set(int(g) for g in np.unique(batch.groups))


class TestFlattenRoundTrip:
    @pytest.mark.parametrize("spec", [LOGREG, SOFTMAX, MLP,
                                      ModelSpec(kind="mlp_1hidden", n_features=6,
                                                n_classes=4, hidden_units=5)])
    def test_unflatten_flatten_exact(self, spec):
        w = models.init_params(spec, RngStream(8).child("w"))
        parts = models._unflatten(spec, w)
        assert np.array_equal(np.concatenate([p.ravel() for p in parts]), w)
