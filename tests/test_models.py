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
        w = models.local_train(LOGREG, w0, batch, 0, 0.1, 4, RngStream(0).child("t"))
        assert np.array_equal(w, w0)

    def test_single_full_batch_step(self):
        batch = random_batch(LOGREG)
        w0 = models.init_params(LOGREG, RngStream(0).child("w"))
        w = models.local_train(LOGREG, w0, batch, 1, 0.1, len(batch), RngStream(0).child("t"))
        expected = w0 - 0.1 * models.gradient(LOGREG, w0, batch)
        assert np.allclose(w, expected, atol=0)

    def test_deterministic(self):
        batch = random_batch(MLP, n=30)
        w0 = models.init_params(MLP, RngStream(1).child("w"))
        run = lambda: models.local_train(MLP, w0, batch, 3, 0.05, 8, RngStream(1).child("t"))
        assert np.array_equal(run(), run())

    def test_tiny_lr_stays_near_w0(self):
        batch = random_batch(LOGREG)
        w0 = models.init_params(LOGREG, RngStream(0).child("w"))
        w = models.local_train(LOGREG, w0, batch, 1, 1e-14, len(batch), RngStream(0).child("t"))
        assert np.all(np.abs(w - w0) < 1e-12)

    def test_full_batch_descent_nonincreasing(self):
        batch = random_batch(LOGREG, n=40, seed=3)
        w = models.init_params(LOGREG, RngStream(2).child("w"))
        prev = models.loss(LOGREG, w, batch)
        for _ in range(50):
            w = models.local_train(LOGREG, w, batch, 1, 1e-2, len(batch), RngStream(2).child("t"))
            cur = models.loss(LOGREG, w, batch)
            assert cur <= prev + 1e-12
            prev = cur


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


class TestTrainClients:
    BATCH_SIZE = 16

    @staticmethod
    def shards(spec):
        data = DataSpec(n_examples=500, n_features=spec.n_features,
                        n_classes=spec.n_classes, class_separation=2.0)
        train, _ = generate(data, RngStream(3).child("data"))
        scheme = PartitionScheme(kind="dirichlet_label_skew", alpha=0.3)
        return [s.batch for s in partition(train, 9, scheme, RngStream(3).child("p"))]

    @pytest.mark.parametrize("spec", [LOGREG, SOFTMAX, MLP], ids=["binary", "softmax", "mlp"])
    @pytest.mark.parametrize("epochs", [1, 2, 8])
    @pytest.mark.parametrize("small_groups", [False, True])
    def test_matches_per_client_loop_bit_for_bit(self, monkeypatch, spec, epochs,
                                                  small_groups):
        batches = self.shards(spec)
        sizes = [len(b) for b in batches]
        bs = self.BATCH_SIZE
        assert min(sizes) < bs and any(n % bs for n in sizes if n > bs)
        if small_groups:  # at most 2 rows per group step: chunks, gathered rows
            monkeypatch.setattr(models, "GROUP_BYTES", 2 * 8 * spec.param_dim)
        w0 = models.init_params(spec, RngStream(4).child("init"))
        rngs = [RngStream(4).child("client", i) for i in range(len(batches))]
        W = np.full((len(batches), spec.param_dim), np.nan)  # rows start from w0
        models.train_clients(spec, W, w0, batches, epochs, 0.1, bs, rngs)
        for row, batch, rng in zip(W, batches, rngs):
            assert np.array_equal(row, per_client_sgd(spec, w0, batch, epochs, 0.1, bs, rng))

    @pytest.mark.parametrize("small_groups", [False, True])
    def test_finish_runs_once_per_client_right_after_its_last_step(self, monkeypatch,
                                                                   small_groups):
        batches = self.shards(MLP)
        sizes = [len(b) for b in batches]
        bs = self.BATCH_SIZE
        assert len(set(-(-n // bs) for n in sizes)) > 1  # clients finish at different steps
        if small_groups:
            monkeypatch.setattr(models, "GROUP_BYTES", 2 * 8 * MLP.param_dim)
        w0 = models.init_params(MLP, RngStream(4).child("init"))
        rngs = [RngStream(4).child("client", i) for i in range(len(batches))]
        final = [per_client_sgd(MLP, w0, b, 2, 0.1, bs, r) for b, r in zip(batches, rngs)]
        W = np.empty((len(batches), MLP.param_dim))
        calls = []

        def finish(i):
            # the row holds the client's final model: its last step has run
            assert np.array_equal(W[i], final[i])
            calls.append(i)
            W[i] = np.nan  # later steps must not touch a finished row

        models.train_clients(MLP, W, w0, batches, 2, 0.1, bs, rngs, finish)
        assert sorted(calls) == list(range(len(batches)))
        # clients with fewer steps finish first
        steps = [-(-sizes[i] // bs) for i in calls]
        assert steps == sorted(steps) and calls != sorted(calls)
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
