import math

import numpy as np
import pytest

from helpers_fed import one_row_train_clients, per_client_sgd

from fairdpfed import models
from fairdpfed.datagen import ClientShard, DataSpec, PartitionScheme, generate, partition
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


class TestOneRowTrain:
    """train_clients training one client in a one-row matrix, as the
    centralized baseline does."""

    def test_single_full_batch_step(self):
        batch = random_batch(LOGREG)
        w0 = models.init_params(LOGREG, RngStream(0).child("w"))
        w = one_row_train_clients(LOGREG, w0, batch, 1, 0.1, len(batch),
                                  RngStream(0).child("t"), 0)
        expected = w0 - 0.1 * models.gradient(LOGREG, w0, batch)
        assert np.allclose(w, expected, atol=0)

    def test_deterministic(self):
        batch = random_batch(MLP, n=30)
        w0 = models.init_params(MLP, RngStream(1).child("w"))
        run = lambda: one_row_train_clients(MLP, w0, batch, 3, 0.05, 8, RngStream(1).child("t"), 0)
        assert np.array_equal(run(), run())

    def test_tiny_lr_stays_near_w0(self):
        batch = random_batch(LOGREG)
        w0 = models.init_params(LOGREG, RngStream(0).child("w"))
        w = one_row_train_clients(LOGREG, w0, batch, 1, 1e-14, len(batch),
                                  RngStream(0).child("t"), 0)
        assert np.all(np.abs(w - w0) < 1e-12)

    def test_full_batch_descent_nonincreasing(self):
        batch = random_batch(LOGREG, n=40, seed=3)
        w = models.init_params(LOGREG, RngStream(2).child("w"))
        prev = models.loss(LOGREG, w, batch)
        for _ in range(50):
            w = one_row_train_clients(LOGREG, w, batch, 1, 1e-2, len(batch),
                                      RngStream(2).child("t"), 0)
            cur = models.loss(LOGREG, w, batch)
            assert cur <= prev + 1e-12
            prev = cur


class TestOneModelPath:
    @pytest.mark.parametrize("spec", [LOGREG, SOFTMAX, MLP], ids=["binary", "softmax", "mlp"])
    @pytest.mark.parametrize("epochs", [1, 2, 3])
    @pytest.mark.parametrize("n, batch_size", [(37, 8), (16, 16), (10, 32)],
                             ids=["ragged", "one_full_batch", "batch_exceeds_shard"])
    def test_one_row_train_clients_matches_per_client_sgd(self, spec, epochs, n, batch_size):
        batch = random_batch(spec, n=n, seed=n)
        w0 = models.init_params(spec, RngStream(9).child("init"))
        rng = RngStream(9).child("round", 0)
        got = one_row_train_clients(spec, w0, batch, epochs, 0.1, batch_size, rng, 0)
        want = per_client_sgd(spec, w0, batch, epochs, 0.1, batch_size, rng.child("client", 0))
        assert np.array_equal(got, want)
        assert np.array_equal(w0, models.init_params(spec, RngStream(9).child("init")))

    @pytest.mark.parametrize("spec", [LOGREG, SOFTMAX, MLP], ids=["binary", "softmax", "mlp"])
    @pytest.mark.parametrize("counts", [(12, 12, 12), (5, 12, 12), (3, 7, 7, 7, 9)],
                             ids=["stack", "ragged", "three_subgroups"])
    def test_gradient_matches_block_rows(self, spec, counts):
        """One block of models, one minibatch each, in subgroups of equal row
        count (a subgroup of one model as 2-D arrays): running the block's
        call list gives each model's gradient bit for bit, and so does
        running it again on new parameters and minibatches written into the
        arrays it was emitted for."""
        m, R = len(counts), sum(counts)
        W = np.empty((m, spec.param_dim))
        X = np.empty((R, spec.n_features))
        y = np.empty(R)
        G = np.empty_like(W)
        work = models._work(spec, (R,))
        groups, c, r = [], 0, 0
        for n in sorted(set(counts)):
            g = counts.count(n)
            rows = slice(r, r + g * n)
            groups.append((models._unflatten(spec, models._models(W, c, g)),
                           models._stack(X[rows], g),
                           tuple(models._stack(a[rows], g) for a in work),
                           models._unflatten(spec, models._models(G, c, g))))
            c, r = c + g, r + g * n
        n = (np.float64(counts[0]) if len(set(counts)) == 1 else
             np.repeat(counts, counts).astype(np.float64)[:, None])
        ops = models._gradients(spec, groups, y, n, work)
        for seed in (0, 1):
            W[:] = [models.init_params(spec, RngStream(k).child("w", seed)) * 10
                    for k in range(m)]
            batches = [random_batch(spec, n=n, seed=seed * m + k) for k, n in enumerate(counts)]
            X[:] = np.concatenate([b.features for b in batches])
            y[:] = np.concatenate([b.labels for b in batches])
            models._run(ops)
            for k in range(m):
                assert np.array_equal(models.gradient(spec, W[k], batches[k]), G[k])


def finish_order(sizes, batch_size):
    """The order train_clients finishes clients in: those whose last minibatch
    is full by its step, then the rest by their last minibatch's row count,
    ascending ids within each."""
    def last_group(i):
        full, rest = divmod(sizes[i], batch_size)
        return (1, rest) if rest else (0, full - 1)
    return sorted(range(len(sizes)), key=lambda i: (last_group(i), i))


def block_members(rows, m):
    return list(range(m))[rows] if isinstance(rows, slice) else rows


def finished(blocks, m):
    """The clients the blocks end, in the order they run."""
    return [block_members(rows, m)[j] for rows, _, _, done, _ in blocks for j in done]


def assert_each_row_once_in_client_order(plan, sizes, batch_size):
    """Each epoch the plan's blocks read every row once, and client i's
    minibatches are rows [k, k + batch_size) of its shuffle, k ascending. A
    block's subgroups hold its clients in order, ascending row counts."""
    _, _, blocks, order = plan
    assert sorted(order.tolist()) == list(range(sum(sizes)))
    read = [[] for _ in sizes]
    for rows, subgroups, _, _, cells in blocks:
        members = block_members(rows, len(sizes))
        counts = [n for g, n in subgroups for _ in range(g)]
        assert len(counts) == len(members) and counts == sorted(counts)
        bounds = np.cumsum([0] + counts)
        assert bounds[-1] == cells.stop - cells.start
        for i, a, b in zip(members, bounds[:-1], bounds[1:]):
            read[i].append(order[cells][a:b].tolist())
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

    def test_full_steps_then_one_ragged_tail_block(self):
        sizes, offsets, blocks, order = models.schedule(LOGREG, self.spans(self.SIZES), 32)
        assert sizes.tolist() == self.SIZES
        assert offsets.tolist() == np.repeat(1000 + np.cumsum(self.SIZES) - self.SIZES,
                                             self.SIZES).tolist()
        # (rows of W, subgroups, positions of clients it starts, positions of
        # clients it ends, cells)
        assert blocks == [
            (slice(1, 6), [(5, 32)], [0, 1, 2, 3, 4], [0], slice(0, 160)),
            (slice(3, 6), [(3, 32)], [], [0], slice(160, 256)),
            (slice(5, 6), [(1, 32)], [], [], slice(256, 288)),
            ([5, 0, 4, 2], [(1, 4), (1, 5), (1, 6), (1, 8)], [1], [0, 1, 2, 3],
             slice(288, 311)),
        ]
        assert finished(blocks, len(sizes)) == finish_order(self.SIZES, 32)

    @pytest.mark.parametrize("sizes, batch_size", [
        (SIZES, 32), ([100, 5, 64, 32, 70, 40], 32), ([64, 1, 63, 17, 16], 16), ([9], 32),
        ([2, 4, 6], 2), ([3, 1, 3, 2, 1, 3, 35, 3], 4)])
    @pytest.mark.parametrize("budget", [None, 2, 3])
    def test_every_row_once_per_epoch_in_each_clients_own_order(self, monkeypatch, sizes,
                                                               batch_size, budget):
        if budget:
            monkeypatch.setattr(models, "GROUP_BYTES", budget * 8 * LOGREG.param_dim)
        plan = models.schedule(LOGREG, self.spans(sizes), batch_size)
        assert_each_row_once_in_client_order(plan, sizes, batch_size)
        assert finished(plan[2], len(sizes)) == finish_order(sizes, batch_size)

    def test_row_budget_splits_blocks(self, monkeypatch):
        monkeypatch.setattr(models, "GROUP_BYTES", 2 * 8 * LOGREG.param_dim)
        sizes = [100, 5, 64, 32, 70, 40]
        plan = models.schedule(LOGREG, self.spans(sizes), 32)
        blocks = plan[2]
        assert [(rows, subgroups, fresh) for rows, subgroups, fresh, _, _ in blocks] == [
            ([0, 2], [(2, 32)], [0, 1]), (slice(3, 5), [(2, 32)], [0, 1]),
            (slice(5, 6), [(1, 32)], [0]), ([0, 2], [(2, 32)], []), (slice(4, 5), [(1, 32)], []),
            (slice(0, 1), [(1, 32)], []),
            (slice(0, 2), [(1, 4), (1, 5)], [1]), (slice(4, 6), [(1, 6), (1, 8)], []),
        ]
        assert finished(blocks, len(sizes)) == finish_order(sizes, 32)
        assert_each_row_once_in_client_order(plan, sizes, 32)

    @staticmethod
    def skewed_spans():
        """A Dirichlet(0.5) split of 16,000 rows over 100 clients, as a
        cross-device round trains them."""
        data = DataSpec(n_examples=20_000, n_features=4)
        train, _ = generate(data, RngStream(1).child("data"))
        shards = partition(train, 100, PartitionScheme(kind="dirichlet_label_skew", alpha=0.5),
                           RngStream(1).child("p"))
        return [(s.start, s.stop) for s in shards]

    @pytest.mark.parametrize("budget", [None, 7])
    def test_block_count_is_full_steps_plus_tail_blocks(self, monkeypatch, budget):
        """Blocks per epoch: each full step's clients cut by the row budget,
        then the short last minibatches cut by it too; with the default
        budget every full step and the whole tail are one block each."""
        if budget:
            monkeypatch.setattr(models, "GROUP_BYTES", budget * 8 * LOGREG.param_dim)
        spans = self.skewed_spans()
        sizes = np.array([b - a for a, b in spans])
        bs = 32
        full, rest = sizes // bs, sizes % bs
        tail = int(np.count_nonzero(rest))
        assert len(set(rest[rest > 0].tolist())) >= 10 and tail > 1
        plan = models.Plan(LOGREG, spans, bs, 0.1, np.empty((len(spans), LOGREG.param_dim)))
        rows = models.block_rows(LOGREG.param_dim)
        step_clients = [int(np.count_nonzero(full > s)) for s in range(full.max())]
        assert len(plan.steps) == sum(-(-c // rows) for c in step_clients) + -(-tail // rows)
        if budget is None:
            assert rows >= len(spans) and len(plan.steps) == full.max() + 1


def max_cells(spec, shards, ids, batch_size):
    """The rows of the largest block of these shards' schedule."""
    blocks = models.schedule(spec, [(shards[i].start, shards[i].stop) for i in ids],
                             batch_size)[2]
    return max(cells.stop - cells.start for *_, cells in blocks)


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
                           TestTrainClients.BATCH_SIZE, 0.1, W)
        models.train_clients(w0, shards[0].pool, plan, epochs, RngStream(4),
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

    @staticmethod
    def ragged_shards(spec, sizes):
        """Shards of these sizes, one after another in one pool."""
        pool = random_batch(spec, n=sum(sizes), seed=len(sizes), n_groups=2)
        stops = np.cumsum(sizes)
        return [ClientShard(pool, int(b - n), int(b)) for n, b in zip(sizes, stops)]

    # with batches of 16: eleven distinct last-minibatch sizes, clients with
    # no full minibatch (sizes below 16) and clients with only full ones
    RAGGED = [1, 16, 3, 35, 20, 48, 5, 21, 7, 39, 9, 27, 43, 11, 32, 13, 61, 15, 3, 19, 6,
              22, 8]

    @pytest.mark.parametrize("spec", [LOGREG, SOFTMAX, MLP], ids=["binary", "softmax", "mlp"])
    @pytest.mark.parametrize("epochs", [1, 2])
    @pytest.mark.parametrize("budget", [None, 4])
    def test_ragged_tail_matches_per_client_loop_bit_for_bit(self, monkeypatch, spec, epochs,
                                                            budget):
        bs = self.BATCH_SIZE
        rest = [n % bs for n in self.RAGGED]
        assert len(set(rest) - {0}) >= 10 and 0 in rest and min(self.RAGGED) < bs
        if budget:  # tail blocks of 4 clients; the first spans row counts 1 and 3
            monkeypatch.setattr(models, "GROUP_BYTES", budget * 8 * spec.param_dim)
        shards = self.ragged_shards(spec, self.RAGGED)
        blocks = models.schedule(spec, [(s.start, s.stop) for s in shards], bs)[2]
        tail = [subgroups for _, subgroups, _, _, _ in blocks if subgroups[0][1] < bs]
        if budget:
            assert len(tail) == -(-sum(r > 0 for r in rest) // budget)
            assert tail[0] == [(1, 1), (3, 3)]
        else:
            assert len(tail) == 1 and len(tail[0]) == len(set(rest) - {0})
        w0 = models.init_params(spec, RngStream(4).child("init"))
        W = np.full((len(shards), spec.param_dim), np.nan)  # rows start from w0
        self.train(spec, W, w0, shards, epochs)
        for i, (row, shard) in enumerate(zip(W, shards)):
            assert np.array_equal(row, per_client_sgd(spec, w0, shard.batch, epochs, 0.1, bs,
                                                      RngStream(4).child("client", i)))

    @pytest.mark.parametrize("spec", [LOGREG, SOFTMAX, MLP], ids=["binary", "softmax", "mlp"])
    @pytest.mark.parametrize("first, then", [([0, 1, 2, 3], [4, 5, 6, 7]),
                                             ([4, 5, 6, 7], [0, 1, 2, 3])])
    def test_respanned_plan_matches_per_client_loop_bit_for_bit(self, spec, first, then):
        """A plan given new spans keeps its buffers and call lists where they
        fit and replaces them where the new blocks outgrow them: either way
        every row trains as its client alone."""
        shards = self.shards(spec)
        bs = self.BATCH_SIZE
        w0 = models.init_params(spec, RngStream(4).child("init"))
        W = np.empty((4, spec.param_dim))
        plan = models.Plan(spec, [(shards[i].start, shards[i].stop) for i in first], bs, 0.1, W)
        cells = []
        for ids in (first, then, first):
            before = plan.cells, plan.lists
            plan.set_spans([(shards[i].start, shards[i].stop) for i in ids])
            assert (plan.lists is before[1]) == (plan.cells == before[0])
            cells.append(plan.cells)
            models.train_clients(w0, shards[0].pool, plan, 2, RngStream(4), ids)
            for row, i in zip(W, ids):
                assert np.array_equal(row, per_client_sgd(spec, w0, shards[i].batch, 2, 0.1, bs,
                                                          RngStream(4).child("client", i)))
        # the samples' largest blocks differ, so one order of them grows the
        # buffers and the other keeps them; they never shrink
        a, b = max_cells(spec, shards, first, bs), max_cells(spec, shards, then, bs)
        assert a != b and cells == [a, max(a, b), max(a, b)]

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

        def finish(rows, B):
            # B holds the clients' final models: their last steps have run
            assert B.shape == (len(rows), MLP.param_dim)
            for i, row in zip(rows, B):
                assert np.array_equal(row, final[i])
            calls.append(rows.tolist())
            B[:] = np.nan  # W keeps what the hook leaves; later steps must not touch it

        self.train(MLP, W, w0, shards, 2, finish)
        # clients whose last minibatch is full finish in step order, then the
        # rest by their last minibatch's row count, a block at a time
        order = [i for rows in calls for i in rows]
        assert order == finish_order(sizes, bs)
        assert order != sorted(order) and any(n % bs == 0 for n in sizes)
        tail = sum(n % bs > 0 for n in sizes)
        assert len(calls[-1]) == (2 if small_groups else tail)
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
