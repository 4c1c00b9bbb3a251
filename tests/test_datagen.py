from dataclasses import replace

import numpy as np
import pytest

from helpers_fed import one_row_train_clients, per_client_lists_partition

from fairdpfed import models
from fairdpfed.datagen import (
    BiasTag,
    DataSpec,
    PartitionScheme,
    generate,
    inject_bias,
    partition,
)
from fairdpfed.models import ModelSpec
from fairdpfed.numeric import RngStream


DEFAULT = DataSpec()


def make_shards(K=10, n=1000, seed=0, scheme=PartitionScheme(kind="iid")):
    spec = DataSpec(n_examples=n, n_features=5)
    train, _ = generate(spec, RngStream(seed).child("data"))
    return train, partition(train, K, scheme, RngStream(seed).child("part"))


class TestGenerate:
    def test_deterministic(self):
        a_train, a_test = generate(DEFAULT, RngStream(1).child("data"))
        b_train, b_test = generate(DEFAULT, RngStream(1).child("data"))
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.labels, b_test.labels)

    def test_split_sizes(self):
        train, test = generate(DEFAULT, RngStream(2).child("data"))
        assert len(train) == 1600 and len(test) == 400

    def test_standardized_on_train_stats(self):
        train, _ = generate(DEFAULT, RngStream(3).child("data"))
        assert np.allclose(train.features.mean(axis=0), 0, atol=1e-10)
        assert np.allclose(train.features.std(axis=0), 1, atol=1e-10)

    def test_separable_data_is_learnable_centrally(self):
        spec = DataSpec(n_examples=2000, n_features=10, class_separation=10.0)
        train, test = generate(spec, RngStream(4).child("data"))
        mspec = ModelSpec(kind="logistic_regression", n_features=10)
        w = models.init_params(mspec, RngStream(4).child("init"))
        w = one_row_train_clients(mspec, w, train, 20, 0.5, 64, RngStream(4).child("t"), 0)
        assert models.evaluate(mspec, w, test).accuracy > 0.95

    def test_labels_near_balanced(self):
        train, test = generate(DEFAULT, RngStream(5).child("data"))
        y = np.concatenate([train.labels, test.labels])
        frac = np.mean(y == 1)
        assert abs(frac - 0.5) < 0.05

    def test_group_correlation_knob(self):
        corr = DataSpec(n_features=5, group_correlation=1.0)
        train, _ = generate(corr, RngStream(6).child("data"))
        # fully correlated groups are a deterministic function of features
        again, _ = generate(corr, RngStream(6).child("data"))
        assert np.array_equal(train.groups, again.groups)
        assert set(np.unique(train.groups)) <= {0, 1}


class TestPartition:
    def test_single_client_gets_everything(self):
        train, shards = make_shards(K=1)
        assert len(shards) == 1
        assert len(shards[0].batch) == len(train)

    def test_iid_equal_sizes(self):
        train, shards = make_shards(K=10, n=1250)  # 1000 train examples
        assert all(len(s.batch) == 100 for s in shards)

    def test_disjoint_cover(self):
        train, shards = make_shards(K=7, n=500)
        total = sum(len(s.batch) for s in shards)
        assert total == len(train)
        # feature rows across shards are exactly the train rows
        stacked = np.vstack([s.batch.features for s in shards])
        assert (
            np.unique(stacked, axis=0).shape == np.unique(train.features, axis=0).shape
        )

    def test_shards_are_row_ranges_of_one_pool(self):
        train, shards = make_shards(
            K=7, n=500, scheme=PartitionScheme(kind="dirichlet_label_skew", alpha=0.5))
        pool = shards[0].pool
        assert all(s.pool is pool for s in shards) and len(pool) == len(train)
        assert [s.start for s in shards] == [0] + [s.stop for s in shards[:-1]]
        assert shards[-1].stop == len(pool)
        for s in shards:  # the rows live only in the pool
            assert np.shares_memory(s.batch.features, pool.features)
            assert np.shares_memory(s.batch.labels, pool.labels)
        assert not np.shares_memory(pool.labels, train.labels)
        with pytest.raises(TypeError):  # a shard's batch cannot be rebound
            replace(shards[0], batch=shards[1].batch)

    def test_too_many_clients_rejected(self):
        train, _ = generate(DataSpec(n_examples=20, n_features=3), RngStream(0).child("d"))
        with pytest.raises(ValueError):
            partition(train, len(train) + 1, PartitionScheme(kind="iid"), RngStream(0))

    def test_dirichlet_every_client_nonempty(self):
        _, shards = make_shards(
            K=10, n=600, scheme=PartitionScheme(kind="dirichlet_label_skew", alpha=0.1)
        )
        assert all(len(s.batch) >= 1 for s in shards)

    def test_dirichlet_alpha_controls_skew(self):
        def mean_tv(alpha, seed):
            spec = DataSpec(n_examples=800, n_features=5)
            train, _ = generate(spec, RngStream(seed).child("data"))
            global_dist = np.bincount(train.labels, minlength=2) / len(train)
            shards = partition(
                train, 8, PartitionScheme(kind="dirichlet_label_skew", alpha=alpha),
                RngStream(seed).child("part"),
            )
            tvs = []
            for s in shards:
                dist = np.bincount(s.batch.labels, minlength=2) / len(s.batch)
                tvs.append(0.5 * np.abs(dist - global_dist).sum())
            return np.mean(tvs)

        seeds = range(20)
        skewed = np.mean([mean_tv(0.1, s) for s in seeds])
        uniform = np.mean([mean_tv(100.0, s) for s in seeds])
        assert skewed > uniform


class TestPartitionMatchesPerClientLists:
    """partition's one lexsort gives the pool and spans that sorting a list
    of rows per client gave."""

    @pytest.mark.parametrize("K, n, scheme", [
        (1, 100, PartitionScheme(kind="iid")),
        (7, 500, PartitionScheme(kind="iid")),
        (100, 20_000, PartitionScheme(kind="iid")),
        (9, 500, PartitionScheme(kind="dirichlet_label_skew", alpha=0.5)),
        (100, 20_000, PartitionScheme(kind="dirichlet_label_skew", alpha=0.5)),
        (50, 2_000, PartitionScheme(kind="dirichlet_label_skew", alpha=0.3)),
    ], ids=["iid-1", "iid-7", "iid-100", "dirichlet-9", "dirichlet-100", "dirichlet-50-redraws"])
    @pytest.mark.parametrize("seed", [0, 1, 31])
    def test_pool_bytes_and_spans(self, K, n, scheme, seed):
        train, shards = make_shards(K=K, n=n, seed=seed, scheme=scheme)
        rows, spans = per_client_lists_partition(train, K, scheme,
                                                 RngStream(seed).child("part"))
        want = train.take(rows)
        pool = shards[0].pool
        for name in ("features", "labels", "groups"):
            assert getattr(pool, name).tobytes() == getattr(want, name).tobytes()
        assert [(s.start, s.stop) for s in shards] == spans

    @pytest.mark.parametrize("seed", [0, 1, 31])
    def test_dirichlet_case_redraws(self, seed):
        """alpha 0.3 over 50 clients of 1,600 rows leaves some client empty
        on the first draw, so the comparison above covers the redraw loop."""
        train, _ = make_shards(K=1, n=2_000, seed=seed)
        g = RngStream(seed).child("part").generator()
        sizes = np.zeros(50, dtype=int)
        for c in np.unique(train.labels):
            idx_c = g.permutation(np.flatnonzero(train.labels == c))
            cuts = (np.cumsum(g.dirichlet(np.full(50, 0.3)))[:-1] * len(idx_c)).astype(int)
            sizes += [len(chunk) for chunk in np.split(idx_c, cuts)]
        assert not sizes.all()


class TestInjectBias:
    def test_zero_probability_is_identity(self):
        _, shards = make_shards(K=4, n=200)
        tag = BiasTag(mode="label_flip", flip_prob=0.0, target_group=0)
        out = inject_bias(shards[0], tag, RngStream(0).child("bias"), 2)
        assert np.array_equal(out.batch.labels, shards[0].batch.labels)
        assert out.bias_tag.mode == "label_flip"

    def test_full_flip_on_universal_group(self):
        _, shards = make_shards(K=4, n=200)
        s = shards[1]
        s.batch.groups[:] = 0  # the shard's rows of the pool
        labels = s.batch.labels.copy()
        tag = BiasTag(mode="label_flip", flip_prob=1.0, target_group=0)
        out = inject_bias(s, tag, RngStream(0).child("bias"), 2)
        assert np.array_equal(out.batch.labels, 1 - labels)

    def test_multiclass_flip_reaches_classes_the_shard_lacks(self):
        """A 3-class shard that holds only labels 0 and 1, as a label-skewed
        split can leave it, still flips to class 2, not by 1 - y."""
        train, _ = generate(DataSpec(n_examples=200, n_features=5, n_classes=3),
                            RngStream(0).child("data"))
        s = partition(train, 4, PartitionScheme(kind="iid"), RngStream(0).child("part"))[1]
        s.batch.groups[:] = 0
        s.batch.labels[:] = np.arange(len(s.batch)) % 2
        labels = s.batch.labels.copy()
        tag = BiasTag(mode="label_flip", flip_prob=1.0, target_group=0)
        out = inject_bias(s, tag, RngStream(0).child("bias"), 3)
        flipped = out.batch.labels
        assert np.all(flipped != labels) and set(flipped.tolist()) <= {0, 1, 2}
        assert np.any(flipped == 2)

    def test_label_flip_writes_into_the_pool(self):
        train, shards = make_shards(K=4, n=200)
        pool, s = shards[0].pool, shards[1]
        before, train_labels = pool.labels.copy(), train.labels.copy()
        tag = BiasTag(mode="label_flip", flip_prob=1.0, target_group=0)
        out = inject_bias(s, tag, RngStream(0).child("bias"), 2)
        hit = np.zeros(len(pool), dtype=bool)
        hit[s.start:s.stop] = pool.groups[s.start:s.stop] == 0
        assert hit.any()
        assert np.array_equal(pool.labels, np.where(hit, 1 - before, before))
        assert np.array_equal(out.batch.labels, pool.labels[s.start:s.stop])
        # the clean training set the centralized baseline trains on is untouched
        assert np.array_equal(train.labels, train_labels)

    def test_features_and_size_unchanged(self):
        _, shards = make_shards(K=4, n=200)
        tag = BiasTag(mode="label_flip", flip_prob=0.7, target_group=1)
        out = inject_bias(shards[2], tag, RngStream(1).child("bias"), 2)
        assert np.array_equal(out.batch.features, shards[2].batch.features)
        assert len(out.batch) == len(shards[2].batch)

    def test_update_scale_only_tags(self):
        _, shards = make_shards(K=4, n=200)
        tag = BiasTag(mode="update_scale", factor=25.0)
        out = inject_bias(shards[3], tag, RngStream(2).child("bias"), 2)
        assert np.array_equal(out.batch.labels, shards[3].batch.labels)
        assert out.bias_tag.factor == 25.0

    def test_update_scale_scales_emitted_norm(self):
        from fairdpfed.federation import update_factors
        delta = np.array([0.1, -0.2, 0.05])
        before = np.linalg.norm(delta)
        delta *= update_factors([BiasTag(mode="update_scale", factor=25.0)])[0]
        assert np.linalg.norm(delta) == pytest.approx(25 * before)

    @pytest.mark.parametrize("kwargs", [
        {"mode": "bogus"},
        {"mode": "update_scale", "factor": 0.0},
    ])
    def test_tag_checks_its_values(self, kwargs):
        with pytest.raises(ValueError):
            BiasTag(**kwargs)

    def test_invalid_probability(self):
        _, shards = make_shards(K=4, n=200)
        with pytest.raises(ValueError):
            tag = BiasTag(mode="label_flip", flip_prob=1.5, target_group=0)
            inject_bias(shards[0], tag, RngStream(0).child("bias"), 2)
