import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers_fed import one_row_train_clients, per_client_sgd
from test_models import MLP, random_batch

from fairdpfed import models
from fairdpfed.numeric import RngStream, l2_norm, shuffle_clients


class TestL2Norm:
    def test_zero_vector(self):
        assert l2_norm(np.zeros(3)) == 0.0

    def test_three_four_five(self):
        assert l2_norm(np.array([3.0, 4.0])) == 5.0

    def test_matches_sum_of_squares_oracle(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=100)
        acc = 0.0
        for x in v:
            acc += x * x
        assert abs(l2_norm(v) - acc ** 0.5) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            l2_norm(np.array([]))

    def test_bit_identical_to_linalg_norm(self):
        v = np.random.default_rng(5).normal(size=30_000) * 1e-3
        assert l2_norm(v) == float(np.linalg.norm(v))

    @pytest.mark.parametrize("P", [21, 353, 10_001, 28_426, 100_000])
    def test_block_norms_bit_identical_to_each_rows(self, P):
        """Each row's norm in a block is the norm of that row alone, bit for
        bit, past the size where the dot product is summed by threads."""
        g = np.random.default_rng(P)
        B = g.normal(size=(5, P)) * np.array([1e-3, 1.0, 1e3, 0.0, 7.0])[:, None]
        norms = l2_norm(B)
        assert norms.shape == (5,)
        assert norms.tolist() == [l2_norm(row) for row in B]

    @pytest.mark.parametrize("bad, want", [(np.nan, np.isnan), (np.inf, np.isposinf),
                                           (1e200, np.isposinf)])
    def test_block_with_a_nonfinite_row_gets_its_own_nonfinite_norm(self, bad, want):
        """A NaN or infinite entry, or a sum of squares that overflows, makes
        its row's norm non-finite and leaves the other rows' norms alone;
        l2_norm itself raises nothing."""
        B = np.random.default_rng(2).normal(size=(3, 4))
        ok = l2_norm(B)
        B[1, 2] = bad
        with np.errstate(over="ignore"):
            norms = l2_norm(B)
        assert want(norms[1])
        assert norms[[0, 2]].tolist() == ok[[0, 2]].tolist()

    @given(st.floats(-1e6, 1e6), st.integers(1, 50), st.integers(0, 2**32 - 1))
    def test_absolute_homogeneity(self, a, dim, seed):
        v = np.random.default_rng(seed).normal(size=dim)
        lhs = l2_norm(a * v)
        rhs = abs(a) * l2_norm(v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestRngStream:
    def test_same_path_same_samples(self):
        a = RngStream(123).child("noise", 4)
        b = RngStream(123).child("noise", 4)
        assert np.array_equal(a.generator().normal(size=10), b.generator().normal(size=10))

    def test_distinct_paths_differ(self):
        r = RngStream(123)
        a = r.child("noise", 0).generator().normal(size=10)
        b = r.child("noise", 1).generator().normal(size=10)
        c = r.child("init", 0).generator().normal(size=10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_independent_of_call_order(self):
        r = RngStream(9)
        first_then_second = (
            r.child("a").generator().normal(size=5),
            r.child("b").generator().normal(size=5),
        )
        second_then_first = (
            r.child("b").generator().normal(size=5),
            r.child("a").generator().normal(size=5),
        )
        assert np.array_equal(first_then_second[0], second_then_first[1])
        assert np.array_equal(first_then_second[1], second_then_first[0])

    def test_immutable(self):
        r = RngStream(1)
        with pytest.raises(AttributeError):
            r.master_seed = 2


# seeds and indices of one, two and three uint32 words
WORDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                  st.integers(2**64, 2**96))
PATHS = st.lists(st.tuples(st.sampled_from(["round", "client", "epoch", ""]), WORDS),
                 max_size=4).map(tuple)
# a client id is below K < 2**32: one word
IDS = st.integers(0, 2**32 - 1)


def shuffled(stream, ids, epoch, sizes):
    """shuffle_clients on one arange(n) array per client; the arrays."""
    views = [np.arange(n) for n in sizes]
    shuffle_clients(stream, ids, epoch, views)
    return views


def own_permutation(stream, cid, epoch, n):
    """What client cid's own substream generator draws."""
    return stream.child("client", cid).child("epoch", epoch).generator().permutation(n)


class TestPermutations:
    """shuffle_clients shuffles arange(n) buffers into the permutations each
    client's own substream draws."""

    @given(WORDS, PATHS, st.lists(st.tuples(IDS, st.integers(0, 40)), min_size=1, max_size=6),
           WORDS)
    def test_equal_to_each_streams_generator(self, seed, path, drawn, epoch):
        stream = RngStream(seed, path)
        ids = [cid for cid, _ in drawn]
        sizes = [n for _, n in drawn]
        for cid, n, perm in zip(ids, sizes, shuffled(stream, ids, epoch, sizes)):
            assert np.array_equal(perm, own_permutation(stream, cid, epoch, n))

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 3, 2**64 + 5])
    def test_a_rounds_clients_at_once(self, seed):
        """The shape train_clients asks for: many clients, one epoch each,
        with ids up to the largest one word holds and an empty shard, each
        shuffling its pool rows start .. stop - 1 in its view of one buffer."""
        round_stream = RngStream(seed).child("round", 3)
        ids = [0, 5, 2**32 - 1, 2**31, 2**32 - 2, 4_000_000_007, 8]
        sizes = [1, 13, 32, 7, 200, 5, 0]
        buffer = np.arange(1000, 1000 + sum(sizes))
        views = np.split(buffer, np.cumsum(sizes)[:-1])
        starts = [int(v[0]) if len(v) else None for v in views]
        shuffle_clients(round_stream, ids, 1, views)
        for cid, n, start, view in zip(ids, sizes, starts, views):
            assert np.array_equal(view - (start or 0), own_permutation(round_stream, cid, 1, n))

    def test_streams_of_different_master_seeds(self):
        drawn = []
        for seed in (1, 2, 2**33, 1):
            (perm,) = shuffled(RngStream(seed), [3], 0, [9])
            assert np.array_equal(perm, own_permutation(RngStream(seed), 3, 0, 9))
            drawn.append(perm.tolist())
        assert drawn[0] == drawn[3] and drawn[0] != drawn[1]

    def test_one_client_at_a_three_word_seed_and_two_word_epoch(self):
        """The centralized baseline's shape, one client, at a seed and an
        epoch of more than one word."""
        stream = RngStream(2**64 + 11).child("round", 0)
        (perm,) = shuffled(stream, [0], 2**32 + 1, [50])
        assert np.array_equal(perm, own_permutation(stream, 0, 2**32 + 1, 50))

    def test_a_clients_shuffle_ignores_the_rest_of_the_sample(self):
        stream = RngStream(5).child("round", 2)
        samples = [[2, 5, 9], [5, 7], [1, 5, 2**32 - 1]]
        drawn = [shuffled(stream, ids, 0, [30] * len(ids))[ids.index(5)] for ids in samples]
        assert all(np.array_equal(perm, drawn[0]) for perm in drawn)

    @pytest.mark.parametrize("cid", [0, 2**32 - 1])
    def test_one_client_train_clients_equals_its_own_stream(self, cid):
        batch = random_batch(MLP, n=37, seed=1)
        w0 = models.init_params(MLP, RngStream(3).child("init"))
        rng = RngStream(2**33 + 1).child("round", 4)
        got = one_row_train_clients(MLP, w0, batch, 2, 0.1, 8, rng, cid)
        want = per_client_sgd(MLP, w0, batch, 2, 0.1, 8, rng.child("client", cid))
        assert np.array_equal(got, want)
