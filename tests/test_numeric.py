import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairdpfed.numeric import RngStream, gaussian_vector, l2_norm, median, permutations


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

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            l2_norm(np.array([1.0, np.nan]))

    def test_overflowing_sum_of_squares_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            l2_norm(np.array([1e200, 1e200]))

    def test_bit_identical_to_linalg_norm(self):
        v = np.random.default_rng(5).normal(size=30_000) * 1e-3
        assert l2_norm(v) == float(np.linalg.norm(v))

    @given(st.floats(-1e6, 1e6), st.integers(1, 50), st.integers(0, 2**32 - 1))
    def test_absolute_homogeneity(self, a, dim, seed):
        v = np.random.default_rng(seed).normal(size=dim)
        lhs = l2_norm(a * v)
        rhs = abs(a) * l2_norm(v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestMedian:
    def test_singleton(self):
        assert median([5.0]) == 5.0

    def test_odd(self):
        assert median([1.0, 3.0, 2.0]) == 2.0

    def test_even_mean_of_middles(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])

    @given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=30),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, xs, rnd):
        shuffled = list(xs)
        rnd.shuffle(shuffled)
        assert median(shuffled) == median(xs)


class TestRngStream:
    def test_same_path_same_samples(self):
        a = RngStream(123).child("noise", 4)
        b = RngStream(123).child("noise", 4)
        assert np.array_equal(gaussian_vector(a, 1.0, 10), gaussian_vector(b, 1.0, 10))

    def test_distinct_paths_differ(self):
        r = RngStream(123)
        a = gaussian_vector(r.child("noise", 0), 1.0, 10)
        b = gaussian_vector(r.child("noise", 1), 1.0, 10)
        c = gaussian_vector(r.child("init", 0), 1.0, 10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_independent_of_call_order(self):
        r = RngStream(9)
        first_then_second = (
            gaussian_vector(r.child("a"), 1.0, 5),
            gaussian_vector(r.child("b"), 1.0, 5),
        )
        second_then_first = (
            gaussian_vector(r.child("b"), 1.0, 5),
            gaussian_vector(r.child("a"), 1.0, 5),
        )
        assert np.array_equal(first_then_second[0], second_then_first[1])
        assert np.array_equal(first_then_second[1], second_then_first[0])

    def test_immutable(self):
        r = RngStream(1)
        with pytest.raises(AttributeError):
            r.master_seed = 2


class TestGaussianVector:
    def test_zero_std_is_zero_vector(self):
        v = gaussian_vector(RngStream(0), 0.0, 3)
        assert np.array_equal(v, np.zeros(3))

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            gaussian_vector(RngStream(0), -1.0, 3)

    def test_law_of_large_numbers(self):
        n = 10**6
        v = gaussian_vector(RngStream(2024).child("lln"), 2.0, n)
        assert abs(v.mean()) < 4 * 2.0 / 1000
        assert abs(v.var() - 4.0) < 0.04


# seeds and indices of one, two and three uint32 words
WORDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                  st.integers(2**64, 2**96))
PATHS = st.lists(st.tuples(st.sampled_from(["round", "client", "epoch", ""]), WORDS),
                 max_size=4).map(tuple)


class TestPermutations:
    @given(WORDS, st.lists(st.tuples(PATHS, st.integers(0, 40)), min_size=1, max_size=6))
    def test_equal_to_each_streams_generator(self, seed, drawn):
        streams = [RngStream(seed, path) for path, _ in drawn]
        sizes = [n for _, n in drawn]
        bulk = permutations(streams, sizes)
        for s, n, perm in zip(streams, sizes, bulk):
            assert np.array_equal(perm, s.generator().permutation(n))

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 3, 2**64 + 5])
    def test_a_rounds_clients_at_once(self, seed):
        """The shape train_clients asks for: many clients, one epoch each,
        sharing every path word up to the client index."""
        round_stream = RngStream(seed).child("round", 3)
        streams = [round_stream.child("client", cid).child("epoch", 1)
                   for cid in [0, 5, 2**32 - 1, 2**32, 2**40 + 9]]
        sizes = [1, 13, 32, 7, 200]
        bulk = permutations(streams, sizes)
        for s, n, perm in zip(streams, sizes, bulk):
            assert np.array_equal(perm, s.generator().permutation(n))

    def test_streams_of_different_master_seeds(self):
        streams = [RngStream(seed).child("epoch", 0) for seed in (1, 2, 2**33, 1)]
        bulk = permutations(streams, [9] * 4)
        for s, perm in zip(streams, bulk):
            assert np.array_equal(perm, s.generator().permutation(9))
