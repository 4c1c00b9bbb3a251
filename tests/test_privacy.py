import math

import numpy as np
import pytest

from fairdpfed.federation import FedConfig
from fairdpfed.numeric import RngStream
from fairdpfed.privacy import PrivacyLedger, add_noise, epsilon_per_round


class TestAddNoise:
    def test_sigma_zero_is_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        out = add_noise(v, S=5.0, sigma=0.0, rng=RngStream(0).child("n"))
        assert np.array_equal(out, v)

    def test_deterministic(self):
        v = np.zeros(100)
        a = add_noise(v, S=2.0, sigma=1.0, rng=RngStream(7).child("n", 3))
        b = add_noise(v, S=2.0, sigma=1.0, rng=RngStream(7).child("n", 3))
        assert np.array_equal(a, b)

    def test_empirical_std(self):
        n = 10**6
        noise = add_noise(np.zeros(n), S=2.0, sigma=1.0, rng=RngStream(11).child("n"))
        assert abs(noise.std() - 2.0) < 0.02

    def test_kurtosis_normality_sanity(self):
        n = 10**6
        noise = add_noise(np.zeros(n), S=1.0, sigma=1.0, rng=RngStream(12).child("n"))
        z = (noise - noise.mean()) / noise.std()
        kurt = np.mean(z**4)
        assert 2.9 <= kurt <= 3.1


class TestEpsilonPerRound:
    def test_closed_form(self):
        eps = epsilon_per_round(sigma=2.0, delta_dp=1e-5, m_t=1)
        assert eps == pytest.approx(math.sqrt(2 * math.log(1.25e5)) / 2, abs=1e-12)
        assert eps == pytest.approx(2.4223, abs=5e-4)

    def test_doubling_mt_halves_epsilon(self):
        e1 = epsilon_per_round(sigma=1.5, delta_dp=1e-5, m_t=3)
        e2 = epsilon_per_round(sigma=1.5, delta_dp=1e-5, m_t=6)
        assert e2 == pytest.approx(e1 / 2, rel=1e-12)

    def test_large_sigma_limit(self):
        assert epsilon_per_round(sigma=1e9, delta_dp=1e-5, m_t=1) < 1e-8

    def test_sigma_zero_sentinel(self):
        assert epsilon_per_round(sigma=0.0, delta_dp=1e-5, m_t=1) == math.inf

    def test_strictly_decreasing_in_sigma(self):
        sigmas = np.linspace(0.1, 10, 40)
        eps = [epsilon_per_round(s, 1e-5, 2) for s in sigmas]
        assert all(a > b for a, b in zip(eps, eps[1:]))

    def test_replace_one_doubles(self):
        base = epsilon_per_round(2.0, 1e-5, 1)
        assert epsilon_per_round(2.0, 1e-5, 1, adjacency="replace_one") == pytest.approx(2 * base)


class TestPrivacyParams:
    """The privacy values sigma, delta_dp and adjacency are checked by FedConfig."""

    def test_valid(self):
        FedConfig(K=1, sigma=1.0, delta_dp=1e-5)
        FedConfig(K=1, sigma=0.0, delta_dp=0.5, adjacency="replace_one")

    def test_invalid(self):
        with pytest.raises(ValueError):
            FedConfig(K=1, sigma=-1.0, delta_dp=1e-5)
        with pytest.raises(ValueError):
            FedConfig(K=1, sigma=1.0, delta_dp=0.0)
        with pytest.raises(ValueError, match="adjacency"):
            FedConfig(K=1, sigma=1.0, delta_dp=1e-5, adjacency="swap_two")


class TestLedger:
    def test_single_round(self):
        ledger = PrivacyLedger(delta_dp=1e-5)
        ledger.record(0, S_used=1.0, sigma=2.0, eps_round=0.5)
        assert ledger.eps_total_basic == 0.5

    def test_basic_composition(self):
        ledger = PrivacyLedger(delta_dp=1e-6)
        for t in range(7):
            ledger.record(t, 1.0, 2.0, 0.3)
        assert ledger.eps_total_basic == pytest.approx(7 * 0.3)

    def test_permutation_invariant_totals(self):
        a = PrivacyLedger(delta_dp=1e-5)
        b = PrivacyLedger(delta_dp=1e-5)
        eps = [0.1, 0.4, 0.25]
        for t, e in enumerate(eps):
            a.record(t, 1.0, 1.0, e)
        for t, e in enumerate(reversed(eps)):
            b.record(t, 1.0, 1.0, e)
        assert a.eps_total_basic == pytest.approx(b.eps_total_basic)
