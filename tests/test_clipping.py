import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairdpfed.clipping import clip_by_norm, dual_clip


def vectors(max_dim=16):
    return st.lists(st.floats(-100, 100), min_size=1, max_size=max_dim).map(np.array)


class TestClipByNorm:
    def test_under_threshold(self):
        out, rep = clip_by_norm(np.array([3.0, 4.0]), 10.0)
        assert np.array_equal(out, [3.0, 4.0])
        assert rep.factor == 1.0 and rep.clipped_by == "none"

    def test_scales_to_threshold(self):
        out, rep = clip_by_norm(np.array([3.0, 4.0]), 1.0)
        assert np.allclose(out, [0.6, 0.8])
        assert rep.pre_norm == 5.0 and rep.factor == pytest.approx(0.2)

    def test_zero_vector(self):
        out, rep = clip_by_norm(np.zeros(4), 2.0)
        assert np.array_equal(out, np.zeros(4))
        assert rep.factor == 1.0

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            clip_by_norm(np.array([1.0]), 0.0)

    @given(vectors(), st.floats(0.01, 50))
    def test_idempotent(self, v, c):
        once, _ = clip_by_norm(v, c)
        twice, rep = clip_by_norm(once, c)
        assert np.allclose(twice, once, atol=1e-15)
        assert np.linalg.norm(once) <= c * (1 + 1e-12)


class TestDualClip:
    def test_dp_branch(self):
        out, rep = dual_clip(np.array([3.0, 4.0]), S=2.0, M=10.0)
        assert np.allclose(out, [1.2, 1.6])
        assert rep.factor == pytest.approx(1 / 2.5)
        assert rep.clipped_by == "dp_bound"

    def test_no_clip(self):
        out, rep = dual_clip(np.array([3.0, 4.0]), S=10.0, M=10.0)
        assert np.array_equal(out, [3.0, 4.0])
        assert rep.factor == 1.0 and rep.clipped_by == "none"

    def test_bias_branch(self):
        out, rep = dual_clip(np.array([3.0, 4.0]), S=1e9, M=1.0)
        assert np.allclose(out, [0.6, 0.8])
        assert rep.clipped_by == "bias_bound"

    def test_tie_reports_dp_bound(self):
        _, rep = dual_clip(np.array([3.0, 4.0]), S=1.0, M=1.0)
        assert rep.clipped_by == "dp_bound"

    def test_infinite_M_allowed(self):
        out, rep = dual_clip(np.array([3.0, 4.0]), S=1.0, M=np.inf)
        assert np.allclose(out, [0.6, 0.8])
        assert rep.clipped_by == "dp_bound"

    def test_zero_vector_factor_one(self):
        _, rep = dual_clip(np.zeros(3), S=1.0, M=1.0)
        assert rep.factor == 1.0 and rep.clipped_by == "none"

    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            dual_clip(np.array([1.0]), S=0.0, M=1.0)
        with pytest.raises(ValueError):
            dual_clip(np.array([1.0]), S=1.0, M=-1.0)

    @given(vectors(), st.floats(0.01, 100), st.floats(0.01, 100))
    def test_equals_single_clip_at_min_threshold(self, v, S, M):
        dual, rep = dual_clip(v, S, M)
        single, _ = clip_by_norm(v, min(S, M))
        assert np.all(np.abs(dual - single) <= 1e-12)
        assert np.linalg.norm(dual) <= min(S, M) + 1e-9

    @given(vectors(), st.floats(0.01, 100), st.floats(0.01, 100))
    def test_direction_preserved_and_idempotent(self, v, S, M):
        out, rep = dual_clip(v, S, M)
        assert np.allclose(out, rep.factor * v, atol=1e-15)
        again, rep2 = dual_clip(out, S, M)
        assert np.all(np.abs(again - out) <= 1e-12)


class TestDualClipBlock:
    @pytest.mark.parametrize("S, M", [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0), (1.0, np.inf)])
    def test_each_row_as_the_vector_clip(self, S, M):
        g = np.random.default_rng(3)
        D = g.normal(size=(6, 40)) / np.sqrt(40)
        D *= np.array([0.2, 0.9, 1.5, 3.0, 0.5, 8.0])[:, None]
        D[4] = 0.0
        D[4, 0] = 1.0  # norm exactly 1: on every threshold equal to 1
        norms = np.array([np.sqrt(row.dot(row)) for row in D])
        out = np.full_like(D, np.nan)
        clipped, reports = dual_clip(D, S, M, norm=norms, out=out)
        assert clipped is out
        new, new_reports = dual_clip(D, S, M)  # norms taken when not given
        assert new_reports == reports
        for row, got, new_row, norm, report in zip(D, clipped, new, norms, reports):
            want, want_report = dual_clip(row, S, M, norm=float(norm))
            assert new_row.tobytes() == want.tobytes() and report == want_report
            if report.factor == 1.0:  # returned as is: out's row is not written
                assert want is row and np.isnan(got).all()
            else:
                assert got.tobytes() == want.tobytes()
        assert {r.clipped_by for r in reports} >= {"none"}
        assert {r.clipped_by for r in reports} != {"none"}
