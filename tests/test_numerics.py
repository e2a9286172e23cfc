import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordctc.numerics import clip_global_norm, global_norm, log_softmax


class TestLogSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(log_softmax([0.0, 0.0]), [-math.log(2)] * 2, atol=1e-15)

    def test_shift_invariance(self):
        for c in (-123.0, 0.0, 77.5):
            np.testing.assert_allclose(log_softmax([c] * 4), [-math.log(4)] * 4, atol=1e-12)

    def test_matches_naive_formula(self):
        v = np.array([1.0, 2.0, 3.0])
        shifted = v - v.max()
        naive = shifted - np.log(np.exp(shifted).sum())
        np.testing.assert_allclose(log_softmax(v), naive, atol=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            log_softmax([0.0, math.inf])
        with pytest.raises(ValueError):
            log_softmax([math.nan, 0.0])

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_normalization(self, logits):
        total = np.exp(log_softmax(logits)).sum()
        assert abs(total - 1.0) < 1e-12

    def test_rowwise_on_matrices(self):
        rng = np.random.default_rng(0)
        m = rng.normal(0, 10, size=(5, 7))
        out = log_softmax(m)
        np.testing.assert_allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-12)


class TestClipGlobalNorm:
    def test_inside_bound_untouched(self):
        v = np.array([3.0, 4.0])
        out, factor = clip_global_norm(v, 5.0)
        assert factor == 1.0
        assert out is v

    def test_scaling(self):
        out, factor = clip_global_norm(np.array([6.0, 8.0]), 5.0)
        assert factor == 0.5
        np.testing.assert_array_equal(out, [3.0, 4.0])

    def test_norm_twenty_scaled_to_five(self):
        v = np.array([7.0, 7.0, 7.0, 7.0, math.sqrt(400 - 4 * 49)])
        out, factor = clip_global_norm(v, 5.0)
        assert factor == pytest.approx(0.25)
        assert global_norm([out]) == pytest.approx(5.0, abs=1e-9)

    def test_empty_vector(self):
        v = np.zeros(0)
        out, factor = clip_global_norm(v, 5.0)
        assert out is v and factor == 1.0

    def test_bad_max_norm(self):
        with pytest.raises(ValueError):
            clip_global_norm(np.ones(3), 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_norm_rejected(self, bad):
        with pytest.raises(FloatingPointError):
            clip_global_norm(np.array([1.0, bad]), 5.0)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        grad = rng.normal(0, 10, size=int(rng.integers(1, 30)))
        once, factor = clip_global_norm(grad, 5.0)
        twice, factor2 = clip_global_norm(once, 5.0)
        assert factor2 == 1.0
        assert twice is once
