import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from wordctc.ctc import (
    InfeasibleTargetError,
    Vocabulary,
    collapse,
    ctc_log_likelihood,
    ctc_loss_and_gradient,
    enumerate_preimage,
    greedy_decode,
    min_frames,
    path_log_prob,
)
from wordctc.numerics import NEG_INF, log_softmax

AB = Vocabulary(("a", "b"))


def random_lattice(rng, n_frames, n_labels):
    return log_softmax(rng.normal(0.0, 2.0, size=(n_frames, n_labels + 1)))


def brute_force_ll(lattice, target, vocab):
    paths = enumerate_preimage(target, lattice.shape[0], vocab)
    if not paths:
        return NEG_INF
    return logsumexp([path_log_prob(lattice, p) for p in paths])


class TestVocabulary:
    def test_ids(self):
        v = Vocabulary(("cat", "dog"))
        assert v.size == 3
        assert v.blank_id == 2
        assert v.encode(("dog", "cat")) == (1, 0)
        assert v.decode((1, 0, 2)) == ("dog", "cat", "<blk>")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(("x", "x"))

    def test_reserved_not_a_label(self):
        with pytest.raises(ValueError):
            Vocabulary(("x", "<blk>"))

    def test_unknown_label_named(self):
        with pytest.raises(KeyError, match="zebra"):
            AB.id_of("zebra")


class TestCollapse:
    def test_merges_then_drops(self):
        # a a _ b _ b -> a b b
        assert collapse([0, 0, 2, 1, 2, 1], blank=2) == (0, 1, 1)

    def test_all_blank(self):
        assert collapse([2, 2, 2], blank=2) == ()

    def test_blank_separates_repeat(self):
        assert collapse([0, 2, 0], blank=2) == (0, 0)

    def test_empty(self):
        assert collapse([], blank=2) == ()


class TestEnumeratePreimage:
    def test_single_label_two_frames(self):
        v = Vocabulary(("a",))
        assert enumerate_preimage((0,), 2, v) == {(0, 0), (0, 1), (1, 0)}

    def test_repeat_needs_separator(self):
        v = Vocabulary(("a",))
        assert enumerate_preimage((0, 0), 2, v) == set()
        assert enumerate_preimage((0, 0), 3, v) == {(0, 1, 0)}

    def test_empty_target(self):
        v = Vocabulary(("a",))
        assert enumerate_preimage((), 3, v) == {(1, 1, 1)}

    def test_oracle_bound(self):
        with pytest.raises(ValueError):
            enumerate_preimage((0,), 11, AB)

    def test_zero_frames(self):
        assert enumerate_preimage((), 0, AB) == {()}
        assert enumerate_preimage((0,), 0, AB) == set()

    def test_matches_filtering_definition(self):
        # independent reconstruction: filter the full product by collapse
        v = Vocabulary(("a", "b", "c"))
        y = (0, 1, 1)
        got = enumerate_preimage(y, 5, v)
        expected = {
            p
            for p in itertools.product(range(v.size), repeat=5)
            if collapse(p, v.blank_id) == y
        }
        assert got == expected

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_duality(self, seed):
        # every path is in the preimage of its own collapse
        rng = np.random.default_rng(seed)
        n_labels = int(rng.integers(1, 4))
        v = Vocabulary(tuple("abc"[:n_labels]))
        n = int(rng.integers(1, 7))
        path = tuple(int(x) for x in rng.integers(0, v.size, size=n))
        assert path in enumerate_preimage(collapse(path, v.blank_id), n, v)

    def test_monotone_feasibility(self):
        v = Vocabulary(("a", "b"))
        for k in range(4):
            for y in itertools.product(range(2), repeat=k):
                for n in range(7):
                    if enumerate_preimage(y, n, v):
                        assert enumerate_preimage(y, n + 1, v)
                        assert n >= min_frames(y)


class TestLogLikelihood:
    def test_uniform_single_label(self):
        # two frames, one label + blank, uniform: p = 3 * (1/2)^2
        lattice = log_softmax(np.zeros((2, 2)))
        assert ctc_log_likelihood(lattice, (0,)) == pytest.approx(math.log(0.75), abs=1e-12)

    def test_empty_target_is_blank_path(self):
        rng = np.random.default_rng(1)
        lattice = random_lattice(rng, 5, 3)
        assert ctc_log_likelihood(lattice, ()) == pytest.approx(
            float(lattice[:, -1].sum()), abs=1e-12
        )

    def test_blank_in_target_rejected(self):
        lattice = log_softmax(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            ctc_log_likelihood(lattice, (2,))

    def test_zero_frames(self):
        lattice = np.zeros((0, 3))
        assert ctc_log_likelihood(lattice, (0,)) == NEG_INF
        assert ctc_log_likelihood(lattice, ()) == 0.0

    def test_infeasible_is_neg_inf(self):
        lattice = log_softmax(np.zeros((2, 2)))
        assert ctc_log_likelihood(lattice, (0, 0)) == NEG_INF

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n_labels = int(rng.integers(1, 5))
        vocab = Vocabulary(tuple("abcd"[:n_labels]))
        n_frames = int(rng.integers(1, 7))
        k = int(rng.integers(0, 4))
        y = tuple(int(x) for x in rng.integers(0, n_labels, size=k))
        lattice = random_lattice(rng, n_frames, n_labels)
        brute = brute_force_ll(lattice, y, vocab)
        ll = ctc_log_likelihood(lattice, y)
        if brute == NEG_INF:
            assert ll == NEG_INF
        else:
            assert abs(math.exp(ll) - math.exp(brute)) < 1e-10

    def test_random_6x4_against_oracle(self):
        rng = np.random.default_rng(42)
        vocab = Vocabulary(("a", "b", "c"))
        lattice = random_lattice(rng, 6, 3)
        for y in [(0,), (1, 2), (2, 2, 0), ()]:
            assert ctc_log_likelihood(lattice, y) == pytest.approx(
                brute_force_ll(lattice, y, vocab), abs=1e-10
            )

    def test_normalization_over_all_targets(self):
        # sum of p(y | x) over every reachable y is 1
        rng = np.random.default_rng(9)
        for n_labels, n_frames in [(1, 4), (2, 4), (3, 5)]:
            vocab = Vocabulary(tuple("abc"[:n_labels]))
            lattice = random_lattice(rng, n_frames, n_labels)
            targets = {
                collapse(p, vocab.blank_id)
                for p in itertools.product(range(vocab.size), repeat=n_frames)
            }
            total = sum(math.exp(ctc_log_likelihood(lattice, y)) for y in targets)
            assert total == pytest.approx(1.0, abs=1e-9)


def fd_gradient(logits, target, eps=1e-6):
    out = np.zeros_like(logits)
    for t in range(logits.shape[0]):
        for k in range(logits.shape[1]):
            up = logits.copy()
            up[t, k] += eps
            dn = logits.copy()
            dn[t, k] -= eps
            out[t, k] = (
                -ctc_log_likelihood(log_softmax(up), target)
                + ctc_log_likelihood(log_softmax(dn), target)
            ) / (2 * eps)
    return out


class TestGradient:
    def test_single_frame_single_label(self):
        lattice = log_softmax(np.array([[0.3, -0.2, 0.9]]))
        grad = ctc_loss_and_gradient(lattice, (0,))[1]
        expected = np.exp(lattice)
        expected[0, 0] -= 1.0
        np.testing.assert_allclose(grad, expected, atol=1e-12)

    def test_empty_target_occupies_blank(self):
        rng = np.random.default_rng(4)
        lattice = random_lattice(rng, 4, 2)
        grad = ctc_loss_and_gradient(lattice, ())[1]
        expected = np.exp(lattice)
        expected[:, -1] -= 1.0
        np.testing.assert_allclose(grad, expected, atol=1e-12)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(5)
        lattice = random_lattice(rng, 7, 3)
        grad = ctc_loss_and_gradient(lattice, (1, 0, 2))[1]
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-9)

    def test_infeasible_raises(self):
        lattice = log_softmax(np.zeros((2, 2)))
        with pytest.raises(InfeasibleTargetError):
            ctc_loss_and_gradient(lattice, (0, 0))[1]

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n_labels = int(rng.integers(1, 4))
            n_frames = int(rng.integers(2, 7))
            k = int(rng.integers(0, min(3, n_frames) + 1))
            y = tuple(int(x) for x in rng.integers(0, n_labels, size=k))
            if min_frames(y) > n_frames:
                continue
            logits = rng.normal(0, 1, size=(n_frames, n_labels + 1))
            grad = ctc_loss_and_gradient(log_softmax(logits), y)[1]
            fd = fd_gradient(logits, y)
            err = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-2)
            assert err.max() < 1e-5

    def test_loss_matches_likelihood(self):
        rng = np.random.default_rng(7)
        lattice = random_lattice(rng, 5, 2)
        nll, _ = ctc_loss_and_gradient(lattice, (0, 1))
        assert nll == pytest.approx(-ctc_log_likelihood(lattice, (0, 1)), abs=0)

    def test_forward_backward_consistent_at_every_frame(self):
        # total path mass through frame t is the same for all t; alpha and
        # beta both come from the one sweep, beta over the reversed lattice
        from wordctc.ctc import _expanded_states, _sweep

        rng = np.random.default_rng(8)
        lattice = random_lattice(rng, 6, 3)
        y = np.array([2, 0, 0])
        blank = lattice.shape[1] - 1
        sym, skip = _expanded_states(y, blank)
        emit = lattice[:, sym]
        alpha = _sweep(emit, skip) + emit
        beta = _sweep(emit[::-1, ::-1], _expanded_states(y[::-1], blank)[1])[::-1, ::-1]
        ll = ctc_log_likelihood(lattice, y)
        for t in range(6):
            assert logsumexp(alpha[t] + beta[t]) == pytest.approx(ll, abs=1e-10)


class TestGreedyDecode:
    def test_forced_argmax_sequence(self):
        # argmaxes a a _ b -> a b
        lattice = np.log(
            np.array(
                [
                    [0.8, 0.1, 0.1],
                    [0.6, 0.2, 0.2],
                    [0.1, 0.2, 0.7],
                    [0.2, 0.7, 0.1],
                ]
            )
        )
        assert greedy_decode(lattice) == (0, 1)

    def test_all_blank(self):
        lattice = np.log(np.tile([0.1, 0.1, 0.8], (3, 1)))
        assert greedy_decode(lattice) == ()

    def test_tie_prefers_low_id_then_not_blank(self):
        lattice = np.log(np.full((1, 3), 1 / 3))
        assert greedy_decode(lattice) == (0,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            greedy_decode(np.zeros((0, 3)))

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=50, deadline=None)
    def test_equals_collapse_of_argmax(self, seed):
        rng = np.random.default_rng(seed)
        lattice = random_lattice(rng, int(rng.integers(1, 10)), int(rng.integers(1, 5)))
        # independent recomputation
        expected = collapse(
            [int(np.argmax(row)) for row in lattice], blank=lattice.shape[1] - 1
        )
        assert greedy_decode(lattice) == expected
