import numpy as np
import pytest
from scipy.special import expit

from wordctc.ctc import Vocabulary, ctc_loss_and_gradient
from wordctc.network import (
    LSTMLayer,
    Network,
    NetworkFormatError,
    SequenceTooShortError,
    StaleTapeError,
    downsample,
    downsample_schedule,
    load_network,
    lstm_backward,
    lstm_forward,
    network_backward,
    network_forward,
    save_network,
    sgd_update,
    transfer_bottom_layers,
)

VOCAB = Vocabulary(("a", "b", "c"))


def tiny_net(seed=0, downsample=(0, 1), hidden=8, input_dim=4, mode="word-ctc"):
    return Network.random(
        input_dim, [hidden] * len(downsample), VOCAB, mode, downsample=downsample, seed=seed
    )


class TestDownsample:
    def test_keeps_odd_one_based_frames(self):
        # 1-based frames 1, 3, 5 of six
        six = np.arange(6)
        np.testing.assert_array_equal(downsample(six), [0, 2, 4])

    def test_odd_length_drops_last(self):
        # 1-based upper index is 2*floor(T/2)-1 = 3, so frame 5 goes away
        np.testing.assert_array_equal(downsample(np.arange(5)), [0, 2])

    def test_smallest_legal_input(self):
        np.testing.assert_array_equal(downsample(np.arange(2)), [0])

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_short(self, n):
        with pytest.raises(SequenceTooShortError):
            downsample(np.arange(n))

    def test_length_law(self):
        for n in range(2, 65):
            out = downsample(np.arange(n))
            assert len(out) == n // 2
            np.testing.assert_array_equal(out, np.arange(0, 2 * (n // 2), 2))


class TestDownsampleSchedule:
    def test_after_each_layer_first(self):
        assert downsample_schedule(1, 4) == (0, 0, 0, 0)
        assert downsample_schedule(2, 4) == (0, 1, 0, 0)
        assert downsample_schedule(4, 4) == (0, 1, 1, 0)
        assert downsample_schedule(8, 4) == (0, 1, 1, 1)

    def test_overflow_stacks_before_first_layer(self):
        assert downsample_schedule(16, 4) == (1, 1, 1, 1)
        assert downsample_schedule(32, 4) == (2, 1, 1, 1)

    def test_non_power_of_two_rejected(self):
        for bad in (0, 3, 6, -2):
            with pytest.raises(ValueError):
                downsample_schedule(bad, 4)


class TestLSTMForward:
    def test_zero_weights_zero_inputs(self):
        h = 5
        zeros_w = np.zeros((h, 3 + h))
        zeros_b = np.zeros(h)
        layer = LSTMLayer(*(zeros_w.copy() for _ in range(4)), *(zeros_b.copy() for _ in range(4)))
        out, _ = lstm_forward(layer, np.zeros((4, 3)))
        np.testing.assert_array_equal(out, np.zeros((4, h)))

    def test_single_step_no_recurrence(self):
        rng = np.random.default_rng(0)
        layer = LSTMLayer.random(3, 4, rng)
        x = rng.normal(size=(1, 3))
        out, _ = lstm_forward(layer, x)
        # direct one-step computation with zero initial state
        z = np.concatenate([x[0], np.zeros(4)])
        i = expit(layer.w_i @ z + layer.b_i)
        f = expit(layer.w_f @ z + layer.b_f)
        o = expit(layer.w_o @ z + layer.b_o)
        g = np.tanh(layer.w_g @ z + layer.b_g)
        np.testing.assert_allclose(out[0], o * np.tanh(i * g), atol=1e-14)

    def test_matches_scalar_recomputation(self):
        # an independent per-gate, per-step reimplementation
        rng = np.random.default_rng(1)
        layer = LSTMLayer.random(2, 3, rng)
        x = rng.normal(size=(3, 2))
        out, _ = lstm_forward(layer, x)
        h_prev = np.zeros(3)
        c_prev = np.zeros(3)
        for t in range(3):
            z = np.concatenate([x[t], h_prev])
            c = expit(layer.w_f @ z + layer.b_f) * c_prev + expit(
                layer.w_i @ z + layer.b_i
            ) * np.tanh(layer.w_g @ z + layer.b_g)
            h = expit(layer.w_o @ z + layer.b_o) * np.tanh(c)
            np.testing.assert_allclose(out[t], h, atol=1e-13)
            h_prev, c_prev = h, c

    def test_dimension_mismatch(self):
        layer = LSTMLayer.random(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            lstm_forward(layer, np.zeros((4, 5)))


def fd_check(param, grad, loss_fn, eps=1e-6, floor=1e-2):
    worst = 0.0
    flat_p = param.ravel()
    flat_g = grad.ravel()
    for i in range(flat_p.size):
        old = flat_p[i]
        flat_p[i] = old + eps
        up = loss_fn()
        flat_p[i] = old - eps
        down = loss_fn()
        flat_p[i] = old
        fd = (up - down) / (2 * eps)
        worst = max(worst, abs(flat_g[i] - fd) / max(abs(fd), floor))
    return worst


class TestLSTMBackward:
    def test_zero_output_grads(self):
        rng = np.random.default_rng(2)
        layer = LSTMLayer.random(3, 4, rng)
        _, tape = lstm_forward(layer, rng.normal(size=(5, 3)))
        d_in, grads = lstm_backward(layer, tape, np.zeros((5, 4)))
        np.testing.assert_array_equal(d_in, np.zeros((5, 3)))
        for g in grads.params():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_finite_differences_single_layer(self):
        rng = np.random.default_rng(3)
        layer = LSTMLayer.random(2, 4, rng)
        x = rng.normal(size=(3, 2))
        target = rng.normal(size=(3, 4))

        def loss():
            out, _ = lstm_forward(layer, x)
            return 0.5 * float(np.sum((out - target) ** 2))

        out, tape = lstm_forward(layer, x)
        d_in, grads = lstm_backward(layer, tape, out - target)
        for p, g in zip(layer.params(), grads.params()):
            assert fd_check(p, g, loss) < 1e-4

        # input gradients too
        def loss_x():
            out2, _ = lstm_forward(layer, x)
            return 0.5 * float(np.sum((out2 - target) ** 2))

        assert fd_check(x, d_in, loss_x) < 1e-4


class TestNetworkForward:
    def test_identity_downsampling_keeps_length(self):
        net = tiny_net(downsample=(0, 0))
        lattice, _ = network_forward(net, np.zeros((9, 4)))
        assert lattice.shape == (9, VOCAB.size)

    def test_frame_count_law(self):
        net = Network.random(4, [6] * 4, VOCAB, "word-ctc",
                             downsample=downsample_schedule(4, 4), seed=0)
        lattice, _ = network_forward(net, np.zeros((100, 4)))
        assert lattice.shape[0] == 25

    def test_rows_normalized(self):
        rng = np.random.default_rng(4)
        net = tiny_net()
        lattice, _ = network_forward(net, rng.normal(size=(8, 4)))
        np.testing.assert_allclose(np.exp(lattice).sum(axis=1), 1.0, atol=1e-9)

    def test_too_short_raises(self):
        net = tiny_net(downsample=(1, 1))
        with pytest.raises(SequenceTooShortError):
            network_forward(net, np.zeros((2, 4)))

    def test_repeated_halving_length(self):
        for n in (7, 20, 33):
            net = Network.random(4, [5, 5], VOCAB, "word-ctc", downsample=(1, 1), seed=1)
            lattice, _ = network_forward(net, np.zeros((n, 4)))
            assert lattice.shape[0] == (n // 2) // 2


class TestNetworkBackward:
    def test_full_gradient_check(self):
        rng = np.random.default_rng(5)
        net = tiny_net(seed=11)
        x = rng.normal(size=(7, 4))
        y = (0, 2)

        def loss():
            lattice, _ = network_forward(net, x)
            return ctc_loss_and_gradient(lattice, y)[0]

        lattice, tape = network_forward(net, x)
        _, d_logits = ctc_loss_and_gradient(lattice, y)
        grads, d_x = network_backward(net, tape, d_logits)
        for p, g in zip(net.params(), grads.arrays()):
            assert fd_check(p, g, loss) < 1e-4
        assert fd_check(x, d_x, loss) < 1e-4

    def test_dropped_frames_get_zero_input_grad(self):
        rng = np.random.default_rng(6)
        net = Network.random(4, [5], VOCAB, "word-ctc", downsample=(1,), seed=2)
        x = rng.normal(size=(5, 4))
        lattice, tape = network_forward(net, x)
        _, d_logits = ctc_loss_and_gradient(lattice, (1,))
        _, d_x = network_backward(net, tape, d_logits)
        # kept 1-based frames are 1 and 3; the rest must be exactly zero
        np.testing.assert_array_equal(d_x[1], 0.0)
        np.testing.assert_array_equal(d_x[3], 0.0)
        np.testing.assert_array_equal(d_x[4], 0.0)
        assert np.any(d_x[0]) and np.any(d_x[2])

    def test_stale_tape_rejected(self):
        rng = np.random.default_rng(7)
        net = tiny_net()
        x = rng.normal(size=(6, 4))
        lattice, tape = network_forward(net, x)
        _, d_logits = ctc_loss_and_gradient(lattice, (0,))
        grads, _ = network_backward(net, tape, d_logits)
        sgd_update(net, grads.arrays(), 0.1)
        with pytest.raises(StaleTapeError):
            network_backward(net, tape, d_logits)


class TestInit:
    def test_range(self):
        net = Network.random(50, [200, 200], VOCAB, "word-ctc", seed=0)
        draws = np.concatenate(
            [w.ravel() for layer in net.layers for w in layer.params()[:4]] + [net.w_out.ravel()]
        )
        assert draws.size > 500_000
        assert draws.min() >= -0.05 and draws.max() <= 0.05

    def test_network_deterministic(self):
        a = tiny_net(seed=9)
        b = tiny_net(seed=9)
        for p, q in zip(a.params(), b.params()):
            np.testing.assert_array_equal(p, q)
        assert not np.array_equal(a.layers[0].w_i, tiny_net(seed=10).layers[0].w_i)

    def test_forget_bias_one(self):
        net = tiny_net()
        for layer in net.layers:
            np.testing.assert_array_equal(layer.b_f, 1.0)
            np.testing.assert_array_equal(layer.b_i, 0.0)


class TestCausality:
    def test_lookahead_exactly_one(self):
        from wordctc.training import classifier_frame_predictions

        rng = np.random.default_rng(8)
        vocab = Vocabulary(("w1", "w2"), reserved="SIL")
        net = Network.random(3, [6, 6], vocab, "frame-classifier", seed=3)
        x = rng.normal(size=(9, 3))
        lattice, _ = network_forward(net, x)
        base = classifier_frame_predictions(net, lattice)
        for t in range(7):
            poked = x.copy()
            poked[t + 2 :] += rng.normal(size=poked[t + 2 :].shape)
            lattice2, _ = network_forward(net, poked)
            pred2 = classifier_frame_predictions(net, lattice2)
            assert pred2[t] == base[t]


class TestTransfer:
    def test_bottom_three_copied_rest_fresh(self):
        phone_vocab = Vocabulary(("p1", "p2"))
        src = Network.random(4, [6, 6, 6], phone_vocab, "phoneme-ctc", seed=21)
        dst = Network.random(4, [6, 6, 6, 6], VOCAB, "word-ctc", seed=22)
        out = transfer_bottom_layers(src, dst, 3)
        for i in range(3):
            for p, q in zip(out.layers[i].params(), src.layers[i].params()):
                np.testing.assert_array_equal(p, q)
        for p, q in zip(out.layers[3].params(), dst.layers[3].params()):
            np.testing.assert_array_equal(p, q)
        np.testing.assert_array_equal(out.w_out, dst.w_out)

    def test_k_zero_is_identity(self):
        dst = tiny_net(seed=1)
        out = transfer_bottom_layers(tiny_net(seed=2), dst, 0)
        for p, q in zip(out.params(), dst.params()):
            np.testing.assert_array_equal(p, q)

    def test_copied_layers_reproduce_hidden_states(self):
        rng = np.random.default_rng(9)
        src = Network.random(4, [6, 6], VOCAB, "word-ctc", seed=31)
        dst = Network.random(4, [6, 6], VOCAB, "word-ctc", seed=32)
        out = transfer_bottom_layers(src, dst, 1)
        x = rng.normal(size=(5, 4))
        h_src, _ = lstm_forward(src.layers[0], x)
        h_out, _ = lstm_forward(out.layers[0], x)
        np.testing.assert_array_equal(h_src, h_out)

    def test_idempotent_on_copied_layers(self):
        src = tiny_net(seed=41)
        dst = tiny_net(seed=42)
        once = transfer_bottom_layers(src, dst, 1)
        twice = transfer_bottom_layers(src, once, 1)
        for p, q in zip(once.layers[0].params(), twice.layers[0].params()):
            np.testing.assert_array_equal(p, q)

    def test_shape_mismatch(self):
        src = Network.random(4, [5, 5], VOCAB, "word-ctc", seed=1)
        dst = Network.random(4, [6, 6], VOCAB, "word-ctc", seed=2)
        with pytest.raises(ValueError):
            transfer_bottom_layers(src, dst, 1)

    def test_k_bounds(self):
        src = tiny_net(seed=1)
        dst = tiny_net(seed=2)
        with pytest.raises(ValueError):
            transfer_bottom_layers(src, dst, 2)


class TestSerialization:
    def test_bit_exact_round_trip(self, tmp_path):
        net = Network.random(5, [7, 7], VOCAB, "word-ctc", downsample=(0, 1), seed=77)
        path = tmp_path / "model.net"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.mode == net.mode
        assert loaded.downsample == net.downsample
        assert loaded.lookahead == net.lookahead
        assert loaded.vocab.labels == net.vocab.labels
        assert loaded.vocab.reserved == net.vocab.reserved
        for p, q in zip(net.params(), loaded.params()):
            assert p.tobytes() == q.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        net = tiny_net(seed=5)
        save_network(net, tmp_path / "a.net")
        save_network(net, tmp_path / "b.net")
        assert (tmp_path / "a.net").read_bytes() == (tmp_path / "b.net").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.net"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(NetworkFormatError):
            load_network(path)

    def test_truncated_params(self, tmp_path):
        net = tiny_net(seed=5)
        path = tmp_path / "model.net"
        save_network(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(NetworkFormatError, match="truncated"):
            load_network(path)

    def test_classifier_round_trip(self, tmp_path):
        vocab = Vocabulary(("w1", "w2"), reserved="SIL")
        net = Network.random(3, [4], vocab, "frame-classifier", seed=8)
        save_network(net, tmp_path / "c.net")
        loaded = load_network(tmp_path / "c.net")
        assert loaded.mode == "frame-classifier"
        assert loaded.lookahead == 1
        assert loaded.vocab.reserved == "SIL"
