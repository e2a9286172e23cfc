import hashlib
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from wordctc import network
from wordctc.ctc import Vocabulary, ctc_loss_and_gradient
from wordctc.network import (
    LSTMLayer,
    Network,
    NetworkFormatError,
    SequenceTooShortError,
    StaleTapeError,
    _batch_sizes,
    downsample,
    downsample_schedule,
    forward_batches,
    load_network,
    lstm_backward,
    lstm_forward,
    network_backward,
    network_forward,
    pack,
    save_network,
    sgd_update,
    transfer_bottom_layers,
    unpack,
)
from wordctc.numerics import global_norm

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

    def test_packed_sequences_halve_each_on_their_own(self):
        seqs = [np.arange(7) + 10, np.arange(4) + 20, np.arange(3) + 30, np.arange(2) + 40]
        packed, lengths = pack(seqs)
        halved = unpack(downsample(packed, lengths), lengths // 2)
        for got, seq in zip(halved, seqs):
            np.testing.assert_array_equal(got, downsample(seq))
        with pytest.raises(SequenceTooShortError):
            downsample(*pack(seqs + [np.arange(1)]))

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
        layer = LSTMLayer(np.zeros((4 * h, 3 + h)), np.zeros(4 * h))
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

    @pytest.mark.parametrize("T", [0, 1, 6])
    def test_tape_cell_starts_with_the_zero_state(self, nan_empty, T):
        rng = np.random.default_rng(T)
        layer = LSTMLayer.random(3, 4, rng)
        h, tape = lstm_forward(layer, rng.normal(size=(T, 3)))
        assert tape.cell.shape == (T + 1, 4)
        np.testing.assert_array_equal(tape.cell[0], np.zeros(4))
        # every other row of every buffer is written before it is read
        assert h.shape == (T, 4) and np.isfinite(tape.cell).all() and np.isfinite(h).all()


def _reference_lstm_forward(layer, inputs):
    """The single-utterance loop lstm_forward replaced: the oracle for the
    packed kernel, bit for bit at one utterance."""
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    T = x.shape[0]
    H = layer.hidden_dim
    D = layer.input_dim
    wh = layer.w[:, D:]
    gx = x @ layer.w[:, :D].T + layer.b
    gates = np.empty((T, 4 * H))
    i, f, o, g = gates.reshape(T, 4, H).transpose(1, 0, 2)
    c = np.zeros((T + 1, H))  # c[t] is the state step t starts from
    h = np.empty((T, H))
    h_prev = np.zeros(H)
    for t in range(T):
        a = gx[t] + wh @ h_prev
        expit(a[: 3 * H], out=gates[t, : 3 * H])
        np.tanh(a[3 * H :], out=gates[t, 3 * H :])
        c[t + 1] = f[t] * c[t] + i[t] * g[t]
        h[t] = o[t] * np.tanh(c[t + 1])
        h_prev = h[t]
    return h, (x, gates, c, h)


TAPE_FIELDS = ("inputs", "gates", "cell", "hidden")


class _NaNEmptyNumpy:
    """numpy, except that the arrays it leaves uninitialized come filled with NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=np.float64):
        return np.full(shape, np.nan, dtype)

    @staticmethod
    def empty_like(a):
        return np.full_like(a, np.nan)


@pytest.fixture
def nan_empty(monkeypatch):
    """Run wordctc.network with NaN in every buffer it allocates uninitialized,
    so an entry read before it is written shows."""
    monkeypatch.setattr(network, "np", _NaNEmptyNumpy())


def _close(got, want, rel=1e-12):
    return np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


class TestPackedLayout:
    def test_batch_sizes(self):
        np.testing.assert_array_equal(_batch_sizes([4, 2, 2, 1], 9), [4, 3, 1, 1])
        np.testing.assert_array_equal(_batch_sizes([3], 3), [1, 1, 1])
        with pytest.raises(ValueError, match="sum to 3, but there are 4 rows"):
            _batch_sizes([3], 4)

    @pytest.mark.parametrize("lengths", [[1, 3], [], [2, -1]])
    def test_batch_sizes_need_decreasing_counts(self, lengths):
        with pytest.raises(ValueError):
            _batch_sizes(lengths, sum(lengths))

    def test_pack_is_time_major_and_unpack_inverts_it(self):
        seqs = [np.arange(3) + 10, np.arange(2) + 20, np.arange(1) + 30]
        packed, lengths = pack(seqs)
        np.testing.assert_array_equal(packed, [10, 20, 30, 11, 21, 12])
        np.testing.assert_array_equal(lengths, [3, 2, 1])
        for got, want in zip(unpack(packed, lengths), seqs):
            np.testing.assert_array_equal(got, want)

    @given(st.lists(st.integers(min_value=2, max_value=30), min_size=1, max_size=8)
           .map(lambda lengths: sorted(lengths, reverse=True)))
    @example([9])
    @example([6, 6, 6])
    @example([3, 3, 2, 2])
    @settings(max_examples=100, deadline=None)
    def test_round_trip_and_halving(self, lengths):
        seqs = [np.arange(n) + 100 * k for k, n in enumerate(lengths)]
        packed, lens = pack(seqs)
        for got, want in zip(unpack(packed, lens), seqs):
            np.testing.assert_array_equal(got, want)
        halved = unpack(downsample(packed, lens), lens // 2)
        for got, seq in zip(halved, seqs):
            np.testing.assert_array_equal(got, downsample(seq))


class TestPackedLSTMForward:
    @pytest.mark.parametrize("T", [1, 2, 7, 400])
    def test_one_utterance_is_bit_identical_to_the_loop(self, monkeypatch, T):
        rng = np.random.default_rng(T)
        layer = LSTMLayer(LSTMLayer.random(5, 6, rng).w * 3.0, rng.normal(size=24))
        x = rng.normal(size=(T, 5))
        h, tape = lstm_forward(layer, x)
        want_h, want_tape = _reference_lstm_forward(layer, x)
        assert np.array_equal(h, want_h)
        for name, want in zip(TAPE_FIELDS, want_tape):
            assert np.array_equal(getattr(tape, name), want), name
        # one sequence as a batch keeps no tape, and with gate blocks of 5
        # rows its steps span several
        h1, tape1 = lstm_forward(layer, x, [T])
        assert tape1 is None
        assert np.array_equal(h1, want_h)
        monkeypatch.setattr(network, "MAX_BATCH_BYTES", 8 * 5 * 4 * 6 * 8)
        assert np.array_equal(lstm_forward(layer, x, [T])[0], want_h)

    @pytest.mark.parametrize("D", [13, 48])
    @pytest.mark.parametrize("T", [341, 342, 343, 683])
    def test_one_sequence_batch_past_one_gate_block(self, D, T):
        # at 48 units the default budget's gate block holds 341 rows; past
        # it, a block's input projection may round differently in the last
        # bits, and a block of one row goes through BLAS's vector path
        rng = np.random.default_rng(D + T)
        layer = LSTMLayer(LSTMLayer.random(D, 48, rng).w * 3.0, rng.normal(size=4 * 48))
        x = rng.normal(size=(T, D))
        assert network.MAX_BATCH_BYTES // 8 // (32 * 48) == 341
        want, _ = lstm_forward(layer, x)
        got, tape = lstm_forward(layer, x, [T])
        assert tape is None
        if T <= 341:
            assert np.array_equal(got, want)
        else:
            assert _close(got, want)

    @pytest.mark.parametrize("lengths, scale", [
        ([6, 6, 6], 1.0),               # equal lengths
        ([9, 4, 1, 1], 1.0),            # length-1 utterances
        ([120] + [3] * 12, 1.0),        # one long utterance, many short
        ([40, 33, 33, 17, 2], 10.0),    # weights x10: saturated gates
        ([41, 7, 3], 3.0),              # a long one-row tail after wider steps
        ([30, 30, 12, 4], 100.0),       # weights x100: |a| >> 40, saturated sigmoids
    ])
    def test_batch_matches_each_utterance(self, monkeypatch, lengths, scale):
        rng = np.random.default_rng(len(lengths))
        layer = LSTMLayer(LSTMLayer.random(5, 6, rng).w * scale, rng.normal(size=24))
        seqs = [rng.normal(scale=scale, size=(n, 5)) for n in lengths]
        packed, lens = pack(seqs)
        refs = [_reference_lstm_forward(layer, seq) for seq in seqs]
        # an overflow in the wide steps' halving of a or gate-major add
        # raises; steps of several rows take their sigmoids from tanh
        with np.errstate(all="raise"):
            # the default gate budget, then gate blocks of 4 rows of a 6-unit
            # layer (or of the first step's rows, when wider), so that wide
            # runs and the one-row tail split into several blocks of whole steps
            for budget in (network.MAX_BATCH_BYTES, 8 * 4 * 4 * 6 * 8):
                monkeypatch.setattr(network, "MAX_BATCH_BYTES", budget)
                h, tape = lstm_forward(layer, packed, lens)
                assert tape is None
                for got, (want, _) in zip(unpack(h, lens), refs):
                    assert _close(got, want)
        if scale == 100.0:
            # expit leaves sigmoid gates of about 1e-18 and less, which the
            # tanh form rounds to exactly 0
            sigmoids = np.concatenate([gates[:, : 3 * 6] for _, (_, gates, _, _) in refs])
            assert 0 < sigmoids[sigmoids > 0].min() < 1e-17

    @pytest.mark.parametrize("block_rows", [5, 16])
    @pytest.mark.parametrize("factor", [1, 2, 4, 8])
    def test_tapeless_rows_equal_the_taped_kernel(self, monkeypatch, factor, block_rows):
        # gate blocks of block_rows rows of a 6-unit layer, so every layer's
        # runs fall in several blocks, against the default budget, whose
        # blocks are the runs of one width, each projected in one product; 5
        # rows is narrower than the first step
        net = Network.random(4, [6] * 3, VOCAB, "word-ctc",
                             downsample=downsample_schedule(factor, 3), seed=factor)
        rng = np.random.default_rng(factor)
        # odd lengths, and the longest runs alone for its last steps
        lengths = [53, 37, 31, 31, 19, 9]
        h, lens = pack([rng.normal(size=(n, 4)) for n in lengths])
        for layer, halvings in zip(net.layers, net.downsample):
            for _ in range(halvings):
                h = downsample(h, lens)
                lens = lens // 2
            assert block_rows < len(h) <= network.MAX_BATCH_BYTES // 8 // (32 * 6)
            assert lens[0] > lens[1]
            one_block, _ = lstm_forward(layer, h, lens)
            with monkeypatch.context() as m:
                m.setattr(network, "MAX_BATCH_BYTES", 8 * block_rows * 4 * 6 * 8)
                blocks, tape = lstm_forward(layer, h, lens)
            assert tape is None
            np.testing.assert_array_equal(blocks, one_block)
            h = one_block

    # lengths that do not describe three rows in decreasing order
    @pytest.mark.parametrize("sizes", [[2, 2], [1, 2], [2, 0, 1], [4], [4, -1]])
    def test_bad_batch_sizes(self, sizes):
        layer = LSTMLayer.random(2, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            lstm_forward(layer, np.zeros((3, 2)), sizes)


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


def _reference_lstm_backward(layer, tape, d_hidden):
    """Backpropagation through time one gate expression at a time per step:
    the oracle for lstm_backward, which hoists the gate factors out of the
    loop.  Each product groups its step-local factors as the kernel's
    hoisted ones do, and the recurrent product runs on the same contiguous
    weights, so the two agree bit for bit."""
    T = tape.inputs.shape[0]
    H = layer.hidden_dim
    D = layer.input_dim
    wh = np.ascontiguousarray(layer.w[:, D:])
    i, f, o, g = tape.gates.reshape(T, 4, H).transpose(1, 0, 2)
    d_act = np.empty((T, 4 * H))
    dh_rec = np.zeros(H)
    dc_rec = np.zeros(H)
    for t in range(T - 1, -1, -1):
        dh = d_hidden[t] + dh_rec
        tc = np.tanh(tape.cell[t + 1])
        dc = dh * (o[t] * (1.0 - tc**2)) + dc_rec
        d_act[t, :H] = dc * (g[t] * i[t] * (1.0 - i[t]))
        d_act[t, H : 2 * H] = dc * (tape.cell[t] * f[t] * (1.0 - f[t]))
        d_act[t, 2 * H : 3 * H] = dh * (o[t] * (1.0 - o[t]) * tc)
        d_act[t, 3 * H :] = dc * (i[t] * (1.0 - g[t] ** 2))
        dc_rec = dc * f[t]
        dh_rec = d_act[t] @ wh
    h_prev = np.vstack([np.zeros((1, H)), tape.hidden])[:-1]
    z = np.hstack([tape.inputs, h_prev])
    dw = d_act.T @ z
    d_inputs = d_act @ layer.w[:, :D]
    return d_inputs, [*np.split(dw, 4), *np.split(d_act.sum(axis=0), 4)]


def _backward(layer, tape, d_hidden):
    """lstm_backward into a NaN-filled gradient layer: the input gradient,
    then the per-gate weight and bias gradients it wrote."""
    grad = LSTMLayer(np.full_like(layer.w, np.nan), np.full_like(layer.b, np.nan))
    return lstm_backward(layer, tape, d_hidden, grad), grad.params()


class TestLSTMBackward:
    def test_zero_output_grads(self):
        rng = np.random.default_rng(2)
        layer = LSTMLayer.random(3, 4, rng)
        _, tape = lstm_forward(layer, rng.normal(size=(5, 3)))
        d_in, grads = _backward(layer, tape, np.zeros((5, 4)))
        np.testing.assert_array_equal(d_in, np.zeros((5, 3)))
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_finite_differences_single_layer(self):
        # T = 1 is the step whose previous cell state is the zero initial one
        for T in (3, 1):
            rng = np.random.default_rng(3)
            layer = LSTMLayer.random(2, 4, rng)
            x = rng.normal(size=(T, 2))
            target = rng.normal(size=(T, 4))

            def loss():
                out, _ = lstm_forward(layer, x)
                return 0.5 * float(np.sum((out - target) ** 2))

            out, tape = lstm_forward(layer, x)
            d_in, grads = _backward(layer, tape, out - target)
            for p, g in zip(layer.params(), grads):
                assert fd_check(p, g, loss) < 1e-4
            # input gradients too
            assert fd_check(x, d_in, loss) < 1e-4

    @pytest.mark.parametrize("T", [1, 2, 7, 400])
    def test_matches_per_step_reference(self, T):
        rng = np.random.default_rng(T)
        D, H = 5, 6
        # weights and inputs scaled x10 so that many gates saturate
        layer = LSTMLayer(LSTMLayer.random(D, H, rng).w * 10.0, rng.normal(size=4 * H))
        _, tape = lstm_forward(layer, rng.normal(scale=10.0, size=(T, D)))
        sigmoid_gates = tape.gates[:, : 3 * H]
        assert np.mean(sigmoid_gates * (1.0 - sigmoid_gates) < 0.01) > 0.2
        d_hidden = rng.normal(size=(T, H))
        d_in, grads = _backward(layer, tape, d_hidden)
        want_in, want_grads = _reference_lstm_backward(layer, tape, d_hidden)
        for got, want in zip([d_in, *grads], [want_in, *want_grads]):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        again_in, again_grads = _backward(layer, tape, d_hidden)
        for got, again in zip([d_in, *grads], [again_in, *again_grads]):
            assert np.array_equal(got, again)

    @pytest.mark.parametrize("D, H, T", [(5, 6, 0), (5, 6, 1), (5, 6, 7), (13, 48, 160), (2, 1, 40)])
    def test_fills_a_nan_gradient_layer_as_the_reference(self, D, H, T):
        rng = np.random.default_rng(D * H + T)
        layer = LSTMLayer(LSTMLayer.random(D, H, rng).w * 3.0, rng.normal(size=4 * H))
        _, tape = lstm_forward(layer, rng.normal(size=(T, D)))
        d_hidden = rng.normal(size=(T, H))
        d_in, grads = _backward(layer, tape, d_hidden)
        want_in, want_grads = _reference_lstm_backward(layer, tape, d_hidden)
        assert d_in.shape == (T, D) and len(grads) == len(want_grads) == 8
        for got, want in zip([d_in, *grads], [want_in, *want_grads]):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("T", [2, 7, 160])
    def test_carried_gradients_match_per_step_reference(self, T):
        # a gradient at the last frame only reaches the earlier frames through
        # the carried hidden and cell gradients, the cell one written by the
        # fifth factor row
        rng = np.random.default_rng(T + 1)
        D, H = 5, 6
        layer = LSTMLayer(LSTMLayer.random(D, H, rng).w * 3.0, rng.normal(size=4 * H))
        _, tape = lstm_forward(layer, rng.normal(size=(T, D)))
        d_hidden = np.zeros((T, H))
        d_hidden[-1] = rng.normal(size=H)
        d_in, grads = _backward(layer, tape, d_hidden)
        want_in, want_grads = _reference_lstm_backward(layer, tape, d_hidden)
        assert np.all(np.abs(d_in[0]) > 0)
        for got, want in zip([d_in, *grads], [want_in, *want_grads]):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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

    @pytest.mark.parametrize("factor", [1, 2, 4, 8])
    def test_batch_matches_each_utterance(self, factor):
        net = Network.random(4, [6] * 3, VOCAB, "word-ctc",
                             downsample=downsample_schedule(factor, 3), seed=factor)
        rng = np.random.default_rng(factor)
        lengths = [37, 31, 31, 19, 9, 8]  # odd lengths, and 8 is the shortest at factor 8
        seqs = [rng.normal(size=(n, 4)) for n in lengths]
        lattice, tape = network_forward(net, *pack(seqs))
        assert tape is None
        for got, seq in zip(unpack(lattice, np.array(lengths) // factor), seqs):
            want, _ = network_forward(net, seq)
            assert got.shape == want.shape
            assert _close(got, want)

    def test_batch_keeps_no_layer_tapes(self):
        rng = np.random.default_rng(8)
        net = tiny_net()
        seqs = [rng.normal(size=(9, 4)), rng.normal(size=(6, 4))]
        lattice, tape = network_forward(net, *pack(seqs))
        assert tape is None
        assert len(lattice) == 9 // 2 + 6 // 2

    def test_one_utterance_keeps_every_layer_tape(self):
        rng = np.random.default_rng(9)
        net = tiny_net(downsample=(1, 1))
        x = rng.normal(size=(13, 4))
        _, tape = network_forward(net, x)
        assert len(tape.layer_tapes) == len(net.layers)
        h = x
        for layer, halvings, got in zip(net.layers, net.downsample, tape.layer_tapes):
            for _ in range(halvings):
                h = downsample(h)
            h, want = lstm_forward(layer, h)
            for name in TAPE_FIELDS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_batch_lengths_checked(self):
        net = tiny_net(downsample=(0, 1))
        with pytest.raises(ValueError):
            network_forward(net, np.zeros((9, 4)), [5, 5])
        with pytest.raises(SequenceTooShortError):
            network_forward(net, np.zeros((9, 4)), [8, 1])
        with pytest.raises(SequenceTooShortError):
            network_forward(net, np.zeros((9, 4)), [9, 0])


class TestForwardBatches:
    def test_budget_counts_the_widest_layer(self, monkeypatch):
        net = Network.random(4, [6] * 3, VOCAB, "word-ctc",
                             downsample=downsample_schedule(4, 3), seed=3)
        rng = np.random.default_rng(10)
        feats = [rng.normal(size=(40, 4)) for _ in range(5)]
        want = [network_forward(net, f)[0] for f in feats]
        # each utterance's layers hold (4 + 6) * 40, (6 + 6) * 20 and
        # (6 + 6) * 10 floats of input and hidden rows, and its 4 * 40
        # features are held twice, packed and as network_forward's copy
        charge = ((4 + 6) * 40 + 2 * 4 * 40) * 8
        # the widest layer's gates and cell rows are not charged
        taped = (4 + 6 * 6) * 40 * 8
        calls = []
        real = network.network_forward

        def spy(net, features, lengths=None):
            calls.append(list(lengths))
            return real(net, features, lengths)

        monkeypatch.setattr(network, "network_forward", spy)
        monkeypatch.setattr(network, "MAX_BATCH_BYTES", 5 * charge)
        assert 5 * taped > network.MAX_BATCH_BYTES
        got = dict(forward_batches(net, feats))
        assert calls == [[40] * 5]
        for i in range(len(feats)):
            assert _close(got[i], want[i])
        # a byte less and the last utterance runs on its own
        calls.clear()
        monkeypatch.setattr(network, "MAX_BATCH_BYTES", 5 * charge - 1)
        assert sorted(dict(forward_batches(net, feats))) == list(range(5))
        assert calls == [[40] * 4, [40]]

    def test_lone_utterance_over_the_budget_keeps_no_tape(self, monkeypatch):
        net = Network.random(4, [6] * 3, VOCAB, "word-ctc",
                             downsample=downsample_schedule(4, 3), seed=3)
        x = np.random.default_rng(11).normal(size=(40, 4))
        want = network_forward(net, x)[0]
        keeps = []
        real = network.lstm_forward

        def spy(layer, inputs, lengths=None):
            h, tape = real(layer, inputs, lengths)
            keeps.append(tape is not None)
            return h, tape

        monkeypatch.setattr(network, "lstm_forward", spy)
        # the utterance's features alone are 2 * 40 * 4 * 8 bytes
        monkeypatch.setattr(network, "MAX_BATCH_BYTES", 1000)
        [(index, got)] = forward_batches(net, [x])
        assert index == 0 and keeps == [False] * 3
        assert _close(got, want)


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

    def test_two_halvings_in_front_of_one_layer(self):
        # `train --downsample 16 --layers 3` halves twice before its bottom
        # layer; 19 frames keep rows 0, 4, 8 and 12 for it, then 2 lattice rows
        rng = np.random.default_rng(12)
        net = tiny_net(seed=13, downsample=(2, 1), hidden=5)
        x = rng.normal(size=(19, 4))
        y = (1,)

        def loss():
            lattice, _ = network_forward(net, x)
            return ctc_loss_and_gradient(lattice, y)[0]

        lattice, tape = network_forward(net, x)
        assert lattice.shape[0] == 2
        _, d_logits = ctc_loss_and_gradient(lattice, y)
        grads, d_x = network_backward(net, tape, d_logits)
        for p, g in zip(net.params(), grads.arrays()):
            assert fd_check(p, g, loss) < 1e-4
        assert fd_check(x, d_x, loss) < 1e-4
        np.testing.assert_array_equal(np.delete(d_x, [0, 4, 8, 12], axis=0), 0.0)
        # the second halving drops the bottom layer's last output, so only
        # frames 0, 4 and 8 reach the lattice
        assert np.any(d_x[0]) and np.any(d_x[4]) and np.any(d_x[8])

    def test_gradient_is_views_of_one_vector_laid_out_like_the_network(self, nan_empty,
                                                                      monkeypatch):
        written = []
        real = network.lstm_backward

        def spy(layer, tape, d_hidden, *grad):
            written.append(grad)
            return real(layer, tape, d_hidden, *grad)

        monkeypatch.setattr(network, "lstm_backward", spy)
        rng = np.random.default_rng(14)
        net = tiny_net(seed=14, downsample=(1, 0))
        lattice, tape = network_forward(net, rng.normal(size=(9, 4)))
        _, d_logits = ctc_loss_and_gradient(lattice, (0, 1))
        grads, _ = network_backward(net, tape, d_logits)
        assert grads.flat.shape == net.flat.shape and np.isfinite(grads.flat).all()
        assert not np.shares_memory(grads.flat, net.flat)

        def offset(a, base):
            return a.__array_interface__["data"][0] - base.__array_interface__["data"][0]

        for p, g in zip(net.params(), grads.arrays(), strict=True):
            assert g.shape == p.shape and g.strides == p.strides
            assert np.shares_memory(g, grads.flat) and offset(g, grads.flat) == offset(p, net.flat)
        # each layer's backward pass wrote into that layer's views, top first
        assert len(written) == 2
        assert all(got is want for (got,), want in zip(written, grads.layers[::-1]))

    def test_stale_tape_rejected(self):
        rng = np.random.default_rng(7)
        net = tiny_net()
        x = rng.normal(size=(6, 4))
        lattice, tape = network_forward(net, x)
        _, d_logits = ctc_loss_and_gradient(lattice, (0,))
        grads, _ = network_backward(net, tape, d_logits)
        sgd_update(net, grads.flat, 0.1)
        with pytest.raises(StaleTapeError):
            network_backward(net, tape, d_logits)


class TestFlatParameters:
    def test_views_write_through_to_flat(self):
        net = tiny_net(seed=3)
        assert all(np.shares_memory(p, net.flat) for p in net.params())
        net.layers[0].w_i[0, 0] = 7.0
        net.w_out[-1, -1] = -7.0
        assert net.flat[0] == 7.0
        assert net.flat[-net.b_out.size - 1] == -7.0

    def test_constructor_wraps_the_given_vector(self):
        flat = tiny_net(seed=3).flat.copy()
        net = Network(flat, 4, [8, 8], (0, 1), VOCAB, "word-ctc")
        assert net.flat is flat
        assert all(np.shares_memory(p, flat) for p in net.params())
        flat[0], flat[-1] = 7.0, -7.0
        assert net.layers[0].w[0, 0] == 7.0 and net.b_out[-1] == -7.0

    @pytest.mark.parametrize("bad", [
        lambda v: v[:-1], lambda v: np.append(v, 0.0), lambda v: v.reshape(1, -1),
        lambda v: v.astype(np.float32), lambda v: v.tolist(),
    ], ids=["short", "long", "2-d", "float32", "list"])
    def test_constructor_refuses_a_bad_vector_before_any_view(self, monkeypatch, bad):
        flat = bad(tiny_net().flat.copy())
        monkeypatch.setattr(network, "_views", lambda *args: pytest.fail("a view was made"))
        with pytest.raises(ValueError, match="float64 vector of"):
            Network(flat, 4, [8, 8], (0, 1), VOCAB, "word-ctc")

    def test_copies_share_no_memory(self):
        src, dst = tiny_net(seed=1), tiny_net(seed=2)
        copy = dst.copy()
        moved = transfer_bottom_layers(src, dst, 1)
        np.testing.assert_array_equal(copy.flat, dst.flat)
        for out, inputs in ((copy, [dst]), (moved, [src, dst])):
            assert all(np.shares_memory(p, out.flat) for p in out.params())
            assert not any(np.shares_memory(out.flat, net.flat) for net in inputs)

    def test_checkpoint_payload_is_flat(self, tmp_path):
        net = tiny_net(seed=4)
        net.flat += np.random.default_rng(4).normal(size=net.flat.size)
        path = tmp_path / "model.net"
        save_network(net, path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 8)
        assert blob[12 + header_len :] == net.flat.astype("<f8").tobytes()
        assert load_network(path).flat.tobytes() == net.flat.tobytes()

    def test_update_shape_checked(self):
        net = tiny_net()
        with pytest.raises(ValueError, match="shape"):
            sgd_update(net, np.zeros(net.flat.size - 1), 0.1)
        assert net.version == 0

    def test_gradients_bit_identical_and_flat_norm_within_tolerance(self, monkeypatch):
        # the per-array gradients are the ones lstm_backward wrote; the norm
        # of the one flat vector sums in another order than the per-array sum
        recorded = []
        real = network.lstm_backward

        def spy(layer, tape, d_hidden, grad):
            d_inputs = real(layer, tape, d_hidden, grad)
            recorded[:0] = [g.copy() for g in grad.params()]  # top layer first, as the network goes
            return d_inputs

        monkeypatch.setattr(network, "lstm_backward", spy)
        rng = np.random.default_rng(17)
        worst = 0.0
        for seed in range(30):
            net = Network.random(4, [16] * 3, VOCAB, "word-ctc", downsample=(0, 1, 1), seed=seed)
            x = rng.normal(size=(int(rng.integers(16, 60)), 4))
            target = tuple(int(k) for k in rng.integers(3, size=int(rng.integers(1, 3))))
            lattice, tape = network_forward(net, x)
            _, d_logits = ctc_loss_and_gradient(lattice, target)
            recorded.clear()
            grads, _ = network_backward(net, tape, d_logits)
            top = tape.layer_tapes[-1].hidden
            want = recorded + [d_logits.T @ top, d_logits.sum(axis=0)]
            assert len(grads.arrays()) == len(want) == len(net.params())
            for got, w in zip(grads.arrays(), want):
                np.testing.assert_array_equal(got, w)
            per_array = global_norm(grads.arrays())
            worst = max(worst, abs(global_norm([grads.flat]) - per_array) / per_array)
        assert worst <= 1e-14


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

    @pytest.mark.parametrize("input_dim, hidden, downsample", [
        (4, [6.7], None), (4, [6.0], None), (4, [True], None), (4.0, [6], None),
        (4, [6], (1.0,)), (4, [6], ("1",)), (4, [6], (True,)),
    ], ids=["float-hidden", "whole-float-hidden", "bool-hidden", "float-input",
            "float-downsample", "str-downsample", "bool-downsample"])
    def test_structural_integers_not_coerced(self, input_dim, hidden, downsample):
        with pytest.raises(ValueError, match="integers"):
            Network.random(input_dim, hidden, VOCAB, "word-ctc", downsample=downsample)

    @pytest.mark.parametrize("mode, reserved, fixed", [
        ("frame-classifier", "<blk>", "SIL"), ("word-ctc", "SIL", "<blk>"),
        ("phoneme-ctc", "SIL", "<blk>"),
    ], ids=["blank-classifier", "sil-ctc", "sil-phoneme-ctc"])
    def test_reserved_symbol_fixed_by_mode(self, mode, reserved, fixed):
        vocab = Vocabulary(("a", "b"), reserved)
        with pytest.raises(ValueError) as info:
            Network.random(3, [4], vocab, mode)
        assert str(info.value) == "mode %r reserves %r, not %r" % (mode, fixed, reserved)

    def test_forget_bias_one(self):
        net = tiny_net()
        for layer in net.layers:
            np.testing.assert_array_equal(layer.b_f, 1.0)
            np.testing.assert_array_equal(layer.b_i, 0.0)

    @pytest.mark.parametrize("input_dim, hidden", [(4, [6]), (3, [5, 7]), (6, [6, 6, 6])],
                             ids=["one-layer", "input-not-hidden", "three-layers"])
    def test_draws_follow_the_layout(self, input_dim, hidden):
        # one stream: each layer's (4H, D+H) weights, bottom layer first, then
        # the softmax weights; every bias 0 except the forget rows, which are 1
        rng = np.random.default_rng(17)
        expected = []
        d = input_dim
        for h in hidden:
            b = np.zeros(4 * h)
            b[h : 2 * h] = 1.0
            expected += [rng.uniform(-0.05, 0.05, size=(4 * h, d + h)).ravel(), b]
            d = h
        expected += [rng.uniform(-0.05, 0.05, size=(VOCAB.size, d)).ravel(), np.zeros(VOCAB.size)]
        net = Network.random(input_dim, hidden, VOCAB, "word-ctc", seed=17)
        assert np.array_equal(net.flat, np.concatenate(expected))


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

    def test_golden_checkpoint_bytes(self, tmp_path):
        # pins the initialization draw order and the on-disk parameter layout
        net = Network.random(4, [6, 5], VOCAB, "word-ctc", downsample=(1, 1), seed=3)
        path = tmp_path / "golden.net"
        save_network(net, path)
        blob = path.read_bytes()
        assert len(blob) == 4364
        assert hashlib.sha256(blob).hexdigest() == (
            "4e3cbbbfa57172c10aa1be14854cccedb22f5324e2235a218ddd333471509226"
        )
        save_network(load_network(path), tmp_path / "again.net")
        assert (tmp_path / "again.net").read_bytes() == blob

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
