"""Unidirectional LSTM stack with inter-layer frame down-sampling.

Forward passes record a tape so the exact gradient can be backpropagated
through time; frames dropped by down-sampling receive zero gradient.  All
parameters are float64 numpy arrays, and checkpoints round-trip bit for bit
through the single-file format at the bottom of this module.
"""

import json
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .ctc import Vocabulary
from .data import DataFormatError
from .numerics import log_softmax

INIT_SCALE = 0.05
MODES = ("word-ctc", "phoneme-ctc", "frame-classifier")

MAGIC = b"WNET"
FORMAT_VERSION = 1


class StaleTapeError(RuntimeError):
    """Tape no longer matches the network's parameters."""


class SequenceTooShortError(ValueError):
    """Input has too few frames for the configured down-sampling."""


class NetworkFormatError(DataFormatError):
    """Malformed network checkpoint file."""


def downsample(seq):
    """Keep the 1st, 3rd, 5th, ... frames; the output has exactly T // 2 of them.

    For odd T the final frame is dropped entirely.  Sequences of length 0 or
    1 cannot be halved and raise SequenceTooShortError.
    """
    seq = np.asarray(seq)
    n = seq.shape[0]
    if n <= 1:
        raise SequenceTooShortError("cannot halve a %d-frame sequence" % n)
    return seq[0 : 2 * (n // 2) : 2]


def downsample_schedule(factor, n_layers):
    """Per-layer halving counts realizing a total rate reduction `factor`.

    Halvings fill the slots after the earlier LSTM layers first; whatever
    does not fit between layers stacks up in front of the first layer.
    """
    if n_layers < 1:
        raise ValueError("need at least one layer")
    if factor < 1 or factor & (factor - 1):
        raise ValueError("down-sampling factor must be a power of two, got %r" % (factor,))
    m = factor.bit_length() - 1
    counts = [0] * n_layers
    inter = min(m, n_layers - 1)
    for i in range(1, inter + 1):
        counts[i] = 1
    counts[0] = m - inter
    return tuple(counts)


def _per_gate(w, b):
    """Views of stacked (4H, .) weights and (4H,) bias, one per gate and in
    checkpoint order: w_i, w_f, w_o, w_g, b_i, b_f, b_o, b_g."""
    return [*np.split(w, 4), *np.split(b, 4)]


class LSTMLayer:
    """One LSTM layer, no peepholes.

    `w` is (4 * hidden, input + hidden) and `b` is (4 * hidden,): the gates
    are stacked in the order input, forget, output, cell candidate, and each
    gate's input columns come before its recurrent ones.  `w_i` ... `b_g` are
    read-only views of the gate blocks.
    """

    def __init__(self, w, b):
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.w.ndim != 2 or self.w.shape[0] % 4 or self.w.shape[1] <= self.w.shape[0] // 4:
            raise ValueError("weights must be (4 * hidden, input + hidden)")
        h = self.w.shape[0] // 4
        if self.b.shape != (4 * h,):
            raise ValueError("bias must be (4 * hidden,)")
        self.hidden_dim = h
        self.input_dim = self.w.shape[1] - h

    w_i, w_f, w_o, w_g, b_i, b_f, b_o, b_g = (
        property(lambda self, k=k: self.params()[k]) for k in range(8)
    )

    @classmethod
    def random(cls, input_dim, hidden_dim, rng):
        """Weights uniform in +/-0.05; forget bias 1, the other biases 0."""
        w = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(4 * hidden_dim, input_dim + hidden_dim))
        b = np.zeros(4 * hidden_dim)
        b[hidden_dim : 2 * hidden_dim] = 1.0
        return cls(w, b)

    def params(self):
        """The per-gate views of `w` and `b`, in checkpoint order."""
        return _per_gate(self.w, self.b)

    def copy(self):
        return LSTMLayer(self.w.copy(), self.b.copy())


@dataclass
class LayerTape:
    inputs: np.ndarray
    gates: np.ndarray  # (T, 4 * hidden) activations, stacked like the weights
    cell: np.ndarray
    tanh_cell: np.ndarray
    hidden: np.ndarray


def lstm_forward(layer, inputs):
    """Run the recurrence over a (T, input_dim) sequence from zero initial state."""
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layer.input_dim:
        raise ValueError("expected (T, %d) inputs, got %r" % (layer.input_dim, x.shape))
    T = x.shape[0]
    H = layer.hidden_dim
    D = layer.input_dim
    wh = layer.w[:, D:]
    gx = x @ layer.w[:, :D].T + layer.b
    gates = np.empty((T, 4 * H))
    i, f, o, g = gates.reshape(T, 4, H).transpose(1, 0, 2)
    c = np.empty((T, H))
    tc = np.empty((T, H))
    h = np.empty((T, H))
    h_prev = np.zeros(H)
    c_prev = np.zeros(H)
    for t in range(T):
        a = gx[t] + wh @ h_prev
        expit(a[: 3 * H], out=gates[t, : 3 * H])
        np.tanh(a[3 * H :], out=gates[t, 3 * H :])
        c[t] = f[t] * c_prev + i[t] * g[t]
        tc[t] = np.tanh(c[t])
        h[t] = o[t] * tc[t]
        h_prev = h[t]
        c_prev = c[t]
    return h, LayerTape(x, gates, c, tc, h)


def lstm_backward(layer, tape, d_hidden):
    """Backpropagation through time for one layer.

    d_hidden is the (T, hidden) gradient arriving at the layer's outputs;
    returns (d_inputs, grads) where grads are the per-gate views of the
    stacked weight and bias gradients, in the order of `layer.params()`.
    """
    d_hidden = np.asarray(d_hidden, dtype=np.float64)
    T = tape.inputs.shape[0]
    H = layer.hidden_dim
    D = layer.input_dim
    if d_hidden.shape != (T, H):
        raise ValueError("expected (%d, %d) output grads, got %r" % (T, H, d_hidden.shape))
    wh = layer.w[:, D:]
    i, f, o, g = tape.gates.reshape(T, 4, H).transpose(1, 0, 2)
    d_act = np.empty((T, 4 * H))
    dh_rec = np.zeros(H)
    dc_rec = np.zeros(H)
    for t in range(T - 1, -1, -1):
        dh = d_hidden[t] + dh_rec
        do = dh * tape.tanh_cell[t]
        dc = dh * o[t] * (1.0 - tape.tanh_cell[t] ** 2) + dc_rec
        c_prev = tape.cell[t - 1] if t > 0 else 0.0
        d_act[t, :H] = dc * g[t] * i[t] * (1.0 - i[t])
        d_act[t, H : 2 * H] = dc * c_prev * f[t] * (1.0 - f[t])
        d_act[t, 2 * H : 3 * H] = do * o[t] * (1.0 - o[t])
        d_act[t, 3 * H :] = dc * i[t] * (1.0 - g[t] ** 2)
        dc_rec = dc * f[t]
        dh_rec = d_act[t] @ wh
    h_prev = np.vstack([np.zeros((1, H)), tape.hidden[:-1]])
    z = np.hstack([tape.inputs, h_prev])
    dw = d_act.T @ z
    db = d_act.sum(axis=0)
    d_inputs = d_act @ layer.w[:, :D]
    return d_inputs, _per_gate(dw, db)


class Network:
    """LSTM stack with a softmax head.  downsample[i] halvings run before layer i."""

    def __init__(self, layers, downsample, w_out, b_out, vocab, mode):
        if mode not in MODES:
            raise ValueError("mode must be one of %r" % (MODES,))
        layers = list(layers)
        if not layers:
            raise ValueError("need at least one LSTM layer")
        downsample = tuple(int(c) for c in downsample)
        if len(downsample) != len(layers) or any(c < 0 for c in downsample):
            raise ValueError("down-sampling counts must be one nonnegative int per layer")
        if mode == "frame-classifier" and any(downsample):
            raise ValueError("frame classification requires down-sampling factor 1")
        for lo, hi in zip(layers, layers[1:]):
            if hi.input_dim != lo.hidden_dim:
                raise ValueError("layer dimensions do not chain")
        w_out = np.asarray(w_out, dtype=np.float64)
        b_out = np.asarray(b_out, dtype=np.float64)
        if w_out.shape != (vocab.size, layers[-1].hidden_dim):
            raise ValueError("output weights must be (%d, %d)" % (vocab.size, layers[-1].hidden_dim))
        if b_out.shape != (vocab.size,):
            raise ValueError("output bias must be (%d,)" % vocab.size)
        self.layers = layers
        self.downsample = downsample
        self.w_out = w_out
        self.b_out = b_out
        self.vocab = vocab
        self.mode = mode
        self.version = 0

    @property
    def lookahead(self):
        """Frames an output lags its label, fixed by the mode: output t of the
        frame classifier predicts frame t - 1; the CTC modes have none."""
        return 1 if self.mode == "frame-classifier" else 0

    @property
    def input_dim(self):
        return self.layers[0].input_dim

    @property
    def hidden_dims(self):
        return tuple(l.hidden_dim for l in self.layers)

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        out.append(self.w_out)
        out.append(self.b_out)
        return out

    def copy(self):
        return Network(
            [l.copy() for l in self.layers],
            self.downsample,
            self.w_out.copy(),
            self.b_out.copy(),
            self.vocab,
            self.mode,
        )

    @classmethod
    def random(cls, input_dim, hidden_dims, vocab, mode, downsample=None, seed=0):
        """Fresh network with uniform(-0.05, 0.05) weights.

        All weights come from one PCG64 stream seeded with `seed`, drawn in
        layer order (one stacked (4H, D+H) block per layer) and the softmax
        weights last, so equal seeds give bit-identical parameters.
        """
        rng = np.random.default_rng(seed)
        hidden_dims = [int(h) for h in hidden_dims]
        if downsample is None:
            downsample = (0,) * len(hidden_dims)
        layers = []
        d = input_dim
        for h in hidden_dims:
            layers.append(LSTMLayer.random(d, h, rng))
            d = h
        w_out = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(vocab.size, d))
        b_out = np.zeros(vocab.size)
        return cls(layers, downsample, w_out, b_out, vocab, mode)


@dataclass
class ForwardTape:
    layer_tapes: list
    pre_lengths: list
    top_hidden: np.ndarray
    version: int


@dataclass
class NetworkGradients:
    layers: list
    w_out: np.ndarray
    b_out: np.ndarray

    def arrays(self):
        out = []
        for g in self.layers:
            out.extend(g)
        out.append(self.w_out)
        out.append(self.b_out)
        return out


def network_forward(net, features):
    """Per-frame log-probabilities over the output labels, plus the tape.

    The lattice has floor(T / 2**m) rows under m total halvings; every row
    exponentiates to a distribution.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError("expected (T, %d) features, got %r" % (net.input_dim, x.shape))
    if x.shape[0] == 0:
        raise SequenceTooShortError("empty feature sequence")
    tapes = []
    pre_lengths = []
    h = x
    for layer, halvings in zip(net.layers, net.downsample):
        lens = []
        for _ in range(halvings):
            lens.append(h.shape[0])
            h = downsample(h)
        h, tape = lstm_forward(layer, h)
        tapes.append(tape)
        pre_lengths.append(lens)
    logits = h @ net.w_out.T + net.b_out
    lattice = log_softmax(logits)
    return lattice, ForwardTape(tapes, pre_lengths, h, net.version)


def network_backward(net, tape, d_logits):
    """Parameter and input gradients from logit-space output gradients.

    Frames dropped by down-sampling get exact zeros in the returned input
    gradient.  Raises StaleTapeError when the network was updated after the
    forward pass that produced the tape.
    """
    if tape.version != net.version:
        raise StaleTapeError("tape is stale; the network was updated after the forward pass")
    d_logits = np.asarray(d_logits, dtype=np.float64)
    expected = (tape.top_hidden.shape[0], net.vocab.size)
    if d_logits.shape != expected:
        raise ValueError("expected %r output grads, got %r" % (expected, d_logits.shape))
    d_w_out = d_logits.T @ tape.top_hidden
    d_b_out = d_logits.sum(axis=0)
    dh = d_logits @ net.w_out
    layer_grads = [None] * len(net.layers)
    for idx in range(len(net.layers) - 1, -1, -1):
        d_in, grads = lstm_backward(net.layers[idx], tape.layer_tapes[idx], dh)
        layer_grads[idx] = grads
        for src_len in reversed(tape.pre_lengths[idx]):
            wide = np.zeros((src_len, d_in.shape[1]))
            wide[0 : 2 * (src_len // 2) : 2] = d_in
            d_in = wide
        dh = d_in
    return NetworkGradients(layer_grads, d_w_out, d_b_out), dh


def sgd_update(net, grad_arrays, lr):
    """In-place SGD step over params in declaration order; invalidates tapes."""
    params = net.params()
    grad_arrays = list(grad_arrays)
    if len(grad_arrays) != len(params):
        raise ValueError("expected %d gradient arrays, got %d" % (len(params), len(grad_arrays)))
    for p, g in zip(params, grad_arrays):
        p -= lr * g
    net.version += 1


def transfer_bottom_layers(src, dst, k):
    """Copy of dst whose bottom k LSTM layers are replaced by src's.

    dst's remaining layers and its softmax head keep their own (fresh)
    initialization.  Shapes of the copied layers must agree, and k must
    leave at least one destination layer untouched.
    """
    if not 0 <= k < len(dst.layers):
        raise ValueError("k must be in [0, %d), got %d" % (len(dst.layers), k))
    if k > len(src.layers):
        raise ValueError("source has only %d layers" % len(src.layers))
    for i in range(k):
        if src.layers[i].w.shape != dst.layers[i].w.shape:
            raise ValueError(
                "layer %d shape mismatch: %r vs %r"
                % (i, src.layers[i].w.shape, dst.layers[i].w.shape)
            )
    out = dst.copy()
    out.layers[:k] = [src.layers[i].copy() for i in range(k)]
    return out


def save_network(net, path):
    """Single-file checkpoint.

    Layout: magic "WNET", u32 format version, u32 header length, a JSON
    structure header (mode, lookahead, dims, down-sampling counts, labels),
    then every parameter as raw little-endian float64, row-major: per layer
    the (4H, D+H) weights `w` (gates i, f, o, g, each with its input columns
    first) and the (4H,) bias `b`, then the softmax weights and bias.
    Round-trips are bit-exact.  load_network rejects a header whose
    lookahead is not the one its mode fixes.
    """
    header = {
        "mode": net.mode,
        "lookahead": net.lookahead,
        "input_dim": net.input_dim,
        "hidden_dims": list(net.hidden_dims),
        "downsample": list(net.downsample),
        "labels": list(net.vocab.labels),
        "reserved": net.vocab.reserved,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for p in net.params():
            fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


def load_network(path):
    """Read a checkpoint written by save_network."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != MAGIC:
        raise NetworkFormatError("%s: not a network checkpoint" % path)
    version, header_len = struct.unpack_from("<II", data, 4)
    if version != FORMAT_VERSION:
        raise NetworkFormatError("%s: unsupported format version %d" % (path, version))
    if len(data) < 12 + header_len:
        raise NetworkFormatError("%s: header truncated at byte %d" % (path, len(data)))
    try:
        header = json.loads(data[12 : 12 + header_len].decode("utf-8"))
        vocab = Vocabulary(tuple(header["labels"]), header["reserved"])
        hidden_dims = [int(h) for h in header["hidden_dims"]]
        input_dim = int(header["input_dim"])
        layers = []
        d = input_dim
        for h in hidden_dims:
            layers.append(LSTMLayer(np.zeros((4 * h, d + h)), np.zeros(4 * h)))
            d = h
        net = Network(
            layers,
            header["downsample"],
            np.zeros((vocab.size, d)),
            np.zeros(vocab.size),
            vocab,
            header["mode"],
        )
        if header["lookahead"] != net.lookahead:
            raise ValueError("lookahead %r does not fit mode %r" % (header["lookahead"], net.mode))
    except KeyError as exc:
        raise NetworkFormatError("%s: header has no key %s" % (path, exc)) from None
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError("%s: bad header (%s)" % (path, exc)) from None
    offset = 12 + header_len
    for p in net.params():
        nbytes = p.size * 8
        if offset + nbytes > len(data):
            raise NetworkFormatError(
                "%s: parameter block truncated at byte %d (need %d more)"
                % (path, len(data), offset + nbytes - len(data))
            )
        p[...] = np.frombuffer(data, dtype="<f8", count=p.size, offset=offset).reshape(p.shape)
        offset += nbytes
    if offset != len(data):
        raise NetworkFormatError("%s: %d trailing bytes" % (path, len(data) - offset))
    return net
