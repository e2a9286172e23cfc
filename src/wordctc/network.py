"""Unidirectional LSTM stack with inter-layer frame down-sampling.

A forward pass over one utterance records a tape so the exact gradient can
be backpropagated through time; frames dropped by down-sampling receive
zero gradient.  A forward pass over a packed batch keeps no tape.  The
parameters are one float64 vector, `Network.flat`, and checkpoints
round-trip it bit for bit through the single-file format at the bottom.
"""

import json
import math
import struct
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
from scipy.special import expit

from .ctc import BLANK, Vocabulary
from .data import SIL, DataFormatError
from .numerics import log_softmax

INIT_SCALE = 0.05
# each mode's reserved symbol and lookahead, the frames an output lags its
# label: output t of the frame classifier predicts frame t - 1
MODES = {"word-ctc": (BLANK, 0), "phoneme-ctc": (BLANK, 0), "frame-classifier": (SIL, 1)}

MAGIC = b"WNET"
FORMAT_VERSION = 1

# arrays a forward_batches batch holds live in its widest layer: the
# features twice and that layer's input and hidden rows; lstm_forward's
# gate block, an eighth of this, comes on top
MAX_BATCH_BYTES = 4 * 2**20


class StaleTapeError(RuntimeError):
    """Tape no longer matches the network's parameters."""


class SequenceTooShortError(ValueError):
    """Input has too few frames for the configured down-sampling."""


class NetworkFormatError(DataFormatError):
    """Malformed network checkpoint file."""


class TransferError(ValueError):
    """A source network's bottom layers do not fit the destination."""


def _batch_sizes(lengths, n_rows):
    """Rows per time step of the packed layout of sequences whose lengths
    are `lengths`, in decreasing order and totalling `n_rows`: step t holds
    one row for each sequence longer than t."""
    lengths = np.asarray(lengths, dtype=np.int64)
    counts = lengths.tolist()
    if lengths.ndim != 1 or not counts or counts[-1] < 0 or sorted(counts, reverse=True) != counts:
        raise ValueError("lengths must be a nonempty decreasing sequence of counts")
    if sum(counts) != n_rows:
        raise ValueError("lengths sum to %d, but there are %d rows" % (sum(counts), n_rows))
    return len(counts) - np.cumsum(np.bincount(lengths))[: counts[0]]


def _source_rows(lengths, n_rows):
    """Row of each packed row when the sequences are laid end to end."""
    sizes = _batch_sizes(lengths, n_rows)
    step = np.repeat(np.arange(len(sizes)), sizes)
    seq = np.arange(n_rows) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return (np.cumsum(lengths) - lengths)[seq] + step


def pack(seqs):
    """Time-major packed rows of sequences given in decreasing length, plus
    their lengths: step t's rows are the t-th row of every sequence longer
    than t, in the given order."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    return np.concatenate(seqs)[_source_rows(lengths, lengths.sum())], lengths


def unpack(packed, lengths):
    """The sequences `pack` laid out, each a contiguous array."""
    rows = np.empty_like(packed)
    rows[_source_rows(lengths, len(packed))] = packed
    return np.split(rows, np.cumsum(lengths)[:-1])


def downsample(seq, lengths=None):
    """Keep the 1st, 3rd, 5th, ... frames; a T-frame sequence keeps exactly
    T // 2 of them, so for odd T the final frame is dropped entirely.

    `seq` is one sequence, or with `lengths` several in the packed layout of
    `pack`, each halved on its own and the result packed the same way.
    Sequences of length 0 or 1 cannot be halved and raise
    SequenceTooShortError.
    """
    seq = np.asarray(seq)
    lengths = np.array([seq.shape[0]] if lengths is None else lengths, dtype=np.int64)
    if lengths.min() <= 1:
        raise SequenceTooShortError("cannot halve a %d-frame sequence" % lengths.min())
    sizes = _batch_sizes(lengths, seq.shape[0])
    # halved step t is the first kept[t] rows of step 2t, which the steps
    # before it put evens[:t].sum() rows further on in `seq` than in the result
    kept, evens = sizes[1::2], sizes[:-1:2]
    return seq[np.arange(kept.sum()) + np.repeat(np.cumsum(evens) - evens, kept)]


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


def _ints(what, values):
    """`values` as a tuple, when every one is an int; a bool or a float that
    happens to be whole is refused rather than coerced."""
    values = tuple(values)
    if not all(type(v) is int for v in values):
        raise ValueError("expected integers for %s, got %r" % (what, values))
    return values


def _layout(input_dim, hidden_dims, n_labels):
    """Shapes of the arrays in a network's parameter vector, in order: the one
    statement of the layout of `Network.flat`, of a checkpoint's payload and
    of `NetworkGradients.flat`, whose views backpropagation writes into.

    Each LSTM layer, bottom first, holds its (4H, D+H) weights `w`, then its
    (4H,) bias `b`; the gates are stacked as input, forget, output, cell
    candidate, each with its D input columns before its H recurrent ones,
    and D is the feature dimension or the width of the layer below.  The
    softmax weights (n_labels, H) and bias (n_labels,) come last, so a
    network's bottom k layers are a leading run of its vector.  Dimensions
    must be positive ints, with at least one layer.
    """
    d, *hidden_dims = _ints("dimensions", [input_dim, *hidden_dims])
    if not hidden_dims:
        raise ValueError("need at least one LSTM layer")
    if d < 1 or min(hidden_dims) < 1:
        raise ValueError("dimensions %r must be positive; an LSTM layer needs at least "
                         "one hidden unit" % ([d, *hidden_dims],))
    shapes = []
    for h in hidden_dims:
        shapes += [(4 * h, d + h), (4 * h,)]
        d = h
    return shapes + [(n_labels, d), (n_labels,)]


def _views(flat, shapes):
    """Views of consecutive runs of the vector `flat`, one of each shape."""
    ends = np.cumsum([0] + [math.prod(shape) for shape in shapes]).tolist()
    return [flat[lo:hi].reshape(shape) for lo, hi, shape in zip(ends, ends[1:], shapes)]


class LSTMLayer:
    """One LSTM layer, no peepholes: (4 * hidden, input + hidden) weights `w`
    and a (4 * hidden,) bias `b`, stacked as `_layout` states.  `w_i` ...
    `b_g` are read-only views of the gate blocks.
    """

    def __init__(self, w, b):
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.w.ndim != 2 or self.w.shape[0] % 4 or self.w.shape[1] <= self.w.shape[0] // 4:
            raise ValueError("weights must be (4 * hidden, input + hidden)")
        h = self.w.shape[0] // 4
        if h < 1:
            raise ValueError("an LSTM layer needs at least one hidden unit")
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
        """Views of `w` and `b`, one per gate and in checkpoint order: w_i,
        w_f, w_o, w_g, b_i, b_f, b_o, b_g."""
        return [*np.split(self.w, 4), *np.split(self.b, 4)]


@dataclass
class LayerTape:
    """One layer's forward pass over T frames as backpropagation reads it:
    arrays lstm_forward made, kept, not copied.  `cell` starts with the zero
    state before step 0, so the state step t starts from is row t."""

    inputs: np.ndarray
    gates: np.ndarray  # (T, 4 * hidden) activations, stacked like the weights
    cell: np.ndarray  # (T + 1, hidden)
    hidden: np.ndarray


def _steps(a, at, m, b):
    """m steps of b rows of `a` from row `at`: rows when b is 1, else (b, X) blocks."""
    return a[at : at + m] if b == 1 else a[at : at + m * b].reshape(m, b, -1)


def lstm_forward(layer, inputs, lengths=None):
    """Run the recurrence from zero initial state over packed sequences.

    `inputs` is (N, input_dim): one sequence of N frames, or with `lengths`
    several in the time-major layout of `pack`, where step t's rows are one
    per sequence still running, longest first.  Returns the (N, hidden)
    outputs and the tape backpropagation reads, or None for a batch's.

    The input projection precedes the recurrence (Appleyard et al.,
    arXiv:1604.01946).  The steps fall into runs of one width, whose rows
    are contiguous; each run is projected and stepped in blocks of whole
    steps, at most MAX_BATCH_BYTES // 8 of gates, and a block's steps take
    their rows from one `zip`, so they index nothing.  One sequence is one
    run in one block and keeps every step's cell row; a batch keeps one
    cell row per sequence.  The state before step 0 is stored as zeros,
    the tape's first cell row among it, so every step runs the same body.
    A batch of one sequence gives the taped outputs bit for bit while its
    rows fit one gate block; past that, a block's projection can round
    differently, within 1e-12 in the tests.
    """
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layer.input_dim:
        raise ValueError("expected (N, %d) inputs, got %r" % (layer.input_dim, x.shape))
    N = x.shape[0]
    keep = lengths is None
    sizes = np.ones(N, dtype=np.int64) if keep else _batch_sizes(lengths, N)
    # the runs of steps of one width, as (rows a step, steps)
    run = np.flatnonzero(np.diff(sizes, prepend=0))
    runs = zip(sizes[run].tolist(), np.diff(run, append=len(sizes)).tolist())
    H = layer.hidden_dim
    D = layer.input_dim
    wx = layer.w[:, :D].T
    whc = np.ascontiguousarray(layer.w[:, D:])
    width = int(sizes[0]) if N else 0
    # only a batch of several sequences has steps of several rows to read it
    whT = np.ascontiguousarray(whc.T) if width > 1 else None
    # the state before step 0 is zeros (only it; the rest is written first):
    # `width` hidden rows before h's, a batch's cell rows or one before the tape's
    hz = np.empty((width + N, H))
    h = hz[width:]
    c = np.empty((N + 1 if keep else width, H))
    hz[:width] = c[: 1 if keep else width] = 0
    tmp = np.empty((width, H))
    rec = np.empty((width, 4 * H))
    block_rows = N if keep else max(width, MAX_BATCH_BYTES // 8 // (4 * H * 8))
    gates = np.empty((min(N, block_rows), 4 * H))
    # r is the block's first row and pb the width of the step before it,
    # whose first rows in hz are the block's previous hidden state
    r, pb = 0, width
    for b, n_steps in runs:
        per = block_rows // b
        for done in range(0, n_steps, per):
            m = min(per, n_steps - done)
            np.matmul(x[r : r + m * b], wx, out=gates[: m * b])
            gates[: m * b] += layer.b
            g = _steps(gates, 0, m, b)
            hr = _steps(h, r, m, b)
            # whc . h_prev for one row, h_prev . whT for several
            prev = chain(_steps(hz, width + r - pb, 1, b), hr[:-1])
            mats = (repeat(whc), prev) if b == 1 else (prev, repeat(whT))
            # one sequence keeps every step's cell row; a batch updates one in
            # place, as one view that numpy need not check for overlap
            if keep:
                cells, prev_cells = c[r + 1 : r + 1 + m], c[r : r + m]
            else:
                cells = prev_cells = repeat(_steps(c, 0, 1, b)[0])
            for a, sg, gg, ig, fg, og, cell, cp, hrow, left, right, tm, rc in zip(
                g, g[..., : 3 * H], g[..., 3 * H :],
                g[..., :H], g[..., H : 2 * H], g[..., 2 * H : 3 * H],
                cells, prev_cells, hr, *mats,
                repeat(_steps(tmp, 0, 1, b)[0]), repeat(_steps(rec, 0, 1, b)[0]),
            ):
                np.dot(left, right, out=rc)
                a += rc
                expit(sg, out=sg)  # the sigmoid gates i, f and o
                np.tanh(gg, out=gg)  # the candidate g
                np.multiply(fg, cp, out=cell)
                np.multiply(ig, gg, out=tm)
                cell += tm
                np.tanh(cell, out=hrow)
                hrow *= og
            r, pb = r + m * b, b
    return h, (LayerTape(x, gates, c, h) if keep else None)


def lstm_backward(layer, tape, d_hidden, grad):
    """Backpropagation through time for one layer.

    d_hidden is the (T, hidden) gradient arriving at the layer's outputs.
    The weight and bias gradients are written into `grad.w` and `grad.b`,
    the views of `grad`, a layer of `layer`'s shape such as one of a
    `NetworkGradients`; returns the (T, input) gradient of the inputs.

    The gate-derivative factors that do not depend on the recurrence are
    computed for all frames before the time loop (Appleyard et al.,
    arXiv:1604.01946), together with the forget gate as a fifth factor, so
    one multiply per step writes the four gate gradients and the cell
    gradient carried to the step before.  The loop takes its rows from one
    `zip` over the reversed arrays, so it indexes nothing.
    """
    d_hidden = np.asarray(d_hidden, dtype=np.float64)
    T = tape.inputs.shape[0]
    H = layer.hidden_dim
    D = layer.input_dim
    if d_hidden.shape != (T, H):
        raise ValueError("expected (%d, %d) output grads, got %r" % (T, H, d_hidden.shape))
    # a contiguous copy keeps the per-step product on the BLAS path
    wh = np.ascontiguousarray(layer.w[:, D:])
    i, f, o, g = tape.gates.reshape(T, 4, H).transpose(1, 0, 2)
    c_prev = tape.cell[:-1]
    tc = np.tanh(tape.cell[1:])
    # rows[t] is [dc, dc, dh, dc, dc] * factors[t], gate by gate: the four
    # gate gradients, then the cell gradient carried to step t - 1, where
    # dc = dh * dc_dh + the one carried from step t + 1
    factors = np.empty((T, 5, H))
    factors[:, 0] = g * i * (1.0 - i)
    factors[:, 1] = c_prev * f * (1.0 - f)
    factors[:, 2] = o * (1.0 - o) * tc
    factors[:, 3] = i * (1.0 - g**2)
    factors[:, 4] = f
    dc_dh = o * (1.0 - tc**2)
    rows = np.empty((T, 5, H))
    d_act = rows[:, :4].reshape(T, 4 * H)  # a view: each row's first 4H
    dh = np.empty(H)
    dc = np.empty(H)
    dh_rec = np.zeros(H)
    carried = chain([np.zeros(H)], rows[::-1, 4])
    for d_out, dcdh, fac, row, fac_o, row_o, act, dc_rec in zip(
        d_hidden[::-1], dc_dh[::-1], factors[::-1], rows[::-1],
        factors[::-1, 2], rows[::-1, 2], d_act[::-1], carried,
    ):
        np.add(d_out, dh_rec, out=dh)
        np.multiply(dh, dcdh, out=dc)
        dc += dc_rec
        np.multiply(dc, fac, out=row)
        np.multiply(dh, fac_o, out=row_o)  # the output gate sees dh
        np.dot(act, wh, out=dh_rec)
    h_prev = np.vstack([np.zeros((1, H)), tape.hidden])[:-1]
    z = np.hstack([tape.inputs, h_prev])
    np.matmul(d_act.T, z, out=grad.w)
    d_act.sum(axis=0, out=grad.b)
    return d_act @ layer.w[:, :D]


class Network:
    """LSTM stack with a softmax head.  downsample[i] halvings run before layer i.

    `flat`, every parameter as one float64 vector in the order `_layout`
    states, is kept, not copied; the layers' `w` and `b` and the head's
    `w_out` and `b_out` are views into it.
    """

    def __init__(self, flat, input_dim, hidden_dims, downsample, vocab, mode):
        # a checkpoint header's mode may be any JSON value, a list among them
        if not isinstance(mode, str) or mode not in MODES:
            raise ValueError("mode must be one of %r" % (tuple(MODES),))
        reserved, self.lookahead = MODES[mode]
        if vocab.reserved != reserved:
            raise ValueError("mode %r reserves %r, not %r" % (mode, reserved, vocab.reserved))
        hidden_dims = tuple(hidden_dims)
        shapes = _layout(input_dim, hidden_dims, vocab.size)
        downsample = _ints("down-sampling counts", downsample)
        if len(downsample) != len(hidden_dims) or any(c < 0 for c in downsample):
            raise ValueError("down-sampling counts must be one nonnegative int per layer")
        if mode == "frame-classifier" and any(downsample):
            raise ValueError("frame classification requires down-sampling factor 1")
        size = sum(math.prod(shape) for shape in shapes)
        if not isinstance(flat, np.ndarray) or flat.dtype != np.float64 or flat.shape != (size,):
            raise ValueError("parameters must be a float64 vector of %d values, got %s of shape %r"
                             % (size, getattr(flat, "dtype", type(flat).__name__), np.shape(flat)))
        self.flat = flat
        *stacked, self.w_out, self.b_out = _views(flat, shapes)
        self.layers = [LSTMLayer(w, b) for w, b in zip(stacked[::2], stacked[1::2])]
        self.input_dim = input_dim
        self.hidden_dims = hidden_dims
        self.downsample = downsample
        self.vocab = vocab
        self.mode = mode
        self.version = 0

    def params(self):
        """Views of `flat`: each layer's per-gate blocks, then `w_out` and `b_out`."""
        return [p for l in self.layers for p in l.params()] + [self.w_out, self.b_out]

    def copy(self):
        return Network(self.flat.copy(), self.input_dim, self.hidden_dims, self.downsample,
                       self.vocab, self.mode)

    @classmethod
    def random(cls, input_dim, hidden_dims, vocab, mode, downsample=None, seed=0):
        """Fresh network with uniform(-0.05, 0.05) weights.

        All weights come from one PCG64 stream seeded with `seed`, drawn in
        layer order (`LSTMLayer.random`'s (4H, D+H) block per layer) and the
        softmax weights last into their views of a zero vector, so equal
        seeds give bit-identical parameters.
        """
        rng = np.random.default_rng(seed)
        hidden_dims = tuple(hidden_dims)
        size = sum(math.prod(shape) for shape in _layout(input_dim, hidden_dims, vocab.size))
        if downsample is None:
            downsample = (0,) * len(hidden_dims)
        net = cls(np.zeros(size), input_dim, hidden_dims, downsample, vocab, mode)
        for layer in net.layers:
            drawn = LSTMLayer.random(layer.input_dim, layer.hidden_dim, rng)
            layer.w[...], layer.b[...] = drawn.w, drawn.b
        net.w_out[...] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=net.w_out.shape)
        return net


@dataclass
class ForwardTape:
    layer_tapes: list  # one per layer
    input_rows: int  # rows of the features, before any halving
    version: int


class NetworkGradients(Network):
    """A gradient laid out like its network: `flat` and the same views of it,
    which `arrays()` gives in the order of `Network.params()`."""

    arrays = Network.params


def network_forward(net, features, lengths=None):
    """Per-frame log-probabilities over the output labels, plus the tape.

    `features` is one utterance, (T, input_dim), or with `lengths` several
    utterances in the packed layout of `pack`, longest first.  Each
    utterance is halved on its own, so under m total halvings it gets
    floor(T / 2**m) lattice rows, packed like the features; every row
    exponentiates to a distribution.

    Only a call without `lengths` returns a tape, which backpropagation
    reads; a packed batch, even of one utterance, returns None for it, so
    in each layer it holds that layer's input and hidden rows, one block of
    gates and one cell row per utterance.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError("expected (T, %d) features, got %r" % (net.input_dim, x.shape))
    keep = lengths is None
    lengths = np.array([x.shape[0]] if keep else lengths, dtype=np.int64)
    if not lengths.size or lengths.min() == 0:
        raise SequenceTooShortError("empty feature sequence")
    tapes = []
    h = x
    for layer, halvings in zip(net.layers, net.downsample):
        for _ in range(halvings):
            h = downsample(h, lengths)
            lengths = lengths // 2
        h, tape = lstm_forward(layer, h, None if keep else lengths)
        tapes.append(tape)
    lattice = log_softmax(h @ net.w_out.T + net.b_out)
    return lattice, (ForwardTape(tapes, x.shape[0], net.version) if keep else None)


def _widest_layer_bytes(net, n_frames):
    """Bytes one n_frames-frame utterance holds live in a batch's widest
    layer, which keeps no tape: that layer's input and hidden rows, plus
    the packed features and network_forward's float64 copy of them."""
    features = 2 * n_frames * net.input_dim * 8
    widest = 0
    for layer, halvings in zip(net.layers, net.downsample):
        n_frames >>= halvings
        widest = max(widest, n_frames * (layer.input_dim + layer.hidden_dim) * 8)
    return features + widest


def forward_batches(net, features):
    """(index, lattice) for every utterance in `features` whose lattice has
    a row, len(f) >> m under the network's m halvings; others are skipped.

    Utterances run longest first, in batches of at most MAX_BATCH_BYTES
    (an utterance over it runs alone), and each lattice is yielded as soon
    as its batch is done.  A batch keeps no tape, so an utterance is
    charged its features twice, packed and as network_forward's float64
    copy, plus the input and hidden rows of its widest layer; the gate
    block lstm_forward reuses is a fixed MAX_BATCH_BYTES // 8 on top.
    """
    order = sorted((i for i, f in enumerate(features) if len(f) >> sum(net.downsample)),
                   key=lambda i: -len(features[i]))
    batches, used = [], np.inf
    for i in order:
        cost = _widest_layer_bytes(net, len(features[i]))
        if used + cost > MAX_BATCH_BYTES:
            batches.append([])
            used = 0
        batches[-1].append(i)
        used += cost
    for batch in batches:
        packed, lengths = pack([features[i] for i in batch])
        lattice = network_forward(net, packed, lengths)[0]
        yield from zip(batch, unpack(lattice, lengths >> sum(net.downsample)))


def network_backward(net, tape, d_logits):
    """Parameter and input gradients from logit-space output gradients.

    Both are new: the parameter gradient a NetworkGradients laid out like
    `net`, the input gradient with exact zeros for frames dropped by
    down-sampling.  Raises StaleTapeError when the network was updated
    after the forward pass that produced the tape.
    """
    if tape.version != net.version:
        raise StaleTapeError("tape is stale; the network was updated after the forward pass")
    d_logits = np.asarray(d_logits, dtype=np.float64)
    top = tape.layer_tapes[-1].hidden
    expected = (top.shape[0], net.vocab.size)
    if d_logits.shape != expected:
        raise ValueError("expected %r output grads, got %r" % (expected, d_logits.shape))
    grads = NetworkGradients(np.empty_like(net.flat), net.input_dim, net.hidden_dims,
                             net.downsample, net.vocab, net.mode)
    np.matmul(d_logits.T, top, out=grads.w_out)
    d_logits.sum(axis=0, out=grads.b_out)
    dh = d_logits @ net.w_out
    for idx in range(len(net.layers) - 1, -1, -1):
        dh = d_in = lstm_backward(net.layers[idx], tape.layer_tapes[idx], dh, grads.layers[idx])
        if net.downsample[idx]:
            # k halvings kept rows 0, 2**k, 2 * 2**k, ... of the layer's input,
            # the features or the outputs of the layer below; the rest get zeros
            step = 2 ** net.downsample[idx]
            rows = tape.layer_tapes[idx - 1].hidden.shape[0] if idx else tape.input_rows
            dh = np.zeros((rows, d_in.shape[1]))
            dh[: len(d_in) * step : step] = d_in
    return grads, dh


def sgd_update(net, grad, lr):
    """In-place `net.flat -= lr * grad` (a `NetworkGradients.flat`); invalidates tapes."""
    if np.shape(grad) != net.flat.shape:
        raise ValueError("expected a gradient of shape %r, got %r" % (net.flat.shape, np.shape(grad)))
    net.flat -= lr * grad
    net.version += 1


def transfer_bottom_layers(src, dst, k):
    """Copy of dst whose bottom k LSTM layers are replaced by src's.

    dst's remaining layers and its softmax head keep their own (fresh)
    initialization.  Shapes of the copied layers must agree, and k must
    leave at least one destination layer untouched; TransferError otherwise.
    """
    if not 0 <= k < len(dst.layers):
        raise TransferError("can replace 0 to %d of the destination's %d layers, not %d"
                         % (len(dst.layers) - 1, len(dst.layers), k))
    if k > len(src.layers):
        raise TransferError("source has only %d layers" % len(src.layers))
    for i, (a, b) in enumerate(zip(src.layers[:k], dst.layers[:k])):
        if a.w.shape != b.w.shape:
            raise TransferError("layer %d shape mismatch: %r vs %r" % (i, a.w.shape, b.w.shape))
    # _layout puts the bottom k layers first, each as its w and then its b
    n = sum(l.w.size + l.b.size for l in dst.layers[:k])
    out = dst.copy()
    out.flat[:n] = src.flat[:n]
    return out


def save_network(net, path):
    """Single-file checkpoint.

    Layout: magic "WNET", u32 format version, u32 header length, a JSON
    structure header (mode, lookahead, dims, down-sampling counts, labels,
    reserved symbol), then `net.flat` as raw little-endian float64, its
    arrays row-major in the order `_layout` states.  Round-trips are
    bit-exact.  load_network rejects a header whose reserved symbol or
    lookahead is not the one its mode fixes in MODES, and a non-finite
    parameter.
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
        fh.write(net.flat.astype("<f8").tobytes())


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
    offset = 12 + header_len
    try:
        header = json.loads(data[12 : 12 + header_len].decode("utf-8"))
        labels = header["labels"]
        if not isinstance(labels, list):
            raise ValueError("labels must be a list of strings, not a %s" % type(labels).__name__)
        vocab = Vocabulary(tuple(labels), header["reserved"])
        # hypotheses.tsv holds space-separated labels, one utterance a line
        for label in (*vocab.labels, vocab.reserved):
            if label.split() != [label]:
                raise NetworkFormatError("%s: label %r is empty or holds whitespace" % (path, label))
        shapes = _layout(header["input_dim"], header["hidden_dims"], vocab.size)
        # the header's dimensions are checked against the payload before
        # anything of their size is allocated
        missing = offset + 8 * sum(math.prod(shape) for shape in shapes) - len(data)
        if missing > 0:
            raise NetworkFormatError("%s: parameter block truncated at byte %d (need %d more)"
                                     % (path, len(data), missing))
        if missing < 0:
            raise NetworkFormatError("%s: %d trailing bytes" % (path, -missing))
        flat = np.frombuffer(data, dtype="<f8", offset=offset).astype(np.float64)
        finite = np.isfinite(flat)
        if not finite.all():
            raise NetworkFormatError("%s: non-finite parameter at byte %d"
                                     % (path, offset + 8 * int(np.argmin(finite))))
        net = Network(flat, header["input_dim"], header["hidden_dims"], header["downsample"],
                      vocab, header["mode"])
        if _ints("lookahead", [header["lookahead"]]) != (net.lookahead,):
            raise ValueError("lookahead %r does not fit mode %r" % (header["lookahead"], net.mode))
    except NetworkFormatError:
        raise
    except KeyError as exc:
        raise NetworkFormatError("%s: header has no key %s" % (path, exc)) from None
    except (TypeError, ValueError, RecursionError) as exc:
        # json.loads recurses once per nesting level of the header
        raise NetworkFormatError("%s: bad header (%s)" % (path, exc)) from None
    return net
