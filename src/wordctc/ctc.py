"""Label collapse, its exhaustive pre-image, and the CTC loss and gradient.

The collapse function first merges runs of identical symbols and then drops
blanks, in that order.  The loss marginalizes over every frame path that
collapses to the target, entirely in log space.  The forward variables come
from a sweep over the blank-interleaved state sequence, and the backward ones
from the same sweep over the time- and state-reversed lattice, read back
reversed; the loss and gradient run both as one loop over the two lattices
stacked, and the log-likelihood is that loss negated.  The blank always
occupies the last column of a lattice.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import NEG_INF

BLANK = "<blk>"

_ENUM_CHUNK = 1 << 17
_ENUM_MAX_PATHS = 100_000_000


class InfeasibleTargetError(ValueError):
    """Target sequence has probability zero under every alignment."""


@dataclass(frozen=True)
class Vocabulary:
    """Ordered output labels with one reserved symbol pinned to the last id.

    CTC models reserve the blank; frame classifiers reserve the silence
    label.  Ids 0..len(labels)-1 name the ordinary labels and id len(labels)
    the reserved one, so the output dimension is len(labels) + 1.
    """

    labels: tuple
    reserved: str = BLANK

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not all(isinstance(w, str) for w in (*self.labels, self.reserved)):
            raise ValueError("labels and the reserved symbol must be strings")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels in vocabulary")
        if self.reserved in self.labels:
            raise ValueError("reserved symbol %r is also an ordinary label" % (self.reserved,))
        object.__setattr__(self, "_ids", {w: i for i, w in enumerate(self.labels)})

    @property
    def size(self):
        """Total output dimension, reserved symbol included."""
        return len(self.labels) + 1

    @property
    def blank_id(self):
        return len(self.labels)

    def id_of(self, label):
        if label == self.reserved:
            return self.blank_id
        try:
            return self._ids[label]
        except KeyError:
            raise KeyError("unknown label %r" % (label,)) from None

    def label_of(self, label_id):
        if label_id == self.blank_id:
            return self.reserved
        return self.labels[label_id]

    def encode(self, labels):
        return tuple(self.id_of(w) for w in labels)

    def decode(self, ids):
        return tuple(self.label_of(i) for i in ids)


def collapse(path, blank):
    """Merge runs of equal symbols, then drop blanks."""
    out = []
    prev = None
    for s in path:
        if s != prev:
            out.append(s)
            prev = s
    return tuple(s for s in out if s != blank)


def min_frames(target):
    """Shortest path length whose collapse can equal the target."""
    y = tuple(target)
    repeats = sum(1 for a, b in zip(y, y[1:]) if a == b)
    return len(y) + repeats


def enumerate_preimage(target, n_frames, vocab, max_frames=10):
    """Every path of length n_frames that collapses to the target.

    This scans all vocab.size ** n_frames candidate paths, so it is a test
    oracle, not a runtime component; frame counts beyond max_frames are
    refused.  Returns a set of tuples of symbol ids.
    """
    if n_frames < 0:
        raise ValueError("negative frame count")
    if n_frames > max_frames:
        raise ValueError(
            "pre-image enumeration capped at %d frames, got %d" % (max_frames, n_frames)
        )
    blank = vocab.blank_id
    y = tuple(int(s) for s in target)
    for s in y:
        if not 0 <= s < blank:
            raise ValueError("label id %d outside vocabulary" % s)
    if n_frames == 0:
        return {()} if not y else set()
    base = vocab.size
    total = base**n_frames
    if total > _ENUM_MAX_PATHS:
        raise ValueError("%d paths is too many to enumerate" % total)
    place = base ** np.arange(n_frames - 1, -1, -1, dtype=np.int64)
    y_arr = np.asarray(y, dtype=np.int64)
    k = len(y)
    found = set()
    for start in range(0, total, _ENUM_CHUNK):
        idx = np.arange(start, min(start + _ENUM_CHUNK, total), dtype=np.int64)
        paths = (idx[:, None] // place) % base
        new_run = np.ones(paths.shape, dtype=bool)
        new_run[:, 1:] = paths[:, 1:] != paths[:, :-1]
        emit = new_run & (paths != blank)
        ok = emit.sum(axis=1) == k
        if k:
            pos = np.clip(np.cumsum(emit, axis=1) - 1, 0, k - 1)
            ok &= np.where(emit, paths == y_arr[pos], True).all(axis=1)
        for row in paths[ok]:
            found.add(tuple(int(s) for s in row))
    return found


def path_log_prob(lattice, path):
    """Log-probability of one frame path under a lattice."""
    lattice = np.asarray(lattice, dtype=np.float64)
    if len(path) != lattice.shape[0]:
        raise ValueError("path length %d != lattice frames %d" % (len(path), lattice.shape[0]))
    return float(sum(lattice[t, s] for t, s in enumerate(path)))


def _validate(lattice, target):
    lattice = np.asarray(lattice, dtype=np.float64)
    if lattice.ndim != 2 or lattice.shape[1] < 2:
        raise ValueError("lattice must be T x (V+1) with V >= 1")
    blank = lattice.shape[1] - 1
    y = tuple(int(s) for s in target)
    for s in y:
        if s == blank:
            raise ValueError("target contains the blank symbol")
        if not 0 <= s < blank:
            raise ValueError("label id %d outside vocabulary" % s)
    return lattice, y, blank


def _expanded_states(y, blank):
    sym = np.full(2 * len(y) + 1, blank, dtype=np.int64)
    sym[1::2] = y
    skip = np.zeros(len(sym), dtype=bool)
    if len(sym) > 2:
        skip[2:] = (sym[2:] != blank) & (sym[2:] != sym[:-2])
    return sym, skip


def _sweep(emit, skip):
    """Log-mass of path prefixes entering each state, for K lattices at
    once: emit[t, k, j] is the log-probability of lattice k's state j's
    symbol at frame t, and skip[k, j] whether lattice k may jump into state
    j from state j - 2.  Row 0 is 0 on the first two states; row t combines
    row t-1 plus its emissions by staying, advancing one state, or jumping
    two where `skip` allows.  Each step works on the (K, S) rows of all
    lattices in place, and every element sees the operands a sweep of its
    lattice alone would give it, in the same order."""
    T, K, S = emit.shape
    out = np.full((T, K, S), NEG_INF)
    out[0, :, :2] = 0.0
    prev = np.empty((K, S))
    move = np.full((K, S), NEG_INF)
    jump = np.full((K, S), NEG_INF)
    moved, moving = move[:, 1:], prev[:, :-1]
    jumped, jumping, allowed = jump[:, 2:], prev[:, :-2], skip[:, 2:]
    for last, e, row in zip(out, emit, out[1:]):
        np.add(last, e, out=prev)
        np.copyto(moved, moving)
        np.logaddexp(prev, move, out=row)
        if S > 2:
            # states no jump may enter keep -inf from the start
            np.copyto(jumped, jumping, where=allowed)
            np.logaddexp(row, jump, out=row)
    return out


def ctc_log_likelihood(lattice, target):
    """log p(target | lattice): the marginal over all collapsing paths, the
    negated loss of `ctc_loss_and_gradient`.

    Returns -inf when no path of the lattice's length collapses to the
    target (including the zero-frame, nonempty-target case).
    """
    try:
        loss, _ = ctc_loss_and_gradient(lattice, target)
    except InfeasibleTargetError:
        return NEG_INF
    return 0.0 - loss  # not -loss, which is -0.0 for the zero-frame empty target


def ctc_loss_and_gradient(lattice, target):
    """Negative log-likelihood and its gradient w.r.t. the pre-softmax logits.

    The gradient is softmax(logits) - occupancy, where occupancy[t, k] is the
    posterior probability that an alignment of the target emits symbol k at
    frame t; each gradient row therefore sums to zero.
    """
    lattice, y, blank = _validate(lattice, target)
    T = lattice.shape[0]
    if T == 0:
        if y:
            raise InfeasibleTargetError("no alignment of length 0 for a nonempty target")
        return 0.0, np.zeros_like(lattice)
    sym, skip = _expanded_states(y, blank)
    emit = lattice[:, sym]
    # one sweep: alpha over the lattice, beta over it reversed in time and states
    both = _sweep(np.stack([emit, emit[::-1, ::-1]], axis=1),
                  np.stack([skip, _expanded_states(y[::-1], blank)[1]]))
    alpha = both[:, 0] + emit
    # the last two states, or the one state of an empty target
    ll = float(np.logaddexp.reduce(alpha[-1, -2:]))
    if ll == NEG_INF:
        raise InfeasibleTargetError(
            "target of length %d has no alignment in %d frames" % (len(y), T)
        )
    beta = both[::-1, 1, ::-1]
    gamma = np.exp(alpha + beta - ll)
    occupancy = np.zeros_like(lattice)
    np.add.at(occupancy, (slice(None), sym), gamma)
    return -ll, np.exp(lattice) - occupancy


def greedy_decode(lattice):
    """Best-path decoding: frame-wise argmax, then collapse.

    Ties go to the lowest label id; the blank sits at the last column, so a
    label beats the blank on an exact tie.
    """
    lattice = np.asarray(lattice)
    if lattice.ndim != 2 or lattice.shape[0] == 0:
        raise ValueError("cannot decode an empty lattice")
    best = np.argmax(lattice, axis=1)
    return collapse(best.tolist(), lattice.shape[1] - 1)
