"""Numerically stable primitives shared by the rest of the toolkit.

Everything is double precision and pure; -inf is the log of zero.
"""

import math

import numpy as np

NEG_INF = float("-inf")


def log_softmax(logits):
    """Log-probabilities from finite logits, over the last axis.

    Shift invariant: adding a constant to every logit leaves the result
    unchanged up to rounding of the shift itself.
    """
    v = np.asarray(logits, dtype=np.float64)
    if v.size == 0 or not np.all(np.isfinite(v)):
        raise ValueError("log_softmax needs finite logits")
    shifted = v - np.max(v, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def global_norm(arrays):
    """Joint L2 norm of a collection of arrays."""
    return math.sqrt(sum(float(np.sum(np.square(a))) for a in arrays))


def clip_global_norm(grads, max_norm):
    """Scale a collection of arrays so their joint L2 norm is at most max_norm.

    Returns (grads, factor).  The inputs come back untouched with factor 1.0
    when the norm is already inside the bound; the comparison carries a 1e-12
    relative slack so clipping an already-clipped collection is a no-op.  A
    non-finite norm cannot be clipped and raises FloatingPointError.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    grads = list(grads)
    norm = global_norm(grads)
    if not math.isfinite(norm):
        raise FloatingPointError("gradient norm is %r" % norm)
    if norm <= max_norm * (1.0 + 1e-12):
        return grads, 1.0
    factor = max_norm / norm
    return [g * factor for g in grads], factor
