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


def clip_global_norm(grad, max_norm):
    """Scale a gradient vector so its L2 norm is at most max_norm.

    Returns (grad, factor).  The input comes back untouched with factor 1.0
    when the norm is already inside the bound; the comparison carries a 1e-12
    relative slack so clipping an already-clipped vector is a no-op.  A
    non-finite norm cannot be clipped and raises FloatingPointError.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = global_norm([grad])
    if not math.isfinite(norm):
        raise FloatingPointError("gradient norm is %r" % norm)
    if norm <= max_norm * (1.0 + 1e-12):
        return grad, 1.0
    factor = max_norm / norm
    return grad * factor, factor
