"""Elementary math and random-number streams shared by every module.

All floating point is 64-bit. Randomness flows exclusively through
:class:`RngStream` objects, each addressed by a (seed, stream_id) pair on
top of numpy's counter-based Philox generator, so that any computation is
reproducible bit-for-bit from its seeds. Streams are stateful: each
consumer (a persistent chain, the epoch shuffle, weight initialization)
owns its own, so how much one consumes never shifts another's draws.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngStream", "as_int", "sigmoid", "log1p_exp", "log_sum_exp",
           "softmax"]


def as_int(name: str, value) -> int:
    """value as an int: a Python or numpy integer, but not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class RngStream:
    """One independent, reproducible random stream.

    Two streams built from the same (seed, stream_id) yield bit-identical
    draw sequences; distinct stream_ids give statistically independent
    sequences. Chains, shuffling, initialization etc. each get their own
    stream_id so consumption in one never perturbs another. Each key must
    be an integer (a Python or numpy one, not a bool) in [0, 2^64);
    anything else raises ValueError naming it.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        for name, key in (("seed", seed), ("stream_id", stream_id)):
            if not 0 <= as_int(name, key) < 2**64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, "
                                 f"got {key!r}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def uniforms(self, shape, out=None) -> np.ndarray:
        """Array of uniform draws from [0, 1), filled in row-major order.

        With out (a C-contiguous float64 array of that shape) the draws are
        written into it and it is returned; they are the same doubles a
        fresh array would get.
        """
        return self._gen.random(shape, out=out)

    def normals(self, shape) -> np.ndarray:
        """Array of standard normal draws."""
        return self._gen.standard_normal(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of range(n)."""
        return self._gen.permutation(n)


def _fresh(ufunc, x):
    """(x as float64, ufunc(x) in a new float64 buffer), the buffer 0-d
    for a scalar. A float64 ndarray of at least one dimension goes
    straight to ufunc, which allocates the same buffer, without
    np.asarray and np.empty_like."""
    if type(x) is np.ndarray and x.dtype == np.float64 and x.ndim:
        return x, ufunc(x)
    x = np.asarray(x, dtype=np.float64)
    return x, ufunc(x, out=np.empty_like(x))


def sigmoid(x, out=None):
    """Logistic function 1/(1+exp(-x)), computed in that direct form.

    The work happens in place in one freshly allocated float64 buffer, so
    the input is never written; a scalar input returns a float, an array
    an array. With out (a float64 array shaped like x, x itself included)
    the work happens in out instead, which is returned even when 0-d; a
    caller that owns a fresh x saves the allocation with out=x. The bits
    are the same either way. For x below about -709.78, exp(-x) overflows
    to inf and 1/inf gives the correct saturated value 0; that overflow is
    the only floating-point warning silenced. Large positive x saturates
    to 1, NaN propagates, and the result is within a few ulp of the exact
    logistic.
    """
    if out is None:
        _, buf = _fresh(np.negative, x)
    else:
        buf = np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(buf, out=buf)
    buf += 1.0
    np.reciprocal(buf, out=buf)
    if out is None and buf.ndim == 0:
        return float(buf)
    return buf


def log1p_exp(x):
    """Softplus log(1+exp(x)) in the stable form max(x,0) + log1p(exp(-|x|)).

    exp only ever sees a non-positive argument, so no input overflows or
    warns: large positive x gives x, large negative x gives exp(x) down to
    0, and NaN propagates. A scalar input returns a float, an array an
    array; the input is never written.
    """
    x, out = _fresh(np.abs, x)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def log_sum_exp(x, axis):
    """log sum exp(x) over axis, shifted by the max along it. Consumes x:
    the shifted exponentials are computed in x's own buffer, so x must be
    a fresh float64 array that nothing else reads."""
    m = np.max(x, axis=axis, keepdims=True)
    x -= m
    np.exp(x, out=x)
    return m.squeeze(axis) + np.log(np.sum(x, axis=axis))


def softmax(x, axis=-1):
    """exp(x) / sum exp(x) along axis, each line shifted by its own max so
    nothing overflows and no sum is 0. Computed in x's own buffer, which is
    returned: x must be a fresh float64 array that nothing else reads."""
    x -= np.max(x, axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= np.sum(x, axis=axis, keepdims=True)
    return x
