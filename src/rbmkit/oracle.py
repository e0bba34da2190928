"""Brute-force ground truth for small binary RBMs.

Everything here enumerates the full 2^(n_visible + n_hidden) state space,
so it is the reference against which the closed-form free energy and the
sampling-based gradient estimators are measured. Models must have binary
visible units and at most MAX_ENUM_UNITS units in total; larger requests
fail loudly rather than silently approximating.

All sums run in log space (log-sum-exp); numpy's pairwise summation keeps
results summation-order-robust well below the 1e-10 tolerances used by
the identity checks.
"""

from __future__ import annotations

import numpy as np

from .model import BINARY, GradientStats, RbmParams, batch_stats, hidden_probs

MAX_ENUM_UNITS = 20

__all__ = [
    "MAX_ENUM_UNITS",
    "enumerate_states",
    "partition_function",
    "visible_marginal",
    "joint_table",
    "exact_gradient",
    "mean_log_likelihood",
    "finite_diff_loglik_grad",
    "free_energy_entropy_form",
]


def _logsumexp(x, axis=None):
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    out = m.squeeze(axis) if axis is not None else m.reshape(())
    return out + np.log(np.sum(np.exp(x - m), axis=axis))


def _check_enumerable(p: RbmParams):
    if p.visible_kind != BINARY:
        raise ValueError("enumeration supports binary visible units only")
    if p.n_visible + p.n_hidden > MAX_ENUM_UNITS:
        raise ValueError(
            f"model has {p.n_visible + p.n_hidden} units; enumeration is "
            f"capped at {MAX_ENUM_UNITS}")


def enumerate_states(n_units: int) -> np.ndarray:
    """All binary vectors of the given length, in binary counting order.

    Row s spells out s in base 2 with unit 0 as the most significant bit,
    so the row index doubles as a state id.
    """
    if n_units > MAX_ENUM_UNITS:
        raise ValueError(f"refusing to enumerate 2^{n_units} states")
    ids = np.arange(2 ** n_units, dtype=np.int64)
    shifts = np.arange(n_units - 1, -1, -1)
    return ((ids[:, None] >> shifts) & 1).astype(np.float64)


def state_index(v) -> int:
    """Row index of a binary vector in enumerate_states order."""
    bits = np.asarray(v).astype(np.int64)
    n = bits.size
    return int(bits @ (2 ** np.arange(n - 1, -1, -1)))


def _neg_energy_table(p: RbmParams) -> np.ndarray:
    """-E(v, h) for every joint state, shape (2^n_visible, 2^n_hidden)."""
    V = enumerate_states(p.n_visible)
    H = enumerate_states(p.n_hidden)
    return V @ p.w @ H.T + (V @ p.a)[:, None] + (H @ p.b)[None, :]


def partition_function(p: RbmParams) -> float:
    """log Z = log sum over all joint states of exp(-E(v, h))."""
    _check_enumerable(p)
    return float(_logsumexp(_neg_energy_table(p)))


def visible_marginal(p: RbmParams) -> np.ndarray:
    """P(v) for every visible state, marginalizing the hidden units out.

    Indexed by enumerate_states(n_visible) row order. Normalized by
    partition_function rather than by its own sum, so the result sums to
    1 only if log Z is right.
    """
    _check_enumerable(p)
    log_pv = _logsumexp(_neg_energy_table(p), axis=1)
    return np.exp(log_pv - partition_function(p))


def joint_table(p: RbmParams) -> np.ndarray:
    """P(v, h) over the full joint grid, visible rows x hidden columns."""
    _check_enumerable(p)
    neg_e = _neg_energy_table(p)
    return np.exp(neg_e - _logsumexp(neg_e))


def exact_gradient(p: RbmParams, data: np.ndarray, weights=None):
    """Data-clamped and exact model-expectation statistics.

    The positive half averages v x P(h=1|v) over the dataset rows
    (optionally weighted); the negative half sums v_i h_j, v_i, h_j over
    the entire joint distribution. Their difference is the exact gradient
    of the mean data log-likelihood.
    """
    _check_enumerable(p)
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if data.shape[0] == 0:
        raise ValueError("empty dataset")
    q = hidden_probs(p, data)
    if weights is None:
        pos = batch_stats(data, q)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        wn = weights / weights.sum()
        pos = GradientStats(
            vh=(data * wn[:, None]).T @ q,
            v=wn @ data,
            h=wn @ q,
            count=data.shape[0],
        )

    P = joint_table(p)
    V = enumerate_states(p.n_visible)
    H = enumerate_states(p.n_hidden)
    neg = GradientStats(
        vh=V.T @ P @ H,
        v=P.sum(axis=1) @ V,
        h=P.sum(axis=0) @ H,
        count=P.size,
    )
    return pos, neg


def mean_log_likelihood(p: RbmParams, data: np.ndarray, weights=None) -> float:
    """Mean of log P(v) over dataset rows, by full enumeration."""
    _check_enumerable(p)
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    H = enumerate_states(p.n_hidden)
    # log sum_h exp(-E(v, h)) for each data row, then subtract log Z
    neg_e = data @ p.w @ H.T + (data @ p.a)[:, None] + (H @ p.b)[None, :]
    log_unnorm = _logsumexp(neg_e, axis=1)
    log_pv = log_unnorm - partition_function(p)
    if weights is None:
        return float(np.mean(log_pv))
    weights = np.asarray(weights, dtype=np.float64)
    return float((weights / weights.sum()) @ log_pv)


def free_energy_entropy_form(p: RbmParams, v) -> float:
    """Free energy via the expected-input-plus-entropy decomposition.

    F(v) = -a.v - sum_j q_j I_j + sum_j [q_j log q_j + (1-q_j) log(1-q_j)]
    with q_j the hidden activation probability for input I_j; the q log q
    terms are clamped to 0 where q saturates. Algebraically equal to the
    closed softplus form in model.free_energy — kept separate as a
    cross-check of that identity.
    """
    if p.visible_kind != BINARY:
        raise ValueError("entropy form applies to binary visible units")
    v = np.asarray(v, dtype=np.float64)
    inputs = v @ p.w + p.b
    q = hidden_probs(p, v)

    def xlogx(x):
        out = np.zeros_like(x)
        interior = (x > 0) & (x < 1)
        out[interior] = x[interior] * np.log(x[interior])
        return out

    entropy_part = np.sum(xlogx(q) + xlogx(1.0 - q))
    return float(-(v @ p.a) - np.sum(q * inputs) + entropy_part)


def finite_diff_loglik_grad(p: RbmParams, data: np.ndarray, step: float = 1e-5,
                            weights=None) -> dict:
    """Central-difference gradient of the mean log-likelihood.

    Perturbs every entry of w, a and b by +-step and differences the
    enumerated objective; entirely independent of exact_gradient's
    expectation algebra.
    """
    _check_enumerable(p)
    if not (1e-7 <= step <= 1e-3):
        raise ValueError("step must lie in [1e-7, 1e-3]")

    def loglik_with(w, a, b):
        q = RbmParams(w, a, b, p.visible_kind, p.label_units)
        return mean_log_likelihood(q, data, weights)

    grads = {}
    for name in ("w", "a", "b"):
        base = getattr(p, name)
        g = np.zeros_like(base)
        flat = g.reshape(-1)
        for idx in range(base.size):
            for sign in (+1.0, -1.0):
                pert = base.copy().reshape(-1)
                pert[idx] += sign * step
                arrs = {n: getattr(p, n) for n in ("w", "a", "b")}
                arrs[name] = pert.reshape(base.shape)
                val = loglik_with(arrs["w"], arrs["a"], arrs["b"])
                flat[idx] += sign * val
            flat[idx] /= 2.0 * step
        grads[name] = g
    return grads
