"""Brute-force ground truth for small binary RBMs.

Everything here enumerates the full 2^(n_visible + n_hidden) state space,
so it is the reference against which the closed-form free energy and the
sampling-based gradient estimators are measured. Models must have binary
visible units and at most MAX_ENUM_UNITS units in total; larger requests
fail loudly rather than silently approximating.

run_oracle_checks bundles these into the identity suite behind the
oracle-check command.

All sums run in log space (log-sum-exp); numpy's pairwise summation keeps
results summation-order-robust well below the 1e-10 tolerances used by
the identity checks.
"""

from __future__ import annotations

import numpy as np

from .core import RngStream
from .model import (BINARY, GradientStats, RbmParams, batch_stats, free_energy,
                    hidden_probs)
from .samplers import gibbs_chain, make_pool

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
    "state_index",
    "CheckResult",
    "TOLERANCES",
    "run_oracle_checks",
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


def state_index(v):
    """Row index of a binary vector in enumerate_states order; for a
    batch of rows, an int64 array of their row indices."""
    bits = np.asarray(v).astype(np.int64)
    n = bits.shape[-1]
    ids = bits @ (2 ** np.arange(n - 1, -1, -1))
    return int(ids) if ids.ndim == 0 else ids


def _neg_energy_table(p: RbmParams, rows=None) -> np.ndarray:
    """-E(v, h) for each visible row (by default every visible state, the
    full joint grid) against every hidden state."""
    V = enumerate_states(p.n_visible) if rows is None else rows
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
    # log sum_h exp(-E(v, h)) for each data row, then subtract log Z
    log_unnorm = _logsumexp(_neg_energy_table(p, data), axis=1)
    log_pv = log_unnorm - partition_function(p)
    if weights is None:
        return float(np.mean(log_pv))
    weights = np.asarray(weights, dtype=np.float64)
    return float((weights / weights.sum()) @ log_pv)


def free_energy_entropy_form(p: RbmParams, v):
    """Free energy via the expected-input-plus-entropy decomposition.

    F(v) = -a.v - sum_j q_j I_j + sum_j [q_j log q_j + (1-q_j) log(1-q_j)]
    with q_j the hidden activation probability for input I_j; the q log q
    terms are clamped to 0 where q saturates. Algebraically equal to the
    closed softplus form in model.free_energy — kept separate as a
    cross-check of that identity. Like free_energy, returns a float for a
    single vector and a 1-D array for a batch of rows.
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

    entropy_part = np.sum(xlogx(q) + xlogx(1.0 - q), axis=-1)
    out = -(v @ p.a) - np.sum(q * inputs, axis=-1) + entropy_part
    return float(out) if out.ndim == 0 else out


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

    q = p.copy()
    grads = {}
    for name in ("w", "a", "b"):
        param = getattr(q, name).reshape(-1)  # a view: writes perturb q
        g = np.zeros(param.size)
        for idx in range(param.size):
            base = param[idx]
            for sign in (+1.0, -1.0):
                param[idx] = base + sign * step
                g[idx] += sign * mean_log_likelihood(q, data, weights)
            param[idx] = base
            g[idx] /= 2.0 * step
        grads[name] = g.reshape(getattr(p, name).shape)
    return grads


class CheckResult:
    """Outcome of one identity check; repr is the line oracle-check prints."""

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = bool(ok)
        self.detail = detail

    def __repr__(self):
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name}" + (f" ({self.detail})" if self.detail else "")


# identity -> largest gap tolerated over all trials, in report order
TOLERANCES = {
    "marginal_normalization": 1e-10,
    "free_energy_marginalization": 1e-10,
    "free_energy_two_forms": 1e-8,
    "conditional_consistency": 1e-10,
    "gradient_finite_difference": 1e-6,
    "gibbs_stationarity": 0.08,
}


def _random_model(n_visible, n_hidden, rng) -> RbmParams:
    return RbmParams(rng.normals((n_visible, n_hidden)),
                     rng.normals((n_visible,)), rng.normals((n_hidden,)))


def run_oracle_checks(n_visible: int = 3, n_hidden: int = 3, trials: int = 25,
                      seed: int = 0, free_energy_fn=None) -> list:
    """Identity suite over random models; one result per invariant.

    Every identity but the gradient and Gibbs checks is evaluated on all
    2^n_visible visible states at once. free_energy_fn overrides the
    closed-form free energy under test (used to verify the suite actually
    catches a broken implementation); it receives the whole state matrix.
    """
    if n_visible < 1:
        raise ValueError(f"n_visible (--visible) must be >= 1, got {n_visible}")
    if n_hidden < 1:
        raise ValueError(f"n_hidden (--hidden) must be >= 1, got {n_hidden}")
    if trials < 0:
        raise ValueError(f"trials (--trials) must be >= 0, got {trials}")
    if n_visible + n_hidden > MAX_ENUM_UNITS:
        raise ValueError("size exceeds the enumeration cap")
    if trials == 0:
        return [CheckResult(name, True, "no trials") for name in TOLERANCES]
    if free_energy_fn is None:
        free_energy_fn = free_energy
    V = enumerate_states(n_visible)
    H = enumerate_states(n_hidden)
    worst = dict.fromkeys(TOLERANCES, 0.0)

    def note(name, gaps):
        worst[name] = max(worst[name], float(np.max(gaps)))

    for trial in range(trials):
        rng = RngStream(seed, 1000 + trial)
        p = _random_model(n_visible, n_hidden, rng)

        marg = visible_marginal(p)
        note("marginal_normalization", abs(marg.sum() - 1.0))

        brute_f = -_logsumexp(_neg_energy_table(p), axis=1)
        note("free_energy_marginalization", np.abs(free_energy_fn(p, V) - brute_f))
        note("free_energy_two_forms",
             np.abs(free_energy_entropy_form(p, V) - free_energy(p, V)))

        # P(h_j = 1 | v) by direct enumeration of each joint row
        joint = joint_table(p)
        cond = (joint @ H) / joint.sum(axis=1, keepdims=True)
        note("conditional_consistency", np.abs(cond - hidden_probs(p, V)))

        data = (rng.uniforms((6, n_visible)) < 0.5).astype(float)
        pos, neg = exact_gradient(p, data)
        fd = finite_diff_loglik_grad(p, data, step=1e-5)
        grad_gaps = [(pos.vh - neg.vh) - fd["w"], (pos.v - neg.v) - fd["a"],
                     (pos.h - neg.h) - fd["b"]]
        note("gradient_finite_difference", max(np.max(np.abs(g)) for g in grad_gaps))

        if trial < 3:
            chains = make_pool((rng.uniforms((16, n_visible)) < 0.5).astype(float),
                               16, seed + trial)
            noise = chains.noise(p)
            states, ph = chains.states, None
            counts = np.zeros(V.shape[0])
            for _ in range(400):
                states, ph, _ = gibbs_chain(p, states, 1, noise, ph)
                np.add.at(counts, state_index(states), 1.0)
            tv = 0.5 * np.abs(counts / counts.sum() - marg).sum()
            note("gibbs_stationarity", tv)

    return [CheckResult(name, worst[name] <= tol, f"worst {worst[name]:.3e} vs {tol:.0e}")
            for name, tol in TOLERANCES.items()]
