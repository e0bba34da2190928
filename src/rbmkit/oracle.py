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
    "CheckResult",
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


class CheckResult:
    """Outcome of one identity check; repr is the line oracle-check prints."""

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = ok
        self.detail = detail

    def __repr__(self):
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name}" + (f" ({self.detail})" if self.detail else "")


def _random_model(n_visible, n_hidden, rng) -> RbmParams:
    return RbmParams(rng.normals((n_visible, n_hidden)),
                     rng.normals((n_visible,)), rng.normals((n_hidden,)))


def run_oracle_checks(n_visible: int = 3, n_hidden: int = 3, trials: int = 25,
                      seed: int = 0, free_energy_fn=None) -> list:
    """Identity suite over random models; one result per invariant.

    free_energy_fn overrides the closed-form free energy under test (used
    to verify the suite actually catches a broken implementation).
    """
    if n_visible + n_hidden > MAX_ENUM_UNITS:
        raise ValueError("size exceeds the enumeration cap")
    if free_energy_fn is None:
        free_energy_fn = free_energy
    names = ["marginal_normalization", "free_energy_marginalization",
             "free_energy_two_forms", "conditional_consistency",
             "gradient_finite_difference", "gibbs_stationarity"]
    worst = {name: 0.0 for name in names}

    for trial in range(trials):
        rng = RngStream(seed, 1000 + trial)
        p = _random_model(n_visible, n_hidden, rng)
        V = enumerate_states(n_visible)
        H = enumerate_states(n_hidden)

        marg = visible_marginal(p)
        worst["marginal_normalization"] = max(
            worst["marginal_normalization"], abs(float(marg.sum()) - 1.0))

        joint = joint_table(p)
        for s in range(V.shape[0]):
            v = V[s]
            neg_e = np.array([v @ p.w @ H[t] + p.a @ v + p.b @ H[t]
                              for t in range(H.shape[0])])
            m = neg_e.max()
            brute_f = -(m + np.log(np.exp(neg_e - m).sum()))
            worst["free_energy_marginalization"] = max(
                worst["free_energy_marginalization"],
                abs(free_energy_fn(p, v) - brute_f))
            worst["free_energy_two_forms"] = max(
                worst["free_energy_two_forms"],
                abs(free_energy_entropy_form(p, v) - free_energy(p, v)))
            # P(h_j = 1 | v) by direct enumeration of the joint row
            row = joint[s]
            cond = (row @ H) / row.sum()
            worst["conditional_consistency"] = max(
                worst["conditional_consistency"],
                float(np.max(np.abs(cond - hidden_probs(p, v)))))

        data = (rng.uniforms((6, n_visible)) < 0.5).astype(float)
        pos, neg = exact_gradient(p, data)
        fd = finite_diff_loglik_grad(p, data, step=1e-5)
        worst["gradient_finite_difference"] = max(
            worst["gradient_finite_difference"],
            float(np.max(np.abs((pos.vh - neg.vh) - fd["w"]))),
            float(np.max(np.abs((pos.v - neg.v) - fd["a"]))),
            float(np.max(np.abs((pos.h - neg.h) - fd["b"]))))

        if trial < 3:
            chains = make_pool((rng.uniforms((16, n_visible)) < 0.5).astype(float),
                               16, seed + trial)
            noise = chains.noise(p)
            counts = np.zeros(V.shape[0])
            ids = (2 ** np.arange(n_visible - 1, -1, -1)).astype(np.int64)
            for _ in range(400):
                chains.states, _, _ = gibbs_chain(p, chains.states, 1, noise)
                idx = (chains.states.astype(np.int64) @ ids)
                np.add.at(counts, idx, 1.0)
            emp = counts / counts.sum()
            tv = 0.5 * float(np.abs(emp - marg).sum())
            worst["gibbs_stationarity"] = max(worst["gibbs_stationarity"], tv)

    tolerances = {
        "marginal_normalization": 1e-10,
        "free_energy_marginalization": 1e-10,
        "free_energy_two_forms": 1e-8,
        "conditional_consistency": 1e-10,
        "gradient_finite_difference": 1e-6,
        "gibbs_stationarity": 0.08,
    }
    results = []
    for name in names:
        if trials == 0:
            results.append(CheckResult(name, True, "no trials"))
            continue
        tol = tolerances[name]
        results.append(CheckResult(name, worst[name] <= tol,
                                   f"worst {worst[name]:.3e} vs {tol:.0e}"))
    return results
