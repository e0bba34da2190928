"""Exact ground truth for small binary RBMs, by enumeration.

In an RBM either layer can be summed out in closed form, so each value
here enumerates one layer's states and sums the other layer out:

- partition_function enumerates the 2^n_hidden hidden states, the
  visible layer summed out:
  log Z = logsumexp_h [b.h + sum_i softplus(a_i + (W h)_i)].
- exact_gradient's negative statistics enumerate the same hidden states,
  each weighted by P(h): E[v h^T] = sum_h P(h) sigmoid(a + W h) h^T.
- visible_marginal (every visible state) and mean_log_likelihood (the
  data rows) take log P(v) = -F(v) - log Z, with this module's own
  closed-form -F(v) = a.v + sum_j softplus(b_j + (v W)_j), the hidden
  layer summed out, and log Z from partition_function.
- joint_table enumerates the whole 2^(n_visible + n_hidden) joint grid.

Models must have binary visible units and at most MAX_ENUM_UNITS units in
total; larger requests fail loudly rather than silently approximating.
Under that cap the closed forms hold no array of more than 2^19 floats
(4 MiB) beside the state grid they enumerate and the data rows' -F terms.

run_oracle_checks bundles these into the identity suite behind the
oracle-check command. Each trial calls the functions under test
(visible_marginal, free_energy, free_energy_entropy_form, hidden_probs,
exact_gradient) through this module's bindings, one model at a time. The
witnesses they are checked against are built afterwards for a group of
trials at once, as stacked models, as many trials a group as
FD_BLOCK_BYTES of joint tables holds: one joint -E table per group, which
log_sum_exp reduces to brute -F while leaving each row's exp(-E - max_h)
for the conditionals to read, and the finite-difference gradient.

All sums run in log space (log-sum-exp). Each call builds the state grids
it needs with enumerate_states, which returns a fresh array, and keeps
none of them past its return; the module holds no state between calls.
"""

from __future__ import annotations

import numpy as np

from .core import RngStream, log1p_exp, log_sum_exp, sigmoid, softmax
from .model import (BINARY, GradientStats, RbmParams, batch_stats, free_energy,
                    hidden_probs)
from .samplers import gibbs_chain, make_pool

MAX_ENUM_UNITS = 20

# Bytes of working set that one block of finite_diff_loglik_grad's stacked
# perturbed models may hold (see _model_bytes), and of joint tables that
# one group of run_oracle_checks' trials may hold. Small models gain from
# sharing numpy calls (3x3's 30 models: 6 ms one model a block, 0.16 ms in
# one block); at 8 MiB, 8x8 and 10x8 ran 1.1-1.4x slower than at 1 MiB
# (2-vCPU Xeon, one BLAS thread, medians of 15 calls).
FD_BLOCK_BYTES = 2 ** 20

# finite_diff_loglik_grad's central-difference step on every parameter
FD_STEP = 1e-5

__all__ = [
    "MAX_ENUM_UNITS",
    "FD_BLOCK_BYTES",
    "FD_STEP",
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
    so the row index doubles as a state id. The bits come from each id's
    four big-endian bytes, one uint8 each, so the only temporaries beside
    the float64 result are 4 + 32 bytes a row.
    """
    if n_units > MAX_ENUM_UNITS:
        raise ValueError(f"refusing to enumerate 2^{n_units} states")
    ids = np.arange(2 ** n_units, dtype=">u4")
    bits = np.unpackbits(ids.view(np.uint8).reshape(-1, 4), axis=1)
    return bits[:, 32 - n_units:].astype(np.float64)


def state_index(v):
    """Row index of a binary vector in enumerate_states order; for a
    batch of rows, an int64 array of their row indices."""
    bits = np.asarray(v).astype(np.int64)
    n = bits.shape[-1]
    ids = bits @ (2 ** np.arange(n - 1, -1, -1))
    return int(ids) if ids.ndim == 0 else ids


def _neg_energy_tables(w, a, b, rows, H) -> np.ndarray:
    """-E(v, h) of K stacked models, w (K, n_v, n_h), a (K, n_v) and
    b (K, n_h), for each of the rows against every hidden state, H being
    enumerate_states(n_h): an array of shape (K, R, 2^n_h). rows is
    (R, n_v), shared by the models, or (K, R, n_v), each model's own.

    matmul runs one BLAS call per model, so each slice is bit-identical to
    the single-model table. The bias terms are matrix-vector products for
    the same reason; one matrix product across the models would sum them
    in another order. They are added into the product's own buffer.
    """
    table = rows @ w @ H.T
    table += rows @ a[:, :, None]
    table += (H @ b[:, :, None]).transpose(0, 2, 1)
    return table


def _neg_free_energies(w, a, b, rows) -> np.ndarray:
    """-F(v) = a.v + sum_j softplus(b_j + (v W)_j) of K stacked models (see
    _neg_energy_tables) for each of the rows, the hidden layer summed out:
    shape (K, R). The oracle's own marginalization of h, written apart
    from model.free_energy, which the identities check against it."""
    x = rows @ w
    x += b[:, None, :]
    return (rows @ a[:, :, None])[..., 0] + log1p_exp(x).sum(axis=2)


def _hidden_product(H, w, b) -> np.ndarray:
    """H @ [W^T | b] of K stacked models (see _neg_energy_tables), H the
    hidden grid: shape (K, 2^n_h, n_v + 1), each hidden state's (W h)_i
    followed by its b.h."""
    return H @ np.concatenate([w.transpose(0, 2, 1), b[:, :, None]], axis=2)


def _hidden_log_weights(x, a):
    """The hidden side of K stacked models with the visible layer summed
    out, from x = _hidden_product(H, w, b): (act, log_w), act = a + W h
    (K, 2^n_h, n_v) in x's own buffer and
    log_w = b.h + sum_i softplus(a_i + (W h)_i) (K, 2^n_h), each hidden
    state's unnormalized log P(h)."""
    act = x[..., :-1]
    act += a[:, None, :]
    return act, x[..., -1] + log1p_exp(act).sum(axis=2)


def _log_partitions(w, a, b) -> np.ndarray:
    """log Z = logsumexp_h log_w of K stacked models, shape (K,), summed
    over the 2^n_h hidden states (see _hidden_log_weights).

    The hidden grid is a temporary of the product, so at 2x18 (36 MiB) it
    is gone before the softplus.
    """
    x = _hidden_product(enumerate_states(w.shape[2]), w, b)
    return log_sum_exp(_hidden_log_weights(x, a)[1], axis=1)


def _stack(p: RbmParams):
    """(w, a, b) of p as a stack of one model."""
    return p.w[None], p.a[None], p.b[None]


def partition_function(p: RbmParams) -> float:
    """log Z, summed over the hidden states with the visible layer summed
    out in closed form."""
    _check_enumerable(p)
    return float(_log_partitions(*_stack(p))[0])


def visible_marginal(p: RbmParams) -> np.ndarray:
    """P(v) for every visible state: exp(-F(v) - log Z), the hidden layer
    summed out in closed form.

    Indexed by enumerate_states(n_visible) row order. Normalized by
    partition_function, which sums over the other layer, rather than by
    its own sum, so the result sums to 1 only if both are right.
    """
    _check_enumerable(p)
    log_pv = _neg_free_energies(*_stack(p), enumerate_states(p.n_visible))[0]
    return np.exp(log_pv - partition_function(p))


def joint_table(p: RbmParams) -> np.ndarray:
    """P(v, h) over the full joint grid, visible rows x hidden columns:
    exp(-E(v, h) - log Z), normalized by partition_function."""
    _check_enumerable(p)
    joint = _neg_energy_tables(*_stack(p), enumerate_states(p.n_visible),
                               enumerate_states(p.n_hidden))[0]
    joint -= partition_function(p)
    return np.exp(joint, out=joint)


def _binary_rows(p: RbmParams, data) -> np.ndarray:
    """data as a float64 (rows, n_visible) array of 0/1 entries; anything
    else raises ValueError naming the problem."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if data.size == 0:
        raise ValueError("empty dataset")
    if data.ndim != 2 or data.shape[1] != p.n_visible:
        raise ValueError(f"data rows must have n_visible={p.n_visible} "
                         f"entries, got shape {data.shape}")
    if not np.all((data == 0.0) | (data == 1.0)):
        raise ValueError("data entries must be 0 or 1")
    return data


def exact_gradient(p: RbmParams, data: np.ndarray):
    """Data-clamped and exact model-expectation statistics.

    The positive half averages v x P(h=1|v) over the dataset rows. The
    negative half sums over the hidden states with the visible layer
    summed out: E[v h^T] = sum_h P(h) sigmoid(a + W h) h^T, E[v] =
    sum_h P(h) sigmoid(a + W h) and E[h] = sum_h P(h) h, P(h) being the
    exponentiated log-weights of _hidden_log_weights over their own sum.
    Their difference is the exact gradient of the mean data log-likelihood.
    """
    _check_enumerable(p)
    data = _binary_rows(p, data)
    pos = batch_stats(data, hidden_probs(p, data))

    H = enumerate_states(p.n_hidden)
    w, a, b = _stack(p)
    act, ph = _hidden_log_weights(_hidden_product(H, w, b), a)
    act, ph = act[0], softmax(ph[0])  # P(h)
    pv = sigmoid(act)  # P(v_i = 1 | h)
    pv *= ph[:, None]
    neg = GradientStats(vh=pv.T @ H, v=pv.sum(axis=0), h=ph @ H,
                        count=2 ** (p.n_visible + p.n_hidden))
    return pos, neg


def mean_log_likelihood(p: RbmParams, data: np.ndarray) -> float:
    """Mean of log P(v) = -F(v) - log Z over dataset rows."""
    _check_enumerable(p)
    data = _binary_rows(p, data)
    log_pv = _neg_free_energies(*_stack(p), data)[0] - partition_function(p)
    return float(np.mean(log_pv))


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
    q = sigmoid(inputs)

    def xlogx(x):
        out = np.zeros_like(x)
        interior = (x > 0) & (x < 1)
        out[interior] = x[interior] * np.log(x[interior])
        return out

    entropy_part = np.sum(xlogx(q) + xlogx(1.0 - q), axis=-1)
    out = -(v @ p.a) - np.sum(q * inputs, axis=-1) + entropy_part
    return float(out) if out.ndim == 0 else out


def _model_bytes(n_visible: int, n_hidden: int, n_rows: int) -> int:
    """Bytes one model holds while its mean log-likelihood on n_rows rows
    is evaluated: three float64 arrays (a product, its softplus and a
    temporary) of log Z's 2^n_hidden x (n_visible + 1) or -F's n_rows x
    n_hidden, whichever is larger."""
    return 3 * 8 * max(2 ** n_hidden * (n_visible + 1), n_rows * n_hidden)


def _finite_diff_grads(w, a, b, data) -> np.ndarray:
    """Central-difference gradient of the mean log-likelihood of each of
    K stacked models on its own rows, data (K, R, n_v): shape (K, P), the
    P entries of each model's flattened w, a, b.

    Model k's 2P perturbed models (model 2i moves entry i by +FD_STEP,
    model 2i+1 by -FD_STEP) are evaluated as stacks, each reading model
    k's rows, as many models per block as FD_BLOCK_BYTES allows, all
    blocks reading one hidden grid. Each model's value is bit-identical to
    mean_log_likelihood's.
    """
    k, n_v, n_h = w.shape
    flat = np.concatenate([w.reshape(k, -1), a, b], axis=1)
    n = flat.shape[1]
    entry = np.arange(n)
    params = np.repeat(flat[:, None, :], 2 * n, axis=1)
    params[:, 2 * entry, entry] += FD_STEP
    params[:, 2 * entry + 1, entry] -= FD_STEP
    params = params.reshape(-1, n)
    owner = np.repeat(np.arange(k), 2 * n)

    W = params[:, :n_v * n_h].reshape(-1, n_v, n_h)
    A, B = params[:, n_v * n_h:-n_h], params[:, -n_h:]

    H = enumerate_states(n_h)
    block = max(1, FD_BLOCK_BYTES // _model_bytes(n_v, n_h, data.shape[1]))
    loglik = []
    for s in range(0, len(params), block):
        m = slice(s, s + block)
        log_pv = _neg_free_energies(W[m], A[m], B[m], data[owner[m]])
        log_w = _hidden_log_weights(_hidden_product(H, W[m], B[m]), A[m])[1]
        loglik.append(np.mean(log_pv - log_sum_exp(log_w, axis=1)[:, None], axis=1))
    loglik = np.concatenate(loglik)

    return ((loglik[0::2] - loglik[1::2]) / (2.0 * FD_STEP)).reshape(k, n)


def finite_diff_loglik_grad(p: RbmParams, data: np.ndarray) -> dict:
    """Central-difference gradient of the mean log-likelihood.

    Perturbs every entry of w, a and b by +-FD_STEP and differences the
    enumerated objective; entirely independent of exact_gradient's
    expectation algebra.
    """
    _check_enumerable(p)
    data = _binary_rows(p, data)
    n_v, n_h = p.n_visible, p.n_hidden
    g = _finite_diff_grads(*_stack(p), data[None])[0]
    return {"w": g[:n_v * n_h].reshape(n_v, n_h), "a": g[n_v * n_h:-n_h],
            "b": g[-n_h:]}


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


def _stationarity_tvs(models, starts, margs, sweeps: int, seed: int) -> list:
    """Total-variation distance between the visible states each model's
    chains visit over `sweeps` one-sweep Gibbs steps, from its start
    states, and that model's marginal, one per model.

    The models, all of one size, run as one pool on their disjoint union:
    an RBM with their weights on the diagonal blocks and their biases
    concatenated, its start states the models' joined in model order. Its
    conditionals factorize over the blocks, so one sweep of the union is
    one sweep of every model, each model's chains drawing from its slice
    of the pool's streams (seed, CHAIN_STREAM_BASE + c). With one model
    the union is that model.
    """
    n_v, n_h = models[0].n_visible, models[0].n_hidden
    w = np.zeros((len(models) * n_v, len(models) * n_h))
    for t, p in enumerate(models):
        w[t * n_v:(t + 1) * n_v, t * n_h:(t + 1) * n_h] = p.w
    union = RbmParams(w, np.concatenate([p.a for p in models]),
                      np.concatenate([p.b for p in models]))
    pool = make_pool(np.concatenate(starts, axis=1), len(starts[0]), seed)
    noise = pool.noise(union)
    states, ph = pool.states, None
    visited = np.empty((sweeps,) + states.shape, dtype=bool)
    for sweep in range(sweeps):
        states, ph, _ = gibbs_chain(union, states, 1, noise, ph)
        visited[sweep] = states
    # state ids, shaped (sweeps, chains, models)
    ids = state_index(visited.reshape(sweeps, len(states), len(models), n_v))
    tvs = []
    for t, marg in enumerate(margs):
        counts = np.bincount(ids[..., t].ravel(), minlength=marg.size)
        tv = 0.5 * np.abs(counts / counts.sum() - marg).sum()
        tvs.append(tv)
    return tvs


def run_oracle_checks(n_visible: int = 3, n_hidden: int = 3, trials: int = 25,
                      seed: int = 0) -> list:
    """Identity suite over random models; one result per invariant.

    Each compares two routes to one quantity, over all 2^n_visible states
    for the first four: sum_v exp(-F(v)) (h summed out) against
    partition_function (v summed out); free_energy against brute -F from
    the joint -E table; free_energy against free_energy_entropy_form;
    hidden_probs against the joint table's rows; exact_gradient (sums
    over h) against finite differences of mean -F(v) - log Z; the states
    a Gibbs chain visits against visible_marginal.

    Each trial calls the functions under test through this module's
    bindings, so a fault patched into one of them (as the tests do) shows
    as that identity's failure, a NaN gap included. The witnesses are
    built for a group of trials at a time as stacked models, each slice
    bit-identical to building it for the trial alone.
    """
    if n_visible < 1:
        raise ValueError(f"n_visible (--visible) must be >= 1, got {n_visible}")
    if n_hidden < 1:
        raise ValueError(f"n_hidden (--hidden) must be >= 1, got {n_hidden}")
    if trials < 0:
        raise ValueError(f"trials (--trials) must be >= 0, got {trials}")
    if n_visible + n_hidden > MAX_ENUM_UNITS:
        raise ValueError(
            f"n_visible + n_hidden (--visible + --hidden) = {n_visible + n_hidden} "
            f"exceeds the enumeration cap MAX_ENUM_UNITS = {MAX_ENUM_UNITS}")
    if trials == 0:
        return [CheckResult(name, True, "no trials") for name in TOLERANCES]
    V = enumerate_states(n_visible)
    worst = dict.fromkeys(TOLERANCES, 0.0)
    # (model, chains' start states, visible marginal) of the first three trials
    stationarity = []

    def note(name, gaps):
        # np.maximum keeps a NaN gap, which then fails the identity
        worst[name] = float(np.maximum(worst[name], np.max(gaps)))

    # Trials a group: as many joint tables as FD_BLOCK_BYTES holds, and at
    # least one (4x14, say, whose table is 2 MiB)
    group = max(1, FD_BLOCK_BYTES // (8 * 2 ** (n_visible + n_hidden)))
    for first in range(0, trials, group):
        # the functions under test, one trial at a time
        models, rows, closed_f, probs, grads = [], [], [], [], []
        for trial in range(first, min(first + group, trials)):
            rng = RngStream(seed, 1000 + trial)
            p = _random_model(n_visible, n_hidden, rng)

            marg = visible_marginal(p)
            note("marginal_normalization", abs(marg.sum() - 1.0))

            f = free_energy(p, V)
            note("free_energy_two_forms", np.abs(free_energy_entropy_form(p, V) - f))

            data = (rng.uniforms((6, n_visible)) < 0.5).astype(float)
            pos, neg = exact_gradient(p, data)
            models.append(p)
            rows.append(data)
            closed_f.append(f)
            probs.append(hidden_probs(p, V))
            grads.append(np.concatenate([(pos.vh - neg.vh).ravel(), pos.v - neg.v,
                                         pos.h - neg.h]))

            if trial < 3:
                start = (rng.uniforms((16, n_visible)) < 0.5).astype(float)
                stationarity.append((p, start, marg))

        # their witnesses, the group's models stacked; H is let go before
        # the finite difference builds its own
        w = np.stack([p.w for p in models])
        a = np.stack([p.a for p in models])
        b = np.stack([p.b for p in models])
        H = enumerate_states(n_hidden)
        table = _neg_energy_tables(w, a, b, V, H)
        brute_f = -log_sum_exp(table, axis=2)
        note("free_energy_marginalization", np.abs(np.stack(closed_f) - brute_f))

        # P(h_j = 1 | v) by direct enumeration of each joint row, from the
        # exp(-E - max_h) that log_sum_exp leaves in the table
        cond = (table @ H) / table.sum(axis=2, keepdims=True)
        note("conditional_consistency", np.abs(cond - np.stack(probs)))
        del table, H

        fd = _finite_diff_grads(w, a, b, np.stack(rows))
        note("gradient_finite_difference", np.abs(np.stack(grads) - fd))

    note("gibbs_stationarity", _stationarity_tvs(*zip(*stationarity), 400, seed))
    return [CheckResult(name, worst[name] <= tol, f"worst {worst[name]:.3e} vs {tol:.0e}")
            for name, tol in TOLERANCES.items()]
