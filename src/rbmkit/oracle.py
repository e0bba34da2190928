"""Brute-force ground truth for small binary RBMs.

Everything here enumerates the full 2^(n_visible + n_hidden) state space,
so it is the reference against which the closed-form free energy and the
sampling-based gradient estimators are measured. Models must have binary
visible units and at most MAX_ENUM_UNITS units in total; larger requests
fail loudly rather than silently approximating.

run_oracle_checks bundles these into the identity suite behind the
oracle-check command. Each trial calls the functions under test
(visible_marginal, free_energy, free_energy_entropy_form, hidden_probs,
exact_gradient) through this module's bindings, one model at a time. The
witnesses they are checked against (brute -F, the joint table behind the
conditionals, the finite-difference gradient) are built afterwards for a
group of trials at once, as stacked models, as many trials a group as
FD_BLOCK_BYTES of tables holds.

All sums run in log space (log-sum-exp); numpy's pairwise summation keeps
results summation-order-robust well below the 1e-10 tolerances used by
the identity checks.

An enumeration builds its 2^(n_visible + n_hidden) table a block of
visible rows at a time, each block at most ENUM_BLOCK_BYTES of one
model's table, and reduces each block before it builds the next: the bias
terms are added into the product's buffer, and the log-sum-exp shifts and
exponentiates that same buffer. So on a 12x8 model (8 MiB a table) every
public function but joint_table, whose output is the table, peaks near
one 1 MiB block.

The state grids an enumeration reads are built once per unit count and
kept, read-only, when the whole grid is at most ENUM_BLOCK_BYTES (13
units or fewer at 1 MiB); larger grids are built afresh on each call.
enumerate_states always returns a fresh writable copy.
"""

from __future__ import annotations

import numpy as np

from .core import RngStream, sigmoid
from .model import (BINARY, GradientStats, RbmParams, batch_stats, free_energy,
                    hidden_probs)
from .samplers import gibbs_chain, make_pool

MAX_ENUM_UNITS = 20

# Bytes of one model's energy table that an enumeration holds at a time:
# tables are built and reduced a block of visible rows at a time, as many
# rows as this budget holds (at least one, so a row of more than 2^17
# hidden states is a block of its own). At 1 MiB a block fits a core's L2
# cache (2 MiB on the 2-vCPU Xeon measured). Against the whole table,
# partition_function at 12x8, 10x10, 14x6 and 8x12 took 0.82-1.04x the
# time (alternating runs, median of 40 each) and its traced peak at 12x8
# fell from 8.6 to 1.1 MiB. The log-sum-exp of a single block's value is
# that value exactly, so a table that fits one block gives the bits it
# gave before blocking.
ENUM_BLOCK_BYTES = 2 ** 20

# Bytes of energy tables that finite_diff_loglik_grad lets one block of
# stacked perturbed models hold; a model holds one row block of a table at
# a time (see ENUM_BLOCK_BYTES), so this bounds the block's working set.
# Small models gain from sharing numpy calls: against one model a block, 3x3 (30 models, one block) went
# from 3.2 to 0.2 ms and 6x6 from 13 to 5 ms. Blocks that outgrow a
# core's L2 cache lose (2 MiB per core on the 2-vCPU Xeon measured, one
# BLAS thread): at an 8 MiB budget 8x6 and 8x8 ran 1.5-2x slower than one
# model at a time. Re-measured with one table per model over budgets of
# 256 KiB to 4 MiB, 1 MiB was within noise of the best at every size from
# 3x3 to 10x8, and 256 KiB ran 6x6 1.3x and 8x6 2x slower. From 10x8 up
# one model's row block fills the budget, so each model is its own block
# and the traced peak stays near one row block (1.3 MiB at 10x8, where
# stacking all 196 models would take 400 MB).
FD_BLOCK_BYTES = 2 ** 20

# finite_diff_loglik_grad's central-difference step on every parameter
FD_STEP = 1e-5

__all__ = [
    "MAX_ENUM_UNITS",
    "ENUM_BLOCK_BYTES",
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


def _logsumexp(x, axis=None):
    """log sum exp(x) over axis (every entry by default).

    Consumes x: the max-shifted exponentials are computed in x's own
    buffer, so x must be a fresh float64 table that nothing else reads.
    """
    m = np.max(x, axis=axis, keepdims=True)
    x -= m
    np.exp(x, out=x)
    out = m.squeeze(axis) if axis is not None else m.reshape(())
    return out + np.log(np.sum(x, axis=axis))


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
    return _states(0, 2 ** n_units, n_units)


# n_units -> read-only enumerate_states(n_units), for grids of at most
# ENUM_BLOCK_BYTES; a default 3x3 oracle-check built 452 grids before them
_GRIDS = {}


def _grid(n_units: int) -> np.ndarray:
    """enumerate_states(n_units), read-only; kept for later calls when it
    is at most ENUM_BLOCK_BYTES."""
    grid = _GRIDS.get(n_units)
    if grid is None:
        grid = _states(0, 2 ** n_units, n_units)
        grid.flags.writeable = False
        if grid.nbytes <= ENUM_BLOCK_BYTES:
            _GRIDS[n_units] = grid
    return grid


def _states(start: int, stop: int, n_units: int) -> np.ndarray:
    """Rows start to stop - 1 of enumerate_states(n_units), n_units <= 32.

    The bits come from each id's four big-endian bytes, one uint8 each,
    so the only temporaries beside the float64 result are 4 + 32 bytes
    a row.
    """
    ids = np.arange(start, stop, dtype=">u4")
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


def _stack(p: RbmParams):
    """(w, a, b) of p as a stack of one model."""
    return p.w[None], p.a[None], p.b[None]


def _block_rows(n_hidden: int) -> int:
    """Visible rows in one block of a table: as many as ENUM_BLOCK_BYTES
    of float64 entries hold, 2^n_hidden a row, and at least one."""
    return max(1, ENUM_BLOCK_BYTES // (8 * 2 ** n_hidden))


def _by_block(w, a, b, reduce, rows=None) -> list:
    """reduce(block_rows, table) of each block of the rows in order, where
    table is the block's -E table (see _neg_energy_tables) and each holds
    _block_rows(n_hidden) of the rows (by default every visible state,
    built a block at a time). rows may be shared, (R, n_v), or one set a
    model, (K, R, n_v). reduce may consume its table, and only one block's
    table is alive at a time."""
    n_v, n_h = w.shape[1:]
    step = _block_rows(n_h)
    if rows is None and 2 ** n_v <= step:
        rows = _grid(n_v)
    n_rows = 2 ** n_v if rows is None else rows.shape[-2]
    H = _grid(n_h)
    out = []
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        block = _states(start, stop, n_v) if rows is None else rows[..., start:stop, :]
        out.append(reduce(block, _neg_energy_tables(w, a, b, block, H)))
    return out


def _log_partitions(w, a, b) -> np.ndarray:
    """log Z of each of K stacked models: the log-sum-exp of each block's
    log-sum-exp, shape (K,). A lone block's value is log Z as it stands;
    the log-sum-exp would return it unchanged, but its five numpy calls
    would add about 40% to a 3x3 partition_function and 5% to
    oracle-check at its defaults."""
    k = len(w)
    per_block = _by_block(w, a, b, lambda _, t: _logsumexp(t.reshape(k, -1), axis=1))
    if len(per_block) == 1:
        return per_block[0]
    return _logsumexp(np.stack(per_block, axis=1), axis=1)


def _log_unnormalized(w, a, b, rows=None) -> np.ndarray:
    """log sum_h exp(-E(v, h)) of K stacked models for each of the rows (by
    default every visible state), shape (K, rows)."""
    return np.concatenate(_by_block(w, a, b, lambda _, t: _logsumexp(t, axis=2), rows),
                          axis=1)


def partition_function(p: RbmParams) -> float:
    """log Z = log sum over all joint states of exp(-E(v, h))."""
    _check_enumerable(p)
    return float(_log_partitions(*_stack(p))[0])


def visible_marginal(p: RbmParams) -> np.ndarray:
    """P(v) for every visible state, marginalizing the hidden units out.

    Indexed by enumerate_states(n_visible) row order. Normalized by
    partition_function rather than by its own sum, so the result sums to
    1 only if log Z is right.
    """
    _check_enumerable(p)
    log_pv = _log_unnormalized(*_stack(p))[0]
    return np.exp(log_pv - partition_function(p))


def _joint_tables(w, a, b) -> np.ndarray:
    """P(v, h) of K stacked models over the full joint grid, shape
    (K, 2^n_v, 2^n_h), each normalized by its model's log Z. The tables
    are built whole, in one call, after log Z has freed its blocks."""
    log_z = _log_partitions(w, a, b)
    n_v, n_h = w.shape[1:]
    joint = _neg_energy_tables(w, a, b, _grid(n_v), _grid(n_h))
    joint -= log_z[:, None, None]
    return np.exp(joint, out=joint)


def joint_table(p: RbmParams) -> np.ndarray:
    """P(v, h) over the full joint grid, visible rows x hidden columns.

    The one enumeration that holds a whole table, as it is the output."""
    _check_enumerable(p)
    return _joint_tables(*_stack(p))[0]


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

    The positive half averages v x P(h=1|v) over the dataset rows; the
    negative half sums v_i h_j, v_i, h_j over the entire joint
    distribution. Their difference is the exact gradient of the mean data
    log-likelihood.

    The negative sums run a block of visible rows at a time, each block's
    P(v, h) normalized in its table's buffer, so the joint table is never
    held whole.
    """
    _check_enumerable(p)
    data = _binary_rows(p, data)
    pos = batch_stats(data, hidden_probs(p, data))

    log_z = partition_function(p)
    H = _grid(p.n_hidden)

    def block_sums(V, table):
        P = table[0]
        P -= log_z
        np.exp(P, out=P)
        return V.T @ P @ H, P.sum(axis=1) @ V, P.sum(axis=0) @ H

    vh, v, h = (sum(parts) for parts in zip(*_by_block(*_stack(p), block_sums)))
    neg = GradientStats(vh=vh, v=v, h=h, count=2 ** (p.n_visible + p.n_hidden))
    return pos, neg


def mean_log_likelihood(p: RbmParams, data: np.ndarray) -> float:
    """Mean of log P(v) over dataset rows, by full enumeration."""
    _check_enumerable(p)
    data = _binary_rows(p, data)
    log_pv = _log_unnormalized(*_stack(p), data)[0] - partition_function(p)
    return float(np.mean(log_pv))


def _mean_log_likelihoods(w, a, b, data) -> np.ndarray:
    """mean_log_likelihood of each of K stacked models (see
    _neg_energy_tables) on data, shared (R, n_v) or one set a model
    (K, R, n_v), each bit-identical to the one-model call, as both split
    the rows into the same blocks. Log Z comes from the stacked tables,
    not through partition_function."""
    log_unnorm = _log_unnormalized(w, a, b, data)
    return np.mean(log_unnorm - _log_partitions(w, a, b)[:, None], axis=1)


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
    """Bytes of tables one model holds at a time while its mean
    log-likelihood on n_rows data rows is enumerated: one row block of a
    float64 table, reduced in place."""
    return 8 * min(_block_rows(n_hidden), max(n_rows, 2 ** n_visible)) * 2 ** n_hidden


def _finite_diff_grads(w, a, b, data) -> np.ndarray:
    """Central-difference gradient of the mean log-likelihood of each of
    K stacked models on its own rows, data (K, R, n_v): shape (K, P), the
    P entries of each model's flattened w, a, b.

    Model k's 2P perturbed models (model 2i moves entry i by +FD_STEP,
    model 2i+1 by -FD_STEP) are evaluated as stacks, each reading model
    k's rows, as many models per block as FD_BLOCK_BYTES allows.
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

    block = max(1, FD_BLOCK_BYTES // _model_bytes(n_v, n_h, data.shape[1]))
    loglik = np.concatenate([
        _mean_log_likelihoods(W[s:s + block], A[s:s + block], B[s:s + block],
                              data[owner[s:s + block]])
        for s in range(0, len(params), block)])

    return ((loglik[0::2] - loglik[1::2]) / (2.0 * FD_STEP)).reshape(k, n)


def finite_diff_loglik_grad(p: RbmParams, data: np.ndarray) -> dict:
    """Central-difference gradient of the mean log-likelihood.

    Perturbs every entry of w, a and b by +-FD_STEP and differences the
    enumerated objective; entirely independent of exact_gradient's
    expectation algebra. The 2P perturbed models are evaluated as
    stacks, as many per block as FD_BLOCK_BYTES allows.
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


def _stationarity_tvs(models, pools, margs, sweeps: int) -> list:
    """Total-variation distance between the visible states each model's
    pool visits over `sweeps` one-sweep Gibbs steps and that model's
    marginal, one per model.

    The models, all of one size, run as one chain on their disjoint union:
    an RBM with their weights on the diagonal blocks and their biases
    concatenated. Its conditionals factorize over the blocks, so one sweep
    of the union is one sweep of every model, and its noise() concatenates
    each pool's own per-sweep draws, so every chain sees exactly the draws
    it would see run alone. One gibbs_chain call a sweep serves them all.
    A lone model takes its pool's draws as they come, with nothing to
    concatenate.
    """
    n_v, n_h = models[0].n_visible, models[0].n_hidden
    w = np.zeros((len(models) * n_v, len(models) * n_h))
    for t, p in enumerate(models):
        w[t * n_v:(t + 1) * n_v, t * n_h:(t + 1) * n_h] = p.w
    union = RbmParams(w, np.concatenate([p.a for p in models]),
                      np.concatenate([p.b for p in models]))
    draws = [pool.noise(p) for p, pool in zip(models, pools)]

    def union_noise():
        u_h, e_v = zip(*(draw() for draw in draws))
        return np.concatenate(u_h, axis=1), np.concatenate(e_v, axis=1)

    noise = draws[0] if len(draws) == 1 else union_noise

    states = np.concatenate([pool.states for pool in pools], axis=1)
    ph = None
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

    Every identity but the gradient and Gibbs checks is evaluated on all
    2^n_visible visible states at once. Each trial calls the functions
    under test through this module's bindings, so a fault patched into
    one of them (as the tests do) shows as that identity's failure. The
    witnesses they are compared with (brute -F, the joint tables, the
    finite-difference gradients) are built for a group of trials at a
    time as stacked models, each slice bit-identical to building it for
    the trial alone.
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
    V = _grid(n_visible)
    H = _grid(n_hidden)
    worst = dict.fromkeys(TOLERANCES, 0.0)
    # (model, chain pool, visible marginal) of the first three trials
    stationarity = []

    def note(name, gaps):
        worst[name] = max(worst[name], float(np.max(gaps)))

    # Trials a group: as many as FD_BLOCK_BYTES holds of tables, each
    # counted as finite_diff_loglik_grad counts one of its models. A joint
    # table is built whole, so where one row block is not the whole table
    # (4x14, say) a group is one trial holding one joint_table's worth.
    group = max(1, FD_BLOCK_BYTES // _model_bytes(n_visible, n_hidden, 6))
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
                chains = make_pool((rng.uniforms((16, n_visible)) < 0.5).astype(float),
                                   16, seed + trial)
                stationarity.append((p, chains, marg))

        # their witnesses, the group's models stacked
        w = np.stack([p.w for p in models])
        a = np.stack([p.a for p in models])
        b = np.stack([p.b for p in models])
        brute_f = -_log_unnormalized(w, a, b)
        note("free_energy_marginalization", np.abs(np.stack(closed_f) - brute_f))

        # P(h_j = 1 | v) by direct enumeration of each joint row
        joint = _joint_tables(w, a, b)
        cond = (joint @ H) / joint.sum(axis=2, keepdims=True)
        note("conditional_consistency", np.abs(cond - np.stack(probs)))

        fd = _finite_diff_grads(w, a, b, np.stack(rows))
        note("gradient_finite_difference", np.abs(np.stack(grads) - fd))

    note("gibbs_stationarity", _stationarity_tvs(*zip(*stationarity), 400))
    return [CheckResult(name, worst[name] <= tol, f"worst {worst[name]:.3e} vs {tol:.0e}")
            for name, tol in TOLERANCES.items()]
