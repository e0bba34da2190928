import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from rbmkit import (GAUSSIAN, RbmParams, RngStream, energy, free_energy,
                    hidden_probs)
from rbmkit import oracle
from rbmkit.oracle import (enumerate_states, exact_gradient,
                           finite_diff_loglik_grad, joint_table,
                           mean_log_likelihood, partition_function,
                           run_oracle_checks, state_index, visible_marginal)
from rbmkit.samplers import gibbs_chain, make_pool

# Golden values for the pinned 2x2 reference model, frozen from the first
# enumeration run and double-checked below against a plain python loop.
REF_LOG_Z = 3.2910041300908865
REF_MARGINAL = [0.17490685479678997, 0.21832628941397136,
                0.26270225753554033, 0.34406459825369856]
REF_NEG_VH = [[0.5016992926925361, 0.17732032413793716],
              [0.44589823685177477, 0.22671202202610724]]
REF_NEG_V = [0.6067668557892387, 0.5623908876676699]
REF_NEG_H = [0.7528127948245373, 0.38481696796321696]


def loop_log_z(p):
    """Partition function by a plain nested python loop over every joint
    state — deliberately naive and independent of the vectorized path."""
    total = 0.0
    for v in itertools.product([0.0, 1.0], repeat=p.n_visible):
        for h in itertools.product([0.0, 1.0], repeat=p.n_hidden):
            total += math.exp(-energy(p, list(v), list(h)))
    return math.log(total)


class TestEnumerateStates:
    def test_counting_order(self):
        states = enumerate_states(2)
        np.testing.assert_array_equal(states, [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_matches_itertools_product(self):
        got = enumerate_states(3)
        want = list(itertools.product([0.0, 1.0], repeat=3))
        np.testing.assert_array_equal(got, want)

    def test_matches_bit_shifts_of_the_row_index(self):
        for n in range(1, 17):
            ids = np.arange(2 ** n)[:, None]
            want = (ids >> np.arange(n - 1, -1, -1)) & 1
            np.testing.assert_array_equal(enumerate_states(n), want)

    def test_state_index_inverts_enumeration(self):
        states = enumerate_states(4)
        np.testing.assert_array_equal(state_index(states), np.arange(16))
        assert state_index(states[11]) == 11
        assert type(state_index(states[11])) is int


class TestPartitionFunction:
    def test_zero_model_uniform(self, zero_model):
        assert partition_function(zero_model(2, 2)) == pytest.approx(
            4 * math.log(2), abs=1e-12)

    def test_ref_model_pinned(self, ref_model):
        assert partition_function(ref_model) == pytest.approx(REF_LOG_Z, abs=1e-12)

    def test_ref_model_matches_naive_loop(self, ref_model):
        assert partition_function(ref_model) == pytest.approx(
            loop_log_z(ref_model), abs=1e-12)

    def test_bias_increase_is_monotone(self, ref_model):
        bumped = RbmParams(ref_model.w, ref_model.a,
                           ref_model.b + np.array([0.5, 0.0]))
        assert partition_function(bumped) > partition_function(ref_model)

    def test_size_cap(self):
        big = RbmParams(np.zeros((11, 10)), np.zeros(11), np.zeros(10))
        with pytest.raises(ValueError):
            partition_function(big)

    def test_gaussian_unsupported(self, zero_model):
        with pytest.raises(ValueError):
            partition_function(zero_model(visible_kind=GAUSSIAN))


class TestVisibleMarginal:
    def test_zero_model_uniform(self, zero_model):
        marg = visible_marginal(zero_model(3, 2))
        np.testing.assert_allclose(marg, np.full(8, 1 / 8), atol=1e-14)

    def test_ref_model_pinned_table(self, ref_model):
        np.testing.assert_allclose(visible_marginal(ref_model), REF_MARGINAL,
                                   atol=1e-13)

    def test_normalization(self):
        rng = RngStream(41, 0)
        for trial in range(10):
            p = RbmParams(rng.normals((4, 3)), rng.normals(4), rng.normals(3))
            assert abs(visible_marginal(p).sum() - 1.0) <= 1e-10

    def test_free_energy_link(self, ref_model):
        # exp(-F(v)) / Z reproduces the marginal entry for entry
        log_z = partition_function(ref_model)
        marg = visible_marginal(ref_model)
        for s, v in enumerate(enumerate_states(2)):
            direct = math.exp(-free_energy(ref_model, v) - log_z)
            assert direct == pytest.approx(marg[s], abs=1e-10)


class TestExactGradient:
    def test_ref_model_pinned_negative_stats(self, ref_model):
        _, neg = exact_gradient(ref_model, [[1.0, 1.0]])
        np.testing.assert_allclose(neg.vh, REF_NEG_VH, atol=1e-13)
        np.testing.assert_allclose(neg.v, REF_NEG_V, atol=1e-13)
        np.testing.assert_allclose(neg.h, REF_NEG_H, atol=1e-13)

    def test_positive_side_is_data_clamped(self, ref_model):
        data = np.array([[1.0, 1.0]])
        pos, _ = exact_gradient(ref_model, data)
        np.testing.assert_allclose(pos.vh,
                                   np.outer(data[0], hidden_probs(ref_model, data[0])),
                                   atol=1e-15)

    def test_rao_blackwellized_negative(self, ref_model):
        # sum_v P(v) v q(v)^T equals the full joint sum
        _, neg = exact_gradient(ref_model, [[1.0, 1.0]])
        states = enumerate_states(2)
        marg = visible_marginal(ref_model)
        q = hidden_probs(ref_model, states)
        rb = (states * marg[:, None]).T @ q
        np.testing.assert_allclose(neg.vh, rb, atol=1e-10)
        np.testing.assert_allclose(neg.v, marg @ states, atol=1e-10)
        np.testing.assert_allclose(neg.h, marg @ q, atol=1e-10)

    def test_matches_finite_differences(self, ref_model):
        data = np.array([[1.0, 1.0], [0.0, 1.0]])
        pos, neg = exact_gradient(ref_model, data)
        fd = finite_diff_loglik_grad(ref_model, data)
        np.testing.assert_allclose(pos.vh - neg.vh, fd["w"], atol=1e-6)
        np.testing.assert_allclose(pos.v - neg.v, fd["a"], atol=1e-6)
        np.testing.assert_allclose(pos.h - neg.h, fd["b"], atol=1e-6)

    def test_log_z_weight_gradient_is_negative_stat(self, ref_model):
        # d log Z / d W_ij equals P(v_i = 1, h_j = 1)
        _, neg = exact_gradient(ref_model, [[0.0, 0.0]])
        step = 1e-6
        for i in range(2):
            for j in range(2):
                w_hi = ref_model.w.copy()
                w_lo = ref_model.w.copy()
                w_hi[i, j] += step
                w_lo[i, j] -= step
                hi = partition_function(RbmParams(w_hi, ref_model.a, ref_model.b))
                lo = partition_function(RbmParams(w_lo, ref_model.a, ref_model.b))
                fd = (hi - lo) / (2 * step)
                assert fd == pytest.approx(neg.vh[i, j], abs=1e-8)

    def test_empty_dataset_rejected(self, ref_model):
        with pytest.raises(ValueError):
            exact_gradient(ref_model, np.zeros((0, 2)))


class TestFiniteDiff:
    def test_bias_gradient_positive_for_all_ones_data(self):
        p = RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
        fd = finite_diff_loglik_grad(p, [[1.0, 1.0, 1.0]])
        assert np.all(fd["a"] > 0)

    def test_duplicated_rows_leave_gradient_unchanged(self, ref_model):
        data = [[1.0, 0.0], [0.0, 1.0]]
        once = finite_diff_loglik_grad(ref_model, data)
        twice = finite_diff_loglik_grad(ref_model, data * 2)
        for key in ("w", "a", "b"):
            np.testing.assert_allclose(once[key], twice[key], atol=1e-12)


def loop_finite_diff(p, data):
    """finite_diff_loglik_grad as one mean_log_likelihood call per entry
    and sign: the plain loop the stacked evaluation must reproduce."""
    q = p.copy()
    grads = {}
    for name in ("w", "a", "b"):
        param = getattr(q, name).reshape(-1)  # a view: writes perturb q
        g = np.zeros(param.size)
        for idx in range(param.size):
            base = param[idx]
            for sign in (+1.0, -1.0):
                param[idx] = base + sign * oracle.FD_STEP
                g[idx] += sign * mean_log_likelihood(q, data)
            param[idx] = base
            g[idx] /= 2.0 * oracle.FD_STEP
        grads[name] = g.reshape(getattr(p, name).shape)
    return grads


def seeded_case(n_visible, n_hidden, seed=0, rows=7):
    """A random model and binary data rows."""
    rng = RngStream(300 + seed, n_visible * 100 + n_hidden)
    p = RbmParams(rng.normals((n_visible, n_hidden)), rng.normals(n_visible),
                  rng.normals(n_hidden))
    return p, (rng.uniforms((rows, n_visible)) < 0.5).astype(float)


def assert_same_grads(got, want):
    for key in ("w", "a", "b"):
        assert got[key].shape == want[key].shape, key
        assert np.array_equal(got[key], want[key]), key


class TestStackedFiniteDiff:
    # repeated: row i appears i + 1 times, so the rows weigh unequally
    @pytest.mark.parametrize("repeated", [False, True], ids=["plain", "repeated"])
    @pytest.mark.parametrize("n_visible, n_hidden",
                             [(1, 1), (1, 6), (6, 1), (3, 3), (4, 5), (6, 2), (8, 6)])
    def test_equals_the_per_entry_loop(self, n_visible, n_hidden, repeated):
        p, data = seeded_case(n_visible, n_hidden)
        if repeated:
            data = np.repeat(data, np.arange(1, len(data) + 1), axis=0)
        assert_same_grads(finite_diff_loglik_grad(p, data),
                          loop_finite_diff(p, data))

    @pytest.mark.parametrize("n_visible, n_hidden", [(3, 3), (6, 6)])
    def test_block_size_does_not_change_the_bits(self, monkeypatch, n_visible,
                                                 n_hidden):
        p, data = seeded_case(n_visible, n_hidden, seed=1)
        default = finite_diff_loglik_grad(p, data)
        monkeypatch.setattr(oracle, "FD_BLOCK_BYTES", 1)  # one model a block
        one_each = finite_diff_loglik_grad(p, data)
        monkeypatch.setattr(oracle, "FD_BLOCK_BYTES", 2 ** 62)  # one block
        all_at_once = finite_diff_loglik_grad(p, data)
        assert_same_grads(one_each, all_at_once)
        assert_same_grads(default, all_at_once)

    # models a block; 3 leaves a short last block except at 3x3
    @pytest.mark.parametrize("models", [1, 3])
    @pytest.mark.parametrize("n_visible, n_hidden", [(3, 3), (4, 5), (6, 2), (8, 6)])
    def test_several_model_blocks_equal_the_per_entry_loop(
            self, monkeypatch, n_visible, n_hidden, models):
        p, data = seeded_case(n_visible, n_hidden)
        monkeypatch.setattr(oracle, "FD_BLOCK_BYTES",
                            models * oracle._model_bytes(n_visible, n_hidden, len(data)))
        assert_same_grads(finite_diff_loglik_grad(p, data), loop_finite_diff(p, data))

    def test_traced_peak_memory_is_bounded(self):
        # 196 perturbed 10x8 models, evaluated a block at a time
        p, data = seeded_case(10, 8, rows=6)
        tracemalloc.start()
        try:
            finite_diff_loglik_grad(p, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


MALFORMED_DATA = [
    (np.zeros((0, 3)), "empty dataset"),
    ([], "empty dataset"),
    ([[1.0, 0.0]], "n_visible=3"),
    ([[1.0, 0.0, 1.0, 0.0]], "n_visible=3"),
    ([[2.0, 2.0, 2.0]], "0 or 1"),
    ([[1.0, 0.5, 0.0]], "0 or 1"),
    ([[1.0, np.nan, 0.0]], "0 or 1"),
]


class TestMalformedData:
    @pytest.mark.parametrize("fn", [mean_log_likelihood, finite_diff_loglik_grad,
                                    exact_gradient],
                             ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("data, problem", MALFORMED_DATA,
                             ids=["no-rows", "empty-list", "too-narrow",
                                  "too-wide", "twos", "half", "nan"])
    def test_rejected_naming_the_problem(self, fn, data, problem):
        p, _ = seeded_case(3, 3)
        with pytest.raises(ValueError, match=problem):
            fn(p, data)


class TestConditionalConsistency:
    def test_hidden_probs_match_enumerated_conditional(self, ref_model):
        # P(h_j = 1 | v) = sum over joint rows with h_j = 1, / P(v)
        joint = joint_table(ref_model)
        H = enumerate_states(2)
        for s, v in enumerate(enumerate_states(2)):
            cond = (joint[s] @ H) / joint[s].sum()
            np.testing.assert_allclose(hidden_probs(ref_model, v), cond,
                                       atol=1e-10)

    def test_random_models(self):
        rng = RngStream(91, 0)
        for _ in range(10):
            p = RbmParams(rng.normals((3, 3)), rng.normals(3), rng.normals(3))
            joint = joint_table(p)
            H = enumerate_states(3)
            for s, v in enumerate(enumerate_states(3)):
                cond = (joint[s] @ H) / joint[s].sum()
                np.testing.assert_allclose(hidden_probs(p, v), cond, atol=1e-10)


class TestJointTable:
    def test_sums_to_one(self, ref_model):
        assert joint_table(ref_model).sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_boltzmann_weights(self, ref_model):
        table = joint_table(ref_model)
        z = math.exp(loop_log_z(ref_model))
        for s, v in enumerate(itertools.product([0.0, 1.0], repeat=2)):
            for t, h in enumerate(itertools.product([0.0, 1.0], repeat=2)):
                expected = math.exp(-energy(ref_model, list(v), list(h))) / z
                assert table[s, t] == pytest.approx(expected, abs=1e-12)


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def oracle_args(name, p, data):
    return (p, data) if name in ("mean_log_likelihood", "exact_gradient") else (p,)


class TestTracedPeak:
    # A 12x8 joint table is 2^20 float64 entries (8 MiB); the closed forms
    # hold arrays of 2^n_hidden x n_visible or rows x n_hidden instead.
    @pytest.mark.parametrize("name, n_visible, n_hidden, rows", [
        ("partition_function", 12, 8, 6), ("visible_marginal", 12, 8, 6),
        ("mean_log_likelihood", 12, 8, 6), ("exact_gradient", 12, 8, 6),
        ("partition_function", 8, 12, 400), ("visible_marginal", 8, 12, 400),
        ("mean_log_likelihood", 8, 12, 400), ("exact_gradient", 8, 12, 400)])
    def test_traced_peak_is_far_below_one_table(self, name, n_visible, n_hidden,
                                                rows):
        # 8x12 with 400 rows: the data rows' -E table alone would be 13 MiB
        p, data = seeded_case(n_visible, n_hidden, rows=rows)
        peak = traced_peak(getattr(oracle, name), *oracle_args(name, p, data))
        assert peak <= 2.5 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"

    # With many hidden units the hidden-state grid sets the peak: at 2x18
    # it is 36 MiB itself, and building its bits through int64 temporaries
    # of its size traced 74 MiB. The grid must be gone before the softplus.
    def test_traced_peak_of_a_wide_hidden_grid(self):
        p, _ = seeded_case(2, 18)
        peak = traced_peak(oracle.partition_function, p)
        assert peak <= 48 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"

    # joint_table's output is the table; a shifted copy or its exp held
    # beside it would put the peak at 16-24 MiB.
    def test_joint_table_peaks_near_one_table(self):
        p, _ = seeded_case(12, 8)
        peak = traced_peak(oracle.joint_table, p)
        assert peak <= 10 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def flat_logsumexp(x, axis=None):
    m = np.max(x, axis=axis, keepdims=True)
    out = m.squeeze(axis) if axis is not None else m.reshape(())
    return out + np.log(np.sum(np.exp(x - m), axis=axis))


def flat_oracle(p, data):
    """(log Z, P(v), mean log-likelihood, negative vh, v and h sums), each
    reduced over the whole joint -E table at once."""
    V, H = enumerate_states(p.n_visible), enumerate_states(p.n_hidden)
    table = oracle._neg_energy_tables(p.w[None], p.a[None], p.b[None], V, H)[0]
    log_z = flat_logsumexp(table)
    marg = np.exp(flat_logsumexp(table, axis=1) - log_z)
    data_table = oracle._neg_energy_tables(p.w[None], p.a[None], p.b[None], data, H)[0]
    mll = np.mean(flat_logsumexp(data_table, axis=1) - log_z)
    P = np.exp(table - log_z)
    return (log_z, marg, mll, V.T @ P @ H, P.sum(axis=1) @ V, P.sum(axis=0) @ H)


ORACLE_VALUES = ["log_z", "marginal", "mean_loglik", "neg_vh", "neg_v", "neg_h"]


class TestClosedForms:
    @pytest.mark.parametrize("n_visible, n_hidden, rows", [
        (1, 1, 7), (1, 6, 7), (6, 1, 7), (2, 10, 7), (10, 2, 7), (3, 3, 7),
        (4, 5, 7), (6, 2, 7), (8, 6, 7), (12, 8, 7), (8, 12, 400)])
    def test_agree_with_the_whole_table_sums(self, n_visible, n_hidden, rows):
        p, data = seeded_case(n_visible, n_hidden, rows=rows)
        _, neg = exact_gradient(p, data)
        got = (partition_function(p), visible_marginal(p), mean_log_likelihood(p, data),
               neg.vh, neg.v, neg.h)
        for name, g, want in zip(ORACLE_VALUES, got, flat_oracle(p, data)):
            np.testing.assert_allclose(g, want, rtol=1e-13, atol=0, err_msg=name)
        if n_visible + n_hidden <= 9:
            assert partition_function(p) == pytest.approx(loop_log_z(p), rel=1e-13)


class TestMeanLogLikelihood:
    def test_zero_model_uniform_probability(self, zero_model):
        p = zero_model(3, 2)
        got = mean_log_likelihood(p, [[1.0, 0.0, 1.0]])
        assert got == pytest.approx(math.log(1 / 8), abs=1e-12)

    def test_consistent_with_marginal(self, ref_model):
        marg = visible_marginal(ref_model)
        got = mean_log_likelihood(ref_model, [[1.0, 1.0]])
        assert got == pytest.approx(math.log(marg[3]), abs=1e-12)


def _shift_positive_vh(exact):
    def faulty(p, data):
        pos, neg = exact(p, data)
        pos.vh = pos.vh + 1e-4
        return pos, neg
    return faulty


def _stuck_at_zero(chain):
    def faulty(p, v, k, noise, ph=None):
        v = np.zeros_like(v)
        return v, hidden_probs(p, v), v @ p.w + p.b
    return faulty


# (identity, rbmkit.oracle binding it reads, fault wrapped around that binding)
ORACLE_FAULTS = [
    ("marginal_normalization", "partition_function",
     lambda f: lambda p: f(p) + 1e-3),
    ("marginal_normalization", "_neg_free_energies",
     lambda f: lambda w, a, b, rows: f(w, a, b, rows) + 1e-6),
    ("free_energy_marginalization", "free_energy",
     lambda f: lambda p, v, h_input=None: f(p, v, h_input) + 1e-6),
    ("free_energy_two_forms", "free_energy",
     lambda f: lambda p, v, h_input=None: f(p, v, h_input) + 1e-6),
    ("conditional_consistency", "hidden_probs",
     lambda f: lambda p, v: f(p, v) * (1.0 - 1e-6)),
    ("gradient_finite_difference", "exact_gradient", _shift_positive_vh),
    ("gibbs_stationarity", "gibbs_chain", _stuck_at_zero),
]


class TestRunOracleChecks:
    def test_names_order_and_plain_bool_verdicts(self):
        results = run_oracle_checks(trials=2, seed=4)
        assert [r.name for r in results] == [
            "marginal_normalization", "free_energy_marginalization",
            "free_energy_two_forms", "conditional_consistency",
            "gradient_finite_difference", "gibbs_stationarity"]
        assert all(r.ok is True for r in results)

    @pytest.mark.parametrize("identity, binding, fault", ORACLE_FAULTS,
                             ids=[f"{f[0]}-{f[1]}" if f[1].startswith("_") else f[0]
                                  for f in ORACLE_FAULTS])
    def test_every_identity_can_fail(self, monkeypatch, identity, binding, fault):
        monkeypatch.setattr(oracle, binding, fault(getattr(oracle, binding)))
        verdicts = {r.name: r.ok for r in run_oracle_checks(trials=3, seed=4)}
        assert not verdicts[identity]


def loop_stationarity(n_visible, n_hidden, trials, seed):
    """(visited states, TV) of each of run_oracle_checks' first three
    trials, each model run alone: its start states drawn from the trial
    stream in the suite's order; 400 sweeps drawn from a fresh pool over
    the union of the trials' shapes, each trial's chains reading their
    slice of every sweep's draws; then 400 one-sweep gibbs_chain calls."""
    models, starts = [], []
    for trial in range(min(trials, 3)):
        rng = RngStream(seed, 1000 + trial)
        models.append(RbmParams(rng.normals((n_visible, n_hidden)),
                                rng.normals((n_visible,)), rng.normals((n_hidden,))))
        rng.uniforms((6, n_visible))  # the gradient check's data rows
        starts.append((rng.uniforms((16, n_visible)) < 0.5).astype(float))
    k = len(models)
    # a pool's draws depend only on the model's shape
    union_shape = RbmParams(np.zeros((k * n_visible, k * n_hidden)),
                            np.zeros(k * n_visible), np.zeros(k * n_hidden))
    noise = make_pool(np.concatenate(starts, axis=1), 16, seed).noise(union_shape)
    draws = [tuple(u.copy() for u in noise()) for _ in range(400)]
    out = []
    for t, (p, states) in enumerate(zip(models, starts)):
        own = iter([(u_h[:, t * n_hidden:(t + 1) * n_hidden],
                     e_v[:, t * n_visible:(t + 1) * n_visible]) for u_h, e_v in draws])
        ph = None
        visited = np.empty((400,) + states.shape)
        for sweep in range(400):
            states, ph, _ = gibbs_chain(p, states, 1, own.__next__, ph)
            visited[sweep] = states
        counts = np.bincount(state_index(visited).ravel(), minlength=2 ** n_visible)
        out.append((visited, 0.5 * np.abs(counts / counts.sum()
                                          - visible_marginal(p)).sum()))
    return out


class TestStationarityUnion:
    @pytest.mark.parametrize("n_visible, n_hidden, trials, seed",
                             [(3, 3, 25, 0), (6, 2, 3, 8), (4, 5, 4, 3),
                              (3, 3, 1, 5), (2, 4, 2, 6)])
    def test_each_trial_visits_and_scores_as_run_alone(
            self, monkeypatch, n_visible, n_hidden, trials, seed):
        swept, tvs = [], []
        chain, score = oracle.gibbs_chain, oracle._stationarity_tvs

        def recording_chain(p, v, k, noise, ph=None):
            out = chain(p, v, k, noise, ph)
            swept.append(out[0])
            return out

        def recording_score(*args):
            tvs.extend(score(*args))
            return tvs

        monkeypatch.setattr(oracle, "gibbs_chain", recording_chain)
        monkeypatch.setattr(oracle, "_stationarity_tvs", recording_score)
        results = run_oracle_checks(n_visible, n_hidden, trials, seed)
        alone = loop_stationarity(n_visible, n_hidden, trials, seed)

        visited = np.stack(swept)
        assert visited.shape == (400, 16, len(alone) * n_visible)
        assert len(tvs) == len(alone)
        for t, (states, tv) in enumerate(alone):
            block = visited[:, :, t * n_visible:(t + 1) * n_visible]
            assert np.array_equal(block, states), f"trial {t} visits other states"
            assert tvs[t] == tv, f"trial {t}: TV {tvs[t]!r} != {tv!r}"
        detail = {r.name: r.detail for r in results}["gibbs_stationarity"]
        assert detail.startswith(f"worst {max(tv for _, tv in alone):.3e} ")


class TestStationarityDraws:
    @pytest.mark.parametrize("trials, seed", [(25, 0), (3, 4), (1, 9)])
    def test_only_the_union_pools_streams_are_drawn(self, monkeypatch, trials, seed):
        # one pool of 16 chains on the union: no trial builds a pool of its own
        drawn = set()
        uniforms = RngStream.uniforms

        def recording(stream, shape, out=None):
            if stream.stream_id < 1000:
                drawn.add((stream.seed, stream.stream_id))
            return uniforms(stream, shape, out)

        monkeypatch.setattr(RngStream, "uniforms", recording)
        run_oracle_checks(trials=trials, seed=seed)
        assert drawn == {(seed, 100 + c) for c in range(16)}


def loop_suite(n_visible, n_hidden, trials, seed):
    """run_oracle_checks' results with every witness built for one trial
    at a time, from the one-model functions, as the suite was before it
    stacked them."""
    V, H = enumerate_states(n_visible), enumerate_states(n_hidden)
    worst = dict.fromkeys(oracle.TOLERANCES, 0.0)

    def note(name, gaps):
        worst[name] = max(worst[name], float(np.max(gaps)))

    for trial in range(trials):
        rng = RngStream(seed, 1000 + trial)
        p = RbmParams(rng.normals((n_visible, n_hidden)), rng.normals((n_visible,)),
                      rng.normals((n_hidden,)))
        marg = visible_marginal(p)
        note("marginal_normalization", abs(marg.sum() - 1.0))
        brute_f = -flat_logsumexp(
            oracle._neg_energy_tables(p.w[None], p.a[None], p.b[None], V, H)[0], axis=1)
        note("free_energy_marginalization", np.abs(free_energy(p, V) - brute_f))
        note("free_energy_two_forms",
             np.abs(oracle.free_energy_entropy_form(p, V) - free_energy(p, V)))
        joint = joint_table(p)
        cond = (joint @ H) / joint.sum(axis=1, keepdims=True)
        note("conditional_consistency", np.abs(cond - hidden_probs(p, V)))
        data = (rng.uniforms((6, n_visible)) < 0.5).astype(float)
        pos, neg = exact_gradient(p, data)
        fd = finite_diff_loglik_grad(p, data)
        note("gradient_finite_difference",
             max(np.max(np.abs(g)) for g in [(pos.vh - neg.vh) - fd["w"],
                                             (pos.v - neg.v) - fd["a"],
                                             (pos.h - neg.h) - fd["b"]]))
    note("gibbs_stationarity",
         [tv for _, tv in loop_stationarity(n_visible, n_hidden, trials, seed)])
    return [repr(oracle.CheckResult(name, worst[name] <= tol,
                                    f"worst {worst[name]:.3e} vs {tol:.0e}"))
            for name, tol in oracle.TOLERANCES.items()]


def stacked_suite(monkeypatch, n_visible, n_hidden, trials, seed):
    """(run_oracle_checks' result lines, the number of trials in each
    group whose joint tables it built)."""
    groups = []
    joint_tables = oracle._joint_tables

    def recording_joint_tables(w, a, b):
        groups.append(len(w))
        return joint_tables(w, a, b)

    monkeypatch.setattr(oracle, "_joint_tables", recording_joint_tables)
    results = run_oracle_checks(n_visible, n_hidden, trials, seed)
    return [repr(r) for r in results], groups


class TestStackedWitnesses:
    # 3x3: all 25 trials one group. 6x10: a 512 KiB table, so two trials
    # a group and a last group of one.
    @pytest.mark.parametrize("n_visible, n_hidden, trials, seed, groups", [
        (3, 3, 25, 0, [25]), (4, 5, 4, 3, [4]), (6, 10, 5, 3, [2, 2, 1])])
    def test_stacked_suite_equals_the_per_trial_suite(
            self, monkeypatch, n_visible, n_hidden, trials, seed, groups):
        got, got_groups = stacked_suite(monkeypatch, n_visible, n_hidden, trials, seed)
        assert got_groups == groups
        assert got == loop_suite(n_visible, n_hidden, trials, seed)

    # 2**62 stacks every trial's perturbed models in one block, so only
    # small models: at 6x10 that block would be about 125 MiB.
    @pytest.mark.parametrize("budget", [1, 2 ** 62], ids=["one-each", "one-block"])
    @pytest.mark.parametrize("n_visible, n_hidden, trials, seed",
                             [(3, 3, 25, 0), (4, 5, 4, 3)])
    def test_group_size_does_not_change_the_results(
            self, monkeypatch, n_visible, n_hidden, trials, seed, budget):
        want = loop_suite(n_visible, n_hidden, trials, seed)
        monkeypatch.setattr(oracle, "FD_BLOCK_BYTES", budget)
        got, groups = stacked_suite(monkeypatch, n_visible, n_hidden, trials, seed)
        assert groups == ([1] * trials if budget == 1 else [trials])
        assert got == want

    def test_traced_peak_is_about_one_group(self):
        # 8x8: a 512 KiB table, two trials a group. All 25 trials in one
        # group traced about 18 MiB; two a group trace about 2.5 MiB.
        peak = traced_peak(run_oracle_checks, 8, 8, 25)
        assert peak <= 4 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"

    def test_traced_peak_of_a_one_trial_group_is_about_one_table(self):
        # 12x8: an 8 MiB joint table, one trial a group. Brute -F reduces
        # its table in place, and the joint table is built after it: about
        # 10 MiB. A shifted copy beside either table traced 17.5 MiB.
        peak = traced_peak(run_oracle_checks, 12, 8, 1)
        assert peak <= 12 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"


class TestGridCache:
    """No grid is cached: each call builds the grids it reads."""

    def test_enumerate_states_returns_a_fresh_writable_array(self):
        first, second = enumerate_states(3), enumerate_states(3)
        assert first.flags.writeable
        assert not np.shares_memory(first, second)

    def test_writing_a_returned_grid_changes_no_later_result(self):
        p, _ = seeded_case(3, 3)
        log_z = partition_function(p)
        results = [repr(r) for r in run_oracle_checks(3, 3, 4, 1)]
        enumerate_states(3)[:] = 7.0
        assert partition_function(p) == log_z
        assert [repr(r) for r in run_oracle_checks(3, 3, 4, 1)] == results

    def test_finite_difference_builds_one_hidden_grid(self, monkeypatch):
        # 2x14: 88 perturbed models, one a block, all reading one grid
        calls = []

        def counted(n_units):
            calls.append(n_units)
            return enumerate_states(n_units)

        p, data = seeded_case(2, 14)
        monkeypatch.setattr(oracle, "enumerate_states", counted)
        finite_diff_loglik_grad(p, data)
        assert calls == [14]

    def test_exact_gradient_builds_one_hidden_grid_and_no_log_z(
            self, monkeypatch):
        # P(h) is normalized by its own sum, so log Z is never taken
        calls = []

        def counted(n_units):
            calls.append(n_units)
            return enumerate_states(n_units)

        def no_log_z(*args):
            raise AssertionError("exact_gradient took log Z")

        p, data = seeded_case(2, 14)
        monkeypatch.setattr(oracle, "enumerate_states", counted)
        monkeypatch.setattr(oracle, "_log_partitions", no_log_z)
        exact_gradient(p, data)
        assert calls == [14]

    def test_no_grid_outlives_its_call(self, monkeypatch):
        grids = []

        def tracked(n_units):
            grid = enumerate_states(n_units)
            grids.append(weakref.ref(grid))
            return grid

        monkeypatch.setattr(oracle, "enumerate_states", tracked)
        run_oracle_checks(3, 4, 2, 0)
        gc.collect()
        assert grids
        assert all(ref() is None for ref in grids)
