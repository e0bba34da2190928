import gc
import weakref

import numpy as np
import pytest

from rbmkit import (RbmParams, RngStream, batch_stats, free_energy,
                    hidden_input, hidden_probs)
from rbmkit.oracle import enumerate_states, exact_gradient, visible_marginal
from rbmkit.samplers import (CHAIN_STREAM_BASE, NOISE_BLOCK_BYTES,
                             NOISE_MIN_SWEEPS, ChainPool, cd_k, fepcd_step,
                             gibbs_chain, gibbs_step, make_pool, pcd_step,
                             select_elite)


def state_ids(states):
    n = states.shape[1]
    return states.astype(np.int64) @ (2 ** np.arange(n - 1, -1, -1))


class TestGibbsStep:
    def test_zero_model_uniform_stationary(self, zero_model):
        p = zero_model()
        rng = RngStream(1, 0)
        v = np.zeros(2)
        total = 0.0
        for _ in range(10_000):
            v, _ = gibbs_step(p, v, rng)
            total += v.mean()
        assert 0.48 <= total / 10_000 <= 0.52

    def test_saturated_bias_is_deterministic(self):
        p = RbmParams(np.zeros((3, 2)), np.full(3, 50.0), np.zeros(2))
        rng = RngStream(2, 0)
        v = np.zeros(3)
        for _ in range(50):
            v, _ = gibbs_step(p, v, rng)
            np.testing.assert_array_equal(v, np.ones(3))

    def test_long_run_matches_oracle_marginal(self, ref_model):
        marg = visible_marginal(ref_model)
        rng = RngStream(3, 77)
        v = np.zeros(2)
        counts = np.zeros(4)
        for _ in range(100_000):
            v, _ = gibbs_step(ref_model, v, rng)
            counts[int(v[0]) * 2 + int(v[1])] += 1
        tv = 0.5 * np.abs(counts / counts.sum() - marg).sum()
        assert tv <= 0.02

    def test_returns_hidden_probs_of_new_state(self, ref_model):
        from rbmkit import hidden_probs
        rng = RngStream(4, 0)
        v_new, q = gibbs_step(ref_model, np.array([1.0, 0.0]), rng)
        np.testing.assert_array_equal(q, hidden_probs(ref_model, v_new))

    def test_deterministic_given_stream(self, ref_model):
        a = gibbs_step(ref_model, np.zeros(2), RngStream(5, 9))
        b = gibbs_step(ref_model, np.zeros(2), RngStream(5, 9))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_gaussian_visibles_sample_around_conditional_mean(self):
        # decoupled model: stationary visibles are Normal(a, 1)
        p = RbmParams(np.zeros((3, 2)), np.array([2.0, -1.0, 0.5]),
                      np.zeros(2), visible_kind="gaussian")
        rng = RngStream(21, 0)
        draws = np.empty((4000, 3))
        v = np.zeros(3)
        for i in range(4000):
            v, _ = gibbs_step(p, v, rng)
            draws[i] = v
        np.testing.assert_allclose(draws.mean(axis=0), p.a, atol=0.08)
        np.testing.assert_allclose(draws.var(axis=0, ddof=1), 1.0, atol=0.08)

    def test_gaussian_pool_advancement_matches_gibbs(self):
        p = RbmParams(np.full((2, 2), 0.3), np.zeros(2), np.zeros(2),
                      visible_kind="gaussian")
        pool = make_pool(np.zeros((2, 2)), 2, 44)
        states, q, _ = gibbs_chain(p, pool.states, 3, pool.noise(p))
        for c in range(2):
            rng = RngStream(44, 100 + c)
            v = np.zeros(2)
            for _ in range(3):
                v, qq = gibbs_step(p, v, rng)
            np.testing.assert_array_equal(states[c], v)
            np.testing.assert_array_equal(q[c], qq)


class TestCdK:
    def test_positive_stats_zero_model(self, zero_model):
        pos, _ = cd_k(zero_model(), [[1.0, 1.0]], 1, RngStream(6, 0))
        np.testing.assert_array_equal(pos.vh, [[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_array_equal(pos.v, [1.0, 1.0])
        np.testing.assert_array_equal(pos.h, [0.5, 0.5])

    def test_deterministic_fixed_point_gives_zero_update(self):
        # saturated visible biases reproduce the data exactly
        p = RbmParams(np.zeros((2, 2)), np.array([800.0, -800.0]), np.zeros(2))
        data = np.array([[1.0, 0.0]] * 3)
        pos, neg = cd_k(p, data, 1, RngStream(7, 0))
        np.testing.assert_array_equal(pos.vh, neg.vh)
        np.testing.assert_array_equal(pos.v, neg.v)
        np.testing.assert_array_equal(pos.h, neg.h)

    def test_empty_batch_rejected(self, ref_model):
        with pytest.raises(ValueError):
            cd_k(ref_model, np.zeros((0, 2)), 1, RngStream(8, 0))

    def test_k_must_be_positive(self, ref_model):
        with pytest.raises(ValueError):
            cd_k(ref_model, [[1.0, 0.0]], 0, RngStream(8, 0))

    def test_bias_shrinks_with_k(self, ref_model):
        # CD-k negative stats approach the exact model stats as k grows
        states = enumerate_states(2)
        _, exact_neg = exact_gradient(ref_model, states)
        batch = np.tile(states, (5000, 1))

        def gap(k):
            _, neg = cd_k(ref_model, batch, k, RngStream(38, 50 + k))
            return max(np.max(np.abs(neg.vh - exact_neg.vh)),
                       np.max(np.abs(neg.v - exact_neg.v)),
                       np.max(np.abs(neg.h - exact_neg.h)))

        assert gap(20) < gap(1)

    def test_reproducible(self, ref_model):
        batch = np.array([[1.0, 0.0], [0.0, 1.0]])
        p1, n1 = cd_k(ref_model, batch, 3, RngStream(9, 0))
        p2, n2 = cd_k(ref_model, batch, 3, RngStream(9, 0))
        assert np.array_equal(n1.vh, n2.vh)
        assert np.array_equal(p1.vh, p2.vh)

    def test_k3_equals_composed_gibbs_steps(self):
        rng = RngStream(10, 0)
        p = RbmParams(rng.normals((5, 3)), rng.normals(5), rng.normals(3))
        batch = (rng.uniforms((6, 5)) < 0.5).astype(float)
        pos, neg = cd_k(p, batch, 3, RngStream(10, 1))
        stream = RngStream(10, 1)
        v = batch
        for _ in range(3):
            v, q = gibbs_step(p, v, stream)
        for got, want in ((pos, batch_stats(batch, hidden_probs(p, batch))),
                          (neg, batch_stats(v, q))):
            np.testing.assert_array_equal(got.vh, want.vh)
            np.testing.assert_array_equal(got.v, want.v)
            np.testing.assert_array_equal(got.h, want.h)


class TestPcdStep:
    def test_single_chain_k1_equals_gibbs_step(self, ref_model):
        pool = make_pool(np.array([[1.0, 0.0]]), 1, 11)
        neg, pool = pcd_step(ref_model, pool, 1)
        rng = RngStream(11, 100)
        v, q = gibbs_step(ref_model, np.array([1.0, 0.0]), rng)
        np.testing.assert_array_equal(pool.states[0], v)
        np.testing.assert_array_equal(neg.vh, np.outer(v, q))

    def test_chains_persist_and_keep_moving(self, ref_model):
        pool = make_pool((RngStream(12, 6).uniforms((32, 2)) < 0.5).astype(float),
                         32, 12)
        before = pool.states.copy()
        _, pool = pcd_step(ref_model, pool, 1)
        assert not np.array_equal(before, pool.states)
        mid = pool.states.copy()
        _, pool = pcd_step(ref_model, pool, 1)
        assert not np.array_equal(mid, pool.states)

    def test_frozen_model_reaches_stationarity(self, ref_model):
        marg = visible_marginal(ref_model)
        pool = make_pool((RngStream(13, 6).uniforms((64, 2)) < 0.5).astype(float),
                         64, 13)
        counts = np.zeros(4)
        for _ in range(500):
            _, pool = pcd_step(ref_model, pool, 1)
            np.add.at(counts, state_ids(pool.states), 1.0)
        tv = 0.5 * np.abs(counts / counts.sum() - marg).sum()
        assert tv <= 0.03

    def test_advance_matches_composed_gibbs_steps(self, ref_model):
        pool = make_pool(np.zeros((3, 2)), 3, 99)
        states, q, x = gibbs_chain(ref_model, pool.states, 5, pool.noise(ref_model))
        np.testing.assert_array_equal(x, hidden_input(ref_model, states))
        for c in range(3):
            rng = RngStream(99, 100 + c)
            v = np.zeros(2)
            for _ in range(5):
                v, qq = gibbs_step(ref_model, v, rng)
            np.testing.assert_array_equal(states[c], v)
            np.testing.assert_array_equal(q[c], qq)

    def test_pool_size_invariance(self, ref_model):
        # chain c's trajectory depends only on its own stream, not on the
        # chains batched beside it; binary states keep every product of
        # this 2x2 model exact, so the comparison can be bit for bit
        init = (RngStream(14, 6).uniforms((16, 2)) < 0.5).astype(float)
        pool = make_pool(init, 16, 14)
        full_states, full_q, _ = gibbs_chain(ref_model, init, 3, pool.noise(ref_model))
        for c in range(16):
            alone = ChainPool(init[c:c + 1], [RngStream(14, CHAIN_STREAM_BASE + c)])
            states, q, _ = gibbs_chain(ref_model, alone.states, 3, alone.noise(ref_model))
            np.testing.assert_array_equal(states[0], full_states[c])
            np.testing.assert_array_equal(q[0], full_q[c])

    def test_kernel_draws_once_per_sweep(self, ref_model):
        # each sweep's draws are requested just before it, so memory never
        # grows with k
        pool = make_pool(np.zeros((4, 2)), 4, 15)
        draw = pool.noise(ref_model)
        calls = []

        def noise():
            calls.append(1)
            return draw()

        gibbs_chain(ref_model, pool.states, 7, noise)
        assert len(calls) == 7
        with pytest.raises(ValueError):
            gibbs_chain(ref_model, pool.states, 0, noise)

    def test_long_run_negative_stats_match_exact(self, ref_model):
        # estimator sanity: a million frozen-model chain-steps put the mean
        # PCD negative vh within 0.01 of the exact model expectation
        _, exact_neg = exact_gradient(ref_model, enumerate_states(2))
        n_chains, steps = 200, 5000
        pool = make_pool((RngStream(25, 6).uniforms((n_chains, 2)) < 0.5).astype(float),
                         n_chains, 25)
        acc = np.zeros((2, 2))
        for _ in range(steps):
            neg, pool = pcd_step(ref_model, pool, 1)
            acc += neg.vh
        assert np.max(np.abs(acc / steps - exact_neg.vh)) < 0.01


def dyadic_model(rng, n_visible, n_hidden):
    """Parameters in quarters, so every product and sum a Gibbs sweep
    forms on 0/1 states is exact whatever order BLAS adds it in."""
    def quarters(shape):
        return np.floor(rng.normals(shape) * 4) / 4
    return RbmParams(quarters((n_visible, n_hidden)), quarters(n_visible),
                     quarters(n_hidden))


class TestNoiseBlock:
    def test_block_refills_match_per_chain_gibbs_steps(self):
        # 200 sweeps of a 3x3 pool of 16 chains in uneven calls cross at
        # least two refills; every chain must still follow its own stream
        rng = RngStream(27, 0)
        p = dyadic_model(rng, 3, 3)
        sweeps_per_block = NOISE_BLOCK_BYTES // (8 * 16 * 6)
        assert sweeps_per_block * 2 < 200
        ks = [1, 7, 30, 2, 50, 13, 40, 57]
        assert sum(ks) == 200
        init = (rng.uniforms((16, 3)) < 0.5).astype(float)
        pool = make_pool(init, 16, 27)
        got = []
        for i, k in enumerate(ks):
            if i % 2:
                _, pool = pcd_step(p, pool, k)
                q = hidden_probs(p, pool.states)
            else:
                pool.states, q, _ = gibbs_chain(p, pool.states, k, pool.noise(p))
            got.append((pool.states.copy(), q))
        for c in range(16):
            stream = RngStream(27, CHAIN_STREAM_BASE + c)
            v = init[c]
            for k, (states, q) in zip(ks, got):
                for _ in range(k):
                    v, qq = gibbs_step(p, v, stream)
                np.testing.assert_array_equal(states[c], v)
                np.testing.assert_array_equal(q[c], qq)

    def test_changing_width_keeps_each_stream_in_order(self):
        # models of four widths drawn from one pool in a seeded order: the
        # leftover of one width's block must come first in the next draw
        models = [RbmParams(np.zeros((nv, nh)), np.zeros(nv), np.zeros(nh))
                  for nv, nh in ((3, 3), (5, 4), (30, 20), (1, 1))]
        pool = make_pool(np.zeros((16, 1)), 16, 28)
        order = RngStream(28, 0).uniforms(300)
        drawn = []
        for x in order:
            u_h, u_v = pool.noise(models[int(x * len(models))])()
            drawn.append(np.concatenate([u_h, u_v], axis=1))
        drawn = np.concatenate(drawn, axis=1)
        for c in range(16):
            want = RngStream(28, CHAIN_STREAM_BASE + c).uniforms(drawn.shape[1])
            np.testing.assert_array_equal(drawn[c], want)

    def test_wide_pool_draws_several_sweeps_per_stream_call(self):
        # 24 chains at 794x64 fill a 64 KiB block with less than one sweep,
        # so each refill draws NOISE_MIN_SWEEPS; every sweep must still be
        # the chain's next 858 uniforms, as a lone stream draws them
        p = RbmParams(np.zeros((794, 64)), np.zeros(794), np.zeros(64))
        assert NOISE_BLOCK_BYTES // (8 * 24 * 858) < NOISE_MIN_SWEEPS
        calls = []

        class CountingStream(RngStream):
            def uniforms(self, shape, out=None):
                calls.append((self.stream_id, shape))
                return super().uniforms(shape, out)

        streams = [CountingStream(32, CHAIN_STREAM_BASE + c) for c in range(24)]
        draw = ChainPool(np.zeros((24, 794)), streams).noise(p)
        sweeps = 3 * NOISE_MIN_SWEEPS + 1
        pooled = [np.concatenate(draw(), axis=1) for _ in range(sweeps)]
        refills = -(-sweeps // NOISE_MIN_SWEEPS)
        assert sorted(calls) == sorted(
            (CHAIN_STREAM_BASE + c, NOISE_MIN_SWEEPS * 858)
            for c in range(24) for _ in range(refills))
        for c in range(24):
            lone = RngStream(32, CHAIN_STREAM_BASE + c)
            for sweep in pooled:
                np.testing.assert_array_equal(sweep[c], lone.uniforms(858))

    def test_leftover_crosses_a_wide_refill(self):
        # a 3x3 block's leftover goes in front of a 794-wide refill, and
        # that refill's leftover in front of the next 3x3 block
        small = RbmParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3))
        wide = RbmParams(np.zeros((794, 64)), np.zeros(794), np.zeros(64))
        pool = make_pool(np.zeros((24, 3)), 24, 33)
        drawn = []
        for model, sweeps in ((small, 3), (wide, 2), (small, 60), (wide, 5),
                              (small, 1), (wide, NOISE_MIN_SWEEPS + 1)):
            draw = pool.noise(model)
            drawn += [np.concatenate(draw(), axis=1) for _ in range(sweeps)]
        drawn = np.concatenate(drawn, axis=1)
        for c in range(24):
            want = RngStream(33, CHAIN_STREAM_BASE + c).uniforms(drawn.shape[1])
            np.testing.assert_array_equal(drawn[c], want)

    def test_draws_do_not_depend_on_pool_size(self):
        # At 794 units a pool of one draws 9 sweeps a refill and a pool of
        # 24 NOISE_MIN_SWEEPS; chain c must see the same uniforms either
        # way. Its probabilities need not match bit for bit: a one-row
        # product and a 24-row product round differently.
        p = RbmParams(np.zeros((794, 64)), np.zeros(794), np.zeros(64))
        draw = make_pool(np.zeros((24, 794)), 24, 31).noise(p)
        pooled = [np.concatenate(draw(), axis=1) for _ in range(20)]
        for c in range(24):
            alone = ChainPool(np.zeros((1, 794)),
                              [RngStream(31, CHAIN_STREAM_BASE + c)]).noise(p)
            for sweep in pooled:
                np.testing.assert_array_equal(np.concatenate(alone(), axis=1)[0],
                                              sweep[c])

    def test_gaussian_draws_are_per_sweep_uniforms_then_normals(self):
        p = RbmParams(np.zeros((4, 3)), np.zeros(4), np.zeros(3),
                      visible_kind="gaussian")
        pool = make_pool(np.zeros((5, 4)), 5, 29)
        draw = pool.noise(p)
        sweeps = [draw() for _ in range(4)]
        for c in range(5):
            stream = RngStream(29, CHAIN_STREAM_BASE + c)
            for u_h, e_v in sweeps:
                np.testing.assert_array_equal(u_h[c], stream.uniforms(3))
                np.testing.assert_array_equal(e_v[c], stream.normals(4))

    def test_gaussian_draw_refused_while_uniforms_are_buffered(self):
        binary = RbmParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3))
        gaussian = RbmParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3),
                             visible_kind="gaussian")
        pool = make_pool(np.zeros((16, 3)), 16, 30)
        pool.noise(binary)()
        with pytest.raises(ValueError, match="unused uniforms"):
            pool.noise(gaussian)()


def twin_pools(n_chains, width, seed):
    return [make_pool(np.zeros((n_chains, width)), n_chains, seed) for _ in range(2)]


def per_sweep(pool, p, k):
    """k noise(p)() draws stacked sweep-major, as draw_sweeps hands them out."""
    draw = pool.noise(p)
    u_h, e_v = zip(*(draw() for _ in range(k)))
    return np.stack(u_h), np.stack(e_v)


class TestDrawSweeps:
    def assert_same(self, got, want):
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("n_visible, n_hidden, n_chains, before, k",
                             [(3, 3, 16, 0, 7),       # fresh pool, within a block
                              (3, 3, 16, 0, 400),     # fresh pool, 400 > 85 sweeps
                              (3, 3, 16, 20, 30),     # unused uniforms cover k
                              (3, 3, 16, 80, 30),     # a refill in the middle
                              (5, 2, 3, 1, 1),
                              (794, 64, 24, 1, 9)])   # a wide pool
    def test_equals_k_per_sweep_draws(self, n_visible, n_hidden, n_chains,
                                      before, k):
        p = RbmParams(np.zeros((n_visible, n_hidden)), np.zeros(n_visible),
                      np.zeros(n_hidden))
        pool, twin = twin_pools(n_chains, n_visible, 40)
        if before:
            self.assert_same(per_sweep(pool, p, before), per_sweep(twin, p, before))
        got = pool.draw_sweeps(p, k)
        assert got[0].shape == (k, n_chains, n_hidden)
        assert got[1].shape == (k, n_chains, n_visible)
        self.assert_same(got, per_sweep(twin, p, k))
        # and the pool goes on from where the k sweeps end
        self.assert_same(per_sweep(pool, p, 90), per_sweep(twin, p, 90))

    def test_unused_uniforms_come_first_and_streams_end_with_the_sweeps(self):
        p = RbmParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3))
        calls = []

        class CountingStream(RngStream):
            def uniforms(self, shape, out=None):
                calls.append((self.stream_id, shape))
                return super().uniforms(shape, out)

        pool = ChainPool(np.zeros((16, 3)),
                         [CountingStream(41, CHAIN_STREAM_BASE + c) for c in range(16)])
        block = NOISE_BLOCK_BYTES // (8 * 16 * 6)
        pool.noise(p)()
        pool.draw_sweeps(p, block - 1)
        assert len(calls) == 16  # the rest of the first block, no new draw
        u_h, e_v = pool.draw_sweeps(p, 100)
        assert sorted(calls[16:]) == [(CHAIN_STREAM_BASE + c, 600) for c in range(16)]
        for c in range(16):
            want = RngStream(41, CHAIN_STREAM_BASE + c).uniforms(6 * (block + 100))
            got = np.concatenate([u_h[:, c], e_v[:, c]], axis=1)
            np.testing.assert_array_equal(got, want[6 * block:].reshape(100, 6))

    def test_a_block_handed_out_to_its_end_is_let_go(self):
        p = RbmParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3))
        pool = make_pool(np.zeros((16, 3)), 16, 42)
        pool.noise(p)()
        u_h, e_v = pool.draw_sweeps(p, 400)
        block = weakref.ref(u_h.base)
        del u_h, e_v
        gc.collect()
        assert block() is None

    def test_gaussian_visibles_refused_drawing_nothing(self):
        p = RbmParams(np.zeros((4, 3)), np.zeros(4), np.zeros(3),
                      visible_kind="gaussian")
        pool = make_pool(np.zeros((5, 4)), 5, 43)
        with pytest.raises(ValueError, match="binary visibles only"):
            pool.draw_sweeps(p, 2)
        u_h, e_v = pool.noise(p)()
        for c in range(5):
            stream = RngStream(43, CHAIN_STREAM_BASE + c)
            np.testing.assert_array_equal(u_h[c], stream.uniforms(3))
            np.testing.assert_array_equal(e_v[c], stream.normals(4))

    @pytest.mark.parametrize("k", [0, -1])
    def test_needs_a_sweep(self, k):
        p = RbmParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="k must be >= 1"):
            make_pool(np.zeros((2, 3)), 2, 44).draw_sweeps(p, k)


class TestSelectElite:
    def build_linear_model(self):
        # W=0 and a huge negative hidden bias make F(v) = -3 v within 1e-21,
        # so states below pin free energies [-3, -1, -2, 0]
        return RbmParams(np.zeros((1, 1)), np.array([3.0]), np.array([-50.0]))

    def test_bottom_half_indices(self):
        p = self.build_linear_model()
        states = np.array([[1.0], [1 / 3], [2 / 3], [0.0]])
        np.testing.assert_array_equal(select_elite(p, states, 0.5), [0, 2])

    def test_full_fraction_keeps_everything(self):
        p = self.build_linear_model()
        states = np.array([[1.0], [1 / 3], [2 / 3], [0.0]])
        assert sorted(select_elite(p, states, 1.0)) == [0, 1, 2, 3]

    def test_permutation_equivariance(self, ref_model):
        states = (RngStream(15, 0).uniforms((8, 2)) < 0.5).astype(float)
        base = set(select_elite(ref_model, states, 0.5))
        perm = RngStream(15, 1).permutation(8)
        permuted = select_elite(ref_model, states[perm], 0.5)
        assert {int(perm[i]) for i in permuted} == base

    def test_duplicates_both_eligible(self):
        p = self.build_linear_model()
        states = np.array([[1.0], [1.0], [0.0], [0.0]])
        np.testing.assert_array_equal(select_elite(p, states, 0.5), [0, 1])

    def test_tie_breaks_toward_low_index(self):
        p = self.build_linear_model()
        states = np.array([[0.5], [0.5], [0.5]])
        np.testing.assert_array_equal(select_elite(p, states, 0.5), [0, 1])

    def test_empty_states_rejected(self, ref_model):
        with pytest.raises(ValueError):
            select_elite(ref_model, np.zeros((0, 2)), 0.5)

    def test_bad_fraction_rejected(self, ref_model):
        with pytest.raises(ValueError):
            select_elite(ref_model, np.zeros((2, 2)), 0.0)

    def test_free_energy_order_is_descending_probability_order(self, ref_model):
        # fixed parameters share one partition function, so ranking states
        # by rising F must equal ranking them by falling exact P(v)
        from rbmkit import free_energy
        states = enumerate_states(2)
        f = free_energy(ref_model, states)
        p = visible_marginal(ref_model)
        np.testing.assert_array_equal(np.argsort(f), np.argsort(-p))


class TestFepcdStep:
    def test_fraction_one_bit_identical_to_pcd(self, ref_model):
        init = (RngStream(16, 6).uniforms((12, 2)) < 0.5).astype(float)
        pool_a = make_pool(init, 12, 16)
        pool_b = make_pool(init, 12, 16)
        for _ in range(5):
            neg_a, pool_a = pcd_step(ref_model, pool_a, 2)
            neg_b, pool_b = fepcd_step(ref_model, pool_b, 2, 1.0)
            assert np.array_equal(neg_a.vh, neg_b.vh)
            assert np.array_equal(neg_a.v, neg_b.v)
            assert np.array_equal(neg_a.h, neg_b.h)
            assert np.array_equal(pool_a.states, pool_b.states)

    def test_negative_stats_average_post_step_elite(self):
        # a frozen 6x4 model and a known 16-chain pool: the statistics must
        # come from the lowest-F rows *after* the step, which here are not
        # the lowest-F rows before it
        rng = RngStream(26, 0)
        p = RbmParams(rng.normals((6, 4)), rng.normals(6), rng.normals(4))
        init = (rng.uniforms((16, 6)) < 0.5).astype(float)
        twin = make_pool(init, 16, 26)
        post, q, _ = gibbs_chain(p, twin.states, 2, twin.noise(p))
        elite = np.sort(np.argsort(free_energy(p, post), kind="stable")[:8])
        pre_elite = np.sort(np.argsort(free_energy(p, init), kind="stable")[:8])
        assert not np.array_equal(elite, pre_elite)
        want = batch_stats(post[elite], q[elite])
        neg, _ = fepcd_step(p, make_pool(init, 16, 26), 2, 0.5)
        assert neg.count == 8
        np.testing.assert_array_equal(neg.vh, want.vh)
        np.testing.assert_array_equal(neg.v, want.v)
        np.testing.assert_array_equal(neg.h, want.h)
        neg_pcd, _ = pcd_step(p, make_pool(init, 16, 26), 2)
        assert not np.array_equal(neg.vh, neg_pcd.vh)

    def test_elite_split_by_free_energy(self, ref_model):
        pool = make_pool((RngStream(17, 6).uniforms((10, 2)) < 0.5).astype(float),
                         10, 17)
        _, pool = fepcd_step(ref_model, pool, 1, 0.5)
        f = free_energy(ref_model, pool.states)
        elite = select_elite(ref_model, pool.states, 0.5)
        others = [i for i in range(10) if i not in set(elite)]
        assert f[elite].max() <= f[others].min()

    def test_all_chains_persist(self, ref_model):
        pool = make_pool((RngStream(18, 6).uniforms((10, 2)) < 0.5).astype(float),
                         10, 18)
        twin = make_pool(pool.states, 10, 18)
        states_a, _, _ = gibbs_chain(ref_model, twin.states, 1, twin.noise(ref_model))
        _, pool = fepcd_step(ref_model, pool, 1, 0.3)
        np.testing.assert_array_equal(pool.states, states_a)

    def test_elite_states_have_higher_oracle_probability(self, ref_model):
        marg = visible_marginal(ref_model)
        pool = make_pool((RngStream(19, 6).uniforms((16, 2)) < 0.5).astype(float),
                         16, 19)
        for _ in range(200):
            _, pool = fepcd_step(ref_model, pool, 1, 0.5)
            probs = marg[state_ids(pool.states)]
            elite = select_elite(ref_model, pool.states, 0.5)
            assert probs[elite].mean() >= probs.mean() - 1e-12
