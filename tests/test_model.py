import itertools
import math

import numpy as np
import pytest

from rbmkit import (BINARY, GAUSSIAN, GradientStats, Hyperparams, RbmParams,
                    RngStream, UpdateState, apply_update, batch_stats, energy,
                    free_energy, hidden_input, hidden_probs, load_model,
                    log1p_exp, momentum_step, save_model, visible_probs)
from rbmkit.model import sample_visible, visible_noise
from rbmkit.oracle import free_energy_entropy_form


def enum_free_energy(p, v):
    """-log sum_h exp(-E(v, h)) by explicit enumeration over h, using the
    energy function directly; independent of the closed-form path."""
    terms = [math.exp(-energy(p, v, h))
             for h in itertools.product([0.0, 1.0], repeat=p.n_hidden)]
    return -math.log(sum(terms))


class TestEnergy:
    def test_all_zero_configuration(self, ref_model):
        assert energy(ref_model, [0, 0], [0, 0]) == 0.0

    def test_single_unit_hand_value(self):
        p = RbmParams(np.array([[2.0]]), np.array([0.5]), np.array([-1.0]))
        assert energy(p, [1.0], [1.0]) == pytest.approx(-2 - 0.5 + 1, abs=1e-15)

    def test_ref_model_hand_expansion(self, ref_model):
        # -v.W.h = -1.5, -a.v = -(-0.1)... full expansion gives -1.7
        assert energy(ref_model, [1.0, 1.0], [1.0, 0.0]) == pytest.approx(-1.7, abs=1e-15)

    def test_dimension_mismatch(self, ref_model):
        with pytest.raises(ValueError):
            energy(ref_model, [1.0], [1.0, 0.0])

    def test_gaussian_quadratic_term(self):
        p = RbmParams(np.array([[1.0]]), np.array([0.25]), np.array([0.0]),
                      visible_kind=GAUSSIAN)
        # (v-a)^2/2 - v*w*h - b*h at v=1, h=1
        expected = 0.5 * (1 - 0.25) ** 2 - 1.0
        assert energy(p, [1.0], [1.0]) == pytest.approx(expected, abs=1e-15)


class TestConditionals:
    def test_zero_model_hidden_probs(self, zero_model):
        np.testing.assert_array_equal(hidden_probs(zero_model(), [0.0, 0.0]),
                                      [0.5, 0.5])

    def test_ref_model_hidden_probs(self, ref_model):
        from rbmkit import sigmoid
        got = hidden_probs(ref_model, [1.0, 0.0])
        np.testing.assert_allclose(got, [sigmoid(1.3), sigmoid(-1.0)], atol=1e-15)

    def test_doubled_bias_scaling(self):
        b = 0.7
        p1 = RbmParams(np.zeros((2, 1)), np.zeros(2), np.array([b]))
        p2 = RbmParams(np.zeros((2, 1)), np.zeros(2), np.array([2 * b]))
        from rbmkit import sigmoid
        assert hidden_probs(p1, [0.0, 0.0])[0] == pytest.approx(sigmoid(b))
        assert hidden_probs(p2, [0.0, 0.0])[0] == pytest.approx(sigmoid(2 * b))

    def test_zero_model_visible_probs_binary(self, zero_model):
        np.testing.assert_array_equal(visible_probs(zero_model(), [0.0, 0.0]),
                                      [0.5, 0.5])

    def test_zero_model_visible_means_gaussian(self, zero_model):
        p = zero_model(visible_kind=GAUSSIAN)
        np.testing.assert_array_equal(visible_probs(p, [0.0, 0.0]), [0.0, 0.0])

    def test_ref_model_visible_probs(self, ref_model):
        from rbmkit import sigmoid
        got = visible_probs(ref_model, [0.0, 1.0])
        np.testing.assert_allclose(got, [sigmoid(0.1 - 1.0), sigmoid(0.0)],
                                   atol=1e-15)

    def test_batch_rows_match_single_vectors(self, ref_model):
        batch = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        rows = hidden_probs(ref_model, batch)
        for i, v in enumerate(batch):
            np.testing.assert_allclose(rows[i], hidden_probs(ref_model, v),
                                       atol=1e-15)

    @pytest.mark.parametrize("h", [[0.0, 1.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]])
    def test_binary_draw_at_the_probability_stays_off(self, ref_model, h):
        e = visible_probs(ref_model, h)
        v = sample_visible(ref_model, h, e)
        assert v.dtype == np.float64 and v.shape == e.shape
        np.testing.assert_array_equal(v, np.zeros_like(e))
        np.testing.assert_array_equal(sample_visible(ref_model, h, np.nextafter(e, 0)),
                                      np.ones_like(e))

    @pytest.mark.parametrize("h", [[0.0, 1.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]])
    def test_gaussian_draw_is_the_mean_plus_the_noise(self, h):
        rng = RngStream(4, 0)
        p = RbmParams(rng.normals((3, 2)), rng.normals(3), rng.normals(2),
                      visible_kind=GAUSSIAN)
        e = rng.normals(np.shape(h)[:-1] + (3,))
        v = sample_visible(p, h, e)
        assert v.dtype == np.float64
        np.testing.assert_array_equal(v, visible_probs(p, h) + e)

    @pytest.mark.parametrize("kind, draw", [(BINARY, "uniforms"), (GAUSSIAN, "normals")])
    def test_visible_noise_consumes_its_kinds_draws(self, zero_model, kind, draw):
        ours, ref = RngStream(9, 2), RngStream(9, 2)
        got = visible_noise(zero_model(visible_kind=kind), ours, (4, 2))
        np.testing.assert_array_equal(got, getattr(ref, draw)((4, 2)))
        np.testing.assert_array_equal(ours.uniforms(3), ref.uniforms(3))


class TestFreeEnergy:
    def test_zero_model_is_minus_two_ln2(self, zero_model):
        p = zero_model(3, 2)
        for v in itertools.product([0.0, 1.0], repeat=3):
            assert free_energy(p, list(v)) == pytest.approx(-2 * math.log(2),
                                                            abs=1e-14)

    def test_ref_model_hand_value(self, ref_model):
        expected = -(math.log(1 + math.exp(0.3)) + math.log(2))
        assert free_energy(ref_model, [0.0, 0.0]) == pytest.approx(expected, abs=1e-15)

    def test_matches_hidden_enumeration(self, ref_model):
        rng = RngStream(11, 0)
        for trial in range(20):
            p = RbmParams(rng.normals((3, 4)), rng.normals(3), rng.normals(4))
            v = (rng.uniforms(3) < 0.5).astype(float)
            assert free_energy(p, v) == pytest.approx(enum_free_energy(p, v),
                                                      abs=1e-10)
            assert free_energy(p, v, hidden_input(p, v)) == free_energy(p, v)

    def test_gaussian_matches_hidden_enumeration(self):
        rng = RngStream(12, 0)
        for trial in range(10):
            p = RbmParams(rng.normals((3, 3)), rng.normals(3), rng.normals(3),
                          visible_kind=GAUSSIAN)
            v = rng.normals(3)
            assert free_energy(p, v) == pytest.approx(enum_free_energy(p, v),
                                                      abs=1e-10)
            assert free_energy(p, v, hidden_input(p, v)) == free_energy(p, v)

    @pytest.mark.parametrize("kind", [BINARY, GAUSSIAN])
    def test_batch_is_np_sum_form_bit_for_bit(self, kind):
        rng = RngStream(15, 0)
        p = RbmParams(rng.normals((30, 20)), rng.normals(30), rng.normals(20),
                      visible_kind=kind)
        v = rng.uniforms((11, 30))
        hidden = np.sum(log1p_exp(hidden_input(p, v)), axis=-1)
        if kind == GAUSSIAN:
            visible = 0.5 * np.sum((v - p.a) ** 2, axis=-1)
        else:
            visible = -(v @ p.a)
        np.testing.assert_array_equal(free_energy(p, v), visible - hidden)

    def test_entropy_form_agrees(self):
        rng = RngStream(13, 0)
        for trial in range(50):
            # keep hidden inputs within |I_j| <= 20 so q log q stays tame
            p = RbmParams(5.0 * rng.uniforms((3, 3)) - 2.5,
                          rng.normals(3), 5.0 * rng.uniforms(3) - 2.5)
            v = (rng.uniforms(3) < 0.5).astype(float)
            assert free_energy_entropy_form(p, v) == pytest.approx(
                free_energy(p, v), abs=1e-8)

    def test_entropy_form_batch_matches_rows(self):
        rng = RngStream(14, 0)
        p = RbmParams(rng.normals((4, 3)), rng.normals(4), rng.normals(3))
        states = (rng.uniforms((6, 4)) < 0.5).astype(float)
        batch = free_energy_entropy_form(p, states)
        assert batch.shape == (6,)
        for row, value in zip(states, batch):
            single = free_energy_entropy_form(p, row)
            assert type(single) is float
            assert value == pytest.approx(single, abs=1e-12)

    def test_entropy_form_saturated_inputs(self):
        p = RbmParams(np.array([[60.0], [-60.0]]), np.zeros(2), np.array([0.0]))
        for v in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]):
            assert free_energy_entropy_form(p, v) == pytest.approx(
                free_energy(p, v), abs=1e-8)


class TestBatchStats:
    def test_single_row_outer_product(self):
        stats = batch_stats([[1.0, 0.0]], [[0.5, 0.5]])
        np.testing.assert_array_equal(stats.vh, [[0.5, 0.5], [0.0, 0.0]])
        np.testing.assert_array_equal(stats.v, [1.0, 0.0])
        np.testing.assert_array_equal(stats.h, [0.5, 0.5])
        assert stats.count == 1

    def test_duplicated_rows_idempotent(self):
        one = batch_stats([[1.0, 0.0]], [[0.3, 0.9]])
        two = batch_stats([[1.0, 0.0]] * 2, [[0.3, 0.9]] * 2)
        np.testing.assert_allclose(two.vh, one.vh, atol=1e-15)
        np.testing.assert_allclose(two.v, one.v, atol=1e-15)
        np.testing.assert_allclose(two.h, one.h, atol=1e-15)

    def test_matches_per_row_loop(self):
        rng = RngStream(21, 0)
        v = rng.uniforms((8, 3))
        h = rng.uniforms((8, 2))
        stats = batch_stats(v, h)
        vh = np.zeros((3, 2))
        for i in range(8):
            vh += np.outer(v[i], h[i])
        vh /= 8
        np.testing.assert_allclose(stats.vh, vh, atol=1e-12)
        np.testing.assert_allclose(stats.v, v.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(stats.h, h.mean(axis=0), atol=1e-12)

    def test_means_are_np_mean_bit_for_bit(self):
        # row counts below, at and past numpy's 8-wide unrolled sum
        rng = RngStream(22, 0)
        for m, n_v, n_h in ((1, 3, 2), (7, 5, 4), (20, 794, 64), (33, 9, 17)):
            v = rng.uniforms((m, n_v))
            h = rng.uniforms((m, n_h))
            stats = batch_stats(v, h)
            np.testing.assert_array_equal(stats.v, np.mean(v, axis=0))
            np.testing.assert_array_equal(stats.h, np.mean(h, axis=0))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            batch_stats([[1.0, 0.0]], [[0.5, 0.5]] * 2)


def make_stats(vh, v, h):
    return GradientStats(np.asarray(vh, float), np.asarray(v, float),
                         np.asarray(h, float), count=1)


class TestApplyUpdate:
    def test_zero_gradient_is_identity(self, ref_model):
        stats = make_stats([[0.2, 0.3], [0.1, 0.4]], [0.5, 0.5], [0.5, 0.5])
        hp = Hyperparams(epsilon=0.1, momentum=0.0, weight_decay=0.0)
        before = ref_model.copy()
        out = apply_update(ref_model, stats, stats, hp,
                           UpdateState.zeros_like(ref_model))
        np.testing.assert_array_equal(out.w, before.w)
        np.testing.assert_array_equal(out.a, before.a)
        np.testing.assert_array_equal(out.b, before.b)

    def test_unit_learning_rate_unit_gradient(self):
        p = RbmParams(np.array([[2.0]]), np.array([0.0]), np.array([0.0]))
        pos = make_stats([[1.0]], [0.0], [0.0])
        neg = make_stats([[0.0]], [0.0], [0.0])
        hp = Hyperparams(epsilon=1.0)
        out = apply_update(p, pos, neg, hp, UpdateState.zeros_like(p))
        assert out.w[0, 0] == 3.0

    def test_momentum_two_step(self):
        p = RbmParams(np.array([[0.0]]), np.array([0.0]), np.array([0.0]))
        pos = make_stats([[1.0]], [0.0], [0.0])
        neg = make_stats([[0.0]], [0.0], [0.0])
        hp = Hyperparams(epsilon=0.1, momentum=0.5)
        state = UpdateState.zeros_like(p)
        # the update steps p in place, so each step's weights are read off
        # as a snapshot
        w1 = apply_update(p, pos, neg, hp, state).w[0, 0].copy()
        w2 = apply_update(p, pos, neg, hp, state).w[0, 0].copy()
        assert w1 == pytest.approx(0.1)
        assert w2 - w1 == pytest.approx(1.5 * 0.1)

    def test_swapping_phases_negates_update(self, ref_model):
        # the step itself (the velocity written by the call) flips sign
        # exactly; decay and momentum off
        rng = RngStream(31, 0)
        pos = make_stats(rng.uniforms((2, 2)), rng.uniforms(2), rng.uniforms(2))
        neg = make_stats(rng.uniforms((2, 2)), rng.uniforms(2), rng.uniforms(2))
        hp = Hyperparams(epsilon=0.2)
        fwd_state = UpdateState.zeros_like(ref_model)
        rev_state = UpdateState.zeros_like(ref_model)
        apply_update(ref_model, pos, neg, hp, fwd_state)
        apply_update(ref_model, neg, pos, hp, rev_state)
        np.testing.assert_array_equal(fwd_state.vel_w, -rev_state.vel_w)
        np.testing.assert_array_equal(fwd_state.vel_a, -rev_state.vel_a)
        np.testing.assert_array_equal(fwd_state.vel_b, -rev_state.vel_b)

    def test_mismatched_stats_rejected(self, ref_model):
        bad = make_stats([[1.0]], [0.0], [0.0])
        hp = Hyperparams()
        with pytest.raises(ValueError):
            apply_update(ref_model, bad, bad, hp, UpdateState.zeros_like(ref_model))

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("decay", [0.0, 0.01])
    def test_bit_identical_to_ascent_form(self, momentum, decay):
        hp = Hyperparams(epsilon=0.1, momentum=momentum, weight_decay=decay)
        rng = RngStream(35, 0)
        p = RbmParams(rng.normals((7, 5)), rng.normals(7), rng.normals(5))
        state = UpdateState.zeros_like(p)
        ref_p, ref_vel = (p.w.copy(), p.a.copy(), p.b.copy()), (0.0, 0.0, 0.0)
        for _ in range(4):
            pos = random_stats(rng, 7, 5)
            neg = random_stats(rng, 7, 5)
            ref_p, ref_vel = ascent_form_update(ref_p, pos, neg, hp, ref_vel)
            p = apply_update(p, pos, neg, hp, state)
            for got, want in zip((p.w, p.a, p.b, state.vel_w, state.vel_a,
                                  state.vel_b), ref_p + ref_vel):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("row_backed", [False, True])
    def test_steps_params_in_place_and_writes_no_statistics(self, row_backed):
        hp = Hyperparams(epsilon=0.1, momentum=0.9, weight_decay=0.01)
        rng = RngStream(36, 0)
        p = RbmParams(rng.normals((4, 3)), rng.normals(4), rng.normals(3))
        if row_backed:
            pos, neg = random_row_stats(rng, 4, 3, 5), random_row_stats(rng, 4, 3, 3)
            inputs = (*pos._rows, *neg._rows, pos.v, pos.h, neg.v, neg.h)
        else:
            pos, neg = random_stats(rng, 4, 3), random_stats(rng, 4, 3)
            inputs = (pos.vh, pos.v, pos.h, neg.vh, neg.v, neg.h)
        before = [arr.copy() for arr in inputs]
        buffers = (p.w, p.a, p.b)
        state = UpdateState.zeros_like(p)
        ref_p, ref_vel = (p.w.copy(), p.a.copy(), p.b.copy()), (0.0, 0.0, 0.0)
        for _ in range(2):
            ref_p, ref_vel = ascent_form_update(ref_p, pos, neg, hp, ref_vel)
            assert apply_update(p, pos, neg, hp, state) is p
            # the step lands in p's own buffers and nowhere else
            assert all(got is buf for got, buf in zip((p.w, p.a, p.b), buffers))
            for got, want in zip((p.w, p.a, p.b), ref_p):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        for arr, orig in zip(inputs, before):
            np.testing.assert_array_equal(arr, orig)

    @pytest.mark.parametrize("field", ["vel_w", "vel_a", "vel_b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_velocity_raises(self, ref_model, field, bad):
        # train_rbm turns this ValueError into TrainingDivergedError
        stats = make_stats([[0.2, 0.3], [0.1, 0.4]], [0.5, 0.5], [0.5, 0.5])
        state = UpdateState.zeros_like(ref_model)
        getattr(state, field)[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            apply_update(ref_model, stats, stats, Hyperparams(momentum=0.5), state)

    def test_overflow_raises(self):
        p = RbmParams(np.array([[1e308]]), np.array([0.0]), np.array([0.0]))
        state = UpdateState(np.array([[1e308]]), np.zeros(1), np.zeros(1))
        stats = make_stats([[0.0]], [0.0], [0.0])
        with pytest.raises(ValueError, match="non-finite"):
            apply_update(p, stats, stats, Hyperparams(momentum=1.0), state)

    def test_result_keeps_kind_labels_and_layout(self):
        rng = RngStream(37, 0)
        p = RbmParams(rng.normals((5, 3)), rng.normals(5), rng.normals(3),
                      GAUSSIAN, label_units=2)
        out = apply_update(p, random_stats(rng, 5, 3), random_stats(rng, 5, 3),
                           Hyperparams(), UpdateState.zeros_like(p))
        assert (out.visible_kind, out.label_units) == (GAUSSIAN, 2)
        for got, want in zip((out.w, out.a, out.b), (p.w, p.a, p.b)):
            assert got.shape == want.shape and got.dtype == np.float64
            assert got.flags.c_contiguous


def random_stats(rng, n_visible, n_hidden):
    return make_stats(rng.uniforms((n_visible, n_hidden)),
                      rng.uniforms(n_visible), rng.uniforms(n_hidden))


def random_row_stats(rng, n_visible, n_hidden, rows, kind=BINARY):
    """batch_stats of rows visible rows (0/1 for binary visibles, real
    for Gaussian ones) and hidden probabilities."""
    v = rng.uniforms((rows, n_visible))
    v = (v < 0.5).astype(float) if kind == BINARY else 2.0 * rng.normals((rows, n_visible))
    return batch_stats(v, rng.uniforms((rows, n_hidden)))


def ascent_form_update(params, pos, neg, hp, vel):
    """Reference update in ascent form: velocities step along pos - neg
    with the decay pulled off. apply_update's descent form (neg - pos,
    through momentum_step) must match it bit for bit."""
    w, a, b = params
    vel_w = hp.momentum * vel[0] + hp.epsilon * ((pos.vh - neg.vh) - hp.weight_decay * w)
    vel_a = hp.momentum * vel[1] + hp.epsilon * (pos.v - neg.v)
    vel_b = hp.momentum * vel[2] + hp.epsilon * (pos.h - neg.h)
    return (w + vel_w, a + vel_a, b + vel_b), (vel_w, vel_a, vel_b)


def stacked_form_update(params, pos_rows, neg_rows, hp, vel):
    """Reference update whose weight direction is written out as the one
    stacked product [v_neg; v_pos]^T @ [h_neg / m_neg; -h_pos / m_pos];
    the biases step along the difference of np.mean's of the rows."""
    w, a, b = params
    (v_pos, h_pos), (v_neg, h_neg) = pos_rows, neg_rows
    h = np.concatenate([h_neg / v_neg.shape[0], h_pos / -v_pos.shape[0]])
    grad_w = np.concatenate([v_neg, v_pos]).T @ h
    if hp.weight_decay:
        grad_w = grad_w + hp.weight_decay * w
    grad_a = np.mean(v_neg, axis=0) - np.mean(v_pos, axis=0)
    grad_b = np.mean(h_neg, axis=0) - np.mean(h_pos, axis=0)
    vel = tuple(hp.momentum * old - hp.epsilon * g
                for old, g in zip(vel, (grad_w, grad_a, grad_b)))
    return (w + vel[0], a + vel[1], b + vel[2]), vel


class TestStackedStep:
    """apply_update on two row-backed phases: one product over both
    phases' rows, never reading vh."""

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("decay", [0.0, 0.01])
    @pytest.mark.parametrize("m_pos, m_neg", [(20, 20), (20, 10)])
    @pytest.mark.parametrize("kind", [BINARY, GAUSSIAN])
    def test_bit_identical_to_stacked_form(self, momentum, decay, m_pos, m_neg,
                                           kind):
        hp = Hyperparams(epsilon=0.1, momentum=momentum, weight_decay=decay)
        rng = RngStream(38, 0)
        p = RbmParams(0.1 * rng.normals((30, 9)), rng.normals(30), rng.normals(9),
                      kind)
        state = UpdateState.zeros_like(p)
        ref_p, ref_vel = (p.w.copy(), p.a.copy(), p.b.copy()), (0.0, 0.0, 0.0)
        for _ in range(3):
            pos = random_row_stats(rng, 30, 9, m_pos, kind)
            neg = random_row_stats(rng, 30, 9, m_neg, kind)
            ref_p, ref_vel = stacked_form_update(ref_p, pos._rows, neg._rows,
                                                 hp, ref_vel)
            apply_update(p, pos, neg, hp, state)
            for got, want in zip((p.w, p.a, p.b, state.vel_w, state.vel_a,
                                  state.vel_b), ref_p + ref_vel):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("m_pos, m_neg", [(20, 20), (20, 10)])
    @pytest.mark.parametrize("kind", [BINARY, GAUSSIAN])
    def test_matches_dense_form(self, m_pos, m_neg, kind):
        # the same step from dense copies of the statistics: the weights
        # agree to rounding, the biases bit for bit
        hp = Hyperparams(epsilon=0.1, momentum=0.9, weight_decay=0.01)
        rng = RngStream(39, 0)
        p = RbmParams(0.1 * rng.normals((794, 64)), rng.normals(794),
                      rng.normals(64), kind)
        dense_p = p.copy()
        state, dense_state = UpdateState.zeros_like(p), UpdateState.zeros_like(p)
        for _ in range(3):
            pos = random_row_stats(rng, 794, 64, m_pos, kind)
            neg = random_row_stats(rng, 794, 64, m_neg, kind)
            apply_update(p, pos, neg, hp, state)
            apply_update(dense_p, *[GradientStats(s.vh, s.v, s.h, s.count)
                                    for s in (pos, neg)], hp, dense_state)
            for got, want in ((p.w, dense_p.w), (state.vel_w, dense_state.vel_w)):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            for got, want in ((p.a, dense_p.a), (p.b, dense_p.b),
                              (state.vel_a, dense_state.vel_a),
                              (state.vel_b, dense_state.vel_b)):
                np.testing.assert_array_equal(got, want)

    def test_never_reads_vh(self, monkeypatch):
        def unread(stats):
            raise AssertionError("vh read")

        monkeypatch.setattr(GradientStats, "vh",
                            property(unread, GradientStats.vh.fset))
        rng = RngStream(40, 0)
        p = RbmParams(rng.normals((6, 4)), rng.normals(6), rng.normals(4))
        apply_update(p, random_row_stats(rng, 6, 4, 5), random_row_stats(rng, 6, 4, 3),
                     Hyperparams(), UpdateState.zeros_like(p))

    @pytest.mark.parametrize("side", ["pos", "neg"])
    def test_assigned_vh_is_followed(self, side):
        hp = Hyperparams(epsilon=0.1, momentum=0.5)
        rng = RngStream(41, 0)
        p = RbmParams(rng.normals((6, 4)), rng.normals(6), rng.normals(4))
        stats = {"pos": random_row_stats(rng, 6, 4, 5),
                 "neg": random_row_stats(rng, 6, 4, 3)}
        assigned = stats[side].vh + rng.uniforms((6, 4))
        stats[side].vh = assigned
        assert stats[side].vh is assigned
        want = p.copy()
        dense = {k: GradientStats(s.vh, s.v, s.h, s.count) for k, s in stats.items()}
        apply_update(want, dense["pos"], dense["neg"], hp, UpdateState.zeros_like(p))
        apply_update(p, stats["pos"], stats["neg"], hp, UpdateState.zeros_like(p))
        for got, ref in zip((p.w, p.a, p.b), (want.w, want.a, want.b)):
            np.testing.assert_array_equal(got, ref)


class TestMomentumStep:
    def test_updates_velocity_in_place(self):
        hp = Hyperparams(epsilon=0.5, momentum=0.5, weight_decay=0.1)
        vel = np.ones(3)
        assert momentum_step(vel, np.full(3, 2.0), hp) is vel
        np.testing.assert_array_equal(vel, 0.5 - 0.5 * 2.0)

    def test_zero_momentum_drops_the_old_velocity(self):
        hp = Hyperparams(epsilon=0.5, momentum=0.0, weight_decay=0.1)
        vel = np.full(3, 7.0)
        grad = np.array([2.0, -1.0, 0.0])
        assert momentum_step(vel, grad, hp, np.full(3, 10.0)) is vel
        np.testing.assert_array_equal(vel, -0.5 * (np.array([2.0, -1.0, 0.0]) + 1.0))

    def test_decay_applies_only_with_param(self):
        hp = Hyperparams(epsilon=0.5, momentum=0.5, weight_decay=0.1)
        vel = np.full(2, -0.5)
        momentum_step(vel, np.full(2, 2.0), hp, np.full(2, 10.0))
        np.testing.assert_array_equal(vel, 0.5 * -0.5 - 0.5 * (2.0 + 0.1 * 10.0))


class TestValidation:
    def test_non_finite_parameters_rejected(self):
        with pytest.raises(ValueError):
            RbmParams(np.array([[np.nan]]), np.zeros(1), np.zeros(1))

    def test_shape_consistency_enforced(self):
        with pytest.raises(ValueError):
            RbmParams(np.zeros((2, 3)), np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("n_visible, n_hidden", [(3, 0), (0, 3)])
    def test_layer_without_units_rejected(self, n_visible, n_hidden):
        # load_model refuses such a layer, so no constructor may build one
        with pytest.raises(ValueError, match="at least one visible and one hidden"):
            RbmParams(np.zeros((n_visible, n_hidden)), np.zeros(n_visible),
                      np.zeros(n_hidden))

    @pytest.mark.parametrize("value", [2.0, np.float64(1.0), True, "1"])
    def test_non_integer_label_units_rejected_naming_the_field(self, value):
        with pytest.raises(ValueError, match="^label_units must be an integer"):
            RbmParams(np.zeros((4, 2)), np.zeros(4), np.zeros(2),
                      label_units=value)

    def test_numpy_integer_label_units_stored_as_int(self, tmp_path):
        p = RbmParams(np.zeros((4, 2)), np.zeros(4), np.zeros(2),
                      label_units=np.int64(2))
        assert type(p.label_units) is int and p.label_units == 2
        save_model(tmp_path / "m.json", p)
        assert load_model(tmp_path / "m.json").label_units == 2

    def test_hyperparams_epsilon_zero_allowed(self):
        Hyperparams(epsilon=0.0).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["epsilon", "momentum", "weight_decay"])
    def test_hyperparams_non_finite_rejected_naming_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} .*finite"):
            Hyperparams(**{name: value}).validate()

    @pytest.mark.parametrize("value", [1.5, 3.0, True, np.float64(2.0)])
    @pytest.mark.parametrize("name", ["batch_size", "k", "epochs", "n_chains"])
    def test_hyperparams_non_integer_count_rejected_naming_the_field(self, name,
                                                                     value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            Hyperparams(**{name: value}).validate()

    @pytest.mark.parametrize("value", [True, False, np.True_, "0.1", None])
    @pytest.mark.parametrize("name", ["epsilon", "momentum", "weight_decay",
                                      "elite_fraction"])
    def test_hyperparams_non_number_rate_rejected_naming_the_field(self, name,
                                                                   value):
        with pytest.raises(ValueError, match=f"^{name} .*must be a finite number"):
            Hyperparams(**{name: value}).validate()

    @pytest.mark.parametrize("name", ["batch_size", "k", "epochs", "n_chains"])
    def test_hyperparams_numpy_integer_count_accepted(self, name):
        Hyperparams(**{name: np.int64(3)}).validate()

    def test_hyperparams_bad_fraction(self):
        with pytest.raises(ValueError):
            Hyperparams(elite_fraction=0.0).validate()
        with pytest.raises(ValueError):
            Hyperparams(elite_fraction=1.5).validate()
