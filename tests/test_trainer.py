import numpy as np
import pytest

from rbmkit import (BINARY, GAUSSIAN, GradientStats, Hyperparams, RbmParams,
                    RngStream,
                    TrainingDivergedError, UpdateState, apply_update,
                    batch_stats, cd_k, fepcd_step, free_energy, hidden_input,
                    hidden_probs, init_params, make_pool, pcd_step,
                    reconstruction_error, train_rbm, visible_probs)
from rbmkit import trainer
from rbmkit.oracle import mean_log_likelihood
from rbmkit.samplers import CHAIN_STREAM_BASE
from rbmkit.trainer import (ESTIMATORS, FEPCD, PCD, STREAM_DATA, STREAM_EVAL,
                            STREAM_INIT, STREAM_SHUFFLE)

TWO_PATTERN_DATA = np.array([[1.0, 1.0]] * 4 + [[0.0, 0.0]] * 2)


def metrics_tuple(rows):
    """Metrics with the wall-clock field dropped, for equality checks."""
    return [(r.epoch, r.recon_error, r.mean_free_energy, r.estimator, r.seed)
            for r in rows]


class TestReconstructionError:
    def test_zero_model_on_binary_data(self, zero_model):
        err = reconstruction_error(zero_model(), np.array([[1.0, 0.0]]),
                                   RngStream(0, 3))
        assert err == 0.25

    def test_zero_when_saturated_biases_reproduce_data(self):
        p = RbmParams(np.zeros((2, 2)), np.array([800.0, -800.0]), np.zeros(2))
        err = reconstruction_error(p, np.array([[1.0, 0.0]] * 4), RngStream(0, 3))
        assert err == 0.0

    def test_empty_batch_rejected(self, ref_model):
        with pytest.raises(ValueError):
            reconstruction_error(ref_model, np.zeros((0, 2)), RngStream(0, 3))

    def test_is_np_mean_form_bit_for_bit(self):
        rng = RngStream(16, 0)
        p = RbmParams(rng.normals((30, 20)), rng.normals(30), rng.normals(20))
        for m in (1, 7, 20, 33):
            batch = rng.uniforms((m, 30))
            h = (RngStream(16, m).uniforms((m, 20)) < hidden_probs(p, batch))
            want = float(np.mean((batch - visible_probs(p, h.astype(float))) ** 2))
            assert reconstruction_error(p, batch, RngStream(16, m)) == want

    def test_shared_hidden_input_gives_the_same_bits_unwritten(self):
        rng = RngStream(17, 0)
        p = RbmParams(rng.normals((30, 20)), rng.normals(30), rng.normals(20))
        batch = rng.uniforms((7, 30))
        x = hidden_input(p, batch)
        kept = x.copy()
        assert reconstruction_error(p, batch, RngStream(17, 1), x) == \
               reconstruction_error(p, batch, RngStream(17, 1))
        assert np.array_equal(x, kept)


class TestTrainRbm:
    def test_zero_epochs_returns_init_unchanged(self, ref_model):
        hp = Hyperparams(epochs=0)
        out, metrics = train_rbm(ref_model, TWO_PATTERN_DATA, hp, "cd", seed=0)
        assert metrics == []
        np.testing.assert_array_equal(out.w, ref_model.w)
        np.testing.assert_array_equal(out.a, ref_model.a)
        np.testing.assert_array_equal(out.b, ref_model.b)

    def test_zero_learning_rate_is_noop(self, ref_model):
        hp = Hyperparams(epsilon=0.0, epochs=5, batch_size=2)
        for estimator in ("cd", "pcd", "fepcd"):
            out, _ = train_rbm(ref_model, TWO_PATTERN_DATA, hp, estimator, seed=1)
            np.testing.assert_array_equal(out.w, ref_model.w)
            np.testing.assert_array_equal(out.a, ref_model.a)
            np.testing.assert_array_equal(out.b, ref_model.b)

    def test_tiny_run_improves_oracle_log_likelihood(self):
        init = init_params(2, 2, RngStream(0, STREAM_INIT))
        hp = Hyperparams(epsilon=0.5, batch_size=2, epochs=200, k=1)
        before = mean_log_likelihood(init, TWO_PATTERN_DATA)
        trained, metrics = train_rbm(init, TWO_PATTERN_DATA, hp, "cd", seed=0)
        after = mean_log_likelihood(trained, TWO_PATTERN_DATA)
        assert after - before > 0
        # progress proxy moves the same way on this pinned seed
        assert metrics[-1].recon_error < metrics[0].recon_error

    def test_bit_reproducible(self):
        init = init_params(3, 2, RngStream(5, STREAM_INIT))
        data = (RngStream(5, 6).uniforms((12, 3)) < 0.5).astype(float)
        hp = Hyperparams(epsilon=0.2, batch_size=4, epochs=6, n_chains=4)
        runs = [train_rbm(init, data, hp, "fepcd", seed=5) for _ in range(2)]
        a, b = runs[0][0], runs[1][0]
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.b, b.b)
        assert metrics_tuple(runs[0][1]) == metrics_tuple(runs[1][1])

    def test_fepcd_with_full_fraction_matches_pcd_trajectory(self):
        init = init_params(3, 2, RngStream(6, STREAM_INIT))
        data = (RngStream(6, 6).uniforms((12, 3)) < 0.5).astype(float)
        hp_full = Hyperparams(epsilon=0.2, batch_size=4, epochs=6, n_chains=4,
                              elite_fraction=1.0)
        p_pcd, m_pcd = train_rbm(init, data, hp_full, PCD, seed=6)
        p_fe, m_fe = train_rbm(init, data, hp_full, FEPCD, seed=6)
        assert np.array_equal(p_pcd.w, p_fe.w)
        assert np.array_equal(p_pcd.a, p_fe.a)
        assert np.array_equal(p_pcd.b, p_fe.b)
        assert [(r.epoch, r.recon_error, r.mean_free_energy) for r in m_pcd] == \
               [(r.epoch, r.recon_error, r.mean_free_energy) for r in m_fe]

    @pytest.mark.parametrize("estimator", [PCD, FEPCD])
    def test_chain_pool_persists_across_minibatches(self, monkeypatch, estimator):
        # one pool per run; each minibatch's chains start where the
        # previous minibatch left them
        step_name = f"{estimator}_step"
        make_pool, step = trainer.make_pool, getattr(trainer, step_name)
        built, spans = [], []

        def counting_make_pool(*args, **kwargs):
            built.append(args)
            return make_pool(*args, **kwargs)

        def recording_step(p, pool, *args):
            start = pool.states.copy()
            neg, pool = step(p, pool, *args)
            spans.append((start, pool.states.copy()))
            return neg, pool

        monkeypatch.setattr(trainer, "make_pool", counting_make_pool)
        monkeypatch.setattr(trainer, step_name, recording_step)
        init = init_params(4, 3, RngStream(30, STREAM_INIT))
        data = (RngStream(30, 6).uniforms((12, 4)) < 0.5).astype(float)
        train_rbm(init, data, Hyperparams(epsilon=0.2, batch_size=4, epochs=3),
                  estimator, seed=30)
        assert len(built) == 1
        assert len(spans) == 9
        for (_, left), (start, _) in zip(spans, spans[1:]):
            np.testing.assert_array_equal(start, left)

    def test_divergence_aborts_with_diagnostic(self, ref_model):
        hp = Hyperparams(epsilon=1e200, weight_decay=1.0, batch_size=2, epochs=3)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train_rbm(ref_model, TWO_PATTERN_DATA, hp, "cd", seed=0)

    def test_unknown_estimator_rejected(self, ref_model):
        with pytest.raises(ValueError):
            train_rbm(ref_model, TWO_PATTERN_DATA, Hyperparams(), "gibbs", seed=0)

    def test_invalid_hyperparams_rejected(self, ref_model):
        with pytest.raises(ValueError):
            train_rbm(ref_model, TWO_PATTERN_DATA,
                      Hyperparams(epsilon=-1.0), "cd", seed=0)

    @pytest.mark.parametrize("name, value", [("epochs", 1.5), ("n_chains", 3.5),
                                             ("batch_size", True), ("k", 2.0)])
    def test_non_integer_count_rejected_before_any_work(self, monkeypatch,
                                                        ref_model, name, value):
        monkeypatch.setattr(trainer, "features_of", None)
        hp = Hyperparams(**{name: value})
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            train_rbm(ref_model, TWO_PATTERN_DATA, hp, "pcd", seed=0)

    def test_empty_dataset_rejected(self, ref_model):
        with pytest.raises(ValueError):
            train_rbm(ref_model, np.zeros((0, 2)), Hyperparams(), "cd", seed=0)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_steps_a_private_copy_from_rows(self, monkeypatch, estimator):
        # at the criterion-5 shape every update is the one stacked product:
        # no phase's vh is formed, and init is never written
        def unread(stats):
            raise AssertionError("a dense vh was formed during training")

        monkeypatch.setattr(GradientStats, "vh",
                            property(unread, GradientStats.vh.fset))
        feats, init = training_data(794, 64, 60, BINARY, 10)
        before = init.copy()
        hp = Hyperparams(epsilon=0.1, momentum=0.5, weight_decay=0.01,
                         batch_size=20, epochs=2)
        trained, _ = train_rbm(init, feats, hp, estimator, seed=60)
        assert not np.array_equal(trained.w, before.w)
        for kept, orig, out in zip((init.w, init.a, init.b),
                                   (before.w, before.a, before.b),
                                   (trained.w, trained.a, trained.b)):
            np.testing.assert_array_equal(kept, orig)
            assert not np.shares_memory(out, kept)

    def test_epoch_callback_sees_each_epoch(self, ref_model):
        seen = []
        hp = Hyperparams(epsilon=0.1, batch_size=2, epochs=3)
        train_rbm(ref_model, TWO_PATTERN_DATA, hp, "cd", seed=0,
                  epoch_callback=lambda e, p, m: seen.append((e, m.epoch)))
        assert seen == [(1, 1), (2, 2), (3, 3)]


class TestProbeRows:
    def test_at_most_the_probe_size_is_every_row_and_draws_nothing(self):
        rng = RngStream(3, STREAM_EVAL)
        for m in (1, 499, 500):
            rows = trainer.probe_rows(m, rng)
            np.testing.assert_array_equal(np.arange(m)[rows], np.arange(m))
        np.testing.assert_array_equal(rng.uniforms(4),
                                      RngStream(3, STREAM_EVAL).uniforms(4))

    def test_above_it_the_sorted_head_of_one_permutation(self):
        rng = RngStream(4, STREAM_EVAL)
        rows = trainer.probe_rows(1210, rng)
        want = RngStream(4, STREAM_EVAL)
        np.testing.assert_array_equal(rows, np.sort(want.permutation(1210)[:500]))
        np.testing.assert_array_equal(rng.uniforms(4), want.uniforms(4))


def probe_of(feats, seed):
    """(probe rows, metric stream at the first epoch's draw): the rows
    train_rbm evaluates on, chosen once per run as the sorted first 500 of
    a permutation from STREAM_EVAL, or all rows when there are no more."""
    rng = RngStream(seed, STREAM_EVAL)
    if feats.shape[0] <= 500:
        return feats, rng
    return feats[np.sort(rng.permutation(feats.shape[0])[:500])], rng


def epoch_end_metrics(params, feats, seed):
    """(recon_error, mean_free_energy) of each epoch, recomputed from its
    epoch-end params on the probe: one draw of hidden samples per epoch,
    the mean squared gap to the reconstruction means, and the mean free
    energy of the probe rows."""
    probe, rng = probe_of(feats, seed)
    rows = []
    for p in params:
        h = rng.uniforms((probe.shape[0], p.n_hidden)) < hidden_probs(p, probe)
        recon = float(np.mean((probe - visible_probs(p, h.astype(float))) ** 2))
        rows.append((recon, float(np.mean(free_energy(p, probe)))))
    return rows


def plain_minibatch_loop(init, feats, hp, estimator, seed):
    """Params after hp.epochs of positive phase, negative phase and update
    over each shuffled minibatch, with no evaluation at all."""
    shuffle_rng, data_rng = RngStream(seed, STREAM_SHUFFLE), RngStream(seed, STREAM_DATA)
    p, vel, pool = init.copy(), UpdateState.zeros_like(init), None
    m = feats.shape[0]
    for _ in range(hp.epochs):
        order = shuffle_rng.permutation(m)
        for start in range(0, m, hp.batch_size):
            batch = feats[order[start:start + hp.batch_size]]
            if estimator == "cd":
                pos, neg = cd_k(p, batch, hp.k, data_rng)
            else:
                pos = batch_stats(batch, hidden_probs(p, batch))
                if pool is None:
                    pool = make_pool(batch, hp.n_chains or hp.batch_size, seed)
                if estimator == PCD:
                    neg, pool = pcd_step(p, pool, hp.k)
                else:
                    neg, pool = fepcd_step(p, pool, hp.k, hp.elite_fraction)
            apply_update(p, pos, neg, hp, vel)
    return p


def training_data(n_visible, n_hidden, rows, kind=BINARY, labels=0):
    """(features, init) of a run seeded by its row count."""
    feats = RngStream(rows, 6).uniforms((rows, n_visible))
    if kind != GAUSSIAN:
        feats = (feats < 0.4).astype(float)
    return feats, init_params(n_visible, n_hidden, RngStream(rows, STREAM_INIT),
                              kind, labels)


class TestEpochMetrics:
    """Each epoch is evaluated once, after its last update, on a probe of
    at most 500 rows chosen once per run; the values must equal the bits
    of an in-test recomputation on the params the epoch callback sees."""

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize("n_visible, n_hidden, rows, batch, kind, labels", [
        (12, 8, 410, 20, BINARY, 0),     # ragged last batch, all rows probed
        (7, 5, 30, 7, GAUSSIAN, 0),      # Gaussian visibles, ragged
        (14, 6, 60, 20, BINARY, 4),      # discriminative label block
        (6, 4, 5, 20, BINARY, 0),        # batch larger than the data
        (20, 10, 9, 1, BINARY, 0),       # batch of one row
        (12, 8, 500, 20, BINARY, 0),     # exactly the probe size
        (12, 8, 501, 20, BINARY, 0),     # one row above it, ragged
        (30, 10, 1210, 50, BINARY, 0),   # a probe of 500 of 1210, ragged
        (9, 6, 700, 32, GAUSSIAN, 0),    # Gaussian above the probe size
        (794, 64, 60, 20, BINARY, 10),   # the criterion-5 shape
    ])
    def test_row_is_the_probe_at_epoch_end_params(self, monkeypatch, estimator,
                                                  n_visible, n_hidden, rows,
                                                  batch, kind, labels):
        apply_update, updates = trainer.apply_update, []

        def recording_update(*args):
            # the update steps the trainer's params in place: keep a
            # snapshot of each step's result
            out = apply_update(*args)
            updates.append(out.copy())
            return out

        monkeypatch.setattr(trainer, "apply_update", recording_update)
        feats, init = training_data(n_visible, n_hidden, rows, kind, labels)
        hp = Hyperparams(epsilon=0.1, momentum=0.5, batch_size=batch, epochs=3)
        seen = []
        trained, metrics = train_rbm(
            init, feats, hp, estimator, seed=rows,
            epoch_callback=lambda e, p, row: seen.append((e, p, row)))
        per_epoch = -(-rows // batch)
        assert len(updates) == per_epoch * hp.epochs
        assert [e for e, _, _ in seen] == [1, 2, 3]
        # the callback gets a snapshot of each epoch's last update, and
        # that epoch's row
        ends = updates[per_epoch - 1::per_epoch]
        for (_, p, _), end in zip(seen, ends):
            for got, want in zip((p.w, p.a, p.b), (end.w, end.a, end.b)):
                np.testing.assert_array_equal(got, want)
        for got, want in zip((seen[-1][1].w, seen[-1][1].a, seen[-1][1].b),
                             (trained.w, trained.a, trained.b)):
            np.testing.assert_array_equal(got, want)
            assert not np.shares_memory(got, want)
        assert [row for _, _, row in seen] == metrics
        want = epoch_end_metrics([p for _, p, _ in seen], feats, rows)
        assert [(r.recon_error, r.mean_free_energy) for r in metrics] == want

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_trained_params_are_the_plain_minibatch_loop(self, estimator):
        feats, init = training_data(12, 8, 530, GAUSSIAN)
        hp = Hyperparams(epsilon=0.05, momentum=0.5, batch_size=20, epochs=3,
                         n_chains=7)
        got, _ = train_rbm(init, feats, hp, estimator, seed=530)
        want = plain_minibatch_loop(init, feats, hp, estimator, 530)
        assert np.array_equal(got.w, want.w)
        assert np.array_equal(got.a, want.a)
        assert np.array_equal(got.b, want.b)

    def test_one_evaluation_per_epoch(self, monkeypatch):
        calls = []
        recon = trainer.reconstruction_error

        def counting(p, batch, *args):
            calls.append(batch.shape[0])
            return recon(p, batch, *args)

        monkeypatch.setattr(trainer, "reconstruction_error", counting)
        feats, init = training_data(12, 8, 1210)
        train_rbm(init, feats, Hyperparams(batch_size=20, epochs=4), "cd", seed=1)
        assert calls == [500] * 4


def test_every_stream_in_the_table_has_its_own_id():
    # unroll_to_network's output layer, fine_tune's shuffle and its loss
    # probe among them
    ids = {name: getattr(trainer, name) for name in trainer.__all__
           if name.startswith("STREAM_")}
    assert {"STREAM_OUTPUT_INIT", "STREAM_FINE_TUNE", "STREAM_FINE_TUNE_EVAL"} <= set(ids)
    assert len(set(ids.values())) == len(ids)
    assert max(ids.values()) < CHAIN_STREAM_BASE
