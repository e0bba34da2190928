import numpy as np
import pytest

from rbmkit import (GAUSSIAN, Hyperparams, RbmParams, RngStream,
                    TrainingDivergedError, free_energy, hidden_input,
                    hidden_probs, init_params, reconstruction_error, train_rbm,
                    visible_probs)
from rbmkit import trainer
from rbmkit.oracle import mean_log_likelihood
from rbmkit.trainer import (ESTIMATORS, FEPCD, PCD, STREAM_EVAL, STREAM_INIT,
                            STREAM_SHUFFLE, metrics_csv_text, read_metrics_csv)

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

    def test_empty_dataset_rejected(self, ref_model):
        with pytest.raises(ValueError):
            train_rbm(ref_model, np.zeros((0, 2)), Hyperparams(), "cd", seed=0)

    def test_epoch_callback_sees_each_epoch(self, ref_model):
        seen = []
        hp = Hyperparams(epsilon=0.1, batch_size=2, epochs=3)
        train_rbm(ref_model, TWO_PATTERN_DATA, hp, "cd", seed=0,
                  epoch_callback=lambda e, p, m: seen.append((e, m.epoch)))
        assert seen == [(1, 1), (2, 2), (3, 3)]


def per_batch_metrics(updates, feats, hp, seed):
    """(recon_error, mean_free_energy) of each epoch, taken one minibatch
    at a time right after its update: updates holds the params each
    apply_update returned, in order."""
    shuffle_rng, eval_rng = RngStream(seed, STREAM_SHUFFLE), RngStream(seed, STREAM_EVAL)
    m, params = feats.shape[0], iter(updates)
    rows = []
    for _ in range(hp.epochs):
        order = shuffle_rng.permutation(m)
        recon_sum = fe_sum = 0.0
        for start in range(0, m, hp.batch_size):
            batch = feats[order[start:start + hp.batch_size]]
            p = next(params)
            recon_sum += reconstruction_error(p, batch, eval_rng) * batch.shape[0]
            fe_sum += float(free_energy(p, batch, hidden_input(p, batch)).sum())
        rows.append((recon_sum / m, fe_sum / m))
    assert next(params, None) is None
    return rows


class TestGroupedMetrics:
    """train_rbm computes its metrics per group of minibatches as stacked
    models; every value must equal the one-batch-at-a-time loop's bits."""

    def run(self, monkeypatch, n_visible, n_hidden, rows, hp, estimator,
            visible_kind="binary", label_units=0):
        """(reference rows, rows the epoch callback saw, returned rows,
        group sizes) of one training run."""
        apply_update, group_metrics = trainer.apply_update, trainer._group_metrics
        updates, groups = [], []

        def recording_update(*args):
            updates.append(apply_update(*args))
            return updates[-1]

        def recording_groups(trained, rng):
            groups.append(len(trained))
            return group_metrics(trained, rng)

        monkeypatch.setattr(trainer, "apply_update", recording_update)
        monkeypatch.setattr(trainer, "_group_metrics", recording_groups)
        feats = RngStream(rows, 6).uniforms((rows, n_visible))
        if visible_kind != GAUSSIAN:
            feats = (feats < 0.4).astype(float)
        init = init_params(n_visible, n_hidden, RngStream(rows, STREAM_INIT),
                           visible_kind, label_units)
        seen = []
        _, metrics = train_rbm(
            init, feats, hp, estimator, seed=rows,
            epoch_callback=lambda e, p, row: seen.append(
                (row.recon_error, row.mean_free_energy)))
        got = [(r.recon_error, r.mean_free_energy) for r in metrics]
        sizes = list(groups)  # before the reference loop adds its own
        return per_batch_metrics(updates, feats, hp, rows), seen, got, sizes

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize("n_visible, n_hidden, rows, batch, kind, labels, sizes", [
        (12, 8, 400, 20, "binary", 0, [20]),   # one group an epoch
        (12, 8, 410, 20, "binary", 0, [20, 1]),  # ragged last batch alone
        (7, 5, 30, 7, GAUSSIAN, 0, [4, 1]),
        (14, 6, 60, 20, "binary", 4, [3]),      # discriminative label block
        (20, 10, 9, 1, "binary", 0, [9]),       # batch of one row
        (6, 4, 5, 20, "binary", 0, [1]),        # batch larger than the data
        (794, 64, 60, 20, "binary", 10, [1, 1, 1]),  # a batch fills the budget
    ])
    def test_bit_identical_to_per_batch_loop(self, monkeypatch, estimator, n_visible,
                                             n_hidden, rows, batch, kind, labels, sizes):
        hp = Hyperparams(epsilon=0.1, momentum=0.5, batch_size=batch, epochs=2)
        want, seen, got, groups = self.run(monkeypatch, n_visible, n_hidden, rows, hp,
                                           estimator, kind, labels)
        assert got == want
        assert seen == want
        assert groups == sizes * hp.epochs

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_small_budget_splits_an_epoch(self, monkeypatch, estimator):
        monkeypatch.setattr(trainer, "METRICS_GROUP_BYTES",
                            3 * trainer._group_bytes(12, 8, 20))
        hp = Hyperparams(epsilon=0.1, batch_size=20, epochs=2)
        want, seen, got, groups = self.run(monkeypatch, 12, 8, 410, hp, estimator)
        assert got == want
        assert seen == want
        assert groups == [3] * 6 + [2, 1] + [3] * 6 + [2, 1]


class TestMetricsCsv:
    def test_round_trip_with_header(self, tmp_path):
        init = init_params(2, 2, RngStream(8, STREAM_INIT))
        hp = Hyperparams(epsilon=0.1, batch_size=2, epochs=3)
        _, metrics = train_rbm(init, TWO_PATTERN_DATA, hp, "cd", seed=8)
        path = tmp_path / "metrics.csv"
        path.write_text(metrics_csv_text(metrics, config_line="estimator=cd seed=8"))
        text = path.read_text().splitlines()
        assert text[0] == "# config: estimator=cd seed=8"
        assert text[1] == "epoch,recon_error,mean_free_energy,seconds,estimator,seed"
        back = read_metrics_csv(path)
        assert metrics_tuple(back) == metrics_tuple(metrics)

    def test_one_line_ending_throughout(self):
        init = init_params(2, 2, RngStream(8, STREAM_INIT))
        hp = Hyperparams(epsilon=0.1, batch_size=2, epochs=2)
        _, metrics = train_rbm(init, TWO_PATTERN_DATA, hp, "cd", seed=8)
        text = metrics_csv_text(metrics, "estimator=cd")
        assert "\r" not in text
        assert len(text.split("\n")) == 1 + 1 + 2 + 1
