import numpy as np
import pytest

from rbmkit import (Hyperparams, RbmParams, RngStream, TrainingDivergedError,
                    hidden_probs, init_params, reconstruction_error, train_rbm,
                    visible_probs)
from rbmkit import trainer
from rbmkit.oracle import mean_log_likelihood
from rbmkit.trainer import (FEPCD, PCD, STREAM_INIT, metrics_csv_text,
                            read_metrics_csv)

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
