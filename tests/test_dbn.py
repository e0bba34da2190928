from types import SimpleNamespace

import numpy as np
import pytest

from rbmkit import (BINARY, GAUSSIAN, Dataset, Hyperparams, RbmParams,
                    RngStream,
                    TrainingDivergedError, free_energy, init_params, one_hot,
                    sigmoid, train_rbm)
from rbmkit import dbn
from rbmkit.dbn import (OUTPUT_WEIGHT_SCALE, DbnModel, FeedforwardNet,
                        classify_free_energy, classify_net, cross_entropy,
                        fine_tune, net_forward, net_gradients, pretrain_stack,
                        propagate_up, train_discriminative_rbm,
                        unroll_to_network)
from rbmkit.oracle import state_index, visible_marginal
from rbmkit.trainer import (STREAM_FINE_TUNE, STREAM_FINE_TUNE_EVAL, STREAM_INIT,
                            STREAM_OUTPUT_INIT)

from synthdata import digit_dataset

TOY_FEATURES = np.array([[1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 0, 0],
                         [0, 0, 1, 1], [0, 1, 1, 1], [1, 0, 1, 1], [0, 0, 0, 1]],
                        dtype=float)
TOY_LABELS = np.array([0, 0, 0, 0, 1, 1, 1, 1])


def second_layer():
    return RbmParams(np.array([[0.5, -0.5], [1.0, 0.3]]),
                     np.array([0.0, 0.1]), np.array([-0.2, 0.4]))


class TestDbnModel:
    def test_dimension_chaining_enforced(self, ref_model):
        bad = RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            DbnModel([ref_model, bad])

    def test_label_augmented_top_chains(self, ref_model):
        top = RbmParams(np.zeros((5, 2)), np.zeros(5), np.zeros(2), label_units=3)
        model = DbnModel([ref_model, top])
        assert model.n_layers == 2

    def test_top_label_units_must_match_top_layer(self, ref_model):
        top = RbmParams(np.zeros((4, 2)), np.zeros(4), np.zeros(2), label_units=2)
        model = DbnModel([ref_model, top])
        assert model.top_label_units == 2
        assert DbnModel([ref_model]).top_label_units == 0
        with pytest.raises(AttributeError):
            model.top_label_units = 7

    def test_label_block_below_top_rejected(self, ref_model):
        middle = RbmParams(np.zeros((2, 2)), np.zeros(2), np.zeros(2), label_units=1)
        with pytest.raises(ValueError, match="only the top layer"):
            DbnModel([ref_model, middle, second_layer()])


class TestPropagateUp:
    def test_zero_layer_outputs_half(self, zero_model):
        dbn = DbnModel([zero_model(4, 3)])
        np.testing.assert_array_equal(propagate_up(dbn, np.zeros(4), 0),
                                      np.full(3, 0.5))

    def test_composition_identity(self, ref_model):
        from rbmkit import hidden_probs
        dbn = DbnModel([ref_model, second_layer()])
        v = np.array([1.0, 0.0])
        lower = propagate_up(dbn, v, 0)
        np.testing.assert_array_equal(propagate_up(dbn, v, 1),
                                      hidden_probs(second_layer(), lower))

    def test_hand_composed_two_layer_stack(self, ref_model):
        dbn = DbnModel([ref_model, second_layer()])
        v = np.array([1.0, 0.0])
        h0 = sigmoid(np.array([0.3 + 1.0, 0.0 - 1.0]))
        h1 = sigmoid(np.array([-0.2 + 0.5 * h0[0] + 1.0 * h0[1],
                               0.4 - 0.5 * h0[0] + 0.3 * h0[1]]))
        np.testing.assert_allclose(propagate_up(dbn, v, 1), h1, atol=1e-12)

    def test_index_out_of_range(self, ref_model):
        with pytest.raises(IndexError):
            propagate_up(DbnModel([ref_model]), np.zeros(2), 1)


class TestPretrainStack:
    def test_single_layer_identical_to_train_rbm(self):
        data = (RngStream(9, 6).uniforms((10, 2)) < 0.5).astype(float)
        hp = Hyperparams(epsilon=0.2, batch_size=5, epochs=4)
        stack, _ = pretrain_stack([2, 3], data, hp, "cd", seed=9)
        init = init_params(2, 3, RngStream(9, STREAM_INIT))
        direct, _ = train_rbm(init, data, hp, "cd", seed=9)
        assert np.array_equal(stack.layers[0].w, direct.w)
        assert np.array_equal(stack.layers[0].a, direct.a)
        assert np.array_equal(stack.layers[0].b, direct.b)

    def test_visible_kind_applies_to_bottom_layer_only(self):
        data = RngStream(12, 6).normals((8, 3))
        hp = Hyperparams(epsilon=0.01, batch_size=4, epochs=2)
        stack, _ = pretrain_stack([3, 4, 2], data, hp, "cd", seed=12,
                                  visible_kind=GAUSSIAN)
        assert [layer.visible_kind for layer in stack.layers] == \
               [GAUSSIAN, BINARY]
        init = init_params(3, 4, RngStream(12, STREAM_INIT), GAUSSIAN)
        direct, _ = train_rbm(init, data, hp, "cd", seed=12)
        assert np.array_equal(stack.layers[0].w, direct.w)

    def test_zero_epoch_stack_is_well_formed(self):
        data = (RngStream(10, 6).uniforms((6, 4)) < 0.5).astype(float)
        hp = Hyperparams(epochs=0)
        stack, metrics = pretrain_stack([4, 3, 2], data, hp, "cd", seed=10)
        assert stack.n_layers == 2
        assert metrics == [[], []]
        out = propagate_up(stack, data[0], 1)
        assert out.shape == (2,)
        assert np.all(np.isfinite(out))

    def test_desk_scale_stack_trains_cleanly(self):
        ds = digit_dataset(500, seed=123)
        hp = Hyperparams(epsilon=0.05, batch_size=20, epochs=3, k=1)
        stack, metrics = pretrain_stack([784, 64, 64], ds, hp, "cd", seed=0)
        for layer in stack.layers:
            assert np.all(np.isfinite(layer.w))
        assert metrics[0][-1].recon_error < metrics[0][0].recon_error

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pretrain_stack([3, 2], np.zeros((4, 2)), Hyperparams(), "cd", seed=0)

    def test_deterministic(self):
        data = (RngStream(11, 6).uniforms((8, 3)) < 0.5).astype(float)
        hp = Hyperparams(epsilon=0.3, batch_size=4, epochs=3)
        a, _ = pretrain_stack([3, 3, 2], data, hp, ["cd", "pcd"], seed=11)
        b, _ = pretrain_stack([3, 3, 2], data, hp, ["cd", "pcd"], seed=11)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.w, lb.w)

    def test_one_estimator_in_a_list_is_broadcast(self):
        data = (RngStream(13, 6).uniforms((8, 3)) < 0.5).astype(float)
        hp = Hyperparams(epsilon=0.3, batch_size=4, epochs=2)
        a, _ = pretrain_stack([3, 3, 2], data, hp, ["pcd"], seed=13)
        b, _ = pretrain_stack([3, 3, 2], data, hp, "pcd", seed=13)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.w, lb.w)
        with pytest.raises(ValueError, match="one estimator"):
            pretrain_stack([3, 3, 2], data, hp, ["cd", "pcd", "cd"], seed=13)

    @pytest.mark.parametrize("kind", [BINARY, GAUSSIAN])
    def test_one_layer_discriminative_stack_is_train_discriminative_rbm(self, kind):
        data = Dataset(TOY_FEATURES, TOY_LABELS)
        hp = Hyperparams(epsilon=0.1, batch_size=4, epochs=3)
        stack, metrics = pretrain_stack([4, 3], data, hp, ["pcd"], seed=5,
                                        visible_kind=kind, discriminative=True)
        direct, direct_metrics = train_discriminative_rbm(data, 3, hp, "pcd",
                                                          5, kind)
        top = stack.layers[0]
        assert (top.label_units, top.visible_kind) == (2, kind)
        for name in ("w", "a", "b"):
            assert np.array_equal(getattr(top, name), getattr(direct, name))
        assert [(m.recon_error, m.seed) for m in metrics[0]] == \
               [(m.recon_error, m.seed) for m in direct_metrics]

    def test_discriminative_stack_labels_only_the_top_layer(self):
        data = Dataset(TOY_FEATURES, TOY_LABELS)
        hp = Hyperparams(epsilon=0.1, batch_size=4, epochs=1)
        stack, _ = pretrain_stack([4, 3, 2], data, hp, "cd", seed=5,
                                  visible_kind=GAUSSIAN, discriminative=True)
        assert [(layer.visible_kind, layer.label_units)
                for layer in stack.layers] == [(GAUSSIAN, 0), (BINARY, 2)]
        assert stack.top_label_units == 2

    @pytest.mark.parametrize("labels, message", [
        (None, "requires labels"), (np.zeros(8, int), "two classes")])
    def test_discriminative_stack_checks_labels_before_training(
            self, monkeypatch, labels, message):
        import rbmkit.dbn
        monkeypatch.setattr(rbmkit.dbn, "train_rbm", None)  # any call fails
        with pytest.raises(ValueError, match=message):
            pretrain_stack([4, 3, 2], Dataset(TOY_FEATURES, labels),
                           Hyperparams(), "cd", seed=0, discriminative=True)


class TestDiscriminativeRbm:
    def test_separable_toy_reaches_high_accuracy(self):
        hp = Hyperparams(epsilon=0.3, batch_size=4, epochs=150, k=1)
        p, _ = train_discriminative_rbm(Dataset(TOY_FEATURES, TOY_LABELS), 6,
                                        hp, "cd", seed=0)
        pred, _ = classify_free_energy(p, TOY_FEATURES)
        assert np.mean(pred == TOY_LABELS) >= 0.95

    def test_label_units_equal_class_count(self):
        hp = Hyperparams(epochs=1, batch_size=4)
        p, _ = train_discriminative_rbm(Dataset(TOY_FEATURES, TOY_LABELS), 3,
                                        hp, "cd", seed=1)
        assert p.label_units == 2
        assert p.n_visible == TOY_FEATURES.shape[1] + 2

    def test_label_units_follow_the_dataset_class_count(self):
        # a dataset that records 10 classes keeps 10 label units even when
        # its rows hold only classes 0 and 1
        hp = Hyperparams(epochs=1, batch_size=4)
        data = Dataset(TOY_FEATURES, TOY_LABELS, n_classes=10)
        p, _ = train_discriminative_rbm(data, 3, hp, "cd", seed=1)
        assert p.label_units == 10
        stack, _ = pretrain_stack([TOY_FEATURES.shape[1], 3, 2], data, hp, "cd",
                                  seed=1, discriminative=True)
        assert stack.top_label_units == 10

    def test_one_hot_rows_have_single_active_unit(self):
        block = one_hot(TOY_LABELS, 2)
        np.testing.assert_array_equal(block.sum(axis=1), np.ones(len(TOY_LABELS)))
        assert set(np.unique(block)) == {0.0, 1.0}
        assert one_hot([], 3).shape == (0, 3)

    def test_missing_labels_rejected(self):
        with pytest.raises(ValueError):
            train_discriminative_rbm(Dataset(TOY_FEATURES), 4, Hyperparams(),
                                     "cd", seed=0)

    def test_empty_dataset_rejected(self):
        empty = Dataset(np.zeros((0, 6)), np.zeros(0, int))
        with pytest.raises(ValueError, match="empty dataset"):
            train_discriminative_rbm(empty, 4, Hyperparams(), "cd", seed=0)


class TestClassifyFreeEnergy:
    def test_zero_parameters_uniform_scores(self):
        p = RbmParams(np.zeros((6, 3)), np.zeros(6), np.zeros(3), label_units=3)
        pred, scores = classify_free_energy(p, np.zeros(3))
        np.testing.assert_allclose(scores, np.full(3, 1 / 3), atol=1e-15)
        assert pred == 0  # tie broken toward the lowest class index

    def test_shift_invariance(self):
        rng = RngStream(20, 0)
        p = RbmParams(rng.normals((5, 4)), rng.normals(5), rng.normals(4),
                      label_units=2)
        # adding a constant to every label bias shifts all class free
        # energies equally and must leave the scores alone
        a_shift = p.a.copy()
        a_shift[3:] += 2.5
        shifted = RbmParams(p.w, a_shift, p.b, label_units=2)
        v = (rng.uniforms(3) < 0.5).astype(float)
        _, base_scores = classify_free_energy(p, v)
        _, shift_scores = classify_free_energy(shifted, v)
        np.testing.assert_allclose(shift_scores, base_scores, rtol=1e-12)

    def test_matches_enumerated_posterior(self):
        rng = RngStream(77, 0)
        d, n_classes, n_hidden = 4, 3, 5
        p = RbmParams(rng.normals((d + n_classes, n_hidden)),
                      rng.normals(d + n_classes), rng.normals(n_hidden),
                      label_units=n_classes)
        marg = visible_marginal(p)
        for _ in range(20):
            v = (rng.uniforms(d) < 0.5).astype(float)
            joint = np.array([
                marg[state_index(np.concatenate([v, one_hot([c], n_classes)[0]]))]
                for c in range(n_classes)])
            exact = joint / joint.sum()
            pred, scores = classify_free_energy(p, v)
            np.testing.assert_allclose(scores, exact, atol=1e-8)
            assert pred == int(np.argmax(exact))

    def test_gaussian_scores_are_softmax_of_clamped_free_energy(self):
        rng = RngStream(78, 0)
        d, n_classes, n_hidden = 4, 3, 5
        p = RbmParams(rng.normals((d + n_classes, n_hidden)),
                      rng.normals(d + n_classes), rng.normals(n_hidden),
                      visible_kind=GAUSSIAN, label_units=n_classes)
        v = rng.normals((20, d))
        f = np.array([[free_energy(p, np.concatenate([row, one_hot([c], n_classes)[0]]))
                       for c in range(n_classes)] for row in v])
        e = np.exp(f.min(axis=1, keepdims=True) - f)
        pred, scores = classify_free_energy(p, v)
        np.testing.assert_allclose(scores, e / e.sum(axis=1, keepdims=True), atol=1e-10)
        np.testing.assert_array_equal(pred, np.argmin(f, axis=1))

    def test_batch_and_single_agree(self):
        p = RbmParams(np.ones((4, 2)), np.zeros(4), np.zeros(2), label_units=2)
        batch = np.array([[1.0, 0.0], [0.0, 1.0]])
        preds, scores = classify_free_energy(p, batch)
        for i, v in enumerate(batch):
            pred_i, scores_i = classify_free_energy(p, v)
            assert preds[i] == pred_i
            np.testing.assert_array_equal(scores[i], scores_i)

    def test_model_without_labels_rejected(self, ref_model):
        with pytest.raises(ValueError):
            classify_free_energy(ref_model, np.zeros(2))


class TestUnroll:
    def build_stack(self):
        rng = RngStream(30, 0)
        l0 = RbmParams(rng.normals((4, 3)), rng.normals(4), rng.normals(3))
        l1 = RbmParams(rng.normals((3, 2)), rng.normals(3), rng.normals(2))
        return DbnModel([l0, l1])

    def test_hidden_forward_equals_propagate_up(self):
        dbn = self.build_stack()
        net = unroll_to_network(dbn, n_classes=2, seed=0)
        x = (RngStream(30, 1).uniforms((5, 4)) < 0.5).astype(float)
        acts = net_forward(net, x)
        np.testing.assert_array_equal(acts[2], propagate_up(dbn, x, 1))

    def test_scores_sum_to_one(self):
        net = unroll_to_network(self.build_stack(), n_classes=4, seed=1)
        scores = net_forward(net, np.zeros((3, 4)))[-1]
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_epoch_dbn_yields_working_classifier(self):
        data = (RngStream(31, 6).uniforms((6, 4)) < 0.5).astype(float)
        stack, _ = pretrain_stack([4, 3], data, Hyperparams(epochs=0), "cd", seed=31)
        net = unroll_to_network(stack, n_classes=3, seed=31)
        pred = classify_net(net, data)
        assert pred.shape == (6,)
        assert np.all((0 <= pred) & (pred < 3))

    def test_label_augmented_top_drops_label_weights(self):
        lower = RbmParams(np.zeros((4, 3)), np.zeros(4), np.zeros(3))
        top = RbmParams(np.arange(10.0).reshape(5, 2), np.zeros(5), np.zeros(2),
                        label_units=2)
        dbn = DbnModel([lower, top])
        net = unroll_to_network(dbn, n_classes=2, seed=2)
        np.testing.assert_array_equal(net.weights[1], top.w[:3])

    def test_output_layer_draws_from_its_own_stream(self):
        net = unroll_to_network(self.build_stack(), n_classes=3, seed=7)
        want = OUTPUT_WEIGHT_SCALE * RngStream(7, STREAM_OUTPUT_INIT).normals((2, 3))
        np.testing.assert_array_equal(net.weights[-1], want)
        rerun = unroll_to_network(self.build_stack(), n_classes=3, seed=7)
        np.testing.assert_array_equal(rerun.weights[-1], want)


def streams_drawn(monkeypatch, method, fn, *args):
    """(seed, stream_id) of every stream whose RngStream method fn(*args)
    calls."""
    drawn = set()
    real = getattr(RngStream, method)

    def recording(stream, *a, **kw):
        drawn.add((stream.seed, stream.stream_id))
        return real(stream, *a, **kw)

    with monkeypatch.context() as m:
        m.setattr(RngStream, method, recording)
        fn(*args)
    return drawn


class TestStreamOwnership:
    """Under one seed, unrolling and fine-tuning draw from streams that no
    pretraining step reads."""

    def test_output_layer_is_not_drawn_from_an_init_stream(self, monkeypatch):
        # on one stream the output weights would be layer 0's first
        # initial weights, entry for entry
        data = (RngStream(7, 9).uniforms((6, 4)) < 0.5).astype(float)
        hp = Hyperparams(epochs=0)
        stack, _ = pretrain_stack([4, 3], data, hp, "cd", seed=7)
        pretrained = streams_drawn(monkeypatch, "normals", pretrain_stack,
                                   [4, 3], data, hp, "cd", 7)
        unrolled = streams_drawn(monkeypatch, "normals", unroll_to_network,
                                 stack, 2, 7)
        assert pretrained == {(7, STREAM_INIT)}
        assert unrolled == {(7, STREAM_OUTPUT_INIT)}

    def test_fine_tune_does_not_shuffle_as_pretraining(self, monkeypatch):
        data = Dataset(TOY_FEATURES, TOY_LABELS)
        hp = Hyperparams(epochs=2, batch_size=4)
        stack, _ = pretrain_stack([4, 3], data, hp, "cd", seed=7)
        net = unroll_to_network(stack, n_classes=2, seed=7)
        pretrained = streams_drawn(monkeypatch, "permutation", pretrain_stack,
                                   [4, 3], data, hp, "cd", 7)
        tuned = streams_drawn(monkeypatch, "permutation", fine_tune, net, data, hp, 7)
        assert tuned == {(7, STREAM_FINE_TUNE)}
        assert not tuned & pretrained
        # the loss probe has a stream of its own, drawn only when there
        # are more rows than the probe holds
        big = Dataset(np.tile(TOY_FEATURES, (63, 1)), np.tile(TOY_LABELS, 63))
        tuned = streams_drawn(monkeypatch, "permutation", fine_tune, net, big,
                              Hyperparams(epochs=1, batch_size=50), 7)
        assert tuned == {(7, STREAM_FINE_TUNE), (7, STREAM_FINE_TUNE_EVAL)}
        assert not tuned & pretrained


class TestBackprop:
    def test_gradients_match_finite_differences(self):
        # standing property check: fresh random probes every run
        run_seed = int(np.random.SeedSequence().entropy % (2 ** 32))
        print(f"backprop probe seed: {run_seed}")
        for probe in range(10):
            rng = RngStream(run_seed, probe)
            net = FeedforwardNet(
                [rng.normals((4, 3)), rng.normals((3, 2))],
                [rng.normals(3), rng.normals(2)])
            x = rng.uniforms((5, 4))
            y = (rng.uniforms(5) * 2).astype(np.int64)
            gw, gb = net_gradients(net, x, y)
            step = 1e-5
            for which, grads in (("w", gw), ("b", gb)):
                for layer in range(2):
                    param = net.weights[layer] if which == "w" else net.biases[layer]
                    flat = param.reshape(-1)
                    for idx in range(flat.size):
                        orig = flat[idx]
                        flat[idx] = orig + step
                        hi = cross_entropy(net, x, y)
                        flat[idx] = orig - step
                        lo = cross_entropy(net, x, y)
                        flat[idx] = orig
                        fd = (hi - lo) / (2 * step)
                        got = grads[layer].reshape(-1)[idx]
                        assert got == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_zero_learning_rate_is_noop(self):
        net = unroll_to_network(TestUnroll().build_stack(), 2, seed=3)
        data = Dataset((RngStream(32, 6).uniforms((6, 4)) < 0.5).astype(float),
                       np.array([0, 1, 0, 1, 0, 1]))
        tuned, _ = fine_tune(net, data, Hyperparams(epsilon=0.0, epochs=3,
                                                    batch_size=2), seed=32)
        for w_new, w_old in zip(tuned.weights, net.weights):
            np.testing.assert_array_equal(w_new, w_old)

    def test_training_cross_entropy_decreases(self):
        data = Dataset(TOY_FEATURES, TOY_LABELS)
        stack, _ = pretrain_stack([4, 3], TOY_FEATURES,
                                  Hyperparams(epsilon=0.2, batch_size=4, epochs=20),
                                  "cd", seed=33)
        net = unroll_to_network(stack, n_classes=2, seed=33)
        before = cross_entropy(net, TOY_FEATURES, TOY_LABELS)
        tuned, losses = fine_tune(net, data,
                                  Hyperparams(epsilon=0.5, epochs=30, batch_size=4),
                                  seed=33)
        assert losses[-1] < before
        assert losses[-1] < losses[0]

    def test_divergence_detected(self):
        net = unroll_to_network(TestUnroll().build_stack(), 2, seed=4)
        data = Dataset((RngStream(34, 6).uniforms((6, 4)) < 0.5).astype(float),
                       np.array([0, 1, 0, 1, 0, 1]))
        with pytest.raises(TrainingDivergedError):
            fine_tune(net, data, Hyperparams(epsilon=1e200, weight_decay=1.0,
                                             epochs=3, batch_size=2), seed=34)

    def test_divergence_in_biases_alone_detected(self):
        # zero inputs leave the weight gradient zero; the output biases
        # overflow to [inf, -inf] in the second epoch
        net = FeedforwardNet([np.zeros((3, 2))], [np.zeros(2)])
        data = Dataset(np.zeros((4, 3)), np.array([0, 0, 0, 1]))
        with pytest.raises(TrainingDivergedError, match="epoch 2"):
            fine_tune(net, data, Hyperparams(epsilon=1e300, momentum=1e300,
                                             epochs=2), seed=0)

    def test_non_finite_hyperparameter_is_malformed_not_divergence(self):
        net = unroll_to_network(TestUnroll().build_stack(), 2, seed=4)
        data = Dataset((RngStream(34, 6).uniforms((6, 4)) < 0.5).astype(float),
                       np.array([0, 1, 0, 1, 0, 1]))
        with pytest.raises(ValueError, match="^weight_decay"):
            fine_tune(net, data, Hyperparams(weight_decay=float("inf"), epochs=1,
                                             batch_size=2), seed=34)

    def test_missing_labels_rejected(self):
        net = unroll_to_network(TestUnroll().build_stack(), 2, seed=5)
        with pytest.raises(ValueError):
            fine_tune(net, Dataset(np.zeros((3, 4))), Hyperparams(), seed=0)

    def test_empty_dataset_rejected(self):
        # refused rather than reporting the loss of no rows as nan
        net = unroll_to_network(TestUnroll().build_stack(), 2, seed=5)
        with pytest.raises(ValueError, match="empty dataset"):
            fine_tune(net, Dataset(np.zeros((0, 4)), np.zeros(0, np.int64)),
                      Hyperparams(), seed=0)

    def test_each_epoch_loss_is_scored_on_the_probe(self, monkeypatch):
        calls = []
        xent = dbn.cross_entropy

        def counting(net, x, labels):
            calls.append(x.shape[0])
            return xent(net, x, labels)

        monkeypatch.setattr(dbn, "cross_entropy", counting)
        net, data = self.random_problem(39, rows=1210)
        fine_tune(net, data, Hyperparams(epsilon=0.1, epochs=4, batch_size=50), seed=39)
        assert calls == [500] * 4

    def test_bit_identical_to_reference_loop_above_the_probe_size(self):
        # the probe's draws must leave the shuffle, and so every weight,
        # as they are; the last loss is the reference net's on the probe
        net, data = self.random_problem(40, rows=620)
        hp = Hyperparams(epsilon=0.1, momentum=0.9, weight_decay=0.01,
                         epochs=2, batch_size=25)
        tuned, losses = fine_tune(net, data, hp, seed=40)
        ref = reference_fine_tune(net, data, hp, seed=40)
        for got, want in zip(tuned.weights + tuned.biases, ref.weights + ref.biases):
            np.testing.assert_array_equal(got, want)
        rows = np.sort(RngStream(40, STREAM_FINE_TUNE_EVAL).permutation(620)[:500])
        assert losses[-1] == cross_entropy(ref, data.features[rows], data.labels[rows])

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("decay", [0.0, 0.01])
    def test_bit_identical_to_reference_loop(self, momentum, decay):
        net, data = self.random_problem(37)
        hp = Hyperparams(epsilon=0.3, momentum=momentum, weight_decay=decay,
                         epochs=3, batch_size=8)
        tuned, losses = fine_tune(net, data, hp, seed=37)
        ref = reference_fine_tune(net, data, hp, seed=37)
        for got, want in zip(tuned.weights + tuned.biases, ref.weights + ref.biases):
            np.testing.assert_array_equal(got, want)
        assert losses[-1] == cross_entropy(ref, data.features, data.labels)

    def test_input_net_left_unwritten(self):
        net, data = self.random_problem(38)
        before = [arr.copy() for arr in net.weights + net.biases]
        hp = Hyperparams(epsilon=0.3, momentum=0.9, weight_decay=0.01,
                         epochs=2, batch_size=8)
        tuned, _ = fine_tune(net, data, hp, seed=38)
        for arr, orig in zip(net.weights + net.biases, before):
            np.testing.assert_array_equal(arr, orig)
        for new, old in zip(tuned.weights + tuned.biases, net.weights + net.biases):
            assert not np.shares_memory(new, old)

    @staticmethod
    def random_problem(seed, rows=30):
        rng = RngStream(seed, 0)
        net = FeedforwardNet([rng.normals((6, 5)), rng.normals((5, 4)), rng.normals((4, 3))],
                             [rng.normals(5), rng.normals(4), rng.normals(3)])
        data = Dataset(rng.uniforms((rows, 6)), (rng.uniforms(rows) * 3).astype(np.int64))
        return net, data


class TestMalformedLabels:
    """net_gradients, cross_entropy and fine_tune refuse labels that are
    not one whole number in [0, n_classes) per row, rather than training
    on or scoring something else; fine_tune refuses them before its first
    forward pass."""

    X = RngStream(41, 0).uniforms((5, 4))

    @staticmethod
    def net():
        rng = RngStream(41, 1)
        return FeedforwardNet([rng.normals((4, 3)), rng.normals((3, 2))],
                              [rng.normals(3), rng.normals(2)])

    def refused_by_all(self, monkeypatch, labels, match):
        net = self.net()
        with pytest.raises(ValueError, match=match):
            net_gradients(net, self.X, labels)
        with pytest.raises(ValueError, match=match):
            cross_entropy(net, self.X, labels)
        forward = dbn.net_forward
        passes = []
        monkeypatch.setattr(dbn, "net_forward",
                            lambda *a: passes.append(1) or forward(*a))
        # not a Dataset, which would refuse some of these labels itself
        data = SimpleNamespace(features=self.X, labels=np.asarray(labels))
        with pytest.raises(ValueError, match=match):
            fine_tune(net, data, Hyperparams(epochs=2, batch_size=2), seed=41)
        assert passes == []

    def test_negative_label_refused(self, monkeypatch):
        # -1 would index, train and score the last class
        self.refused_by_all(monkeypatch, [0, 1, -1, 0, 1], r"outside \[0, 2\)")

    def test_one_label_for_many_rows_refused(self, monkeypatch):
        # one label would broadcast over all five rows
        self.refused_by_all(monkeypatch, [1], "one label per row")

    def test_fractional_labels_refused(self, monkeypatch):
        # 0.7 and 1.2 would be truncated to 0 and 1
        self.refused_by_all(monkeypatch, [0.7, 1.2, 0.0, 1.0, 1.0], "whole numbers")

    def test_label_past_the_last_class_refused(self, monkeypatch):
        # a bare IndexError before
        self.refused_by_all(monkeypatch, [0, 1, 5, 0, 1], r"outside \[0, 2\)")


def reference_fine_tune(net, data, hp, seed):
    """Reference fine_tune loop that builds fresh velocity and parameter
    arrays every minibatch; fine_tune's in-place steps must match it bit
    for bit."""
    net = net.copy()
    vel_w = [np.zeros_like(w) for w in net.weights]
    vel_b = [np.zeros_like(b) for b in net.biases]
    shuffle_rng = RngStream(seed, STREAM_FINE_TUNE)
    m = data.n_samples
    for _ in range(hp.epochs):
        order = shuffle_rng.permutation(m)
        for start in range(0, m, hp.batch_size):
            idx = order[start:start + hp.batch_size]
            gw, gb = net_gradients(net, data.features[idx], data.labels[idx])
            for layer in range(len(net.weights)):
                vel_w[layer] = (hp.momentum * vel_w[layer]
                                - hp.epsilon * (gw[layer] + hp.weight_decay * net.weights[layer]))
                vel_b[layer] = hp.momentum * vel_b[layer] - hp.epsilon * gb[layer]
                net.weights[layer] = net.weights[layer] + vel_w[layer]
                net.biases[layer] = net.biases[layer] + vel_b[layer]
    return net
