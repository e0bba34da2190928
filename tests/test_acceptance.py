"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every tolerance is pinned here; nothing defers to
later calibration. The estimator-comparison criterion uses real MNIST IDX
files when RBMKIT_MNIST_DIR points at them and otherwise runs the identical
protocol on the deterministic digit stand-in from synthdata, and names
the generator that ran.
"""

import math
import os
import struct
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from rbmkit import (Dataset, Hyperparams, IdxMagicError, ModelFormatError,
                    RbmParams, RngStream, init_params, load_mnist_idx,
                    load_model, minmax_normalize, save_model, train_rbm)
from rbmkit.cli import main as cli_main
from rbmkit.dbn import (FeedforwardNet, classify_free_energy, cross_entropy,
                        net_gradients, one_hot, train_discriminative_rbm)
from rbmkit.model import free_energy
from rbmkit.oracle import (enumerate_states, exact_gradient,
                           finite_diff_loglik_grad, free_energy_entropy_form,
                           state_index, visible_marginal)
from rbmkit.samplers import (cd_k, fepcd_step, gibbs_chain, make_pool,
                             pcd_step, select_elite)
from rbmkit.trainer import STREAM_INIT

from metricsfile import read_metrics_csv
from synthdata import digit_dataset, digit_generator, write_idx_fixture


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE FAIL criterion {number}: {summary}")
        raise
    print(f"\nACCEPTANCE PASS criterion {number}: {summary}")


@pytest.fixture
def ref_model():
    return RbmParams(np.array([[1.0, -1.0], [0.5, 0.2]]),
                     np.array([0.1, -0.2]), np.array([0.3, 0.0]))


def test_criterion_1_oracle_identity_suite():
    with criterion(1, "oracle identity suite on 25 random 3x3 models"):
        start = time.perf_counter()
        rng = RngStream(2001, 0)
        for trial in range(25):
            p = RbmParams(rng.normals((3, 3)), rng.normals(3), rng.normals(3))
            V = enumerate_states(3)
            H = enumerate_states(3)

            marg = visible_marginal(p)
            assert abs(marg.sum() - 1.0) <= 1e-10

            for v in V:
                neg_e = v @ p.w @ H.T + p.a @ v + H @ p.b
                peak = neg_e.max()
                brute = -(peak + math.log(np.exp(neg_e - peak).sum()))
                assert abs(free_energy(p, v) - brute) <= 1e-10
                assert abs(free_energy_entropy_form(p, v) - free_energy(p, v)) <= 1e-8

            data = (rng.uniforms((6, 3)) < 0.5).astype(float)
            pos, neg = exact_gradient(p, data)
            fd = finite_diff_loglik_grad(p, data)
            assert np.max(np.abs((pos.vh - neg.vh) - fd["w"])) <= 1e-6
            assert np.max(np.abs((pos.v - neg.v) - fd["a"])) <= 1e-6
            assert np.max(np.abs((pos.h - neg.h) - fd["b"])) <= 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"suite took {elapsed:.1f}s"


def test_criterion_2_gibbs_stationarity(ref_model):
    with criterion(2, "Gibbs stationarity: 64 chains x 2000 steps, TV <= 0.03"):
        start = time.perf_counter()
        marg = visible_marginal(ref_model)
        pool = make_pool((RngStream(0, 6).uniforms((64, 2)) < 0.5).astype(float),
                         64, 0)
        noise = pool.noise(ref_model)
        counts = np.zeros(4)
        ids = np.array([2, 1])
        for _ in range(2000):
            states, _, _ = gibbs_chain(ref_model, pool.states, 1, noise)
            pool.states = states
            np.add.at(counts, states.astype(np.int64) @ ids, 1.0)
        tv = 0.5 * float(np.abs(counts / counts.sum() - marg).sum())
        elapsed = time.perf_counter() - start
        assert tv <= 0.03, f"TV {tv:.4f}"
        assert elapsed < 5.0, f"took {elapsed:.1f}s"
        print(f"  [criterion 2] TV={tv:.4f} in {elapsed:.1f}s")


def test_criterion_3_cd_bias_trend(ref_model):
    with criterion(3, "CD-k bias gap shrinks monotonically over k in {1,5,20}"):
        states = enumerate_states(2)
        _, exact_neg = exact_gradient(ref_model, states)
        batch = np.tile(states, (10_000, 1))

        def gap(k):
            _, neg = cd_k(ref_model, batch, k, RngStream(38, 50 + k))
            return max(float(np.max(np.abs(neg.vh - exact_neg.vh))),
                       float(np.max(np.abs(neg.v - exact_neg.v))),
                       float(np.max(np.abs(neg.h - exact_neg.h))))

        gaps = [gap(k) for k in (1, 5, 20)]
        print(f"  [criterion 3] gaps k=1:{gaps[0]:.5f} k=5:{gaps[1]:.5f} "
              f"k=20:{gaps[2]:.5f}")
        assert gaps[0] > gaps[1] > gaps[2]


def test_criterion_4_fepcd_selection_law(ref_model):
    with criterion(4, "elite selection law and PCD equivalence gate"):
        # (a) elite set always equals the exact bottom half of free energies
        rng = RngStream(4004, 0)
        for _ in range(200):
            states = (rng.uniforms((10, 2)) < 0.5).astype(float)
            f = free_energy(ref_model, states)
            expected = sorted(range(10), key=lambda i: (f[i], i))[:5]
            got = select_elite(ref_model, states, 0.5)
            assert list(got) == expected

        # (b) elite_fraction=1 training is bit-identical to PCD
        init = init_params(3, 2, RngStream(12, STREAM_INIT))
        data = (RngStream(12, 6).uniforms((20, 3)) < 0.5).astype(float)
        hp = Hyperparams(epsilon=0.2, batch_size=5, epochs=8, n_chains=5,
                         elite_fraction=1.0)
        p_pcd, _ = train_rbm(init, data, hp, "pcd", seed=12)
        p_fe, _ = train_rbm(init, data, hp, "fepcd", seed=12)
        assert np.array_equal(p_pcd.w, p_fe.w)
        assert np.array_equal(p_pcd.a, p_fe.a)
        assert np.array_equal(p_pcd.b, p_fe.b)

        # (c) elite states carry at least the average oracle probability
        marg = visible_marginal(ref_model)
        ids = np.array([2, 1])
        pool = make_pool((RngStream(40, 6).uniforms((16, 2)) < 0.5).astype(float),
                         16, 40)
        for _ in range(1000):
            _, pool = fepcd_step(ref_model, pool, 1, 0.5)
            probs = marg[pool.states.astype(np.int64) @ ids]
            elite = select_elite(ref_model, pool.states, 0.5)
            assert probs[elite].mean() >= probs.mean() - 1e-12


def _criterion5_datasets():
    root = os.environ.get("RBMKIT_MNIST_DIR")
    names = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
             "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
    if root and all(os.path.exists(os.path.join(root, n)) for n in names):
        train_full = load_mnist_idx(os.path.join(root, "train-images-idx3-ubyte"),
                                    os.path.join(root, "train-labels-idx1-ubyte"))
        test_full = load_mnist_idx(os.path.join(root, "t10k-images-idx3-ubyte"),
                                   os.path.join(root, "t10k-labels-idx1-ubyte"))
        order = RngStream(2025, 4).permutation(train_full.n_samples)[:2000]
        train = Dataset(train_full.features[order], train_full.labels[order])
        order = RngStream(2025, 5).permutation(test_full.n_samples)[:1000]
        test = Dataset(test_full.features[order], test_full.labels[order])
        train = minmax_normalize(train)
        test = minmax_normalize(test, train.normalization)
        return train, test, "MNIST"
    full = digit_dataset(3000, seed=2025)
    train = Dataset(full.features[:2000], full.labels[:2000])
    test = Dataset(full.features[2000:], full.labels[2000:])
    return train, test, f"digit stand-in ({digit_generator()})"


def test_criterion5_stand_in_names_the_generator_that_ran(monkeypatch):
    monkeypatch.delenv("RBMKIT_MNIST_DIR", raising=False)
    train, test, source = _criterion5_datasets()
    assert source == f"digit stand-in ({digit_generator()})"
    # the numpy prototypes are binary; upsampled scikit-learn digits are
    # sixteenths and include grey levels
    grey = np.any((train.features > 0) & (train.features < 1))
    assert grey == (digit_generator() == "scikit-learn digits")


def test_criterion_5_desk_scale_estimator_comparison():
    with criterion(5, "784-64 discriminative comparison: FEPCD vs PCD vs CD, "
                      "5 seeds x 30 epochs"):
        start = time.perf_counter()
        train, test, source = _criterion5_datasets()
        assert train.n_samples == 2000 and test.n_samples == 1000
        assert train.n_features == 784
        hp = Hyperparams(epsilon=0.05, batch_size=20, epochs=30, k=1)
        errors = {est: [] for est in ("cd", "pcd", "fepcd")}
        for seed in range(5):
            for est in errors:
                p, _ = train_discriminative_rbm(train, 64, hp, est, seed=seed)
                assert np.max(np.abs(p.w)) < 1e6  # divergence tripwire
                pred, _ = classify_free_energy(p, test.features)
                errors[est].append(float(np.mean(pred != test.labels)))
        elapsed = time.perf_counter() - start
        means = {est: float(np.mean(v)) for est, v in errors.items()}
        variances = {est: float(np.var(v, ddof=1)) for est, v in errors.items()}
        order = sorted(means, key=means.get)
        print(f"  [criterion 5] data={source} elapsed={elapsed:.0f}s")
        print(f"  [criterion 5] mean errors: {means}")
        print(f"  [criterion 5] sample variances: {variances}")
        print(f"  [criterion 5] observed ordering: {' <= '.join(order)} "
              f"(full-scale reference ordering is fepcd <= pcd < cd)")
        assert means["fepcd"] <= means["pcd"] + 0.01
        assert means["pcd"] < 0.10 and means["fepcd"] < 0.10
        assert elapsed < 600.0, f"took {elapsed:.0f}s"


def test_criterion_6_backprop_gradient_check():
    with criterion(6, "fine-tune gradients match central differences, "
                      "10 random probes on a 4-3-2 net"):
        run_seed = int(np.random.SeedSequence().entropy % (2 ** 32))
        print(f"  [criterion 6] probe seed {run_seed}")
        for probe in range(10):
            rng = RngStream(run_seed, probe)
            net = FeedforwardNet([rng.normals((4, 3)), rng.normals((3, 2))],
                                 [rng.normals(3), rng.normals(2)])
            x = rng.uniforms((6, 4))
            y = (rng.uniforms(6) * 2).astype(np.int64)
            gw, gb = net_gradients(net, x, y)
            step = 1e-5
            for grads, params in ((gw, net.weights), (gb, net.biases)):
                for layer in range(2):
                    flat = params[layer].reshape(-1)
                    for idx in range(flat.size):
                        orig = flat[idx]
                        flat[idx] = orig + step
                        hi = cross_entropy(net, x, y)
                        flat[idx] = orig - step
                        lo = cross_entropy(net, x, y)
                        flat[idx] = orig
                        fd = (hi - lo) / (2 * step)
                        got = float(grads[layer].reshape(-1)[idx])
                        assert got == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_criterion_7_classification_exactness():
    with criterion(7, "free-energy posterior equals enumerated P(y|v) "
                      "within 1e-8"):
        rng = RngStream(7007, 0)
        for trial in range(5):
            d, n_classes, n_hidden = 4, 3, 5      # 7 visible + 5 hidden <= 14
            p = RbmParams(rng.normals((d + n_classes, n_hidden)),
                          rng.normals(d + n_classes), rng.normals(n_hidden),
                          label_units=n_classes)
            marg = visible_marginal(p)
            for v in enumerate_states(d):
                joint = np.array([
                    marg[state_index(np.concatenate([v, one_hot([c], n_classes)[0]]))]
                    for c in range(n_classes)])
                exact = joint / joint.sum()
                pred, scores = classify_free_energy(p, v)
                assert np.max(np.abs(scores - exact)) <= 1e-8
                assert pred == int(np.argmax(exact))


def test_criterion_8_format_fidelity(tmp_path, ref_model):
    with criterion(8, "IDX byte fidelity, JSON bit fidelity, typed errors"):
        pixels = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
        labels = np.array([1, 2], dtype=np.uint8)
        hand_images = struct.pack(">iiii", 2051, 2, 3, 4) + pixels.tobytes()
        hand_labels = struct.pack(">ii", 2049, 2) + labels.tobytes()
        enc_images, enc_labels = tmp_path / "img", tmp_path / "lab"
        write_idx_fixture(enc_images, enc_labels, pixels, labels)
        assert enc_images.read_bytes() == hand_images
        assert enc_labels.read_bytes() == hand_labels
        ds = load_mnist_idx(enc_images, enc_labels)
        np.testing.assert_array_equal(ds.features,
                                      pixels.reshape(2, 12).astype(float))
        np.testing.assert_array_equal(ds.labels, labels)

        model_path = tmp_path / "model.json"
        save_model(model_path, ref_model)
        back = load_model(model_path)
        assert back.w.tobytes() == ref_model.w.tobytes()
        assert back.a.tobytes() == ref_model.a.tobytes()
        assert back.b.tobytes() == ref_model.b.tobytes()

        bad_images = tmp_path / "bad"
        bad_images.write_bytes(struct.pack(">iiii", 1234, 2, 3, 4) + pixels.tobytes())
        with pytest.raises(IdxMagicError):
            load_mnist_idx(bad_images, enc_labels)
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text('{"format_version": 1, "kind": "rbm", "n_visible": "x"}')
        with pytest.raises(ModelFormatError):
            load_model(corrupt)


def test_criterion_9_reproducibility(tmp_path):
    with criterion(9, "bit-identical artifacts across reruns"):
        rng = RngStream(9009, 0)
        labels = (rng.uniforms(40) < 0.5).astype(np.uint8)
        pixels = (rng.uniforms((40, 4, 4)) * 255).astype(np.uint8)
        images_path = tmp_path / "images"
        labels_path = tmp_path / "labels"
        write_idx_fixture(images_path, labels_path, pixels, labels)

        model_bytes = []
        metric_rows = []
        for name in ("r1", "r2", "r3"):
            out = str(tmp_path / name)
            code = cli_main(["train-rbm", "--data", "mnist",
                             "--images", str(images_path),
                             "--labels", str(labels_path),
                             "--hidden", "6", "--estimator", "fepcd",
                             "--epochs", "3", "--batch", "8",
                             "--seed", "9", "--out", out])
            assert code == 0
            model_bytes.append(Path(f"{out}.model.json").read_bytes())
            metric_rows.append([(r.epoch, r.recon_error, r.mean_free_energy,
                                 r.estimator, r.seed)
                                for r in read_metrics_csv(f"{out}.metrics.csv")])
        assert model_bytes[0] == model_bytes[1] == model_bytes[2]
        assert metric_rows[0] == metric_rows[1] == metric_rows[2]
