import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rbmkit import (BINARY, Dataset, Hyperparams, RbmParams, RngStream,
                    free_energy, hidden_probs, init_params, load_mnist_idx,
                    load_model, minmax_normalize, train_rbm, visible_probs)
from rbmkit.cli import main, run_oracle_checks
from rbmkit.dataio import save_model
from rbmkit.dbn import (DbnModel, pretrain_stack, propagate_up,
                        train_discriminative_rbm)
from rbmkit.samplers import (CHAIN_STREAM_BASE, gibbs_chain, make_pool,
                             select_elite)
from rbmkit.trainer import STREAM_INIT, STREAM_SAMPLE, STREAM_SUBSET

from metricsfile import read_metrics_csv
from synthdata import write_idx_fixture


@pytest.fixture
def idx_pair(tmp_path):
    """40 tiny labeled 4x4 images, two visually distinct classes."""
    rng = RngStream(55, 0)
    labels = (rng.uniforms(40) < 0.5).astype(np.uint8)
    pixels = np.where(labels[:, None, None] == 1,
                      (rng.uniforms((40, 4, 4)) * 60 + 180),
                      (rng.uniforms((40, 4, 4)) * 60)).astype(np.uint8)
    images_path = tmp_path / "images-idx3-ubyte"
    labels_path = tmp_path / "labels-idx1-ubyte"
    write_idx_fixture(images_path, labels_path, pixels, labels)
    return str(images_path), str(labels_path)


@pytest.fixture
def ten_class_idx(tmp_path):
    """40 labeled 4x4 images of classes 0..9, class 9 in one row only, and
    a --subset 20 (seed 7) of them that misses that row."""
    rng = RngStream(57, 0)
    labels = np.arange(40, dtype=np.uint8) % 9
    labels[39] = 9
    pixels = (rng.uniforms((40, 4, 4)) * 255).astype(np.uint8)
    images_path = tmp_path / "ten-images-idx3-ubyte"
    labels_path = tmp_path / "ten-labels-idx1-ubyte"
    write_idx_fixture(images_path, labels_path, pixels, labels)
    subset = RngStream(7, STREAM_SUBSET).permutation(40)[:20]
    assert 39 not in subset
    return str(images_path), str(labels_path)


def train_args(idx_pair, out, extra=()):
    images, labels = idx_pair
    return ["train-rbm", "--data", "mnist", "--images", images,
            "--labels", labels, "--hidden", "6", "--epochs", "3",
            "--batch", "8", "--seed", "7", "--out", out, *extra]


class TestTrainRbmCommand:
    def test_smoke_run_writes_artifacts(self, idx_pair, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = main(train_args(idx_pair, out, ["--estimator", "fepcd",
                                               "--subset", "30"]))
        assert code == 0
        model = load_model(f"{out}.model.json")
        assert isinstance(model, RbmParams)
        assert model.n_hidden == 6
        rows = read_metrics_csv(f"{out}.metrics.csv")
        assert [r.epoch for r in rows] == [1, 2, 3]
        assert Path(f"{out}.metrics.csv").read_text().startswith("# config:")

    def test_missing_data_path_exits_2_without_artifacts(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = main(["train-rbm", "--data", "mnist", "--hidden", "4",
                     "--out", out])
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert not os.path.exists(f"{out}.model.json")
        assert not os.path.exists(f"{out}.metrics.csv")

    def test_nonexistent_file_exits_2(self, tmp_path, capsys):
        code = main(["train-rbm", "--data", "mnist", "--images", "/nope/i",
                     "--labels", "/nope/l", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_fepcd_full_fraction_matches_pcd_metrics(self, idx_pair, tmp_path):
        out_fe = str(tmp_path / "fe")
        out_pcd = str(tmp_path / "pcd")
        assert main(train_args(idx_pair, out_fe,
                               ["--estimator", "fepcd",
                                "--elite-fraction", "1.0"])) == 0
        assert main(train_args(idx_pair, out_pcd, ["--estimator", "pcd"])) == 0
        rows_fe = read_metrics_csv(f"{out_fe}.metrics.csv")
        rows_pcd = read_metrics_csv(f"{out_pcd}.metrics.csv")
        assert [(r.epoch, r.recon_error, r.mean_free_energy) for r in rows_fe] == \
               [(r.epoch, r.recon_error, r.mean_free_energy) for r in rows_pcd]

    def test_discriminative_dbn_stack(self, idx_pair, tmp_path):
        out = str(tmp_path / "dbn")
        code = main(train_args(idx_pair, out,
                               ["--hidden", "6,4", "--discriminative",
                                "--estimator", "cd"]))
        assert code == 0
        from rbmkit.dbn import DbnModel
        model = load_model(f"{out}.model.json")
        assert isinstance(model, DbnModel)
        assert model.top_label_units == 2
        assert os.path.exists(f"{out}.layer0.metrics.csv")
        assert os.path.exists(f"{out}.layer1.metrics.csv")

    @pytest.mark.parametrize("hidden", ["6", "6,4"])
    def test_subset_missing_a_class_keeps_the_file_class_count(
            self, ten_class_idx, tmp_path, hidden):
        out = str(tmp_path / "run")
        assert main(train_args(ten_class_idx, out,
                               ["--subset", "20", "--discriminative",
                                "--hidden", hidden])) == 0
        model = load_model(f"{out}.model.json")
        top = model if isinstance(model, RbmParams) else model.layers[-1]
        assert top.label_units == 10

    @pytest.mark.parametrize("hidden, estimator", [("6,4", "cd"),
                                                   ("7,5,4", "cd,pcd,fepcd")])
    def test_discriminative_stack_equals_explicit_composition(
            self, idx_pair, tmp_path, hidden, estimator):
        # generative layers below, then a label-augmented binary top layer
        # trained on their activation probabilities with run seed seed+L
        out = str(tmp_path / "dbn")
        assert main(train_args(idx_pair, out, ["--hidden", hidden,
                                               "--discriminative",
                                               "--estimator", estimator])) == 0
        sizes = [int(n) for n in hidden.split(",")]
        ests = estimator.split(",")
        ests = ests * len(sizes) if len(ests) == 1 else ests
        train = minmax_normalize(load_mnist_idx(*idx_pair))
        hp, seed = Hyperparams(epsilon=0.05, batch_size=8, epochs=3), 7
        stack, metric_sets = pretrain_stack([train.n_features] + sizes[:-1],
                                            train, hp, ests[:-1], seed)
        up = propagate_up(stack, train.features, stack.n_layers - 1)
        top, top_metrics = train_discriminative_rbm(
            Dataset(up, train.labels), sizes[-1], hp, ests[-1],
            seed + len(sizes) - 1, BINARY)
        expected = str(tmp_path / "expected.model.json")
        save_model(expected, DbnModel(stack.layers + [top]))
        with open(f"{out}.model.json", "rb") as got, open(expected, "rb") as want:
            assert got.read() == want.read()

        def unclocked(rows):
            return [(r.epoch, r.recon_error, r.mean_free_energy, r.estimator,
                     r.seed) for r in rows]
        for i, metrics in enumerate(metric_sets + [top_metrics]):
            assert unclocked(read_metrics_csv(f"{out}.layer{i}.metrics.csv")) \
                == unclocked(metrics), f"layer {i}"

    def test_config_file_with_flag_override(self, idx_pair, tmp_path):
        images, labels = idx_pair
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data=mnist\nhidden=5\nepochs=4\nbatch=8\nseed=3\n"
                       "subset=20\nchains=4\nestimator=pcd\n"
                       f"images={images}\nlabels={labels}\n")
        out = str(tmp_path / "cfgrun")
        code = main(["train-rbm", "--config", str(cfg), "--epochs", "2",
                     "--out", out])
        assert code == 0
        rows = read_metrics_csv(f"{out}.metrics.csv")
        assert len(rows) == 2         # flag wins over config epochs=4
        assert rows[0].estimator == "pcd"
        assert load_model(f"{out}.model.json").n_hidden == 5

    def test_reproducible_and_thread_invariant(self, idx_pair, tmp_path):
        outs = []
        for name in ("a", "b", "c"):
            out = str(tmp_path / name)
            assert main(train_args(idx_pair, out, ["--estimator", "fepcd"])) == 0
            outs.append(out)
        models = [Path(f"{o}.model.json").read_bytes() for o in outs]
        assert models[0] == models[1] == models[2]
        metric_rows = [[(r.epoch, r.recon_error, r.mean_free_energy)
                        for r in read_metrics_csv(f"{o}.metrics.csv")]
                       for o in outs]
        assert metric_rows[0] == metric_rows[1] == metric_rows[2]

    @pytest.mark.parametrize("option, value", [
        ("--subset", "-5"), ("--hidden", "0"),
        ("--hidden", "8,-3"), ("--hidden", "8,x"), ("--lr", "nan")])
    def test_bad_size_exits_2_naming_the_option(self, idx_pair, tmp_path,
                                                capsys, option, value):
        out = str(tmp_path / "run")
        code = main(train_args(idx_pair, out, [option, value]))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and option in err
        assert not os.path.exists(f"{out}.model.json")


@pytest.fixture
def isolet_csv(tmp_path):
    """12 ISOLET-format rows: 617 real-valued features and a label 1..12."""
    rng = RngStream(70, 0)
    rows = []
    for i in range(12):
        label = (i % 26) + 1
        feats = rng.normals(617) + 0.1 * label
        rows.append(", ".join(f"{x:.4f}" for x in feats) + f", {label}.")
    csv_path = tmp_path / "isolet.data"
    csv_path.write_text("\n".join(rows) + "\n")
    return str(csv_path)


class TestIsoletPath:
    def isolet_args(self, csv_path, out, hidden):
        return ["train-rbm", "--data", "isolet", "--csv", csv_path,
                "--hidden", hidden, "--epochs", "2", "--batch", "6",
                "--lr", "0.01", "--seed", "2", "--out", out]

    def test_train_rbm_gaussian_visibles(self, isolet_csv, tmp_path):
        out = str(tmp_path / "iso")
        assert main(self.isolet_args(isolet_csv, out, "4")) == 0
        model = load_model(f"{out}.model.json")
        assert model.visible_kind == "gaussian"
        assert model.n_visible == 617

    @pytest.mark.parametrize("extra", [[], ["--discriminative"]])
    def test_stack_has_gaussian_bottom_layer(self, isolet_csv, tmp_path, extra):
        out = str(tmp_path / "isostack")
        assert main(self.isolet_args(isolet_csv, out, "8,4") + extra) == 0
        model = load_model(f"{out}.model.json")
        assert [layer.visible_kind for layer in model.layers] == \
               ["gaussian", "binary"]
        assert model.layers[0].n_visible == 617


class TestGenericCsvPath:
    def test_train_rbm_on_plain_numeric_csv(self, tmp_path):
        rng = RngStream(71, 0)
        rows = (rng.uniforms((30, 5)) * 9).round(3)
        csv_path = tmp_path / "features.csv"
        csv_path.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        out = str(tmp_path / "plain")
        code = main(["train-rbm", "--data", "csv", "--csv", str(csv_path),
                     "--hidden", "3", "--epochs", "2", "--batch", "10",
                     "--seed", "1", "--out", out])
        assert code == 0
        assert load_model(f"{out}.model.json").visible_kind == "binary"

    @pytest.mark.parametrize("text", ["", "\n\n", "# header only\n"],
                             ids=["empty", "blank-lines", "comment-only"])
    def test_file_without_data_rows_exits_2_without_a_warning(
            self, tmp_path, capsys, text):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text(text)
        out = tmp_path / "plain"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train-rbm", "--data", "csv", "--csv", str(csv_path),
                         "--hidden", "3", "--epochs", "2", "--out", str(out)])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {csv_path}: no data rows"]
        assert not os.path.exists(f"{out}.model.json")


# the header row each CSV the CLI writes documents, by the file's kind
CSV_HEADERS = {
    "metrics": "epoch,recon_error,mean_free_energy,seconds,estimator,seed",
    "compare-samplers": "estimator,epoch,seconds,error",
    "sample-means": "v0,v1,v2,v3,v4,v5",
    "sample-free-energies": "sample,free_energy",
}


def write_cli_csv(kind, idx_pair, tmp_path) -> str:
    """Run the command that writes the CSV named by kind; return its path."""
    images, labels = idx_pair
    if kind == "metrics":
        out = str(tmp_path / "run")
        assert main(train_args(idx_pair, out)) == 0
        return f"{out}.metrics.csv"
    if kind == "compare-samplers":
        out = str(tmp_path / "compare.csv")
        assert main(["compare-samplers", "--data", "mnist", "--images", images,
                     "--labels", labels, "--test-images", images,
                     "--test-labels", labels, "--hidden", "6", "--epochs", "2",
                     "--batch", "8", "--out", out]) == 0
        return out
    model_path = str(tmp_path / "m.model.json")
    save_model(model_path, init_params(6, 3, RngStream(61, 0)))
    out = str(tmp_path / "samples.csv")
    assert main(["sample", "--model", model_path, "--n", "4", "--steps", "2",
                 "--out", out]) == 0
    return out if kind == "sample-means" else f"{out}.free_energy.csv"


class TestCsvOutputs:
    """Every CSV the CLI writes: a '# config:' line, the documented
    header row, then one row per record, each ended by a bare newline."""

    @pytest.mark.parametrize("kind", list(CSV_HEADERS))
    def test_config_line_header_and_line_endings(self, idx_pair, tmp_path, kind):
        with open(write_cli_csv(kind, idx_pair, tmp_path), newline="") as fh:
            text = fh.read()
        assert "\r" not in text
        lines = text.split("\n")
        assert lines[0].startswith("# config: ")
        assert lines[1] == CSV_HEADERS[kind]
        assert lines[-1] == "" and "" not in lines[2:-1]
        assert len(lines) > 3

    def test_metrics_cells_are_train_rbms_values(self, idx_pair, tmp_path):
        path = write_cli_csv("metrics", idx_pair, tmp_path)
        train = minmax_normalize(load_mnist_idx(*idx_pair))
        init = init_params(train.n_features, 6, RngStream(7, STREAM_INIT))
        _, want = train_rbm(init, train, Hyperparams(epsilon=0.05, batch_size=8,
                                                     epochs=3), "cd", 7)
        with open(path) as fh:
            rows = [ln.rstrip("\n").split(",") for ln in fh.readlines()[2:]]
        assert len(rows) == len(want) == 3
        for cells, row in zip(rows, want):
            assert re.fullmatch(r"\d+\.\d{6}", cells[3])
            assert cells[:3] + cells[4:] == [
                str(row.epoch), format(row.recon_error, ".17g"),
                format(row.mean_free_energy, ".17g"), "cd", "7"]

        def unclocked(metrics):
            return [(r.epoch, r.recon_error, r.mean_free_energy, r.estimator,
                     r.seed) for r in metrics]
        assert unclocked(read_metrics_csv(path)) == unclocked(want)


class TestConsoleScript:
    def test_entry_point_runs(self):
        import shutil
        import subprocess
        exe = shutil.which("rbmkit")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run([exe, "oracle-check", "--trials", "1",
                               "--visible", "2", "--hidden", "2"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout


class TestCompareSamplersCommand:
    def test_long_form_csv_shape_and_clock(self, idx_pair, tmp_path):
        images, labels = idx_pair
        out = str(tmp_path / "compare.csv")
        code = main(["compare-samplers", "--data", "mnist",
                     "--images", images, "--labels", labels,
                     "--test-images", images, "--test-labels", labels,
                     "--hidden", "6", "--epochs", "3", "--batch", "8",
                     "--seed", "1", "--out", out])
        assert code == 0
        lines = [ln for ln in Path(out).read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "estimator,epoch,seconds,error"
        assert len(lines) == 1 + 3 * 3
        by_est = {}
        for ln in lines[1:]:
            est, epoch, secs, err = ln.split(",")
            by_est.setdefault(est, []).append(float(secs))
            assert 0.0 <= float(err) <= 1.0
        for est, clocks in by_est.items():
            assert clocks == sorted(clocks)
            assert len(set(clocks)) == len(clocks)
        # free-energy selection costs extra time per epoch; logged, not asserted
        mean_epoch = {est: np.mean(np.diff([0.0] + clocks))
                      for est, clocks in by_est.items()}
        print(f"mean epoch seconds: {mean_epoch}")

    def compare(self, idx_pair, out, estimator, extra=()):
        images, labels = idx_pair
        return main(["compare-samplers", "--data", "mnist",
                     "--images", images, "--labels", labels,
                     "--test-images", images, "--test-labels", labels,
                     "--hidden", "6", "--epochs", "3", "--batch", "8",
                     "--seed", "1", "--estimator", estimator, "--out", out,
                     *extra])

    def test_estimator_selects_the_rows(self, idx_pair, tmp_path):
        out = str(tmp_path / "compare.csv")
        assert self.compare(idx_pair, out, "fepcd") == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert " estimator=fepcd " in lines[0]
        assert lines[1] == "estimator,epoch,seconds,error"
        assert [ln.split(",")[:2] for ln in lines[2:]] == [
            ["fepcd", "1"], ["fepcd", "2"], ["fepcd", "3"]]

    def test_test_class_outside_training_labels_exits_2(self, idx_pair,
                                                       tmp_path, capsys):
        # the training labels span classes 0 and 1; a test row of class 2
        # has no label unit to be predicted by
        rng = RngStream(56, 0)
        test_labels = np.array([0, 1, 2, 1], dtype=np.uint8)
        test_images = str(tmp_path / "test-images")
        test_label_path = str(tmp_path / "test-labels")
        write_idx_fixture(test_images, test_label_path,
                          (rng.uniforms((4, 4, 4)) * 255).astype(np.uint8),
                          test_labels)
        images, labels = idx_pair
        out = tmp_path / "compare.csv"
        assert main(["compare-samplers", "--data", "mnist",
                     "--images", images, "--labels", labels,
                     "--test-images", test_images,
                     "--test-labels", test_label_path,
                     "--hidden", "6", "--epochs", "1", "--batch", "8",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "class 2" in err
        assert not out.exists()

    def test_test_class_missing_from_the_training_subset_is_scored(
            self, ten_class_idx, tmp_path):
        # the training subset misses class 9, but its file holds 10
        # classes, so a test row of class 9 has a label unit
        images, labels = ten_class_idx
        out = str(tmp_path / "compare.csv")
        assert main(["compare-samplers", "--data", "mnist",
                     "--images", images, "--labels", labels, "--subset", "20",
                     "--test-images", images, "--test-labels", labels,
                     "--hidden", "6", "--epochs", "1", "--batch", "8",
                     "--seed", "7", "--estimator", "cd", "--out", out]) == 0

    def test_bad_test_subset_exits_2_naming_the_option(self, idx_pair,
                                                       tmp_path, capsys):
        out = tmp_path / "compare.csv"
        assert self.compare(idx_pair, str(out), "cd",
                            ["--test-subset", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--test-subset" in err
        assert not out.exists()

    def test_test_images_of_another_width_exit_2_naming_both(
            self, idx_pair, tmp_path, capsys):
        rng = RngStream(58, 0)
        test_images = str(tmp_path / "test-images")
        test_labels = str(tmp_path / "test-labels")
        write_idx_fixture(test_images, test_labels,
                          (rng.uniforms((10, 5, 5)) * 255).astype(np.uint8),
                          np.arange(10, dtype=np.uint8) % 2)
        images, labels = idx_pair
        out = tmp_path / "compare.csv"
        assert main(["compare-samplers", "--data", "mnist",
                     "--images", images, "--labels", labels,
                     "--test-images", test_images, "--test-labels", test_labels,
                     "--hidden", "6", "--epochs", "1", "--out", str(out)]) == 2
        errors = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("error:")]
        assert len(errors) == 1
        assert "25 columns" in errors[0] and "16 columns" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("data, missing", [
        ("mnist", "--test-images and --test-labels"), ("isolet", "--test-csv")])
    def test_missing_test_path_names_the_test_flag(
            self, idx_pair, isolet_csv, tmp_path, capsys, data, missing):
        images, labels = idx_pair
        train = (["--images", images, "--labels", labels] if data == "mnist"
                 else ["--csv", isolet_csv])
        out = tmp_path / "compare.csv"
        assert main(["compare-samplers", "--data", data, *train,
                     "--test-images", images, "--hidden", "4", "--epochs", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and missing in err
        assert not out.exists()

    @pytest.mark.parametrize("estimator", ["bogus", "cd,bogus", "pcd,pcd", ","])
    def test_bad_estimator_list_exits_2(self, idx_pair, tmp_path, capsys,
                                        estimator):
        out = tmp_path / "compare.csv"
        assert self.compare(idx_pair, str(out), estimator) == 2
        assert "estimator" in capsys.readouterr().err
        assert not out.exists()


class TestSampleCommand:
    def test_zero_model_zero_steps_uniform_gray(self, tmp_path):
        p = RbmParams(np.zeros((16, 4)), np.zeros(16), np.zeros(4))
        model_path = str(tmp_path / "zero.model.json")
        save_model(model_path, p)
        out = str(tmp_path / "samples.pgm")
        code = main(["sample", "--model", model_path, "--n", "1",
                     "--steps", "0", "--seed", "5", "--out", out])
        assert code == 0
        raw = Path(out).read_bytes()
        assert raw.startswith(b"P5\n4 4\n255\n")
        assert set(raw.split(b"\n255\n", 1)[1]) == {128}

    def test_free_energy_column_matches_elite_ordering(self, tmp_path):
        rng = RngStream(60, 0)
        p = RbmParams(rng.normals((6, 3)), rng.normals(6), rng.normals(3))
        model_path = str(tmp_path / "m.model.json")
        save_model(model_path, p)
        out = str(tmp_path / "samples.csv")
        seed, n, steps = 9, 8, 5
        code = main(["sample", "--model", model_path, "--n", str(n),
                     "--steps", str(steps), "--seed", str(seed), "--out", out])
        assert code == 0
        lines = [ln for ln in Path(f"{out}.free_energy.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "sample,free_energy"
        fe = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
        # regenerate the chain states the command must have produced
        init_rng = RngStream(seed, STREAM_SAMPLE)
        states = (init_rng.uniforms((n, 6)) < 0.5).astype(float)
        pool = make_pool(states, n, seed)
        states, _, _ = gibbs_chain(p, pool.states, steps, pool.noise(p))
        elite_order = select_elite(p, states, 1.0)
        np.testing.assert_array_equal(np.argsort(fe, kind="stable"), elite_order)
        np.testing.assert_array_equal(fe, free_energy(p, states))
        # then one hidden sample per chain from its own stream, shown as
        # means: chain c's next uniforms after steps sweeps of 3 + 6 each
        u_h = np.empty((n, 3))
        for c in range(n):
            stream = RngStream(seed, CHAIN_STREAM_BASE + c)
            stream.uniforms(steps * (3 + 6))
            u_h[c] = stream.uniforms(3)
        means = visible_probs(p, (u_h < hidden_probs(p, states)).astype(float))
        rows = [ln for ln in Path(out).read_text().splitlines() if not ln.startswith("#")]
        assert rows[0] == ",".join(f"v{i}" for i in range(6))
        got = np.array([[float(x) for x in ln.split(",")] for ln in rows[1:]])
        np.testing.assert_array_equal(got, means)

    def test_deterministic_outputs(self, tmp_path):
        p = RbmParams(np.zeros((9, 2)), np.zeros(9), np.zeros(2))
        model_path = str(tmp_path / "m.model.json")
        save_model(model_path, p)
        raws = []
        for name in ("s1", "s2"):
            out = str(tmp_path / f"{name}.pgm")
            assert main(["sample", "--model", model_path, "--n", "4",
                         "--steps", "3", "--seed", "11", "--out", out]) == 0
            raws.append(Path(out).read_bytes() +
                        Path(f"{out}.free_energy.csv").read_bytes())
        assert raws[0] == raws[1]

    def test_dbn_model_rejected(self, tmp_path, ref_model, capsys):
        from rbmkit.dbn import DbnModel
        model_path = str(tmp_path / "dbn.model.json")
        save_model(model_path, DbnModel([ref_model]))
        assert main(["sample", "--model", model_path,
                     "--out", str(tmp_path / "x")]) == 2


class TestOracleCheckCommand:
    def test_default_suite_passes(self, capsys):
        assert main(["oracle-check", "--trials", "5", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "PASS free_energy_marginalization" in out
        assert "FAIL" not in out

    def test_injected_fault_names_failing_invariant(self, monkeypatch):
        import rbmkit.oracle
        monkeypatch.setattr(rbmkit.oracle, "free_energy",
                            lambda p, v, h_input=None: free_energy(p, v, h_input) + 1e-3)
        results = run_oracle_checks(trials=2, seed=4)
        by_name = {r.name: bool(r.ok) for r in results}
        assert by_name["free_energy_marginalization"] is False
        assert by_name["marginal_normalization"] is True

    def test_zero_trials_trivial_pass_with_warning(self, capsys):
        assert main(["oracle-check", "--trials", "0"]) == 0
        assert "warning" in capsys.readouterr().err

    @pytest.mark.parametrize("option,value", [("--trials", "-1"), ("--visible", "0"),
                                              ("--hidden", "-2"), ("--visible", "18"),
                                              ("--hidden", "18")])
    def test_bad_size_exits_2_naming_the_option(self, option, value, capsys):
        assert main(["oracle-check", option, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and option in captured.err
        assert "PASS" not in captured.out


class TestErrorExits:
    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        assert main(["oracle-check", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_directory_as_images_exits_2(self, idx_pair, tmp_path, capsys):
        _, labels = idx_pair
        code = main(["train-rbm", "--data", "mnist", "--images", str(tmp_path),
                     "--labels", labels, "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class _Resolved(Exception):
    """Carries the option namespace a command resolved, before any work."""


@pytest.fixture
def resolve(monkeypatch):
    """resolve(argv) -> the namespace train-rbm or compare-samplers resolved.

    The command stops where it would first read data, so no file named in
    the options needs to exist.
    """
    import rbmkit.cli as cli

    def stop(args):
        raise _Resolved(args)

    monkeypatch.setattr(cli, "_load_train", stop)

    def run(argv):
        with pytest.raises(_Resolved) as info:
            main(argv)
        return info.value.args[0]
    return run


@pytest.fixture
def oracle_call(monkeypatch):
    """oracle_call(argv) -> (visible, hidden, trials, seed) oracle-check used."""
    import rbmkit.cli as cli
    calls = []
    monkeypatch.setattr(cli, "run_oracle_checks",
                        lambda *args: calls.append(args) or [])

    def run(argv):
        assert main(argv) == 0
        return calls.pop()
    return run


# Built-in defaults as the README's CLI section documents them.
TRAIN_DEFAULTS = dict(
    images=None, labels=None, csv=None, subset=None, hidden="32",
    estimator="cd", k=1, chains=None, elite_fraction=0.5, epochs=10,
    batch=20, lr=0.05, momentum=0.0, decay=0.0, seed=0)
# compare-samplers alone reads a test set
TEST_DEFAULTS = dict(test_images=None, test_labels=None, test_csv=None,
                     test_subset=None)


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestOptionResolution:
    def test_train_rbm_defaults(self, resolve):
        args = resolve(["train-rbm", "--data", "mnist"])
        for key, value in TRAIN_DEFAULTS.items():
            assert getattr(args, key) == value, key
        assert not any(hasattr(args, key) for key in TEST_DEFAULTS)
        assert args.discriminative is False
        assert args.out == "run"

    def test_compare_samplers_defaults(self, resolve):
        args = resolve(["compare-samplers", "--data", "mnist"])
        for key, value in dict(TRAIN_DEFAULTS, **TEST_DEFAULTS,
                               estimator="cd,pcd,fepcd").items():
            assert getattr(args, key) == value, key
        assert args.discriminative is True
        assert args.out == "compare.csv"

    def test_oracle_check_defaults(self, oracle_call):
        assert oracle_call(["oracle-check"]) == (3, 3, 25, 0)

    def test_sample_defaults(self, tmp_path, monkeypatch):
        model_path = str(tmp_path / "m.model.json")
        save_model(model_path, RbmParams(np.zeros((4, 2)), np.zeros(4),
                                         np.zeros(2)))
        monkeypatch.chdir(tmp_path)
        assert main(["sample", "--model", model_path]) == 0
        assert os.path.exists("samples.pgm")
        lines = Path("samples.pgm.free_energy.csv").read_text().splitlines()
        assert lines[0] == f"# config: model={model_path} n=16 steps=100 seed=0"
        assert len(lines) == 2 + 16

    def test_config_values_arrive_typed(self, resolve, tmp_path):
        cfg = write_config(tmp_path, "data=mnist\nsubset=20\nchains=4\n"
                                     "test-subset=7\nelite_fraction=0.25\n")
        args = resolve(["train-rbm", "--config", cfg])
        assert (args.subset, args.chains) == (20, 4)
        assert all(type(v) is int for v in (args.subset, args.chains))
        assert args.elite_fraction == 0.25
        assert type(args.elite_fraction) is float
        # test-subset names no train-rbm option; compare-samplers reads it
        assert not hasattr(args, "test_subset")
        test_subset = resolve(["compare-samplers", "--config", cfg]).test_subset
        assert test_subset == 7 and type(test_subset) is int

    @pytest.mark.parametrize("text, expected", [
        ("false", False), ("true", True), ("1", True), ("YES", True),
        ("0", False), ("no", False)])
    def test_discriminative_from_config(self, resolve, tmp_path, text,
                                        expected):
        cfg = write_config(tmp_path, f"data=mnist\ndiscriminative={text}\n")
        assert resolve(["train-rbm", "--config", cfg]).discriminative is expected

    def test_discriminative_flag_beats_config(self, resolve, tmp_path):
        cfg = write_config(tmp_path, "data=mnist\ndiscriminative=false\n")
        args = resolve(["train-rbm", "--config", cfg, "--discriminative"])
        assert args.discriminative is True

    def test_flag_beats_config(self, resolve, tmp_path):
        cfg = write_config(tmp_path, "data=csv\nepochs=4\nlr=0.5\nhidden=9\n")
        args = resolve(["train-rbm", "--config", cfg, "--epochs", "2",
                        "--data", "mnist"])
        assert (args.data, args.epochs, args.lr, args.hidden) == \
               ("mnist", 2, 0.5, "9")

    def test_sample_reads_n_and_steps_from_config(self, tmp_path):
        model_path = str(tmp_path / "m.model.json")
        save_model(model_path, RbmParams(np.zeros((3, 2)), np.zeros(3),
                                         np.zeros(2)))
        out = str(tmp_path / "s.csv")
        cfg = write_config(tmp_path, f"model={model_path}\nn=3\nsteps=2\n"
                                     f"seed=4\nout={out}\n")
        assert main(["sample", "--config", cfg, "--seed", "5"]) == 0
        lines = Path(f"{out}.free_energy.csv").read_text().splitlines()
        assert lines[0] == f"# config: model={model_path} n=3 steps=2 seed=5"
        assert len(lines) == 2 + 3

    def test_oracle_check_reads_trials_from_config(self, oracle_call,
                                                   tmp_path):
        cfg = write_config(tmp_path, "trials=2\nvisible=2\nseed=8\n")
        assert oracle_call(["oracle-check", "--config", cfg]) == (2, 3, 2, 8)

    @pytest.mark.parametrize("command", ["train-rbm", "compare-samplers",
                                         "sample", "oracle-check"])
    def test_threads_flag_refused(self, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--threads", "4"])
        assert info.value.code == 2

    @pytest.mark.parametrize("option", ["--test-images", "--test-labels",
                                        "--test-csv", "--test-subset"])
    def test_train_rbm_refuses_test_inputs(self, option):
        with pytest.raises(SystemExit) as info:
            main(["train-rbm", "--data", "mnist", option, "1"])
        assert info.value.code == 2

    def test_foreign_keys_ignored(self, resolve, tmp_path):
        cfg = write_config(tmp_path, "data=mnist\nfunc=oops\ncommand=sample\n"
                                     "n=5\ntrials=3\nthreads=4\n")
        args = resolve(["train-rbm", "--config", cfg])
        assert args.command == "train-rbm"
        assert not hasattr(args, "n")
        assert not hasattr(args, "trials")
        assert not hasattr(args, "threads")

    def test_unparsable_config_value_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "trials=abc\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "rbmkit.cli",
                               "oracle-check", "--config", cfg],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
