import os

import numpy as np
import pytest

from rbmkit import RbmParams, RngStream, load_model
from rbmkit.cli import main, run_oracle_checks
from rbmkit.dataio import save_model
from rbmkit.samplers import gibbs_chain, make_pool, select_elite
from rbmkit.trainer import STREAM_SAMPLE, read_metrics_csv

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
        first = open(f"{out}.metrics.csv").readline()
        assert first.startswith("# config:")

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
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = str(tmp_path / name)
            assert main(train_args(idx_pair, out,
                                   ["--estimator", "fepcd", "--threads",
                                    threads])) == 0
            outs.append(out)
        models = [open(f"{o}.model.json", "rb").read() for o in outs]
        assert models[0] == models[1] == models[2]
        metric_rows = [[(r.epoch, r.recon_error, r.mean_free_energy)
                        for r in read_metrics_csv(f"{o}.metrics.csv")]
                       for o in outs]
        assert metric_rows[0] == metric_rows[1] == metric_rows[2]


class TestIsoletPath:
    def test_train_rbm_gaussian_visibles(self, tmp_path):
        rng = RngStream(70, 0)
        rows = []
        for i in range(12):
            label = (i % 26) + 1
            feats = rng.normals(617) + 0.1 * label
            rows.append(", ".join(f"{x:.4f}" for x in feats) + f", {label}.")
        csv_path = tmp_path / "isolet.data"
        csv_path.write_text("\n".join(rows) + "\n")
        out = str(tmp_path / "iso")
        code = main(["train-rbm", "--data", "isolet", "--csv", str(csv_path),
                     "--hidden", "4", "--epochs", "2", "--batch", "6",
                     "--lr", "0.01", "--seed", "2", "--out", out])
        assert code == 0
        model = load_model(f"{out}.model.json")
        assert model.visible_kind == "gaussian"
        assert model.n_visible == 617


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
        lines = [ln for ln in open(out).read().splitlines()
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


class TestSampleCommand:
    def test_zero_model_zero_steps_uniform_gray(self, tmp_path):
        p = RbmParams(np.zeros((16, 4)), np.zeros(16), np.zeros(4))
        model_path = str(tmp_path / "zero.model.json")
        save_model(model_path, p)
        out = str(tmp_path / "samples.pgm")
        code = main(["sample", "--model", model_path, "--n", "1",
                     "--steps", "0", "--seed", "5", "--out", out])
        assert code == 0
        raw = open(out, "rb").read()
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
        lines = [ln for ln in open(f"{out}.free_energy.csv").read().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "sample,free_energy"
        fe = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
        # regenerate the chain states the command must have produced
        init_rng = RngStream(seed, STREAM_SAMPLE)
        states = (init_rng.uniforms((n, 6)) < 0.5).astype(float)
        pool = make_pool(states, n, seed)
        states, _ = gibbs_chain(p, pool.states, steps, pool.noise(p))
        elite_order = select_elite(p, states, 1.0)
        np.testing.assert_array_equal(np.argsort(fe, kind="stable"), elite_order)

    def test_deterministic_outputs(self, tmp_path):
        p = RbmParams(np.zeros((9, 2)), np.zeros(9), np.zeros(2))
        model_path = str(tmp_path / "m.model.json")
        save_model(model_path, p)
        raws = []
        for name in ("s1", "s2"):
            out = str(tmp_path / f"{name}.pgm")
            assert main(["sample", "--model", model_path, "--n", "4",
                         "--steps", "3", "--seed", "11", "--out", out]) == 0
            raws.append(open(out, "rb").read() +
                        open(f"{out}.free_energy.csv", "rb").read())
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

    def test_injected_fault_names_failing_invariant(self):
        from rbmkit import free_energy
        results = run_oracle_checks(trials=2, seed=4,
                                    free_energy_fn=lambda p, v: free_energy(p, v) + 1e-3)
        by_name = {r.name: bool(r.ok) for r in results}
        assert by_name["free_energy_marginalization"] is False
        assert by_name["marginal_normalization"] is True

    def test_zero_trials_trivial_pass_with_warning(self, capsys):
        assert main(["oracle-check", "--trials", "0"]) == 0
        assert "warning" in capsys.readouterr().err
