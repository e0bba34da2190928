"""The four benchmark workloads.

Each workload has a set-up (input generation, file writing and loading,
warm-up) and a cycle (the measured operations). A cycle is a pure
function of the seed, so every cycle of a run, traced or not, must yield
the same output digest. rbmkit is reached only through module attributes
looked up at call time, so the tracer's rebinding sees the benchmark's own
calls too.

Every workload reports the same end-to-end slots (see README.md):
speed.1-3 and query_per_s in 1/s, loss.1-3 (lower is better). `report`
names what each slot holds on that workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time

import numpy as np

import datagen

N_TRAIN, N_TEST = 2000, 1000
SMALL_ROWS = 400
CHANCE_ERROR = 0.9


def load_rbmkit():
    """The rbmkit package with every module the benchmark reaches loaded."""
    import rbmkit.cli
    import rbmkit.core
    import rbmkit.dataio
    import rbmkit.dbn
    import rbmkit.model
    import rbmkit.oracle
    import rbmkit.trainer
    return rbmkit


def reference_seconds() -> float:
    """Wall time of a fixed numpy loop shaped like rbmkit's inner loop
    (small matrix products, logistic via logaddexp, one call per row). It
    runs no rbmkit code, so it tracks only how fast the machine is."""
    rng = np.random.default_rng(0)
    w = rng.normal(0.0, 0.1, (64, 96))
    x = rng.random((20, 64))
    t0 = time.perf_counter()
    for _ in range(100):
        h = np.exp(-np.logaddexp(0.0, -(x @ w)))
        x = np.exp(-np.logaddexp(0.0, -(h @ w.T)))
    return time.perf_counter() - t0


class Recorder:
    """Timing samples, operation counts and check results of one run."""

    def __init__(self):
        self.samples = {}
        self.refs = []
        self.attempted = 0
        self.failed = 0
        self.checks = []

    def reference(self):
        """Sample the machine's speed; called between measured operations
        all through the run, never inside a timed interval."""
        self.refs.append(reference_seconds())

    def add(self, key, seconds: float, units: float):
        self.samples.setdefault(key, []).append((seconds, units))

    @contextlib.contextmanager
    def op(self, key=None, units: float = 0.0):
        """Count one operation; time it under `key` when given."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            yield
        except Exception:
            self.failed += 1
            raise
        if key is not None:
            self.add(key, time.perf_counter() - t0, units)

    def check(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        self.failed += not ok
        self.checks.append((name, bool(ok), detail))

    def rate(self, key) -> float:
        """Median per-sample rate (units per second)."""
        return float(np.median([u / s for s, u in self.samples[key]]))

    def total_rate(self, key) -> float:
        """Units over seconds summed across samples."""
        secs, units = np.sum(self.samples[key], axis=0)
        return float(units / secs)

    def tail_rate(self, key):
        """(percentile, rate) at the highest latency percentile with at
        least ten samples beyond it, or None with fewer than 11 samples."""
        lat = sorted(s / u for s, u in self.samples[key])
        k = len(lat) - 10
        if k < 1:
            return None
        return 100.0 * k / len(lat), 1.0 / lat[k - 1]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype).encode() + str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _params_arrays(p):
    return (p.w, p.a, p.b)


def _epoch_timer(rec: Recorder, key, rows: int, between=None):
    """epoch_callback that records rows per epoch, timing from the end of
    the previous callback so the callback's own work is excluded. Other
    measured calls run in `between(epoch, params)`, which spreads their
    samples over the whole run instead of bunching them in one phase of
    the machine's speed."""
    state = {"t": time.perf_counter()}

    def on_epoch(epoch, params, metrics):
        rec.add(key, time.perf_counter() - state["t"], rows)
        if between is not None:
            between(epoch, params)
        if epoch % 5 == 0:
            rec.reference()
        state["t"] = time.perf_counter()

    return on_epoch


def _load_digits(rk, workdir, seed):
    """Write the generated digit rows as IDX files, load and normalize them."""
    paths = datagen.write_digit_idx(workdir, seed, N_TRAIN, N_TEST)
    train = rk.dataio.minmax_normalize(
        rk.dataio.load_mnist_idx(paths["train_images"], paths["train_labels"]))
    test = rk.dataio.minmax_normalize(
        rk.dataio.load_mnist_idx(paths["test_images"], paths["test_labels"]),
        train.normalization)
    return train, test


def _subset(rk, ds, n):
    return rk.dataio.Dataset(ds.features[:n], ds.labels[:n])


def _run_cli(rk, argv):
    """cli.main with its stdout captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rk.cli.main(argv)
    return code, out.getvalue()


class Disc784:
    """Criterion-5 shape: 784+10 visible, 64 hidden, batch 20, k=1."""

    name = "disc784"
    estimators = ("cd", "pcd", "fepcd")
    epochs = 5
    # Two training seeds per estimator, and the test error averaged over
    # the last three epochs of each: a single short run's error swings
    # with its training trajectory far more than with the estimator.
    replicas = 2
    scored_epochs = 3

    def hyperparams(self, rk, epochs):
        return rk.model.Hyperparams(epsilon=0.1, batch_size=20, epochs=epochs, k=1,
                                    elite_fraction=0.5)

    def setup(self, rk, workdir, seed):
        train, test = _load_digits(rk, workdir, seed)
        warm = _subset(rk, train, 200)
        for est in self.estimators:
            p, _ = rk.dbn.train_discriminative_rbm(warm, 64, self.hyperparams(rk, 1), est, seed)
        rk.dbn.classify_free_energy(p, test.features)
        return {"train": train, "test": test, "seed": seed}

    def cycle(self, rk, state, rec):
        train, test, seed = state["train"], state["test"], state["seed"]
        errors = {est: [] for est in self.estimators}
        parts = []
        for r in range(self.replicas):
            for est in self.estimators:
                def classify(epoch, params):
                    with rec.op("classify", test.n_samples):
                        pred, _ = rk.dbn.classify_free_energy(params, test.features)
                    if epoch > self.epochs - self.scored_epochs:
                        errors[est].append(float(np.mean(pred != test.labels)))

                cb = _epoch_timer(rec, f"train.{est}", train.n_samples, classify)
                with rec.op():
                    p, _ = rk.dbn.train_discriminative_rbm(
                        train, 64, self.hyperparams(rk, self.epochs), est, seed + 1000 * r,
                        epoch_callback=cb)
                parts += [*_params_arrays(p)]
        out = {f"test_error.{est}": float(np.mean(errors[est])) for est in self.estimators}
        return _digest(*parts, np.array([out[k] for k in sorted(out)])), out

    def report(self, rec, out):
        rows = [("speed.1", "train_rows_per_s.cd", rec.rate("train.cd"), "rows/s"),
                ("speed.2", "train_rows_per_s.pcd", rec.rate("train.pcd"), "rows/s"),
                ("speed.3", "train_rows_per_s.fepcd", rec.rate("train.fepcd"), "rows/s"),
                ("query_per_s", "classify_rows_per_s", rec.rate("classify"), "rows/s")]
        rows += [(f"loss.{i}", f"test_error.{est}", out[f"test_error.{est}"], "fraction")
                 for i, est in enumerate(self.estimators, 1)]
        return rows, {"classify_rows_per_s": "classify"}

    def checks(self, rec, out):
        for est in self.estimators:
            err = out[f"test_error.{est}"]
            rec.check(f"test_error.{est} in [0, {CHANCE_ERROR})", 0.0 <= err < CHANCE_ERROR,
                      f"{err:.4f}")


class Sample784:
    """`rbmkit sample` on a 794-64 model: chain advance and little else."""

    name = "sample784"
    # (chains, Gibbs steps) per sample call; equal chain-steps per call
    configs = ((24, 300), (48, 150), (72, 100))
    model_epochs = 2

    def setup(self, rk, workdir, seed):
        train, _ = _load_digits(rk, workdir, seed)
        hp = rk.model.Hyperparams(epsilon=0.05, batch_size=20, epochs=self.model_epochs, k=1)
        model, _ = rk.dbn.train_discriminative_rbm(train, 64, hp, "cd", seed)
        model_path = os.path.join(workdir, "model794.json")
        rk.dataio.save_model(model_path, model)
        out_path = os.path.join(workdir, "samples.pgm")
        _run_cli(rk, ["sample", "--model", model_path, "--n", "4", "--steps", "5",
                      "--seed", str(seed), "--out", out_path])
        return {"train": train.features, "model": model_path, "out": out_path, "seed": seed}

    def cycle(self, rk, state, rec):
        out, parts = {}, []
        for chains, steps in self.configs:
            argv = ["sample", "--model", state["model"], "--n", str(chains), "--steps",
                    str(steps), "--seed", str(state["seed"]), "--out", state["out"]]
            with rec.op(f"sample.{chains}", chains * steps):
                code, _ = _run_cli(rk, argv)
            rec.reference()
            rec.add("sample.all", *rec.samples[f"sample.{chains}"][-1])
            with open(state["out"], "rb") as fh:
                pgm = fh.read()
            with open(state["out"] + ".free_energy.csv") as fh:
                fe_text = fh.read()
            means, fe = _parse_sample_outputs(pgm, fe_text, chains)
            out[f"exit.{chains}"] = code
            out[f"finite.{chains}"] = bool(np.all(np.isfinite(means)) and np.all(np.isfinite(fe)))
            out[f"nn_mse.{chains}"] = _nearest_row_mse(means, state["train"])
            parts += [np.frombuffer(pgm, np.uint8), fe]
        return _digest(*parts), out

    def report(self, rec, out):
        rows = [(f"speed.{i}", f"chain_steps_per_s.{c}chains", rec.rate(f"sample.{c}"), "steps/s")
                for i, (c, _) in enumerate(self.configs, 1)]
        rows.append(("query_per_s", "chain_steps_per_s", rec.total_rate("sample.all"), "steps/s"))
        rows += [(f"loss.{i}", f"sample_nn_mse.{c}chains", out[f"nn_mse.{c}"], "pixel^2")
                 for i, (c, _) in enumerate(self.configs, 1)]
        return rows, {}

    def checks(self, rec, out):
        for chains, _ in self.configs:
            rec.check(f"sample {chains} chains exits 0", out[f"exit.{chains}"] == 0,
                      str(out[f"exit.{chains}"]))
            rec.check(f"sample {chains} chains outputs parse and are finite",
                      out[f"finite.{chains}"])


def _parse_sample_outputs(pgm: bytes, fe_text: str, chains: int):
    """Per-chain 784-pixel means from the PGM grid and the free energies;
    raises ValueError when either file is malformed."""
    fields = pgm.split(maxsplit=4)
    if fields[0] != b"P5" or int(fields[3]) != 255:
        raise ValueError("not an 8-bit P5 PGM")
    width, height = int(fields[1]), int(fields[2])
    data = np.frombuffer(fields[4], np.uint8)
    if data.size != width * height:
        raise ValueError("PGM payload size mismatch")
    side = datagen.SIDE
    grid = data.reshape(height, width) / 255.0
    cols = width // side
    means = np.array([grid[(c // cols) * side:(c // cols + 1) * side,
                           (c % cols) * side:(c % cols + 1) * side].reshape(-1)
                      for c in range(chains)])
    lines = [ln for ln in fe_text.splitlines() if ln and not ln.startswith("#")]
    if lines[0] != "sample,free_energy" or len(lines) != chains + 1:
        raise ValueError("free-energy CSV has the wrong shape")
    fe = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    return means, fe


def _nearest_row_mse(samples: np.ndarray, rows: np.ndarray) -> float:
    """Mean over samples of the squared pixel gap to the closest row."""
    d2 = (np.sum(samples ** 2, axis=1)[:, None] - 2.0 * samples @ rows.T
          + np.sum(rows ** 2, axis=1)[None, :])
    return float(np.mean(np.min(d2, axis=1)) / samples.shape[1])


class OracleSmall:
    """12 visible x 8 hidden binary RBMs: small enough for exact likelihood."""

    name = "oracle-small"
    estimators = ("cd", "pcd", "fepcd")
    epochs = 30

    def hyperparams(self, rk, epochs):
        return rk.model.Hyperparams(epsilon=0.1, batch_size=20, epochs=epochs, k=1,
                                    elite_fraction=0.5)

    def init(self, rk, seed):
        return rk.model.init_params(datagen.SMALL_VISIBLE, 8,
                                    rk.core.RngStream(seed, rk.trainer.STREAM_INIT))

    def setup(self, rk, workdir, seed):
        rows = datagen.small_binary_rows(seed, SMALL_ROWS)
        for est in self.estimators:
            rk.trainer.train_rbm(self.init(rk, seed), rows, self.hyperparams(rk, 1), est, seed)
        _run_cli(rk, ["oracle-check", "--trials", "1"])
        return {"rows": rows, "seed": seed}

    def cycle(self, rk, state, rec):
        rows, seed = state["rows"], state["seed"]
        out, parts = {}, []
        reports = []

        def oracle_check(epoch, params):
            if epoch == self.epochs // 2:
                with rec.op("oracle_check", 1):
                    reports.append(_run_cli(rk, ["oracle-check"]))

        for est in self.estimators:
            cb = _epoch_timer(rec, f"train.{est}", rows.shape[0], oracle_check)
            with rec.op():
                p, _ = rk.trainer.train_rbm(self.init(rk, seed), rows,
                                            self.hyperparams(rk, self.epochs), est, seed,
                                            epoch_callback=cb)
            with rec.op():
                loglik = rk.oracle.mean_log_likelihood(p, rows)
            out[f"exact_loglik.{est}"] = loglik
            parts += [*_params_arrays(p), np.array([loglik])]
        out["oracle_reports"] = reports
        text = "".join(f"{code}\n{stdout}" for code, stdout in reports)
        parts.append(np.frombuffer(text.encode(), np.uint8))
        return _digest(*parts), out

    def report(self, rec, out):
        rows = [(f"speed.{i}", f"train_rows_per_s.{est}", rec.rate(f"train.{est}"), "rows/s")
                for i, est in enumerate(self.estimators, 1)]
        rows.append(("query_per_s", "oracle_check_per_s", rec.rate("oracle_check"), "1/s"))
        rows += [(f"loss.{i}", f"neg_exact_loglik.{est}", -out[f"exact_loglik.{est}"], "nats")
                 for i, est in enumerate(self.estimators, 1)]
        extra = [("oracle_check_s", 1.0 / rec.rate("oracle_check"), "s")]
        extra += [(f"exact_loglik.{est}", out[f"exact_loglik.{est}"], "nats")
                  for est in self.estimators]
        return rows + [(None, *e) for e in extra], {}

    def checks(self, rec, out):
        for est in self.estimators:
            ll = out[f"exact_loglik.{est}"]
            rec.check(f"exact_loglik.{est} finite and <= 0", bool(np.isfinite(ll) and ll <= 0.0),
                      f"{ll:.4f}")
        for i, (code, stdout) in enumerate(out["oracle_reports"]):
            lines = stdout.splitlines()
            ok = code == 0 and len(lines) == 6 and all(ln.startswith("PASS ") for ln in lines)
            bad = [ln for ln in lines if not ln.startswith("PASS ")]
            rec.check(f"oracle-check run {i + 1} all PASS", ok, "; ".join(bad) or f"exit {code}")


class DbnStack:
    """784-128-64 pcd stack, unrolled to a 10-class net and fine-tuned."""

    name = "dbn-stack"
    sizes = (784, 128, 64)
    pretrain_epochs = 2
    finetune_chunks, chunk_epochs = 4, 3
    query_calls = 3

    def pretrain_hp(self, rk, epochs):
        return rk.model.Hyperparams(epsilon=0.05, batch_size=20, epochs=epochs, k=1)

    def finetune_hp(self, rk, epochs):
        return rk.model.Hyperparams(epsilon=0.1, momentum=0.9, batch_size=20, epochs=epochs)

    def setup(self, rk, workdir, seed):
        train, test = _load_digits(rk, workdir, seed)
        warm = _subset(rk, train, 100)
        stack, _ = rk.dbn.pretrain_stack(list(self.sizes), warm, self.pretrain_hp(rk, 1), "pcd", seed)
        net = rk.dbn.unroll_to_network(stack, datagen.N_CLASSES, seed)
        net, _ = rk.dbn.fine_tune(net, warm, self.finetune_hp(rk, 1), seed)
        rk.dbn.classify_net(net, test.features)
        return {"train": train, "test": test, "seed": seed}

    def cycle(self, rk, state, rec):
        train, test, seed = state["train"], state["test"], state["seed"]
        layers = len(self.sizes) - 1
        with rec.op("pretrain", train.n_samples * self.pretrain_epochs * layers):
            stack, layer_metrics = rk.dbn.pretrain_stack(
                list(self.sizes), train, self.pretrain_hp(rk, self.pretrain_epochs), "pcd", seed)
        with rec.op():
            net = rk.dbn.unroll_to_network(stack, datagen.N_CLASSES, seed)
        # fine-tuning runs in chunks with the test-row queries between
        # them, so every metric samples the whole cycle
        for chunk in range(self.finetune_chunks):
            with rec.op("finetune", train.n_samples * self.chunk_epochs):
                net, losses = rk.dbn.fine_tune(net, train, self.finetune_hp(rk, self.chunk_epochs),
                                               seed + chunk)
            for _ in range(self.query_calls):
                with rec.op("classify", test.n_samples):
                    pred = rk.dbn.classify_net(net, test.features)
                with rec.op("propagate", test.n_samples):
                    top = rk.dbn.propagate_up(stack, test.features, layers - 1)
            rec.reference()
        with rec.op():
            test_xent = rk.dbn.cross_entropy(net, test.features, test.labels)
        out = {"test_error.net": float(np.mean(pred != test.labels)),
               "recon_error": [m[-1].recon_error for m in layer_metrics],
               "train_xent.net": float(losses[-1]), "test_xent.net": float(test_xent)}
        parts = [a for layer in stack.layers for a in _params_arrays(layer)]
        parts += [*net.weights, *net.biases, pred, top]
        return _digest(*parts), out

    def report(self, rec, out):
        rows = [("speed.1", "train_rows_per_s.pcd", rec.rate("pretrain"), "rows/s"),
                ("speed.2", "finetune_rows_per_s", rec.rate("finetune"), "rows/s"),
                ("speed.3", "propagate_rows_per_s", rec.rate("propagate"), "rows/s"),
                ("query_per_s", "classify_rows_per_s", rec.rate("classify"), "rows/s"),
                ("loss.1", "test_error.net", out["test_error.net"], "fraction"),
                ("loss.2", "recon_error.layer1", out["recon_error"][0], "mse"),
                ("loss.3", "recon_error.layer2", out["recon_error"][1], "mse"),
                (None, "train_xent.net", out["train_xent.net"], "nats"),
                (None, "test_xent.net", out["test_xent.net"], "nats")]
        return rows, {"classify_rows_per_s": "classify"}

    def checks(self, rec, out):
        err = out["test_error.net"]
        rec.check(f"test_error.net in [0, {CHANCE_ERROR})", 0.0 <= err < CHANCE_ERROR, f"{err:.4f}")


WORKLOADS = {w.name: w for w in (Disc784(), Sample784(), OracleSmall(), DbnStack())}
