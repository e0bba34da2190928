"""Command-line surface: train, compare estimators, sample, self-check.

Every command is reproducible from its configuration plus seed; the
configuration is echoed into CSV output headers. Flags can also come from
a flat key=value file via --config, with explicit flags winning. Commands
never leave partial artifacts: outputs are written to a temp file and
renamed into place after the work succeeds.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core import RngStream, sigmoid
from .dataio import (Dataset, atomic_write_text, load_isolet_csv,
                     load_mnist_idx, load_model, minmax_normalize, save_model,
                     write_pgm)
from .dbn import (classify_free_energy, label_classes, pretrain_stack,
                  train_discriminative_rbm)
from .errors import DataFormatError, TrainingDivergedError
from .model import (BINARY, GAUSSIAN, Hyperparams, RbmParams, free_energy,
                    hidden_input, visible_probs)
from .oracle import run_oracle_checks
from .samplers import gibbs_chain, make_pool
from .trainer import ESTIMATORS, METRICS_FIELDS, STREAM_SAMPLE, STREAM_SUBSET

__all__ = ["main", "run_oracle_checks"]


# ---------------------------------------------------------------- config

def _read_config_file(path) -> dict:
    """Flat key=value file; '#' starts a comment, blank lines ignored."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _apply_config(parser: argparse.ArgumentParser, path):
    """Make the config file's entries the command parser's defaults.

    Parsing again then resolves explicit flag > config entry > built-in
    default, and argparse converts each string with its flag's type. Keys
    that name none of the command's options are ignored.
    """
    is_flag = {action.dest: action.nargs == 0 for action in parser._actions
               if action.default is not argparse.SUPPRESS}
    parser.set_defaults(**{
        key: value.lower() in ("1", "true", "yes") if is_flag[key] else value
        for key, value in _read_config_file(path).items() if key in is_flag})


def _write_csv(path, echo: str, header, rows):
    """'# config:' line, header and rows of strings, written atomically."""
    lines = [f"# config: {echo}", ",".join(header)]
    lines += [",".join(row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _config_echo(args, keys) -> str:
    return " ".join(f"{k}={getattr(args, k)}" for k in keys
                    if getattr(args, k, None) is not None)


def _hidden_sizes(text: str) -> list:
    """--hidden's comma-separated layer sizes, each an integer >= 1; an
    empty item (8,,4 or 8,) is refused."""
    try:
        sizes = [int(part) for part in str(text).split(",")]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        raise ValueError(f"--hidden takes comma-separated sizes >= 1, got {text!r}")
    return sizes


# ---------------------------------------------------------------- datasets

def _subset(ds: Dataset, n, seed: int) -> Dataset:
    """First n samples after a seeded shuffle (stable desk-scale subsets)."""
    if n is None or n >= ds.n_samples:
        return ds
    order = RngStream(seed, STREAM_SUBSET).permutation(ds.n_samples)[:int(n)]
    labels = ds.labels[order] if ds.labels is not None else None
    return Dataset(ds.features[order], labels, n_classes=ds.n_classes)


def _load_raw(kind: str, images, labels, csv_path, flag: str = "--") -> Dataset:
    """A kind dataset read from these paths. A missing path is named by its
    flag: flag + "images", "labels" or "csv" ("--test-" for test data)."""
    if kind == "mnist":
        if not images or not labels:
            raise DataFormatError(
                f"mnist input needs {flag}images and {flag}labels paths")
        return load_mnist_idx(images, labels)
    if kind in ("isolet", "csv") and not csv_path:
        raise DataFormatError(f"{kind} input needs a {flag}csv path")
    if kind == "isolet":
        return load_isolet_csv(csv_path)
    if kind == "csv":
        try:
            with open(csv_path, encoding="utf-8") as fh:
                lines = [ln for ln in fh if ln.split("#", 1)[0].strip()]
            if not lines:  # loadtxt would only warn
                raise DataFormatError(f"{csv_path}: no data rows")
            feats = np.loadtxt(lines, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DataFormatError(f"{csv_path}: {exc}") from None
        return Dataset(feats)
    raise DataFormatError(f"unknown data kind {kind!r}")


def _load_train(args) -> Dataset:
    """The training dataset, subset then min-max normalized."""
    if args.data is None:
        raise ValueError("--data is required")
    if args.subset is not None and args.subset < 1:
        raise ValueError(f"--subset must be >= 1, got {args.subset}")
    train = _subset(_load_raw(args.data, args.images, args.labels, args.csv),
                    args.subset, args.seed)
    return minmax_normalize(train)


def _load_train_test(args):
    """compare-samplers' train and (optional) test datasets; the test side
    is normalized with the training statistics."""
    if args.test_subset is not None and args.test_subset < 1:
        raise ValueError(f"--test-subset must be >= 1, got {args.test_subset}")
    train = _load_train(args)
    test = None
    if args.test_images or args.test_csv:
        test = _subset(_load_raw(args.data, args.test_images, args.test_labels,
                                 args.test_csv, "--test-"),
                       args.test_subset, args.seed)
        test = minmax_normalize(test, train.normalization)
    return train, test


def _hyperparams(args) -> Hyperparams:
    return Hyperparams(
        epsilon=args.lr,
        momentum=args.momentum,
        weight_decay=args.decay,
        batch_size=args.batch,
        epochs=args.epochs,
        k=args.k,
        n_chains=args.chains,
        elite_fraction=args.elite_fraction,
    )


def _estimators(args) -> list:
    """--estimator's comma-separated names, each one of ESTIMATORS; an
    empty item (cd,,pcd or cd,) is refused."""
    estimators = [part.strip() for part in str(args.estimator).split(",")]
    if not all(estimators):
        raise ValueError(f"--estimator takes comma-separated names, got "
                         f"{args.estimator!r}")
    for est in estimators:
        if est not in ESTIMATORS:
            raise ValueError(f"unknown estimator {est!r}")
    return estimators


def _visible_kind(args) -> str:
    return GAUSSIAN if args.data == "isolet" else BINARY


# ---------------------------------------------------------------- train-rbm

_TRAIN_ECHO = ("data", "subset", "hidden", "estimator", "discriminative", "k",
               "chains", "elite_fraction", "epochs", "batch", "lr", "momentum",
               "decay", "seed")


def cmd_train_rbm(args) -> int:
    hidden = _hidden_sizes(args.hidden)
    estimators = _estimators(args)
    if len(estimators) not in (1, len(hidden)):
        raise ValueError("need one estimator or one per hidden layer")
    hp = _hyperparams(args)
    echo = _config_echo(args, _TRAIN_ECHO)

    train = _load_train(args)
    if args.discriminative and train.labels is None:
        raise ValueError("--discriminative needs labeled data")
    model, metric_sets = pretrain_stack(
        [train.n_features] + hidden, train, hp, estimators, args.seed,
        _visible_kind(args), args.discriminative)
    if len(hidden) == 1:
        model = model.layers[0]

    save_model(f"{args.out}.model.json", model)
    for i, metrics in enumerate(metric_sets):
        layer = "" if len(metric_sets) == 1 else f".layer{i}"
        _write_csv(f"{args.out}{layer}.metrics.csv", echo, METRICS_FIELDS, (
            (str(r.epoch), f"{r.recon_error:.17g}", f"{r.mean_free_energy:.17g}",
             f"{r.seconds:.6f}", r.estimator, str(r.seed)) for r in metrics))
    print(f"wrote {args.out}.model.json")
    return 0


# ---------------------------------------------------------- compare-samplers

def _test_error(p: RbmParams, test: Dataset) -> float:
    pred, _ = classify_free_energy(p, test.features)
    return float(np.mean(pred != test.labels))


def cmd_compare_samplers(args) -> int:
    estimators = _estimators(args)
    if len(set(estimators)) != len(estimators):
        raise ValueError("--estimator names an estimator twice")
    hidden = _hidden_sizes(args.hidden)
    if len(hidden) != 1:
        raise ValueError("compare-samplers trains single discriminative RBMs")
    train, test = _load_train_test(args)
    if train.labels is None or test is None or test.labels is None:
        raise ValueError("compare-samplers needs labeled train and test data")
    # the label block spans the training data's classes (see
    # train_discriminative_rbm); a test class above them could never be
    # predicted
    n_classes, test_top = label_classes(train), int(test.labels.max())
    if test_top >= n_classes:
        raise ValueError(f"test labels include class {test_top}; the training "
                         f"data has classes 0..{n_classes - 1}")
    hp = _hyperparams(args)
    kind = _visible_kind(args)
    echo = _config_echo(args, _TRAIN_ECHO)

    rows = []
    for est in estimators:
        clock = 0.0

        def on_epoch(epoch, params, metric):
            nonlocal clock
            clock += metric.seconds
            rows.append((est, epoch, clock, _test_error(params, test)))

        train_discriminative_rbm(train, hidden[0], hp, est, args.seed, kind,
                                 epoch_callback=on_epoch)

    _write_csv(args.out, echo, ("estimator", "epoch", "seconds", "error"),
               ((est, str(epoch), f"{secs:.6f}", format(err, ".17g"))
                for est, epoch, secs, err in rows))
    print(f"wrote {args.out}")
    return 0


# ----------------------------------------------------------------- sample

def cmd_sample(args) -> int:
    if args.model is None:
        raise ValueError("--model is required")
    model = load_model(args.model)
    if not isinstance(model, RbmParams):
        raise ValueError("sampling works on single-RBM model files")
    n, steps = args.n, args.steps
    if n < 1 or steps < 0:
        raise ValueError("need n >= 1 and steps >= 0")

    init_rng = RngStream(args.seed, STREAM_SAMPLE)
    if model.visible_kind == BINARY:
        states = (init_rng.uniforms((n, model.n_visible)) < 0.5).astype(float)
    else:
        states = model.a + init_rng.normals((n, model.n_visible))
    pool = make_pool(states, n, args.seed)
    x = hidden_input(model, states)
    ph = sigmoid(x)
    if steps > 0:
        states, ph, x = gibbs_chain(model, states, steps, pool.noise(model), ph)
    # a last hidden sample from each chain's own stream, shown as visible means
    u_h = pool.noise(model)()[0]
    means = visible_probs(model, (u_h < ph).astype(float))

    fe = free_energy(model, states, x)
    echo = _config_echo(args, ("model", "n", "steps", "seed"))
    d = model.n_visible - model.label_units
    side = int(round(d ** 0.5))
    if model.visible_kind == BINARY and side * side == d:
        cols = int(np.ceil(np.sqrt(n)))
        rows = int(np.ceil(n / cols))
        grid = np.zeros((rows * side, cols * side))
        for c in range(n):
            r, q = divmod(c, cols)
            grid[r * side:(r + 1) * side, q * side:(q + 1) * side] = \
                means[c, :d].reshape(side, side)
        write_pgm(args.out, grid)
    else:
        _write_csv(args.out, echo, (f"v{i}" for i in range(means.shape[1])),
                   ((format(x, ".17g") for x in row) for row in means))

    fe_path = f"{args.out}.free_energy.csv"
    _write_csv(fe_path, echo, ("sample", "free_energy"),
               ((str(c), format(x, ".17g")) for c, x in enumerate(fe)))
    print(f"wrote {args.out} and {fe_path}")
    return 0


# ------------------------------------------------------------ oracle-check

def cmd_oracle_check(args) -> int:
    if args.trials == 0:
        print("warning: trials=0, nothing exercised", file=sys.stderr)
    results = run_oracle_checks(args.visible, args.hidden, args.trials,
                                args.seed)
    failed = False
    for res in results:
        print(repr(res))
        failed = failed or not res.ok
    return 1 if failed else 0


# ------------------------------------------------------------------ parser

def build_parser():
    """(rbmkit parser, {command name: that command's parser})."""
    parser = argparse.ArgumentParser(
        prog="rbmkit",
        description="RBM/DBN training toolkit with free-energy elite sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value file; flags win")
        p.add_argument("--seed", type=int, default=0)

    def add_data(p):
        p.add_argument("--data", choices=["mnist", "isolet", "csv"])
        p.add_argument("--images")
        p.add_argument("--labels")
        p.add_argument("--csv")
        p.add_argument("--subset", type=int)

    def add_test_data(p):
        p.add_argument("--test-images", dest="test_images")
        p.add_argument("--test-labels", dest="test_labels")
        p.add_argument("--test-csv", dest="test_csv")
        p.add_argument("--test-subset", dest="test_subset", type=int)

    def add_training(p, out):
        p.add_argument("--hidden", default="32")
        p.add_argument("--estimator", default="cd")
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--chains", type=int)
        p.add_argument("--elite-fraction", dest="elite_fraction", type=float,
                       default=0.5)
        p.add_argument("--epochs", type=int, default=10)
        p.add_argument("--batch", type=int, default=20)
        p.add_argument("--lr", type=float, default=0.05)
        p.add_argument("--momentum", type=float, default=0.0)
        p.add_argument("--decay", type=float, default=0.0)
        p.add_argument("--out", default=out)

    p_train = sub.add_parser("train-rbm", help="train an RBM or DBN stack")
    add_common(p_train)
    add_data(p_train)
    add_training(p_train, "run")
    p_train.add_argument("--discriminative", action="store_true",
                         help="append one-hot labels to the visible layer")
    p_train.set_defaults(func=cmd_train_rbm)

    p_cmp = sub.add_parser("compare-samplers",
                           help="train one discriminative RBM per estimator")
    add_common(p_cmp)
    add_data(p_cmp)
    add_test_data(p_cmp)
    add_training(p_cmp, "compare.csv")
    p_cmp.set_defaults(func=cmd_compare_samplers, discriminative=True,
                       estimator=",".join(ESTIMATORS))

    p_sample = sub.add_parser("sample", help="draw Gibbs samples from a model")
    add_common(p_sample)
    p_sample.add_argument("--model")
    p_sample.add_argument("--n", type=int, default=16)
    p_sample.add_argument("--steps", type=int, default=100)
    p_sample.add_argument("--out", default="samples.pgm")
    p_sample.set_defaults(func=cmd_sample)

    p_check = sub.add_parser("oracle-check",
                             help="run the exact-enumeration identity suite")
    add_common(p_check)
    p_check.add_argument("--visible", type=int, default=3)
    p_check.add_argument("--hidden", type=int, default=3)
    p_check.add_argument("--trials", type=int, default=25)
    p_check.set_defaults(func=cmd_oracle_check)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(commands[args.command], args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except (DataFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
