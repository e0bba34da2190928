"""Command-line surface: train, compare estimators, sample, self-check.

Every command is reproducible from its configuration plus seed; the
configuration is echoed into CSV output headers. Flags can also come from
a flat key=value file via --config, with explicit flags winning. Commands
never leave partial artifacts: outputs are written to a temp file and
renamed into place after the work succeeds.
"""

from __future__ import annotations

import argparse
import io
import sys

import numpy as np

from . import dbn as dbn_mod
from .core import RngStream
from .dataio import (Dataset, atomic_write_text, load_isolet_csv,
                     load_mnist_idx, load_model, minmax_normalize, save_model,
                     write_pgm)
from .dbn import (DbnModel, classify_free_energy, pretrain_stack,
                  train_discriminative_rbm)
from .errors import DataFormatError, TrainingDivergedError
from .model import (BINARY, GAUSSIAN, Hyperparams, RbmParams, free_energy,
                    hidden_probs, init_params, visible_probs)
from .oracle import CheckResult, run_oracle_checks
from .samplers import gibbs_chain, make_pool
from .trainer import (ESTIMATORS, STREAM_INIT, STREAM_SAMPLE,
                      STREAM_SUBSET, metrics_csv_text, train_rbm)

__all__ = ["main", "run_oracle_checks", "CheckResult"]


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


# casters for config keys whose built-in default is None
_NONE_DEFAULT_CASTERS = {"subset": int, "test_subset": int, "chains": int}


def _merge_config(args: argparse.Namespace, defaults: dict) -> argparse.Namespace:
    """Resolution order: explicit flag > config file entry > default."""
    config = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key, default in defaults.items():
        if getattr(args, key, None) is not None:
            continue
        if key in config:
            if isinstance(default, bool):
                setattr(args, key, config[key].lower() in ("1", "true", "yes"))
            else:
                caster = (type(default) if default is not None
                          else _NONE_DEFAULT_CASTERS.get(key, str))
                setattr(args, key, caster(config[key]))
        else:
            setattr(args, key, default)
    return args


def _config_echo(args, keys) -> str:
    return " ".join(f"{k}={getattr(args, k)}" for k in keys
                    if getattr(args, k, None) is not None)


def _int_list(text: str) -> list:
    return [int(part) for part in str(text).split(",") if part != ""]


def _str_list(text: str) -> list:
    return [part.strip() for part in str(text).split(",") if part.strip()]


# ---------------------------------------------------------------- datasets

def _subset(ds: Dataset, n, seed: int) -> Dataset:
    """First n samples after a seeded shuffle (stable desk-scale subsets)."""
    if n is None or n >= ds.n_samples:
        return ds
    order = RngStream(seed, STREAM_SUBSET).permutation(ds.n_samples)[:int(n)]
    labels = ds.labels[order] if ds.labels is not None else None
    return Dataset(ds.features[order], labels)


def _load_raw(kind: str, images, labels, csv_path) -> Dataset:
    if kind == "mnist":
        if not images or not labels:
            raise DataFormatError("mnist input needs --images and --labels paths")
        return load_mnist_idx(images, labels)
    if kind == "isolet":
        if not csv_path:
            raise DataFormatError("isolet input needs a --csv path")
        return load_isolet_csv(csv_path)
    if kind == "csv":
        if not csv_path:
            raise DataFormatError("csv input needs a --csv path")
        try:
            feats = np.loadtxt(csv_path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DataFormatError(f"{csv_path}: {exc}") from None
        return Dataset(feats)
    raise DataFormatError(f"unknown data kind {kind!r}")


def _load_train_test(args):
    """Train (and optional test) datasets, subset then min-max normalized
    with the training statistics applied to the test side."""
    train = _subset(_load_raw(args.data, args.images, args.labels, args.csv),
                    args.subset, args.seed)
    train = minmax_normalize(train)
    test = None
    if args.test_images or args.test_csv:
        test = _subset(_load_raw(args.data, args.test_images, args.test_labels,
                                 args.test_csv), args.test_subset, args.seed)
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


def _visible_kind(args) -> str:
    return GAUSSIAN if args.data == "isolet" else BINARY


# ---------------------------------------------------------------- train-rbm

_TRAIN_DEFAULTS = dict(
    data=None, images=None, labels=None, csv=None, subset=None,
    test_images=None, test_labels=None, test_csv=None, test_subset=None,
    hidden="32", estimator="cd", discriminative=False,
    k=1, chains=None, elite_fraction=0.5, epochs=10, batch=20,
    lr=0.05, momentum=0.0, decay=0.0, seed=0, out="run",
)

_TRAIN_ECHO = ("data", "subset", "hidden", "estimator", "discriminative", "k",
               "chains", "elite_fraction", "epochs", "batch", "lr", "momentum",
               "decay", "seed")


def cmd_train_rbm(args) -> int:
    _merge_config(args, _TRAIN_DEFAULTS)
    if args.data is None:
        print("error: --data is required", file=sys.stderr)
        return 2
    hidden = _int_list(args.hidden)
    estimators = _str_list(args.estimator)
    if len(estimators) == 1:
        estimators = estimators * len(hidden)
    if len(estimators) != len(hidden):
        print("error: need one estimator or one per hidden layer", file=sys.stderr)
        return 2
    for est in estimators:
        if est not in ESTIMATORS:
            print(f"error: unknown estimator {est!r}", file=sys.stderr)
            return 2
    hp = _hyperparams(args)
    echo = _config_echo(args, _TRAIN_ECHO)

    train, _ = _load_train_test(args)
    kind = _visible_kind(args)

    if args.discriminative:
        if train.labels is None:
            print("error: --discriminative needs labeled data", file=sys.stderr)
            return 2
        if len(hidden) == 1:
            model, metrics = train_discriminative_rbm(
                train, hidden[0], hp, estimators[0], args.seed, kind)
            metric_sets = [metrics]
        else:
            sizes = [train.n_features] + hidden[:-1]
            stack, lower_metrics = pretrain_stack(
                sizes, train, hp, estimators[:-1], args.seed)
            feats_up = dbn_mod.propagate_up(stack, train.features,
                                            stack.n_layers - 1)
            top, top_metrics = train_discriminative_rbm(
                Dataset(feats_up, train.labels), hidden[-1], hp,
                estimators[-1], args.seed + len(hidden) - 1, BINARY)
            model = DbnModel(stack.layers + [top],
                             top_label_units=top.label_units)
            metric_sets = lower_metrics + [top_metrics]
    else:
        if len(hidden) == 1:
            init = init_params(train.n_features, hidden[0],
                               RngStream(args.seed, STREAM_INIT), kind)
            model, metrics = train_rbm(init, train, hp, estimators[0],
                                       args.seed)
            metric_sets = [metrics]
        else:
            sizes = [train.n_features] + hidden
            model, metric_sets = pretrain_stack(sizes, train, hp, estimators,
                                                args.seed)

    save_model(f"{args.out}.model.json", model)
    if len(metric_sets) == 1:
        atomic_write_text(f"{args.out}.metrics.csv",
                          metrics_csv_text(metric_sets[0], echo))
    else:
        for i, metrics in enumerate(metric_sets):
            atomic_write_text(f"{args.out}.layer{i}.metrics.csv",
                              metrics_csv_text(metrics, echo))
    print(f"wrote {args.out}.model.json")
    return 0


# ---------------------------------------------------------- compare-samplers

def _test_error(p: RbmParams, test: Dataset) -> float:
    pred, _ = classify_free_energy(p, test.features)
    return float(np.mean(pred != test.labels))


def cmd_compare_samplers(args) -> int:
    _merge_config(args, dict(_TRAIN_DEFAULTS, out="compare.csv"))
    if args.data is None:
        print("error: --data is required", file=sys.stderr)
        return 2
    train, test = _load_train_test(args)
    if train.labels is None or test is None or test.labels is None:
        print("error: compare-samplers needs labeled train and test data",
              file=sys.stderr)
        return 2
    hidden = _int_list(args.hidden)
    if len(hidden) != 1:
        print("error: compare-samplers trains single discriminative RBMs",
              file=sys.stderr)
        return 2
    hp = _hyperparams(args)
    kind = _visible_kind(args)
    echo = _config_echo(args, tuple(k for k in _TRAIN_ECHO if k != "estimator"))

    rows = []
    for est in ESTIMATORS:
        clock = 0.0

        def on_epoch(epoch, params, metric):
            nonlocal clock
            clock += metric.seconds
            rows.append((est, epoch, clock, _test_error(params, test)))

        train_discriminative_rbm(train, hidden[0], hp, est, args.seed, kind,
                                 epoch_callback=on_epoch)

    buf = io.StringIO()
    buf.write(f"# config: {echo}\n")
    buf.write("estimator,epoch,seconds,error\n")
    for est, epoch, secs, err in rows:
        buf.write(f"{est},{epoch},{secs:.6f},{format(err, '.17g')}\n")
    atomic_write_text(args.out, buf.getvalue())
    print(f"wrote {args.out}")
    return 0


# ----------------------------------------------------------------- sample

_SAMPLE_DEFAULTS = dict(model=None, n=16, steps=100, seed=0, out="samples.pgm")


def cmd_sample(args) -> int:
    _merge_config(args, _SAMPLE_DEFAULTS)
    if args.model is None:
        print("error: --model is required", file=sys.stderr)
        return 2
    model = load_model(args.model)
    if not isinstance(model, RbmParams):
        print("error: sampling works on single-RBM model files", file=sys.stderr)
        return 2
    n, steps = int(args.n), int(args.steps)
    if n < 1 or steps < 0:
        print("error: need n >= 1 and steps >= 0", file=sys.stderr)
        return 2

    init_rng = RngStream(args.seed, STREAM_SAMPLE)
    if model.visible_kind == BINARY:
        states = (init_rng.uniforms((n, model.n_visible)) < 0.5).astype(float)
    else:
        states = model.a + init_rng.normals((n, model.n_visible))
    pool = make_pool(states, n, args.seed)
    if steps > 0:
        states, _ = gibbs_chain(model, pool.states, steps, pool.noise(model))
    # a last hidden sample from each chain's own stream, shown as visible means
    u_h = np.stack([s.uniforms(model.n_hidden) for s in pool.streams])
    means = visible_probs(model, (u_h < hidden_probs(model, states)).astype(float))

    fe = free_energy(model, states)
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
        buf = io.StringIO()
        buf.write(f"# config: {echo}\n")
        buf.write(",".join(f"v{i}" for i in range(means.shape[1])) + "\n")
        for c in range(n):
            buf.write(",".join(format(x, ".17g") for x in means[c]) + "\n")
        atomic_write_text(args.out, buf.getvalue())

    fe_path = f"{args.out}.free_energy.csv"
    buf = io.StringIO()
    buf.write(f"# config: {echo}\n")
    buf.write("sample,free_energy\n")
    for c in range(n):
        buf.write(f"{c},{format(float(fe[c]), '.17g')}\n")
    atomic_write_text(fe_path, buf.getvalue())
    print(f"wrote {args.out} and {fe_path}")
    return 0


# ------------------------------------------------------------ oracle-check

_ORACLE_DEFAULTS = dict(visible=3, hidden=3, trials=25, seed=0)


def cmd_oracle_check(args) -> int:
    _merge_config(args, _ORACLE_DEFAULTS)
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbmkit",
        description="RBM/DBN training toolkit with free-energy elite sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value file; flags win")
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int,
                       help="ignored; accepted so older command lines still run")

    def add_data(p):
        p.add_argument("--data", choices=["mnist", "isolet", "csv"])
        p.add_argument("--images")
        p.add_argument("--labels")
        p.add_argument("--csv")
        p.add_argument("--subset", type=int)
        p.add_argument("--test-images", dest="test_images")
        p.add_argument("--test-labels", dest="test_labels")
        p.add_argument("--test-csv", dest="test_csv")
        p.add_argument("--test-subset", dest="test_subset", type=int)

    def add_training(p):
        p.add_argument("--hidden")
        p.add_argument("--estimator")
        p.add_argument("--k", type=int)
        p.add_argument("--chains", type=int)
        p.add_argument("--elite-fraction", dest="elite_fraction", type=float)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--momentum", type=float)
        p.add_argument("--decay", type=float)
        p.add_argument("--out")

    p_train = sub.add_parser("train-rbm", help="train an RBM or DBN stack")
    add_common(p_train)
    add_data(p_train)
    add_training(p_train)
    p_train.add_argument("--discriminative", action="store_const", const=True,
                         help="append one-hot labels to the visible layer")
    p_train.set_defaults(func=cmd_train_rbm)

    p_cmp = sub.add_parser("compare-samplers",
                           help="train one discriminative RBM per estimator")
    add_common(p_cmp)
    add_data(p_cmp)
    add_training(p_cmp)
    p_cmp.set_defaults(func=cmd_compare_samplers, discriminative=True)

    p_sample = sub.add_parser("sample", help="draw Gibbs samples from a model")
    add_common(p_sample)
    p_sample.add_argument("--model")
    p_sample.add_argument("--n", type=int)
    p_sample.add_argument("--steps", type=int)
    p_sample.add_argument("--out")
    p_sample.set_defaults(func=cmd_sample)

    p_check = sub.add_parser("oracle-check",
                             help="run the exact-enumeration identity suite")
    add_common(p_check)
    p_check.add_argument("--visible", type=int)
    p_check.add_argument("--hidden", type=int)
    p_check.add_argument("--trials", type=int)
    p_check.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
