"""Minibatch training loop for a single RBM with a pluggable estimator.

Every source of randomness is pinned to a dedicated stream id under the
run's seed, so a run is a pure function of (init, data, hyperparams,
estimator, seed) and is reproducible bit-for-bit. Wall-clock seconds are
the single exception and are excluded from reproducibility comparisons.

Stream layout under one seed:
    0 weight init | 1 epoch shuffling | 2 estimator data-side sampling
    3 metric probes | 4 subset selection | 5 ad-hoc sampling CLI
    100+c persistent chain c | 1000+t oracle-check trial t
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from .core import RngStream, log1p_exp, sigmoid
from .errors import TrainingDivergedError
from .model import (BINARY, Hyperparams, RbmParams, UpdateState, apply_update,
                    batch_stats, hidden_probs)
from .samplers import cd_k, fepcd_step, make_pool, pcd_step

STREAM_INIT = 0
STREAM_SHUFFLE = 1
STREAM_DATA = 2
STREAM_EVAL = 3
STREAM_SUBSET = 4
STREAM_SAMPLE = 5

CD = "cd"
PCD = "pcd"
FEPCD = "fepcd"
ESTIMATORS = (CD, PCD, FEPCD)

METRICS_FIELDS = ("epoch", "recon_error", "mean_free_energy", "seconds",
                  "estimator", "seed")

# Bytes of stacked weights, rows and hidden inputs that one group of
# minibatches may hold while train_rbm computes their metrics as stacked
# models (see _group_bytes). Whole-epoch pcd training time at batch 20,
# against metrics taken one minibatch at a time (one process, 30-60
# alternated runs, one BLAS thread, 2-vCPU Xeon): at 12x8 groups of one
# ran 1.08x, 16 KiB 0.92x, 128 KiB 0.85x, 512 KiB 0.85x; at 30x20 1.07x
# alone and 0.92x at 128 KiB; at 64x32 1.06x alone, 0.96x at 128 KiB
# (groups of 4) and 1.04-1.07x at 256 KiB; at 128x64, where a minibatch
# is 94 KiB, 1.02-1.05x alone, 1.00-1.08x in pairs, 1.26x in groups of
# 10. 128 KiB is at or near the best at every shape; at 794-64 it keeps a
# group to one minibatch.
METRICS_GROUP_BYTES = 2 ** 17

__all__ = [
    "CD", "PCD", "FEPCD", "ESTIMATORS",
    "STREAM_INIT", "STREAM_SHUFFLE", "STREAM_DATA", "STREAM_EVAL",
    "STREAM_SUBSET", "STREAM_SAMPLE", "METRICS_GROUP_BYTES",
    "EpochMetrics", "reconstruction_error", "train_rbm",
    "metrics_csv_text", "read_metrics_csv",
]


@dataclass
class EpochMetrics:
    epoch: int
    recon_error: float
    mean_free_energy: float
    seconds: float
    estimator: str
    seed: int


def _features_of(data) -> np.ndarray:
    feats = getattr(data, "features", data)
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    if feats.shape[0] == 0:
        raise ValueError("empty dataset")
    return feats


def _stacked(arrays) -> np.ndarray:
    """arrays stacked along a new first axis; a lone array as a view."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _group_metrics(trained, rng):
    """(reconstruction errors, free-energy sums), one entry per (params,
    batch) pair of a group of same-shape minibatches, as stacked models.

    The hidden samples take one rng draw for the group, which Philox fills
    with the same doubles as one draw per batch in order. matmul runs one
    BLAS call per model and each batch's terms are summed as one row, so
    every entry has the bits of reconstruction_error(params, batch, rng)
    and free_energy(params, batch).sum() taken one pair at a time.
    """
    params = [p for p, _ in trained]
    w, a, b = (_stacked([getattr(p, name) for p in params]) for name in "wab")
    v = _stacked([batch for _, batch in trained])
    x = v @ w
    x += b[:, None, :]
    q = sigmoid(x)
    h = (rng.uniforms(q.shape) < q).astype(np.float64)
    mean = h @ w.transpose(0, 2, 1)
    mean += a[:, None, :]
    binary = params[0].visible_kind == BINARY
    if binary:
        mean = sigmoid(mean)
    gap = v - mean
    np.square(gap, out=gap)
    # np.mean's bits: the same sum, truly divided by the count
    recon = gap.reshape(len(gap), -1).sum(axis=1) / gap[0].size
    # model.free_energy's closed form
    if binary:
        visible_term = -(v @ a[:, :, None])[..., 0]
    else:
        visible_term = 0.5 * ((v - a[:, None, :]) ** 2).sum(axis=-1)
    return recon, (visible_term - log1p_exp(x).sum(axis=-1)).sum(axis=1)


def reconstruction_error(p: RbmParams, batch: np.ndarray, rng: RngStream) -> float:
    """Mean squared gap between a batch and its one-step reconstruction
    means: the one-batch case of train_rbm's metrics."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[0] == 0:
        raise ValueError("empty batch")
    return float(_group_metrics([(p, batch)], rng)[0][0])


def _group_bytes(n_visible: int, n_hidden: int, rows: int) -> int:
    """Bytes one minibatch of rows adds to a metrics group: its model's
    weights, and its visible rows and hidden inputs, as float64."""
    return 8 * (n_visible * n_hidden + rows * (n_visible + n_hidden))


def _metric_groups(m: int, batch_size: int, group_size: int) -> list:
    """An epoch's batch offsets over m rows, in groups of at most
    group_size full minibatches; a ragged last one is a group alone."""
    full = range(0, m - m % batch_size, batch_size)
    groups = [full[i:i + group_size] for i in range(0, len(full), group_size)]
    return groups + [[len(full) * batch_size]] if m % batch_size else groups


def train_rbm(init: RbmParams, data, hp: Hyperparams, estimator: str, seed: int,
              epoch_callback=None):
    """Train one RBM; returns (trained params, per-epoch metrics).

    estimator is one of "cd", "pcd", "fepcd". The persistent estimators
    keep one chain pool alive across the whole run, initialized from the
    first minibatch. Per-epoch metrics (mean reconstruction error and mean
    data free energy) are taken on each minibatch's post-update
    parameters. They are computed per group of consecutive same-shape
    minibatches, as stacked models, once the group's updates are done;
    a group holds as many minibatches as METRICS_GROUP_BYTES allows (see
    _group_bytes), at least one. The values are those of the one-batch
    reconstruction_error and free_energy taken after each update, and the
    epoch's seconds include them. epoch_callback(epoch, params,
    metrics_row), when given, runs after each epoch off the training clock.
    """
    hp.validate()
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    feats = _features_of(data)
    m = feats.shape[0]
    n_chains = hp.batch_size if hp.n_chains is None else hp.n_chains
    group_size = max(1, METRICS_GROUP_BYTES // _group_bytes(
        init.n_visible, init.n_hidden, min(hp.batch_size, m)))
    groups = _metric_groups(m, hp.batch_size, group_size)

    shuffle_rng = RngStream(seed, STREAM_SHUFFLE)
    data_rng = RngStream(seed, STREAM_DATA)
    eval_rng = RngStream(seed, STREAM_EVAL)

    p = init
    vel = UpdateState.zeros_like(init)
    pool = None
    metrics: list[EpochMetrics] = []

    for epoch in range(1, hp.epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(m)
        recon_sum = 0.0
        fe_sum = 0.0
        for offsets in groups:
            trained = []
            for start in offsets:
                batch = feats[order[start:start + hp.batch_size]]
                if estimator == CD:
                    pos, neg = cd_k(p, batch, hp.k, data_rng)
                else:
                    pos = batch_stats(batch, hidden_probs(p, batch))
                    if pool is None:
                        pool = make_pool(batch, n_chains, seed)
                    if estimator == PCD:
                        neg, pool = pcd_step(p, pool, hp.k)
                    else:
                        neg, pool = fepcd_step(p, pool, hp.k, hp.elite_fraction)
                try:
                    p = apply_update(p, pos, neg, hp, vel)
                except ValueError as exc:
                    raise TrainingDivergedError(
                        f"non-finite parameters at epoch {epoch}, "
                        f"batch offset {start} ({estimator}, seed {seed})") from exc
                # apply_update returns fresh arrays, so a reference will do
                trained.append((p, batch))
            recon, fe = _group_metrics(trained, eval_rng)
            for (_, rows), r, f in zip(trained, recon.tolist(), fe.tolist()):
                recon_sum += r * rows.shape[0]
                fe_sum += f
        metrics.append(EpochMetrics(epoch, recon_sum / m, fe_sum / m,
                                    time.perf_counter() - t0, estimator, seed))
        if epoch_callback is not None:
            epoch_callback(epoch, p, metrics[-1])
    return p, metrics


def metrics_csv_text(metrics, config_line: str | None = None) -> str:
    """Metrics CSV body with the mandatory header row.

    An optional '# config: ...' comment line above the header echoes the
    producing configuration for reproducibility.
    """
    buf = io.StringIO()
    if config_line:
        buf.write(f"# config: {config_line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRICS_FIELDS)
    for row in metrics:
        writer.writerow([
            row.epoch,
            format(row.recon_error, ".17g"),
            format(row.mean_free_energy, ".17g"),
            format(row.seconds, ".6f"),
            row.estimator,
            row.seed,
        ])
    return buf.getvalue()


def read_metrics_csv(path) -> list[EpochMetrics]:
    rows = []
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    for rec in reader:
        rows.append(EpochMetrics(
            epoch=int(rec["epoch"]),
            recon_error=float(rec["recon_error"]),
            mean_free_energy=float(rec["mean_free_energy"]),
            seconds=float(rec["seconds"]),
            estimator=rec["estimator"],
            seed=int(rec["seed"]),
        ))
    return rows
