"""Minibatch training loop for a single RBM with a pluggable estimator.

Every source of randomness is pinned to a dedicated stream id under the
run's seed, so a run is a pure function of (init, data, hyperparams,
estimator, seed) and is reproducible bit-for-bit. Wall-clock seconds are
the single exception and are excluded from reproducibility comparisons.

Stream layout under one seed, one consumer each:
    0 weight init | 1 epoch shuffling | 2 estimator data-side sampling
    3 metric probe rows and draws | 4 subset selection
    5 ad-hoc sampling CLI | 6 unrolled net's output layer
    7 fine-tuning shuffle | 8 fine-tuning loss probe rows
    100+c persistent chain c | 1000+t oracle-check trial t
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import RngStream, sigmoid
from .errors import TrainingDivergedError
from .model import (Hyperparams, RbmParams, UpdateState, apply_update,
                    batch_stats, free_energy, hidden_input, hidden_probs,
                    visible_probs)
from .samplers import cd_k, fepcd_step, make_pool, pcd_step

STREAM_INIT = 0
STREAM_SHUFFLE = 1
STREAM_DATA = 2
STREAM_EVAL = 3
STREAM_SUBSET = 4
STREAM_SAMPLE = 5
STREAM_OUTPUT_INIT = 6
STREAM_FINE_TUNE = 7
STREAM_FINE_TUNE_EVAL = 8

CD = "cd"
PCD = "pcd"
FEPCD = "fepcd"
ESTIMATORS = (CD, PCD, FEPCD)

METRICS_FIELDS = ("epoch", "recon_error", "mean_free_energy", "seconds",
                  "estimator", "seed")

# Most rows each epoch's metrics (train_rbm) or loss (dbn.fine_tune) are
# taken on: a probe chosen once per run by probe_rows, or all the data when
# it has no more rows. At 2000 rows this costs about a quarter of scoring
# every row.
EVAL_ROWS = 500

__all__ = [
    "CD", "PCD", "FEPCD", "ESTIMATORS",
    "STREAM_INIT", "STREAM_SHUFFLE", "STREAM_DATA", "STREAM_EVAL",
    "STREAM_SUBSET", "STREAM_SAMPLE", "STREAM_OUTPUT_INIT", "STREAM_FINE_TUNE",
    "STREAM_FINE_TUNE_EVAL", "EVAL_ROWS", "METRICS_FIELDS", "EpochMetrics",
    "features_of", "probe_rows", "reconstruction_error", "train_rbm",
]


@dataclass
class EpochMetrics:
    epoch: int
    recon_error: float
    mean_free_energy: float
    seconds: float
    estimator: str
    seed: int


def features_of(data) -> np.ndarray:
    """data's feature rows (a Dataset's features, or data itself) as a 2-D
    float64 array; a dataset with no rows raises ValueError."""
    feats = getattr(data, "features", data)
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    if feats.shape[0] == 0:
        raise ValueError("empty dataset")
    return feats


def probe_rows(m: int, rng: RngStream):
    """Index of the evaluation probe over m rows: every row (slice(None),
    nothing drawn) when m <= EVAL_ROWS, else the sorted first EVAL_ROWS
    entries of rng.permutation(m)."""
    if m <= EVAL_ROWS:
        return slice(None)
    return np.sort(rng.permutation(m)[:EVAL_ROWS])


def reconstruction_error(p: RbmParams, batch: np.ndarray, rng: RngStream,
                         h_input=None) -> float:
    """Mean squared gap between a batch and its one-step reconstruction
    means, the hidden layer sampled once from rng.

    h_input, when given, must be hidden_input(p, batch); it is reused, and
    not written, so a caller can hand the same array to free_energy.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[0] == 0:
        raise ValueError("empty batch")
    q = hidden_probs(p, batch) if h_input is None else sigmoid(h_input)
    h = (rng.uniforms(q.shape) < q).astype(np.float64)
    gap = batch - visible_probs(p, h)
    np.square(gap, out=gap)
    return float(np.mean(gap))


def train_rbm(init: RbmParams, data, hp: Hyperparams, estimator: str, seed: int,
              epoch_callback=None):
    """Train one RBM; returns (trained params, per-epoch metrics).

    estimator is one of "cd", "pcd", "fepcd". The persistent estimators
    keep one chain pool alive across the whole run, initialized from the
    first minibatch. Each epoch is a plain minibatch loop (positive phase,
    negative phase, update). After its last update the epoch is evaluated
    once, on the probe_rows drawn once per run from STREAM_EVAL: the
    reconstruction_error and the mean free_energy of the probe, under the
    epoch-end parameters, with its hidden samples drawn from that stream.
    The evaluation never feeds back into training, and the epoch's seconds
    include it.
    epoch_callback(epoch, params, metrics_row), when given, runs after
    each evaluation, off the training clock; params is a snapshot of the
    epoch-end parameters, which later updates do not write.

    init is copied once, and every update steps that private copy in
    place (apply_update), so init is never written; the copy is what is
    returned.
    """
    hp.validate()
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    feats = features_of(data)
    m = feats.shape[0]
    n_chains = hp.batch_size if hp.n_chains is None else hp.n_chains

    shuffle_rng = RngStream(seed, STREAM_SHUFFLE)
    data_rng = RngStream(seed, STREAM_DATA)
    eval_rng = RngStream(seed, STREAM_EVAL)
    probe = feats[probe_rows(m, eval_rng)]

    p = init.copy()
    vel = UpdateState.zeros_like(p)
    pool = None
    metrics: list[EpochMetrics] = []

    for epoch in range(1, hp.epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(m)
        for start in range(0, m, hp.batch_size):
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
                apply_update(p, pos, neg, hp, vel)
            except ValueError as exc:
                raise TrainingDivergedError(
                    f"non-finite parameters at epoch {epoch}, "
                    f"batch offset {start} ({estimator}, seed {seed})") from exc
        x = hidden_input(p, probe)
        recon = reconstruction_error(p, probe, eval_rng, x)
        mean_fe = float(np.mean(free_energy(p, probe, x)))
        metrics.append(EpochMetrics(epoch, recon, mean_fe,
                                    time.perf_counter() - t0, estimator, seed))
        if epoch_callback is not None:
            epoch_callback(epoch, p.copy(), metrics[-1])
    return p, metrics
