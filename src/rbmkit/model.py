"""RBM parameters and every closed-form quantity defined on them.

An RBM with visible vector v (length n_visible) and binary hidden vector h
(length n_hidden) assigns the energy

    binary visibles:    E(v, h) = -v.W.h - a.v - b.h
    gaussian visibles:  E(v, h) = sum_i (v_i - a_i)^2 / 2 - v.W.h - b.h

with unit Gaussian variance fixed at 1 (inputs are expected in [0, 1]).
The free energy F(v) = -log sum_h exp(-E(v, h)) collapses to

    binary:    F(v) = -a.v - sum_j log(1 + exp(I_j))
    gaussian:  F(v) = sum_i (v_i - a_i)^2 / 2 - sum_j log(1 + exp(I_j))

where I_j = b_j + sum_i v_i W_ij is the total input to hidden unit j.

Vector-valued operations accept a single vector (1-D) or a batch of rows
(2-D) and return matching shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import log1p_exp, sigmoid

BINARY = "binary"
GAUSSIAN = "gaussian"

_VISIBLE_KINDS = (BINARY, GAUSSIAN)

# standard deviation of init_params's weights
INIT_WEIGHT_SCALE = 0.01


@dataclass
class RbmParams:
    """Weights and biases of one RBM.

    w is n_visible x n_hidden (w[i, j] couples visible i to hidden j),
    a the visible biases, b the hidden biases. label_units > 0 marks the
    trailing label_units visible units as a one-hot label block of a
    discriminative RBM; it is 0 for plain generative models.
    """

    w: np.ndarray
    a: np.ndarray
    b: np.ndarray
    visible_kind: str = BINARY
    label_units: int = 0

    def __post_init__(self):
        self.w = np.ascontiguousarray(self.w, dtype=np.float64)
        self.a = np.ascontiguousarray(self.a, dtype=np.float64)
        self.b = np.ascontiguousarray(self.b, dtype=np.float64)
        if self.w.ndim != 2 or self.a.ndim != 1 or self.b.ndim != 1:
            raise ValueError("w must be a matrix, a and b vectors")
        if self.w.shape != (self.a.size, self.b.size):
            raise ValueError(
                f"shape mismatch: w {self.w.shape}, a {self.a.size}, b {self.b.size}"
            )
        if self.a.size < 1 or self.b.size < 1:
            raise ValueError(f"an RBM needs at least one visible and one hidden "
                             f"unit, got {self.a.size} and {self.b.size}")
        if self.visible_kind not in _VISIBLE_KINDS:
            raise ValueError(f"unknown visible_kind {self.visible_kind!r}")
        if not (0 <= self.label_units <= self.a.size):
            raise ValueError("label_units out of range")
        _check_finite(self.w, self.a, self.b)

    @property
    def n_visible(self) -> int:
        return self.a.size

    @property
    def n_hidden(self) -> int:
        return self.b.size

    def copy(self) -> "RbmParams":
        return RbmParams(self.w.copy(), self.a.copy(), self.b.copy(),
                         self.visible_kind, self.label_units)


def _check_finite(*arrays):
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise ValueError("non-finite parameter entries")


@dataclass
class GradientStats:
    """Sufficient statistics of one gradient phase, already averaged.

    vh[i, j] is the mean of v_i * h_j over the contributing samples, v and
    h the mean unit activities, count how many samples contributed.
    """

    vh: np.ndarray
    v: np.ndarray
    h: np.ndarray
    count: int


@dataclass
class Hyperparams:
    """Training knobs. Momentum and weight decay default off; the elite
    fraction only matters to the free-energy-selective estimator."""

    epsilon: float = 0.05
    momentum: float = 0.0
    weight_decay: float = 0.0
    batch_size: int = 20
    epochs: int = 10
    k: int = 1
    n_chains: int | None = None
    elite_fraction: float = 0.5

    def validate(self):
        for name, option in (("epsilon", "--lr"), ("momentum", "--momentum"),
                             ("weight_decay", "--decay")):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} ({option}) must be finite, got {value}")
        if self.epsilon < 0:
            raise ValueError("learning rate must be >= 0")
        if self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("momentum and weight_decay must be >= 0")
        if self.batch_size < 1 or self.k < 1 or self.epochs < 0:
            raise ValueError("batch_size and k must be >= 1, epochs >= 0")
        if not (0.0 < self.elite_fraction <= 1.0):
            raise ValueError("elite_fraction must be in (0, 1]")
        n_chains = self.batch_size if self.n_chains is None else self.n_chains
        if n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if int(np.ceil(self.elite_fraction * n_chains)) < 1:
            raise ValueError("elite_fraction * n_chains rounds to zero chains")


@dataclass
class UpdateState:
    """Momentum velocities carried between parameter updates.

    apply_update writes the new velocities into these arrays in place, so
    they must be float64 arrays owned by this state.
    """

    vel_w: np.ndarray
    vel_a: np.ndarray
    vel_b: np.ndarray

    @classmethod
    def zeros_like(cls, p: RbmParams) -> "UpdateState":
        return cls(np.zeros_like(p.w), np.zeros_like(p.a), np.zeros_like(p.b))


def init_params(n_visible: int, n_hidden: int, rng, visible_kind: str = BINARY,
                label_units: int = 0) -> RbmParams:
    """Fresh parameters: weights Normal(0, INIT_WEIGHT_SCALE^2), biases zero."""
    w = INIT_WEIGHT_SCALE * rng.normals((n_visible, n_hidden))
    return RbmParams(w, np.zeros(n_visible), np.zeros(n_hidden),
                     visible_kind, label_units)


def _check_visible(p: RbmParams, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != p.n_visible:
        raise ValueError(f"visible length {v.shape[-1]} != {p.n_visible}")
    return v


def _check_hidden(p: RbmParams, h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] != p.n_hidden:
        raise ValueError(f"hidden length {h.shape[-1]} != {p.n_hidden}")
    return h


def energy(p: RbmParams, v, h) -> float:
    """Joint energy of one configuration (v, h)."""
    v = _check_visible(p, v)
    h = _check_hidden(p, h)
    interaction = v @ p.w @ h
    if p.visible_kind == BINARY:
        return float(-interaction - p.a @ v - p.b @ h)
    return float(0.5 * np.sum((v - p.a) ** 2) - interaction - p.b @ h)


def hidden_input(p: RbmParams, v) -> np.ndarray:
    """Total input I_j = b_j + sum_i v_i W_ij to each hidden unit."""
    v = _check_visible(p, v)
    x = v @ p.w
    x += p.b
    return x


def hidden_probs(p: RbmParams, v) -> np.ndarray:
    """P(h_j = 1 | v), elementwise over a vector or batch of rows."""
    x = hidden_input(p, v)
    return sigmoid(x, out=x)


def visible_probs(p: RbmParams, h) -> np.ndarray:
    """Conditional visible activations given h.

    Binary: P(v_i = 1 | h). Gaussian: the conditional mean a_i + (W h)_i;
    sampling adds unit-variance noise downstream.
    """
    h = _check_hidden(p, h)
    mean = h @ p.w.T
    mean += p.a
    if p.visible_kind == BINARY:
        return sigmoid(mean, out=mean)
    return mean


def free_energy(p: RbmParams, v, h_input=None):
    """F(v) = -log sum_h exp(-E(v, h)), in closed form.

    h_input, when given, must be hidden_input(p, v) for these same
    parameters and rows; it is reused instead of recomputing v @ w + b,
    so a caller that already holds it gets the same value bit for bit.
    Returns a float for a single vector, a 1-D array for a batch.
    """
    v = _check_visible(p, v)
    if h_input is None:
        h_input = hidden_input(p, v)
    hidden_term = log1p_exp(h_input).sum(axis=-1)
    if p.visible_kind == BINARY:
        visible_term = -(v @ p.a)
    else:
        visible_term = 0.5 * ((v - p.a) ** 2).sum(axis=-1)
    out = visible_term - hidden_term
    if out.ndim == 0:
        return float(out)
    return out


def batch_stats(v_batch: np.ndarray, h_batch: np.ndarray) -> GradientStats:
    """Average sufficient statistics of paired visible/hidden rows."""
    v_batch = np.atleast_2d(np.asarray(v_batch, dtype=np.float64))
    h_batch = np.atleast_2d(np.asarray(h_batch, dtype=np.float64))
    if v_batch.shape[0] != h_batch.shape[0]:
        raise ValueError("visible and hidden batches disagree on row count")
    m = v_batch.shape[0]
    # each sum divided in place by m: the bits of np.mean, whose reduction
    # is this same sum followed by a true division by the count
    vh = v_batch.T @ h_batch
    vh /= m
    v = v_batch.sum(axis=0)
    v /= m
    h = h_batch.sum(axis=0)
    h /= m
    return GradientStats(vh=vh, v=v, h=h, count=m)


def momentum_step(vel: np.ndarray, grad: np.ndarray, hp: Hyperparams,
                  param: np.ndarray | None = None) -> np.ndarray:
    """vel <- momentum*vel - epsilon*(grad + weight_decay*param), in place.

    grad is the descent direction (the gradient of the loss) and is
    overwritten as scratch. The decay term applies only when param is
    given, so biases pass no param and stay undecayed. Returns vel.
    Overflow is left to the caller's np.errstate.
    """
    vel *= hp.momentum
    if param is not None and hp.weight_decay:
        grad += hp.weight_decay * param
    grad *= hp.epsilon
    vel -= grad
    return vel


def apply_update(p: RbmParams, pos: GradientStats, neg: GradientStats,
                 hp: Hyperparams, state: UpdateState) -> RbmParams:
    """One stochastic ascent step on the data log-probability.

    Each velocity takes a momentum_step along neg - pos (the descent
    direction of the log-probability), with the weights alone decayed; the
    velocities in state are updated in place. Returns new parameters:
    neither p nor the statistics are written. Raises ValueError, as the
    RbmParams constructor does, when an entry comes out non-finite.
    """
    if pos.vh.shape != p.w.shape or neg.vh.shape != p.w.shape:
        raise ValueError("gradient statistics do not match parameter shape")
    with np.errstate(over="ignore"):
        # overflow lands as inf and trips the finiteness check below
        momentum_step(state.vel_w, np.subtract(neg.vh, pos.vh), hp, p.w)
        momentum_step(state.vel_a, np.subtract(neg.v, pos.v), hp)
        momentum_step(state.vel_b, np.subtract(neg.h, pos.h), hp)
        w, a, b = p.w + state.vel_w, p.a + state.vel_a, p.b + state.vel_b
    _check_finite(w, a, b)
    # fresh contiguous float64 arrays of p's shapes: of the constructor's
    # checks only finiteness can fail, so the rest is skipped
    new = object.__new__(RbmParams)
    new.__dict__.update(w=w, a=a, b=b, visible_kind=p.visible_kind,
                        label_units=p.label_units)
    return new
