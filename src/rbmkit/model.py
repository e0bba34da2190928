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

from .core import as_int, log1p_exp, sigmoid

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
        self.label_units = as_int("label_units", self.label_units)
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


class GradientStats:
    """Sufficient statistics of one gradient phase, already averaged.

    vh[i, j] is the mean of v_i * h_j over the contributing samples, v and
    h the mean unit activities, count how many samples contributed.

    Statistics built here are dense: vh is the array given. batch_stats
    builds row-backed ones instead, which keep the phase's visible and
    hidden rows and compute vh only when it is first read (then keep it).
    apply_update steps from the rows of two row-backed phases without
    reading vh. Assigning vh makes row-backed statistics dense, so the
    update follows the assigned array.
    """

    def __init__(self, vh: np.ndarray, v: np.ndarray, h: np.ndarray, count: int):
        self.vh = vh
        self.v = v
        self.h = h
        self.count = count

    @property
    def vh(self) -> np.ndarray:
        if self._vh is None:
            v_rows, h_rows = self._rows
            # the sum divided in place by the count: the bits of np.mean
            vh = v_rows.T @ h_rows
            vh /= self.count
            self._vh = vh
        return self._vh

    @vh.setter
    def vh(self, value: np.ndarray):
        self._vh, self._rows = value, None


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
                             ("weight_decay", "--decay"),
                             ("elite_fraction", "--elite-fraction")):
            value = getattr(self, name)
            if np.asarray(value).dtype.kind not in "iuf" or not np.isfinite(value):
                raise ValueError(f"{name} ({option}) must be a finite number, "
                                 f"got {value!r}")
        for name in ("batch_size", "k", "epochs", "n_chains"):
            if getattr(self, name) is not None:
                as_int(name, getattr(self, name))
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


def visible_term(kind: str, a, v):
    """The visible units' share of F(v), per row: -a.v for binary units,
    sum_i (v_i - a_i)^2 / 2 for Gaussian ones. A sum over the units, so a
    block of the visible layer gives its own term from its slice of a."""
    if kind == BINARY:
        return -(v @ a)
    return 0.5 * ((v - a) ** 2).sum(axis=-1)


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
    out = visible_term(p.visible_kind, p.a, v) - log1p_exp(h_input).sum(axis=-1)
    if out.ndim == 0:
        return float(out)
    return out


def batch_stats(v_batch: np.ndarray, h_batch: np.ndarray) -> GradientStats:
    """Average sufficient statistics of paired visible/hidden rows.

    Only the means v and h are computed here. The result is row-backed:
    it keeps references to the two row matrices (float64 arrays are not
    copied), and vh is formed from them when first read, so the rows must
    not be written while the statistics are in use.
    """
    v_batch = np.atleast_2d(np.asarray(v_batch, dtype=np.float64))
    h_batch = np.atleast_2d(np.asarray(h_batch, dtype=np.float64))
    if v_batch.shape[0] != h_batch.shape[0]:
        raise ValueError("visible and hidden batches disagree on row count")
    m = v_batch.shape[0]
    # each sum divided in place by m: the bits of np.mean, whose reduction
    # is this same sum followed by a true division by the count
    v = v_batch.sum(axis=0)
    v /= m
    h = h_batch.sum(axis=0)
    h /= m
    stats = GradientStats(None, v, h, m)
    stats._rows = (v_batch, h_batch)  # vh comes from these when first read
    return stats


def momentum_step(vel: np.ndarray, grad: np.ndarray, hp: Hyperparams,
                  param: np.ndarray | None = None) -> np.ndarray:
    """vel <- momentum*vel - epsilon*(grad + weight_decay*param), in place.

    grad is the descent direction (the gradient of the loss) and is
    overwritten as scratch. The decay term applies only when param is
    given, so biases pass no param and stay undecayed. Returns vel.
    Overflow is left to the caller's np.errstate.

    With momentum 0 the old velocity drops out, and vel is written in one
    pass as grad * -epsilon: the same values, save that a zero step may
    be -0.0 where the three-pass form gives +0.0.
    """
    if param is not None and hp.weight_decay:
        grad += hp.weight_decay * param
    if not hp.momentum:
        return np.multiply(grad, -hp.epsilon, out=vel)
    vel *= hp.momentum
    grad *= hp.epsilon
    vel -= grad
    return vel


def _weight_descent(pos: GradientStats, neg: GradientStats) -> np.ndarray:
    """neg.vh - pos.vh in a fresh array. For two row-backed phases it is
    one product over both phases' rows,
    [v_neg; v_pos]^T @ [h_neg / m_neg; -h_pos / m_pos], and vh is never
    read; otherwise it is the difference of the two vh arrays."""
    if pos._rows is None or neg._rows is None:
        return np.subtract(neg.vh, pos.vh)
    (v_neg, h_neg), (v_pos, h_pos) = neg._rows, pos._rows
    m_neg = v_neg.shape[0]
    h = np.empty((m_neg + v_pos.shape[0], h_neg.shape[1]))
    np.divide(h_neg, neg.count, out=h[:m_neg])
    np.divide(h_pos, -pos.count, out=h[m_neg:])
    return np.concatenate((v_neg, v_pos)).T @ h


def apply_update(p: RbmParams, pos: GradientStats, neg: GradientStats,
                 hp: Hyperparams, state: UpdateState) -> RbmParams:
    """One stochastic ascent step on the data log-probability, taken in
    place: p's arrays and the velocities in state are written, and p is
    returned. The statistics are not written.

    Each velocity takes a momentum_step along neg - pos (the descent
    direction of the log-probability), with the weights alone decayed.
    The weights' direction comes from _weight_descent: one product over
    the rows of two row-backed phases (equal to the dense difference to
    within rounding), or neg.vh - pos.vh when either phase is dense.
    Raises ValueError, as the RbmParams constructor does, when an entry
    comes out non-finite; p then holds the failed step.
    """
    for stats in (pos, neg):
        if (stats.v.size, stats.h.size) != p.w.shape or (
                stats._rows is None and stats.vh.shape != p.w.shape):
            raise ValueError("gradient statistics do not match parameter shape")
    with np.errstate(over="ignore"):
        # overflow lands as inf and trips the finiteness check below
        p.w += momentum_step(state.vel_w, _weight_descent(pos, neg), hp, p.w)
        p.a += momentum_step(state.vel_a, np.subtract(neg.v, pos.v), hp)
        p.b += momentum_step(state.vel_b, np.subtract(neg.h, pos.h), hp)
    _check_finite(p.w, p.a, p.b)
    return p
