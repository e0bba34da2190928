"""Greedy layer-wise stacking, free-energy classification, and the
unrolled feedforward classifier with backprop fine-tuning.

Stacking feeds each layer's hidden activation probabilities (not sampled
bits) upward as the next layer's data. A discriminative RBM concatenates
a one-hot label block onto the visible layer; classification clamps each
candidate label in turn and picks the lowest free energy, which is the
exact posterior argmax because the partition function cancels between
candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RngStream, log1p_exp, log_sum_exp, sigmoid, softmax
from .errors import TrainingDivergedError
from .model import (BINARY, Hyperparams, RbmParams, hidden_probs, init_params,
                    momentum_step, visible_term)
from .trainer import (STREAM_FINE_TUNE, STREAM_FINE_TUNE_EVAL, STREAM_INIT,
                      STREAM_OUTPUT_INIT, features_of, probe_rows, train_rbm)

__all__ = [
    "DbnModel", "FeedforwardNet",
    "one_hot", "label_classes", "propagate_up", "pretrain_stack",
    "train_discriminative_rbm", "classify_free_energy",
    "unroll_to_network", "net_forward", "cross_entropy", "net_gradients",
    "fine_tune", "classify_net", "OUTPUT_WEIGHT_SCALE",
]

# standard deviation of the output layer unroll_to_network appends
OUTPUT_WEIGHT_SCALE = 0.01


@dataclass
class DbnModel:
    """Ordered stack of trained RBMs, bottom (data-facing) layer first.

    Only the top layer may carry a label block: its visible layer then
    ends in top_label_units one-hot label units after the features coming
    up the stack.
    """

    layers: list

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a DBN needs at least one layer")
        if any(layer.label_units for layer in self.layers[:-1]):
            raise ValueError("only the top layer may carry label units")
        for lo, hi in zip(self.layers, self.layers[1:]):
            if hi.n_visible - hi.label_units != lo.n_hidden:
                raise ValueError(
                    f"layer dimensions do not chain: {lo.n_hidden} hidden "
                    f"feeding {hi.n_visible - hi.label_units} feature visible")

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def top_label_units(self) -> int:
        """The top layer's label_units; 0 for a purely generative stack."""
        return self.layers[-1].label_units


def _class_labels(labels, m: int, n_classes: int) -> np.ndarray:
    """labels as int64: one whole number in [0, n_classes) for each of m
    rows, or ValueError naming what is wrong."""
    raw = np.asarray(labels)
    if raw.shape != (m,):
        raise ValueError(f"need one label per row, not {raw.shape} for {m} rows")
    kind = raw.dtype.kind
    if kind not in "iu" and (kind != "f" or np.any(raw != np.round(raw))):
        raise ValueError("labels must be whole numbers")
    if m and not (0 <= raw.min() and raw.max() < n_classes):
        raise ValueError(f"labels outside [0, {n_classes})")
    return raw.astype(np.int64, copy=False)


def one_hot(labels, n_classes: int) -> np.ndarray:
    labels = _class_labels(labels, np.size(labels), n_classes)
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def propagate_up(dbn: DbnModel, v, upto: int) -> np.ndarray:
    """Deterministic upward pass of activation probabilities through
    layers 0..upto inclusive, driven by feature units only: a label block
    is treated as clamped to zero."""
    if not (0 <= upto < dbn.n_layers):
        raise IndexError(f"layer index {upto} out of range")
    pairs = [(layer.w[:layer.n_visible - layer.label_units], layer.b)
             for layer in dbn.layers[:upto + 1]]
    return _upward(np.asarray(v, dtype=np.float64), pairs)[-1]


def _upward(x: np.ndarray, pairs) -> list:
    """x and its logistic activation sigmoid(x @ w + b) through each
    (w, b) pair in turn: the one upward pass of a stack (propagate_up)
    and of its unrolled net (_forward_logits)."""
    acts = [x]
    for w, b in pairs:
        x = acts[-1] @ w
        x += b
        acts.append(sigmoid(x, out=x))
    return acts


def label_classes(data) -> int:
    """Number of classes of a labelled dataset: its n_classes when it
    carries one (a loader sets it from the whole file), else
    max(labels) + 1."""
    labels = getattr(data, "labels", None)
    if labels is None:
        raise ValueError("discriminative training requires labels")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty dataset")
    n_classes = getattr(data, "n_classes", None)
    return int(labels.max()) + 1 if n_classes is None else n_classes


def _label_block(data) -> np.ndarray:
    """One-hot rows for data's integer labels; the block spans
    label_classes(data) classes, at least two of them."""
    n_classes = label_classes(data)
    if n_classes < 2:
        raise ValueError("need at least two classes")
    return one_hot(data.labels, n_classes)


def _train_layer(x, n_hidden: int, hp: Hyperparams, estimator: str, seed: int,
                 visible_kind: str, label_block=None, epoch_callback=None):
    """One RBM over the rows x, initialized and trained under run seed
    seed; a label_block is appended to x as the visible layer's label
    units."""
    label_units = 0 if label_block is None else label_block.shape[1]
    if label_units:
        x = np.hstack([x, label_block])
    init = init_params(x.shape[1], n_hidden, RngStream(seed, STREAM_INIT),
                       visible_kind, label_units=label_units)
    return train_rbm(init, x, hp, estimator, seed, epoch_callback)


def pretrain_stack(sizes, data, hp: Hyperparams, estimators, seed: int,
                   visible_kind: str = BINARY, discriminative: bool = False):
    """Greedy layer-wise pretraining; returns (DbnModel, per-layer metrics).

    sizes is [input_dim, h1, h2, ...]; every layer trains with hp.
    estimators gives one estimator name per trained layer (a single name,
    alone or in a list, is broadcast to all layers). visible_kind is the
    bottom layer's unit kind; the layers above it see probabilities and
    are binary. Layer L trains on the activation probabilities produced
    by the layers below it, with run seed seed+L, so a one-layer stack is
    identical to a plain train_rbm run. When discriminative, data must
    carry labels, and the top layer is the label-augmented RBM that
    train_discriminative_rbm trains on the rows coming up the stack.
    """
    feats = features_of(data)
    n_rbms = len(sizes) - 1
    if n_rbms < 1:
        raise ValueError("need at least one (visible, hidden) pair")
    if feats.shape[1] != sizes[0]:
        raise ValueError(f"data dimension {feats.shape[1]} != sizes[0] {sizes[0]}")
    if isinstance(estimators, str):
        estimators = [estimators]
    if len(estimators) == 1:
        estimators = list(estimators) * n_rbms
    if len(estimators) != n_rbms:
        raise ValueError("need one estimator or one per layer")
    top_block = _label_block(data) if discriminative else None

    layers = []
    all_metrics = []
    x = feats
    for idx in range(n_rbms):
        if idx:
            x = hidden_probs(layers[-1], x)
        trained, metrics = _train_layer(
            x, sizes[idx + 1], hp, estimators[idx], seed + idx,
            visible_kind if idx == 0 else BINARY,
            top_block if idx == n_rbms - 1 else None)
        layers.append(trained)
        all_metrics.append(metrics)
    return DbnModel(layers), all_metrics


def train_discriminative_rbm(data, n_hidden: int, hp: Hyperparams,
                             estimator: str, seed: int,
                             visible_kind: str = BINARY, epoch_callback=None):
    """Generative RBM over [features, one-hot label] visible vectors.

    Returns (RbmParams with label_units set, metrics). data must carry
    integer labels.
    """
    block = _label_block(data)
    return _train_layer(features_of(data), n_hidden, hp, estimator, seed,
                        visible_kind, block, epoch_callback)


def _label_free_energies(p: RbmParams, v: np.ndarray) -> np.ndarray:
    """F([v, one_hot(c)]) for every class c; rows follow the batch."""
    if p.label_units < 2:
        raise ValueError("model has no label units")
    d = p.n_visible - p.label_units
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    if v.shape[1] != d:
        raise ValueError(f"feature length {v.shape[1]} != {d}")
    base_input = v @ p.w[:d] + p.b                      # (m, n_hidden)
    # the feature block's visible term is the same for every clamped label,
    # and the label block's is one number a class
    feature_term = visible_term(p.visible_kind, p.a[:d], v)
    label_term = visible_term(p.visible_kind, p.a[d:], np.eye(p.label_units))
    f = np.empty((v.shape[0], p.label_units))
    for c in range(p.label_units):
        hidden_term = np.sum(log1p_exp(base_input + p.w[d + c]), axis=1)
        f[:, c] = feature_term + label_term[c] - hidden_term
    return f


def classify_free_energy(p: RbmParams, v):
    """Class prediction and posterior scores by clamped free energy.

    Scores are softmax(-F) over the classes, which equals the exact
    conditional P(y | v) since the partition function is shared. A single
    feature vector returns (int, scores); a batch returns arrays.
    """
    single = np.asarray(v).ndim == 1
    f = _label_free_energies(p, v)
    scores = softmax(-f)
    pred = np.argmin(f, axis=1)
    if single:
        return int(pred[0]), scores[0]
    return pred, scores


@dataclass
class FeedforwardNet:
    """Logistic-hidden-layer classifier with a normalized-score output."""

    weights: list
    biases: list

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up")
        for w, b in zip(self.weights, self.biases):
            if w.shape[1] != b.size:
                raise ValueError("bias length must match weight columns")
        for w_lo, w_hi in zip(self.weights, self.weights[1:]):
            if w_lo.shape[1] != w_hi.shape[0]:
                raise ValueError("layer dimensions do not chain")

    @property
    def n_classes(self) -> int:
        return self.biases[-1].size

    def copy(self) -> "FeedforwardNet":
        """Independent float64 copy of every weight and bias array."""
        return FeedforwardNet([np.array(w, dtype=np.float64) for w in self.weights],
                              [np.array(b, dtype=np.float64) for b in self.biases])


def unroll_to_network(dbn: DbnModel, n_classes: int, seed: int) -> FeedforwardNet:
    """Copy the stack's weights into a feedforward net and append a fresh
    small-random output layer of n_classes units, drawn from stream
    STREAM_OUTPUT_INIT of seed (no layer's init stream).

    Visible biases are discarded; on a label-augmented top layer only the
    feature rows of W survive (the generative label weights are dropped).
    """
    rng = RngStream(seed, STREAM_OUTPUT_INIT)
    weights, biases = [], []
    for layer in dbn.layers:
        d = layer.n_visible - layer.label_units
        weights.append(layer.w[:d].copy())
        biases.append(layer.b.copy())
    top = weights[-1].shape[1]
    weights.append(OUTPUT_WEIGHT_SCALE * rng.normals((top, n_classes)))
    biases.append(np.zeros(n_classes))
    return FeedforwardNet(weights, biases)


def _forward_logits(net: FeedforwardNet, x: np.ndarray):
    """Input and logistic-layer activations, plus the output layer's
    unnormalized class scores."""
    acts = _upward(np.atleast_2d(np.asarray(x, dtype=np.float64)),
                   zip(net.weights[:-1], net.biases[:-1]))
    return acts, acts[-1] @ net.weights[-1] + net.biases[-1]


def net_forward(net: FeedforwardNet, x: np.ndarray):
    """Activations of every layer; the last entry is the normalized
    class-score matrix."""
    acts, z = _forward_logits(net, x)
    acts.append(softmax(z))
    return acts


def cross_entropy(net: FeedforwardNet, x: np.ndarray, labels) -> float:
    """Mean negative log score of the true class."""
    _, z = _forward_logits(net, x)
    labels = _class_labels(labels, z.shape[0], net.n_classes)
    true_z = z[np.arange(labels.size), labels]
    return float(np.mean(log_sum_exp(z, axis=1) - true_z))


def net_gradients(net: FeedforwardNet, x: np.ndarray, labels):
    """Cross-entropy gradients for every weight and bias, by reverse
    accumulation through the logistic layers and normalized output."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    m = x.shape[0]
    labels = _class_labels(labels, m, net.n_classes)
    acts = net_forward(net, x)
    delta = acts[-1]  # the softmax buffer, which nothing else reads
    delta[np.arange(m), labels] -= 1.0
    delta /= m
    grad_w = [None] * len(net.weights)
    grad_b = [None] * len(net.biases)
    for layer in range(len(net.weights) - 1, -1, -1):
        grad_w[layer] = acts[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            a = acts[layer]
            delta = (delta @ net.weights[layer].T) * a * (1.0 - a)
    return grad_w, grad_b


def fine_tune(net: FeedforwardNet, data, hp: Hyperparams, seed: int):
    """Minibatch cross-entropy descent; returns (tuned net, epoch losses).

    Momentum and weight decay follow the same hyperparameters as RBM
    training: each minibatch takes one momentum_step per weight matrix
    (decayed) and bias vector (undecayed), and the velocities are added in
    place into a private copy of net, so the input net is never written.
    Labels are checked before the first epoch. Each epoch's order
    comes from stream STREAM_FINE_TUNE of seed, not from the pretraining
    shuffle's. Epoch losses are the mean cross-entropy after each epoch on
    the probe_rows drawn once per call from stream STREAM_FINE_TUNE_EVAL,
    which never moves the weights.
    """
    labels = getattr(data, "labels", None)
    if labels is None:
        raise ValueError("fine-tuning requires labels")
    hp.validate()
    feats = features_of(data)
    m = feats.shape[0]
    labels = _class_labels(labels, m, net.n_classes)
    probe = probe_rows(m, RngStream(seed, STREAM_FINE_TUNE_EVAL))

    net = net.copy()
    vel_w = [np.zeros_like(w) for w in net.weights]
    vel_b = [np.zeros_like(b) for b in net.biases]
    shuffle_rng = RngStream(seed, STREAM_FINE_TUNE)
    losses = []
    for epoch in range(1, hp.epochs + 1):
        order = shuffle_rng.permutation(m)
        for start in range(0, m, hp.batch_size):
            idx = order[start:start + hp.batch_size]
            gw, gb = net_gradients(net, feats[idx], labels[idx])
            with np.errstate(over="ignore"):
                # overflow lands as inf and trips the check below
                for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
                    w += momentum_step(vel_w[layer], gw[layer], hp, w)
                    b += momentum_step(vel_b[layer], gb[layer], hp)
            if not all(np.isfinite(x).all() for x in (*net.weights, *net.biases)):
                raise TrainingDivergedError(
                    f"non-finite network parameters at epoch {epoch}, "
                    f"batch offset {start}")
        losses.append(cross_entropy(net, feats[probe], labels[probe]))
    return net, losses


def classify_net(net: FeedforwardNet, x: np.ndarray) -> np.ndarray:
    """Predicted class indices for a batch."""
    return np.argmax(net_forward(net, x)[-1], axis=1)
