"""Deterministic stand-in datasets for runs that would use MNIST.

No network access is assumed anywhere in the suite. When real MNIST IDX
files exist under RBMKIT_MNIST_DIR they are used; otherwise runs fall
back to real handwritten digits from scikit-learn's bundled 8x8 set,
upsampled to 28x28 with seeded pixel-shift augmentation. A pure-numpy
prototype generator covers environments without scikit-learn. Either way
the data is 784-dimensional, 10-class, and deterministic given the seed.
"""

import struct

import numpy as np

from rbmkit import Dataset, RngStream

def _digits_base():
    try:
        from sklearn.datasets import load_digits
    except ImportError:
        return None
    raw = load_digits()
    return raw.data.reshape(-1, 8, 8) / 16.0, raw.target.astype(np.int64)


def _upsample_28(img8: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """8x8 -> 32x32 by pixel replication, shifted by (dr, dc), center-cropped
    to 28x28."""
    big = np.kron(img8, np.ones((4, 4)))
    shifted = np.zeros_like(big)
    rows = slice(max(0, dr), min(32, 32 + dr))
    cols = slice(max(0, dc), min(32, 32 + dc))
    src_rows = slice(max(0, -dr), min(32, 32 - dr))
    src_cols = slice(max(0, -dc), min(32, 32 - dc))
    shifted[rows, cols] = big[src_rows, src_cols]
    return shifted[2:30, 2:30]


def _prototype_digits(n: int, rng: RngStream):
    protos = (rng.uniforms((10, 784)) < 0.35).astype(np.float64)
    labels = (rng.uniforms(n) * 10).astype(np.int64) % 10
    flips = rng.uniforms((n, 784)) < 0.12
    feats = np.where(flips, 1.0 - protos[labels], protos[labels])
    return feats, labels


def digit_generator() -> str:
    """Name of the generator digit_dataset runs here: "scikit-learn
    digits" when scikit-learn is importable, else "numpy prototypes"."""
    return "numpy prototypes" if _digits_base() is None else "scikit-learn digits"


def digit_dataset(n: int, seed: int) -> Dataset:
    """n samples of 784-dim, 10-class digit data in [0, 1], deterministic."""
    rng = RngStream(seed, 0)
    base = _digits_base()
    if base is None:
        feats, labels = _prototype_digits(n, rng)
        return Dataset(feats, labels)
    images, targets = base
    m = images.shape[0]
    idx = (rng.uniforms(n) * m).astype(np.int64) % m
    shifts = (rng.uniforms((n, 2)) * 3).astype(np.int64) - 1
    feats = np.empty((n, 784))
    for i in range(n):
        feats[i] = _upsample_28(images[idx[i]], shifts[i, 0], shifts[i, 1]).ravel()
    return Dataset(feats, targets[idx])


def write_idx_fixture(images_path, labels_path, pixels: np.ndarray,
                      labels: np.ndarray):
    """Independent IDX encoder (big-endian magic + dims + raw bytes),
    used to build loader fixtures byte-by-byte."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">iiii", 2051, n, rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", 2049, labels.size))
        fh.write(labels.tobytes())
