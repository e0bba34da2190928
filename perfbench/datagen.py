"""Deterministic inputs for the benchmark, generated from the workload seed.

numpy only: no download, no scikit-learn, nothing shared with the test
suite. The same seed always yields the same bytes.

Digit rows are seven-segment glyphs of the ten digits drawn on a 28x28
canvas, each blended half-and-half with one of 30 seed-drawn "style"
scribbles, sampled pixel by pixel and then hit by random pixel flips.
Glyph pairs such as 8/0/6/9 and 1/7 overlap, and the style scribbles
cover the same pixels as the glyphs, so no estimator reaches zero test
error. The glyph shapes are fixed; only the styles and the per-row draws
depend on the seed, which keeps the task equally hard for every seed.
"""

from __future__ import annotations

import os
import struct

import numpy as np

SIDE = 28
N_CLASSES = 10
N_STYLES = 30
STYLE_MIX = 0.5
FLIP = 0.1

SMALL_VISIBLE = 12
SMALL_MODES = 4
SMALL_FLIP = 0.1

# segments lit for each digit, seven-segment convention
_SEGMENTS = {0: "abcdef", 1: "bc", 2: "abged", 3: "abgcd", 4: "fgbc",
             5: "afgcd", 6: "afgedc", 7: "abc", 8: "abcdefg", 9: "abcdfg"}
_LEFT, _RIGHT, _TOP, _MID, _BOTTOM = 9.0, 18.0, 6.0, 14.0, 22.0
_ENDS = {"a": ((_TOP, _LEFT), (_TOP, _RIGHT)),
         "b": ((_TOP, _RIGHT), (_MID, _RIGHT)),
         "c": ((_MID, _RIGHT), (_BOTTOM, _RIGHT)),
         "d": ((_BOTTOM, _LEFT), (_BOTTOM, _RIGHT)),
         "e": ((_MID, _LEFT), (_BOTTOM, _LEFT)),
         "f": ((_TOP, _LEFT), (_MID, _LEFT)),
         "g": ((_MID, _LEFT), (_MID, _RIGHT))}
_STROKE_WIDTH = 1.2


def _stroke(p0, p1) -> np.ndarray:
    """28x28 0/1 image of a thick line segment from p0 to p1 (row, col)."""
    yy, xx = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    p0 = np.asarray(p0, dtype=np.float64)
    d = np.asarray(p1, dtype=np.float64) - p0
    t = np.clip(((yy - p0[0]) * d[0] + (xx - p0[1]) * d[1]) / max(d @ d, 1e-9), 0.0, 1.0)
    dist = np.hypot(yy - (p0[0] + t * d[0]), xx - (p0[1] + t * d[1]))
    return (dist <= _STROKE_WIDTH).astype(np.float64)


def glyphs() -> np.ndarray:
    """The ten digit glyphs, one flattened 784-pixel 0/1 row each."""
    return np.array([np.max([_stroke(*_ENDS[s]) for s in _SEGMENTS[digit]], axis=0).reshape(-1)
                     for digit in range(N_CLASSES)])


def digit_rows(seed: int, n_rows: int):
    """(pixels as uint8 0/255 array of shape (n_rows, 28, 28), labels uint8)."""
    style_rng = np.random.default_rng([seed, 1])
    styles = np.array([
        np.max([_stroke(*style_rng.uniform(4.0, 23.0, (2, 2))) for _ in range(3)], axis=0).reshape(-1)
        for _ in range(N_STYLES)])
    rng = np.random.default_rng([seed, 2])
    labels = rng.permutation(np.arange(n_rows) % N_CLASSES)
    style_ids = rng.integers(0, N_STYLES, n_rows)
    ink = (1.0 - STYLE_MIX) * glyphs()[labels] + STYLE_MIX * styles[style_ids]
    on = rng.random(ink.shape) < ink
    on ^= rng.random(ink.shape) < FLIP
    pixels = (on * 255).astype(np.uint8).reshape(n_rows, SIDE, SIDE)
    return pixels, labels.astype(np.uint8)


def small_binary_rows(seed: int, n_rows: int) -> np.ndarray:
    """Rows of SMALL_VISIBLE bits: a mixture of SMALL_MODES seeded binary
    modes, each bit flipped with probability SMALL_FLIP."""
    rng = np.random.default_rng([seed, 3])
    modes = rng.random((SMALL_MODES, SMALL_VISIBLE)) < 0.5
    rows = modes[rng.integers(0, SMALL_MODES, n_rows)]
    rows ^= rng.random(rows.shape) < SMALL_FLIP
    return rows.astype(np.float64)


def write_idx(path, array: np.ndarray):
    """Write a uint8 array as an IDX file (magic 0x0800 | ndim, big-endian dims)."""
    array = np.ascontiguousarray(array, dtype=np.uint8)
    header = struct.pack(">i", 0x0800 | array.ndim)
    header += b"".join(struct.pack(">i", d) for d in array.shape)
    with open(path, "wb") as fh:
        fh.write(header + array.tobytes())


def write_digit_idx(directory, seed: int, n_train: int, n_test: int) -> dict:
    """Generate n_train + n_test digit rows and write the four IDX files;
    returns their paths keyed train_images, train_labels, test_images,
    test_labels."""
    pixels, labels = digit_rows(seed, n_train + n_test)
    paths = {}
    for part, rows in (("train", slice(0, n_train)), ("test", slice(n_train, None))):
        paths[f"{part}_images"] = os.path.join(directory, f"{part}-images-idx3-ubyte")
        paths[f"{part}_labels"] = os.path.join(directory, f"{part}-labels-idx1-ubyte")
        write_idx(paths[f"{part}_images"], pixels[rows])
        write_idx(paths[f"{part}_labels"], labels[rows])
    return paths
