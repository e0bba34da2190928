"""Dataset ingestion (MNIST IDX, ISOLET CSV), normalization, and model
serialization.

Loaders are total: any byte stream either yields a value (a Dataset, or
a model from load_model) or raises a typed error from errors.py, never a
silently truncated result or an untyped parsing error. Model JSON
stores every float as a 17-significant-digit decimal string, which
round-trips all float64 values (subnormals included) bit-exactly while
staying diffable.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .core import as_int
from .dbn import DbnModel
from .errors import (CsvFormatError, IdxCountMismatchError, IdxMagicError,
                     IdxTruncatedError, ModelFormatError)
from .model import RbmParams

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049
MODEL_FORMAT_VERSION = 1

__all__ = [
    "Dataset", "NormStats",
    "load_mnist_idx", "load_isolet_csv", "minmax_normalize",
    "save_model", "load_model", "write_pgm",
    "IDX_IMAGE_MAGIC", "IDX_LABEL_MAGIC", "MODEL_FORMAT_VERSION",
]


@dataclass
class NormStats:
    """Per-column min/max recorded when normalizing training data, reused
    (with clamping) on test data."""

    col_min: np.ndarray
    col_max: np.ndarray


@dataclass
class Dataset:
    """Row-major sample matrix with optional integer labels.

    n_classes, when known, is the class count of the file the rows were
    loaded from; a subset keeps it even when it misses a class. Left
    None, consumers take max(labels) + 1 of the rows they see.
    """

    features: np.ndarray
    labels: np.ndarray | None = None
    normalization: NormStats | None = None
    n_classes: int | None = None

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite feature values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.features.shape[0],):
                raise ValueError("labels must align with feature rows")
        if self.n_classes is not None:
            if self.labels is None:
                raise ValueError("n_classes needs labels")
            self.n_classes = as_int("n_classes", self.n_classes)
            if self.labels.size and not (
                    0 <= self.labels.min() and self.labels.max() < self.n_classes):
                raise ValueError(f"labels outside [0, {self.n_classes})")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def _read_exact(fh, n: int, path, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise IdxTruncatedError(f"{path}: expected {n} bytes for {what}, "
                                f"got {len(data)}")
    return data


def _load_idx_array(path, expected_magic: int) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = struct.unpack(">i", _read_exact(fh, 4, path, "magic"))[0]
        if magic != expected_magic:
            raise IdxMagicError(f"{path}: magic {magic}, expected {expected_magic}")
        n_dims = magic & 0xFF
        dims = [struct.unpack(">i", _read_exact(fh, 4, path, "dimension"))[0]
                for _ in range(n_dims)]
        if any(d < 0 for d in dims):
            raise IdxMagicError(f"{path}: negative dimension in header")
        n_bytes = math.prod(dims)
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if n_bytes > remaining:
            raise IdxTruncatedError(f"{path}: header promises {n_bytes} payload "
                                    f"bytes, file holds {remaining}")
        payload = _read_exact(fh, n_bytes, path, "payload")
        if fh.read(1):
            raise IdxTruncatedError(f"{path}: trailing bytes after payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """MNIST-style IDX pair -> Dataset with raw byte-valued pixels.

    Images stay in 0..255; run minmax_normalize to map them into [0, 1].
    n_classes is max(labels) + 1 over the whole label file.
    """
    images = _load_idx_array(images_path, IDX_IMAGE_MAGIC)
    labels = _load_idx_array(labels_path, IDX_LABEL_MAGIC)
    if images.ndim != 3:
        raise IdxMagicError(f"{images_path}: image file must have 3 dimensions")
    if labels.ndim != 1:
        raise IdxMagicError(f"{labels_path}: label file must have 1 dimension")
    if images.shape[0] != labels.shape[0]:
        raise IdxCountMismatchError(
            f"{images.shape[0]} images vs {labels.shape[0]} labels")
    n_pixels = math.prod(images.shape[1:])
    if n_pixels * 8 > np.iinfo(np.intp).max:
        # only a zero-image file gets here: its float64 rows are unaddressable
        raise IdxMagicError(f"{images_path}: {n_pixels} pixels per image")
    feats = images.reshape(images.shape[0], n_pixels).astype(np.float64)
    labels = labels.astype(np.int64)
    n_classes = int(labels.max()) + 1 if labels.size else None
    return Dataset(feats, labels, n_classes=n_classes)


def load_isolet_csv(path) -> Dataset:
    """ISOLET CSV: 617 real features then a 1..26 class label per row.

    The label must be a whole number (written 3, 3. or 3.0); any other
    value is refused, never rounded to a class. n_classes is 26 whatever
    classes the file holds."""
    n_features = 617
    rows = []
    labels = []
    try:
        # universal newlines: every line ending reads back as "\n"
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise CsvFormatError(f"{path}: not UTF-8 text") from None
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != n_features + 1:
            raise CsvFormatError(
                f"{path}:{lineno}: {len(fields)} columns, expected "
                f"{n_features + 1}")
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise CsvFormatError(f"{path}:{lineno}: {exc}") from None
        if not all(map(math.isfinite, values)):
            raise CsvFormatError(f"{path}:{lineno}: non-finite value")
        label = values[-1]
        if not (label.is_integer() and 1 <= label <= 26):
            raise CsvFormatError(f"{path}:{lineno}: class label {fields[-1].strip()} "
                                 f"is not an integer in 1..26")
        rows.append(values[:-1])
        labels.append(int(label) - 1)
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return Dataset(np.array(rows), np.array(labels), n_classes=26)


def minmax_normalize(ds: Dataset, stats: NormStats | None = None) -> Dataset:
    """Map features to [0, 1] per column.

    Without stats, each column is scaled by its own min/max (constant
    columns map to 0) and the statistics are recorded on the result. With
    stats — the training statistics, applied to test data — values are
    scaled the same way and clamped into [0, 1]; stats of another width
    than the data raise ValueError.
    """
    if ds.n_samples == 0:
        raise ValueError("empty dataset")
    fresh = stats is None
    if fresh:
        stats = NormStats(ds.features.min(axis=0), ds.features.max(axis=0))
    elif stats.col_min.shape != (ds.n_features,):
        raise ValueError(f"data has {ds.n_features} columns, its normalization "
                         f"statistics {stats.col_min.size} columns")
    span = stats.col_max - stats.col_min
    safe = np.where(span > 0, span, 1.0)
    scaled = ds.features - stats.col_min
    scaled /= safe
    scaled[:, span == 0] = 0.0
    if not fresh:
        np.clip(scaled, 0.0, 1.0, out=scaled)
    return Dataset(scaled, ds.labels, stats, ds.n_classes)


def _atomic_write_bytes(path, data: bytes):
    """Write data to a temp file beside path, then rename it into place,
    so path never holds a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    _atomic_write_bytes(path, text.encode("utf-8"))


def _floats_out(arr: np.ndarray) -> list:
    flat = np.asarray(arr, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(flat)):
        raise ModelFormatError("refusing to serialize non-finite values")
    return [format(x, ".17g") for x in flat]


def _floats_in(values, shape, what: str) -> np.ndarray:
    expected = math.prod(shape)
    if not isinstance(values, list) or len(values) != expected:
        raise ModelFormatError(f"{what}: expected {expected} values")
    kinds = set(map(type, values))
    if bool in kinds:  # float(True) would read 1.0
        raise ModelFormatError(f"{what}: booleans are not numbers")
    if not kinds <= {int, float, str}:  # np.array reads None as nan, [x] as a row
        raise ModelFormatError(f"{what}: unparsable float")
    try:
        # one call, parsing each str with float()'s grammar
        arr = np.array(values, dtype=np.float64).reshape(shape)
    except (TypeError, ValueError, OverflowError):
        raise ModelFormatError(f"{what}: unparsable float") from None
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"{what}: non-finite value")
    return arr


def _rbm_to_dict(p: RbmParams) -> dict:
    return {
        "visible_kind": p.visible_kind,
        "n_visible": p.n_visible,
        "n_hidden": p.n_hidden,
        "label_units": p.label_units,
        "weights": _floats_out(p.w),
        "visible_bias": _floats_out(p.a),
        "hidden_bias": _floats_out(p.b),
    }


def _count_in(doc: dict, key: str, what: str, default=None) -> int:
    """doc[key] (default if absent), which must be a JSON integer: a
    float, string or boolean raises rather than being truncated."""
    value = doc.get(key, default)
    if type(value) is not int:  # bool is an int subclass
        raise ModelFormatError(f"{what}: {key} must be an integer, got {value!r}")
    return value


def _rbm_from_dict(doc: dict, what: str = "model") -> RbmParams:
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{what}: a layer must be an object")
    n_visible = _count_in(doc, "n_visible", what)
    n_hidden = _count_in(doc, "n_hidden", what)
    label_units = _count_in(doc, "label_units", what, 0)
    if n_visible < 1 or n_hidden < 1:
        raise ModelFormatError(f"{what}: dimensions must be positive")
    w = _floats_in(doc.get("weights"), (n_visible, n_hidden), f"{what}.weights")
    a = _floats_in(doc.get("visible_bias"), (n_visible,), f"{what}.visible_bias")
    b = _floats_in(doc.get("hidden_bias"), (n_hidden,), f"{what}.hidden_bias")
    try:
        return RbmParams(w, a, b, doc.get("visible_kind"), label_units)
    except ValueError as exc:
        raise ModelFormatError(f"{what}: {exc}") from None


def save_model(path, model):
    """Serialize an RbmParams or DbnModel to JSON, atomically."""
    if isinstance(model, RbmParams):
        doc = {"format_version": MODEL_FORMAT_VERSION, "kind": "rbm"}
        doc.update(_rbm_to_dict(model))
    elif isinstance(model, DbnModel):
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "dbn",
            "top_label_units": model.top_label_units,
            "layers": [_rbm_to_dict(layer) for layer in model.layers],
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    atomic_write_text(path, json.dumps(doc, indent=1) + "\n")


def load_model(path):
    """Load a model JSON; bit-identical to what save_model wrote."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    # ValueError covers bad UTF-8, bad syntax and integers past Python's
    # digit limit
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: top level must be an object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: format_version {version!r}, expected {MODEL_FORMAT_VERSION}")
    kind = doc.get("kind")
    if kind == "rbm":
        return _rbm_from_dict(doc, path)
    if kind == "dbn":
        layers_doc = doc.get("layers")
        if not isinstance(layers_doc, list) or not layers_doc:
            raise ModelFormatError(f"{path}: dbn needs a nonempty layers list")
        layers = [_rbm_from_dict(d, f"{path}.layers[{i}]")
                  for i, d in enumerate(layers_doc)]
        top_label_units = _count_in(doc, "top_label_units", path, 0)
        try:
            model = DbnModel(layers)
        except ValueError as exc:
            raise ModelFormatError(f"{path}: {exc}") from None
        if top_label_units != model.top_label_units:
            raise ModelFormatError(
                f"{path}: top_label_units {top_label_units} != top layer's "
                f"label_units {model.top_label_units}")
        return model
    raise ModelFormatError(f"{path}: unknown kind {kind!r}")


def write_pgm(path, image: np.ndarray):
    """Binary PGM (P5) of values in [0, 1], written atomically."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("PGM image must be 2-D")
    gray = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii")
    _atomic_write_bytes(path, header + gray.tobytes())
