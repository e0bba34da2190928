import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbmkit import (CsvFormatError, DataFormatError, Dataset,
                    IdxCountMismatchError, IdxMagicError, IdxTruncatedError,
                    ModelFormatError, RbmParams, load_isolet_csv,
                    load_mnist_idx, load_model, minmax_normalize, save_model)
from rbmkit.dataio import write_pgm
from rbmkit.dbn import DbnModel

from synthdata import write_idx_fixture

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# two 2x3 images spelled out byte by byte per the published IDX layout:
# >i magic, >i count, >i rows, >i cols, then raw unsigned pixel bytes
PIXELS = np.array([[[0, 64, 128], [192, 255, 1]],
                   [[9, 8, 7], [6, 5, 4]]], dtype=np.uint8)
LABELS = np.array([3, 9], dtype=np.uint8)
IMAGE_BYTES = struct.pack(">iiii", 2051, 2, 2, 3) + PIXELS.tobytes()
LABEL_BYTES = struct.pack(">ii", 2049, 2) + LABELS.tobytes()


def write_fixture_pair(tmp_path, image_bytes=IMAGE_BYTES, label_bytes=LABEL_BYTES):
    images = tmp_path / "images-idx3-ubyte"
    labels = tmp_path / "labels-idx1-ubyte"
    images.write_bytes(image_bytes)
    labels.write_bytes(label_bytes)
    return images, labels


class TestMnistIdx:
    def test_hand_built_fixture_round_trips(self, tmp_path):
        images, labels = write_fixture_pair(tmp_path)
        ds = load_mnist_idx(images, labels)
        assert ds.n_samples == 2 and ds.n_features == 6
        np.testing.assert_array_equal(ds.features,
                                      PIXELS.reshape(2, 6).astype(float))
        np.testing.assert_array_equal(ds.labels, [3, 9])
        assert ds.n_classes == 10

    def test_reencoding_is_byte_exact(self, tmp_path):
        # encode the same data with the independent test writer and
        # compare raw bytes against the hand-packed layout
        images = tmp_path / "enc-images"
        labels = tmp_path / "enc-labels"
        write_idx_fixture(images, labels, PIXELS, LABELS)
        assert images.read_bytes() == IMAGE_BYTES
        assert labels.read_bytes() == LABEL_BYTES

    def test_corrupted_magic_is_typed_error(self, tmp_path):
        bad = struct.pack(">iiii", 2052, 2, 2, 3) + PIXELS.tobytes()
        images, labels = write_fixture_pair(tmp_path, image_bytes=bad)
        with pytest.raises(IdxMagicError):
            load_mnist_idx(images, labels)

    def test_truncated_payload_is_typed_error(self, tmp_path):
        images, labels = write_fixture_pair(tmp_path,
                                            image_bytes=IMAGE_BYTES[:-3])
        with pytest.raises(IdxTruncatedError):
            load_mnist_idx(images, labels)

    def test_trailing_garbage_is_typed_error(self, tmp_path):
        images, labels = write_fixture_pair(tmp_path,
                                            image_bytes=IMAGE_BYTES + b"x")
        with pytest.raises(IdxTruncatedError):
            load_mnist_idx(images, labels)

    def test_count_mismatch_is_typed_error(self, tmp_path):
        short = struct.pack(">ii", 2049, 1) + LABELS[:1].tobytes()
        images, labels = write_fixture_pair(tmp_path, label_bytes=short)
        with pytest.raises(IdxCountMismatchError):
            load_mnist_idx(images, labels)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mnist_idx(tmp_path / "nope", tmp_path / "nope2")

    @pytest.mark.skipif("RBMKIT_MNIST_DIR" not in os.environ,
                        reason="real MNIST files not available")
    def test_official_train_files_shape(self):
        root = os.environ["RBMKIT_MNIST_DIR"]
        ds = load_mnist_idx(os.path.join(root, "train-images-idx3-ubyte"),
                            os.path.join(root, "train-labels-idx1-ubyte"))
        assert ds.n_samples == 60_000
        assert ds.n_features == 784


def isolet_row(values, label):
    return ", ".join(f"{v:.4f}" for v in values) + f", {label}."


class TestIsoletCsv:
    def test_synthetic_row_exact_values(self, tmp_path):
        values = np.linspace(-1.0, 1.0, 617)
        path = tmp_path / "isolet.data"
        path.write_text(isolet_row(values, 1) + "\n" + isolet_row(-values, 26) + "\n")
        ds = load_isolet_csv(path)
        assert ds.n_samples == 2 and ds.n_features == 617
        np.testing.assert_allclose(ds.features[0], np.round(values, 4), atol=1e-12)
        np.testing.assert_array_equal(ds.labels, [0, 25])

    def test_class_count_is_26_whatever_the_rows_hold(self, tmp_path):
        path = tmp_path / "isolet.data"
        path.write_text(isolet_row(np.zeros(617), 1) + "\n"
                        + isolet_row(np.ones(617), 3) + "\n")
        ds = load_isolet_csv(path)
        assert ds.n_classes == 26
        assert minmax_normalize(ds).n_classes == 26

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "short.data"
        path.write_text(isolet_row(np.zeros(617), 1) + "\n" + "1.0, 2.0\n")
        with pytest.raises(CsvFormatError, match=":2:"):
            load_isolet_csv(path)

    def test_unparsable_number_names_line(self, tmp_path):
        row = isolet_row(np.zeros(617), 1).replace("0.0000", "zero", 1)
        path = tmp_path / "bad.data"
        path.write_text(row + "\n")
        with pytest.raises(CsvFormatError, match=":1:"):
            load_isolet_csv(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "label.data"
        path.write_text(isolet_row(np.zeros(617), 27) + "\n")
        with pytest.raises(CsvFormatError):
            load_isolet_csv(path)

    @pytest.mark.parametrize("label", ["0.6", "1.5", "3.4", "26.4"])
    def test_fractional_label_refused_naming_line(self, tmp_path, label):
        # once rounded to a class: 0.6 loaded as class 0, 3.4 as class 2
        features = ", ".join(["0.5"] * 617)
        path = tmp_path / "label.data"
        path.write_text(f"{features}, 2\n{features}, {label}\n")
        with pytest.raises(CsvFormatError,
                           match=f":2: class label {label} is not an integer in 1..26"):
            load_isolet_csv(path)

    def test_whole_number_labels_in_every_spelling_load(self, tmp_path):
        features = ", ".join(["0.5"] * 617)
        path = tmp_path / "label.data"
        path.write_text("".join(f"{features}, {label}\n"
                                for label in ("1.", "26", "26.0", "3")))
        np.testing.assert_array_equal(load_isolet_csv(path).labels, [0, 25, 25, 2])

    @pytest.mark.skipif("RBMKIT_ISOLET_TRAIN" not in os.environ,
                        reason="real ISOLET file not available")
    def test_official_train_file_shape(self):
        ds = load_isolet_csv(os.environ["RBMKIT_ISOLET_TRAIN"])
        assert ds.n_samples == 6238
        assert ds.n_features == 617


class TestDatasetClassCount:
    def test_defaults_to_unknown(self):
        assert Dataset(np.zeros((2, 1)), [0, 1]).n_classes is None

    @pytest.mark.parametrize("labels, n_classes", [([0, 3], 3), ([-1, 0], 2),
                                                   (None, 2)])
    def test_must_cover_the_labels(self, labels, n_classes):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), labels, n_classes=n_classes)

    @pytest.mark.parametrize("n_classes", [2.5, 2.0, True, "2"])
    def test_non_integer_rejected_naming_it(self, n_classes):
        with pytest.raises(ValueError, match="^n_classes must be an integer"):
            Dataset(np.zeros((2, 1)), [0, 1], n_classes=n_classes)

    def test_numpy_integer_stored_as_int(self):
        ds = Dataset(np.zeros((2, 1)), [0, 1], n_classes=np.int64(3))
        assert type(ds.n_classes) is int and ds.n_classes == 3

    def test_normalization_keeps_it(self):
        ds = minmax_normalize(Dataset(np.array([[0.0], [2.0]]), [0, 1], n_classes=5))
        assert ds.n_classes == 5
        assert minmax_normalize(ds, ds.normalization).n_classes == 5


class TestDatasetLabels:
    @pytest.mark.parametrize("labels", [[0.5, 1.7], [1.0, np.nan], [0.0, np.inf],
                                        [True, False], np.array([1, 0], bool)])
    def test_labels_that_are_not_whole_numbers_rejected(self, labels):
        # refused rather than truncated ([0.5, 1.7] would become [0, 1])
        with pytest.raises(ValueError, match="^labels must be whole numbers"):
            Dataset(np.zeros((2, 3)), labels)

    def test_whole_float_labels_kept(self):
        labels = Dataset(np.zeros((3, 1)), [2.0, 0.0, -0.0]).labels
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, [2, 0, 0])


class TestMinmaxNormalize:
    def test_byte_range_maps_to_unit_interval(self):
        ds = minmax_normalize(Dataset(np.array([[0.0], [255.0]])))
        np.testing.assert_array_equal(ds.features, [[0.0], [1.0]])
        assert ds.normalization.col_max[0] == 255.0

    def test_constant_column_maps_to_zero(self):
        ds = minmax_normalize(Dataset(np.array([[7.0], [7.0], [7.0]])))
        np.testing.assert_array_equal(ds.features, np.zeros((3, 1)))

    def test_test_values_above_train_max_clamp_to_one(self):
        train = minmax_normalize(Dataset(np.array([[0.0], [10.0]])))
        test = minmax_normalize(Dataset(np.array([[12.0], [-3.0]])),
                                train.normalization)
        np.testing.assert_array_equal(test.features, [[1.0], [0.0]])

    @pytest.mark.parametrize("reuse", [False, True], ids=["fresh", "reused-stats"])
    def test_bits_of_the_plain_formula_and_input_untouched(self, reuse):
        from rbmkit import NormStats
        rng = np.random.default_rng(3)
        features = rng.uniform(-5, 300, size=(50, 6))
        features[:, 2] = 4.0  # a constant column
        before = features.copy()
        stats = NormStats(features.min(axis=0) + 1.0, features.max(axis=0) - 2.0) \
            if reuse else None
        ds = Dataset(features)
        got = minmax_normalize(ds, stats)
        s = stats or got.normalization
        span = s.col_max - s.col_min
        want = (before - s.col_min) / np.where(span > 0, span, 1.0)
        want[:, span == 0] = 0.0
        if reuse:
            want = np.clip(want, 0.0, 1.0)
        assert np.array_equal(got.features, want)
        assert np.array_equal(ds.features, before)

    def test_idempotent_with_reused_stats(self):
        from rbmkit import NormStats
        rng = np.random.default_rng(0)
        ds = minmax_normalize(Dataset(rng.uniform(0, 9, size=(20, 4))))
        unit = NormStats(np.zeros(4), np.ones(4))
        again = minmax_normalize(Dataset(ds.features), stats=unit)
        np.testing.assert_allclose(again.features, ds.features, atol=1e-15)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            minmax_normalize(Dataset(np.zeros((0, 3))))

    def test_stats_of_another_width_rejected_naming_both(self):
        train = minmax_normalize(Dataset(np.zeros((2, 16))))
        with pytest.raises(ValueError, match=r"25 columns.*16 columns"):
            minmax_normalize(Dataset(np.zeros((3, 25))), train.normalization)


class TestModelJson:
    def test_rbm_round_trip_bit_exact(self, ref_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, ref_model)
        back = load_model(path)
        assert np.array_equal(back.w, ref_model.w)
        assert np.array_equal(back.a, ref_model.a)
        assert np.array_equal(back.b, ref_model.b)
        assert back.visible_kind == ref_model.visible_kind

    def test_subnormal_and_extreme_values_round_trip(self, tmp_path):
        p = RbmParams(np.array([[5e-324, -1.7976931348623157e308]]),
                      np.array([2.2250738585072014e-308]),
                      np.array([1e-17, 1.0000000000000002]))
        path = tmp_path / "model.json"
        save_model(path, p)
        back = load_model(path)
        assert back.w.tobytes() == p.w.tobytes()
        assert back.a.tobytes() == p.a.tobytes()
        assert back.b.tobytes() == p.b.tobytes()

    def test_dbn_round_trip_preserves_layer_order(self, ref_model, tmp_path):
        l1 = RbmParams(np.full((2, 3), 0.25), np.zeros(2), np.zeros(3))
        l2 = RbmParams(np.full((3, 1), -0.5), np.zeros(3), np.zeros(1))
        dbn = DbnModel([ref_model, l1, l2])
        path = tmp_path / "dbn.json"
        save_model(path, dbn)
        back = load_model(path)
        assert isinstance(back, DbnModel)
        assert back.n_layers == 3
        for orig, loaded in zip(dbn.layers, back.layers):
            assert np.array_equal(orig.w, loaded.w)

    def test_tampered_dimension_is_schema_error(self, ref_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, ref_model)
        doc = json.loads(path.read_text())
        doc["n_visible"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_top_label_units_mismatch_is_schema_error(self, ref_model, tmp_path):
        top = RbmParams(np.zeros((4, 2)), np.zeros(4), np.zeros(2), label_units=2)
        path = tmp_path / "dbn.json"
        save_model(path, DbnModel([ref_model, top]))
        doc = json.loads(path.read_text())
        doc["top_label_units"] = 7
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="top_label_units"):
            load_model(path)

    def test_unknown_visible_kind_named(self, tmp_path):
        doc = json.loads(RBM_JSON)
        doc["visible_kind"] = "poisson"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: unknown visible_kind 'poisson'"

    def test_version_mismatch_rejected(self, ref_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, ref_model)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="format_version"):
            load_model(path)

    def test_non_finite_value_rejected(self, ref_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, ref_model)
        doc = json.loads(path.read_text())
        doc["weights"][0] = "inf"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)

    # JSON numbers that int() would truncate, strings and booleans
    @pytest.mark.parametrize("kind, field, value", [
        ("rbm", "n_visible", 2.9), ("rbm", "n_hidden", "2"), ("rbm", "n_hidden", 2.0),
        ("rbm", "label_units", True), ("dbn", "top_label_units", 0.5)])
    def test_non_integer_count_names_the_field(self, tmp_path, kind, field, value):
        doc = json.loads(RBM_JSON if kind == "rbm" else DBN_JSON)
        doc[field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"{field} must be an integer"):
            load_model(path)

    @pytest.mark.parametrize("kind, field, index", [
        ("rbm", "weights", 0), ("rbm", "weights", 3), ("rbm", "visible_bias", 1),
        ("rbm", "hidden_bias", 0), ("dbn", "weights", 2)])
    def test_boolean_parameter_names_the_field(self, tmp_path, kind, field, index):
        doc = json.loads(RBM_JSON if kind == "rbm" else DBN_JSON)
        layer = doc if kind == "rbm" else doc["layers"][1]
        for value in (True, False):
            layer[field][index] = value
            path = tmp_path / "model.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(ModelFormatError, match=f"{field}: booleans"):
                load_model(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 1, "kind": "vae"}))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_golden_fixture_loads_to_pinned_values(self):
        back = load_model(os.path.join(FIXTURES, "model_golden.json"))
        expected = RbmParams(
            w=np.array([[0.125, -1.5], [3.0000000000000004e-16, 7.25]]),
            a=np.array([5e-324, -0.1]),
            b=np.array([0.0, 0.3]))
        assert back.w.tobytes() == expected.w.tobytes()
        assert back.a.tobytes() == expected.a.tobytes()
        assert back.b.tobytes() == expected.b.tobytes()


class TestWritePgm:
    def test_header_and_payload(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.array([[0.0, 0.5], [1.0, 0.25]]))
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert raw[-4:] == bytes([0, 128, 255, 64])


# ------------------------------------------------ loaders are total
#
# Mutated bytes of a valid input must give a value or a DataFormatError,
# never another exception. Each @example input pins one check a loader
# needs: without it, that input raises an untyped error.

SPLICES = [b"", b"0", b"-1", b"1e400", b"nan", b"inf", b"NaN", b"Infinity",
           b"9" * 400, b",", b"\n", b"\r", b" ", b"\xff", b"\x00", b'"',
           b"[", b"]", b"{", b"}", b":"]


@st.composite
def mutated(draw, base: bytes):
    """base with up to four spans replaced by tokens or random bytes."""
    data = bytearray(base)
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 8)))
        data[start:end] = draw(st.sampled_from(SPLICES) | st.binary(max_size=4))
    return bytes(data)


@st.composite
def idx_file(draw, magic: int, dims: list, payload: bytes,
             dim_ranges: list):
    """An IDX file whose header fields are redrawn within dim_ranges (so a
    loader that trusts them reads at most their product) and whose
    payload and tail are mutated."""
    magic = draw(st.just(magic) | st.integers(-2**31, 2**31 - 1))
    dims = [draw(st.just(d) | st.integers(lo, hi))
            for d, (lo, hi) in zip(dims, dim_ranges)]
    raw = struct.pack(f">{1 + len(dims)}i", magic, *dims) + draw(mutated(payload))
    return raw[:draw(st.integers(0, len(raw)))] if draw(st.booleans()) else raw


THREE_PIXELS = np.arange(12, dtype=np.uint8).tobytes()
THREE_IMAGES = struct.pack(">iiii", 2051, 3, 2, 2) + THREE_PIXELS
THREE_LABELS = struct.pack(">ii", 2049, 3) + bytes([1, 2, 3])
# at most 64 * 128 * 128 bytes = 1 MiB of promised payload
IMAGE_DIMS = [(-1, 64), (-1, 128), (-1, 128)]
LABEL_DIMS = [(-1, 64)]

RBM_JSON = json.dumps({
    "format_version": 1, "kind": "rbm", "visible_kind": "binary",
    "n_visible": 2, "n_hidden": 2, "label_units": 0,
    "weights": ["0.5", "-1", "0.25", "2"], "visible_bias": ["0.1", "0"],
    "hidden_bias": ["0", "-0.3"]}, indent=1)
DBN_JSON = json.dumps({
    "format_version": 1, "kind": "dbn", "top_label_units": 0,
    "layers": [{k: v for k, v in json.loads(RBM_JSON).items()
                if k not in ("format_version", "kind")}] * 2}, indent=1)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@st.composite
def model_json(draw):
    """A model file with one field swapped for any JSON value, then with
    its bytes mutated."""
    doc = json.loads(draw(st.sampled_from([RBM_JSON, DBN_JSON])))
    target = doc
    if doc["kind"] == "dbn" and draw(st.booleans()):
        target = doc["layers"][draw(st.integers(0, 1))]
    key = draw(st.sampled_from(sorted(target)))
    if isinstance(target[key], list) and target[key] and draw(st.booleans()):
        target[key][draw(st.integers(0, len(target[key]) - 1))] = draw(JSON_VALUES)
    elif draw(st.booleans()):
        target[key] = draw(JSON_VALUES)
    return draw(mutated(json.dumps(doc, indent=1).encode()))


COUNT_FIELDS = ("n_visible", "n_hidden", "label_units")


def header_counts(doc: dict) -> list:
    """Every count in a model document as written; absent label counts
    read as 0."""
    layers = doc["layers"] if doc["kind"] == "dbn" else [doc]
    counts = [layer.get(name, 0) for layer in layers for name in COUNT_FIELDS]
    return counts + ([doc.get("top_label_units", 0)] if doc["kind"] == "dbn" else [])


def model_counts(model) -> list:
    """header_counts of the file save_model would write for model."""
    layers = model.layers if isinstance(model, DbnModel) else [model]
    counts = [getattr(layer, name) for layer in layers for name in COUNT_FIELDS]
    return counts + ([model.top_label_units] if isinstance(model, DbnModel) else [])


ISOLET_ROWS = "\n".join(isolet_row(np.linspace(-1.0, 1.0, 617) * sign, label)
                        for sign, label in ((1, 1), (-1, 26))) + "\n"


def with_last_field(text: str, field: str) -> bytes:
    head, _, _ = text.splitlines()[0].rpartition(",")
    return f"{head},{field}\n".encode()


def load_bytes(loader, *contents):
    """loader applied to files holding contents; a value or a typed error."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, raw in enumerate(contents):
            paths.append(os.path.join(tmp, f"input{i}"))
            with open(paths[-1], "wb") as fh:
                fh.write(raw)
        try:
            return loader(*paths)
        except DataFormatError:
            return None


class TestLoadersAreTotal:
    @settings(max_examples=200, deadline=None)
    @given(idx_file(2051, [3, 2, 2], THREE_PIXELS, IMAGE_DIMS),
           idx_file(2049, [3], bytes([1, 2, 3]), LABEL_DIMS))
    # dimension product past 2**63: int64 wraps to a negative read length
    @example(struct.pack(">iiii", 2051, 2**31 - 1, 2**31 - 1, 3) + THREE_PIXELS,
             THREE_LABELS)
    # a positive product far larger than the file (about 64 TB)
    @example(bytes.fromhex("00000803 00240003 00ce0002 00000002") + THREE_PIXELS,
             THREE_LABELS)
    # zero images of 2**62 pixels each: no float64 array that shape exists
    @example(struct.pack(">iiii", 2051, 0, 2**31 - 1, 2**31 - 1),
             struct.pack(">ii", 2049, 0))
    def test_mutated_idx_pair(self, images, labels):
        ds = load_bytes(load_mnist_idx, images, labels)
        if ds is not None:
            assert ds.labels.shape == (ds.n_samples,)
            assert np.all((ds.features >= 0) & (ds.features <= 255))

    @settings(max_examples=200, deadline=None)
    @given(mutated(ISOLET_ROWS.encode()))
    @example(with_last_field(ISOLET_ROWS, "inf"))
    @example(with_last_field(ISOLET_ROWS, "nan"))
    @example(b"nan," + with_last_field(ISOLET_ROWS, "1").split(b",", 1)[1])
    @example(b"\xff" + ISOLET_ROWS.encode())
    def test_mutated_isolet_csv(self, raw):
        ds = load_bytes(load_isolet_csv, raw)
        if ds is not None:
            assert ds.n_features == 617
            assert np.all((ds.labels >= 0) & (ds.labels <= 25))

    @settings(max_examples=200, deadline=None)
    @given(model_json())
    @example(b"\xff" + RBM_JSON.encode())
    @example(RBM_JSON.replace('"n_visible": 2', '"n_visible": 1e400').encode())
    @example(RBM_JSON.replace('"0.5"', "9" * 400).encode())
    # past Python's integer digit limit json raises a bare ValueError
    @example(RBM_JSON.replace('"n_visible": 2', '"n_visible": ' + "9" * 5000).encode())
    # counts that int() would silently truncate or coerce
    @example(RBM_JSON.replace('"n_visible": 2', '"n_visible": 2.9').encode())
    @example(RBM_JSON.replace('"n_hidden": 2', '"n_hidden": "2"').encode())
    @example(RBM_JSON.replace('"label_units": 0', '"label_units": true').encode())
    @example(DBN_JSON.replace('"label_units": 0', '"label_units": false', 1).encode())
    @example(DBN_JSON.replace('"top_label_units": 0', '"top_label_units": 0.5').encode())
    def test_mutated_model_json(self, raw):
        model = load_bytes(load_model, raw)
        assert model is None or isinstance(model, (RbmParams, DbnModel))
        if model is not None:
            # every count loaded is the JSON integer the file holds
            counts = header_counts(json.loads(raw.decode("utf-8")))
            assert [type(c) for c in counts] == [int] * len(counts)
            assert counts == model_counts(model)
