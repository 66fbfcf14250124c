"""Binary file formats, CSV fallback, bundle directories."""

import io
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fusehash import storage

from fusehash import (
    build_center_table,
    fuse_encode_fixed,
    generate_synthetic,
    load_bundle,
    load_centers,
    load_codes,
    load_features,
    load_model,
    pack_codes,
    sign_to_pm1,
    store_bundle,
    store_centers,
    store_codes,
    store_features,
    store_model,
)
from fusehash import SynthSpec
from fusehash.exceptions import (
    CorruptFileError,
    InvalidParameterError,
    NumericalError,
    ShapeError,
)
from fusehash.kernel import AnchorSet
from fusehash.storage import load_labels, read_manifest
from fusehash.training import TrainedModel


def small_spec():
    return SynthSpec(
        num_classes=4,
        samples_per_class=20,
        modality_dims=(6, 3),
        cluster_spread=0.3,
        seed=5,
    )


class TestFeatureFiles:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((7, 13))
        path = tmp_path / "feats.amfh"
        store_features(mat, path)
        np.testing.assert_array_equal(load_features(path), mat)

    @pytest.mark.parametrize(
        "mat",
        [np.zeros((0, 4)), np.zeros((3, 0)), np.asfortranarray(np.arange(12.0).reshape(3, 4))],
        ids=["no-rows", "no-columns", "fortran-order"],
    )
    def test_roundtrip_edge_layouts(self, tmp_path, mat):
        path = tmp_path / "feats.amfh"
        store_features(mat, path)
        loaded = load_features(path)
        assert loaded.shape == mat.shape
        np.testing.assert_array_equal(loaded, mat)

    def test_store_and_load_copy_the_matrix_at_most_once(self, tmp_path):
        """Storing writes the matrix where it lies; loading copies the file's
        bytes once into the result. Both peaks stay within 2.05x the matrix."""
        mat = np.random.default_rng(1).standard_normal((256, 2000))
        path = tmp_path / "feats.amfh"
        peaks = []
        for step in (lambda: store_features(mat, path), lambda: load_features(path)):
            tracemalloc.start()
            try:
                step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 2.05 * mat.nbytes
        np.testing.assert_array_equal(load_features(path), mat)

    def test_rejects_non_matrix(self, tmp_path):
        with pytest.raises(ShapeError):
            store_features(np.zeros(5), tmp_path / "bad.amfh")

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "feats.amfh"
        store_features(np.ones((3, 4)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(CorruptFileError):
            load_features(path)

    def test_flipped_byte_detected(self, tmp_path):
        path = tmp_path / "feats.amfh"
        store_features(np.ones((3, 4)), path)
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFileError, match="checksum"):
            load_features(path)

    def test_kind_tag_mismatch_detected(self, tmp_path):
        path = tmp_path / "codes.amfh"
        store_codes(np.ones((8, 2), dtype=np.int8), path)
        with pytest.raises(CorruptFileError, match="kind"):
            load_features(path)

    def test_interrupted_write_keeps_previous_file(self, tmp_path, monkeypatch):
        """A write that fails halfway leaves the old file loadable and no temp file."""

        class HalfWrite(io.FileIO):
            def write(self, data):
                super().write(bytes(data)[: len(data) // 2])
                raise OSError("disk full")

        path = tmp_path / "feats.amfh"
        previous = np.arange(12.0).reshape(3, 4)
        store_features(previous, path)
        monkeypatch.setattr(storage, "open", HalfWrite, raising=False)
        with pytest.raises(OSError, match="disk full"):
            store_features(np.ones((5, 5)), path)
        monkeypatch.undo()
        np.testing.assert_array_equal(load_features(path), previous)  # CRC checked on load
        assert list(tmp_path.iterdir()) == [path]

    def test_csv_fallback_transposes_rows_to_columns(self, tmp_path):
        path = tmp_path / "feats.csv"
        path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        mat = load_features(path)
        np.testing.assert_array_equal(mat, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])

    def test_csv_garbage_rejected(self, tmp_path):
        path = tmp_path / "feats.csv"
        path.write_text("one,two\nthree,four\n")
        with pytest.raises(CorruptFileError):
            load_features(path)


def with_set_bit(path, offset, mask):
    """Set bits of one payload byte and recompute the file's CRC-32."""
    blob = bytearray(path.read_bytes())
    blob[offset] |= mask
    body = bytes(blob[:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


class TestCodeFiles:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        for code_length in (1, 7, 8, 13, 64):
            codes = sign_to_pm1(rng.standard_normal((code_length, 9)))
            path = tmp_path / f"codes{code_length}.amfh"
            store_codes(codes, path)
            np.testing.assert_array_equal(load_codes(path), codes)

    def test_known_payload_bytes(self, tmp_path):
        """One column (+1, -1 x7) packs LSB-first into the byte 0x01."""
        codes = np.full((8, 1), -1, dtype=np.int8)
        codes[0, 0] = 1
        path = tmp_path / "one.amfh"
        store_codes(codes, path)
        blob = path.read_bytes()
        # 4 magic + 3 header + 8 code_length + 8 count, then the packed column
        assert blob[23] == 0x01

    def test_rejects_non_sign_entries(self, tmp_path):
        from fusehash.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            store_codes(np.zeros((4, 2), dtype=np.int8), tmp_path / "bad.amfh")

    def test_set_padding_bit_rejected(self, tmp_path):
        """r = 3 leaves five padding bits per byte; one set bit rejects the file."""
        path = tmp_path / "codes.amfh"
        store_codes(np.ones((3, 4), dtype=np.int8), path)
        load_codes(path)
        # 4 magic + 3 header + 8 code_length + 8 count, then one byte per column
        with_set_bit(path, 23 + 2, 0x08)
        with pytest.raises(CorruptFileError, match="padding"):
            load_codes(path)

    def test_highest_padding_bit_rejected(self, tmp_path):
        path = tmp_path / "codes.amfh"
        store_codes(-np.ones((13, 2), dtype=np.int8), path)
        # two bytes per column; the second byte of the first column holds bits 8..15
        with_set_bit(path, 23 + 1, 0x80)
        with pytest.raises(CorruptFileError, match="padding"):
            load_codes(path)


class TestCenterFiles:
    def test_roundtrip_exact_table(self, tmp_path):
        table = build_center_table(16, 10, seed=3)
        path = tmp_path / "centers.amfh"
        store_centers(table, path)
        loaded = load_centers(path)
        np.testing.assert_array_equal(loaded.centers, table.centers)
        assert loaded.code_length == table.code_length
        assert loaded.num_categories == table.num_categories
        assert loaded.seed == table.seed
        assert loaded.hadamard_order == table.hadamard_order
        assert loaded.is_exact == table.is_exact

    def test_roundtrip_redimensioned_table(self, tmp_path):
        table = build_center_table(48, 20, seed=1)
        assert not table.is_exact
        path = tmp_path / "centers.amfh"
        store_centers(table, path)
        loaded = load_centers(path)
        np.testing.assert_array_equal(loaded.centers, table.centers)
        assert not loaded.is_exact

    def test_set_padding_bit_rejected_in_centers(self, tmp_path):
        table = build_center_table(12, 3, seed=0)
        path = tmp_path / "centers.amfh"
        store_centers(table, path)
        load_centers(path)
        # 4 magic + 3 header + four u64 + one u8, then two bytes per center
        with_set_bit(path, 40 + 1, 0x10)
        with pytest.raises(CorruptFileError, match="padding"):
            load_centers(path)


class TestModelFiles:
    def test_roundtrip_encodes_identically(self, tmp_path, standard_bundle, trained_standard):
        model, _ = trained_standard
        path = tmp_path / "model.amfh"
        store_model(model, path)
        loaded = load_model(path)
        assert loaded.num_modalities == model.num_modalities
        assert loaded.code_length == model.code_length
        assert loaded.delta == model.delta
        np.testing.assert_array_equal(loaded.train_weights, model.train_weights)
        for m in range(model.num_modalities):
            np.testing.assert_array_equal(loaded.projections[m], model.projections[m])
            np.testing.assert_array_equal(
                loaded.anchor_sets[m].anchors, model.anchor_sets[m].anchors
            )
            assert loaded.anchor_sets[m].kernel_width == model.anchor_sets[m].kernel_width
        feats = standard_bundle.features_at(standard_bundle.query_indices)
        np.testing.assert_array_equal(
            fuse_encode_fixed(loaded, feats), fuse_encode_fixed(model, feats)
        )

    def test_store_writes_the_arrays_where_they_lie(self, tmp_path):
        """C-order float64 weights, anchors and projections are written
        without a copy; another layout writes the same bytes."""
        rng = np.random.default_rng(2)
        anchors = [rng.standard_normal((256, 1000)), rng.standard_normal((64, 1000))]
        projections = [rng.standard_normal((64, 1000)) for _ in anchors]

        def model(layout):
            return TrainedModel(
                projections=[layout(p) for p in projections],
                anchor_sets=[AnchorSet(layout(a), 1.5) for a in anchors],
                train_weights=np.array([0.25, 0.75]),
                delta=0.5,
            )

        c_order, fortran = model(np.ascontiguousarray), model(np.asfortranarray)
        path = tmp_path / "model.amfh"
        tracemalloc.start()
        try:
            store_model(c_order, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * anchors[1].nbytes
        stored = path.read_bytes()
        store_model(fortran, path)
        assert path.read_bytes() == stored
        loaded = load_model(path)
        for m, a in enumerate(anchors):
            np.testing.assert_array_equal(loaded.anchor_sets[m].anchors, a)
            np.testing.assert_array_equal(loaded.projections[m], projections[m])

    def test_loaded_model_drops_training_history(self, tmp_path, trained_standard):
        model, _ = trained_standard
        path = tmp_path / "model.amfh"
        store_model(model, path)
        loaded = load_model(path)
        assert loaded.objective_trace == []
        assert loaded.converged


class TestBundleDirectories:
    def test_roundtrip(self, tmp_path):
        bundle = generate_synthetic(small_spec())
        store_bundle(bundle, tmp_path / "bundle")
        loaded = load_bundle(tmp_path / "bundle")
        for a, b in zip(loaded.modalities, bundle.modalities):
            np.testing.assert_array_equal(a, b)
        assert loaded.labels == bundle.labels
        np.testing.assert_array_equal(loaded.train_indices, bundle.train_indices)
        np.testing.assert_array_equal(loaded.query_indices, bundle.query_indices)
        np.testing.assert_array_equal(loaded.retrieval_indices, bundle.retrieval_indices)

    def test_manifest_contents(self, tmp_path):
        bundle = generate_synthetic(small_spec())
        store_bundle(bundle, tmp_path / "bundle")
        manifest = read_manifest(tmp_path / "bundle")
        assert manifest == {"num_modalities": 2, "num_samples": 80}

    @pytest.mark.parametrize("extra", ["", "num_classes=4\n"])
    def test_manifest_loads_with_or_without_a_class_count(self, tmp_path, extra):
        """Older bundles carry ``num_classes``; it is neither needed nor read."""
        bundle = generate_synthetic(small_spec())
        store_bundle(bundle, tmp_path / "bundle")
        (tmp_path / "bundle" / "manifest.txt").write_text(
            f"num_modalities=2\nnum_samples=80\n{extra}"
        )
        loaded = load_bundle(tmp_path / "bundle")
        assert loaded.labels == bundle.labels

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(CorruptFileError, match="manifest"):
            load_bundle(tmp_path)

    def test_malformed_manifest_rejected(self, tmp_path):
        bundle = generate_synthetic(small_spec())
        store_bundle(bundle, tmp_path / "bundle")
        (tmp_path / "bundle" / "manifest.txt").write_text("num_modalities two\n")
        with pytest.raises(CorruptFileError):
            load_bundle(tmp_path / "bundle")

    def test_sample_count_mismatch_rejected(self, tmp_path):
        bundle = generate_synthetic(small_spec())
        store_bundle(bundle, tmp_path / "bundle")
        manifest = tmp_path / "bundle" / "manifest.txt"
        manifest.write_text(
            manifest.read_text().replace("num_samples=80", "num_samples=81")
        )
        with pytest.raises(CorruptFileError, match="samples"):
            load_bundle(tmp_path / "bundle")

    def test_multi_label_lines_roundtrip(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 2\n1\n\n3 0 2\n")
        assert load_labels(path) == [{0, 2}, {1}, set(), {0, 2, 3}]

    def test_malformed_label_line_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 x\n")
        with pytest.raises(CorruptFileError):
            load_labels(path)


def framed(kind, payload, version=storage.FORMAT_VERSION):
    """An AMFH file around ``payload`` with a valid CRC-32."""
    body = storage.MAGIC + storage._HEADER.pack(kind, version) + payload
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def model_payload(num_modalities, bits, num_anchors, dim=2, delta=1e-3, weights=None,
                  widths=None, anchors=None, projections=None):
    """A kind-3 payload whose arrays match its header: ``dim``-dimensional
    anchors of ones and projections of ones unless given, weights of
    ``1/M`` and widths of 1.5 unless given."""
    if weights is None:
        weights = [1.0 / max(num_modalities, 1)] * num_modalities
    payload = struct.pack("<QQQd", num_modalities, bits, num_anchors, delta)
    payload += np.array(weights, dtype="<f8").tobytes()
    for m in range(num_modalities):
        width = 1.5 if widths is None else widths[m]
        payload += struct.pack("<QdQ", dim, width, 0)
        anchor_values = np.ones(dim * num_anchors) if anchors is None else anchors[m]
        proj_values = np.ones(bits * num_anchors) if projections is None else projections[m]
        payload += np.asarray(anchor_values, dtype="<f8").tobytes()
        payload += np.asarray(proj_values, dtype="<f8").tobytes()
    return payload


class TestFrameRejections:
    """Each check of the frame and of the payload's declared sizes, on a file
    whose CRC is valid, so the check itself is what rejects it."""

    def test_too_short(self, tmp_path):
        path = tmp_path / "short.amfh"
        path.write_bytes(storage.MAGIC + b"\x02")
        with pytest.raises(CorruptFileError, match="too short"):
            load_codes(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "magic.amfh"
        path.write_bytes(b"AMFX" + framed(storage.KIND_CODES, b"")[4:])
        with pytest.raises(CorruptFileError, match="bad magic"):
            load_codes(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "version.amfh"
        path.write_bytes(framed(storage.KIND_FEATURES, struct.pack("<QQ", 0, 0), version=2))
        with pytest.raises(CorruptFileError, match="unsupported format version 2"):
            load_features(path)

    @pytest.mark.parametrize(
        "shape, values, message",
        [((3, 4), 1, "shorter"), ((1, 1), 2, "longer")],
        ids=["shorter", "longer"],
    )
    def test_payload_size_differs_from_its_header(self, tmp_path, shape, values, message):
        path = tmp_path / "feats.amfh"
        payload = struct.pack("<QQ", *shape) + np.ones(values).tobytes()
        path.write_bytes(framed(storage.KIND_FEATURES, payload))
        name = re.escape(str(path))
        with pytest.raises(CorruptFileError, match=f"^{name}: payload {message} than"):
            load_features(path)

    def test_non_positive_code_length(self, tmp_path):
        path = tmp_path / "codes.amfh"
        path.write_bytes(framed(storage.KIND_CODES, struct.pack("<QQ", 0, 0)))
        with pytest.raises(CorruptFileError, match="non-positive code length"):
            load_codes(path)

    @pytest.mark.parametrize("dims", [(0, 2), (8, 0)], ids=["no-bits", "no-categories"])
    def test_non_positive_center_dimensions(self, tmp_path, dims):
        path = tmp_path / "centers.amfh"
        path.write_bytes(framed(storage.KIND_CENTERS, struct.pack("<QQQQB", *dims, 0, 8, 1)))
        with pytest.raises(CorruptFileError, match="non-positive center dimensions"):
            load_centers(path)

    @pytest.mark.parametrize(
        "order, exact", [(16, 1), (8, 0), (8, 2)], ids=["order", "flag", "flag-byte"]
    )
    def test_center_header_contradicting_its_columns(self, tmp_path, order, exact):
        """8 x 3 centers come from order 8 and are exact; a header that says
        otherwise is corrupt, not a table to audit against another bound."""
        table = build_center_table(8, 3, seed=0)
        packed = np.ascontiguousarray(pack_codes(table.centers).T).tobytes()
        path = tmp_path / "centers.amfh"
        path.write_bytes(
            framed(storage.KIND_CENTERS, struct.pack("<QQQQB", 8, 3, 0, order, exact) + packed)
        )
        with pytest.raises(CorruptFileError, match=f"^{re.escape(str(path))}: header gives"):
            load_centers(path)

    @pytest.mark.parametrize(
        "dims, message",
        [
            ((0, 4, 3), "model has no modalities"),
            ((1, 0, 3), "projection shape (0, 3) is not (r, p) with r >= 1"),
            ((1, 4, 0), "anchors of shape (2, 0) are not a (d, p) matrix with d, p >= 1"),
        ],
        ids=["modalities", "bits", "anchors"],
    )
    def test_non_positive_model_dimensions(self, tmp_path, dims, message):
        """A file whose arrays match its header, so the model's constructor is
        what rejects the dimension."""
        path = tmp_path / "model.amfh"
        path.write_bytes(framed(storage.KIND_MODEL, model_payload(*dims)))
        with pytest.raises(CorruptFileError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_model(path)

    def test_non_positive_anchor_dimensionality(self, tmp_path):
        path = tmp_path / "model.amfh"
        path.write_bytes(framed(storage.KIND_MODEL, model_payload(1, 4, 3, dim=0)))
        message = f"{path}: anchors of shape (0, 3) are not a (d, p) matrix with d, p >= 1"
        with pytest.raises(CorruptFileError, match=f"^{re.escape(message)}$"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["features", "model"])
    def test_empty_matrix_with_a_side_numpy_cannot_hold(self, tmp_path, kind):
        """0 x (2**64 - 1) values fit in no bytes, but numpy cannot shape
        them; the file is corrupt, not a ``ValueError`` from ``reshape``."""
        path = tmp_path / f"{kind}.amfh"
        if kind == "features":
            path.write_bytes(framed(storage.KIND_FEATURES, struct.pack("<QQ", 0, 2**64 - 1)))
        else:
            path.write_bytes(framed(storage.KIND_MODEL, model_payload(1, 0, 2**64 - 1, dim=0)))
        message = f"{path}: array shape (0, {2**64 - 1}) too large"
        with pytest.raises(CorruptFileError, match=f"^{re.escape(message)}$"):
            (load_features if kind == "features" else load_model)(path)


class TestStoreModelShapes:
    """A model whose shapes disagree is rejected when it is built, so no
    store can write a file that ``load_model`` would reject."""

    def model(self, projections, anchors, weights=None):
        return TrainedModel(
            projections=projections,
            anchor_sets=[AnchorSet(a, 1.5) for a in anchors],
            train_weights=(
                np.full(len(projections), 1.0 / max(len(projections), 1))
                if weights is None else weights
            ),
            delta=1e-3,
        )

    def test_no_modalities(self):
        with pytest.raises(ShapeError, match="^model has no modalities$"):
            self.model([], [])

    def test_projections_of_different_shapes(self):
        with pytest.raises(ShapeError, match=r"projection shape \(4, 5\) differs from \(4, 3\)"):
            self.model([np.ones((4, 3)), np.ones((4, 5))], [np.ones((2, 3)), np.ones((2, 5))])

    def test_weight_count_differs_from_the_modalities(self):
        """Three weights for two modalities would write a file that
        ``load_model`` rejects as shorter than its header declares."""
        with pytest.raises(ShapeError, match=r"train weights of shape \(3,\) for 2 modalities"):
            self.model([np.ones((4, 3))] * 2, [np.ones((2, 3))] * 2, np.array([0.2, 0.3, 0.5]))

    def test_anchor_count_differs_from_the_projections(self):
        with pytest.raises(ShapeError, match="anchor set 0 holds 5 anchors, expected 3"):
            self.model([np.ones((4, 3))], [np.ones((2, 5))])

    def test_anchor_set_count_differs_from_the_projections(self):
        with pytest.raises(ShapeError, match="^1 anchor sets for 2 projections$"):
            self.model([np.ones((4, 3))] * 2, [np.ones((2, 3))], np.array([0.5, 0.5]))


class TestModelValues:
    """A model whose train weights, kernel widths or delta are not finite and
    positive encodes garbage (NaN weights give all -1 codes, an infinite
    width all +1): it is neither written nor loaded."""

    CASES = [
        ("weights", [np.nan, np.nan], "modality 0 train weight nan"),
        ("weights", [0.0, 1.0], "modality 0 train weight 0.0"),
        ("weights", [-0.5, 1.5], "modality 0 train weight -0.5"),
        ("weights", [np.inf, 1.0], "modality 0 train weight inf"),
        ("widths", [1.5, np.inf], "modality 1 kernel width inf"),
        ("widths", [np.nan, 1.5], "modality 0 kernel width nan"),
        ("widths", [1.5, 0.0], "modality 1 kernel width 0.0"),
        ("delta", 0.0, "delta 0.0"),
        ("delta", -1e-3, "delta -0.001"),
        ("delta", np.inf, "delta inf"),
    ]
    IDS = [f"{field}-{message.split()[-1]}" for field, _, message in CASES]

    @staticmethod
    def values(field, value):
        values = {"weights": [0.25, 0.75], "widths": [1.5, 2.0], "delta": 1e-3}
        values[field] = value
        return values

    @pytest.mark.parametrize("field, value, message", CASES, ids=IDS)
    def test_load_rejects_the_file(self, tmp_path, field, value, message):
        values = self.values(field, value)
        payload = model_payload(
            2, 4, 3, delta=values["delta"], weights=values["weights"], widths=values["widths"]
        )
        path = tmp_path / "model.amfh"
        path.write_bytes(framed(storage.KIND_MODEL, payload))
        expected = f"^{re.escape(f'{path}: {message} is not finite and positive')}$"
        with pytest.raises(CorruptFileError, match=expected):
            load_model(path)

    @pytest.mark.parametrize("field, value, message", CASES, ids=IDS)
    def test_store_rejects_the_model_before_writing(self, field, value, message):
        """The model is rejected when it is built, before any store."""
        values = self.values(field, value)
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)} is not finite"):
            TrainedModel(
                projections=[np.ones((4, 3)), np.ones((4, 3))],
                anchor_sets=[
                    AnchorSet(np.ones((2, 3)), width, modality_index=m)
                    for m, width in enumerate(values["widths"])
                ],
                train_weights=np.array(values["weights"]),
                delta=values["delta"],
            )

    @pytest.mark.parametrize("modality", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("array", ["anchors", "projections"])
    def test_load_rejects_non_finite_arrays(self, tmp_path, array, bad, modality):
        """Such a model would load and then fail every encode."""
        values = [np.ones(2 * 3), np.ones(4 * 3)]
        arrays = {"anchors": [values[0].copy(), values[0].copy()],
                  "projections": [values[1].copy(), values[1].copy()]}
        arrays[array][modality][4] = bad
        path = tmp_path / "model.amfh"
        path.write_bytes(framed(storage.KIND_MODEL, model_payload(2, 4, 3, **arrays)))
        noun = "anchors" if array == "anchors" else "projection entries"
        message = f"{path}: modality {modality} {noun} hold a NaN or an infinity"
        with pytest.raises(CorruptFileError, match=f"^{re.escape(message)}$"):
            load_model(path)


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
UNUSABLE = st.floats(max_value=0.0) | st.sampled_from([np.nan, np.inf])


@st.composite
def model_fields(draw):
    """The fields of a valid model: finite arrays of agreeing shapes, and
    finite, positive weights, widths and delta."""
    count = draw(st.integers(1, 3))
    bits, num_anchors = draw(st.integers(1, 6)), draw(st.integers(1, 5))

    def matrix(rows):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        return draw(hnp.arrays(np.float64, (rows, num_anchors), elements=finite))

    return {
        "projections": [matrix(bits) for _ in range(count)],
        "anchors": [matrix(draw(st.integers(1, 4))) for _ in range(count)],
        "widths": draw(st.lists(POSITIVE, min_size=count, max_size=count)),
        "seeds": draw(st.lists(st.integers(0, 2**64 - 1), min_size=count, max_size=count)),
        "weights": np.array(draw(st.lists(POSITIVE, min_size=count, max_size=count))),
        "delta": draw(POSITIVE),
    }


def build_model(fields):
    return TrainedModel(
        projections=fields["projections"],
        anchor_sets=[
            AnchorSet(a, width, seed=seed)
            for a, width, seed in zip(fields["anchors"], fields["widths"], fields["seeds"])
        ],
        train_weights=fields["weights"],
        delta=fields["delta"],
    )


class TestModelInvariant:
    """A model checks itself when it is built, and storage only serializes:
    whatever builds stores and reloads unchanged, and no single bad field
    builds."""

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(fields=model_fields())
    def test_every_model_that_builds_stores_and_reloads_equal(self, tmp_path, fields):
        model = build_model(fields)
        path = tmp_path / "model.amfh"
        store_model(model, path)
        loaded = load_model(path)
        assert loaded.delta == model.delta
        assert loaded.train_weights.tobytes() == model.train_weights.tobytes()
        for got, want in zip(loaded.projections, model.projections):
            assert got.tobytes() == want.tobytes()  # -0.0 stays -0.0
        for m, (got, want) in enumerate(zip(loaded.anchor_sets, model.anchor_sets)):
            assert got.anchors.tobytes() == want.anchors.tobytes()
            assert (got.kernel_width, got.seed, got.modality_index) == (
                want.kernel_width, want.seed, m
            )
        stored = path.read_bytes()
        store_model(loaded, path)
        assert path.read_bytes() == stored

    # The error each single-field corruption of ``corrupt`` must raise.
    CORRUPTIONS = {
        "weight": InvalidParameterError,
        "width": InvalidParameterError,
        "delta": InvalidParameterError,
        "weight-count": ShapeError,
        "anchor-set-count": ShapeError,
        "projection-columns": ShapeError,
        "anchor-columns": ShapeError,
        "no-code-bits": ShapeError,
        "nan-anchor": NumericalError,
        "nan-projection": NumericalError,
    }

    @staticmethod
    def corrupt(fields, name, m, bad):
        """Break one field of ``fields``, at modality ``m`` where it has one;
        ``bad`` is a value that is not finite and positive."""
        anchors, projections = fields["anchors"], fields["projections"]
        if name == "weight":
            fields["weights"][m] = bad
        elif name == "width":
            fields["widths"][m] = bad
        elif name == "delta":
            fields["delta"] = bad
        elif name == "weight-count":
            fields["weights"] = np.append(fields["weights"], 0.5)
        elif name == "anchor-set-count":
            for key in ("anchors", "widths", "seeds"):
                del fields[key][m]
        elif name == "projection-columns":
            projections[m] = np.hstack([projections[m], projections[m][:, :1]])
        elif name == "anchor-columns":
            anchors[m] = np.hstack([anchors[m], anchors[m][:, :1]])
        elif name == "no-code-bits":
            fields["projections"] = [proj[:0] for proj in projections]
        elif name == "nan-anchor":
            anchors[m].flat[0] = np.nan
        elif name == "nan-projection":
            projections[m].flat[0] = np.nan

    @pytest.mark.parametrize("corruption", list(CORRUPTIONS))
    @settings(max_examples=30, deadline=None)
    @given(fields=model_fields(), data=st.data())
    def test_each_single_field_corruption_fails_at_construction(self, corruption, fields, data):
        modality = data.draw(st.integers(0, len(fields["projections"]) - 1))
        self.corrupt(fields, corruption, modality, data.draw(UNUSABLE))
        with pytest.raises(self.CORRUPTIONS[corruption]):
            build_model(fields)


class TestBundleRejections:
    @pytest.fixture
    def bundle_dir(self, tmp_path):
        store_bundle(generate_synthetic(small_spec()), tmp_path / "bundle")
        return tmp_path / "bundle"

    def test_non_integer_manifest_value(self, bundle_dir):
        (bundle_dir / "manifest.txt").write_text("num_modalities=two\nnum_samples=80\n")
        with pytest.raises(CorruptFileError, match="non-integer manifest value"):
            load_bundle(bundle_dir)

    def test_manifest_misses_a_key(self, bundle_dir):
        (bundle_dir / "manifest.txt").write_text("# comment\n\nnum_modalities=2\n")
        with pytest.raises(CorruptFileError, match="misses key 'num_samples'"):
            load_bundle(bundle_dir)

    @pytest.mark.parametrize(
        "manifest, key, count",
        [
            ("num_modalities=0\nnum_samples=80\n", "num_modalities", 0),
            ("num_modalities=-1\nnum_samples=80\n", "num_modalities", -1),
            ("num_modalities=2\nnum_samples=0\n", "num_samples", 0),
        ],
        ids=["no-modalities", "negative-modalities", "no-samples"],
    )
    def test_manifest_count_below_one(self, bundle_dir, manifest, key, count):
        """A bundle with no modalities would load, and fail later on a
        parameter its user never set."""
        (bundle_dir / "manifest.txt").write_text(manifest)
        message = f"{bundle_dir / 'manifest.txt'}: {key} must be at least 1, got {count}"
        with pytest.raises(CorruptFileError, match=f"^{re.escape(message)}$"):
            load_bundle(bundle_dir)

    def test_malformed_split_index(self, bundle_dir):
        (bundle_dir / "split.query.txt").write_text("0\n1.5\n")
        with pytest.raises(CorruptFileError, match="malformed split index"):
            load_bundle(bundle_dir)

    @pytest.mark.parametrize("index", [-1, 80, 999, 2**70], ids=["-1", "80", "999", "2**70"])
    def test_split_index_outside_the_samples(self, bundle_dir, index):
        """-1 would select the last sample and 999 would fail on indexing:
        every index must lie in [0, num_samples)."""
        (bundle_dir / "split.query.txt").write_text(f"0\n{index}\n3\n")
        with pytest.raises(CorruptFileError, match="split.query.txt"):
            load_bundle(bundle_dir)

    def test_split_index_at_either_end_loads(self, bundle_dir):
        (bundle_dir / "split.query.txt").write_text("0\n79\n")
        np.testing.assert_array_equal(load_bundle(bundle_dir).query_indices, [0, 79])

    def test_modality_sample_count_differs_from_the_labels(self, bundle_dir):
        store_features(np.ones((3, 79)), bundle_dir / "mod1.amfh")
        with pytest.raises(CorruptFileError, match="mod1.amfh holds 79 samples, expected 80"):
            load_bundle(bundle_dir)
