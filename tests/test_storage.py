"""Binary file formats, CSV fallback, bundle directories."""

import io
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

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
    sign_to_pm1,
    store_bundle,
    store_centers,
    store_codes,
    store_features,
    store_model,
)
from fusehash import SynthSpec
from fusehash.exceptions import CorruptFileError, ShapeError
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
                code_length=64,
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
