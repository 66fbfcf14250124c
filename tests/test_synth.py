"""Synthetic dataset generation and noisy stream construction."""

import tracemalloc

import numpy as np
import pytest

from fusehash import DatasetBundle, SynthSpec, generate_synthetic, make_noisy_stream
from fusehash.exceptions import InvalidParameterError, ShapeError


def small_spec(**overrides):
    base = dict(
        num_classes=4,
        samples_per_class=20,
        modality_dims=(6, 3),
        cluster_spread=0.3,
        seed=5,
    )
    base.update(overrides)
    return SynthSpec(**base)


class TestSynthSpec:
    def test_scalar_spread_broadcasts(self):
        assert small_spec(cluster_spread=0.7).spreads() == (0.7, 0.7)

    def test_tuple_spread_kept(self):
        assert small_spec(cluster_spread=(0.1, 0.9)).spreads() == (0.1, 0.9)

    def test_split_sizes_cover_samples(self):
        spec = small_spec()
        train, query, retrieval = spec.split_sizes()
        assert (train, query, retrieval) == (10, 5, 5)
        assert train + query + retrieval == spec.samples_per_class

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            small_spec(num_classes=1).validate()
        with pytest.raises(InvalidParameterError):
            small_spec(samples_per_class=0).validate()
        with pytest.raises(InvalidParameterError):
            small_spec(modality_dims=()).validate()
        with pytest.raises(InvalidParameterError):
            small_spec(cluster_spread=(0.1,)).validate()
        with pytest.raises(InvalidParameterError):
            small_spec(cluster_spread=-0.5).validate()
        with pytest.raises(InvalidParameterError):
            small_spec(train_fraction=1.0).validate()


class TestGenerateSynthetic:
    def test_shapes_and_labels(self):
        bundle = generate_synthetic(small_spec())
        assert isinstance(bundle, DatasetBundle)
        assert bundle.num_samples == 80
        assert [m.shape for m in bundle.modalities] == [(6, 80), (3, 80)]
        assert bundle.labels == [{c} for c in range(4) for _ in range(20)]

    def test_deterministic(self):
        a = generate_synthetic(small_spec())
        b = generate_synthetic(small_spec())
        for ma, mb in zip(a.modalities, b.modalities):
            np.testing.assert_array_equal(ma, mb)
        np.testing.assert_array_equal(a.train_indices, b.train_indices)
        np.testing.assert_array_equal(a.query_indices, b.query_indices)
        np.testing.assert_array_equal(a.retrieval_indices, b.retrieval_indices)

    @pytest.mark.parametrize("seed, spread", [(0, (0.3, 1.0)), (11, (0.0, 2.5))])
    def test_equals_concatenated_class_blocks(self, seed, spread):
        """Filling one matrix per modality gives the bytes of drawing each
        class block, shifting it by its prototype and concatenating."""
        spec = small_spec(seed=seed, cluster_spread=spread)
        rng = np.random.default_rng(seed)
        for dim, scale, got in zip(
            spec.modality_dims, spec.spreads(), generate_synthetic(spec).modalities
        ):
            prototypes = rng.standard_normal((dim, spec.num_classes))
            blocks = [
                prototypes[:, [c]] + scale * rng.standard_normal((dim, spec.samples_per_class))
                for c in range(spec.num_classes)
            ]
            assert got.tobytes() == np.concatenate(blocks, axis=1).tobytes()

    def test_peak_memory_near_output(self):
        """One class block is the only temporary: the peak stays within 1.2x
        of what the bundle holds (concatenating blocks would double a modality)."""
        spec = small_spec(num_classes=10, samples_per_class=200, modality_dims=(256, 64))
        tracemalloc.start()
        try:
            bundle = generate_synthetic(spec)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(m.nbytes for m in bundle.modalities) <= held
        assert peak <= 1.2 * held

    def test_seed_changes_data(self):
        a = generate_synthetic(small_spec(seed=5))
        b = generate_synthetic(small_spec(seed=6))
        assert not np.array_equal(a.modalities[0], b.modalities[0])

    def test_zero_spread_collapses_classes(self):
        bundle = generate_synthetic(small_spec(cluster_spread=0.0))
        for mat in bundle.modalities:
            for c in range(4):
                block = mat[:, c * 20 : (c + 1) * 20]
                np.testing.assert_array_equal(block, block[:, [0]] * np.ones((1, 20)))

    def test_splits_disjoint_and_covering(self):
        bundle = generate_synthetic(small_spec())
        pieces = [bundle.train_indices, bundle.query_indices, bundle.retrieval_indices]
        merged = np.concatenate(pieces)
        assert len(merged) == bundle.num_samples
        assert len(np.unique(merged)) == bundle.num_samples

    def test_splits_stratified(self):
        bundle = generate_synthetic(small_spec())
        for indices, count in [
            (bundle.train_indices, 10),
            (bundle.query_indices, 5),
            (bundle.retrieval_indices, 5),
        ]:
            labels = [next(iter(s)) for s in bundle.labels_at(indices)]
            values, counts = np.unique(labels, return_counts=True)
            np.testing.assert_array_equal(values, range(4))
            np.testing.assert_array_equal(counts, [count] * 4)

    def test_classes_separable_in_feature_space(self):
        """At default spread the nearest class prototype classifies samples."""
        spec = small_spec(samples_per_class=50, modality_dims=(12,))
        bundle = generate_synthetic(spec)
        mat = bundle.modalities[0]
        prototypes = np.stack(
            [mat[:, c * 50 : (c + 1) * 50].mean(axis=1) for c in range(4)], axis=1
        )
        gaps = mat[:, :, None] - prototypes[:, None, :]
        nearest = np.argmin((gaps**2).sum(axis=0), axis=1)
        truth = np.repeat(np.arange(4), 50)
        assert np.mean(nearest == truth) > 0.95

    def test_features_at_slices_all_modalities(self):
        bundle = generate_synthetic(small_spec())
        feats = bundle.features_at(bundle.query_indices)
        assert len(feats) == 2
        for mat, full in zip(feats, bundle.modalities):
            np.testing.assert_array_equal(mat, full[:, bundle.query_indices])


class TestMakeNoisyStream:
    def make_features(self, n=25):
        rng = np.random.default_rng(8)
        return [rng.standard_normal((5, n)), rng.standard_normal((3, n))]

    def test_batches_partition_samples(self):
        feats = self.make_features(25)
        batches, corrupted = make_noisy_stream(feats, batch_size=10, noise_scale=1.0)
        assert [b.batch_size for b in batches] == [10, 10, 5]
        assert len(corrupted) == 3

    def test_corrupted_modality_cycles(self):
        feats = self.make_features(50)
        _, corrupted = make_noisy_stream(feats, batch_size=10, noise_scale=1.0)
        assert corrupted == [0, 1, 0, 1, 0]

    def test_only_target_modality_changes(self):
        feats = self.make_features(20)
        batches, corrupted = make_noisy_stream(feats, batch_size=10, noise_scale=2.0)
        for b, (batch, target) in enumerate(zip(batches, corrupted)):
            start = b * 10
            for m in range(2):
                clean = feats[m][:, start : start + 10]
                if m == target:
                    assert not np.array_equal(batch.features[m], clean)
                else:
                    np.testing.assert_array_equal(batch.features[m], clean)

    def test_zero_scale_copies_everything(self):
        feats = self.make_features(20)
        batches, _ = make_noisy_stream(feats, batch_size=10, noise_scale=0.0)
        for b, batch in enumerate(batches):
            for m in range(2):
                np.testing.assert_array_equal(
                    batch.features[m], feats[m][:, b * 10 : (b + 1) * 10]
                )

    def test_deterministic(self):
        feats = self.make_features(20)
        first, _ = make_noisy_stream(feats, batch_size=7, noise_scale=1.5, seed=4)
        second, _ = make_noisy_stream(feats, batch_size=7, noise_scale=1.5, seed=4)
        for a, b in zip(first, second):
            for m in range(2):
                np.testing.assert_array_equal(a.features[m], b.features[m])

    def test_rejects_bad_parameters(self):
        feats = self.make_features(10)
        with pytest.raises(InvalidParameterError):
            make_noisy_stream(feats, batch_size=0, noise_scale=1.0)
        with pytest.raises(InvalidParameterError):
            make_noisy_stream(feats, batch_size=5, noise_scale=-1.0)
        with pytest.raises(InvalidParameterError):
            make_noisy_stream([], batch_size=5, noise_scale=1.0)

    def test_rejects_modalities_of_different_sample_counts(self):
        """Batches of 4, 4 and 2 columns would drop modality 1's last 4."""
        rng = np.random.default_rng(8)
        with pytest.raises(ShapeError, match=r"disagree on sample count: \[10, 14\]"):
            make_noisy_stream(
                [rng.standard_normal((3, 10)), rng.standard_normal((2, 14))],
                batch_size=4,
                noise_scale=1.0,
            )

    def test_rejects_a_missing_modality(self):
        feats = self.make_features(10)
        with pytest.raises(InvalidParameterError):
            make_noisy_stream([feats[0], None], batch_size=5, noise_scale=1.0)
        with pytest.raises(InvalidParameterError):
            make_noisy_stream([None, feats[1]], batch_size=5, noise_scale=1.0)

    @pytest.mark.parametrize("batch_size", [1, 7, 25, 40])
    def test_equals_the_column_loop(self, batch_size):
        """Byte-equal to slicing, copying and corrupting each batch in turn,
        with the noise drawn in the same order; every batch array is its own
        C-contiguous copy."""
        feats = self.make_features(25)
        batches, corrupted = make_noisy_stream(feats, batch_size, noise_scale=1.5, seed=6)
        rng = np.random.default_rng(6)
        scales = [max(float(mat.std()), 1e-12) for mat in feats]
        starts = range(0, 25, batch_size)
        assert corrupted == [b % 2 for b in range(len(starts))]
        assert len(batches) == len(starts)
        for batch, start, target in zip(batches, starts, corrupted):
            for m, got in enumerate(batch.features):
                want = feats[m][:, start : start + batch_size].copy()
                if m == target:
                    want += 1.5 * scales[m] * rng.standard_normal(want.shape)
                assert got.tobytes() == want.tobytes()
                assert got.shape == want.shape
                assert got.flags.c_contiguous and got.flags.owndata
