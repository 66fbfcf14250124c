"""Batch encoder: adaptive weights, fixed weights, stream handling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusehash import (
    AnchorSet,
    EncodeResult,
    FailedBatch,
    QueryBatch,
    TrainedModel,
    apply_kernel,
    encode_adaptive,
    encode_fixed,
    encode_stream,
    encoding,
    fuse_encode_fixed,
    kernel,
    make_noisy_stream,
    sign_to_pm1,
    update_weights,
)
from fusehash.exceptions import (
    EmptyBatchError,
    FusehashError,
    InvalidParameterError,
    NumericalError,
    ShapeError,
)


def toy_model(rng, code_length, dims, weights=None):
    """A hand-built model over explicit anchors, one modality per dim."""
    projections = []
    anchor_sets = []
    for dim in dims:
        projections.append(rng.standard_normal((code_length, 4)))
        anchor_sets.append(
            AnchorSet(anchors=rng.standard_normal((dim, 4)), kernel_width=1.2)
        )
    if weights is None:
        weights = np.full(len(dims), 1.0 / len(dims))
    return TrainedModel(
        projections=projections,
        anchor_sets=anchor_sets,
        train_weights=np.asarray(weights, dtype=np.float64),
        delta=1e-3,
        objective_trace=[1.0],
        converged=True,
    )


def reference_encode(model, batch, max_iters=30):
    """The adaptive encoder spelled out with public pieces: the whole kernel
    map projected at once, one ``np.linalg.norm`` per residual, a
    pairwise-sum objective, a relative stop at 1e-5, and a cap of
    ``max_iters`` sign steps (30 unless a test patches
    ``encoding.MAX_ITERS``)."""
    present = batch.present_modalities
    projected = {
        m: model.projections[m] @ apply_kernel(batch.features[m], model.anchor_sets[m])
        for m in present
    }
    weights = np.zeros(model.num_modalities)
    weights[present] = 1.0 / len(present)
    codes, trace, iterations = None, [], 0
    for _ in range(max_iters):
        fused = projected[present[0]] / weights[present[0]]
        for m in present[1:]:
            fused = fused + projected[m] / weights[m]
        new_codes = sign_to_pm1(fused)
        iterations += 1
        if codes is not None and np.array_equal(new_codes, codes):
            break
        codes = new_codes
        new_weights = np.zeros(model.num_modalities)
        new_weights[present] = update_weights(
            [np.linalg.norm(codes - projected[m]) for m in present]
        )
        value = 0.0
        for m in present:
            resid = codes - projected[m]
            value += (resid * resid).sum() / new_weights[m]
        trace.append(float(value))
        if np.array_equal(new_weights, weights):
            break
        weights = new_weights
        if len(trace) > 1 and abs(trace[-2] - value) <= 1e-5 * max(abs(trace[-2]), 1e-300):
            break
    return codes, weights, iterations, trace


class TestQueryBatch:
    def test_present_modalities_skips_none(self):
        batch = QueryBatch(features=[None, np.zeros((2, 3)), None])
        assert batch.present_modalities == [1]
        assert batch.batch_size == 3

    def test_all_missing_has_zero_size(self):
        batch = QueryBatch(features=[None, None])
        assert batch.present_modalities == []
        assert batch.batch_size == 0

    def test_ragged_batch_has_no_size(self):
        with pytest.raises(ShapeError, match="disagree on sample count"):
            QueryBatch(features=[np.zeros((2, 3)), None, np.zeros((2, 4))]).batch_size


class TestSplitBatches:
    def features(self, n=10):
        rng = np.random.default_rng(3)
        return [rng.standard_normal((3, n)), None, rng.standard_normal((2, n))]

    @pytest.mark.parametrize(
        "batch_size, sizes",
        [(4, [4, 4, 2]), (5, [5, 5]), (1, [1] * 10), (10, [10]), (1000, [10]), (None, [10])],
    )
    def test_views_in_column_order(self, batch_size, sizes):
        feats = self.features()
        batches = encoding._split_batches(feats, batch_size)
        assert [batch.batch_size for batch in batches] == sizes
        start = 0
        for batch, size in zip(batches, sizes):
            assert batch.features[1] is None
            for m in (0, 2):
                assert np.shares_memory(batch.features[m], feats[m])
                np.testing.assert_array_equal(batch.features[m], feats[m][:, start : start + size])
            start += size

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_rejects_non_positive_batch_size(self, batch_size):
        with pytest.raises(InvalidParameterError, match="batch_size must be positive"):
            encoding._split_batches(self.features(), batch_size)

    @pytest.mark.parametrize("feats", [[], [None, None]], ids=["none", "all-missing"])
    def test_rejects_every_modality_missing(self, feats):
        with pytest.raises(EmptyBatchError, match="every modality is missing"):
            encoding._split_batches(feats, 4)

    def test_rejects_zero_samples(self):
        with pytest.raises(EmptyBatchError, match="the features have zero samples"):
            encoding._split_batches(self.features(n=0), 4)

    def test_rejects_sample_counts_that_disagree(self):
        rng = np.random.default_rng(4)
        feats = [rng.standard_normal((3, 8)), None, rng.standard_normal((2, 12))]
        for batch_size in (None, 4):
            with pytest.raises(ShapeError, match=r"disagree on sample count: \[8, 12\]"):
                encoding._split_batches(feats, batch_size)


class TestStreamCodes:
    def test_joins_the_codes_in_order(self, trained_standard):
        model, _ = trained_standard
        rng = np.random.default_rng(8)
        feats = [rng.standard_normal((32, 9)), rng.standard_normal((16, 9))]
        results = encode_stream(model, encoding._split_batches(feats, 4))
        codes = encoding._stream_codes(results)
        assert codes.shape == (16, 9)
        for start, result in zip((0, 4, 8), results):
            np.testing.assert_array_equal(codes[:, start : start + 4], result.codes)

    def test_a_failed_batch_raises_chained_to_its_error(self, trained_standard):
        model, _ = trained_standard
        rng = np.random.default_rng(8)
        feats = [rng.standard_normal((32, 9)), rng.standard_normal((16, 9))]
        feats[1][0, 5] = np.nan  # in the second batch of 4
        results = encode_stream(model, encoding._split_batches(feats, 4))
        with pytest.raises(FusehashError, match="batch 1 failed: modality 1") as info:
            encoding._stream_codes(results)
        assert info.value.__cause__ is results[1].error
        assert isinstance(info.value.__cause__, NumericalError)


class TestEncodeAdaptive:
    def test_single_modality_stops_after_one_iteration(self):
        """With one modality the weight is pinned at 1, a fixpoint at once."""
        rng = np.random.default_rng(0)
        model = toy_model(rng, 8, [3])
        batch = QueryBatch(features=[rng.standard_normal((3, 6))])
        result = encode_adaptive(model, batch)
        assert result.iterations == 1
        np.testing.assert_array_equal(result.dynamic_weights, [1.0])
        assert result.codes.shape == (8, 6)
        assert set(np.unique(result.codes)) <= {-1, 1}

    def test_duplicated_modality_splits_evenly(self):
        """Identical copies of one modality earn identical weights."""
        rng = np.random.default_rng(1)
        base_proj = rng.standard_normal((8, 4))
        base_anchors = rng.standard_normal((3, 4))
        model = TrainedModel(
            projections=[base_proj, base_proj.copy()],
            anchor_sets=[
                AnchorSet(anchors=base_anchors, kernel_width=1.2),
                AnchorSet(anchors=base_anchors.copy(), kernel_width=1.2),
            ],
            train_weights=np.array([0.5, 0.5]),
            delta=1e-3,
            objective_trace=[1.0],
            converged=True,
        )
        feats = rng.standard_normal((3, 10))
        result = encode_adaptive(model, QueryBatch(features=[feats, feats.copy()]))
        np.testing.assert_allclose(result.dynamic_weights, [0.5, 0.5], atol=1e-12)

    def test_trace_never_increases(self, standard_bundle, trained_standard):
        model, _ = trained_standard
        feats = standard_bundle.features_at(standard_bundle.query_indices)
        batches, _ = make_noisy_stream(feats, batch_size=10, noise_scale=1.5, seed=3)
        for batch in batches:
            trace = np.asarray(encode_adaptive(model, batch).objective_trace)
            assert np.all(np.diff(trace) <= 1e-9 * np.abs(trace[:-1]))

    def test_missing_modality_weight_is_zero(self, trained_standard):
        model, _ = trained_standard
        rng = np.random.default_rng(2)
        batch = QueryBatch(features=[rng.standard_normal((32, 5)), None])
        result = encode_adaptive(model, batch)
        assert result.dynamic_weights[1] == 0.0
        assert result.dynamic_weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_corrupted_modality_gets_larger_weight(self, standard_bundle, trained_standard):
        """Noise inflates a modality's residual, and with it its weight."""
        model, _ = trained_standard
        feats = standard_bundle.features_at(standard_bundle.query_indices)
        batches, corrupted = make_noisy_stream(feats, batch_size=10, noise_scale=2.0, seed=0)
        hits = 0
        for batch, target in zip(batches, corrupted):
            result = encode_adaptive(model, batch)
            hits += int(np.argmax(result.dynamic_weights) == target)
        assert hits / len(batches) >= 0.9

    def test_weight_sign_scale_consistency(self):
        """Codes are the sign of the weight-fused projections at a fixpoint."""
        rng = np.random.default_rng(3)
        model = toy_model(rng, 16, [3, 5])
        batch = QueryBatch(
            features=[rng.standard_normal((3, 7)), rng.standard_normal((5, 7))]
        )
        result = encode_adaptive(model, batch)
        # recompute the fusion at the returned weights; a converged run ends
        # on a weight or code fixpoint where this sign identity holds
        fused = None
        for m in range(2):
            scores = model.projections[m] @ apply_kernel(
                batch.features[m], model.anchor_sets[m]
            )
            term = scores / result.dynamic_weights[m]
            fused = term if fused is None else fused + term
        recomputed = np.where(fused >= 0, 1, -1).astype(np.int8)
        np.testing.assert_array_equal(result.codes, recomputed)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        num_modalities=st.integers(1, 3),
        batch_size=st.integers(1, 12),
        code_length=st.sampled_from([4, 16, 33]),
        max_iters=st.sampled_from([1, 2, 3, 30]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_reference_loop(
        self, num_modalities, batch_size, code_length, max_iters, seed, data
    ):
        """Codes, weights and iterations match the per-step loop bit for
        bit, and the trace to 1e-14 relative, with modalities missing and
        the sign steps capped at ``max_iters``."""
        present = data.draw(
            st.lists(
                st.integers(0, num_modalities - 1), min_size=1, max_size=num_modalities,
                unique=True,
            ).map(sorted)
        )
        rng = np.random.default_rng(seed)
        dims = [int(d) for d in rng.integers(1, 6, num_modalities)]
        model = toy_model(rng, code_length, dims, weights=rng.uniform(0.2, 1.0, num_modalities))
        batch = QueryBatch(
            features=[
                rng.standard_normal((dims[m], batch_size)) * rng.uniform(0.1, 3.0)
                if m in present else None
                for m in range(num_modalities)
            ]
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoding, "MAX_ITERS", max_iters)
            result = encode_adaptive(model, batch)
        codes, weights, iterations, trace = reference_encode(model, batch, max_iters)
        assert result.codes.tobytes() == codes.tobytes()
        assert result.dynamic_weights.tobytes() == weights.tobytes()
        assert result.iterations == iterations
        np.testing.assert_allclose(result.objective_trace, trace, rtol=1e-14, atol=0)

    def test_stops_at_the_iteration_cap(self):
        """A batch that needs more than 3 sign steps stops at a patched cap
        of 3, with the reference loop's codes and weights bit for bit."""
        rng = np.random.default_rng(306)
        dims = [int(d) for d in rng.integers(1, 6, 2)]
        model = toy_model(rng, 16, dims, weights=rng.uniform(0.2, 1.0, 2))
        batch = QueryBatch(
            features=[rng.standard_normal((d, 12)) * rng.uniform(0.1, 3.0) for d in dims]
        )
        assert encode_adaptive(model, batch).iterations >= 4
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoding, "MAX_ITERS", 3)
            result = encode_adaptive(model, batch)
        codes, weights, iterations, _ = reference_encode(model, batch, max_iters=3)
        assert result.iterations == iterations == 3
        assert result.codes.tobytes() == codes.tobytes()
        assert result.dynamic_weights.tobytes() == weights.tobytes()

    def test_rejects_wrong_modality_count(self, trained_standard):
        model, _ = trained_standard
        with pytest.raises(ShapeError):
            encode_adaptive(model, QueryBatch(features=[np.zeros((32, 2))]))

    def test_rejects_all_missing(self, trained_standard):
        model, _ = trained_standard
        with pytest.raises(EmptyBatchError):
            encode_adaptive(model, QueryBatch(features=[None, None]))

    def test_rejects_zero_samples(self, trained_standard):
        model, _ = trained_standard
        batch = QueryBatch(features=[np.zeros((32, 0)), np.zeros((16, 0))])
        with pytest.raises(EmptyBatchError):
            encode_adaptive(model, batch)

    def test_rejects_batch_size_disagreement(self, trained_standard):
        model, _ = trained_standard
        batch = QueryBatch(features=[np.zeros((32, 3)), np.zeros((16, 4))])
        with pytest.raises(ShapeError):
            encode_adaptive(model, batch)

    @pytest.mark.parametrize("encode", [encode_adaptive, encode_fixed])
    def test_a_ragged_batch_fails_before_any_map(self, trained_standard, monkeypatch, encode):
        model, _ = trained_standard
        mapped = []
        monkeypatch.setattr(encoding, "apply_kernel", lambda *args: mapped.append(args))
        batch = QueryBatch(features=[np.zeros((32, 3)), np.zeros((16, 4))])
        with pytest.raises(ShapeError, match=r"disagree on sample count: \[3, 4\]"):
            encode(model, batch)
        assert mapped == []


class TestEncodeFixed:
    def test_full_modality_matches_training_hash_bit_for_bit(
        self, standard_bundle, trained_standard
    ):
        model, _ = trained_standard
        feats = standard_bundle.features_at(standard_bundle.query_indices)
        result = encode_fixed(model, QueryBatch(features=feats))
        np.testing.assert_array_equal(result.codes, fuse_encode_fixed(model, feats))
        np.testing.assert_array_equal(result.dynamic_weights, model.train_weights)
        assert result.iterations == 1

    def test_missing_modality_renormalizes_training_weights(self):
        rng = np.random.default_rng(4)
        model = toy_model(rng, 8, [3, 4, 5], weights=[0.2, 0.3, 0.5])
        batch = QueryBatch(
            features=[None, rng.standard_normal((4, 6)), rng.standard_normal((5, 6))]
        )
        result = encode_fixed(model, batch)
        np.testing.assert_allclose(result.dynamic_weights, [0.0, 0.375, 0.625])

    def test_single_present_modality_reduces_to_its_projection_sign(self):
        rng = np.random.default_rng(5)
        model = toy_model(rng, 8, [3, 4], weights=[0.3, 0.7])
        feats = rng.standard_normal((4, 6))
        result = encode_fixed(model, QueryBatch(features=[None, feats]))
        scores = model.projections[1] @ apply_kernel(feats, model.anchor_sets[1])
        want = np.where(scores >= 0, 1, -1).astype(np.int8)
        np.testing.assert_array_equal(result.codes, want)
        np.testing.assert_array_equal(result.dynamic_weights, [0.0, 1.0])


class TestEncodeStream:
    def test_identical_batches_give_identical_results(self, trained_standard):
        """Batches never leak state into each other."""
        model, _ = trained_standard
        rng = np.random.default_rng(6)
        feats = [rng.standard_normal((32, 8)), rng.standard_normal((16, 8))]
        batches = [
            QueryBatch(features=[f.copy() for f in feats]) for _ in range(3)
        ]
        results = encode_stream(model, batches)
        assert all(isinstance(r, EncodeResult) for r in results)
        for later in results[1:]:
            np.testing.assert_array_equal(results[0].codes, later.codes)
            np.testing.assert_array_equal(
                results[0].dynamic_weights, later.dynamic_weights
            )

    def test_failed_batch_is_reported_in_place(self, trained_standard):
        model, _ = trained_standard
        rng = np.random.default_rng(7)
        good = QueryBatch(
            features=[rng.standard_normal((32, 4)), rng.standard_normal((16, 4))]
        )
        bad = QueryBatch(features=[rng.standard_normal((32, 4))])  # modality count
        results = encode_stream(model, [good, bad, good])
        assert isinstance(results[0], EncodeResult)
        assert isinstance(results[1], FailedBatch)
        assert results[1].batch_index == 1
        assert isinstance(results[1].error, ShapeError)
        assert isinstance(results[2], EncodeResult)
        np.testing.assert_array_equal(results[0].codes, results[2].codes)

    def test_empty_stream(self, trained_standard):
        model, _ = trained_standard
        assert encode_stream(model, []) == []

    def test_fixed_mode(self, standard_bundle, trained_standard):
        model, _ = trained_standard
        feats = standard_bundle.features_at(standard_bundle.query_indices)
        results = encode_stream(model, [QueryBatch(features=feats)], mode="fixed")
        np.testing.assert_array_equal(
            results[0].codes, fuse_encode_fixed(model, feats)
        )

    def test_rejects_unknown_mode(self, trained_standard):
        model, _ = trained_standard
        with pytest.raises(InvalidParameterError):
            encode_stream(model, [], mode="hybrid")


def unblocked_fixed_codes(model, features):
    """The fixed-weight hash with each modality's whole (p, n) kernel matrix."""
    fused = sum(
        (model.projections[m] @ apply_kernel(features[m], model.anchor_sets[m]))
        / model.train_weights[m]
        for m in range(model.num_modalities)
    )
    return sign_to_pm1(fused)


class TestBlockedEncoding:
    def test_database_codes_equal_unblocked_across_block_boundaries(
        self, monkeypatch, standard_bundle, trained_standard
    ):
        """Codes are signs, so they match unless BLAS rounds a block's product
        differently in the last bit at an entry within that bit of zero."""
        model, _ = trained_standard
        feats = standard_bundle.features_at(standard_bundle.retrieval_indices)
        monkeypatch.setattr(kernel, "KERNEL_BLOCK", 16)
        assert feats[0].shape[1] > 2 * kernel.KERNEL_BLOCK
        want = unblocked_fixed_codes(model, feats)
        np.testing.assert_array_equal(fuse_encode_fixed(model, feats), want)
        np.testing.assert_array_equal(encode_fixed(model, QueryBatch(features=feats)).codes, want)

    def test_fixed_encoding_memory_is_bounded_by_a_block(self):
        """Peak O(r n + p KERNEL_BLOCK); two whole (p, n) kernel matrices would be 2 p n."""
        rng = np.random.default_rng(12)
        block = kernel.KERNEL_BLOCK
        num_anchors, code_length, num_samples = 500, 16, 8 * block
        model = TrainedModel(
            projections=[rng.standard_normal((code_length, num_anchors)) for _ in range(2)],
            anchor_sets=[
                AnchorSet(anchors=rng.standard_normal((4, num_anchors)), kernel_width=2.0, modality_index=m)
                for m in range(2)
            ],
            train_weights=np.array([0.4, 0.6]),
            delta=1e-3,
        )
        feats = [rng.standard_normal((4, num_samples)) for _ in range(2)]
        for anchor_set in model.anchor_sets:
            anchor_set.squared_norms, anchor_set.scaled_anchors  # cached before measuring
        tracemalloc.start()
        try:
            fuse_encode_fixed(model, feats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (2 * num_anchors * block + 3 * code_length * num_samples)


class TestNonFiniteInput:
    def test_adaptive_rejects_one_nan(self, standard_bundle, trained_standard):
        model, _ = trained_standard
        feats = [f.copy() for f in standard_bundle.features_at(standard_bundle.query_indices)]
        feats[1][3, 5] = np.nan
        with pytest.raises(NumericalError, match="modality 1"):
            encode_adaptive(model, QueryBatch(features=feats))

    def test_fixed_rejects_an_all_inf_modality(self, standard_bundle, trained_standard):
        model, _ = trained_standard
        feats = [f.copy() for f in standard_bundle.features_at(standard_bundle.query_indices)]
        feats[0][:] = np.inf
        with pytest.raises(NumericalError, match="modality 0"):
            encode_fixed(model, QueryBatch(features=feats))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_fuse_encode_fixed_rejects_non_finite(
        self, monkeypatch, standard_bundle, trained_standard, bad
    ):
        model, _ = trained_standard
        monkeypatch.setattr(kernel, "KERNEL_BLOCK", 16)
        feats = [f.copy() for f in standard_bundle.features_at(standard_bundle.retrieval_indices)]
        feats[1][0, -1] = bad  # in the last block
        with pytest.raises(NumericalError, match="modality 1"):
            fuse_encode_fixed(model, feats)

    def test_hand_built_model_names_the_modality(self):
        model = toy_model(np.random.default_rng(14), 8, (3, 5))
        assert [s.modality_index for s in model.anchor_sets] == [0, 1]
        feats = [np.zeros((3, 4)), np.zeros((5, 4))]
        feats[1][2, 1] = np.nan
        with pytest.raises(NumericalError, match="modality 1"):
            encode_adaptive(model, QueryBatch(features=feats))
        with pytest.raises(NumericalError, match="modality 1"):
            fuse_encode_fixed(model, feats)

    @pytest.mark.parametrize("mode", ["adaptive", "fixed"])
    def test_stream_reports_a_failed_batch(self, trained_standard, mode):
        model, _ = trained_standard
        rng = np.random.default_rng(13)
        good = QueryBatch(features=[rng.standard_normal((32, 4)), rng.standard_normal((16, 4))])
        bad = QueryBatch(features=[rng.standard_normal((32, 4)), np.full((16, 4), np.nan)])
        results = encode_stream(model, [good, bad, good], mode=mode)
        assert isinstance(results[1], FailedBatch)
        assert isinstance(results[1].error, NumericalError)
        assert isinstance(results[0], EncodeResult) and isinstance(results[2], EncodeResult)

    def test_far_queries_encode_and_overflowing_ones_fail(self, trained_standard):
        """Queries at 1e20 are far from every anchor: their modality maps to
        exactly 0 and the batch encodes. At 1e38 the float32 map overflows
        into NaN: the batch fails instead of coming back with NaN weights."""
        model, _ = trained_standard
        rng = np.random.default_rng(21)
        far, overflowing = (
            QueryBatch(features=[rng.standard_normal((32, 5)) * scale, rng.standard_normal((16, 5))])
            for scale in (1e20, 1e38)
        )
        assert not apply_kernel(far.features[0], model.anchor_sets[0]).any()
        results = encode_stream(model, [far, overflowing])
        assert isinstance(results[0], EncodeResult)
        assert np.isfinite(results[0].dynamic_weights).all()
        assert isinstance(results[1], FailedBatch)
        assert isinstance(results[1].error, NumericalError)
        assert "modality 0 kernel features" in str(results[1].error)
