"""Anchor selection and the Gaussian kernel map."""

import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fusehash import (
    AnchorSet,
    QueryBatch,
    SynthSpec,
    TrainConfig,
    apply_kernel,
    encode_adaptive,
    encode_fixed,
    generate_synthetic,
    kernel,
    load_model,
    mean_average_precision,
    select_anchors,
    store_model,
    train_on_bundle,
)
from fusehash.exceptions import InvalidParameterError, NumericalError, ShapeError

# How far a float32 map entry may lie from the exact map, about 9.5e-7.
# Entries are in (0, 1]. The map rounds the centred operands, its inner
# product and norms, the exponent and the exp to float32. Each rounding
# moves an entry by at most a few float32 epsilons (2**-23) when the
# centred points are within a few kernel widths of the anchor mean, as
# Gaussian data are. Measured on such data: at most 3.0 epsilons over the
# shapes drawn below, 5.3 with 1,000 anchors in one dimension.
FLOAT32_BOUND = 8 * float(np.finfo(np.float32).eps)


def three_temporary_kernel(features, anchor_set):
    """The float32 kernel map written as one expression with (p, n)
    temporaries, from the anchors rather than the set's caches.

    Features and anchors are centred on the anchor mean in float64 and
    rounded once to float32, every later step runs in float32, and the
    result is widened to float64. The cross term multiplies a C-contiguous
    (p, d) operand like the map's, so both run the same BLAS kernel: this
    pins the map's order of operations, not which product BLAS picks for a
    shape.
    """
    feats = np.asarray(features, dtype=np.float64)
    mean = anchor_set.anchors.mean(axis=1, keepdims=True)
    anchors = anchor_set.anchors - mean
    centred = (feats - mean).astype(np.float32)
    sq = (
        (anchors * anchors).sum(axis=0).astype(np.float32)[:, None]
        + np.ascontiguousarray(-2.0 * anchors.T, dtype=np.float32) @ centred
        + (centred * centred).sum(axis=0)[None, :]
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (2.0 * anchor_set.kernel_width**2)).astype(np.float64)


def difference_kernel(features, anchor_set, columns=slice(None)):
    """The map's ``columns`` entry by entry from ``||x_i - a_j||^2``, with no
    norm expansion: the reference for the per-entry bound."""
    feats = np.asarray(features, dtype=np.float64)[:, columns]
    gaps = feats[:, None, :] - anchor_set.anchors[:, :, None]
    return np.exp(-(gaps * gaps).sum(axis=0) / (2.0 * anchor_set.kernel_width**2))


def assert_matches_references(feats, anchor_set, projection, columns=slice(None)):
    """The map, and the projected map, equal the expression form's bytes and
    lie within ``FLOAT32_BOUND`` per kernel entry of the difference form at
    ``columns``."""
    want = three_temporary_kernel(feats, anchor_set)
    out = apply_kernel(feats, anchor_set)
    assert out.shape == want.shape and out.tobytes() == want.tobytes()
    direct = difference_kernel(feats, anchor_set, columns)
    assert np.all(np.abs(out[:, columns] - direct) <= FLOAT32_BOUND)
    projected = apply_kernel(feats, anchor_set, projection)
    assert projected.tobytes() == (projection @ want).tobytes()
    scale = np.abs(projection).sum(axis=1, keepdims=True)
    assert np.all(np.abs(projected[:, columns] - projection @ direct) <= FLOAT32_BOUND * scale)


# The map's operands that an AnchorSet caches outside its fields.
CACHES = ("anchor_mean", "scaled_anchors", "squared_norms")


def assert_caches_match_anchors(anchor_set):
    """The float64 (d, 1) anchor mean, the C-contiguous float32 (p, d)
    ``-2 (a - mu)`` rows and the float32 (p, 1) ``||a - mu||^2``, each
    rounded once from its float64 value."""
    anchors = anchor_set.anchors
    mean = anchor_set.anchor_mean
    assert mean.dtype == np.float64 and mean.shape == (anchors.shape[0], 1)
    assert mean.tobytes() == anchors.mean(axis=1, keepdims=True).tobytes()
    centred = anchors - mean
    scaled = anchor_set.scaled_anchors
    assert scaled.flags.c_contiguous and scaled.dtype == np.float32
    assert scaled.shape == anchors.shape[::-1]
    assert scaled.tobytes() == (-2.0 * centred.T).astype(np.float32).tobytes()
    norms = anchor_set.squared_norms
    assert norms.dtype == np.float32 and norms.shape == (anchors.shape[1], 1)
    assert norms.tobytes() == (centred * centred).sum(axis=0).astype(np.float32)[:, None].tobytes()


class TestSelectAnchors:
    def test_all_samples_is_a_column_permutation(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((5, 12))
        anchor_set = select_anchors(feats, 12, seed=4)
        got = {tuple(col) for col in anchor_set.anchors.T}
        want = {tuple(col) for col in feats.T}
        assert got == want

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((4, 30))
        a = select_anchors(feats, 10, seed=2)
        b = select_anchors(feats, 10, seed=2)
        np.testing.assert_array_equal(a.anchors, b.anchors)
        assert a.kernel_width == b.kernel_width

    def test_two_point_width_is_their_distance(self):
        feats = np.array([[0.0, 3.0]])  # one dimension, two samples, distance 3
        anchor_set = select_anchors(feats, 2, seed=0)
        assert anchor_set.kernel_width == pytest.approx(3.0)

    def test_width_heuristic_matches_mean_pairwise_distance(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((6, 15))
        anchor_set = select_anchors(feats, 15, seed=0)
        anchors = anchor_set.anchors
        distances = [
            np.linalg.norm(anchors[:, i] - anchors[:, j])
            for i in range(15)
            for j in range(i + 1, 15)
        ]
        assert anchor_set.kernel_width == pytest.approx(np.mean(distances))

    def test_rejects_bad_counts_and_widths(self):
        feats = np.zeros((3, 5))
        with pytest.raises(InvalidParameterError):
            select_anchors(feats, 0, seed=0)
        with pytest.raises(InvalidParameterError):
            select_anchors(feats, 6, seed=0)

    def test_rejects_a_non_matrix(self):
        with pytest.raises(ShapeError, match=r"got shape \(5,\)"):
            select_anchors(np.zeros(5), 2, seed=0)


class TestApplyKernel:
    def test_anchor_similarity_to_itself_is_one(self):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((5, 10))
        anchor_set = select_anchors(feats, 3, seed=0)
        out = apply_kernel(anchor_set.anchors, anchor_set)
        np.testing.assert_allclose(np.diag(out), 1.0, rtol=0, atol=FLOAT32_BOUND)

    def test_distance_sqrt_two_sigma_gives_inverse_e(self):
        sigma = 1.3
        anchor_set = AnchorSet(anchors=np.zeros((2, 1)), kernel_width=sigma)
        x = np.array([[np.sqrt(2.0) * sigma], [0.0]])
        out = apply_kernel(x, anchor_set)
        np.testing.assert_allclose(out[0, 0], np.exp(-1.0), rtol=0, atol=FLOAT32_BOUND)

    def test_matches_per_entry_loop(self):
        """Vectorized map equals the direct double loop over (anchor, sample)."""
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((5, 10))
        anchor_set = select_anchors(feats, 4, seed=1)
        out = apply_kernel(feats, anchor_set)
        sigma = anchor_set.kernel_width
        for j in range(4):
            for i in range(10):
                gap = feats[:, i] - anchor_set.anchors[:, j]
                want = np.exp(-float(gap @ gap) / (2.0 * sigma**2))
                assert abs(out[j, i] - want) <= FLOAT32_BOUND

    def test_translation_equivariance(self):
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((4, 9))
        anchor_set = select_anchors(feats, 5, seed=2)
        shift = rng.standard_normal((4, 1)) * 10
        shifted = AnchorSet(
            anchors=anchor_set.anchors + shift,
            kernel_width=anchor_set.kernel_width,
        )
        np.testing.assert_allclose(
            apply_kernel(feats + shift, shifted),
            apply_kernel(feats, anchor_set),
            atol=1e-10,
        )

    def test_monotone_in_distance(self):
        anchor_set = AnchorSet(anchors=np.zeros((1, 1)), kernel_width=2.0)
        radii = np.linspace(0.0, 5.0, 20).reshape(1, -1)
        out = apply_kernel(radii, anchor_set)[0]
        assert np.all(np.diff(out) < 0)

    def test_rejects_dimension_mismatch(self):
        anchor_set = AnchorSet(anchors=np.zeros((3, 2)), kernel_width=1.0)
        with pytest.raises(ShapeError):
            apply_kernel(np.zeros((4, 5)), anchor_set)

    @pytest.mark.parametrize("width", [0.0, -1.0])
    def test_rejects_a_non_positive_width(self, width):
        anchor_set = AnchorSet(anchors=np.zeros((3, 2)), kernel_width=width)
        with pytest.raises(InvalidParameterError, match="non-positive kernel width"):
            apply_kernel(np.zeros((3, 5)), anchor_set)

    @pytest.mark.parametrize("width", [np.inf, np.nan])
    def test_rejects_a_non_finite_width(self, width):
        """An infinite width maps every feature to 1, so all codes agree."""
        anchor_set = AnchorSet(anchors=np.zeros((3, 2)), kernel_width=width)
        with pytest.raises(InvalidParameterError, match="non-finite kernel width"):
            apply_kernel(np.zeros((3, 5)), anchor_set)

    @settings(max_examples=100, deadline=None)
    @given(
        dim=st.integers(1, 6),
        num_anchors=st.integers(1, 8),
        num_samples=st.integers(0, 12),
        dtype=st.sampled_from([np.float64, np.float32, np.int64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_three_temporary_expression(self, dim, num_anchors, num_samples, dtype, seed):
        """Bit-identical to the expression form, and within ``FLOAT32_BOUND``
        of the per-entry map."""
        rng = np.random.default_rng(seed)
        anchor_set = select_anchors(rng.standard_normal((dim, num_anchors)), num_anchors, seed=0)
        feats = (3.0 * rng.standard_normal((dim, num_samples))).astype(dtype)
        out = apply_kernel(feats, anchor_set)
        want = three_temporary_kernel(feats, anchor_set)
        assert out.dtype == np.float64 and out.shape == (num_anchors, num_samples)
        assert out.tobytes() == want.tobytes()
        sigma = anchor_set.kernel_width
        for j in range(num_anchors):
            for i in range(num_samples):
                gap = feats[:, i].astype(np.float64) - anchor_set.anchors[:, j]
                want = np.exp(-float(gap @ gap) / (2.0 * sigma**2))
                assert abs(out[j, i] - want) <= FLOAT32_BOUND

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.integers(1, 64),
        num_anchors=st.integers(1, 12),
        num_samples=st.integers(1, 12),
        offset=st.sampled_from([0.0, 1e2, 1e4]),
        scale=st.floats(0.01, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_offset_features_stay_within_the_float32_bound(
        self, dim, num_anchors, num_samples, offset, scale, seed
    ):
        """Features and anchors sharing a large offset map within
        ``FLOAT32_BOUND`` of the difference form, the anchors themselves
        included: centring on the anchor mean removes the offset before the
        norm expansion, which at an offset of 1e4 and scale 0.01 cancels to
        errors of 6e-4 even in float64."""
        rng = np.random.default_rng(seed)
        pool = offset + scale * rng.standard_normal((dim, num_anchors))
        anchor_set = select_anchors(pool, num_anchors, seed=0)
        feats = np.concatenate(
            [offset + scale * rng.standard_normal((dim, num_samples)), anchor_set.anchors], axis=1
        )
        out = apply_kernel(feats, anchor_set)
        assert np.all(np.abs(out - difference_kernel(feats, anchor_set)) <= FLOAT32_BOUND)

    def test_equals_references_on_every_small_shape(self):
        """Every shape the property test draws from, with and without a
        projection: random draws miss the few shapes where BLAS rounds a
        transposed anchor operand differently from the row-major one."""
        rng = np.random.default_rng(13)
        for dim in range(1, 7):
            for num_anchors in range(1, 9):
                anchor_set = select_anchors(
                    rng.standard_normal((dim, num_anchors)), num_anchors, seed=0
                )
                projection = rng.standard_normal((3, num_anchors))
                for num_samples in range(13):
                    feats = 3.0 * rng.standard_normal((dim, num_samples))
                    assert_matches_references(feats, anchor_set, projection)

    @pytest.mark.parametrize("num_samples", [0, 1, 2, 3, 8, 9, 100, 1024, 2049])
    @pytest.mark.parametrize("dim", [64, 256])
    def test_equals_references_at_benchmark_shapes(self, dim, num_samples):
        """The benchmark's dimensionalities and anchor count, at the widths of
        the per-batch encoder (gemv at one column), a kernel block and two
        blocks with a remainder. The per-entry bound is checked at the first,
        middle and last columns and either side of the block edge."""
        rng = np.random.default_rng(dim + num_samples)
        anchor_set = select_anchors(rng.standard_normal((dim, 1000)), 1000, seed=0)
        feats = rng.standard_normal((dim, num_samples))
        projection = rng.standard_normal((64, 1000))
        edge = kernel.KERNEL_BLOCK
        columns = sorted({i for i in (0, num_samples // 2, edge - 1, edge, num_samples - 1)
                          if 0 <= i < num_samples})
        assert_matches_references(feats, anchor_set, projection, columns)

    def test_allocates_one_output_sized_array(self):
        rng = np.random.default_rng(7)
        anchor_set = AnchorSet(anchors=rng.standard_normal((64, 200)), kernel_width=8.0)
        feats = rng.standard_normal((64, 5000))
        tracemalloc.start()
        try:
            out = apply_kernel(feats, anchor_set)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes

    def test_norm_cache_survives_storage_and_pickle(self, tmp_path, standard_bundle, trained_standard):
        """A pickle carries the caches; a loaded model rebuilds them from its
        anchors on first use. Either way they equal the original's bytes."""
        model, _ = trained_standard
        feats = standard_bundle.features_at(standard_bundle.query_indices)
        want = [apply_kernel(feats[m], a) for m, a in enumerate(model.anchor_sets)]
        path = tmp_path / "model.amfh"
        store_model(model, path)
        loaded = load_model(path).anchor_sets
        pickled = pickle.loads(pickle.dumps(model.anchor_sets))
        for anchor_set in loaded:
            assert not set(CACHES) & set(vars(anchor_set))
        for anchor_set in pickled:
            assert set(CACHES) <= set(vars(anchor_set))
        for copies in (loaded, pickled):
            for m, anchor_set in enumerate(copies):
                assert apply_kernel(feats[m], anchor_set).tobytes() == want[m].tobytes()
                for name in CACHES:
                    got, original = getattr(anchor_set, name), getattr(model.anchor_sets[m], name)
                    assert got.dtype == original.dtype and got.tobytes() == original.tobytes()
                assert_caches_match_anchors(anchor_set)

    def test_norm_cache_is_not_a_field(self):
        anchors = np.array([[0.0, 2.0, 4.0], [1.0, 1.0, 1.0]])
        anchor_set = AnchorSet(anchors=anchors, kernel_width=1.0)
        apply_kernel(np.zeros((2, 1)), anchor_set)
        names = [f.name for f in dataclasses.fields(AnchorSet)]
        assert names == ["anchors", "kernel_width", "modality_index", "seed"]
        for name in CACHES:
            assert name not in repr(anchor_set)
        np.testing.assert_array_equal(anchor_set.anchor_mean, [[2.0], [1.0]])
        np.testing.assert_array_equal(anchor_set.squared_norms, [[4.0], [0.0], [4.0]])
        np.testing.assert_array_equal(
            anchor_set.scaled_anchors, [[4.0, 0.0], [0.0, 0.0], [-4.0, 0.0]]
        )

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_scaled_anchors_are_row_major(self, layout):
        """Whatever the anchors' layout, the cache is one C-contiguous float32
        (p, d) array, so the map's product reads its anchors row-major."""
        anchors = np.random.default_rng(14).standard_normal((5, 14))
        if layout == "F":
            anchors = np.asfortranarray(anchors)
        elif layout == "strided":
            anchors = anchors[:, ::2]
        assert_caches_match_anchors(AnchorSet(anchors=anchors, kernel_width=1.0))


# Small enough that a handful of columns spans several blocks; a multiple
# of 8 like KERNEL_BLOCK, so BLAS tiles blocks as it tiles the whole matrix.
SMALL_BLOCK = 8

# Byte equality between a blocked and a whole-matrix product holds when BLAS
# computes every block with the kind of GEMM kernel it uses for the whole
# product. That holds on OpenBLAS 0.3.31 (x86-64) for the cases below, where
# blocks and the whole product are both small, or both large; another BLAS
# may pick its small-matrix kernel for a block and not for the whole
# product, and round a column differently in the last bit.


class TestFloat32Range:
    """Features beyond float32's range around the anchors: far ones map to
    exactly 0, and ones whose map overflows into a NaN raise."""

    def anchor_set(self):
        rng = np.random.default_rng(19)
        return AnchorSet(anchors=rng.standard_normal((8, 6)), kernel_width=2.0, modality_index=1)

    @pytest.mark.parametrize("projected", [False, True])
    def test_far_features_map_to_zero(self, projected):
        feats = np.random.default_rng(20).standard_normal((8, 5)) * 1e20
        projection = np.ones((3, 6)) if projected else None
        assert not apply_kernel(feats, self.anchor_set(), projection).any()

    @pytest.mark.parametrize("projected", [False, True])
    def test_an_overflowing_map_names_the_modality(self, projected):
        feats = np.random.default_rng(20).standard_normal((8, 5)) * 1e38
        projection = np.ones((3, 6)) if projected else None
        with pytest.raises(NumericalError, match="modality 1 kernel features"):
            apply_kernel(feats, self.anchor_set(), projection)


    @pytest.mark.parametrize("projected", [False, True])
    def test_far_features_map_without_a_warning(self, projected):
        """Overflow to inf inside the float32 map is the documented route to
        0, not a fault: no numpy warning is raised, and the error state the
        caller set is the one it has afterwards."""
        feats = np.random.default_rng(21).standard_normal((8, 50)) * 1e20
        projection = np.ones((3, 6)) if projected else None
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not apply_kernel(feats, self.anchor_set(), projection).any()
        assert np.geterr() == before

    def test_silenced_state_ends_before_each_block_is_yielded(self, monkeypatch):
        """The caller's code between blocks runs under its own error state."""
        monkeypatch.setattr(kernel, "KERNEL_BLOCK", SMALL_BLOCK)
        feats = np.random.default_rng(22).standard_normal((8, 3 * SMALL_BLOCK)) * 1e20
        states = [np.geterr() for _ in kernel._kernel_blocks(feats, self.anchor_set())]
        assert states == [np.geterr()] * 3


class TestSampleCount:
    def test_skips_missing_modalities(self):
        assert kernel._sample_count([None, np.zeros((2, 5)), np.zeros((3, 5))]) == 5

    @pytest.mark.parametrize("mats", [[], [None, None]], ids=["none", "all-missing"])
    def test_nothing_present_counts_zero(self, mats):
        assert kernel._sample_count(mats) == 0

    def test_rejects_a_non_matrix(self):
        with pytest.raises(ShapeError, match=r"modality 1 is not a matrix: shape \(5,\)"):
            kernel._sample_count([np.zeros((2, 5)), np.zeros(5)])

    def test_rejects_counts_that_disagree(self):
        with pytest.raises(ShapeError, match=r"modalities disagree on sample count: \[5, 6\]"):
            kernel._sample_count([np.zeros((2, 6)), None, np.zeros((3, 5))])


def projected_case(rng, dim, num_anchors, code_length, num_samples):
    anchor_set = select_anchors(rng.standard_normal((dim, num_anchors)), num_anchors, seed=0)
    feats = 3.0 * rng.standard_normal((dim, num_samples))
    projection = rng.standard_normal((code_length, num_anchors))
    return feats, anchor_set, projection


class TestProjectedKernel:
    @pytest.mark.parametrize(
        "num_samples",
        [0, 1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 2 * SMALL_BLOCK + 3],
    )
    def test_blocked_projection_equals_unblocked(self, monkeypatch, num_samples):
        """Byte-equal to ``projection @ K`` (the BLAS condition above)."""
        monkeypatch.setattr(kernel, "KERNEL_BLOCK", SMALL_BLOCK)
        feats, anchor_set, projection = projected_case(
            np.random.default_rng(num_samples), 5, 7, 6, num_samples
        )
        out = apply_kernel(feats, anchor_set, projection)
        want = projection @ apply_kernel(feats, anchor_set)
        assert out.shape == (6, num_samples) and out.dtype == np.float64
        assert out.tobytes() == want.tobytes()

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        dim=st.integers(1, 12),
        num_anchors=st.integers(1, 20),
        code_length=st.integers(1, 24),
        num_samples=st.integers(0, 5 * SMALL_BLOCK + 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_projection_matches_unblocked_property(
        self, monkeypatch, dim, num_anchors, code_length, num_samples, seed
    ):
        """Every column lands in place for any shape; rounding is left to BLAS.

        Kernel values lie in (0, 1], so an entry's rounding error is bounded
        by a few ulps of its row's absolute projection sum.
        """
        monkeypatch.setattr(kernel, "KERNEL_BLOCK", SMALL_BLOCK)
        feats, anchor_set, projection = projected_case(
            np.random.default_rng(seed), dim, num_anchors, code_length, num_samples
        )
        out = apply_kernel(feats, anchor_set, projection)
        want = projection @ apply_kernel(feats, anchor_set)
        assert out.shape == want.shape
        scale = np.abs(projection).sum(axis=1, keepdims=True)
        assert np.all(np.abs(out - want) <= 1e-13 * scale)

    def test_full_size_blocks_equal_unblocked(self):
        """The shipped block size at the benchmark's code length, remainder
        included, byte-equal (the BLAS condition above)."""
        feats, anchor_set, projection = projected_case(
            np.random.default_rng(8), 8, 200, 64, 2 * kernel.KERNEL_BLOCK + 3
        )
        out = apply_kernel(feats, anchor_set, projection)
        want = projection @ apply_kernel(feats, anchor_set)
        assert out.tobytes() == want.tobytes()

    def test_blocks_start_at_multiples_and_a_narrow_remainder_joins_the_last(self, monkeypatch):
        """Blocks tile the columns from multiples of the block size; a
        remainder narrower than half a block joins the block before it, so
        fewer than 1.5 blocks' worth of columns make one block and no other
        block is narrower than half a block or wider than 1.5 blocks."""
        monkeypatch.setattr(kernel, "KERNEL_BLOCK", SMALL_BLOCK)
        anchor_set = AnchorSet(anchors=np.zeros((2, 3)), kernel_width=1.0)
        for num_samples in range(6 * SMALL_BLOCK):
            spans = [
                (start, stop)
                for start, stop, _ in kernel._kernel_blocks(np.zeros((2, num_samples)), anchor_set)
            ]
            edges = [start for start, _ in spans] + [num_samples]
            assert [start for start, _ in spans] == list(range(0, edges[-2] + 1, SMALL_BLOCK))
            assert spans == list(zip(edges, edges[1:]))
            if num_samples < 1.5 * SMALL_BLOCK:
                assert spans == [(0, num_samples)]
            else:
                widths = [stop - start for start, stop in spans]
                assert SMALL_BLOCK // 2 <= min(widths) and max(widths) < 1.5 * SMALL_BLOCK

    def test_rejects_mismatched_projection_and_features(self):
        anchor_set = AnchorSet(anchors=np.zeros((3, 2)), kernel_width=1.0)
        with pytest.raises(ShapeError):
            apply_kernel(np.zeros((3, 5)), anchor_set, np.zeros((4, 3)))
        with pytest.raises(ShapeError):
            apply_kernel(np.zeros((3, 5)), anchor_set, np.zeros(2))
        with pytest.raises(ShapeError):
            apply_kernel(np.zeros((4, 5)), anchor_set, np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 2 * SMALL_BLOCK + 2])
    def test_non_finite_feature_names_the_modality(self, monkeypatch, bad, column):
        monkeypatch.setattr(kernel, "KERNEL_BLOCK", SMALL_BLOCK)
        rng = np.random.default_rng(9)
        anchor_set = AnchorSet(
            anchors=rng.standard_normal((3, 4)), kernel_width=1.0, modality_index=1
        )
        feats = rng.standard_normal((3, 2 * SMALL_BLOCK + 3))
        feats[2, column] = bad
        with pytest.raises(NumericalError, match="modality 1"):
            apply_kernel(feats, anchor_set, rng.standard_normal((5, 4)))
        with pytest.raises(NumericalError, match="modality 1"):
            apply_kernel(feats[:, column : column + 1], anchor_set, rng.standard_normal((5, 4)))
        with pytest.raises(NumericalError, match="modality 1"):
            apply_kernel(feats, anchor_set)  # the same rule without a projection


def float64_map_block(feats, anchor_set, out):
    """A drop-in ``kernel._map_block`` that maps in float64 without
    centring: the reference the float32 map's codes are held to."""
    anchors = anchor_set.anchors
    sq = np.ascontiguousarray(-2.0 * anchors.T) @ feats
    sq += (anchors * anchors).sum(axis=0)[:, None]
    sq += (feats * feats).sum(axis=0)[None, :]
    np.maximum(sq, 0.0, out=sq)
    sq /= -(2.0 * anchor_set.kernel_width**2)
    np.exp(sq, out=out)


def test_codes_agree_with_a_float64_map(monkeypatch):
    """Train, encode a database with the fixed weights and queries with the
    adaptive encoder, and score mAP, once with the float32 map and once with
    a float64 one: at least 99.9% of the 3,200 codes are equal and mAP moves
    by at most 1e-4. Sizes follow the benchmark's dims on a smaller bundle
    whose mAP (about 0.7) is not saturated."""
    bundle = generate_synthetic(
        SynthSpec(
            num_classes=16,
            samples_per_class=400,
            modality_dims=(256, 64),
            cluster_spread=4.0,
            seed=5,
        )
    )
    queries, database = bundle.query_indices, bundle.retrieval_indices

    def pipeline():
        model, _ = train_on_bundle(bundle, 64, TrainConfig(seed=5, num_anchors=500))
        db_codes = encode_fixed(model, QueryBatch(features=bundle.features_at(database))).codes
        query_batch = QueryBatch(features=bundle.features_at(queries))
        query_codes = encode_adaptive(model, query_batch).codes
        report = mean_average_precision(
            query_codes, bundle.labels_at(queries), db_codes, bundle.labels_at(database)
        )
        return np.concatenate([db_codes, query_codes], axis=1), report.map

    codes, got_map = pipeline()
    monkeypatch.setattr(kernel, "_map_block", float64_map_block)
    want_codes, want_map = pipeline()
    assert codes.shape == want_codes.shape == (64, 3200)
    assert (codes == want_codes).all(axis=0).mean() >= 0.999
    assert abs(got_map - want_map) <= 1e-4
