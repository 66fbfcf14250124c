"""Retrieval evaluation: ranking, average precision, mAP."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusehash import (
    average_precision,
    evaluation,
    hamming_rank,
    load_codes,
    mean_average_precision,
    packing,
    sign_to_pm1,
    store_codes,
)
from fusehash.bench import naive_average_precision, naive_hamming, naive_query_ap, naive_ranking
from fusehash.evaluation import (
    RANK_BLOCK,
    EvalReport,
    _rank_blocks,
    format_report,
    report_key_values,
)
from fusehash.exceptions import InvalidParameterError, LabelError, ShapeError


def random_codes(rng, code_length, count):
    return np.where(rng.random((code_length, count)) < 0.5, 1, -1).astype(np.int8)


class TestHammingRank:
    def test_distances_match_bitwise_loop(self):
        rng = np.random.default_rng(0)
        db = sign_to_pm1(rng.standard_normal((13, 40)))
        query = sign_to_pm1(rng.standard_normal(13))
        ranked = hamming_rank(query, db)
        for t, j in enumerate(ranked.ranked_indices):
            assert ranked.distances[t] == naive_hamming(query, db[:, j])

    def test_exact_match_ranks_first_antipode_last(self):
        rng = np.random.default_rng(1)
        query = sign_to_pm1(rng.standard_normal(16))
        middle = query.copy()
        middle[:5] *= -1
        db = np.stack([-query, middle, query], axis=1)
        ranked = hamming_rank(query, db)
        np.testing.assert_array_equal(ranked.ranked_indices, [2, 1, 0])
        np.testing.assert_array_equal(ranked.distances, [0, 5, 16])

    def test_order_is_non_decreasing(self):
        rng = np.random.default_rng(2)
        db = sign_to_pm1(rng.standard_normal((8, 100)))
        query = sign_to_pm1(rng.standard_normal(8))
        ranked = hamming_rank(query, db)
        assert np.all(np.diff(ranked.distances) >= 0)

    def test_ties_break_by_database_position(self):
        query = np.array([1, 1, 1, 1], dtype=np.int8)
        flipped = query.copy()
        flipped[0] = -1
        other = query.copy()
        other[3] = -1
        db = np.stack([flipped, other, flipped.copy()], axis=1)  # all distance 1
        ranked = hamming_rank(query, db)
        np.testing.assert_array_equal(ranked.ranked_indices, [0, 1, 2])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            hamming_rank(np.ones(4, dtype=np.int8), np.ones((5, 3), dtype=np.int8))

    def test_rejects_a_matrix_query(self):
        """A (32, 2) query is two codes, not one 64-bit code; only (r,) and (r, 1) rank."""
        rng = np.random.default_rng(12)
        db = random_codes(rng, 64, 20)
        for shape in ((32, 2), (1, 64), (2, 32, 1), ()):
            with pytest.raises(ShapeError):
                hamming_rank(np.ones(shape, dtype=np.int8), db)
        column = random_codes(rng, 64, 1)
        got = hamming_rank(column, db)
        want = hamming_rank(column[:, 0], db)
        np.testing.assert_array_equal(got.ranked_indices, want.ranked_indices)
        np.testing.assert_array_equal(got.distances, want.distances)

    @pytest.mark.parametrize(
        "query, db",
        [
            ([1], [[1, -1, -1, 1, 1, -1]]),  # r = 1: only distances 0 and 1
            ([-1], [[-1, -1, -1]]),  # r = 1, every item equal to the query
            ([1, -1, 1], [[1] * 5, [-1] * 5, [1] * 5]),  # all distances 0
            ([1, -1, 1], [[-1] * 4, [1] * 4, [-1] * 4]),  # all distances r
            ([1, 1, 1, 1], [[-1, 1, 1, -1, 1], [1, 1, -1, 1, 1], [1, 1, 1, 1, 1], [1, -1, 1, 1, 1]]),
        ],
    )
    def test_sorted_distances_equal_the_reference(self, query, db):
        """Sorted int64 distances equal the int8 reference at r = 1, with ties and all equal."""
        ranked = hamming_rank(np.array(query, dtype=np.int8), np.array(db, dtype=np.int8))
        expected_order, expected_distances = naive_ranking(query, db)
        np.testing.assert_array_equal(ranked.ranked_indices, expected_order)
        assert ranked.distances.dtype == np.int64
        assert ranked.distances.tobytes() == expected_distances.astype(np.int64).tobytes()

    def test_distances_above_255_do_not_wrap(self):
        """All +1 against all -1 at r=300 is distance 300, not 300 mod 256."""
        query = np.ones(300, dtype=np.int8)
        db = np.stack([-query, query], axis=1)
        ranked = hamming_rank(query, db)
        np.testing.assert_array_equal(ranked.ranked_indices, [1, 0])
        np.testing.assert_array_equal(ranked.distances, [0, 300])
        assert ranked.distances.dtype == np.int64

    @settings(max_examples=60, deadline=None)
    @given(
        code_length=st.sampled_from([1, 8, 16, 24, 32, 64, 128, 255, 256, 300]),
        num_queries=st.integers(1, 3 * RANK_BLOCK + 1),
        num_db=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_ranking_matches_naive(self, code_length, num_queries, num_db, seed):
        """Every block's order and distances equal the int8 reference, ties included.

        The lengths cover every word size of the kernel: r = 1, 8 and 24 rank
        in uint8 words, 16 in one uint16, 32 in one uint32, 64 and 128 in one
        and two uint64, 255 and 256 in four uint64, and 300 in 19 uint16.
        """
        rng = np.random.default_rng(seed)
        pool = random_codes(rng, code_length, max(1, num_db // 3))
        db = pool[:, rng.integers(0, pool.shape[1], num_db)]  # repeated columns tie
        queries = random_codes(rng, code_length, num_queries)
        seen = 0
        for start, order, distances in _rank_blocks(queries, db):
            assert start == seen and order.shape[0] <= RANK_BLOCK
            for row, (row_order, row_distances) in enumerate(zip(order, distances)):
                expected_order, expected_distances = naive_ranking(queries[:, start + row], db)
                np.testing.assert_array_equal(row_order, expected_order)
                np.testing.assert_array_equal(row_distances[row_order], expected_distances)
            seen += order.shape[0]
        assert seen == num_queries
        if num_db:
            single = hamming_rank(queries[:, 0], db)
            expected_order, expected_distances = naive_ranking(queries[:, 0], db)
            np.testing.assert_array_equal(single.ranked_indices, expected_order)
            np.testing.assert_array_equal(single.distances, expected_distances)


def cumsum_average_precision(relevance, cutoff):
    """AP from the running hit count at every rank, summed over the whole cutoff."""
    rel = np.asarray(relevance, dtype=np.float64)[:cutoff]
    hits = np.cumsum(rel)
    if hits[-1] == 0:
        return 0.0
    ranks = np.arange(1, cutoff + 1, dtype=np.float64)
    return float((hits / ranks * rel).sum() / hits[-1])


class TestAveragePrecision:
    def test_worked_example(self):
        """Hits at ranks 1 and 3 of a cutoff 3 give (1 + 2/3) / 2."""
        value = average_precision([1, 0, 1], cutoff=3)
        assert abs(value - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12

    def test_all_relevant_is_one(self):
        assert average_precision([1, 1, 1, 1], cutoff=4) == 1.0

    def test_no_relevant_is_zero(self):
        assert average_precision([0, 0, 0], cutoff=3) == 0.0

    def test_relevance_outside_cutoff_ignored(self):
        assert average_precision([0, 0, 1], cutoff=2) == 0.0

    def test_matches_naive_on_random_vectors(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            relevance = rng.integers(0, 2, size=n)
            cutoff = int(rng.integers(1, n + 1))
            got = average_precision(relevance, cutoff)
            want = naive_average_precision(relevance[:cutoff])
            assert abs(got - want) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        relevance=st.lists(st.booleans(), min_size=1, max_size=600),
        as_int=st.booleans(),
    )
    def test_within_64_eps_of_cumsum_formula(self, relevance, as_int):
        """Bool and 0/1 vectors, every cutoff: summed over the relevant ranks
        alone, AP stays within 64 eps relative of the cutoff-length sum."""
        rel = np.array(relevance, dtype=np.int64 if as_int else bool)
        for cutoff in range(1, rel.shape[0] + 1):
            got = average_precision(rel, cutoff)
            want = cumsum_average_precision(rel, cutoff)
            assert abs(got - want) <= 64 * np.finfo(np.float64).eps * want

    def test_rejects_bad_cutoffs(self):
        with pytest.raises(InvalidParameterError):
            average_precision([1, 0], cutoff=0)
        with pytest.raises(InvalidParameterError):
            average_precision([1, 0], cutoff=3)


class TestMeanAveragePrecision:
    def separable_setup(self, rng, per_class=20):
        """Two classes whose codes agree within class and differ across."""
        a = sign_to_pm1(rng.standard_normal(16))
        b = -a
        db = np.stack([a] * per_class + [b] * per_class, axis=1)
        db_labels = [{0}] * per_class + [{1}] * per_class
        queries = np.stack([a, b], axis=1)
        query_labels = [{0}, {1}]
        return queries, query_labels, db, db_labels

    def test_separable_classes_score_one(self):
        rng = np.random.default_rng(4)
        queries, query_labels, db, db_labels = self.separable_setup(rng)
        report = mean_average_precision(queries, query_labels, db, db_labels)
        assert report.map == 1.0
        assert report.num_queries == 2
        assert report.cutoff == db.shape[1]

    def test_matches_naive_pipeline(self):
        """Five queries against a naive distance sort plus literal AP."""
        rng = np.random.default_rng(5)
        db = sign_to_pm1(rng.standard_normal((12, 30)))
        db_labels = [{int(rng.integers(0, 3))} for _ in range(30)]
        queries = sign_to_pm1(rng.standard_normal((12, 5)))
        query_labels = [{int(rng.integers(0, 3))} for _ in range(5)]
        cutoff = 20
        report = mean_average_precision(queries, query_labels, db, db_labels, cutoff=cutoff)
        aps = [naive_query_ap(queries[:, q], query_labels[q], db, db_labels, cutoff) for q in range(5)]
        assert abs(report.map - np.mean(aps)) < 1e-12
        np.testing.assert_allclose(report.per_query_ap, aps, atol=1e-12)

    def test_random_codes_score_near_half(self):
        """Unrelated codes on a two-class balanced database hover at 0.5."""
        rng = np.random.default_rng(6)
        db = sign_to_pm1(rng.standard_normal((16, 300)))
        db_labels = [{j % 2} for j in range(300)]
        queries = sign_to_pm1(rng.standard_normal((16, 50)))
        query_labels = [{q % 2} for q in range(50)]
        report = mean_average_precision(queries, query_labels, db, db_labels)
        assert abs(report.map - 0.5) < 0.05

    def test_multi_label_intersection_counts(self):
        rng = np.random.default_rng(7)
        code = sign_to_pm1(rng.standard_normal(8))
        db = np.stack([code, code], axis=1)
        report = mean_average_precision(
            code.reshape(-1, 1), [{0, 1}], db, [{1, 5}, {7}]
        )
        # only the first item shares a label; it ranks in the top two by tie
        assert report.map == pytest.approx(1.0)

    def test_query_with_no_relevant_items_scores_zero(self):
        rng = np.random.default_rng(8)
        code = sign_to_pm1(rng.standard_normal(8))
        report = mean_average_precision(
            code.reshape(-1, 1), [{9}], np.stack([code], axis=1), [{0}]
        )
        assert report.map == 0.0

    def test_rejects_empty_and_mismatched_inputs(self):
        code = np.ones((8, 1), dtype=np.int8)
        with pytest.raises(InvalidParameterError):
            mean_average_precision(np.ones((8, 0), dtype=np.int8), [], code, [{0}])
        with pytest.raises(InvalidParameterError):
            mean_average_precision(code, [{0}], np.ones((8, 0), dtype=np.int8), [])
        with pytest.raises(LabelError):
            mean_average_precision(code, [{0}, {1}], code, [{0}])
        with pytest.raises(ShapeError):
            mean_average_precision(np.ones((6, 1), dtype=np.int8), [{0}], code, [{0}])
        with pytest.raises(ShapeError):  # before the label counts are compared
            mean_average_precision(np.ones((6, 1), dtype=np.int8), [{0}, {1}], code, [{0}])

    @pytest.mark.parametrize("num_queries", [63, 64, 65])
    @settings(max_examples=5, deadline=None)
    @given(code_length=st.sampled_from([8, 64, 300]), seed=st.integers(0, 2**32 - 1))
    def test_per_query_ap_does_not_depend_on_blocks(self, num_queries, code_length, seed):
        """Query counts around a multiple of the block size give each query its lone-query AP."""
        assert 64 % RANK_BLOCK == 0
        rng = np.random.default_rng(seed)
        db = random_codes(rng, code_length, 30)
        db_labels = [{int(rng.integers(0, 3))} for _ in range(30)]
        queries = random_codes(rng, code_length, num_queries)
        query_labels = [{int(rng.integers(0, 3))} for _ in range(num_queries)]
        report = mean_average_precision(queries, query_labels, db, db_labels)
        for i in range(num_queries):
            alone = mean_average_precision(queries[:, i : i + 1], query_labels[i : i + 1], db, db_labels)
            assert report.per_query_ap[i] == alone.per_query_ap[0]
            want = naive_query_ap(queries[:, i], query_labels[i], db, db_labels, 30)
            assert abs(report.per_query_ap[i] - want) < 1e-12

    def test_large_label_ids_are_compacted(self):
        """Ids {10**9, 7} score as {1, 0} and allocate nothing sized by the id."""
        rng = np.random.default_rng(11)
        db = random_codes(rng, 16, 40)
        queries = random_codes(rng, 16, 6)
        small = [{0}, {1}, {0, 1}]
        db_labels = [small[j % 3] for j in range(40)]
        query_labels = [small[q % 3] for q in range(6)]
        relabel = {0: 7, 1: 10**9}
        big_db = [{relabel[x] for x in labels} for labels in db_labels]
        big_query = [{relabel[x] for x in labels} for labels in query_labels]
        expected = mean_average_precision(queries, query_labels, db, db_labels)
        tracemalloc.start()
        try:
            report = mean_average_precision(queries, big_query, db, big_db)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(report.per_query_ap, expected.per_query_ap)
        assert report.map == expected.map
        assert peak < 1 << 20

    def test_many_labels_span_several_bitset_words(self):
        """130 distinct labels in multi-label sets use three mask words and score as the naive mAP."""
        rng = np.random.default_rng(13)
        num_db, num_queries = 60, 12
        base = random_codes(rng, 24, 20)
        db = base[:, rng.integers(0, 20, num_db)]  # repeated columns: ties
        queries = random_codes(rng, 24, num_queries)

        def label_sets(count):
            return [set(rng.choice(130, int(rng.integers(1, 6)), replace=False).tolist()) for _ in range(count)]

        db_labels = label_sets(num_db)
        db_labels[0] = set(range(130))  # every label id occurs
        query_labels = label_sets(num_queries)
        query_labels[0] = {0, 64, 128}  # one bit in each word
        query_labels[1] = {129}
        for cutoff in (None, 25):
            report = mean_average_precision(queries, query_labels, db, db_labels, cutoff)
            aps = [
                naive_query_ap(queries[:, q], query_labels[q], db, db_labels, cutoff or num_db)
                for q in range(num_queries)
            ]
            np.testing.assert_allclose(report.per_query_ap, aps, rtol=0, atol=1e-12)

    def test_label_bitsets_bound_memory(self):
        """4,096 distinct labels cost 64 words per item, not a float per label and item."""
        rng = np.random.default_rng(14)
        num_db, num_queries = 2000, 64
        db = random_codes(rng, 16, num_db)
        queries = random_codes(rng, 16, num_queries)
        db_labels = [{2 * j, 2 * j + 1} for j in range(num_db)]  # ids 0 to 3,999
        query_labels = [{3968 + 2 * q, 3969 + 2 * q} for q in range(num_queries)]  # ids 3,968 to 4,095
        assert len(set().union(*db_labels, *query_labels)) == 4096
        tracemalloc.start()
        try:
            report = mean_average_precision(queries, query_labels, db, db_labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.num_queries == num_queries
        assert peak < 4 << 20

    def test_rejects_negative_labels(self):
        code = np.ones((8, 1), dtype=np.int8)
        with pytest.raises(LabelError):
            mean_average_precision(code, [{-1}], code, [{0}])

    def test_rejects_out_of_range_cutoff(self):
        code = np.ones((8, 1), dtype=np.int8)
        with pytest.raises(InvalidParameterError):
            mean_average_precision(code, [{0}], code, [{0}], cutoff=2)

    def test_rejects_label_ids_beyond_int64(self):
        code = np.ones((8, 1), dtype=np.int8)
        with pytest.raises(LabelError, match="int64, at most 9223372036854775807"):
            mean_average_precision(code, [{2**63}], code, [{0}])
        assert mean_average_precision(code, [{2**63 - 1}], code, [{2**63 - 1}]).map == 1.0

    @pytest.mark.parametrize(
        "args, error",
        [
            ((np.ones((6, 2), dtype=np.int8), [{0}], np.ones((8, 1)), [{0}]), ShapeError),
            ((np.ones((8, 0), dtype=np.int8), [], np.ones((8, 1)), [{0}]), InvalidParameterError),
            ((np.ones((8, 1), dtype=np.int8), [{0}, {1}], np.ones((8, 1)), [{0}]), LabelError),
            ((np.ones((8, 1), dtype=np.int8), [{0}], np.ones((8, 1)), [{0}], 2), InvalidParameterError),
            ((np.ones((8, 1), dtype=np.int8), [{-1}], np.ones((8, 1)), [{0}]), LabelError),
            ((np.ones((8, 1), dtype=np.int8), [{2**64}], np.ones((8, 1)), [{0}]), LabelError),
        ],
        ids=["code-lengths", "empty", "label-counts", "cutoff", "negative-label", "huge-label"],
    )
    def test_rejected_arguments_pack_nothing(self, monkeypatch, args, error):
        """Every argument check runs before either code set is packed."""

        def refuse(codes):
            raise AssertionError("pack_codes called before the arguments were checked")

        monkeypatch.setattr(evaluation, "pack_codes", refuse)
        with pytest.raises(error):
            mean_average_precision(*args)


class TestParallelScoring:
    """mAP blocks run on ``_worker_count()`` threads and take AP from the relevant ranks."""

    @staticmethod
    def problem(rng, num_queries, num_db=200, code_length=24):
        base = random_codes(rng, code_length, 40)
        db = base[:, rng.integers(0, 40, num_db)]  # repeated columns: ties
        db_labels = [set(rng.choice(5, int(rng.integers(1, 3)), replace=False).tolist()) for _ in range(num_db)]
        queries = random_codes(rng, code_length, num_queries)
        query_labels = [{int(rng.integers(0, 5))} for _ in range(num_queries)]
        return queries, query_labels, db, db_labels

    @pytest.mark.parametrize("num_queries", [63, 64, 65])
    @pytest.mark.parametrize("cutoff", [None, 37])
    def test_per_query_ap_bytes_do_not_depend_on_workers(self, monkeypatch, num_queries, cutoff):
        args = self.problem(np.random.default_rng(num_queries), num_queries)
        per_query = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(evaluation, "_worker_count", lambda: workers)
            per_query.append(mean_average_precision(*args, cutoff).per_query_ap.tobytes())
        assert per_query[1] == per_query[0]
        assert per_query[2] == per_query[0]

    def test_many_workers_lose_no_write(self, monkeypatch):
        """16 workers on 50 blocks, switching threads every microsecond."""
        args = self.problem(np.random.default_rng(40), 50 * RANK_BLOCK, num_db=64)
        monkeypatch.setattr(evaluation, "_worker_count", lambda: 1)
        want = mean_average_precision(*args).per_query_ap.tobytes()
        monkeypatch.setattr(evaluation, "_worker_count", lambda: 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert mean_average_precision(*args).per_query_ap.tobytes() == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "seed, code_length, num_db, num_labels, num_queries, short_cutoff",
        [(31, 16, 3000, 3, 40, 1000), (5, 64, 5000, 16, 100, 777)],
        ids=["16-bit", "64-bit"],
    )
    def test_rank_ap_equals_average_precision_bytes(
        self, seed, code_length, num_db, num_labels, num_queries, short_cutoff
    ):
        """mAP's per-query AP is ``average_precision`` of the query's ranked
        relevance vector, byte for byte, at the full cutoff and a shorter one."""
        rng = np.random.default_rng(seed)
        db = random_codes(rng, code_length, num_db)
        db_labels = [{int(x)} for x in rng.integers(0, num_labels, num_db)]
        queries = random_codes(rng, code_length, num_queries)
        query_labels = [{int(x)} for x in rng.integers(0, num_labels, num_queries)]
        for cutoff in (num_db, short_cutoff):
            report = mean_average_precision(queries, query_labels, db, db_labels, cutoff)
            for i in range(num_queries):
                order, _ = naive_ranking(queries[:, i], db)
                relevance = np.array([bool(db_labels[j] & query_labels[i]) for j in order])
                want = average_precision(relevance, cutoff)
                assert np.float64(want).tobytes() == report.per_query_ap[i].tobytes()

    def test_public_calls_stay_on_the_calling_thread(self, monkeypatch):
        """Packing (and any AP call) runs on the caller; blocks run on the workers."""
        threads = {"pack_codes": [], "average_precision": [], "_rank_block": []}
        for name in threads:
            original = getattr(evaluation, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                threads[_name].append(threading.get_ident())
                return _original(*args, **kwargs)

            monkeypatch.setattr(evaluation, name, spy)
        monkeypatch.setattr(evaluation, "_worker_count", lambda: 3)
        mean_average_precision(*self.problem(np.random.default_rng(41), 65))
        caller = threading.get_ident()
        assert threads["pack_codes"] == [caller, caller]
        assert set(threads["average_precision"]) <= {caller}
        assert len(threads["_rank_block"]) == 9
        assert caller not in threads["_rank_block"]

    @pytest.mark.parametrize("workers, num_queries", [(4, RANK_BLOCK), (1, 65)])
    def test_one_block_or_one_core_starts_no_thread(self, monkeypatch, workers, num_queries):
        args = self.problem(np.random.default_rng(42), num_queries)
        want = mean_average_precision(*args).per_query_ap.tobytes()

        def refuse(thread):
            raise AssertionError(f"started thread {thread.name}")

        monkeypatch.setattr(evaluation, "_worker_count", lambda: workers)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert mean_average_precision(*args).per_query_ap.tobytes() == want


class TestLoadedCodes:
    """Codes read by ``load_codes`` rank from their carried bytes like a plain copy."""

    @staticmethod
    def loaded(tmp_path, name, codes):
        store_codes(codes, tmp_path / name)
        return load_codes(tmp_path / name)

    @pytest.mark.parametrize("num_queries", [63, 65])  # whole blocks and a partial one
    @pytest.mark.parametrize("code_length", [3, 64, 300])
    def test_loaded_equals_plain_copy(self, tmp_path, num_queries, code_length):
        rng = np.random.default_rng(code_length + num_queries)
        base = random_codes(rng, code_length, 40)
        db = base[:, rng.integers(0, 40, 200)]  # repeated columns: ties
        db_labels = [{int(rng.integers(0, 4))} for _ in range(200)]
        queries = random_codes(rng, code_length, num_queries)
        query_labels = [{int(rng.integers(0, 4))} for _ in range(num_queries)]
        loaded_db = self.loaded(tmp_path, "db.amfh", db)
        loaded_q = self.loaded(tmp_path, "q.amfh", queries)
        plain_db, plain_q = np.array(loaded_db), np.array(loaded_q)
        for i in (0, RANK_BLOCK - 2, num_queries - 1):
            got = hamming_rank(loaded_q[:, i], loaded_db)
            want = hamming_rank(plain_q[:, i], plain_db)
            np.testing.assert_array_equal(got.ranked_indices, want.ranked_indices)
            np.testing.assert_array_equal(got.distances, want.distances)
            assert got.distances.dtype == np.int64
        for cutoff in (None, 10):
            got = mean_average_precision(loaded_q, query_labels, loaded_db, db_labels, cutoff)
            want = mean_average_precision(plain_q, query_labels, plain_db, db_labels, cutoff)
            assert got.per_query_ap.tobytes() == want.per_query_ap.tobytes()
            assert got.map == want.map

    def test_loaded_database_skips_the_sign_check(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(21)
        loaded_db = self.loaded(tmp_path, "db.amfh", random_codes(rng, 64, 500))
        query = random_codes(rng, 64, 1)[:, 0]
        checked = []
        check = packing._require_pm1
        monkeypatch.setattr(packing, "_require_pm1", lambda arr: (checked.append(arr.shape), check(arr)))
        hamming_rank(query, loaded_db)
        assert checked == [(64, 1)]  # the query alone
        checked.clear()
        mean_average_precision(query[:, None], [{0}], loaded_db, [{0}] * 500)
        assert checked == [(64, 1)]
        checked.clear()
        hamming_rank(query, np.array(loaded_db))  # a plain copy is checked
        assert checked == [(64, 1), (64, 500)]


class TestEvalReport:
    def test_map_and_query_count_are_read_from_the_aps(self):
        import dataclasses

        aps = np.array([1.0, 0.5, 0.25, 0.1])
        report = EvalReport(per_query_ap=aps, cutoff=7)
        assert report.map == float(aps.mean())
        assert report.num_queries == 4
        assert [f.name for f in dataclasses.fields(EvalReport)] == ["per_query_ap", "cutoff"]


class TestReportText:
    def test_format_report_lines(self):
        rng = np.random.default_rng(9)
        queries, query_labels, db, db_labels = TestMeanAveragePrecision().separable_setup(rng)
        report = mean_average_precision(queries, query_labels, db, db_labels)
        text = format_report(report)
        lines = text.splitlines()
        assert lines[0].startswith("metric")
        assert "mAP" in lines[1] and "1.000000" in lines[1]
        assert str(report.cutoff) in lines[2]
        assert str(report.num_queries) in lines[3]

    def test_key_values_parse_back(self):
        rng = np.random.default_rng(10)
        queries, query_labels, db, db_labels = TestMeanAveragePrecision().separable_setup(rng)
        report = mean_average_precision(queries, query_labels, db, db_labels)
        pairs = dict(
            line.split(" ", 1) for line in report_key_values(report, per_query=True).splitlines()
        )
        assert float(pairs["map"]) == report.map
        assert int(pairs["cutoff"]) == report.cutoff
        assert int(pairs["num_queries"]) == report.num_queries
        assert float(pairs["ap[0]"]) == report.per_query_ap[0]
