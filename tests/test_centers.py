"""Hash-center construction: Sylvester matrices, LSH re-dimensioning,
table audits, and per-sample target codes."""

import tracemalloc

import numpy as np
import pytest

from fusehash import (
    assign_target_codes,
    audit_centers,
    build_center_table,
    lsh_reduce,
    required_order,
    sylvester_hadamard,
)
from fusehash import centers as centers_module
from fusehash.centers import (
    LSH_DISTANCE_FACTOR,
    MAX_LSH_RETRIES,
    CenterAudit,
    HashCenterTable,
    count_classes,
)
from fusehash.exceptions import CenterSeparationError, InvalidParameterError, LabelError


def pairwise_distances(centers):
    """All column-pair Hamming distances, by direct comparison."""
    _, k = centers.shape
    return [
        int((centers[:, i] != centers[:, j]).sum())
        for i in range(k)
        for j in range(i + 1, k)
    ]


def reference_audit(centers, code_length, is_exact):
    """The audit from the list of every pair's distance."""
    cols = np.asarray(centers, dtype=np.int64)
    dist = (cols.shape[0] - cols.T @ cols) // 2
    pairs = dist[np.triu_indices(dist.shape[0], k=1)]
    threshold = code_length / 2.0 if is_exact else LSH_DISTANCE_FACTOR * code_length
    average = float(pairs.mean())
    return CenterAudit(average, int(pairs.min()), threshold)


def reference_table(code_length, num_categories, seed):
    """The table from the whole Sylvester matrix and its whole projection."""
    order = required_order(code_length, num_categories)
    hadamard = sylvester_hadamard(order)
    exact = code_length == order
    for attempt_seed in range(seed, seed + (1 if exact else MAX_LSH_RETRIES)):
        centers = (
            hadamard[:, :num_categories].astype(np.int8)
            if exact
            else lsh_reduce(hadamard, code_length, attempt_seed)[:, :num_categories]
        )
        audit = reference_audit(centers, code_length, exact)
        if audit.passed:
            return HashCenterTable(centers, attempt_seed), audit
    raise AssertionError("reference table failed every attempt")


class TestSylvesterHadamard:
    def test_base_case(self):
        np.testing.assert_array_equal(sylvester_hadamard(1), [[1]])

    def test_one_doubling(self):
        np.testing.assert_array_equal(sylvester_hadamard(2), [[1, 1], [1, -1]])

    def test_recursive_block_structure(self):
        """Each doubling tiles [[H, H], [H, -H]]."""
        for order in (2, 4, 8, 16):
            half = sylvester_hadamard(order)
            full = sylvester_hadamard(2 * order)
            np.testing.assert_array_equal(full[:order, :order], half)
            np.testing.assert_array_equal(full[:order, order:], half)
            np.testing.assert_array_equal(full[order:, :order], half)
            np.testing.assert_array_equal(full[order:, order:], -half)

    def test_orthogonality(self):
        """H Ht = order * I, rows and columns alike."""
        for order in (1, 2, 4, 8, 32, 128):
            matrix = sylvester_hadamard(order)
            np.testing.assert_array_equal(matrix @ matrix.T, order * np.eye(order, dtype=np.int64))
            np.testing.assert_array_equal(matrix.T @ matrix, order * np.eye(order, dtype=np.int64))

    def test_column_pairs_at_half_order(self):
        matrix = sylvester_hadamard(4)
        assert pairwise_distances(matrix) == [2] * 6

    def test_rejects_non_powers_of_two(self):
        for order in (0, -4, 3, 12, 100):
            with pytest.raises(InvalidParameterError):
                sylvester_hadamard(order)


class TestRequiredOrder:
    def test_direct_cases(self):
        assert required_order(16, 10) == 16
        assert required_order(10, 10) == 16
        assert required_order(128, 81) == 128

    def test_smallest_power_covering_both(self):
        assert required_order(1, 1) == 1
        assert required_order(2, 5) == 8
        assert required_order(48, 20) == 64
        assert required_order(64, 65) == 128

    def test_rejects_non_positive(self):
        with pytest.raises(InvalidParameterError):
            required_order(0, 4)
        with pytest.raises(InvalidParameterError):
            required_order(8, 0)


class TestLshReduce:
    def test_deterministic_under_seed(self):
        matrix = sylvester_hadamard(32)
        np.testing.assert_array_equal(
            lsh_reduce(matrix, 20, seed=7), lsh_reduce(matrix, 20, seed=7)
        )

    def test_sign_codomain(self):
        column = sylvester_hadamard(16)[:, :1]
        out = lsh_reduce(column, 9, seed=0)
        assert out.shape == (9, 1)
        assert np.all(np.abs(out) == 1)

    def test_orthogonal_inputs_land_near_half_distance(self):
        """Sign projections of orthogonal vectors disagree per bit with
        probability theta/pi = 1/2, so the mean pairwise distance over
        seeds concentrates near r/2."""
        matrix = sylvester_hadamard(64)
        code_length = 64
        means = []
        for seed in range(20):
            reduced = lsh_reduce(matrix, code_length, seed=seed)
            means.append(np.mean(pairwise_distances(reduced)))
        mean = float(np.mean(means))
        assert 0.45 * code_length <= mean <= 0.55 * code_length

    def test_rejects_non_positive_length(self):
        with pytest.raises(InvalidParameterError):
            lsh_reduce(sylvester_hadamard(8), 0, seed=0)

    def test_rejects_a_non_matrix(self):
        with pytest.raises(InvalidParameterError, match="expected a 2-d matrix"):
            lsh_reduce(np.ones(8), 4, seed=0)


class TestBuildCenterTable:
    def test_exact_order_uses_hadamard_columns(self):
        table = build_center_table(16, 10, seed=0)
        assert table.is_exact
        assert table.hadamard_order == 16
        np.testing.assert_array_equal(
            table.centers, sylvester_hadamard(16)[:, :10].astype(np.int8)
        )
        assert pairwise_distances(table.centers) == [8] * 45

    def test_redimensioned_table_passes_audit(self):
        table = build_center_table(48, 20, seed=0)
        assert not table.is_exact
        assert table.hadamard_order == 64
        audit = audit_centers(table)
        assert audit.passed
        assert audit.average_distance >= 0.45 * 48

    def test_deterministic(self):
        a = build_center_table(48, 20, seed=3)
        b = build_center_table(48, 20, seed=3)
        np.testing.assert_array_equal(a.centers, b.centers)
        assert a.seed == b.seed

    def test_requires_two_categories(self):
        with pytest.raises(InvalidParameterError):
            build_center_table(16, 1, seed=0)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_tables_and_audits_equal_the_whole_matrix_reference(self, seed):
        """Columns built alone and projected alone give the bytes, seed and
        audit that projecting the whole matrix and listing every pair give,
        for exact and re-dimensioned tables alike."""
        kinds = set()
        for code_length in (1, 2, 3, 8, 16, 31, 48, 64, 100, 128, 130):
            for num_categories in (2, 3, 5, 10, 16, 20, 33, 64, 65, 100, 129, 257):
                table = build_center_table(code_length, num_categories, seed)
                want, want_audit = reference_table(code_length, num_categories, seed)
                case = (code_length, num_categories, seed)
                assert table.centers.dtype == np.int8, case
                assert table.centers.shape == want.centers.shape, case
                assert table.centers.tobytes() == want.centers.tobytes(), case
                assert (table.seed, table.hadamard_order, table.is_exact) == (
                    want.seed, want.hadamard_order, want.is_exact
                ), case
                assert audit_centers(table) == want_audit, case
                kinds.add(table.is_exact)
        assert kinds == {True, False}

    def test_peak_memory_stays_below_one_whole_matrix(self):
        """2049 categories need order 4096: the table's peak stays below the
        8 order^2 bytes of one int64 order x order matrix."""
        tracemalloc.start()
        try:
            table = build_center_table(64, 2049, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.hadamard_order == 4096
        assert peak < 8 * 4096**2

    def test_exhausted_retries_report_the_best_attempt(self, monkeypatch):
        """With a bound no table of 20 centers can reach, every attempt fails
        and the error carries the best attempt's average distance."""
        monkeypatch.setattr(centers_module, "LSH_DISTANCE_FACTOR", 1.0)
        hadamard = sylvester_hadamard(64)
        averages = [
            reference_audit(lsh_reduce(hadamard, 48, s)[:, :20], 48, False).average_distance
            for s in range(3, 3 + MAX_LSH_RETRIES)
        ]
        with pytest.raises(CenterSeparationError) as caught:
            build_center_table(48, 20, seed=3)
        assert caught.value.achieved == max(averages)
        assert f"after {MAX_LSH_RETRIES} attempts" in str(caught.value)


class TestAuditCenters:
    def test_exact_threshold_is_half_length(self):
        table = build_center_table(8, 4, seed=0)
        audit = audit_centers(table)
        assert audit.threshold == 4.0
        assert audit.average_distance == 4.0
        assert audit.passed

    def test_failing_table_reports_distance(self):
        """A degenerate table with duplicated columns fails its audit."""
        centers = np.ones((8, 3), dtype=np.int8)
        table = HashCenterTable(centers=centers, seed=0)
        audit = audit_centers(table)
        assert audit.average_distance == 0.0
        assert not audit.passed

    def test_needs_two_centers(self):
        table = HashCenterTable(centers=np.ones((8, 1), dtype=np.int8), seed=0)
        with pytest.raises(InvalidParameterError, match="at least 2 centers"):
            audit_centers(table)

    def test_verdict_follows_distance_and_threshold(self):
        assert CenterAudit(4.0, 4, 4.0).passed
        assert not CenterAudit(3.5, 2, 4.0).passed


class TestDerivedTableValues:
    """A table stores its columns and seed; the rest is read from the columns."""

    def test_exact_columns_give_their_order(self):
        columns = build_center_table(8, 3, seed=0).centers
        table = HashCenterTable(centers=columns, seed=0)
        assert (table.code_length, table.num_categories) == (8, 3)
        assert (table.hadamard_order, table.is_exact) == (8, True)
        # audited against r/2, not the re-dimensioned 0.45 r
        assert audit_centers(table).threshold == 4.0

    def test_redimensioned_columns_give_the_covering_order(self):
        table = build_center_table(48, 20, seed=1)
        assert (table.code_length, table.num_categories) == (48, 20)
        assert (table.hadamard_order, table.is_exact) == (64, False)
        assert audit_centers(table).threshold == pytest.approx(LSH_DISTANCE_FACTOR * 48)

    def test_only_columns_and_seed_are_fields(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(HashCenterTable)] == ["centers", "seed"]


class TestCountClasses:
    def test_largest_label_plus_one(self):
        assert count_classes([{0}, set(), {2, 5}]) == 6

    @pytest.mark.parametrize("labels", [[{0}, {-3}], [{-1}, {-2}]], ids=["one", "all"])
    def test_rejects_negative_labels(self, labels):
        """Before this rule [{0}, {-3}] counted 1 class and [{-1}, {-2}] 0."""
        with pytest.raises(LabelError, match="labels must be non-negative integers"):
            count_classes(labels)


class TestAssignTargetCodes:
    def test_single_label_copies_center_column(self):
        table = build_center_table(16, 4, seed=0)
        labels = [{2}, {0}, {3}, {0}]
        codes = assign_target_codes(table, labels)
        assert codes.shape == (16, 4)
        for i, labs in enumerate(labels):
            np.testing.assert_array_equal(codes[:, i], table.centers[:, next(iter(labs))])

    def test_multi_label_is_sign_of_centroid(self):
        table = build_center_table(16, 4, seed=0)
        codes = assign_target_codes(table, [{0, 1, 2}])
        centroid = table.centers[:, [0, 1, 2]].mean(axis=1)
        np.testing.assert_array_equal(codes[:, 0], np.where(centroid >= 0, 1, -1))

    def test_centroid_ties_resolve_to_plus_one(self):
        """Two centers at distance r/2 average to zero wherever they differ."""
        table = build_center_table(16, 4, seed=0)
        codes = assign_target_codes(table, [{0, 1}])
        differ = table.centers[:, 0] != table.centers[:, 1]
        assert differ.sum() == 8
        np.testing.assert_array_equal(codes[differ, 0], np.ones(8, dtype=np.int8))
        agree = ~differ
        np.testing.assert_array_equal(codes[agree, 0], table.centers[agree, 0])

    def test_rejects_bad_labels(self):
        table = build_center_table(16, 4, seed=0)
        with pytest.raises(LabelError):
            assign_target_codes(table, [set()])
        with pytest.raises(LabelError):
            assign_target_codes(table, [{4}])
        with pytest.raises(LabelError):
            assign_target_codes(table, [{-1}])
