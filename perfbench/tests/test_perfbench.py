"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

import copy
import json
import struct
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import fusehash  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from fusehash import evaluation, training  # noqa: E402
from spans import Span, SpanRecorder, read_spans, self_times  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_outputs():
    """A tiny trained model, database codes and query codes."""
    bundle = workloads.make_bundle(workloads.TINY, 5)
    sizes = workloads.TINY
    train = bundle.train_indices
    model = workloads.train_model(sizes, 5, bundle.features_at(train), bundle.labels_at(train))
    db = training.fuse_encode_fixed(model, bundle.features_at(bundle.retrieval_indices))
    queries = training.fuse_encode_fixed(model, bundle.features_at(bundle.query_indices))
    return (
        model,
        db,
        queries,
        bundle.labels_at(bundle.retrieval_indices),
        bundle.labels_at(bundle.query_indices),
    )


def flip_bit(value: float, bit: int) -> float:
    (raw,) = struct.unpack("<Q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<Q", raw ^ (1 << bit)))[0]


# ------------------------------------------------------------ workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_passes_its_checks(name, trace, tmp_path):
    result = workloads.run(name, 7, 0.2, trace, workloads.TINY, out_dir=tmp_path)
    assert result.failures == []
    assert result.correct and result.failed == 0 and result.attempted >= 1
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {m: unit for m, (_, unit) in result.metrics.items()} == declared
    assert all(np.isfinite(v) for v, _ in result.metrics.values())
    if trace:
        assert (tmp_path / f"spans-{name}-seed7.json").is_file()
    else:
        assert all(v > 0 for v, _ in result.metrics.values())
    assert not list(tmp_path.glob("work-*"))


def test_same_seed_gives_same_inputs():
    a = workloads.make_bundle(workloads.TINY, 3)
    b = workloads.make_bundle(workloads.TINY, 3)
    assert all(np.array_equal(x, y) for x, y in zip(a.modalities, b.modalities))
    assert np.array_equal(a.query_indices, b.query_indices)


def test_tracing_wraps_every_binding_and_restores_it():
    original = fusehash.kernel.apply_kernel
    recorder = SpanRecorder()
    with recorder.tracing({original: None}):
        assert fusehash.training.apply_kernel is not original
        assert fusehash.encoding.apply_kernel is fusehash.kernel.apply_kernel
        assert fusehash.apply_kernel is fusehash.kernel.apply_kernel
    for module in (fusehash, fusehash.kernel, fusehash.training, fusehash.encoding):
        assert module.apply_kernel is original


def test_recorder_links_children_to_parents(tiny_outputs):
    _, db, queries, _, _ = tiny_outputs
    recorder = SpanRecorder()
    targets = {evaluation.hamming_rank: None, fusehash.packing.pack_codes: lambda a, k, r: {"bytes": r.nbytes}}
    with recorder.tracing(targets):
        recorder.op = "op-0"
        evaluation.hamming_rank(queries[:, 0], db)
    names = [s.name for s in recorder.spans]
    assert names == ["evaluation.hamming_rank", "packing.pack_codes", "packing.pack_codes"]
    assert [s.parent for s in recorder.spans] == [None, 0, 0]
    assert recorder.spans[2].counts["bytes"] == db.shape[1] * 2
    assert all(s.op == "op-0" for s in recorder.spans)


@pytest.mark.parametrize("name", ["noisy_stream", "query_topk"])
def test_training_set_up_stays_out_of_the_measuring_process(name, tmp_path):
    workload = workloads.WORKLOADS[name](workloads.TINY, 2, tmp_path)
    recorder = SpanRecorder()
    with recorder.tracing(workloads.TRACE_TARGETS):
        workload.setup()
    names = {s.name for s in recorder.spans}
    assert "storage.load_codes" in names
    assert not any(n.startswith(("training.", "kernel.", "centers.")) for n in names)


def test_child_spans_are_adopted_with_their_tree(tmp_path):
    child = SpanRecorder()
    child.spans = [Span("a.f", 0.0, 2.0, None, "setup-0", {"bytes": 8}), Span("b.g", 0.5, 1.0, 0, "setup-0")]
    child.write(tmp_path / "spans.json")
    parent = SpanRecorder()
    parent.spans = [Span("c.h", 5.0, 6.0, None, "setup-0")]
    parent.extend(read_spans(tmp_path / "spans.json"))
    assert [(s.name, s.parent) for s in parent.spans] == [("c.h", None), ("a.f", None), ("b.g", 1)]
    assert parent.spans[1].counts == {"bytes": 8}
    assert self_times(parent.spans) == pytest.approx([1.0, 1.5, 0.5])


class _Counter:
    """A workload whose operations report whether the tracing wrappers were in place."""

    trace_block = 3

    def op(self, k):
        time.sleep(0.001)
        return fusehash.kernel.apply_kernel is not _ORIGINAL_APPLY_KERNEL

    def check(self, k, out, timed):
        self.seen.append((k, out))
        return False, []


_ORIGINAL_APPLY_KERNEL = fusehash.kernel.apply_kernel


def test_traced_loop_alternates_block_order():
    workload = _Counter()
    workload.seen = []
    traced, plain, differences = workloads.traced_loop(workload, 0.0, [], SpanRecorder())
    assert len(differences) == 1 and len(traced.latencies) == len(plain.latencies) == 3
    workload.seen = []
    _, _, differences = workloads.traced_loop(workload, 0.02, [], SpanRecorder())
    # Even pairs run untraced then traced, odd pairs traced then untraced.
    pairs = [[False] * 3 + [True] * 3, [True] * 3 + [False] * 3]
    expected = [x for i in range(len(differences)) for x in pairs[i % 2]]
    assert len(differences) >= 2
    assert [out for _, out in workload.seen] == expected
    assert [k for k, _ in workload.seen] == list(range(len(expected)))
    assert fusehash.kernel.apply_kernel is _ORIGINAL_APPLY_KERNEL


# ------------------------------------------------------------ self time


def test_self_time_subtracts_merged_children():
    spans = [
        Span("a.f", 0.0, 10.0, None, "op-0"),
        Span("b.g", 1.0, 3.0, 0, "op-0"),
        Span("b.h", 2.0, 4.0, 0, "op-0"),  # overlaps its sibling
        Span("c.k", 8.0, 12.0, 0, "op-0"),  # runs past its parent's end
        Span("d.m", 1.5, 2.5, 1, "op-0"),  # grandchild: only b.g loses it
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 2.0, 1.0, 2.0, 4.0, 1.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([Span("a.f", 2.0, 2.5, None, None)]) == [0.5]


def test_tail_is_the_block_median_of_the_eleventh_largest():
    block = list(range(1, 101))  # eleventh largest is 90
    value, pct = workloads.tail(block * 2 + [1000.0], block=100)
    assert value == 90 and pct == 90.0
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


# ------------------------------------------------------------ oracles


def test_nonincreasing_rejects_one_swapped_rank():
    trace = [5.0, 4.0, 3.0]
    assert oracles.check_nonincreasing(trace) == []
    assert oracles.check_nonincreasing([4.0, 5.0, 3.0])


def test_model_check_rejects_one_flipped_bit(tiny_outputs):
    model = tiny_outputs[0]
    assert oracles.check_models_equal(model, copy.deepcopy(model)) == []
    bad = copy.deepcopy(model)
    bad.projections[1][0, 0] = flip_bit(bad.projections[1][0, 0], 0)
    assert oracles.check_models_equal(model, bad)


def test_code_check_rejects_one_flipped_entry(tiny_outputs):
    db = tiny_outputs[1]
    bad = db.copy()
    bad[3, 7] = -bad[3, 7]
    assert oracles.check_equal_arrays("codes", db, db.copy()) == []
    assert oracles.check_equal_arrays("codes", db, bad)


def test_average_precision_check(tiny_outputs):
    _, db, queries, db_labels, q_labels = tiny_outputs
    report = evaluation.mean_average_precision(queries, q_labels, db, db_labels)
    subset = range(queries.shape[1])
    assert oracles.check_average_precision(queries, q_labels, db, db_labels, report.per_query_ap, subset) == []

    # One swapped rank: a relevant and an irrelevant item trade places.
    order, _ = oracles.naive_ranking(queries[:, 0], db)
    relevant = np.array([bool(q_labels[0] & db_labels[j]) for j in order])
    i = int(np.flatnonzero(relevant[:-1] != relevant[1:])[0])
    swapped = relevant.copy()
    swapped[[i, i + 1]] = swapped[[i + 1, i]]
    reported = report.per_query_ap.copy()
    reported[0] = evaluation.average_precision(swapped, len(swapped))
    assert oracles.check_average_precision(queries, q_labels, db, db_labels, reported, [0])

    # One flipped bit in a reported AP value.
    reported = report.per_query_ap.copy()
    reported[1] = flip_bit(reported[1], 40)
    assert oracles.check_average_precision(queries, q_labels, db, db_labels, reported, [1])


def test_pm1_check_rejects_one_flipped_bit(tiny_outputs):
    codes = tiny_outputs[2].copy()
    assert oracles.check_pm1(codes) == []
    codes.view(np.uint8)[0, 0] ^= 1
    assert oracles.check_pm1(codes)


def test_weight_check_rejects_one_flipped_bit():
    assert oracles.check_weights(np.array([0.25, 0.75]), [0, 1]) == []
    assert oracles.check_weights(np.array([1.0, 0.0]), [0]) == []
    assert oracles.check_weights(np.array([flip_bit(0.25, 50), 0.75]), [0, 1])
    assert oracles.check_weights(np.array([1.0, flip_bit(0.0, 0)]), [0])


def test_topk_check_rejects_swapped_rank_and_flipped_distance(tiny_outputs):
    _, db, queries, _, _ = tiny_outputs
    ranking = evaluation.hamming_rank(queries[:, 2], db)
    indices, distances = ranking.ranked_indices[:10], ranking.distances[:10]
    assert oracles.check_topk(queries[:, 2], db, indices, distances, 10) == []
    swapped = indices.copy()
    swapped[[0, 9]] = swapped[[9, 0]]
    assert oracles.check_topk(queries[:, 2], db, swapped, distances, 10)
    flipped = distances.copy()
    flipped[4] ^= 1
    assert oracles.check_topk(queries[:, 2], db, indices, flipped, 10)
