"""Independent correctness checks for the benchmark's outputs.

Each check returns a list of failure messages; an empty list means the
output passed. The checks recompute what they verify from unpacked int8
codes with plain loops and ``np.lexsort``, sharing no code with the packed
popcount and argsort paths of ``fusehash.evaluation``.
"""

from __future__ import annotations

import numpy as np

# Naive and library average precision sum the same terms in another order.
AP_TOLERANCE = 1e-9
# Weights are normalized by one division, so their sum is 1 to rounding.
WEIGHT_TOLERANCE = 1e-12


def naive_ranking(query_code, db_codes) -> tuple[np.ndarray, np.ndarray]:
    """Database order by Hamming distance, ties by ascending index, from int8 codes."""
    q = np.asarray(query_code, dtype=np.int8).reshape(-1, 1)
    distances = (np.asarray(db_codes, dtype=np.int8) != q).sum(axis=0)
    order = np.lexsort((np.arange(distances.shape[0]), distances))
    return order, distances[order]


def naive_average_precision(query_code, query_labels, db_codes, db_labels) -> float:
    """AP over the whole database, relevance by label-set intersection."""
    order, _ = naive_ranking(query_code, db_codes)
    hits = 0
    total = 0.0
    for rank, index in enumerate(order, start=1):
        if query_labels & db_labels[index]:
            hits += 1
            total += hits / rank
    return total / hits if hits else 0.0


def check_nonincreasing(trace) -> list[str]:
    return [
        f"objective rose at iteration {i}: {trace[i - 1]!r} -> {trace[i]!r}"
        for i in range(1, len(trace))
        if trace[i] > trace[i - 1]
    ]


def check_equal_arrays(name: str, expected, actual) -> list[str]:
    a, b = np.asarray(expected), np.asarray(actual)
    if a.shape != b.shape:
        return [f"{name}: shape {b.shape} != {a.shape}"]
    if not np.array_equal(a, b):
        return [f"{name}: {int((a != b).sum())} entries differ"]
    return []


def check_models_equal(expected, actual) -> list[str]:
    """Every stored field of a reloaded model equals the in-memory model's."""
    failures = check_equal_arrays("train_weights", expected.train_weights, actual.train_weights)
    if (expected.delta, expected.code_length) != (actual.delta, actual.code_length):
        failures.append("delta or code_length differ")
    if len(expected.projections) != len(actual.projections):
        return failures + ["modality count differs"]
    for m, (pa, pb) in enumerate(zip(expected.projections, actual.projections)):
        failures += check_equal_arrays(f"projections[{m}]", pa, pb)
    for m, (sa, sb) in enumerate(zip(expected.anchor_sets, actual.anchor_sets)):
        failures += check_equal_arrays(f"anchors[{m}]", sa.anchors, sb.anchors)
        if sa.kernel_width != sb.kernel_width:
            failures.append(f"kernel_width[{m}] differs")
    return failures


def check_average_precision(query_codes, query_labels, db_codes, db_labels, reported, subset) -> list[str]:
    """Reported per-query AP equals the naive AP on each query of ``subset``."""
    failures = []
    for i in subset:
        expected = naive_average_precision(query_codes[:, i], query_labels[i], db_codes, db_labels)
        if abs(expected - reported[i]) > AP_TOLERANCE:
            failures.append(f"query {i}: AP {reported[i]!r} != naive {expected!r}")
    return failures


def check_pm1(codes) -> list[str]:
    arr = np.asarray(codes)
    bad = int((np.abs(arr.astype(np.int64)) != 1).sum())
    return [f"{bad} code entries outside {{-1, +1}}"] if bad else []


def check_weights(weights, present) -> list[str]:
    """Weights sum to 1 over the present modalities and are exactly 0 elsewhere."""
    w = np.asarray(weights, dtype=np.float64)
    failures = []
    missing = [m for m in range(w.shape[0]) if m not in present]
    if any(w[m] != 0.0 for m in missing):
        failures.append(f"nonzero weight at a missing modality: {w.tolist()}")
    if not abs(w[list(present)].sum() - 1.0) <= WEIGHT_TOLERANCE:
        failures.append(f"present weights sum to {w[list(present)].sum()!r}")
    return failures


def check_topk(query_code, db_codes, indices, distances, k) -> list[str]:
    """Top-k indices and distances equal a naive recount with index tie-break."""
    order, dist = naive_ranking(query_code, db_codes)
    failures = check_equal_arrays("top-k indices", order[:k], indices)
    failures += check_equal_arrays("top-k distances", dist[:k], distances)
    return failures
