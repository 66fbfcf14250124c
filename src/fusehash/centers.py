"""Hash-center construction on Sylvester Hadamard matrices.

A center table fixes one {-1, +1} column per category. Column ``j`` of the
Sylvester matrix is built alone from H[i, j] = (-1)^popcount(i & j), so a
table reads only its own columns and never the whole matrix. When the
requested code length is already a power of two no smaller than the
category count, those columns are used verbatim and every pair of centers
sits at Hamming distance exactly r/2. Otherwise they are re-dimensioned by
a seeded Gaussian sign projection. Both kinds of table are audited, from
per-bit counts and one Gram of the centers, against their average-distance
bound; re-dimensioned tables draw fresh projections until they pass.
A table stores only its columns and seed, and an audit its figures: every
other value, the verdict included, is a read-only property of those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import CenterSeparationError, InvalidParameterError, LabelError
from .packing import sign_to_pm1

# Acceptance threshold for re-dimensioned tables as a fraction of the code
# length; exact tables must average r/2.
LSH_DISTANCE_FACTOR = 0.45

# Re-dimensioning attempts (seed incremented each time) before giving up.
MAX_LSH_RETRIES = 16


@dataclass(frozen=True)
class HashCenterTable:
    """One {-1, +1} center column per category.

    ``seed`` records the Gaussian draw used by the re-dimensioning step; it
    is kept even for exact tables where no randomness was consumed. The
    code length r, the category count C, the Hadamard order
    ``required_order(r, C)`` and ``is_exact`` (no LSH step: r is that
    order) are read from the columns, so they cannot disagree with them.
    """

    centers: np.ndarray  # (r, C) int8 over {-1, +1}
    seed: int

    @property
    def code_length(self) -> int:
        return self.centers.shape[0]

    @property
    def num_categories(self) -> int:
        return self.centers.shape[1]

    @property
    def hadamard_order(self) -> int:
        return required_order(self.code_length, self.num_categories)

    @property
    def is_exact(self) -> bool:
        return self.code_length == self.hadamard_order


@dataclass(frozen=True)
class CenterAudit:
    """Pairwise-distance audit of a center table."""

    average_distance: float
    min_distance: int
    threshold: float

    @property
    def passed(self) -> bool:
        return self.average_distance >= self.threshold


def sylvester_hadamard(order: int) -> np.ndarray:
    """Canonical Sylvester Hadamard matrix of the given power-of-two order.

    Entry (i, j) is (-1)^popcount(i & j), which is the recursive doubling
    ``[[H, H], [H, -H]]`` from ``[[1]]``. Entries are int64 so that
    orthogonality checks stay exact in integer arithmetic.
    """
    if order < 1 or order & (order - 1):
        raise InvalidParameterError(f"order must be a power of two, got {order}")
    return _hadamard_columns(order, order).astype(np.int64)


def _hadamard_columns(order: int, count: int) -> np.ndarray:
    """The first ``count`` columns of the Sylvester matrix of ``order``, int8."""
    parity = np.bitwise_count(np.arange(order)[:, None] & np.arange(count)) & 1
    return 1 - 2 * parity.astype(np.int8)


def required_order(code_length: int, num_categories: int) -> int:
    """Smallest power of two covering both the code length and the category count."""
    if code_length < 1:
        raise InvalidParameterError(f"code_length must be positive, got {code_length}")
    if num_categories < 1:
        raise InvalidParameterError(
            f"num_categories must be positive, got {num_categories}"
        )
    order = 1
    while order < code_length or order < num_categories:
        order *= 2
    return order


def lsh_reduce(matrix, code_length: int, seed: int) -> np.ndarray:
    """Re-dimension sign columns by a seeded Gaussian projection.

    Column ``i`` of the result is ``sign(P^T c_i)`` where ``P`` has i.i.d.
    standard-normal entries drawn from ``seed``; zeros map to +1. The
    formula works for any target length, shorter or longer than the input.
    """
    cols = np.asarray(matrix)
    if cols.ndim != 2:
        raise InvalidParameterError(f"expected a 2-d matrix, got shape {cols.shape}")
    if code_length < 1:
        raise InvalidParameterError(
            f"code_length must be positive, got {code_length}"
        )
    rng = np.random.default_rng(seed)
    projection = rng.standard_normal((cols.shape[0], code_length))
    return sign_to_pm1(projection.T @ cols)


def audit_centers(table: HashCenterTable) -> CenterAudit:
    """Average/minimum pairwise Hamming distance and the pass verdict.

    Exact tables must average at least r/2; re-dimensioned tables at least
    ``LSH_DISTANCE_FACTOR * r``. Both figures come from exact integer sums:
    a bit with ``ones`` plus signs among C centers separates
    ``ones * (C - ones)`` pairs, and +-1 columns u, v lie (r - u.v) / 2
    apart. The Gram is formed in float64 so that BLAS multiplies it; it is
    still exact, since every partial sum is an integer of magnitude at most r.
    """
    if table.num_categories < 2:
        raise InvalidParameterError("auditing needs at least 2 centers")
    cols = np.asarray(table.centers, dtype=np.float64)
    r, count = cols.shape
    ones = (cols > 0).sum(axis=1)
    average = int((ones * (count - ones)).sum()) / (count * (count - 1) // 2)
    gram = cols.T @ cols
    np.fill_diagonal(gram, -r)  # a center's product with itself is no pair
    return CenterAudit(
        average_distance=average,
        min_distance=(r - int(gram.max())) // 2,
        threshold=r / 2.0 if table.is_exact else LSH_DISTANCE_FACTOR * r,
    )


def build_center_table(
    code_length: int, num_categories: int, seed: int = 0
) -> HashCenterTable:
    """Build and validate a center table for the requested code length.

    Takes the first ``num_categories`` columns of the Sylvester matrix of
    order ``required_order(code_length, num_categories)``. When the order
    already equals the code length the columns are used as-is, in one
    attempt; otherwise they are re-dimensioned with :func:`lsh_reduce`,
    retrying with incremented seeds up to ``MAX_LSH_RETRIES`` times until
    the audit passes. The projection's Gaussian draw depends only on the
    order, so projecting these columns alone gives the columns of the whole
    matrix's projection. Deterministic: identical inputs give bit-identical
    tables.
    """
    if num_categories < 2:
        raise InvalidParameterError(
            f"need at least 2 categories, got {num_categories}"
        )
    order = required_order(code_length, num_categories)
    columns = _hadamard_columns(order, num_categories)
    exact = code_length == order
    best = -1.0
    for attempt in range(1 if exact else MAX_LSH_RETRIES):
        attempt_seed = seed + attempt
        table = HashCenterTable(
            centers=columns if exact else lsh_reduce(columns, code_length, attempt_seed),
            seed=attempt_seed,
        )
        audit = audit_centers(table)
        if audit.passed:
            return table
        best = max(best, audit.average_distance)
    raise CenterSeparationError(
        f"average center distance {best:.3f} stayed below "
        f"{audit.threshold:.3f} after {attempt + 1} attempts",
        achieved=best,
    )


def count_classes(labels) -> int:
    """Categories that the label sets span: the largest label id plus one.

    Raises :class:`LabelError` when no sample carries a label, or when a
    label is negative, the rule of ``mean_average_precision``.
    """
    if any(label < 0 for s in labels for label in s):
        raise LabelError("labels must be non-negative integers")
    largest = max((max(s) for s in labels if s), default=None)
    if largest is None:
        raise LabelError("no sample carries a label")
    return largest + 1


def assign_target_codes(table: HashCenterTable, labels) -> np.ndarray:
    """Per-sample target codes as an ``(r, n)`` int8 matrix.

    A single-label sample gets its category's center column verbatim; a
    multi-label sample gets the per-bit sign of the mean of its member
    centers, with zero ties mapped to +1.
    """
    centers = table.centers
    k = table.num_categories
    out = np.empty((table.code_length, len(labels)), dtype=np.int8)
    for i, label_set in enumerate(labels):
        idx = sorted(set(label_set))
        if not idx:
            raise LabelError(f"sample {i} has an empty label set")
        if idx[0] < 0 or idx[-1] >= k:
            raise LabelError(
                f"sample {i} has labels outside [0, {k}): {idx}"
            )
        if len(idx) == 1:
            out[:, i] = centers[:, idx[0]]
        else:
            out[:, i] = sign_to_pm1(centers[:, idx].mean(axis=1))
    return out
