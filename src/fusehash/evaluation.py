"""Retrieval evaluation: Hamming ranking, average precision, and mAP.

Distances are computed on packed bits with XOR + popcount, so they are
exact integers. Ranking ties are broken by ascending database index, which
makes every reported number reproducible bit for bit.

``hamming_rank``, ``mean_average_precision`` and the ``query`` command share
one kernel: it packs both sides once, views each code's item-major bytes as
``k`` unsigned machine words (one uint64 at r=64), and ranks queries in
blocks of ``RANK_BLOCK``, so a block's word, distance and relevance arrays
stay in cache. Inside the kernel, distances are held in the narrowest
unsigned dtype that holds the code length r (uint8 for r <= 255, uint16 up
to 65535) and ordered by a stable argsort along each row, which numpy runs
as a radix sort for these dtypes. A stable sort keeps ties in ascending
index order, so the ranking is the one int64 distances would give; public
results still carry int64 distances. mAP tests relevance on one
``ceil(L/64)``-word label bitset per item, for L distinct labels.
Evaluation memory is O(RANK_BLOCK * n_db + n * ceil(L/64)), not
O(n_q * n_db). Code matrices returned by ``load_codes`` carry their packed
bytes, which the kernel uses as they are instead of validating and packing
again. An ``EvalReport`` stores the per-query APs and the cutoff; its mAP
and query count are read from the APs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidParameterError, LabelError, ShapeError
from .packing import _words, pack_codes

# Queries ranked together by the kernel; keeps each block's arrays in cache.
RANK_BLOCK = 8


@dataclass
class RankedRetrieval:
    """Full ranking of one query against a code database."""

    ranked_indices: np.ndarray  # permutation of database indices
    distances: np.ndarray  # non-decreasing, aligned with ranked_indices


@dataclass
class EvalReport:
    per_query_ap: np.ndarray  # (n_q,); map and num_queries are read from it
    cutoff: int

    @property
    def map(self) -> float:
        return float(self.per_query_ap.mean())

    @property
    def num_queries(self) -> int:
        return self.per_query_ap.shape[0]


def hamming_rank(query, database) -> RankedRetrieval:
    """Rank database columns by Hamming distance from an ``(r,)`` or ``(r, 1)`` query code."""
    query_code = np.asarray(query)
    if query_code.ndim == 2 and query_code.shape[1] == 1:
        query_code = query_code[:, 0]
    if query_code.ndim != 1:
        raise ShapeError(f"expected one (r,) or (r, 1) query code, got shape {query_code.shape}")
    _, order, distances = next(_rank_blocks(query_code.reshape(-1, 1), database))
    return RankedRetrieval(
        ranked_indices=order[0],
        distances=distances[0][order[0]].astype(np.int64),  # a 1-d gather, not the slower [0, order[0]]
    )


def _rank_blocks(query_codes, db_codes):
    """Rank the database for consecutive blocks of at most RANK_BLOCK queries.

    Checks the ``(r, n_q)`` query and ``(r, n_db)`` database code shapes at
    once; the returned iterator packs both once, then yields ``(start, order,
    distances)`` per block of b queries: ``order`` is the ``(b, n_db)`` stable
    ranking of queries ``start`` to ``start + b - 1``, and ``distances`` their
    ``(b, n_db)`` narrow-dtype distances in database order.
    """
    q = np.asarray(query_codes)
    db = np.asarray(db_codes)
    if q.ndim != 2 or db.ndim != 2 or q.shape[0] != db.shape[0]:
        raise ShapeError(
            f"query codes {q.shape} and database codes {db.shape} disagree "
            "on code length"
        )
    return _ranked_blocks(query_codes, db_codes, np.min_scalar_type(q.shape[0]))


def _ranked_blocks(query_codes, db_codes, dtype):
    """The iterator of :func:`_rank_blocks`, with distances of ``dtype``."""
    q_words = _words(pack_codes(query_codes))  # the originals: a loaded CodeMatrix
    db_words = _words(pack_codes(db_codes))  # hands over its bytes, np.asarray would not
    for start in range(0, q_words.shape[0], RANK_BLOCK):
        block = q_words[start : start + RANK_BLOCK]
        distances = np.zeros((block.shape[0], db_words.shape[0]), dtype=dtype)
        for q_word, db_word in zip(block.T, db_words.T):
            distances += np.bitwise_count(np.bitwise_xor.outer(q_word, db_word))
        yield start, np.argsort(distances, axis=1, kind="stable"), distances


def average_precision(relevance, cutoff: int) -> float:
    """Average precision of a ranked relevance vector over the top ``cutoff``.

    Relevance is binary: a nonzero entry marks a relevant item. Sums
    precision-at-m over the relevant ranks m <= cutoff and divides by the
    number of relevant items in the top cutoff; no relevant item in the
    cutoff gives 0 by convention. Precision is written only at the relevant
    ranks of a zero vector of length ``cutoff`` and the whole vector is
    summed, so numpy's pairwise summation order depends on the cutoff alone.
    """
    rel = np.asarray(relevance).reshape(-1)
    if cutoff < 1:
        raise InvalidParameterError(f"cutoff must be at least 1, got {cutoff}")
    if cutoff > rel.shape[0]:
        raise InvalidParameterError(
            f"cutoff {cutoff} exceeds ranking length {rel.shape[0]}"
        )
    positions = np.flatnonzero(rel[:cutoff])
    found = positions.shape[0]
    if found == 0:
        return 0.0
    precision = np.zeros(cutoff)
    precision[positions] = np.arange(1, found + 1, dtype=np.float64) / (positions + 1.0)
    return float(precision.sum() / found)


def _label_bits(label_sets, label_ids: np.ndarray) -> np.ndarray:
    """``(n, ceil(L/64))`` uint64 bitsets; bit k of row j marks ``label_ids[k]`` in set j."""
    ids = np.searchsorted(label_ids, [label for labels in label_sets for label in labels])
    rows = np.repeat(np.arange(len(label_sets)), [len(labels) for labels in label_sets])
    bits = np.zeros((len(label_sets), (label_ids.shape[0] + 63) // 64), dtype=np.uint64)
    np.bitwise_or.at(bits, (rows, ids // 64), np.left_shift(np.uint64(1), (ids % 64).astype(np.uint64)))
    return bits


def mean_average_precision(
    query_codes,
    query_labels,
    db_codes,
    db_labels,
    cutoff: int | None = None,
) -> EvalReport:
    """mAP of a query set against a code database.

    A database item counts as relevant when its label set intersects the
    query's. The cutoff defaults to the full database size. Label ids are
    compacted to their sorted distinct values, so their magnitude costs no
    memory; each item's labels become a bitset of ``ceil(L/64)`` words, and
    relevance is built for one block of queries at a time.
    """
    blocks = _rank_blocks(query_codes, db_codes)  # code lengths are checked first
    num_queries = np.shape(query_codes)[1]
    num_db = np.shape(db_codes)[1]
    if num_queries == 0 or num_db == 0:
        raise InvalidParameterError("query set and database must be non-empty")
    if len(query_labels) != num_queries or len(db_labels) != num_db:
        raise LabelError(
            f"label counts ({len(query_labels)}, {len(db_labels)}) do not match "
            f"code counts ({num_queries}, {num_db})"
        )
    if cutoff is None:
        cutoff = num_db
    if cutoff < 1 or cutoff > num_db:
        raise InvalidParameterError(
            f"cutoff must be in [1, {num_db}], got {cutoff}"
        )

    all_labels = [label for labels in query_labels for label in labels]
    all_labels += [label for labels in db_labels for label in labels]
    if any(label < 0 for label in all_labels):
        raise LabelError("labels must be non-negative integers")
    label_ids = np.unique(np.asarray(all_labels, dtype=np.int64))
    query_bits = _label_bits(query_labels, label_ids)
    db_bits = _label_bits(db_labels, label_ids)

    per_query = np.empty(num_queries)
    for start, order, _ in blocks:
        relevant = np.zeros(order.shape, dtype=bool)  # label-intersection test, word by word
        for q_word, db_word in zip(query_bits[start : start + order.shape[0]].T, db_bits.T):
            relevant |= np.bitwise_and.outer(q_word, db_word) != 0
        for i, (row, row_order) in enumerate(zip(relevant, order), start):
            per_query[i] = average_precision(row[row_order], cutoff)
    return EvalReport(per_query_ap=per_query, cutoff=cutoff)


def format_report(report: EvalReport) -> str:
    """Small plain-text table of an evaluation report."""
    lines = [
        "metric            value",
        f"mAP               {report.map:.6f}",
        f"cutoff            {report.cutoff}",
        f"queries           {report.num_queries}",
    ]
    return "\n".join(lines)


def report_key_values(report: EvalReport, per_query: bool = False) -> str:
    """Machine-readable ``key value`` lines of an evaluation report."""
    lines = [
        f"map {report.map:.12g}",
        f"cutoff {report.cutoff}",
        f"num_queries {report.num_queries}",
    ]
    if per_query:
        for i, ap in enumerate(report.per_query_ap):
            lines.append(f"ap[{i}] {ap:.12g}")
    return "\n".join(lines)
