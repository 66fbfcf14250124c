"""Retrieval evaluation: Hamming ranking, average precision, and mAP.

Distances are computed on packed bits with XOR + popcount, so they are
exact integers. Ranking ties are broken by ascending database index, which
makes every reported number reproducible bit for bit.

``hamming_rank``, ``mean_average_precision`` and the ``query`` command
rank through one block generator, ``_ranked_blocks``: both sides are
checked and packed once, each code's item-major bytes viewed as ``k``
unsigned machine words (one uint64 at r=64), and queries ranked in blocks
of ``RANK_BLOCK``, so a block's word, distance and relevance arrays stay in
cache. Inside the generator, distances are held in the narrowest unsigned
dtype that holds the code length r (uint8 for r <= 255, uint16 up to 65535)
and ordered by a stable argsort along each row, which numpy runs as a radix
sort for these dtypes. A stable sort keeps ties in ascending index order,
so the ranking is the one int64 distances would give; public results still
carry int64 distances. mAP tests relevance on one ``ceil(L/64)``-word label
bitset per item, for L distinct labels.

mAP packs both code sets and builds the label bitsets once, on the calling
thread, then scores its query blocks on one thread per usable core
(``len(os.sched_getaffinity(0))``, else ``os.cpu_count()``), thread w taking
blocks w, w + workers, ...; with one block or one core it runs them inline
and starts no thread. Each block writes only its own queries' APs, so
results do not depend on the worker count. AP has one formula,
``_ranks_average_precision``: from the 0-based ranks ``pos`` of a query's k
relevant items within the cutoff, ``sum(arange(1, k + 1) / (pos + 1)) / k``,
or 0 when k = 0. :func:`average_precision` of a ranked relevance vector is
therefore mAP's per-query AP, byte for byte. Evaluation memory is
O(workers * RANK_BLOCK * n_db + n * ceil(L/64)), not O(n_q * n_db). Each
generator reuses one set of block-sized XOR, popcount and distance arrays,
and each mAP thread one set of label-test arrays, for every block it ranks.

Code matrices returned by ``load_codes`` carry their packed bytes, which
ranking uses as they are instead of validating and packing again. An
``EvalReport`` stores the per-query APs and the cutoff; its mAP and query
count are read from the APs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidParameterError, LabelError, ShapeError
from .packing import _words, pack_codes

# Queries ranked together by the block generator; keeps each block's arrays in cache.
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
    """Check and pack ``(r, n_q)`` query and ``(r, n_db)`` database codes at
    once; return the :func:`_ranked_blocks` iterator over all query blocks."""
    *_, pack = _code_packer(query_codes, db_codes)
    q_words, db_words, dtype = pack()
    return _ranked_blocks(q_words, db_words, dtype, range(0, q_words.shape[0], RANK_BLOCK))


def _code_packer(query_codes, db_codes):
    """Check the code shapes now; pack both sides on demand.

    Returns ``(n_q, n_db, pack)`` for ``(r, n_q)`` query and ``(r, n_db)``
    database codes, and raises ``ShapeError`` unless both are 2-d with one
    code length r. ``pack()`` returns the ``(n, k)`` query and database
    words and the narrowest unsigned dtype that holds r.
    """
    q, db = np.asarray(query_codes), np.asarray(db_codes)
    if q.ndim != 2 or db.ndim != 2 or q.shape[0] != db.shape[0]:
        raise ShapeError(
            f"query codes {q.shape} and database codes {db.shape} disagree "
            "on code length"
        )

    def pack():  # the originals: a loaded CodeMatrix hands over its bytes, np.asarray would not
        return _words(pack_codes(query_codes)), _words(pack_codes(db_codes)), np.min_scalar_type(q.shape[0])

    return q.shape[1], db.shape[1], pack


def _ranked_blocks(q_words, db_words, dtype, starts):
    """Yield ``(start, order, distances)`` for the query blocks at ``starts``.

    A block is the at most RANK_BLOCK b query words from ``start``:
    ``order`` is its ``(b, n_db)`` stable ranking and ``distances`` its
    ``(b, n_db)`` ``dtype`` distances in database order. Word, count and
    distance arrays are allocated once and reused from block to block, so
    the caller must be done with a block before taking the next: fresh
    block-sized temporaries cost page faults on every block once the
    allocator hands their megabytes back to the system.
    """
    shape = (min(RANK_BLOCK, q_words.shape[0]), db_words.shape[0])
    words, counts = np.empty(shape, dtype=db_words.dtype), np.empty(shape, dtype=np.uint8)
    distances = np.empty(shape, dtype=dtype)
    for start in starts:
        block = q_words[start : start + RANK_BLOCK]
        b = block.shape[0]
        yield start, _rank_block(block, db_words, distances[:b], words[:b], counts[:b]), distances[:b]


def _rank_block(block, db_words, distances, words, counts) -> np.ndarray:
    """Stable ``(b, n_db)`` ranking of the b query words ``block``.

    Fills the ``(b, n_db)`` narrow-dtype ``distances``; ``words`` (of the
    word dtype) and ``counts`` (uint8) are ``(b, n_db)`` scratch.
    """
    distances.fill(0)
    for q_word, db_word in zip(block.T, db_words.T):
        np.bitwise_xor.outer(q_word, db_word, out=words)
        distances += np.bitwise_count(words, out=counts)
    return np.argsort(distances, axis=1, kind="stable")


def average_precision(relevance, cutoff: int) -> float:
    """Average precision of a ranked relevance vector over the top ``cutoff``.

    Relevance is binary: a nonzero entry marks a relevant item. Sums
    precision-at-m over the relevant ranks m <= cutoff and divides by the
    number of relevant items in the top cutoff; no relevant item in the
    cutoff gives 0 by convention. The sum is mAP's own (see
    :func:`_ranks_average_precision`), so the AP of a query's ranked
    relevance vector is the per-query AP mAP reports, byte for byte.
    """
    rel = np.asarray(relevance).reshape(-1)
    if cutoff < 1:
        raise InvalidParameterError(f"cutoff must be at least 1, got {cutoff}")
    if cutoff > rel.shape[0]:
        raise InvalidParameterError(
            f"cutoff {cutoff} exceeds ranking length {rel.shape[0]}"
        )
    return _ranks_average_precision(np.flatnonzero(rel[:cutoff]))


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
    relevance is built for one block of queries at a time. Blocks are scored
    on :func:`_worker_count` threads, each writing only its own queries' APs.
    """
    num_queries, num_db, pack = _code_packer(query_codes, db_codes)  # code lengths are checked first
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
    try:
        label_ids = np.unique(np.asarray(all_labels, dtype=np.int64))
    except OverflowError as exc:
        raise LabelError(
            f"label ids must fit in int64, at most {np.iinfo(np.int64).max}"
        ) from exc
    # Everything public is called here, on the calling thread: workers run
    # numpy and private helpers only, so a wrapper around a public name (a
    # tracer, a spy) never runs concurrently with itself.
    q_words, db_words, dtype = pack()
    query_bits = _label_bits(query_labels, label_ids)
    db_bits = _label_bits(db_labels, label_ids)

    per_query = np.empty(num_queries)

    starts = range(0, num_queries, RANK_BLOCK)
    workers = min(_worker_count(), len(starts))

    def score_blocks(worker: int) -> None:
        """Score every ``workers``-th block from the ``worker``-th on."""
        shape = (min(RANK_BLOCK, num_queries), num_db)
        labels, relevant = np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=bool)
        for start, order, _ in _ranked_blocks(q_words, db_words, dtype, starts[worker::workers]):
            b = order.shape[0]
            relevant[:b] = False  # label-intersection test, word by word
            for q_word, db_word in zip(query_bits[start : start + b].T, db_bits.T):
                np.bitwise_and.outer(q_word, db_word, out=labels[:b])
                np.logical_or(relevant[:b], labels[:b], out=relevant[:b])
            for i, (row, row_order) in enumerate(zip(relevant[:b], order), start):
                per_query[i] = _ranks_average_precision(np.flatnonzero(row[row_order[:cutoff]]))

    if workers == 1:
        score_blocks(0)
    else:
        # Imported here, since concurrent.futures loads logging: about 0.5 MB
        # of resident memory in every process that imports fusehash.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(score_blocks, worker) for worker in range(workers)]:
                future.result()  # re-raises a worker's error
    return EvalReport(per_query_ap=per_query, cutoff=cutoff)


def _ranks_average_precision(positions: np.ndarray) -> float:
    """AP from the 0-based ranks of the relevant items within the cutoff.

    The m-th relevant rank contributes precision m / (rank + 1); the sum runs
    over the relevant ranks alone, and no relevant rank gives 0. The one AP
    formula: :func:`average_precision` and mAP both return it.
    """
    found = positions.shape[0]
    if found == 0:
        return 0.0
    return float((np.arange(1, found + 1) / (positions + 1)).sum() / found)


def _worker_count() -> int:
    """Threads that score mAP blocks: the cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
