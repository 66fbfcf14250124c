"""Anchor-based Gaussian kernel features, one map per modality.

Feature matrices are dense ``(d, n)`` arrays with one column per sample.
The kernel map replaces each sample by its Gaussian similarity to ``p``
anchors drawn from the training columns of the same modality, giving a
``(p, n)`` representation with entries in (0, 1]. The Gaussian width is
the mean distance over one list of anchor pairs: every pair when there are
at most ``MAX_WIDTH_PAIRS`` of them, otherwise that many seeded draws.

Precision: the map computes in float32 around the anchor mean ``mu``.
Features and anchors are centred on ``mu`` in float64 and rounded once to
float32; the product with the cached C-contiguous (p, d) rows
``-2 (a_j - mu)``, the norms, the clamp, the scale and the exp run in
float32, and each block of K is widened to float64 once, which is exact.
Everything downstream of K (projection, Gram statistics, solves, residuals)
stays float64. Centring keeps the expansion ``||x||^2 - 2 a.x + ||a||^2``
from cancelling when features share a large offset: on Gaussian features
with a common offset up to 1e4 and scales 0.01-100, measured entries stayed
within 5.3 float32 epsilons (2**-23) of the exact map, where an uncentred
float64 map misses by up to 6e-4 at an offset of 1e4. The float32 product
halves the anchor bytes BLAS packs per call, which sets the cost of the
thin products of small-batch encoding: on 2 vCPUs with OpenBLAS 0.3.31, the
projected map of an 8-column batch at d=256, p=1000, r=64 took 153-221 us
against 227-280 us in float64 (three alternating in-process runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import InvalidParameterError, NumericalError, ShapeError

# Cap on the anchor pairs used by the kernel-width heuristic.
MAX_WIDTH_PAIRS = 2000

# Columns mapped together by _kernel_blocks, for the projected map and for
# training's Gram statistics; bounds the (p, block) kernel array alive at once.
KERNEL_BLOCK = 1024


@dataclass(frozen=True)
class AnchorSet:
    """Anchors of one modality plus the Gaussian width used with them.

    Treat ``anchors`` as read-only: the map's operands derived from them (the
    anchor mean, the centred anchors' -2 multiple and their squared norms)
    are cached on first use, outside the dataclass fields, so they are
    neither stored nor compared. Pickles carry the caches; ``load_model``
    rebuilds them.
    """

    anchors: np.ndarray  # (d, p), columns are anchor points
    kernel_width: float  # > 0
    modality_index: int = 0
    seed: int = 0

    @cached_property
    def anchor_mean(self) -> np.ndarray:
        """The mean anchor ``mu``, a float64 (d, 1) column. The map centres
        features and anchors on it before rounding them to float32."""
        return self.anchors.mean(axis=1, keepdims=True)

    @cached_property
    def scaled_anchors(self) -> np.ndarray:
        """``-2 (a_j - mu)`` as rows, a C-contiguous float32 (p, d) array.
        The map's product then reads its anchors row-major, so BLAS does not
        pack a transposed operand on every call. The centring is done in
        float64 and the result rounded once; scaling by -2 does not round."""
        scaled = np.empty(self.anchors.shape[::-1], dtype=np.float32)
        np.multiply((self.anchors - self.anchor_mean).T, -2.0, out=scaled)
        return scaled

    @cached_property
    def squared_norms(self) -> np.ndarray:
        """``||a_j - mu||^2`` per anchor, summed in float64 and rounded once
        to a float32 (p, 1) column."""
        centred = self.anchors - self.anchor_mean
        return (centred * centred).sum(axis=0).astype(np.float32)[:, None]


def select_anchors(
    features, num_anchors: int, seed: int, modality_index: int = 0
) -> AnchorSet:
    """Draw anchors uniformly without replacement from the feature columns.

    The kernel width is the mean pairwise Euclidean distance among the
    selected anchors, estimated from at most ``MAX_WIDTH_PAIRS`` pairs when
    the anchor count is large, or 1 for a single anchor or a zero mean.
    Deterministic under a fixed seed.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ShapeError(f"expected a (d, n) feature matrix, got shape {feats.shape}")
    n = feats.shape[1]
    if num_anchors < 1:
        raise InvalidParameterError(f"num_anchors must be positive, got {num_anchors}")
    if num_anchors > n:
        raise InvalidParameterError(
            f"cannot draw {num_anchors} anchors from {n} samples"
        )
    rng = np.random.default_rng(seed)
    indices = rng.choice(n, size=num_anchors, replace=False)
    anchors = feats[:, indices].copy()
    return AnchorSet(
        anchors=anchors,
        kernel_width=_mean_anchor_distance(anchors, rng),
        modality_index=modality_index,
        seed=seed,
    )


def _mean_anchor_distance(anchors, rng) -> float:
    p = anchors.shape[1]
    if p < 2:
        return 1.0
    if p * (p - 1) // 2 <= MAX_WIDTH_PAIRS:
        left, right = np.triu_indices(p, k=1)
    else:
        left = rng.integers(0, p, size=MAX_WIDTH_PAIRS)
        shift = rng.integers(1, p, size=MAX_WIDTH_PAIRS)
        right = (left + shift) % p  # shift >= 1 keeps left != right
    diffs = anchors[:, left] - anchors[:, right]
    mean = float(np.linalg.norm(diffs, axis=0).mean())
    return mean if mean > 0 else 1.0


def apply_kernel(features, anchor_set: AnchorSet, projection=None) -> np.ndarray:
    """Gaussian kernel map: entry (j, i) = exp(-||x_i - a_j||^2 / (2 sigma^2)).

    Computed in float32 around the anchor mean and returned as float64 (see
    the module docstring). Without a projection, the ``(p, n)`` result is
    filled one column block of ``_kernel_blocks`` at a time, so besides it
    the map holds only one block's float32 work arrays.

    With an ``(r, p)`` ``projection``, returns ``projection @ K`` without
    building the whole of K: the column blocks of ``_kernel_blocks`` are
    projected one block at a time into the ``(r, n)`` result, so memory is
    O(r n + p KERNEL_BLOCK). Blocks tile the columns as BLAS tiles the whole
    product, so at the benchmark's sizes the result is the unblocked one bit
    for bit. Where r p KERNEL_BLOCK is small enough for a BLAS small-matrix
    kernel, a column can differ from the unblocked product in the last bit.

    Features must be finite: a NaN or infinite feature raises
    :class:`NumericalError` naming the anchor set's modality. So must the
    result: features so far out that the float32 map overflows into a NaN
    raise the same error, while features merely far from every anchor map
    to 0.
    """
    feats = np.asarray(features, dtype=np.float64)
    anchors = anchor_set.anchors
    if feats.ndim != 2 or feats.shape[0] != anchors.shape[0]:
        raise ShapeError(
            f"feature shape {feats.shape} does not match anchor dimensionality "
            f"{anchors.shape[0]}"
        )
    if anchor_set.kernel_width <= 0:
        raise InvalidParameterError(
            f"anchor set has non-positive kernel width {anchor_set.kernel_width}"
        )
    if not math.isfinite(anchor_set.kernel_width):
        raise InvalidParameterError(
            f"anchor set has non-finite kernel width {anchor_set.kernel_width}"
        )
    name = f"modality {anchor_set.modality_index} kernel features"
    if projection is None:
        kernel = np.empty((anchors.shape[1], feats.shape[1]))
        for _ in _kernel_blocks(feats, anchor_set, kernel):
            pass
        return require_finite(kernel, name)
    proj = np.asarray(projection, dtype=np.float64)
    if proj.ndim != 2 or proj.shape[1] != anchors.shape[1]:
        raise ShapeError(
            f"projection shape {proj.shape} does not match {anchors.shape[1]} anchors"
        )
    out = np.empty((proj.shape[0], feats.shape[1]))
    for start, stop, block in _kernel_blocks(feats, anchor_set):
        np.matmul(proj, block, out=out[:, start:stop])
    return require_finite(out, name)


def _kernel_blocks(feats: np.ndarray, anchor_set: AnchorSet, out=None):
    """Yield ``(start, stop, K[:, start:stop])`` over column blocks of the map.

    ``feats`` are float64 features of the anchors' dimensionality. Blocks
    start at multiples of ``KERNEL_BLOCK``; a remainder narrower than
    ``KERNEL_BLOCK // 2`` joins the block before it, so no block is narrower
    than that unless it is the only one, and fewer than
    ``1.5 * KERNEL_BLOCK`` columns make one block, mapped exactly as the
    whole matrix would be. Each block is checked for non-finite features
    (:class:`NumericalError` naming the modality) and mapped into
    ``out[:, start:stop]`` of a given float64 ``(p, n)`` ``out``; without
    one, every block is widened into one float64 buffer reused from block
    to block, so the caller must be done with a block before taking the next.
    """
    p, n = anchor_set.anchors.shape[1], feats.shape[1]
    name = f"modality {anchor_set.modality_index} features"
    edges = [*range(0, max(n - KERNEL_BLOCK // 2, 0) + 1, KERNEL_BLOCK), n]
    spans = list(zip(edges, edges[1:]))
    if out is None:
        buffer = np.empty(p * max(stop - start for start, stop in spans))
    for start, stop in spans:
        block = require_finite(feats[:, start:stop], name)
        if out is None:
            dest = buffer[: p * (stop - start)].reshape(p, stop - start)
        else:
            dest = out[:, start:stop]
        _map_block(block, anchor_set, dest)
        yield start, stop, dest


def _sample_count(mats) -> int:
    """The sample count n of the ``(d, n)`` feature matrices ``mats``, skipping
    ``None`` entries (0 if none is left); :class:`ShapeError` for a
    non-matrix or for counts that disagree."""
    for m, mat in enumerate(mats):
        if mat is not None and np.ndim(mat) != 2:
            raise ShapeError(f"modality {m} is not a matrix: shape {np.shape(mat)}")
    counts = {np.shape(mat)[1] for mat in mats if mat is not None}
    if len(counts) > 1:
        raise ShapeError(f"modalities disagree on sample count: {sorted(counts)}")
    return counts.pop() if counts else 0


def require_finite(values, name: str) -> np.ndarray:
    """``values`` as float64, or :class:`NumericalError` naming them when any
    entry is NaN or infinite."""
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise NumericalError(f"{name} hold a NaN or an infinity")
    return values


def _map_block(feats: np.ndarray, anchor_set: AnchorSet, out: np.ndarray) -> None:
    """Write the kernel map of validated float64 features into float64 ``out``.

    Features are centred on the anchor mean in float64 and rounded once to
    float32; the product, the norms, the clamp, the scale and the exp run in
    float32, and the exp widens its result into ``out``. Far features
    overflow to inf, which maps to 0, or to NaN, which callers raise on: so
    those steps, and not the caller's code, run without numpy's warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        centred = np.empty(feats.shape, dtype=np.float32)
        np.subtract(feats, anchor_set.anchor_mean, out=centred)
        feat_norms = (centred * centred).sum(axis=0)
        sq = anchor_set.scaled_anchors @ centred
        sq += anchor_set.squared_norms
        sq += feat_norms
        np.maximum(sq, 0.0, out=sq)  # guard tiny negatives from cancellation
        sq /= -(2.0 * anchor_set.kernel_width**2)
        np.exp(sq, out=out)
