"""Anchor-based Gaussian kernel features, one map per modality.

Feature matrices are dense ``(d, n)`` arrays with one column per sample.
The kernel map replaces each sample by its Gaussian similarity to ``p``
anchors drawn from the training columns of the same modality, giving a
``(p, n)`` representation with entries in (0, 1]. The Gaussian width is
the mean distance over one list of anchor pairs: every pair when there are
at most ``MAX_WIDTH_PAIRS`` of them, otherwise that many seeded draws.

Precision: the map is one float32 product. Features centred on the anchor
mean ``mu`` and scaled by ``1/sigma`` in float64 are rounded once to float32
above two more rows, 1 and their squared norm; their product with the cached
(p, d + 2) ``AnchorSet.anchor_operand`` is ``-||x - a||^2 / (2 sigma^2)``.
The clamp at 0 and the exp run in float32, and the exp widens K exactly into
float64, the precision of everything downstream. Centring keeps the norm
expansion from cancelling: at common offsets up to 1e4 and scales 0.01-100,
Gaussian features stayed within 5.3 float32 epsilons (2**-23) of the exact
map, where an uncentred float64 map misses by up to 6e-4. Scaling first
frees the range from sigma: a scaled offset ``(x - mu)/sigma`` at or near
float32's limit (3.4e38) overflows the product into NaN, which the map
raises, and any other feature far from every anchor maps to exactly 0. On 2
vCPUs with OpenBLAS 0.3.31, a 1,024-column block at d = 256 and p = 1000
maps in 5.0-6.5 ms (medians of three in-process runs). An 8-column
batch's projected map (r = 64), called batch after batch, takes about
176 us at d = 256 and 100 us at d = 64 (medians of 2,048 and 1,640
calls), of which its two BLAS products take about 110 and 55 us.
An :class:`AnchorSet` checks itself when built, so the map checks only features.
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

    Valid by construction: finite (d, p) anchors with d, p >= 1, and a
    finite, positive width. Treat ``anchors`` as read-only: the map's two
    operands derived from them, the anchor mean and the anchor operand, are
    cached on first use outside the dataclass fields, so they are neither
    stored nor compared. Pickles carry them; ``load_model`` rebuilds them.
    """

    anchors: np.ndarray  # (d, p), columns are anchor points
    kernel_width: float  # > 0
    modality_index: int = 0
    seed: int = 0

    def __post_init__(self):
        if np.ndim(self.anchors) != 2 or 0 in np.shape(self.anchors):
            shape = np.shape(self.anchors)
            raise ShapeError(f"anchors of shape {shape} are not a (d, p) matrix with d, p >= 1")
        name = f"modality {self.modality_index}"
        require_finite(self.anchors, f"{name} anchors")
        if not 0 < self.kernel_width < math.inf:
            width = self.kernel_width
            raise InvalidParameterError(f"{name} kernel width {width} is not finite and positive")

    @cached_property
    def anchor_mean(self) -> np.ndarray:
        """The mean anchor ``mu``, a float64 (d, 1) column."""
        return self.anchors.mean(axis=1, keepdims=True)

    @cached_property
    def anchor_operand(self) -> np.ndarray:
        """Rows ``[(a - mu)/sigma, -||(a - mu)/sigma||^2 / 2, -1/2]``, formed in
        float64 as ``_map_block`` forms its columns and rounded once into one
        C-contiguous float32 (p, d + 2) array: BLAS packs no transpose per call."""
        scaled = (self.anchors - self.anchor_mean) / self.kernel_width
        half_norms = -0.5 * (scaled * scaled).sum(axis=0, keepdims=True)
        rows = np.concatenate([scaled, half_norms, np.full_like(half_norms, -0.5)])
        return np.ascontiguousarray(rows.T, dtype=np.float32)


def select_anchors(
    features, num_anchors: int, seed: int, modality_index: int = 0
) -> AnchorSet:
    """Draw anchors uniformly without replacement from the feature columns.

    The kernel width is the mean pairwise Euclidean distance among the
    selected anchors, estimated from at most ``MAX_WIDTH_PAIRS`` pairs when
    the anchor count is large, or 1 for a single anchor or a zero mean.
    Deterministic under a fixed seed. NaN or infinite anchors, or a width
    that overflows, raise :class:`NumericalError` naming the modality.
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
    name = f"modality {modality_index} features"
    anchors = require_finite(feats[:, indices].copy(), name)
    with np.errstate(over="ignore"):  # an overflowing width is raised just below
        width = _mean_anchor_distance(anchors, rng)
    if not math.isfinite(width):
        raise NumericalError(f"{name} lie too far apart for a finite kernel width")
    return AnchorSet(
        anchors=anchors,
        kernel_width=width,
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

    Returned as float64 (see the module docstring). Without a projection the
    ``(p, n)`` result is filled block by block, beside one block's work arrays.

    With an ``(r, p)`` ``projection``, returns ``projection @ K`` without
    building the whole of K: the column blocks of ``_kernel_blocks`` are
    projected one block at a time into the ``(r, n)`` result, so memory is
    O(r n + p KERNEL_BLOCK). Blocks tile the columns as BLAS tiles the whole
    product, so at the benchmark's sizes the result is the unblocked one bit
    for bit. Where r p KERNEL_BLOCK is small enough for a BLAS small-matrix
    kernel, a column can differ from the unblocked product in the last bit.

    Features must be finite: a NaN or infinite feature raises
    :class:`NumericalError` naming the anchor set's modality. So must the
    result: features whose scaled offset ``(x - mu)/sigma`` overflows the
    float32 product into NaN raise the same error, while features merely far
    from every anchor map to 0.
    """
    feats = np.asarray(features, dtype=np.float64)
    anchors = anchor_set.anchors
    if feats.ndim != 2 or feats.shape[0] != anchors.shape[0]:
        raise ShapeError(
            f"feature shape {feats.shape} does not match anchor dimensionality "
            f"{anchors.shape[0]}"
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
    starts = range(0, max(n - KERNEL_BLOCK // 2, 0) + 1, KERNEL_BLOCK)
    last = starts[-1]
    if out is None:
        buffer = np.empty(p * max(n - last, min(n, KERNEL_BLOCK)))  # the widest block
    for start in starts:
        stop = n if start == last else start + KERNEL_BLOCK
        block = feats[:, start:stop]
        if not np.isfinite(block).all():
            name = f"modality {anchor_set.modality_index} features"
            raise NumericalError(f"{name} hold a NaN or an infinity")
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
    """Write the map of validated float64 features into float64 ``out`` by the
    module docstring's product. Far features overflow to -inf (so 0) or NaN
    (raised by callers) silently: numpy's warnings are off here, and only here."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = feats - anchor_set.anchor_mean
        scaled /= anchor_set.kernel_width
        norms = (scaled * scaled).sum(axis=0)
        rows = np.empty((len(scaled) + 2, scaled.shape[1]), dtype=np.float32)
        rows[:-2] = scaled
        rows[-2] = 1.0
        rows[-1] = norms
        del scaled  # freed before the product
        exponent = anchor_set.anchor_operand @ rows
        np.minimum(exponent, 0.0, out=exponent)  # guard tiny positives from cancellation
        np.exp(exponent, out=out)
