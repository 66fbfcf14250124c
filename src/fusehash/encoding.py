"""Adaptive per-batch hash encoding for streaming multi-modal data.

The trained projections stay frozen; each arriving batch gets its own
modality weights, learned by alternating a sign step for the codes with a
residual-proportional weight step. Modalities absent from a batch carry
weight zero and drop out of the fusion. :func:`encode_fixed` is the
fixed-weight hash function, which fuses with the training weights instead.
Both take their codes from one sign step, :func:`_fuse_signs`.

A stream takes one path: :func:`_split_batches` cuts features into batches,
:func:`encode_stream` encodes each alone, and :func:`_stream_codes` joins
their codes or raises on a failed batch. Present modalities must agree on
the sample count, the rule ``kernel._sample_count`` that ``fit`` shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    EmptyBatchError,
    FusehashError,
    InvalidParameterError,
    NumericalError,
    ShapeError,
)
from .kernel import _sample_count, apply_kernel
from .packing import sign_to_pm1
from .training import TrainedModel, _settled, update_weights

ENCODE_MODES = ("adaptive", "fixed")

# Cap on the adaptive encoder's sign steps; its relative stop is training's
# ``_settled``.
MAX_ITERS = 30


@dataclass
class QueryBatch:
    """One batch of the stream; ``None`` marks a modality missing batch-wide."""

    features: list[np.ndarray | None]

    @property
    def present_modalities(self) -> list[int]:
        return [m for m, feats in enumerate(self.features) if feats is not None]

    @property
    def batch_size(self) -> int:
        return _sample_count(self.features)


@dataclass
class EncodeResult:
    """Codes and learned weights of one batch."""

    codes: np.ndarray  # (r, n_q), entries in {-1, +1}
    dynamic_weights: np.ndarray  # (M,), zero exactly at missing modalities
    iterations: int
    objective_trace: list[float] = field(default_factory=list)


@dataclass
class FailedBatch:
    """Placeholder emitted by :func:`encode_stream` when one batch errors out."""

    batch_index: int
    error: Exception


def _split_batches(features, batch_size: int | None = None) -> list[QueryBatch]:
    """Cut ``(d, n)`` arrays (``None``: a modality missing throughout) into
    batches of views of ``batch_size`` consecutive columns, in column order;
    ``None`` makes one batch. Raises :class:`EmptyBatchError` when every
    modality is missing or n is 0, and :class:`InvalidParameterError` when
    ``batch_size`` < 1."""
    if all(mat is None for mat in features):
        raise EmptyBatchError("every modality is missing")
    n = _sample_count(features)
    if n == 0:
        raise EmptyBatchError("the features have zero samples")
    batch_size = n if batch_size is None else batch_size
    if batch_size < 1:
        raise InvalidParameterError(f"batch_size must be positive, got {batch_size}")
    return [
        QueryBatch([None if mat is None else mat[:, start : start + batch_size] for mat in features])
        for start in range(0, n, batch_size)
    ]


def _project_batch(model: TrainedModel, batch: QueryBatch):
    """Frozen projections of the batch per present modality.

    Returns the present-modality indices plus a dict mapping each to its
    ``W_m @ phi_m(X)`` scores; all weight handling happens downstream. The
    batch's shape is checked before any modality is mapped.
    """
    if len(batch.features) != model.num_modalities:
        raise ShapeError(
            f"model has {model.num_modalities} modalities, "
            f"batch declares {len(batch.features)}"
        )
    present = batch.present_modalities
    if not present:
        raise EmptyBatchError("every modality is missing from the batch")
    if _sample_count(batch.features) == 0:
        raise EmptyBatchError("batch has zero samples")
    projected = {
        m: apply_kernel(batch.features[m], model.anchor_sets[m], model.projections[m])
        for m in present
    }
    return present, projected


def _fuse_signs(present, projected, weights, fused, scratch) -> np.ndarray:
    """The sign step of every encoder: ``sign(sum_m P_m / w_m)`` over the
    present modalities in order.

    The sum accumulates in ``fused`` and each later term is scaled into
    ``scratch``, two ``(r, n)`` float64 buffers that the caller reuses.
    """
    first, *rest = present
    np.divide(projected[first], weights[first], out=fused)
    for m in rest:
        np.divide(projected[m], weights[m], out=scratch)
        fused += scratch
    return sign_to_pm1(fused)


def _squared_residuals(present, projected, codes, scratch) -> np.ndarray:
    """``||codes - P_m||_F^2`` per present modality, each residual formed in
    the ``(r, n)`` float64 buffer ``scratch``.

    The square is the dot product that ``np.linalg.norm`` takes, so
    ``np.sqrt`` of it is that norm bit for bit.
    """
    squared = np.empty(len(present))
    resid = scratch.reshape(-1)
    for i, m in enumerate(present):
        np.subtract(codes, projected[m], out=scratch)
        squared[i] = resid.dot(resid)
    return squared


def encode_adaptive(model: TrainedModel, batch: QueryBatch) -> EncodeResult:
    """Encode one batch with weights adapted to its content.

    Weights start uniform over the present modalities. Each iteration takes
    the sign of the weight-fused projections, then rebalances the weights
    from the per-modality residual norms; the objective
    ``sum_m ||codes - P_m||^2 / w_m`` comes from the same residuals. Both
    steps solve their subproblem exactly, so the recorded objective never
    increases. Stops on a code or weight fixpoint, on a relative objective
    change of at most ``training.REL_TOL`` (training's ``_settled``), or
    after ``MAX_ITERS`` sign steps.
    """
    present, projected = _project_batch(model, batch)

    weights = np.zeros(model.num_modalities)
    weights[present] = 1.0 / len(present)
    fused, scratch = np.empty_like(projected[present[0]]), np.empty_like(projected[present[0]])
    codes = None
    trace: list[float] = []
    iterations = 0
    for _ in range(MAX_ITERS):
        new_codes = _fuse_signs(present, projected, weights, fused, scratch)
        iterations += 1
        if codes is not None and np.array_equal(new_codes, codes):
            break
        codes = new_codes
        squared = _squared_residuals(present, projected, codes, scratch)
        new_weights = np.zeros(model.num_modalities)
        new_weights[present] = update_weights(np.sqrt(squared))
        value = float((squared / new_weights[present]).sum())
        trace.append(value)
        if np.array_equal(new_weights, weights):
            break
        weights = new_weights
        if len(trace) > 1 and _settled(trace[-2], value):
            break

    return EncodeResult(
        codes=codes,
        dynamic_weights=weights,
        iterations=iterations,
        objective_trace=trace,
    )


def encode_fixed(model: TrainedModel, batch: QueryBatch) -> EncodeResult:
    """Encode one batch with the training weights, renormalized over the
    modalities actually present: the fixed-weight hash function."""
    present, projected = _project_batch(model, batch)
    if len(present) == model.num_modalities:
        # The stored weights as they are: renormalizing them can change their
        # last bit, and with it the codes of a database encoded before.
        weights = np.asarray(model.train_weights, dtype=np.float64).copy()
    else:
        weights = np.zeros(model.num_modalities)
        train = model.train_weights[present]
        weights[present] = train / train.sum()
    fused, scratch = np.empty_like(projected[present[0]]), np.empty_like(projected[present[0]])
    codes = _fuse_signs(present, projected, weights, fused, scratch)
    squared = _squared_residuals(present, projected, codes, scratch)
    return EncodeResult(
        codes=codes,
        dynamic_weights=weights,
        iterations=1,
        objective_trace=[float((squared / weights[present]).sum())],
    )


def encode_stream(
    model: TrainedModel,
    batches,
    mode: str = "adaptive",
) -> list[EncodeResult | FailedBatch]:
    """Encode batches independently in arrival order.

    A batch that raises is reported as a :class:`FailedBatch` in its slot
    and the stream continues; batches never see each other's state.
    """
    if mode not in ENCODE_MODES:
        raise InvalidParameterError(
            f"mode must be one of {ENCODE_MODES}, got {mode!r}"
        )
    results: list[EncodeResult | FailedBatch] = []
    for index, batch in enumerate(batches):
        try:
            if mode == "adaptive":
                results.append(encode_adaptive(model, batch))
            else:
                results.append(encode_fixed(model, batch))
        except (ShapeError, EmptyBatchError, InvalidParameterError, NumericalError) as exc:
            results.append(FailedBatch(batch_index=index, error=exc))
    return results


def _stream_codes(results: list[EncodeResult | FailedBatch]) -> np.ndarray:
    """The stream's codes side by side, or :class:`FusehashError` naming the
    first :class:`FailedBatch`, chained to its error."""
    codes = []
    for result in results:
        if isinstance(result, FailedBatch):
            raise FusehashError(
                f"batch {result.batch_index} failed: {result.error}"
            ) from result.error
        codes.append(result.codes)
    return np.concatenate(codes, axis=1)
