"""Adaptive per-batch hash encoding for streaming multi-modal data.

The trained projections stay frozen; each arriving batch gets its own
modality weights, learned by alternating a sign step for the codes with a
residual-proportional weight step. Modalities absent from a batch carry
weight zero and drop out of the fusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    EmptyBatchError,
    InvalidParameterError,
    NumericalError,
    ShapeError,
)
from .kernel import apply_kernel
from .packing import sign_to_pm1
from .training import TrainedModel, update_weights

ENCODE_MODES = ("adaptive", "fixed")


@dataclass
class QueryBatch:
    """One batch of the stream; ``None`` marks a modality missing batch-wide."""

    features: list[np.ndarray | None]

    @property
    def present_modalities(self) -> list[int]:
        return [m for m, feats in enumerate(self.features) if feats is not None]

    @property
    def batch_size(self) -> int:
        for feats in self.features:
            if feats is not None:
                return np.asarray(feats).shape[-1]
        return 0


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


def _project_batch(model: TrainedModel, batch: QueryBatch):
    """Frozen projections of the batch per present modality.

    Returns the present-modality indices plus a dict mapping each to its
    ``W_m @ phi_m(X)`` scores; all weight handling happens downstream.
    """
    if len(batch.features) != model.num_modalities:
        raise ShapeError(
            f"model has {model.num_modalities} modalities, "
            f"batch declares {len(batch.features)}"
        )
    present = batch.present_modalities
    if not present:
        raise EmptyBatchError("every modality is missing from the batch")
    projected: dict[int, np.ndarray] = {}
    sizes = set()
    for m in present:
        projected[m] = apply_kernel(
            batch.features[m], model.anchor_sets[m], model.projections[m]
        )
        sizes.add(projected[m].shape[1])
    if len(sizes) != 1:
        raise ShapeError(f"present modalities disagree on batch size: {sorted(sizes)}")
    if sizes.pop() == 0:
        raise EmptyBatchError("batch has zero samples")
    return present, projected


def _fuse_codes(present, projected, weights) -> np.ndarray:
    """Sign step: codes from the weight-fused projections (exact minimizer)."""
    fused = None
    for m in present:
        term = projected[m] / weights[m]
        fused = term if fused is None else fused + term
    return sign_to_pm1(fused)


def _batch_objective(present, projected, codes, weights) -> float:
    total = 0.0
    for m in present:
        resid = codes - projected[m]
        total += (resid * resid).sum() / weights[m]
    return float(total)


def encode_adaptive(
    model: TrainedModel,
    batch: QueryBatch,
    max_iters: int = 30,
    rel_tol: float = 1e-5,
) -> EncodeResult:
    """Encode one batch with weights adapted to its content.

    Weights start uniform over the present modalities. Each iteration takes
    the sign of the weight-fused projections, then rebalances the weights
    from the per-modality residual norms. Both steps solve their subproblem
    exactly, so the recorded objective never increases. Stops on a weight or
    code fixpoint, on relative objective change below ``rel_tol``, or after
    ``max_iters`` iterations.
    """
    if max_iters < 1:
        raise InvalidParameterError(f"max_iters must be at least 1, got {max_iters}")
    if rel_tol <= 0:
        raise InvalidParameterError(f"rel_tol must be positive, got {rel_tol}")
    present, projected = _project_batch(model, batch)

    weights = np.zeros(model.num_modalities)
    weights[present] = 1.0 / len(present)
    codes = None
    trace: list[float] = []
    iterations = 0
    for _ in range(max_iters):
        new_codes = _fuse_codes(present, projected, weights)
        iterations += 1
        if codes is not None and np.array_equal(new_codes, codes):
            codes = new_codes
            break
        codes = new_codes
        new_weights = np.zeros(model.num_modalities)
        new_weights[present] = update_weights(
            [float(np.linalg.norm(codes - projected[m])) for m in present]
        )
        value = _batch_objective(present, projected, codes, new_weights)
        trace.append(value)
        if np.array_equal(new_weights, weights):
            weights = new_weights
            break
        weights = new_weights
        if len(trace) > 1 and abs(trace[-2] - value) <= rel_tol * max(
            abs(trace[-2]), 1e-300
        ):
            break

    return EncodeResult(
        codes=codes,
        dynamic_weights=weights,
        iterations=iterations,
        objective_trace=trace,
    )


def encode_fixed(model: TrainedModel, batch: QueryBatch) -> EncodeResult:
    """Encode one batch with the training weights, renormalized over the
    modalities actually present."""
    present, projected = _project_batch(model, batch)
    if len(present) == model.num_modalities:
        # No renormalization: keeps full-modality output bit-identical to
        # the training-stage fused hash function.
        weights = np.asarray(model.train_weights, dtype=np.float64).copy()
    else:
        weights = np.zeros(model.num_modalities)
        train = model.train_weights[present]
        weights[present] = train / train.sum()
    codes = _fuse_codes(present, projected, weights)
    trace = [_batch_objective(present, projected, codes, weights)]
    return EncodeResult(
        codes=codes,
        dynamic_weights=weights,
        iterations=1,
        objective_trace=trace,
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
