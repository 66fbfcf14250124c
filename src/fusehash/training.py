"""Alternating closed-form training of projections and modality weights.

The trainer regresses kernel features of every modality onto the shared
binary target codes. Each iteration solves a ridge system per modality in
closed form, then rebalances the simplex-constrained modality weights
from the residual norms; both steps minimize their subproblem exactly, so
the objective never increases in exact arithmetic. The kernel features
enter only through their Gram statistics ``K K^T`` and ``T K^T``, summed
over column blocks of the kernel map, and the residual norms come from
those statistics, so training never holds a ``(p, n)`` kernel matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .centers import HashCenterTable, assign_target_codes
from .exceptions import (
    DegenerateWeightError,
    InvalidParameterError,
    NumericalError,
    ShapeError,
)
from .kernel import AnchorSet, _kernel_blocks, apply_kernel, require_finite, select_anchors
from .packing import sign_to_pm1

# Residual norms are clamped here before normalizing, so an exact fit
# cannot zero out a weight.
RESIDUAL_FLOOR = 1e-12

# Share of the size of its terms below which the Gram identity's squared
# residual is summed over the kernel blocks instead: the identity's rounding,
# about eps times that size, would exceed ~2e-6 of the residual there.
NEAR_EXACT_SHARE = 1e-10


@dataclass
class TrainConfig:
    """Knobs of the offline training stage."""

    delta: float = 1e-3
    max_iters: int = 50
    rel_tol: float = 1e-5
    seed: int = 0
    num_anchors: int = 1000  # clamped to the training-set size

    def validate(self) -> None:
        if self.delta <= 0:
            raise InvalidParameterError(f"delta must be positive, got {self.delta}")
        if self.max_iters < 1:
            raise InvalidParameterError(
                f"max_iters must be at least 1, got {self.max_iters}"
            )
        if self.rel_tol <= 0:
            raise InvalidParameterError(
                f"rel_tol must be positive, got {self.rel_tol}"
            )
        if self.num_anchors < 1:
            raise InvalidParameterError(
                f"num_anchors must be positive, got {self.num_anchors}"
            )


@dataclass
class TrainedModel:
    """Frozen output of :func:`fit`; treat as immutable after training."""

    projections: list[np.ndarray]  # per modality, (r, p)
    anchor_sets: list[AnchorSet]
    train_weights: np.ndarray  # (M,), positive, sums to 1
    delta: float
    code_length: int
    objective_trace: list[float] = field(default_factory=list)
    converged: bool = True

    def __post_init__(self):
        # An anchor set's modality is its position here; errors name it from
        # the set, so a hand-built set keeps no stale default index.
        self.anchor_sets = [
            s if s.modality_index == m else replace(s, modality_index=m)
            for m, s in enumerate(self.anchor_sets)
        ]

    @property
    def num_modalities(self) -> int:
        return len(self.projections)


def objective(projections, weights, kernel_features, targets, delta) -> float:
    """Weighted ridge objective over all modalities.

    ``sum_m (1/w_m) ||T - W_m K_m||_F^2 + delta * sum_m ||W_m||_F^2`` with
    targets ``T``, kernel features ``K_m``, and weights ``w``. Raises
    :class:`NumericalError` when a target or kernel feature is NaN or
    infinite.
    """
    t = require_finite(targets, "targets")
    squared_residuals = []
    for m, (proj, feats) in enumerate(zip(projections, kernel_features)):
        resid = t - proj @ require_finite(feats, f"modality {m} kernel features")
        squared_residuals.append((resid * resid).sum())
    return _objective_value(squared_residuals, projections, weights, delta)


def _objective_value(squared_residuals, projections, weights, delta) -> float:
    """The objective from each modality's ``||T - W_m K_m||_F^2``."""
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w == 0):
        raise DegenerateWeightError("weights must be nonzero")
    total = 0.0
    for squared, weight, proj in zip(squared_residuals, w, projections):
        total += squared / weight + delta * (proj * proj).sum()
    return float(total)


def update_projection(targets, kernel_features, weight: float, delta: float) -> np.ndarray:
    """Closed-form ridge solve for one modality's projection.

    Solves ``W ((1/w) K K^T + delta I) = (1/w) T K^T`` with an LU
    factorization (numpy's ``linalg.solve``); the system is symmetric
    positive definite for any ``delta > 0``, and no explicit inverse is
    formed. Raises :class:`NumericalError` when a target or kernel feature
    is NaN or infinite.
    """
    if weight <= 0:
        raise InvalidParameterError(f"weight must be positive, got {weight}")
    if delta <= 0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    t = require_finite(targets, "targets")
    feats = require_finite(kernel_features, "kernel features")
    if t.ndim != 2 or feats.ndim != 2 or t.shape[1] != feats.shape[1]:
        raise ShapeError(
            f"targets {t.shape} and kernel features {feats.shape} disagree on samples"
        )
    return _ridge_solve(feats @ feats.T, t @ feats.T, weight, delta)


def _ridge_solve(gram, cross, weight: float, delta: float) -> np.ndarray:
    """``W`` solving ``W (G/w + delta I) = B/w`` for ``G = K K^T``, ``B = T K^T``.

    The solve runs in numpy's LAPACK, like every other product of training.
    scipy bundles a second OpenBLAS whose worker threads keep spinning for a
    while after each call, so a scipy solve between numpy products leaves
    each library's threads competing with the other's for the cores.
    """
    p = gram.shape[0]
    system = gram / weight
    system.flat[:: p + 1] += delta
    try:
        return np.linalg.solve(system, (cross / weight).T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError("ridge system is singular") from exc


def _gram_statistics(feats, anchor_set: AnchorSet, targets):
    """``G = K K^T`` and ``B = T K^T`` of the kernel map ``K`` of ``feats``,
    summed over its column blocks; the first block assigns, so one block
    gives the unblocked products."""
    gram = cross = None
    for start, stop, block in _kernel_blocks(feats, anchor_set):
        if gram is None:
            gram, cross = block @ block.T, targets[:, start:stop] @ block.T
        else:
            gram += block @ block.T
            cross += targets[:, start:stop] @ block.T
    return gram, cross


def _squared_residual(
    target_energy: float, proj, gram, cross, feats, anchor_set: AnchorSet, targets
) -> float:
    """``||T - W K||_F^2`` of one modality without a ``(p, n)`` array.

    Taken from ``||T||^2 - 2 <W, B> + <W G, W>`` in O(r p^2). That value's
    absolute error is about eps times the size of its terms (entrywise
    absolute values), so where it falls below ``NEAR_EXACT_SHARE`` of that
    size (a near-exact fit) the residual is summed over the column blocks of
    the kernel map instead, as a direct residual pass sums it.
    """
    size = np.abs(proj)  # G = K K^T has no negative entries
    magnitude = (
        target_energy + 2.0 * (size * np.abs(cross)).sum() + ((size @ gram) * size).sum()
    )
    value = target_energy - 2.0 * (proj * cross).sum() + ((proj @ gram) * proj).sum()
    if value >= NEAR_EXACT_SHARE * magnitude:
        return float(value)
    total = 0.0
    for start, stop, block in _kernel_blocks(feats, anchor_set):
        resid = (targets[:, start:stop] - proj @ block).ravel()
        total += float(resid @ resid)
    return total


def update_weights(residual_norms) -> np.ndarray:
    """Simplex-optimal weights, proportional to the residual norms.

    Norms are clamped at ``RESIDUAL_FLOOR`` first, so an exact fit cannot
    produce a zero weight.
    """
    norms = np.maximum(np.asarray(residual_norms, dtype=np.float64), RESIDUAL_FLOOR)
    return norms / norms.sum()


def fit(features, labels, centers: HashCenterTable, config: TrainConfig | None = None) -> TrainedModel:
    """Run the alternating training loop against the center target codes.

    ``features`` is one ``(d_m, n)`` matrix per modality over the same n
    samples; ``labels`` one label set per sample. Weights start uniform;
    each iteration refits every projection, rebalances the weights, and
    appends the objective to the trace. Stops when the relative objective
    change drops below ``config.rel_tol`` or after ``config.max_iters``
    iterations. Deterministic for fixed inputs and seeds. Raises
    :class:`NumericalError` naming the modality when a training feature is
    NaN or infinite.

    Memory is O(M p^2 + p KERNEL_BLOCK + r n): each modality's kernel map is
    computed in column blocks and only its Gram statistics G and B are kept.
    The squared residual of an iteration comes from them by the identity
    ``||T - W K||^2 = ||T||^2 - 2 <W, B> + <W G, W>``, whose absolute error
    is about eps times the size of its terms rather than eps times the
    residual. In a near-exact fit, where the identity's value is below
    ``NEAR_EXACT_SHARE`` of that size, the residual is instead summed over
    one more blocked pass of the kernel map, so rounding does not set the
    weights.
    """
    config = TrainConfig() if config is None else config
    config.validate()
    mats = [np.asarray(f, dtype=np.float64) for f in features]
    if not mats:
        raise InvalidParameterError("need at least one modality")
    for m, mat in enumerate(mats):
        if mat.ndim != 2:
            raise ShapeError(f"modality {m} is not a matrix: shape {mat.shape}")
    counts = {mat.shape[1] for mat in mats}
    if len(counts) != 1:
        raise ShapeError(f"modalities disagree on sample count: {sorted(counts)}")
    n = counts.pop()
    if n < 2:
        raise InvalidParameterError(f"need at least 2 training samples, got {n}")
    if len(labels) != n:
        raise ShapeError(f"{len(labels)} label sets for {n} samples")

    targets = assign_target_codes(centers, labels).astype(np.float64)
    num_anchors = min(config.num_anchors, n)
    anchor_sets = [
        select_anchors(mats[m], num_anchors, config.seed, modality_index=m)
        for m in range(len(mats))
    ]
    # K_m is fixed during training, so its Gram statistics are computed once;
    # each iteration then costs one p x p solve and O(r p^2) per modality.
    statistics = [
        _gram_statistics(mats[m], anchor_sets[m], targets) for m in range(len(mats))
    ]
    target_energy = float(np.vdot(targets, targets))

    num_modalities = len(mats)
    weights = np.full(num_modalities, 1.0 / num_modalities)
    trace: list[float] = []
    converged = False
    projections: list[np.ndarray] = []
    for _ in range(config.max_iters):
        projections = [
            _ridge_solve(gram, cross, weight, config.delta)
            for (gram, cross), weight in zip(statistics, weights)
        ]
        squared_residuals = [
            _squared_residual(
                target_energy, proj, *statistics[m], mats[m], anchor_sets[m], targets
            )
            for m, proj in enumerate(projections)
        ]
        weights = update_weights(np.sqrt(squared_residuals))
        value = _objective_value(squared_residuals, projections, weights, config.delta)
        if trace and abs(trace[-1] - value) <= config.rel_tol * max(abs(trace[-1]), 1e-300):
            trace.append(value)
            converged = True
            break
        trace.append(value)

    return TrainedModel(
        projections=projections,
        anchor_sets=anchor_sets,
        train_weights=weights,
        delta=config.delta,
        code_length=centers.code_length,
        objective_trace=trace,
        converged=converged,
    )


def _fuse_signs(scaled_terms) -> np.ndarray:
    """The sign step of every encoder: ``sign(sum_m P_m / w_m)`` from the
    terms ``P_m / w_m`` in modality order.

    Each term must be a fresh array: the sum accumulates into the first in
    place. Given a generator, it holds one term besides the sum at a time.
    """
    fused = None
    for term in scaled_terms:
        if fused is None:
            fused = term
        else:
            fused += term
    return sign_to_pm1(fused)


def fuse_encode_fixed(model: TrainedModel, features) -> np.ndarray:
    """Sign of the training-weight-fused projection of full-modality data.

    This is the fixed-weight hash function: each modality contributes its
    projection scaled by the reciprocal of its training weight. Each term
    comes from the blocked projected kernel map, is scaled in place and is
    added into one ``(r, n)`` sum, so no ``(p, n)`` kernel matrix is built.
    """
    if len(features) != model.num_modalities:
        raise ShapeError(
            f"model has {model.num_modalities} modalities, got {len(features)}"
        )
    projected = (
        apply_kernel(feats, anchor_set, proj)
        for feats, anchor_set, proj in zip(features, model.anchor_sets, model.projections)
    )
    return _fuse_signs(np.divide(p, w, out=p) for p, w in zip(projected, model.train_weights))
