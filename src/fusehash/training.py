"""Alternating closed-form training of projections and modality weights.

The trainer regresses kernel features of every modality onto the shared
binary target codes. Each iteration solves a ridge system per modality in
closed form, then rebalances the simplex-constrained modality weights
from the residual norms; both steps minimize their subproblem exactly, so
the objective never increases in exact arithmetic. The kernel features
enter only through their Gram statistics ``K K^T`` and ``T K^T``, summed
over column blocks of the kernel map, and the residual norms come from
those statistics, so training never holds a ``(p, n)`` kernel matrix.

This module only trains; every encoder lives in :mod:`fusehash.encoding`.
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
from .kernel import AnchorSet, _kernel_blocks, _sample_count, require_finite, select_anchors
from .kernel import apply_kernel  # noqa: F401 (unused; perfbench's tracing test reads it here)

# Residual norms are clamped here before normalizing, so an exact fit
# cannot zero out a weight.
RESIDUAL_FLOOR = 1e-12

# Share of the size of its terms below which the Gram identity's squared
# residual is summed over the kernel blocks instead: the identity's rounding,
# about eps times that size, would exceed ~2e-6 of the residual there.
NEAR_EXACT_SHARE = 1e-10

# Stopping rule of training: at most MAX_ITERS iterations, and a stop once
# the objective changes by at most REL_TOL of its previous value. The
# adaptive encoder stops on the same relative change, with its own cap.
MAX_ITERS = 50
REL_TOL = 1e-5


def _settled(previous: float, value: float) -> bool:
    """Whether the objective moved from ``previous`` to ``value`` by at most
    ``REL_TOL`` of ``previous``: the relative stop of both alternations."""
    return abs(previous - value) <= REL_TOL * max(abs(previous), 1e-300)


@dataclass
class TrainConfig:
    """Knobs of the offline training stage."""

    delta: float = 1e-3
    seed: int = 0
    num_anchors: int = 1000  # clamped to the training-set size

    def validate(self) -> None:
        if self.delta <= 0:
            raise InvalidParameterError(f"delta must be positive, got {self.delta}")
        if self.num_anchors < 1:
            raise InvalidParameterError(
                f"num_anchors must be positive, got {self.num_anchors}"
            )


@dataclass
class TrainedModel:
    """Frozen output of :func:`fit`; treat as immutable after training.
    Its code length and modality count are read from the projections."""

    projections: list[np.ndarray]  # per modality, (r, p)
    anchor_sets: list[AnchorSet]
    train_weights: np.ndarray  # (M,), positive, sums to 1
    delta: float
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

    @property
    def code_length(self) -> int:
        return self.projections[0].shape[0]


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
    gives the unblocked products. A non-finite entry of either, as from a
    map that overflowed float32, raises :class:`NumericalError` naming the
    modality."""
    gram = cross = None
    for start, stop, block in _kernel_blocks(feats, anchor_set):
        if gram is None:
            gram, cross = block @ block.T, targets[:, start:stop] @ block.T
        else:
            gram += block @ block.T
            cross += targets[:, start:stop] @ block.T
    name = f"modality {anchor_set.modality_index} kernel features"
    return require_finite(gram, name), require_finite(cross, name)


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
    change is at most ``REL_TOL`` (:func:`_settled`) or after ``MAX_ITERS``
    iterations. Deterministic for fixed inputs and seeds. Raises
    :class:`NumericalError` naming the modality when a training feature is
    NaN or infinite, or when features so far apart that the float32 map
    overflows make its Gram statistics non-finite.

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
    n = _sample_count(mats)
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
    for _ in range(MAX_ITERS):
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
        if trace and _settled(trace[-1], value):
            trace.append(value)
            converged = True
            break
        trace.append(value)

    return TrainedModel(
        projections=projections,
        anchor_sets=anchor_sets,
        train_weights=weights,
        delta=config.delta,
        objective_trace=trace,
        converged=converged,
    )


def fuse_encode_fixed(model: TrainedModel, features) -> np.ndarray:
    """Codes of :func:`fusehash.encoding.encode_fixed` for a list of
    per-modality feature matrices: the fixed-weight hash function.

    A thin wrapper kept because the benchmark harness calls and traces this
    name; delete it once ROADMAP item 1 moves the harness off it.
    """
    from .encoding import QueryBatch, encode_fixed  # encoding imports this module

    return encode_fixed(model, QueryBatch(features=list(features))).codes
