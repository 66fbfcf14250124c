"""Seeded synthetic multi-modal datasets with train/query/retrieval splits.

Each class gets one Gaussian prototype per modality; samples are drawn
around their class prototype, and the same sample index refers to the same
underlying item in every modality. Streams with a per-batch corrupted
modality can be derived from any split to exercise weight adaptation; they
are cut by ``encoding._split_batches``, the splitter of every stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoding import QueryBatch, _split_batches
from .exceptions import InvalidParameterError


@dataclass(frozen=True)
class SynthSpec:
    """Generation parameters; one spread per modality (a scalar broadcasts).
    Building one outside its domain raises :class:`InvalidParameterError`."""

    num_classes: int
    samples_per_class: int
    modality_dims: tuple[int, ...]
    cluster_spread: tuple[float, ...] | float = 0.3
    seed: int = 0
    train_fraction: float = 0.5
    query_fraction: float = 0.25  # the remainder becomes the retrieval split

    def spreads(self) -> tuple[float, ...]:
        if isinstance(self.cluster_spread, (int, float)):
            return (float(self.cluster_spread),) * len(self.modality_dims)
        return tuple(float(s) for s in self.cluster_spread)

    def split_sizes(self) -> tuple[int, int, int]:
        """Per-class (train, query, retrieval) counts."""
        train = round(self.train_fraction * self.samples_per_class)
        query = round(self.query_fraction * self.samples_per_class)
        return train, query, self.samples_per_class - train - query

    def __post_init__(self):
        if self.num_classes < 2:
            raise InvalidParameterError(
                f"need at least 2 classes, got {self.num_classes}"
            )
        if self.samples_per_class < 1:
            raise InvalidParameterError(
                f"samples_per_class must be positive, got {self.samples_per_class}"
            )
        if not self.modality_dims or any(d < 1 for d in self.modality_dims):
            raise InvalidParameterError(
                f"modality_dims must be positive, got {self.modality_dims}"
            )
        spreads = self.spreads()
        if len(spreads) != len(self.modality_dims):
            raise InvalidParameterError(
                f"{len(spreads)} spreads for {len(self.modality_dims)} modalities"
            )
        if not all(0 <= s < math.inf for s in spreads):
            raise InvalidParameterError(f"spreads must be finite and non-negative, got {spreads}")
        fractions = (self.train_fraction, self.query_fraction)
        if not all(0 <= f <= 1 for f in fractions):
            raise InvalidParameterError(f"split fractions must lie in [0, 1], got {fractions}")
        if any(count < 1 for count in self.split_sizes()):
            raise InvalidParameterError(
                "split fractions leave an empty train, query, or retrieval split"
            )


@dataclass
class DatasetBundle:
    """Full synthetic dataset: paired modalities, labels, and index splits."""

    modalities: list[np.ndarray]  # (d_m, n) each
    labels: list[set[int]]
    train_indices: np.ndarray
    query_indices: np.ndarray
    retrieval_indices: np.ndarray

    @property
    def num_samples(self) -> int:
        return len(self.labels)

    def features_at(self, indices) -> list[np.ndarray]:
        return [mat[:, indices] for mat in self.modalities]

    def labels_at(self, indices) -> list[set[int]]:
        return [self.labels[i] for i in indices]


def generate_synthetic(spec: SynthSpec) -> DatasetBundle:
    """Draw a bundle from the given parameters; bit-identical under the same seed.

    Splits are stratified: every class contributes the same train/query/
    retrieval counts, disjoint and jointly covering all samples.
    """
    rng = np.random.default_rng(spec.seed)
    k = spec.num_classes
    per_class = spec.samples_per_class
    spreads = spec.spreads()

    # Each class's draws are scaled and shifted into its column slice of one
    # preallocated matrix, so one class block is the only temporary.
    modalities = []
    for dim, spread in zip(spec.modality_dims, spreads):
        prototypes = rng.standard_normal((dim, k))
        mat = np.empty((dim, k * per_class))
        for c in range(k):
            block = mat[:, c * per_class : (c + 1) * per_class]
            np.multiply(rng.standard_normal((dim, per_class)), spread, out=block)
            block += prototypes[:, [c]]
        modalities.append(mat)
    labels = [{c} for c in range(k) for _ in range(per_class)]

    train_count, query_count, _ = spec.split_sizes()
    train, query, retrieval = [], [], []
    for c in range(k):
        order = c * per_class + rng.permutation(per_class)
        train.append(order[:train_count])
        query.append(order[train_count : train_count + query_count])
        retrieval.append(order[train_count + query_count :])
    return DatasetBundle(
        modalities=modalities,
        labels=labels,
        train_indices=np.sort(np.concatenate(train)),
        query_indices=np.sort(np.concatenate(query)),
        retrieval_indices=np.sort(np.concatenate(retrieval)),
    )


def make_noisy_stream(
    features,
    batch_size: int,
    noise_scale: float,
    seed: int = 0,
) -> tuple[list[QueryBatch], list[int]]:
    """Cut paired features into the batches of ``encoding._split_batches``,
    each holding its own C-contiguous copies, and corrupt one modality per
    batch.

    The corrupted modality cycles with the batch index; it receives additive
    Gaussian noise scaled by ``noise_scale`` times the modality's overall
    standard deviation. Every modality must be present, and ``noise_scale``
    finite and non-negative; ``_split_batches`` checks ``batch_size``.
    Returns the batches and the per-batch corrupted modality index.
    """
    if not 0 <= noise_scale < math.inf:
        raise InvalidParameterError(
            f"noise_scale must be finite and non-negative, got {noise_scale}"
        )
    mats = [None if f is None else np.asarray(f, dtype=np.float64) for f in features]
    if not mats or any(mat is None for mat in mats):
        raise InvalidParameterError("need at least one modality, and no None among them")
    views = _split_batches(mats, batch_size)
    rng = np.random.default_rng(seed)
    base_scales = [max(float(mat.std()), 1e-12) for mat in mats]

    corrupted = [b % len(mats) for b in range(len(views))]
    batches = [
        QueryBatch([
            chunk + noise_scale * base_scales[m] * rng.standard_normal(chunk.shape)
            if m == target
            else chunk.copy()
            for m, chunk in enumerate(view.features)
        ])
        for view, target in zip(views, corrupted)
    ]
    return batches, corrupted
