"""Shared fixtures: one well-separated bundle and one harder bundle.

Both are session-scoped; tests must not mutate them.
"""

import pytest

from fusehash import SynthSpec, TrainConfig, generate_synthetic, train_on_bundle


@pytest.fixture(scope="session")
def standard_bundle():
    """4 classes, 100 samples each, two modalities, cleanly separable."""
    return generate_synthetic(
        SynthSpec(
            num_classes=4,
            samples_per_class=100,
            modality_dims=(32, 16),
            cluster_spread=0.3,
            seed=11,
        )
    )


@pytest.fixture(scope="session")
def hard_bundle():
    """Same layout with overlapping clusters; retrieval is not a free 1.0 here."""
    return generate_synthetic(
        SynthSpec(
            num_classes=4,
            samples_per_class=100,
            modality_dims=(32, 16),
            cluster_spread=1.0,
            seed=11,
        )
    )


@pytest.fixture(scope="session")
def trained_standard(standard_bundle):
    """16-bit model fitted on the standard bundle's train split."""
    model, centers = train_on_bundle(standard_bundle, 16, TrainConfig(seed=11))
    return model, centers
