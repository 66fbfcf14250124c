"""Shared fixtures: the acceptance checks' standard bundle at seed 11, a
harder variant, and a model trained on the first.

All are session-scoped; tests must not mutate them.
"""

import pytest

from fusehash import TrainConfig, train_on_bundle
from fusehash.bench import _standard_bundle


@pytest.fixture(scope="session")
def standard_bundle():
    """4 classes, 100 samples each, two modalities (32 and 16 dims), cleanly separable."""
    return _standard_bundle(11)


@pytest.fixture(scope="session")
def hard_bundle():
    """Same layout with overlapping clusters; retrieval is not a free 1.0 here."""
    return _standard_bundle(11, spread=1.0)


@pytest.fixture(scope="session")
def trained_standard(standard_bundle):
    """16-bit model fitted on the standard bundle's train split."""
    model, centers = train_on_bundle(standard_bundle, 16, TrainConfig(seed=11))
    return model, centers
