"""Acceptance checklist: one test per entry of ``fusehash.bench.CHECKS``.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion, c01 to c12. The checks and their oracles live in
``fusehash.bench``, and ``fusehash bench`` runs the same registry. Here every
check runs at seed 11, the seed of the conftest fixtures; ``test_cli`` runs
``fusehash bench --seed 0``. The last test holds the naive oracles, which the
checks share with the tests, to calling none of the code they check.
"""

import sys
import time

import numpy as np
import pytest

from fusehash import bench, evaluation, hamming_rank, packing, training
from fusehash.bench import CHECKS

SEED = 11


def _acceptance_test(entry):
    def test():
        start = time.perf_counter()
        entry.check(SEED)
        seconds = time.perf_counter() - start
        assert entry.bound is None or seconds < entry.bound, (
            f"ran {seconds:.1f}s, bound {entry.bound:.0f}s"
        )

    test.__name__ = test.__qualname__ = f"test_{entry.check.__name__}"
    test.__doc__ = entry.check.__doc__
    return test


for _entry in CHECKS:
    _test = _acceptance_test(_entry)
    globals()[_test.__name__] = _test


def test_shared_oracles_call_none_of_the_code_they_check(monkeypatch):
    """Each shared oracle gives its value while packing, the ranking kernel,
    the rank-based AP and the ridge solve raise, wherever a ``fusehash``
    module binds them."""
    checked = {id(fn) for fn in (packing.pack_codes, packing._words, evaluation._rank_block,
                                 evaluation._ranks_average_precision, training._ridge_solve)}
    replaced = set()
    modules = [module for name, module in list(sys.modules.items()) if name.split(".")[0] == "fusehash"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in checked:
                monkeypatch.setattr(module, attr, lambda *args: pytest.fail("checked code called"))
                replaced.add(id(value))
    assert replaced == checked
    codes = np.array([[1, 1, -1], [1, -1, -1]], dtype=np.int8)
    with pytest.raises(pytest.fail.Exception, match="checked code called"):
        hamming_rank(codes[:, 0], codes)

    assert bench.naive_hamming(codes[:, 0], codes[:, 2]) == 2
    order, distances = bench.naive_ranking(codes[:, 1], codes)
    assert (order.tolist(), distances.tolist()) == ([1, 0, 2], [0, 1, 1])
    assert bench.naive_average_precision([0, 1, 1]) == (1 / 2 + 2 / 3) / 2
    assert bench.naive_query_ap(codes[:, 1], {0}, codes, [{0}, {1}, {0}], cutoff=2) == 1 / 2
    assert bench.pairwise_distances(codes) == [1, 2, 1]
    assert bench.row_counts(np.array([[1, 1], [-1, -1], [1, -1]])) == (2, 2)
    assert bench.simplex_grid_min([1.0, 4.0]) == pytest.approx(9.0, rel=1e-3)  # (1 + 2)^2
    proj = np.array([[1.0, -1.0]])
    value, grad = bench.ridge_objective(proj.ravel(), np.eye(2), proj, weight=0.5, delta=0.25)
    assert (value, grad.tolist()) == (0.5, [0.5, -0.5])
