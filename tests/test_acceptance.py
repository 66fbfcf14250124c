"""Acceptance checklist: one test per entry of ``fusehash.bench.CHECKS``.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion, c01 to c12. The checks and their oracles live in
``fusehash.bench``, and ``fusehash bench`` runs the same registry. Here every
check runs at seed 11, the seed of the conftest fixtures; ``test_cli`` runs
``fusehash bench --seed 0``.
"""

import time

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
