"""Acceptance gate: every criterion at its full stated scale.

One test per entry of bcd.selftest.FULL_SCALE, called with the criterion's
own full-scale defaults, so the gate and `bcd selftest --full` cannot drift
apart.  Each test is named after its criterion function
(test_criterion_01_law_suite, ...), prints one PASS/FAIL line with its wall
time (visible with -s or on failure) and asserts the criterion's outcome at
the tolerances fixed in bcd.selftest.
"""

import time

from bcd.selftest import FULL_SCALE


def _gate(name, fn):
    def test():
        start = time.perf_counter()
        ok, detail = fn()
        seconds = time.perf_counter() - start
        print(f"{'PASS' if ok else 'FAIL'} criterion {name} ({seconds:.2f} s): {detail}")
        assert ok, f"criterion {name}: {detail}"

    return test


for _name, _fn in FULL_SCALE:
    _slug = _fn.__name__.removeprefix("criterion_")
    globals()[f"test_criterion_{_name[:2]}_{_slug}"] = _gate(_name, _fn)
