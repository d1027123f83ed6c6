# Lint corpus fixture; its expected rules are listed in tests/lint_corpus.py.
# devlint: keyed-path
"""Corpus fixture: wall-clock reads on a cache-keyed path.

The ``keyed-path`` marker opts this off-tree fixture into the rule.
"""

import time
from datetime import date, datetime


def stamp_result(result):
    result["created"] = time.time()
    result["day"] = date.today().isoformat()
    result["when"] = datetime.now()
    return result


def interval_ok():
    # Negative case: monotonic clocks are telemetry-only, never flagged.
    start = time.monotonic()
    return time.perf_counter() - start
