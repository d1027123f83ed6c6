# Lint corpus fixture; its expected rules are listed in tests/lint_corpus.py.
"""Corpus fixture: obs spans driven outside 'with' blocks."""

from repro.obs import span


def timed_solve(system):
    outer = span("corpus.solve")
    outer.__enter__()
    try:
        result = system.solve()
    finally:
        outer.__exit__(None, None, None)
    span("corpus.discarded")
    leaked = span("corpus.leaked")
    return result, leaked


def timed_ok(system):
    # Negative cases: direct 'with' and assign-then-with are both fine.
    with span("corpus.direct"):
        first = system.solve()
    staged = span("corpus.staged")
    with staged:
        second = system.solve()
    return first, second
