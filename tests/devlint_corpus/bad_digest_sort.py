# Lint corpus fixture; its expected rules are listed in tests/lint_corpus.py.
"""Corpus fixture: unsorted iteration feeding a canonical digest."""

from repro.serialize import stable_digest


def fingerprint(config, tags):
    pairs = [(k, v) for k, v in config.items()]
    for name in {t.upper() for t in tags}:
        pairs.append(("tag", name))
    return stable_digest({"pairs": pairs})


def fingerprint_ok(config):
    # Negative case: sorted() pins the order, so this must not fire.
    pairs = [(k, v) for k, v in sorted(config.items())]
    return stable_digest({"pairs": pairs})
