# Self-test fixture; its expected rules are listed in repro/lint/corpus.py.
"""Corpus fixture: unpicklable callables shipped to worker pools."""

from repro.parallel import parallel_map


def _double(sample):
    return sample * 2.0


def sweep(samples):
    def evaluate(sample):
        return sample * 2.0

    doubled = parallel_map(evaluate, samples, processes=2)
    squared = parallel_map(lambda s: s * s, samples, processes=2)
    # Negative case: a module-level function is picklable.
    fine = parallel_map(_double, samples, processes=2)
    return doubled, squared, fine
