# Lint corpus fixture; its expected rules are listed in tests/lint_corpus.py.
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


def study(build, params, samples):
    from repro.mtj.variation import monte_carlo_ensemble

    # Shipped arguments past the first one, and by keyword.
    probes = monte_carlo_ensemble(build, lambda result: result, params,
                                  stop_time=1e-9, dt=1e-12)
    cubed = parallel_map(fn=lambda s: s ** 3, items=samples)
    return probes, cubed
