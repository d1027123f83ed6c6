# Lint corpus fixture; its expected rules are listed in tests/lint_corpus.py.
"""Corpus fixture: ad-hoc convergence retry inside an except handler.

The three shapes the rule must catch: a direct solver re-run at a
stronger gmin, a retry buried in a tuple-catch handler, and a retry
made through a helper function defined in the same module.
"""

from repro.errors import AnalysisError, ConvergenceError
from repro.spice.analysis.dc import solve_dc
from repro.spice.analysis.transient import run_transient


def step_with_inline_retry(solver, x, time, prev):
    try:
        return solver.solve(x, time, prev, 1e-12, 50, 1e-7, 0.4)
    except ConvergenceError:
        # BAD: hard-coded strong-gmin retry, invisible to the policy
        # fingerprint.
        return solver.solve(x, time, prev, 1e-9, 50, 1e-7, 0.4)


def dc_with_inline_retry(circuit):
    try:
        return solve_dc(circuit)
    except (AnalysisError, ConvergenceError):
        # BAD: retry via a tuple-catch handler is still a retry.
        return run_transient(circuit, 1e-9, 1e-12)


def _rerun(circuit):
    return run_transient(circuit, 1e-9, 1e-12)


def dc_with_helper_retry(circuit):
    try:
        return solve_dc(circuit)
    except ConvergenceError:
        return _rerun(circuit)  # BAD: a retry behind a module-local helper.
