# Lint corpus fixture; its expected rules are listed in tests/lint_corpus.py.
"""Corpus fixture: engine constant missing from the config fingerprint."""

SOLVER_TOL = 1e-9
DAMPING_LIMIT = 4.0
BANNER = "toy engine"  # devlint: not-keyed


def toy_config_fingerprint():
    # DAMPING_LIMIT affects numerics but is not recorded here.
    return {"solver_tol": SOLVER_TOL}
