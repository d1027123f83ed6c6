# Lint corpus fixture; its expected rules are listed in tests/lint_corpus.py.
"""Corpus fixture: draws from unseeded global RNG streams."""

import random

import numpy as np


def draw_noise(n):
    base = np.random.normal(0.0, 1.0, n)
    rng = np.random.default_rng()
    jitter = random.random()
    toss = random.Random()
    return base, rng, jitter, toss


def seeded_ok(seed):
    # Negative cases: these must NOT fire.
    rng = np.random.default_rng(seed)
    local = random.Random(seed)
    return rng.normal(), local.random()
