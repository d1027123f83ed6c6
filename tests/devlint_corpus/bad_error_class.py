# Lint corpus fixture; its expected rules are listed in tests/lint_corpus.py.
"""Corpus fixture: error subclass dropping the diagnostics-capturing
super().__init__ call."""

from repro.errors import ReproError


class ToySolveError(ReproError):
    def __init__(self, message, node):
        self.message = message
        self.node = node


class ToyRangeError(ToySolveError):
    # Transitive subclasses are caught too.
    def __init__(self, message):
        self.message = message


class ToyCleanError(ReproError):
    # Negative case: delegates to super, must not fire.
    def __init__(self, message, node):
        super().__init__(message)
        self.node = node
