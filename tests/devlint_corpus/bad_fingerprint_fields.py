# Lint corpus fixture; its expected rules are listed in tests/lint_corpus.py.
"""Corpus fixture: cache-key serializers missing class fields."""

from dataclasses import dataclass


@dataclass
class ToyDevice:
    width: float
    length: float
    threshold: float


# 'threshold' is deliberately absent from the tuple.
_TOY_DEVICE_FIELDS = (  # devlint: fingerprint-fields ToyDevice
    "width",
    "length",
)


# devlint: fingerprint-branches
def toy_fingerprint(element):
    # The branch reads only 'width'; 'length' is exempted, 'threshold'
    # is deliberately dropped.
    if type(element) is ToyDevice:
        # devlint: fingerprint-ignore length
        return ("toy", element.width)
    raise TypeError(type(element).__name__)
