# Lint corpus fixture; its expected rules are listed in tests/lint_corpus.py.
"""Corpus fixture: Serializable protocol violations and schema drift.

Neither schema is registered in the committed manifest, so the
version-bump rule reports them as unregistered drift.
"""

from repro.serialize import Serializable


class HalfRecord(Serializable):
    SCHEMA_NAME = "corpus.half"
    SCHEMA_VERSION = 1

    def payload(self):
        return {"value": self.value}

    # from_payload is deliberately missing.


class DriftRecord(Serializable):
    SCHEMA_NAME = "corpus.drift"
    SCHEMA_VERSION = 1

    def payload(self):
        return {"unit": self.unit, "value": self.value}

    @classmethod
    def from_payload(cls, data):
        return cls()
