"""The shared Serializable protocol and the canonical-JSON digest layer.

One contract for every result class: ``to_json()`` carries a versioned
``"schema"`` field, ``from_json()`` tolerates its absence (pre-protocol
payloads), rejects foreign names and newer versions, and round-trips the
object exactly.  The canonical serialization under every cache key must
be deterministic across dict orderings and reject non-JSON values rather
than coercing them.
"""

import pytest

from repro.errors import SerializationError
from repro.serialize import (
    SCHEMA_FIELD,
    Serializable,
    canonical_json,
    stable_digest,
)


class Point(Serializable):
    SCHEMA_NAME = "Point"
    SCHEMA_VERSION = 2

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def payload(self):
        return {"x": self.x, "y": self.y}

    @classmethod
    def from_payload(cls, data):
        return cls(float(data["x"]), float(data["y"]))


class TestSerializableProtocol:
    def test_round_trip(self):
        data = Point(1.5, -2.25).to_json()
        assert data[SCHEMA_FIELD] == "Point/v2"
        back = Point.from_json(data)
        assert (back.x, back.y) == (1.5, -2.25)

    def test_floats_round_trip_exactly(self):
        import json

        value = 0.1 + 0.2  # not representable as the literal 0.3
        back = Point.from_json(json.loads(json.dumps(Point(value, 0.0).to_json())))
        assert back.x == value

    def test_missing_schema_field_is_tolerated(self):
        assert Point.from_json({"x": 1, "y": 2}).x == 1.0

    def test_older_version_accepted(self):
        assert Point.from_json({SCHEMA_FIELD: "Point/v1", "x": 0, "y": 0})

    def test_newer_version_rejected(self):
        with pytest.raises(SerializationError, match="newer"):
            Point.from_json({SCHEMA_FIELD: "Point/v3", "x": 0, "y": 0})

    def test_name_mismatch_rejected(self):
        with pytest.raises(SerializationError, match="schema mismatch"):
            Point.from_json({SCHEMA_FIELD: "Rect/v1", "x": 0, "y": 0})

    def test_malformed_tag_rejected(self):
        with pytest.raises(SerializationError, match="malformed schema tag"):
            Point.from_json({SCHEMA_FIELD: "Point-2", "x": 0, "y": 0})

    def test_non_dict_rejected(self):
        with pytest.raises(SerializationError, match="wants a dict"):
            Point.from_json([1, 2])

    def test_default_schema_name_is_class_name(self):
        class Unnamed(Serializable):
            pass

        assert Unnamed.schema_tag() == "Unnamed/v1"


class TestRealResultClasses:
    def test_system_result_round_trip(self):
        from repro.core.evaluate import SystemResult

        row = SystemResult(benchmark="s344", total_flip_flops=15,
                           merged_pairs=4, area_baseline=1e-11,
                           energy_baseline=1e-14, area_proposed=8e-12,
                           energy_proposed=9e-15)
        data = row.to_json()
        assert data[SCHEMA_FIELD] == "SystemResult/v1"
        assert SystemResult.from_json(data) == row

    def test_lint_report_round_trip(self):
        from repro.lint.diagnostics import Diagnostic, LintReport, Severity

        report = LintReport("cell")
        report.add(Diagnostic(rule="spice.floating-node",
                              severity=Severity.ERROR, target="cell",
                              location="n1", message="floats", hint="tie it"))
        back = LintReport.from_json(report.to_json())
        assert back.target == "cell"
        assert back.diagnostics == report.diagnostics

    def test_campaign_report_round_trip(self):
        from repro.faults.campaign import CampaignReport, TaskRecord

        report = CampaignReport(
            name="smoke", seed=7, total=2,
            records=(TaskRecord(index=0, status="completed", attempts=1,
                                result={"v": 1.0}),
                     TaskRecord(index=1, status="failed", attempts=2,
                                error="boom")))
        back = CampaignReport.from_json(report.to_json())
        assert back.completed == report.completed == 1
        assert back.results() == report.results()


class TestCanonicalJson:
    def test_key_order_does_not_matter(self):
        assert (canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]})
                == canonical_json({"a": [2, {"c": 4, "d": 3}]} | {"b": 1}))

    def test_no_whitespace(self):
        assert canonical_json({"a": 1, "b": [1, 2]}) == '{"a":1,"b":[1,2]}'

    def test_rejects_non_json_values(self):
        with pytest.raises(SerializationError, match="not canonically"):
            canonical_json({"x": object()})

    def test_digest_is_stable_and_discriminating(self):
        a = stable_digest({"x": 1.0, "y": [1, 2]})
        assert a == stable_digest({"y": [1, 2], "x": 1.0})
        assert len(a) == 64
        assert a != stable_digest({"x": 1.0, "y": [1, 3]})

    def test_float_precision_survives(self):
        assert stable_digest(0.1 + 0.2) != stable_digest(0.3)
