"""The wire protocol: strict validation, stable errors, canonical bytes."""

import json

import pytest

from repro.serve import (
    HTTP_STATUS,
    LINK_OUTCOMES,
    OPS,
    PROTOCOL_VERSION,
    AdaptRequest,
    LinkRequest,
    ProtocolError,
    SimpleRequest,
    adapt_result,
    encode,
    error_response,
    ok_response,
    parse_line,
    parse_request,
)


class TestParseAdapt:
    def test_minimal_request(self):
        request = parse_request({"op": "adapt", "dimming": 0.6})
        assert isinstance(request, AdaptRequest)
        assert request.dimming == 0.6
        assert request.ambient == 1.0
        assert request.distance_m == 3.0
        assert request.angle_deg == 0.0
        assert request.id is None

    def test_full_request(self):
        request = parse_request({"v": PROTOCOL_VERSION, "op": "adapt",
                                 "id": "r1", "dimming": 0.3, "ambient": 0.5,
                                 "distance_m": 2.0, "angle_deg": 30.0})
        assert request == AdaptRequest(0.3, 0.5, 2.0, 30.0, "r1")

    def test_missing_dimming_rejected(self):
        with pytest.raises(ProtocolError) as exc:
            parse_request({"op": "adapt"})
        assert exc.value.code == "bad-request"
        assert "dimming" in exc.value.message

    @pytest.mark.parametrize("dimming", [0.0, 1.0, -0.2, 1.5, "0.5", True,
                                         None])
    def test_bad_dimming_rejected(self, dimming):
        with pytest.raises(ProtocolError):
            parse_request({"op": "adapt", "dimming": dimming})

    @pytest.mark.parametrize("field,value", [
        ("ambient", -0.1), ("distance_m", 0.0), ("distance_m", -1.0),
        ("angle_deg", 90.0), ("angle_deg", -5.0), ("ambient", "bright"),
    ])
    def test_bad_optionals_rejected(self, field, value):
        with pytest.raises(ProtocolError):
            parse_request({"op": "adapt", "dimming": 0.5, field: value})

    def test_ambient_above_the_photodiode_range_names_the_field(self):
        with pytest.raises(ProtocolError) as exc:
            parse_request({"op": "adapt", "dimming": 0.5, "ambient": 2.0})
        assert exc.value.code == "bad-request"
        assert "ambient" in exc.value.message
        assert parse_request({"op": "adapt", "dimming": 0.5,
                              "ambient": 1.0}).ambient == 1.0

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError) as exc:
            parse_request({"op": "adapt", "dimming": 0.5, "diming": 0.6})
        assert "diming" in exc.value.message

    def test_integer_id_stringified(self):
        request = parse_request({"op": "adapt", "dimming": 0.5, "id": 7})
        assert request.id == "7"

    def test_bad_id_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "adapt", "dimming": 0.5, "id": [1]})


class TestParseEnvelope:
    def test_non_object_rejected(self):
        for bad in ([1, 2], "adapt", 7, None):
            with pytest.raises(ProtocolError) as exc:
                parse_request(bad)
            assert exc.value.code == "bad-request"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as exc:
            parse_request({"op": "reboot"})
        assert exc.value.code == "unknown-op"

    def test_bad_version(self):
        with pytest.raises(ProtocolError) as exc:
            parse_request({"v": 99, "op": "health"})
        assert exc.value.code == "bad-version"

    def test_version_optional(self):
        assert parse_request({"op": "health"}) == SimpleRequest("health")

    @pytest.mark.parametrize("op", ["health", "metrics"])
    def test_simple_ops_reject_extras(self, op):
        with pytest.raises(ProtocolError):
            parse_request({"op": op, "dimming": 0.5})

    def test_every_op_is_parseable(self):
        assert set(OPS) == {"adapt", "link", "health", "metrics"}

    def test_every_error_code_maps_to_a_status(self):
        assert set(HTTP_STATUS.values()) <= {400, 500, 503}
        for code in ("bad-request", "unknown-op", "bad-version",
                     "overloaded", "draining", "internal"):
            assert code in HTTP_STATUS


class TestParseLink:
    def test_bare_read(self):
        request = parse_request({"op": "link"})
        assert isinstance(request, LinkRequest)
        assert request.outcome == ""

    @pytest.mark.parametrize("outcome", LINK_OUTCOMES)
    def test_every_outcome_accepted(self, outcome):
        request = parse_request({"op": "link",
                                 "report": {"outcome": outcome}})
        assert request.outcome == outcome

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "link", "report": {"outcome": "meh"}})

    def test_report_must_be_object(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "link", "report": "failure"})

    def test_unknown_report_field_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "link", "report": {"outcome": "failure",
                                                    "when": 3}})

    def test_empty_reason_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "link", "report": {"outcome": "failure",
                                                    "reason": ""}})


class TestParseLine:
    def test_round_trip(self):
        line = encode({"v": 1, "op": "adapt", "dimming": 0.4})
        assert parse_line(line) == AdaptRequest(0.4)

    def test_not_json_is_a_protocol_error(self):
        with pytest.raises(ProtocolError) as exc:
            parse_line(b"GET / HTTP/1.1\n")
        assert exc.value.code == "bad-request"


class TestResponses:
    def test_ok_envelope(self):
        reply = ok_response("health", {"status": "ok"}, "h1")
        assert reply["ok"] is True
        assert reply["v"] == PROTOCOL_VERSION
        assert reply["id"] == "h1"
        assert reply["result"] == {"status": "ok"}

    def test_error_envelope(self):
        reply = error_response("overloaded", "busy", op="adapt",
                               request_id="a1")
        assert reply["ok"] is False
        assert reply["error"] == {"code": "overloaded", "message": "busy"}
        assert reply["op"] == "adapt"
        assert reply["id"] == "a1"

    def test_id_omitted_when_absent(self):
        assert "id" not in ok_response("health", {})
        assert "id" not in error_response("internal", "boom")

    def test_encode_is_canonical(self):
        a = encode({"b": 1, "a": 2})
        b = encode({"a": 2, "b": 1})
        assert a == b
        assert a.endswith(b"\n")
        json.loads(a)


class TestAdaptResult:
    def test_payload_shape_and_purity(self, engine):
        request = AdaptRequest(0.5, ambient=0.5, distance_m=2.5,
                               angle_deg=15.0)
        design = engine.design(request.dimming)
        errors = engine.errors_for(request)
        one = adapt_result(request, design, errors, engine.config)
        two = adapt_result(request, design, errors, engine.config)
        assert encode(one) == encode(two)
        assert one["dimming"] == 0.5
        assert set(one["super_symbol"]) == {"n1", "k1", "m1", "n2", "k2",
                                            "m2"}
        assert one["data_rate_bps"] > 0
        assert 0 < one["slot_error"]["p_off"] < 1

    def test_performance_tracks_placement(self, engine):
        request_near = AdaptRequest(0.5, distance_m=2.0)
        request_far = AdaptRequest(0.5, distance_m=5.0)
        design = engine.design(0.5)
        near = adapt_result(request_near, design,
                            engine.errors_for(request_near), engine.config)
        far = adapt_result(request_far, design,
                           engine.errors_for(request_far), engine.config)
        assert near["super_symbol"] == far["super_symbol"]
        assert near["data_rate_bps"] > far["data_rate_bps"]
