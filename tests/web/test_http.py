"""Request/Response primitives."""

import pytest

from repro.web.http import HttpError, Request, error_response, json_response


class TestRequest:
    def test_build_parses_path_and_query(self):
        r = Request.build("get", "/materials?collection=nifty&limit=5")
        assert r.method == "GET"
        assert r.path == "/materials"
        assert r.query == {"collection": ["nifty"], "limit": ["5"]}

    def test_query_one_default(self):
        r = Request.build("GET", "/x")
        assert r.query_one("missing") is None
        assert r.query_one("missing", "d") == "d"

    def test_query_int(self):
        r = Request.build("GET", "/x?n=7")
        assert r.query_int("n") == 7
        assert r.query_int("m", 3) == 3

    def test_query_int_rejects_garbage(self):
        r = Request.build("GET", "/x?n=abc")
        with pytest.raises(HttpError) as exc:
            r.query_int("n")
        assert exc.value.status == 400

    def test_json_parses_string_body(self):
        r = Request.build("POST", "/x", body='{"a": 1}')
        assert r.json() == {"a": 1}

    def test_json_accepts_dict_body(self):
        r = Request.build("POST", "/x", body={"a": 1})
        assert r.json() == {"a": 1}

    def test_json_rejects_missing_body(self):
        r = Request.build("POST", "/x")
        with pytest.raises(HttpError):
            r.json()

    def test_json_rejects_malformed(self):
        r = Request.build("POST", "/x", body="{nope")
        with pytest.raises(HttpError):
            r.json()

    def test_json_rejects_non_object(self):
        r = Request.build("POST", "/x", body="[1, 2]")
        with pytest.raises(HttpError):
            r.json()

    def test_empty_path_becomes_root(self):
        assert Request.build("GET", "").path == "/"


class TestResponse:
    def test_json_response_serializable_payload(self):
        r = json_response({"x": 1})
        assert r.ok
        assert r.json() == {"x": 1}
        assert r.headers["content-type"] == "application/json"

    def test_json_response_coerces_exotic_types(self):
        from enum import Enum

        class E(Enum):
            A = "a"

        r = json_response({"e": E.A})
        assert isinstance(r.json()["e"], str)

    def test_error_response(self):
        r = error_response(404, "missing")
        assert not r.ok
        assert r.status == 404
        assert r.json()["error"] == {
            "code": 404, "message": "missing", "request_id": "",
        }
        assert r.error["message"] == "missing"

    def test_error_response_carries_request_id(self):
        r = error_response(500, "boom", "req-123")
        assert r.error == {
            "code": 500, "message": "boom", "request_id": "req-123",
        }

    def test_error_property_none_on_success(self):
        assert json_response({"ok": True}).error is None

    def test_text_renders_json(self):
        assert '"x": 1' in json_response({"x": 1}).text()
