"""Every backpressure answer carries ``Retry-After`` + the envelope.

The system sheds load from several independent places — the front
tier's primary-outage 503s, the job queue's saturation 429, and the
admission middleware's deadline / rate-limit / concurrency refusals.
All of them flow through :func:`repro.web.middleware.
backpressure_response`, and this audit pins the contract: uniform
error envelope, a positive integer ``Retry-After``, and a
``carcs_shed_total`` counter increment — so a client can implement
*one* back-off loop for the whole fleet.
"""

from __future__ import annotations

import pytest

from repro.core.repository import Repository
from repro.corpus.seed import seed_ontologies
from repro.web import CarCsApi, Client, FrontTier, LocalBackend, Request
from repro.web.http import json_response
from repro.web.middleware import DEADLINE_HEADER


def _api(**kwargs) -> CarCsApi:
    repo = Repository()
    seed_ontologies(repo)
    return CarCsApi(repo, **kwargs)


def _broken_backend() -> LocalBackend:
    def explode(request):
        raise RuntimeError("kaboom")
    return LocalBackend("primary", explode)


def _front_primary_down_write():
    return FrontTier(_broken_backend())(
        Request.build("POST", "/api/v2/materials", body={"title": "x"})
    )


def _front_no_backend_read():
    return FrontTier(_broken_backend())(
        Request.build("GET", "/api/v2/materials")
    )


def _front_expired_deadline():
    healthy = LocalBackend("primary", lambda r: json_response({"ok": True}))
    return FrontTier(healthy)(
        Request.build("GET", "/api/v2/stats", headers={DEADLINE_HEADER: "0"})
    )


def _jobs_queue_full():
    client = Client(_api(max_queued_jobs=1), root="/api/v2")
    assert client.post("/jobs/classify", body={}).status == 202
    return client.post("/jobs/classify", body={})


def _admission_expired_deadline():
    return Client(_api(), root="/api/v2").get(
        "/stats", headers={DEADLINE_HEADER: "-5"}
    )


def _admission_rate_limited():
    client = Client(_api(rate_limit=1.0, rate_burst=1.0), root="/api/v2")
    assert client.get("/stats").ok
    return client.get("/stats")


def _admission_inflight_capped():
    api = _api(max_inflight=1)
    api.admission._inflight = 1  # a request is mid-dispatch
    try:
        return Client(api, root="/api/v2").get("/stats")
    finally:
        api.admission._inflight = 0


SHED_PATHS = {
    "front-primary-down-503": (_front_primary_down_write, 503),
    "front-no-backend-503": (_front_no_backend_read, 503),
    "front-deadline-503": (_front_expired_deadline, 503),
    "jobs-queue-full-429": (_jobs_queue_full, 429),
    "admission-deadline-503": (_admission_expired_deadline, 503),
    "admission-rate-limit-429": (_admission_rate_limited, 429),
    "admission-inflight-503": (_admission_inflight_capped, 503),
}


@pytest.mark.parametrize("name", sorted(SHED_PATHS))
def test_shed_path_carries_retry_after_and_envelope(name):
    provoke, expected_status = SHED_PATHS[name]
    response = provoke()
    assert response.status == expected_status
    retry_after = response.headers.get("retry-after")
    assert retry_after is not None, f"{name} lost its Retry-After header"
    assert int(retry_after) >= 1
    envelope = response.error
    assert envelope is not None, f"{name} lost the error envelope"
    assert envelope["code"] == expected_status
    assert envelope["message"]
    assert "request_id" in envelope


def test_every_shed_increments_the_shared_counter():
    api = _api(rate_limit=1.0, rate_burst=1.0)
    client = Client(api, root="/api/v2")
    client.get("/stats")
    client.get("/stats")  # shed
    counters = api.metrics.export()["counters"]
    shed = {k: v for k, v in counters.items()
            if k.startswith("carcs_shed_total")}
    assert sum(entry["value"] for entry in shed.values()) == 1
