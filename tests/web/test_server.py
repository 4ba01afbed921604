"""The real-HTTP adapter over the in-process application."""

import json
import urllib.error
import urllib.request

import pytest

from repro.web import CarCsApi
from repro.web.server import ApiServer


@pytest.fixture(scope="module")
def server(seeded_repo):
    with ApiServer(CarCsApi(seeded_repo), port=0) as srv:
        yield srv


def get_json(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, json.loads(response.read())


class TestHttpServer:
    def test_stats_over_tcp(self, server):
        status, body = get_json(f"{server.url}/api/v2/stats")
        assert status == 200
        assert body["materials"] >= 97

    def test_coverage_over_tcp(self, server):
        status, body = get_json(
            f"{server.url}/api/v2/coverage?collection=peachy&ontology=PDC12"
        )
        assert status == 200
        assert body["n_materials"] == 11

    def test_404_status_propagates(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            get_json(f"{server.url}/api/v2/nonexistent")
        assert exc.value.code == 404

    def test_post_with_body(self, server):
        data = json.dumps({
            "text": "parallel sorting with OpenMP tasks",
        }).encode()
        request = urllib.request.Request(
            f"{server.url}/api/v2/recommendations", data=data, method="POST",
            headers={"content-type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            body = json.loads(response.read())
        assert "suggestions" in body

    def test_port_assigned(self, server):
        assert server.port > 0
        assert str(server.port) in server.url
