"""ServiceClient sends each request once: a 429/503 raises
:class:`ServiceBusy` with the server's ``Retry-After`` hint at once, and
retrying is the caller's decision (no live server needed)."""

from __future__ import annotations

import pytest

from repro.service.client import ServiceBusy, ServiceClient


def _scripted(monkeypatch, client, responses):
    """Replace the transport with a canned status/header sequence."""
    calls = []

    def fake_request(method, path, body=None):
        calls.append((method, path))
        status, headers = responses[min(len(calls), len(responses)) - 1]
        return status, headers, ({"error": "busy"}
                                 if status in (429, 503)
                                 else {"state": "queued"})

    monkeypatch.setattr(client, "_request", fake_request)
    return calls


def _no_sleep(monkeypatch):
    slept = []
    import repro.service.client as mod
    monkeypatch.setattr(mod.time, "sleep", slept.append)
    return slept


class TestRetryLoop:
    def test_zero_retries_raises_immediately(self, monkeypatch):
        client = ServiceClient("http://x:1")
        calls = _scripted(monkeypatch, client,
                          [(429, {"retry-after": "0.2"}),
                           (503, {"retry-after": "5"})])
        slept = _no_sleep(monkeypatch)
        with pytest.raises(ServiceBusy) as excinfo:
            client.submit("rank", {})
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 0.2
        with pytest.raises(ServiceBusy) as excinfo:
            client.submit("rank", {})
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after == 5.0
        assert len(calls) == 2
        assert slept == []

    def test_non_busy_errors_not_retried(self, monkeypatch):
        from repro.service.client import ServiceClientError
        client = ServiceClient("http://x:1")
        calls = _scripted(monkeypatch, client, [(500, {})])
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit("rank", {})
        assert not isinstance(excinfo.value, ServiceBusy)
        assert len(calls) == 1
