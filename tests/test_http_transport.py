"""The default transport against a real HTTP server on 127.0.0.1.

Every other HTTP test injects a transport; these post through the one
``HttpClient`` uses when none is given.  The server binds port 0 and each
test starts and stops its own, so nothing outlives a test; one test stubs
``urlopen`` instead, with a body nested too deep to decode.
"""

import io
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from graphmem.errors import ProviderTransportError
from graphmem.http import HttpClient, HttpConfig
from graphmem.providers import CallLog

CHAT_REPLY = {
    "choices": [{"message": {"content": '{"ok": true}'}}],
    "usage": {"prompt_tokens": 3, "completion_tokens": 2},
}


class Handler(BaseHTTPRequestHandler):
    """Replies by path; chat completions answer 503 once, then 200."""

    def do_POST(self):
        server = self.server
        body = self.rfile.read(int(self.headers["Content-Length"]))
        server.received.append((self.path, dict(self.headers), json.loads(body)))
        if self.path == "/slow":
            # Hold the reply past the client's timeout; teardown releases it.
            server.release.wait(5)
            return
        flaky = self.path == "/v1/chat/completions"
        if self.path == "/ok" or (flaky and len(server.received) > 1):
            self.reply(200, "application/json", json.dumps(CHAT_REPLY))
        elif self.path == "/unavailable" or flaky:
            self.reply(503, "application/json", '{"error": "overloaded"}')
        elif self.path == "/moved":
            self.reply(307, "application/json", "{}", Location="/ok")
        else:
            self.reply(502, "text/html", "<html>bad gateway</html>")

    def reply(self, status, content_type, text, **headers):
        data = text.encode("utf-8")
        self.send_response(status)
        headers.update({"Content-Type": content_type, "Content-Length": str(len(data))})
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = HTTPServer(("127.0.0.1", 0), Handler)
    httpd.received = []
    httpd.release = threading.Event()
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield httpd
    finally:
        httpd.release.set()
        httpd.shutdown()
        httpd.server_close()
        thread.join(5)
    assert not thread.is_alive()


def url(server, path):
    host, port = server.server_address
    return f"http://{host}:{port}{path}"


def default_client(base_url, timeout=2.0):
    config = HttpConfig(base_url=base_url, model="chat-model", timeout=timeout)
    return HttpClient(config, call_log=CallLog(), sleep=lambda seconds: None)


def post(target, headers=None, timeout=2.0):
    transport = default_client("http://127.0.0.1").transport
    return transport(target, {"x": [1, "é"]}, headers or {}, timeout)


def test_ok_reply_carries_payload_and_headers(server):
    headers = {"Content-Type": "application/json", "Authorization": "Bearer key"}
    assert post(url(server, "/ok"), headers) == (200, CHAT_REPLY)
    [(path, received, payload)] = server.received
    assert (path, payload) == ("/ok", {"x": [1, "é"]})
    assert received["Authorization"] == "Bearer key"
    assert received["Content-Type"] == "application/json"


def test_error_status_with_json_body_is_returned(server):
    assert post(url(server, "/unavailable")) == (503, {"error": "overloaded"})


def test_redirect_of_a_post_is_returned_not_followed(server):
    assert post(url(server, "/moved")) == (307, {})
    assert [path for path, _, _ in server.received] == ["/moved"]


def test_client_retries_an_error_status(server):
    http = default_client(url(server, "/v1"))
    assert http.chat("prompt", {"ok": bool}) == {"ok": True}
    assert [path for path, _, _ in server.received] == ["/v1/chat/completions"] * 2


@pytest.fixture
def refusing_port():
    """A bound port with no listener: connecting to it is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        yield sock.getsockname()[1]


@pytest.mark.parametrize(
    "case, message",
    [
        ("non_json", "non-JSON response body"),
        ("refused", "Connection refused"),
        ("timeout", "timed out"),
        ("non_latin1_header", "latin-1"),
    ],
)
def test_failure_is_a_transport_error(case, message, server, refusing_port):
    target, headers, timeout = url(server, "/html"), {}, 2.0
    if case == "refused":
        target = f"http://127.0.0.1:{refusing_port}/ok"
    elif case == "timeout":
        target, timeout = url(server, "/slow"), 0.3
    elif case == "non_latin1_header":
        headers = {"Authorization": "Bearer ключ"}
    with pytest.raises(ProviderTransportError, match=message):
        post(target, headers, timeout)


class Reply(io.BytesIO):
    """A response as ``urlopen`` returns it: a status and a readable body."""

    status = 200


def test_a_body_nested_too_deep_is_a_transport_error(monkeypatch):
    deep = b"[" * 100_000 + b"]" * 100_000
    monkeypatch.setattr("urllib.request.urlopen", lambda request, timeout: Reply(deep))
    with pytest.raises(ProviderTransportError, match="non-JSON response body"):
        post("http://127.0.0.1/ok")


def test_client_gives_up_with_a_transport_error(refusing_port):
    http = default_client(f"http://127.0.0.1:{refusing_port}/v1")
    with pytest.raises(ProviderTransportError, match="gave up after 3 attempts"):
        http.chat("prompt", {"ok": bool})
