"""Status front-ends over a :class:`~repro.observe.live.LiveAggregator`.

Four consumers of the same rolling snapshot:

* :class:`StatusServer` — stdlib HTTP endpoint (``--live-port``) serving
  ``/status`` JSON and a minimal self-refreshing HTML page.  This is the
  exact surface a future ``repro.serve`` layer mounts: CI pollers hit
  ``/status``, humans open ``/``.
* :class:`StatusFileWriter` — periodically rewrites a JSON status file
  atomically (``--live-status``), for campaigns on machines where
  opening a port is unwanted.
* :class:`ProgressWriter` — the ``--progress`` line on stderr, through
  the same :class:`PeriodicWriter` loop as the status file.
* :func:`watch` — the ``repro watch`` loop: resolve a target (status
  file, port, ``host:port`` or URL), fetch snapshots, re-render the
  dashboard until the campaign reaches a terminal state.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from ..errors import ReproError
from .live import LiveAggregator, render_live, render_progress_line

_HTML_PAGE = """<!doctype html>
<html>
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>repro live — {kernel}</title>
<style>
body {{ background: #111; color: #ddd; font-family: monospace; }}
pre {{ font-size: 14px; line-height: 1.35; }}
</style>
</head>
<body>
<pre>{dashboard}</pre>
<p><a href="/status" style="color:#8cf">/status</a> (JSON)</p>
</body>
</html>
"""

#: States after which a watcher stops polling.
TERMINAL_STATES = frozenset({"done", "converged", "crashed"})


class _StatusHandler(BaseHTTPRequestHandler):
    server_version = "repro-statusd/1"

    def _send(self, body: bytes, content_type: str, code: int = 200) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        aggregator: LiveAggregator = self.server.aggregator  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        if path == "/status":
            body = json.dumps(aggregator.snapshot()).encode()
            self._send(body, "application/json")
        elif path in ("/", "/index.html"):
            snapshot = aggregator.snapshot()
            page = _HTML_PAGE.format(
                kernel=snapshot.get("kernel") or "campaign",
                dashboard=render_live(snapshot),
            )
            self._send(page.encode(), "text/html; charset=utf-8")
        elif path == "/healthz":
            self._send(b"ok\n", "text/plain")
        else:
            self._send(b"not found\n", "text/plain", code=404)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # campaign stderr belongs to the progress line


class StatusServer:
    """Background HTTP server exposing one aggregator's snapshots.

    ``port=0`` binds an ephemeral port; read ``.port`` after ``start()``
    (it is resolved at construction, when the socket binds).
    """

    def __init__(
        self,
        aggregator: LiveAggregator,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        self.aggregator = aggregator
        try:
            self._server = ThreadingHTTPServer((host, port), _StatusHandler)
        except OSError as exc:
            raise ReproError(f"cannot bind live status port {port}: {exc}") from None
        self._server.aggregator = aggregator  # type: ignore[attr-defined]
        self._server.daemon_threads = True
        self.host = host
        self.port = self._server.server_address[1]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="repro-statusd",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()


class PeriodicWriter:
    """Writes an aggregator's snapshot every ``interval_s`` on a daemon
    thread, and a final one on :meth:`stop` so the terminal state lands.

    Subclasses implement :meth:`write`; ``final`` marks the last call.
    """

    def __init__(self, aggregator: LiveAggregator, interval_s: float) -> None:
        self.aggregator = aggregator
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def write(self, snapshot: dict, final: bool) -> None:
        raise NotImplementedError

    def write_once(self, final: bool = False) -> None:
        self.write(self.aggregator.snapshot(), final)

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name=f"repro-{type(self).__name__}", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.write_once()
            except OSError:
                return

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        try:
            self.write_once(final=True)
        except OSError:
            pass


class StatusFileWriter(PeriodicWriter):
    """Periodic atomic JSON snapshots of an aggregator to a file."""

    def __init__(
        self,
        aggregator: LiveAggregator,
        path: str | Path,
        interval_s: float = 1.0,
    ) -> None:
        super().__init__(aggregator, interval_s)
        self.path = Path(path)

    def write(self, snapshot: dict, final: bool) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(snapshot) + "\n")
        os.replace(tmp, self.path)


class ProgressWriter(PeriodicWriter):
    """The ``--progress`` view: one :func:`render_progress_line` per tick.

    On a terminal the line redraws in place every second; in a pipe or
    CI log a new line is written every 5 s.  Either way :meth:`stop`
    ends with a final, newline-terminated line.
    """

    def __init__(
        self, aggregator: LiveAggregator, stream, interval_s: float | None = None
    ) -> None:
        self.stream = stream
        self.tty = stream.isatty()
        if interval_s is None:
            interval_s = 1.0 if self.tty else 5.0
        super().__init__(aggregator, interval_s)
        self._width = 0

    def write(self, snapshot: dict, final: bool) -> None:
        line = render_progress_line(snapshot)
        if self.tty:
            # Pad over the previous, possibly longer, line.
            self._width = max(self._width, len(line))
            self.stream.write("\r" + line.ljust(self._width) + ("\n" if final else ""))
        else:
            self.stream.write(line + "\n")
        self.stream.flush()


def _file_fetcher(path: Path):
    def fetch() -> dict | None:
        try:
            text = path.read_text()
        except OSError:
            return None
        if not text.strip():
            return None
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            return None  # mid-replace on a non-atomic filesystem; retry

    return fetch


def _http_fetcher(url: str):
    def fetch() -> dict | None:
        try:
            with urllib.request.urlopen(url, timeout=5.0) as response:
                return json.loads(response.read())
        except (urllib.error.URLError, OSError, json.JSONDecodeError, ValueError):
            return None

    return fetch


def resolve_target(target: str):
    """Map a ``repro watch`` target to a snapshot fetcher.

    Accepts a status-file path, a bare port (local campaign), a
    ``host:port`` pair, or a full ``http(s)://`` URL with or without the
    ``/status`` suffix.
    """
    if target.startswith(("http://", "https://")):
        url = target.rstrip("/")
        if not url.endswith("/status"):
            url += "/status"
        return _http_fetcher(url)
    if target.isdigit():
        return _http_fetcher(f"http://127.0.0.1:{int(target)}/status")
    host, sep, port = target.rpartition(":")
    if sep and port.isdigit() and host and "/" not in host and "\\" not in host:
        return _http_fetcher(f"http://{host}:{int(port)}/status")
    return _file_fetcher(Path(target))


def watch(
    target: str,
    interval_s: float = 1.0,
    stream=None,
    once: bool = False,
    as_json: bool = False,
    timeout_s: float | None = None,
    clock=time.monotonic,
    sleep=time.sleep,
) -> int:
    """The ``repro watch`` loop; returns a process exit code.

    Polls ``target`` until the campaign reports a terminal state
    (``done``/``converged``/``crashed``), re-rendering the dashboard on
    each fetch.  ``once`` renders a single snapshot and exits.  While the
    target does not resolve yet (campaign still starting), keeps retrying
    until ``timeout_s``.
    """
    stream = stream if stream is not None else sys.stdout
    fetch = resolve_target(target)
    started = clock()
    is_tty = getattr(stream, "isatty", lambda: False)()
    rendered_before = False
    while True:
        snapshot = fetch()
        if snapshot is None:
            if once or (
                timeout_s is not None and clock() - started > timeout_s
            ):
                print(f"repro watch: no live status at {target!r}", file=sys.stderr)
                return 1
            sleep(interval_s)
            continue
        if as_json:
            stream.write(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
        else:
            if is_tty and rendered_before:
                stream.write("\x1b[2J\x1b[H")
            stream.write(render_live(snapshot))
        stream.flush()
        rendered_before = True
        state = snapshot.get("state")
        if once or state in TERMINAL_STATES:
            return 0 if state != "crashed" else 2
        sleep(interval_s)
