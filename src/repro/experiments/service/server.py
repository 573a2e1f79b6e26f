"""The ``repro serve`` front end: a JSON-line socket over the service.

One asyncio event loop hosts two things:

* a **pump task** that cooperatively steps the
  :class:`~repro.experiments.service.service.CampaignService` scheduler
  (poll workers, supervise leases, lease ready work); and
* a **unix-socket server** speaking one JSON object per line::

      -> {"op": "submit", "specs": [<spec dict>, ...]}
      <- {"ok": true, "accepted": [...], "duplicate": [...],
          "completed": [...]}

      -> {"op": "status"}              <- {"ok": true, "status": {...}}
      -> {"op": "report"}              <- {"ok": true, "report": {...}}
      -> {"op": "ping"}                <- {"ok": true, "pong": true}
      -> {"op": "drain"}               <- {"ok": true, "draining": true}

  Every error is a structured refusal, never a dropped connection:
  ``{"ok": false, "error": "...", "kind": "queue-full" | "draining" |
  "bad-request" | "internal"}``.

SIGTERM/SIGINT trigger a graceful drain: submissions close immediately,
in-flight specs finish, the journal is flushed, the pool stops, the
socket disappears, and the process exits 0.  Queued-but-unleased specs
stay journaled for a ``--resume`` restart — drain loses no accepted
work, it just defers it.

A unix socket (not TCP) keeps the attack surface at filesystem
permissions, matching the repo's no-new-dependencies, local-first
posture.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ConfigurationError, ReproError
from repro.experiments.campaign import ScenarioSpec
from repro.experiments.service.queue import QueueFullError
from repro.experiments.service.service import (
    CampaignService,
    ServiceDrainingError,
)

__all__ = ["ServiceServer", "request"]

#: Refuse request lines larger than this (64 MiB) instead of buffering
#: unboundedly; a campaign submission of hundreds of specs fits easily.
MAX_REQUEST_BYTES = 64 * 1024 * 1024


#: Replies are sent in slices of about this size, so a multi-megabyte
#: ``report`` is never held as one string, one bytes copy and a send
#: buffer at once.
REPLY_CHUNK_BYTES = 64 * 1024


def _json_slices(value: Any, depth: int = 3) -> Iterator[str]:
    """``json.dumps(value)``, in pieces whose concatenation is byte for
    byte the one-shot text.  Containers down to ``depth`` are walked and
    anything deeper (a report's records) is encoded whole, so the
    encoder's scratch space covers one record, not the whole reply."""
    if depth and isinstance(value, dict) \
            and all(isinstance(key, str) for key in value):
        yield "{"
        for index, (key, item) in enumerate(value.items()):
            yield (", " if index else "") + json.dumps(key) + ": "
            yield from _json_slices(item, depth - 1)
        yield "}"
    elif depth and isinstance(value, (list, tuple)):
        yield "["
        for index, item in enumerate(value):
            if index:
                yield ", "
            yield from _json_slices(item, depth - 1)
        yield "]"
    else:
        yield json.dumps(value)


async def _write_reply(writer: asyncio.StreamWriter,
                       response: Dict[str, Any]) -> None:
    """Send ``response`` as one JSON line, a slice at a time."""
    pending: List[str] = []
    size = 0
    for piece in _json_slices(response):
        pending.append(piece)
        size += len(piece)
        if size >= REPLY_CHUNK_BYTES:
            writer.write("".join(pending).encode("utf-8"))
            await writer.drain()
            pending, size = [], 0
    pending.append("\n")
    writer.write("".join(pending).encode("utf-8"))
    await writer.drain()


class ServiceServer:
    """Socket front end and drain choreography for one service."""

    def __init__(self, service: CampaignService, socket_path: str,
                 pump_seconds: float = 0.02,
                 idle_exit_seconds: Optional[float] = None) -> None:
        self.service = service
        self.socket_path = os.fspath(socket_path)
        self.pump_seconds = pump_seconds
        self.idle_exit_seconds = idle_exit_seconds
        self._shutdown = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None

    # ----------------------------------------------------------- requests

    def handle_request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one decoded request to the service (pure, sync)."""
        op = payload.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "status":
            return {"ok": True, "status": self.service.status()}
        if op == "report":
            return {"ok": True, "report": self.service.report().to_dict()}
        if op == "drain":
            self.service.request_drain()
            self._shutdown.set()
            return {"ok": True, "draining": True}
        if op == "submit":
            raw_specs = payload.get("specs")
            if not isinstance(raw_specs, list) or not raw_specs:
                return {"ok": False, "kind": "bad-request",
                        "error": "submit needs a non-empty 'specs' list"}
            try:
                specs = [ScenarioSpec.from_dict(raw) for raw in raw_specs]
                outcome = self.service.submit_specs(specs)
            except QueueFullError as exc:
                return {"ok": False, "kind": "queue-full",
                        "error": str(exc), "capacity": exc.capacity,
                        "depth": exc.depth, "rejected": exc.rejected}
            except ServiceDrainingError as exc:
                return {"ok": False, "kind": "draining", "error": str(exc)}
            except (ConfigurationError, KeyError, TypeError,
                    ValueError) as exc:
                return {"ok": False, "kind": "bad-request",
                        "error": f"{type(exc).__name__}: {exc}"}
            return {"ok": True, **outcome}
        return {"ok": False, "kind": "bad-request",
                "error": f"unknown op {op!r}"}

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await _write_reply(writer, {
                        "ok": False, "kind": "bad-request",
                        "error": "request line too large"})
                    break
                if not line:
                    break
                try:
                    payload = json.loads(line)
                    if not isinstance(payload, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as exc:
                    response: Dict[str, Any] = {
                        "ok": False, "kind": "bad-request",
                        "error": f"undecodable request: {exc}"}
                else:
                    try:
                        response = self.handle_request(payload)
                    except ReproError as exc:  # defensive catch-all
                        response = {"ok": False, "kind": "internal",
                                    "error": str(exc)}
                await _write_reply(writer, response)
        except (ConnectionError, BrokenPipeError):
            pass  # client went away mid-reply; nothing to salvage
        finally:
            writer.close()

    # ---------------------------------------------------------- main loop

    async def _pump_forever(self) -> None:
        """Step the scheduler until shutdown, then drain in-flight work."""
        idle_since: Optional[float] = None
        loop = asyncio.get_event_loop()
        while not self._shutdown.is_set():
            self.service.pump()
            if self.idle_exit_seconds is not None:
                if self.service.is_idle() and self.service._order:
                    if idle_since is None:
                        idle_since = loop.time()
                    elif loop.time() - idle_since >= self.idle_exit_seconds:
                        self.service.request_drain()
                        self._shutdown.set()
                        break
                else:
                    idle_since = None
            try:
                await asyncio.wait_for(self._shutdown.wait(),
                                       timeout=self.pump_seconds)
            except asyncio.TimeoutError:
                pass
        # Drain: keep pumping (no new leases) until in-flight work lands.
        self.service.request_drain()
        while self.service.pool.busy_slots():
            self.service.pump()
            await asyncio.sleep(self.pump_seconds)
        self.service.pump()  # collect final results/events
        self.service.finish_drain()

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._begin_shutdown)
            except (NotImplementedError, RuntimeError):
                signal.signal(signum,
                              lambda _s, _f: self._begin_shutdown())

    def _begin_shutdown(self) -> None:
        self.service.request_drain()
        self._shutdown.set()

    async def serve(self) -> None:
        """Run until drained (signal, ``drain`` op, or idle-exit)."""
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)  # stale socket from a dead serve
        self._install_signal_handlers()
        self.service.start()
        self._server = await asyncio.start_unix_server(
            self._handle_client, path=self.socket_path,
            limit=MAX_REQUEST_BYTES)
        pump = asyncio.ensure_future(self._pump_forever())
        try:
            await pump
        finally:
            self._server.close()
            await self._server.wait_closed()
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)

    def run(self) -> None:
        """Blocking entry point for ``repro serve``."""
        loop = asyncio.new_event_loop()
        try:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.serve())
        finally:
            asyncio.set_event_loop(None)
            loop.close()


# ------------------------------------------------------------------ client

def request(socket_path: str, payload: Dict[str, Any],
            timeout: float = 30.0) -> Dict[str, Any]:
    """Synchronous one-shot client: send one op, return the response.

    Used by ``repro campaign submit`` / ``status`` — plain blocking
    socket I/O so clients stay free of asyncio.
    """
    import socket as _socket

    with _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        try:
            sock.connect(os.fspath(socket_path))
        except OSError as exc:
            raise ConfigurationError(
                f"cannot reach campaign service at {socket_path!r} "
                f"({exc}); is `repro serve` running?") from exc
        sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
        raw = b"".join(chunks)
        if not raw:
            raise ConfigurationError(
                f"campaign service at {socket_path!r} closed the "
                f"connection without replying")
        response = json.loads(raw.decode("utf-8"))
        if not isinstance(response, dict):
            raise ConfigurationError(
                f"malformed response from campaign service: {response!r}")
        return response
