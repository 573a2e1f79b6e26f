"""The ``repro serve`` front end: a JSON-line socket over the service.

One asyncio event loop hosts two things:

* a **pump task** that steps the
  :class:`~repro.experiments.service.service.CampaignService` scheduler
  (poll workers, supervise leases, lease ready work) whenever something
  happens: a worker's pipe end or process sentinel turns readable (both
  are registered with the loop), a ``submit`` or ``drain`` arrives, a
  signal lands, or a restart or retry backoff ends.  With nothing
  happening it still steps every ``pump_seconds``, the cadence of the
  lease-expiry and heartbeat-silence checks; and
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
import socket
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
    """Socket front end and drain choreography for one service.

    ``pump_seconds`` is the longest the scheduler waits between steps
    when no worker, request, signal or ending backoff wakes it: the
    cadence of the lease-expiry and heartbeat-silence checks.  It adds
    no latency to a finished spec, a new submission, a worker restart or
    a retry.
    """

    def __init__(self, service: CampaignService, socket_path: str,
                 pump_seconds: float = 0.02,
                 idle_exit_seconds: Optional[float] = None) -> None:
        self.service = service
        self.socket_path = os.fspath(socket_path)
        self.pump_seconds = pump_seconds
        self.idle_exit_seconds = idle_exit_seconds
        self._shutdown = False
        #: Set by worker fds, requests and signals; the pump task waits
        #: on it.
        self._wake = asyncio.Event()
        #: fd -> owner of every fd registered with the loop.  Holding the
        #: owner keeps the fd open, so it is unregistered before it closes
        #: and its number cannot be reused while it is registered.
        self._watched: Dict[int, Any] = {}
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
            self._begin_shutdown()
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
            self._wake.set()  # lease the new work now
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
        try:
            while not self._shutdown:
                self.service.pump()
                self._watch_workers(loop)
                if self.idle_exit_seconds is not None:
                    if self.service.is_idle() and self.service._order:
                        if idle_since is None:
                            idle_since = loop.time()
                        elif (loop.time() - idle_since
                              >= self.idle_exit_seconds):
                            self._begin_shutdown()
                            break
                    else:
                        idle_since = None
                await self._wait_for_wake()
            # Drain: keep pumping (no new leases) until in-flight work
            # lands.
            while self.service.pool.busy_slots():
                self.service.pump()
                self._watch_workers(loop)
                await self._wait_for_wake()
            self.service.pump()  # collect final results/events
        finally:
            self._unwatch_workers(loop)
        self.service.finish_drain()

    async def _wait_for_wake(self) -> None:
        """Wait until something sets the wake event, at most
        ``pump_seconds`` or until the next backoff ends."""
        try:
            await asyncio.wait_for(
                self._wake.wait(),
                timeout=self.service.wait_seconds(self.pump_seconds))
        except asyncio.TimeoutError:
            pass
        self._wake.clear()

    def _watch_workers(self, loop: asyncio.AbstractEventLoop) -> None:
        """Register the pool's current pipe ends and sentinels with the
        loop, after unregistering those a restart replaced.

        Runs after every pump, because a pump may restart a slot.  A
        registration left on a dead worker's fd would spin the loop
        (readers are level-triggered, and a sentinel or an EOF pipe stays
        readable); a missing one would leave the new worker unheard.
        """
        current = dict(self.service.pool.waitables())
        for fd, owner in list(self._watched.items()):
            if current.get(fd) is not owner:
                loop.remove_reader(fd)
                del self._watched[fd]
        for fd, owner in current.items():
            if fd not in self._watched:
                loop.add_reader(fd, self._wake.set)
                self._watched[fd] = owner

    def _unwatch_workers(self, loop: asyncio.AbstractEventLoop) -> None:
        for fd in self._watched:
            loop.remove_reader(fd)
        self._watched.clear()

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
        self._shutdown = True
        self._wake.set()

    def _listening_socket(self) -> socket.socket:
        """A socket already listening when its path appears: bound to a
        temporary name in the same directory, then renamed over
        ``socket_path`` (replacing a stale socket from a dead serve)."""
        tmp = os.path.join(os.path.dirname(self.socket_path),
                           f".{os.getpid():x}")
        if os.path.exists(tmp):
            os.unlink(tmp)  # left by a killed serve with this pid
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.bind(tmp)
            sock.listen(100)
            os.replace(tmp, self.socket_path)
        except OSError:
            sock.close()
            raise
        return sock

    async def serve(self) -> None:
        """Run until drained (signal, ``drain`` op, or idle-exit)."""
        self._install_signal_handlers()
        self.service.start()
        self._server = await asyncio.start_unix_server(
            self._handle_client, sock=self._listening_socket(),
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
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
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
