"""Socket front end: request dispatch, structured refusals, drain."""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import ScenarioSpec
from repro.experiments.service.server import (
    REPLY_CHUNK_BYTES,
    ServiceServer,
    _json_slices,
    _write_reply,
    request,
)
from repro.experiments.service.service import CampaignService


def good_spec(seed=0):
    return ScenarioSpec("exp4", seed=seed, duration_bits=1_000)


@pytest.fixture
def server(tmp_path):
    service = CampaignService(str(tmp_path / "journal.jsonl"),
                              n_workers=1, heartbeat_seconds=0.1,
                              queue_capacity=2)
    return ServiceServer(service, str(tmp_path / "svc.sock"))


# ----------------------------------------------- dispatch (no socket I/O)

def test_ping(server):
    assert server.handle_request({"op": "ping"}) == {"ok": True,
                                                     "pong": True}


def test_unknown_op_is_a_structured_refusal(server):
    response = server.handle_request({"op": "explode"})
    assert response["ok"] is False
    assert response["kind"] == "bad-request"


def test_submit_requires_a_spec_list(server):
    for payload in ({"op": "submit"}, {"op": "submit", "specs": []},
                    {"op": "submit", "specs": "exp4"}):
        response = server.handle_request(payload)
        assert response["ok"] is False
        assert response["kind"] == "bad-request"


def test_submit_with_malformed_spec_is_bad_request(server):
    response = server.handle_request(
        {"op": "submit", "specs": [{"scenario": "no_such_scenario"}]})
    assert response["ok"] is False
    assert response["kind"] == "bad-request"


def test_submit_beyond_queue_capacity_is_queue_full(server):
    specs = [good_spec(seed=s).to_dict() for s in range(3)]
    response = server.handle_request({"op": "submit", "specs": specs})
    assert response["ok"] is False
    assert response["kind"] == "queue-full"
    assert response["capacity"] == 2
    # Nothing was enqueued by the rejected batch.
    assert server.service.status()["queued"] == 0


def test_submit_while_draining_is_refused(server):
    server.service.request_drain()
    response = server.handle_request(
        {"op": "submit", "specs": [good_spec().to_dict()]})
    assert response["ok"] is False
    assert response["kind"] == "draining"


def test_status_and_report_ops(server):
    status = server.handle_request({"op": "status"})
    assert status["ok"] and status["status"]["submitted"] == 0
    report = server.handle_request({"op": "report"})
    assert report["ok"] and report["report"]["records"] == []


def test_drain_op_flips_the_service_and_sets_shutdown(server):
    response = server.handle_request({"op": "drain"})
    assert response == {"ok": True, "draining": True}
    assert server.service.draining


def test_reply_slices_concatenate_to_the_one_shot_encoding():
    """Replies are streamed in slices; the line on the wire must still be
    exactly ``json.dumps(response)``, however the values nest."""
    record = {"spec": {"scenario": "exp4", "params": {"ids": [1, 2]}},
              "result": {"tec": 0.5, "label": "\u00e9\u2028", "none": None,
                         "nested": [[], {}, (1, 2)]}}
    response = {"ok": True, "report": {"records": [record] * 3,
                                       "failures": [], "n_workers": 1,
                                       "meta": {1: "int key", "t": (3,)}}}
    assert "".join(_json_slices(response)) == json.dumps(response)
    assert "".join(_json_slices([])) == "[]"


def test_a_large_reply_goes_out_in_bounded_writes():
    class Writer:
        def __init__(self):
            self.writes = []

        def write(self, data):
            self.writes.append(data)

        async def drain(self):
            pass

    response = {"ok": True, "report": {
        "records": [{"blob": "x" * 10_000, "n": n} for n in range(40)]}}
    writer = Writer()
    asyncio.run(_write_reply(writer, response))
    assert b"".join(writer.writes) == (json.dumps(response) + "\n").encode()
    assert len(writer.writes) > 1
    assert max(map(len, writer.writes)) < REPLY_CHUNK_BYTES + 20_000


def test_the_socket_listens_before_its_path_appears(server, monkeypatch):
    """``listen`` runs before the path exists; a second start replaces the
    first's (now dead) socket file and answers on it."""
    listen = socket.socket.listen
    seen = []

    def recording_listen(sock, *args):
        seen.append(os.path.exists(server.socket_path))
        return listen(sock, *args)

    monkeypatch.setattr(socket.socket, "listen", recording_listen)
    for _ in range(2):
        with server._listening_socket(), \
                socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.connect(server.socket_path)
    assert seen == [False, True]
    leftovers = [name for name in os.listdir(
        os.path.dirname(server.socket_path)) if name.startswith(".")]
    assert leftovers == []  # the temporary name was renamed away


# ------------------------------------------------------- live socket runs

SERVE_SNIPPET = """\
import sys
sys.path.insert(0, {src!r})
from repro.experiments.service import CampaignService, ServiceServer
service = CampaignService({journal!r}, n_workers={workers},
                          heartbeat_seconds=0.1)
ServiceServer(service, {sock!r}, pump_seconds={pump}).run()
print("DRAINED", len(service.report().records))
"""


def spawn_serve(tmp_path, pump_seconds=0.02, workers=1):
    src = os.path.join(os.getcwd(), "src")
    sock = str(tmp_path / "svc.sock")
    journal = str(tmp_path / "journal.jsonl")
    proc = subprocess.Popen(
        [sys.executable, "-c",
         SERVE_SNIPPET.format(src=src, journal=journal, sock=sock,
                              workers=workers, pump=pump_seconds)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc, sock


def start_serve(tmp_path, pump_seconds=0.02, workers=1):
    proc, sock = spawn_serve(tmp_path, pump_seconds, workers)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            request(sock, {"op": "ping"})
            return proc, sock
        except ConfigurationError:
            if proc.poll() is not None:
                break
        time.sleep(0.05)
    out = proc.communicate()[0]
    raise AssertionError(f"serve never opened its socket: {out}")


def stop_serve(proc):
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.communicate(timeout=30)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        raise


def inode(path):
    try:
        return os.stat(path).st_ino
    except FileNotFoundError:
        return None


def test_socket_path_appears_only_once_it_listens(tmp_path):
    """The socket is renamed onto its path after ``listen``: a client that
    waits only for the file is never refused, and a dead serve's stale
    socket file is replaced rather than answered from."""
    for start in range(3):
        stale = None
        if start % 2:  # a dead serve's socket file: bound, never listening
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as dead:
                dead.bind(str(tmp_path / "svc.sock"))
            stale = inode(tmp_path / "svc.sock")
        proc, sock = spawn_serve(tmp_path)
        try:
            deadline = time.monotonic() + 30
            while inode(sock) in (None, stale) and proc.poll() is None \
                    and time.monotonic() < deadline:
                time.sleep(0.001)
            assert request(sock, {"op": "ping"})["pong"] is True
        finally:
            out = stop_serve(proc)
        assert proc.returncode == 0, out
        assert not os.path.exists(sock)


def test_socket_round_trip_and_sigterm_drain(tmp_path):
    proc, sock = start_serve(tmp_path)
    try:
        assert request(sock, {"op": "ping"})["pong"] is True
        submitted = request(sock, {
            "op": "submit",
            "specs": [good_spec(seed=s).to_dict() for s in range(2)]})
        assert submitted["ok"] and len(submitted["accepted"]) == 2
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status = request(sock, {"op": "status"})["status"]
            if status["completed"] == 2:
                break
            time.sleep(0.1)
        assert status["completed"] == 2
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0
    assert "DRAINED 2" in out
    assert not os.path.exists(sock), "drain removes the socket"


def wait_for_status(sock, done, timeout):
    """Poll ``status`` until ``done(status)`` holds; returns the status."""
    deadline = time.monotonic() + timeout
    while True:
        status = request(sock, {"op": "status"})["status"]
        if done(status) or time.monotonic() > deadline:
            return status
        time.sleep(0.05)


def cpu_seconds(pid):
    """User + system CPU of ``pid`` so far, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def test_workers_and_requests_wake_the_scheduler_not_the_cadence(tmp_path):
    """With a 30 s cadence, only the wake-ups (a submit, a worker's
    result, SIGTERM) can get two specs done and drained in time."""
    proc, sock = start_serve(tmp_path, pump_seconds=30)
    started = time.monotonic()
    try:
        request(sock, {"op": "submit",
                       "specs": [good_spec(seed=s).to_dict()
                                 for s in range(2)]})
        status = wait_for_status(sock, lambda st: st["completed"] == 2, 10)
        assert status["completed"] == 2
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert time.monotonic() - started < 10
    assert proc.returncode == 0
    assert "DRAINED 2" in out


def test_killed_worker_is_heard_and_its_spec_lands_on_the_new_one(
        tmp_path):
    """SIGKILL the busy worker under a 30 s cadence: the sentinel must
    wake the loop, and the respawned worker's fds must be watched, for
    the requeued spec to finish before the test gives up."""
    proc, sock = start_serve(tmp_path, pump_seconds=30)
    try:
        spec = ScenarioSpec("exp4", seed=0, duration_bits=1_000_000)
        request(sock, {"op": "submit", "specs": [spec.to_dict()]})
        status = wait_for_status(
            sock, lambda st: st["workers"][0]["state"] == "busy", 10)
        victim = status["workers"][0]["pid"]
        assert status["workers"][0]["state"] == "busy"
        os.kill(victim, signal.SIGKILL)
        status = wait_for_status(sock, lambda st: st["completed"] == 1, 20)
        assert status["completed"] == 1 and status["failed"] == 0
        assert status["workers"][0]["restarts"] == 1
        assert status["workers"][0]["pid"] != victim
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0
    assert "DRAINED 1" in out


def test_an_idle_server_does_not_spin(tmp_path):
    """A restarted slot leaves a dead sentinel and an EOF pipe behind;
    a reader left on either is always ready and would spin the loop."""
    proc, sock = start_serve(tmp_path, workers=2)
    try:
        status = wait_for_status(
            sock, lambda st: all(w["state"] == "idle"
                                 for w in st["workers"]), 10)
        victim = status["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)
        status = wait_for_status(
            sock, lambda st: st["workers"][0]["restarts"] == 1
            and st["workers"][0]["state"] == "idle", 10)
        assert status["workers"][0]["pid"] != victim
        before = cpu_seconds(proc.pid)
        time.sleep(1.0)
        assert cpu_seconds(proc.pid) - before < 0.2
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()


def test_undecodable_request_line_gets_a_structured_reply(tmp_path):
    proc, sock = start_serve(tmp_path)
    try:
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.settimeout(10)
        client.connect(sock)
        client.sendall(b"this is not json\n")
        reply = json.loads(client.makefile().readline())
        assert reply["ok"] is False
        assert reply["kind"] == "bad-request"
        client.close()
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()


def test_client_refuses_cleanly_when_no_service_listens(tmp_path):
    with pytest.raises(ConfigurationError, match="repro serve"):
        request(str(tmp_path / "nothing.sock"), {"op": "ping"})
