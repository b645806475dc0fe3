"""The served workloads: ``serve-read`` and ``serve-churn``.

Both run the real ``python -m repro.serve --load <snapshot>`` process (or,
traced, ``perfbench/launch.py``, which wraps the same CLI) over a 250k-key
snapshot and drive it from this process over at most two connections as a
closed loop: each connection sends its next request when the previous
answer arrives.

- ``serve-read``: one server process (``--workers 1``), 1024-key
  ``/v1/lookup`` requests with keys drawn Zipf(1.0). After the timed
  phase a short write probe (one connection; insert, update and delete
  requests of 16 keys) gives the single-process write latencies.
- ``serve-churn``: the worker pool (``--workers 2``), one connection
  pinned to each worker, 16-key requests: 50% lookups of never-written
  keys, 20% updates, 15% inserts of fresh keys and 15% deletes of the
  same connection's earlier inserts. Write keys are partitioned per
  connection, so the expected end state is exact.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import inputs, trace
from perfbench.common import (
    WORK_DIR, Tally, alive, child_pids, median, metric, now, process_tree,
    pss_bytes, quantile,
)

RESIDENT = 250_000
READ_KEYS = 1024
CHURN_KEYS = 16
#: Requests per ``--seconds`` over both connections, sized so the timed
#: phase lasts about that long at the seed commit on a 2-core Xeon VM.
#: A fixed count, not a clock, ends the phase, so every run does the same
#: work and a churn run always ends in the same table state.
READ_REQUESTS_PER_SECOND = 270
CHURN_REQUESTS_PER_SECOND = 120
#: Fresh servers per run: each is one set-up sample and one part of the
#: timed phase.
PARTS = 3
CONNECTIONS = 2
#: serve-read write probe, per part: rounds of one insert, update and
#: delete request.
PROBE_ROUNDS = 34
#: serve-churn: one shuffled block of request kinds (the 50/20/15/15 mix).
CHURN_BLOCK = ("lookup",) * 10 + ("update",) * 4 + ("insert",) * 3 + \
    ("delete",) * 3
#: Insert requests per connection before the timed phase, so a delete
#: early in a block always has an earlier insert to remove.
CHURN_WARMUP_INSERTS = 4
#: Resident keys each churn connection updates (never looked up).
CHURN_UPDATE_POOL = 2048
_START_TIMEOUT_S = 120.0
_STOP_TIMEOUT_S = 60.0
_IO_TIMEOUT_S = 60.0


# ---------------------------------------------------------------------------
# HTTP over a plain socket
# ---------------------------------------------------------------------------


def http_request(path: str, body: bytes = b"", method: str = "POST") -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        "\r\n"
    ).encode("ascii") + body


def json_list(name: str, items: Sequence[int]) -> bytes:
    """``{"name":[...]}`` exactly as the server's compact JSON writes it."""
    return b'{"%s":[%s]}' % (name.encode(), ",".join(map(str, items)).encode())


class Conn:
    """One keep-alive client connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=_IO_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()

    def close(self) -> None:
        self.sock.close()

    def pop(self) -> Optional[Tuple[int, bytes, int]]:
        """One buffered response ``(status, body, wire bytes)``, if whole."""
        end = self.buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(self.buf[:end]).decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = end + 4 + length
        if len(self.buf) < total:
            return None
        body = bytes(self.buf[end + 4:total])
        del self.buf[:total]
        return int(head[0].split(" ")[1]), body, total

    def fill(self) -> None:
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("server closed the connection")
        self.buf += data

    def call(self, raw: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(raw)
        while True:
            response = self.pop()
            if response is not None:
                return response[0], response[1]
            self.fill()

    def get_json(self, path: str) -> Dict[str, Any]:
        status, body = self.call(http_request(path, method="GET"))
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
        return json.loads(body)

    def scrape(self) -> Dict[str, float]:
        """Unlabelled samples of ``/metrics``."""
        status, body = self.call(http_request("/metrics", method="GET"))
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        samples = {}
        for line in body.decode().splitlines():
            parts = line.split()
            if len(parts) == 2 and not line.startswith("#") \
                    and "{" not in parts[0]:
                samples[parts[0]] = float(parts[1])
        return samples


class Request:
    """One scripted request and the response body it must produce."""

    __slots__ = ("kind", "raw", "keys", "expect")

    def __init__(self, kind: str, raw: bytes, keys: int,
                 expect: bytes) -> None:
        self.kind, self.raw, self.keys, self.expect = kind, raw, keys, expect


def lookup(keys: Sequence[int], values: Sequence[int]) -> Request:
    return Request("lookup", http_request("/v1/lookup", json_list("keys", keys)),
                   len(keys), json_list("values", values))


def write(kind: str, keys: Sequence[int],
          values: Optional[Sequence[int]] = None) -> Request:
    body = json_list("keys", keys)
    if values is not None:
        body = body[:-1] + b',"values":[%s]}' % ",".join(
            map(str, values)).encode()
    result = {"insert": "inserted", "update": "updated",
              "delete": "deleted"}[kind]
    return Request(kind, http_request(f"/v1/{kind}", body), len(keys),
                   b'{"%s":%d}' % (result.encode(), len(keys)))


def answer_ok(request: Request, status: int, body: bytes) -> bool:
    """Byte-compare first; parse both only when the bytes differ, so a
    formatting change is not a failure but a wrong value is."""
    if status != 200:
        return False
    if body == request.expect:
        return True
    try:
        return json.loads(body) == json.loads(request.expect)
    except ValueError:
        return False


def check(conn: Conn, request: Request, tally: Tally) -> None:
    status, body = conn.call(request.raw)
    tally.check(answer_ok(request, status, body),
                f"{request.kind} answered {status}: {body[:120]!r}")


def closed_loop(conns: Sequence[Conn], scripts: Sequence[Sequence[Request]],
                tally: Tally) -> Tuple[Dict[str, List[float]], int]:
    """Run each connection's script as a closed loop; every connection has
    one request in flight. Returns latencies (ms) per kind and the bytes
    sent plus received."""
    latency: Dict[str, List[float]] = {}
    position = [0] * len(conns)
    sent_at = [0.0] * len(conns)
    wire = 0
    by_sock = {conn.sock: index for index, conn in enumerate(conns)}
    active = set()
    for index, conn in enumerate(conns):
        if scripts[index]:
            active.add(conn.sock)
            sent_at[index] = now()
            conn.sock.sendall(scripts[index][0].raw)
    while active:
        ready, _, _ = select.select(list(active), [], [], _IO_TIMEOUT_S)
        if not ready:
            raise TimeoutError("no response within the I/O timeout")
        for sock in ready:
            index = by_sock[sock]
            conn = conns[index]
            conn.fill()
            while True:
                response = conn.pop()
                if response is None:
                    break
                done = now()
                status, body, size = response
                request = scripts[index][position[index]]
                latency.setdefault(request.kind, []).append(
                    1e3 * (done - sent_at[index]))
                wire += len(request.raw) + size
                tally.check(answer_ok(request, status, body),
                            f"{request.kind} answered {status}: "
                            f"{body[:120]!r}")
                position[index] += 1
                if position[index] < len(scripts[index]):
                    sent_at[index] = now()
                    sock.sendall(scripts[index][position[index]].raw)
                else:
                    active.discard(sock)
    return latency, wire


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return int(probe.getsockname()[1])


class Server:
    """One server process tree: ``python -m repro.serve`` or, traced, the
    launcher around the same CLI. Started in its own session, so a stop
    that times out can kill the whole tree."""

    def __init__(self, root: str, snapshot: str, workers: int,
                 trace_dir: Optional[str] = None) -> None:
        self.port = _free_port()
        work = os.path.join(root, WORK_DIR, "logs")
        os.makedirs(work, exist_ok=True)
        self.log_path = os.path.join(work, f"server-{os.getpid()}-"
                                           f"{self.port}.log")
        cmd = [sys.executable, "-u"]
        if trace_dir is None:
            cmd += ["-m", "repro.serve"]
        else:
            cmd += [os.path.join(root, "perfbench", "launch.py"), trace_dir]
        cmd += ["--load", snapshot, "--port", str(self.port),
                "--workers", str(workers)]
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        self._log = open(self.log_path, "wb")
        self.started = now()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def log_tail(self) -> str:
        with open(self.log_path, "rb") as handle:
            return handle.read()[-2000:].decode(errors="replace")

    def wait_healthy(self) -> float:
        """Poll ``/healthz`` until it answers ok; seconds since spawn."""
        deadline = self.started + _START_TIMEOUT_S
        while now() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during start-up:\n"
                                   f"{self.log_tail()}")
            try:
                conn = Conn(self.port)
            except OSError:
                time.sleep(0.005)
                continue
            try:
                health = conn.get_json("/healthz")
            finally:
                conn.close()
            if health.get("status") == "ok":
                return now() - self.started
        raise TimeoutError(f"server not healthy after {_START_TIMEOUT_S}s")

    def wait_listening(self) -> None:
        """Wait for the CLI's "listening" line: start-up is complete (every
        worker is ready and the signal handlers are about to be set)."""
        deadline = now() + _START_TIMEOUT_S
        while now() < deadline:
            with open(self.log_path, "rb") as handle:
                if b"listening on" in handle.read():
                    # The handlers are installed right after the print.
                    time.sleep(0.05)
                    return
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited:\n{self.log_tail()}")
            time.sleep(0.01)
        raise TimeoutError("server never printed its listening line")

    def stop(self) -> None:
        """Graceful SIGTERM; wait for the whole process tree to end."""
        tree = process_tree(self.pid)
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(self.pid, signal.SIGKILL)
                self.proc.wait()
            deadline = now() + _STOP_TIMEOUT_S
            while any(alive(pid) for pid in tree[1:]) and now() < deadline:
                time.sleep(0.01)
            if any(alive(pid) for pid in tree[1:]):
                os.killpg(self.pid, signal.SIGKILL)
        finally:
            self._log.close()
        if self.proc.returncode == 0:
            os.remove(self.log_path)  # kept only when the server failed


def worker_of(conn: Conn, port: int, candidates: Sequence[int]) -> int:
    """The pid among ``candidates`` that accepted ``conn``.

    The server side of the connection is the /proc/net/tcp entry whose
    local port is the server's and remote port is ours; its inode appears
    as ``socket:[inode]`` under exactly one process's /proc/<pid>/fd.
    The connection must have been answered once, so it has been accepted.
    """
    local = f"0100007F:{port:04X}"
    remote = f"0100007F:{conn.sock.getsockname()[1]:04X}"
    inode = None
    with open("/proc/net/tcp") as handle:
        for line in handle:
            fields = line.split()
            if len(fields) > 9 and fields[1] == local and fields[2] == remote:
                inode = fields[9]
    if inode is None:
        raise RuntimeError("accepted socket not found in /proc/net/tcp")
    target = f"socket:[{inode}]"
    for pid in candidates:
        fd_dir = f"/proc/{pid}/fd"
        try:
            fds = os.listdir(fd_dir)
        except OSError:
            continue
        for fd in fds:
            try:
                if os.readlink(os.path.join(fd_dir, fd)) == target:
                    return pid
            except OSError:
                continue
    raise RuntimeError(f"no process holds {target}")


def pinned_connections(port: int, server_pid: int, count: int,
                       attempts: int = 64) -> Tuple[List[Conn], List[int]]:
    """``count`` connections, each accepted by a different worker process.

    ``SO_REUSEPORT`` hashes each connection to a worker, so two can land
    on the same one; a connection that does is closed and replaced. At
    most ``count`` connections are open at any time.
    """
    workers = child_pids(server_pid)
    conns: List[Conn] = []
    owners: List[int] = []
    try:
        for _ in range(attempts):
            conn = Conn(port)
            conn.get_json("/healthz")
            owner = worker_of(conn, port, workers)
            if owner in owners:
                conn.close()
                continue
            conns.append(conn)
            owners.append(owner)
            if len(conns) == count:
                return conns, owners
    except BaseException:
        for conn in conns:
            conn.close()
        raise
    for conn in conns:
        conn.close()
    raise RuntimeError(f"could not spread {count} connections over workers")


# ---------------------------------------------------------------------------
# Workload plans
# ---------------------------------------------------------------------------


class Plan:
    """Everything one part of a served run sends and expects."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.warmup: List[List[Request]] = [[] for _ in range(CONNECTIONS)]
        self.scripts: List[List[Request]] = [[] for _ in range(CONNECTIONS)]
        self.probe: List[Request] = []
        #: Final value of every key written, and the final key count.
        self.final: Dict[int, int] = {}
        self.final_len = 0


def read_plan(keys: np.ndarray, vals: np.ndarray, seed: int, part: int,
              seconds: int) -> Plan:
    """One part of ``serve-read``: the lookups, then the write probe."""
    from repro.datasets.synthetic import zipf_queries

    plan = Plan(workers=1)
    per_conn = max(1, int(seconds * READ_REQUESTS_PER_SECOND)
                   // (CONNECTIONS * PARTS))
    total = per_conn * CONNECTIONS
    picks = zipf_queries(np.arange(keys.size, dtype=np.uint64),
                         total * READ_KEYS,
                         [seed, part, 0x21F0AAAD]).astype(np.int64)
    key_list, val_list = keys.tolist(), vals.tolist()
    for i in range(total):
        chunk = picks[i * READ_KEYS:(i + 1) * READ_KEYS].tolist()
        plan.scripts[i % CONNECTIONS].append(
            lookup([key_list[p] for p in chunk], [val_list[p] for p in chunk]))
    plan.final_len = keys.size
    rng = np.random.default_rng([seed, part, 0x9E0BE])
    fresh = inputs.fresh_keys(PROBE_ROUNDS * CHURN_KEYS, keys, seed).tolist()
    for r in range(PROBE_ROUNDS):
        span = slice(r * CHURN_KEYS, (r + 1) * CHURN_KEYS)
        new_vals = inputs.values(rng, CHURN_KEYS).tolist()
        upd_vals = inputs.values(rng, CHURN_KEYS).tolist()
        plan.probe += [
            write("insert", fresh[span], new_vals),
            write("update", key_list[span], upd_vals),
            write("delete", fresh[span]),
        ]
        plan.final.update(zip(key_list[span], upd_vals))
    return plan


def churn_plan(keys: np.ndarray, vals: np.ndarray, seed: int, part: int,
               seconds: int) -> Plan:
    """One part of ``serve-churn``, against a server fresh from the
    snapshot."""
    plan = Plan(workers=2)
    rng = np.random.default_rng([seed, part, 0xC4D2])
    blocks = max(1, int(seconds * CHURN_REQUESTS_PER_SECOND)
                 // (CONNECTIONS * len(CHURN_BLOCK) * PARTS))
    inserts = blocks * CHURN_BLOCK.count("insert") + CHURN_WARMUP_INSERTS
    fresh = inputs.fresh_keys(CONNECTIONS * inserts * CHURN_KEYS, keys, seed)
    key_list, val_list = keys.tolist(), vals.tolist()
    pool_lo = CONNECTIONS * CHURN_UPDATE_POOL
    live_total = 0
    for conn in range(CONNECTIONS):
        updatable = key_list[conn * CHURN_UPDATE_POOL:
                             (conn + 1) * CHURN_UPDATE_POOL]
        mine = iter(fresh[conn * inserts * CHURN_KEYS:
                          (conn + 1) * inserts * CHURN_KEYS].tolist())
        live: Deque[List[int]] = deque()

        def insert_request() -> Request:
            batch = [next(mine) for _ in range(CHURN_KEYS)]
            new_vals = inputs.values(rng, CHURN_KEYS).tolist()
            live.append(batch)
            plan.final.update(zip(batch, new_vals))
            return write("insert", batch, new_vals)

        for _ in range(CHURN_WARMUP_INSERTS):
            plan.warmup[conn].append(insert_request())
        script = plan.scripts[conn]
        for _ in range(blocks):
            for kind in rng.permutation(CHURN_BLOCK):
                if kind == "lookup":
                    picks = rng.integers(pool_lo, keys.size,
                                         size=CHURN_KEYS).tolist()
                    script.append(lookup([key_list[p] for p in picks],
                                         [val_list[p] for p in picks]))
                elif kind == "update":
                    picks = rng.choice(len(updatable), CHURN_KEYS,
                                       replace=False).tolist()
                    batch = [updatable[p] for p in picks]
                    new_vals = inputs.values(rng, CHURN_KEYS).tolist()
                    plan.final.update(zip(batch, new_vals))
                    script.append(write("update", batch, new_vals))
                elif kind == "insert":
                    script.append(insert_request())
                else:
                    batch = live.popleft()
                    for key in batch:
                        del plan.final[key]
                    script.append(write("delete", batch))
        live_total += sum(len(batch) for batch in live)
    plan.final_len = keys.size + live_total
    return plan


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------

#: /metrics counters whose deltas over the timed phase feed layer metrics.
_COUNTERS = (
    "repro_serve_keys_total", "repro_serve_batches_total",
    "repro_planes_generation_retries_total", "repro_updates_total",
    "repro_repair_steps_total", "repro_cost_cache_hits_total",
    "repro_cost_cache_misses_total", "repro_reconstructions_total",
)


def _ratios(d: Dict[str, float], lookup_keys: int) -> Dict[str, float]:
    """The layer metrics' counter ratios over the timed phase."""
    batches = d["repro_serve_batches_total"]
    updates = d["repro_updates_total"]
    hits = d["repro_cost_cache_hits_total"]
    probes = hits + d["repro_cost_cache_misses_total"]
    return {
        "keys_per_batch":
            d["repro_serve_keys_total"] / batches if batches else 0.0,
        "retries_per_kread":
            1e3 * d["repro_planes_generation_retries_total"] / lookup_keys
            if lookup_keys else 0.0,
        "repair_steps_per_update":
            d["repro_repair_steps_total"] / updates if updates else 0.0,
        "cost_cache_hit_rate": hits / probes if probes else 0.0,
        "reconstructions": d["repro_reconstructions_total"],
    }


def run(root: str, workload: str, seed: int, seconds: int,
        trace_dir: Optional[str] = None,
        resident: int = RESIDENT) -> Dict[str, Any]:
    """``PARTS`` fresh servers, each timed from start-up to ``/healthz``
    (one set-up sample) and then driven through one part of the phase, so
    the measured work is spread over the whole run."""
    snapshot, space_bits = inputs.snapshot(root, resident, seed)
    keys, vals = inputs.resident_pairs(resident, seed)
    make_plan = read_plan if workload == "serve-read" else churn_plan
    tally = Tally()
    parts = []
    for part in range(PARTS):
        plan = make_plan(keys, vals, seed, part, seconds)
        server = Server(root, snapshot, plan.workers, trace_dir)
        try:
            setup = server.wait_healthy()
            tally.ok()
            server.wait_listening()
            measured = _drive(server, plan, tally)
        finally:
            server.stop()
        parts.append(dict(measured, setup=setup, plan=plan))

    windows = [p["window"] for p in parts]
    timed = sum(end - start for start, end in windows)
    latency: Dict[str, List[float]] = {}
    for p in parts:
        for kind, values in p["latency"].items():
            latency.setdefault(kind, []).extend(values)
    writes = latency
    if workload == "serve-read":
        writes = {}
        for p in parts:
            for kind, values in p["probe"].items():
                writes.setdefault(kind, []).extend(values)
    keys_sent = sum(p["keys"] for p in parts)
    e2e = {
        "setup_s": metric(median([p["setup"] for p in parts]), "s"),
        "rss_mb": metric(median([p["pss"] for p in parts]) / 1e6, "MB"),
        "bits_per_key": metric(space_bits / parts[-1]["final_len"], "bits"),
        "kops": metric(keys_sent / timed / 1e3, "kops"),
        "lookup_p50_ms": metric(quantile(latency["lookup"], 0.5), "ms"),
        "lookup_p90_ms": metric(quantile(latency["lookup"], 0.9), "ms"),
    }
    for kind in ("update", "insert", "delete"):
        e2e[f"{kind}_p50_ms"] = metric(quantile(writes[kind], 0.5), "ms")
    requests = [r for p in parts for s in p["plan"].scripts for r in s]
    deltas = {name: sum(p["deltas"][name] for p in parts)
              for name in _COUNTERS}
    counts = _ratios(deltas, sum(r.keys for r in requests
                                 if r.kind == "lookup"))
    client = {
        "requests": len(requests),
        "write_requests": sum(1 for r in requests if r.kind != "lookup"),
        "keys": keys_sent, "bytes": sum(p["wire"] for p in parts),
    }
    layers = None
    if trace_dir is not None:
        layers = trace.layer_metrics(trace.load_dumps(trace_dir), windows,
                                     client, counts)
    return {
        "tally": tally, "e2e": e2e, "layers": layers,
        "diagnostics": {
            "workload": workload, "resident_keys": resident,
            "workers": parts[0]["plan"].workers, "connections": CONNECTIONS,
            "worker_pids": [p["owners"] for p in parts],
            "requests": len(requests), "phase_s": timed,
            "setup_s_each": [p["setup"] for p in parts],
            "generator_cpu_share": sum(p["cpu"] for p in parts) / timed,
            "lookup_p99_ms": quantile(latency["lookup"], 0.99),
            "write_p99_ms": {k: quantile(writes[k], 0.99)
                             for k in ("update", "insert", "delete")},
            "samples": {k: len(v) for k, v in latency.items()},
            "counts": counts,
        },
    }


def _drive(server: Server, plan: Plan, tally: Tally) -> Dict[str, Any]:
    """One part's timed phase, probe and read-back on a started server."""
    if plan.workers > 1:
        conns, owners = pinned_connections(server.port, server.pid,
                                           CONNECTIONS)
    else:
        conns = [Conn(server.port) for _ in range(CONNECTIONS)]
        owners = [server.pid] * CONNECTIONS
    try:
        for conn, warmup in zip(conns, plan.warmup):
            for request in warmup:
                check(conn, request, tally)
        before = conns[0].scrape()
        cpu_start = time.process_time()
        start = now()
        latency, wire = closed_loop(conns, plan.scripts, tally)
        end = now()
        cpu = time.process_time() - cpu_start
        after = conns[0].scrape()

        probe: Dict[str, List[float]] = {}
        for request in plan.probe:
            started = now()
            status, body = conns[0].call(request.raw)
            probe.setdefault(request.kind, []).append(1e3 * (now() - started))
            tally.check(answer_ok(request, status, body),
                        f"probe {request.kind} answered {status}: "
                        f"{body[:120]!r}")

        # Read back every key written in this part.
        final = list(plan.final.items())
        for lo in range(0, len(final), READ_KEYS):
            chunk = final[lo:lo + READ_KEYS]
            check(conns[0], lookup([k for k, _ in chunk],
                                   [v for _, v in chunk]), tally)
        final_len = conns[0].get_json("/healthz")["keys"]
        tally.check(final_len == plan.final_len,
                    f"server holds {final_len} keys, expected "
                    f"{plan.final_len}")
        pss = sum(pss_bytes(pid) for pid in process_tree(server.pid))
    finally:
        for conn in conns:
            conn.close()
    return {
        "window": (start, end), "latency": latency, "wire": wire,
        "keys": sum(r.keys for s in plan.scripts for r in s),
        "deltas": {name: after.get(name, 0.0) - before.get(name, 0.0)
                   for name in _COUNTERS},
        "probe": probe, "final_len": final_len, "pss": pss, "cpu": cpu,
        "owners": owners,
    }
