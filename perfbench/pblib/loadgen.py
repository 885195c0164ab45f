"""Open-loop JSONL load generator over one pipe to one ``repro serve``.

One process, one pipe each way.  The main thread sends requests at their
due times from a precomputed schedule; a reader thread stamps every
response line as it arrives.  A request's latency runs from its *due*
time, so a server stall also charges the requests queued behind it.

Writes never block: the server's stdin is switched to non-blocking and
bytes it has not read yet wait in this process's buffer, still counted
as sent at their due time.  So ``max_late_ms`` measures only how late
the generator itself got to a request, never the server's backpressure;
a run where it exceeds :data:`LATE_LIMIT_MS` is invalid, not fast.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: the generator must offer the load on schedule to within the serve
#: latency limit; lag beyond it means the offered rate was not the
#: nominal one.  (Lag never flatters the server: latency runs from the
#: due time, so a late send is charged to it.)
LATE_LIMIT_MS = 100.0


@dataclass
class Request:
    req_id: int
    kind: str
    target: int
    tenant: str
    #: due time on the monotonic clock (ns); set when scheduled
    due_ns: int = 0
    phase: str = ""

    def line(self) -> bytes:
        doc = {"id": self.req_id, "target": self.target, "tenant": self.tenant}
        if self.kind != "features":
            doc["kind"] = self.kind
        return (json.dumps(doc) + "\n").encode()


@dataclass
class Response:
    recv_ns: int
    doc: dict


class Connection:
    """The generator's end of one serve process's stdin/stdout."""

    def __init__(self, proc):
        self.proc = proc
        self.fd = proc.stdin.fileno()
        os.set_blocking(self.fd, False)
        self._buf = bytearray()
        #: (arrival ns, lines) per read: lines read together arrived together
        self.chunks: List[Tuple[int, List[bytes]]] = []
        self.received = 0
        self._reader = threading.Thread(
            target=self._read, name="loadgen-reader", daemon=True
        )
        self._reader.start()
        self.sent = 0

    def _read(self) -> None:
        # whole reads, not readline: less time holding the interpreter
        # lock that the sending thread needs to stay on schedule
        fd = self.proc.stdout.fileno()
        pending = b""
        while True:
            data = os.read(fd, 1 << 16)
            if not data:
                return
            now = time.monotonic_ns()
            lines = (pending + data).split(b"\n")
            pending = lines.pop()
            if lines:
                self.chunks.append((now, lines))
                self.received += len(lines)

    def send(self, data: bytes, n: int) -> None:
        self._buf += data
        self.sent += n
        self.pump()

    def pump(self) -> None:
        while self._buf:
            try:
                n = os.write(self.fd, self._buf)
            except BlockingIOError:
                return
            del self._buf[:n]

    def wait_received(self, count: int, timeout_s: float) -> bool:
        """Wait for ``count`` answers in all; False on timeout or EOF."""
        deadline = time.monotonic() + timeout_s
        while self.received < count:
            self.pump()
            if time.monotonic() > deadline or not self._reader.is_alive():
                return self.received >= count
            time.sleep(0.002)
        return True

    def close(self, timeout_s: float = 60.0) -> None:
        """Flush what is buffered, then send EOF so the server drains."""
        deadline = time.monotonic() + timeout_s
        while self._buf and time.monotonic() < deadline:
            self.pump()
            time.sleep(0.002)
        self.proc.stdin.close()

    def join(self, timeout_s: float = 30.0) -> None:
        self._reader.join(timeout_s)

    def responses(self) -> Dict[object, Response]:
        out: Dict[object, Response] = {}
        for recv_ns, lines in self.chunks:
            for raw in lines:
                try:
                    doc = json.loads(raw)
                except json.JSONDecodeError:
                    continue
                if isinstance(doc, dict):
                    out.setdefault(doc.get("id"), Response(recv_ns, doc))
        return out


def play(conn: Connection, schedule: Sequence[Request], lead_s: float = 0.02):
    """Send ``schedule`` (offsets in ``due_ns``), starting ``lead_s`` after
    its lines are encoded; returns (start ns, how late the generator got
    to any request in ms)."""
    max_late = 0
    i, n = 0, len(schedule)
    lines = [r.line() for r in schedule]
    start_ns = time.monotonic_ns() + int(lead_s * 1e9)
    for r in schedule:
        r.due_ns += start_ns
    while i < n:
        now = time.monotonic_ns()
        chunk = []
        while i < n and schedule[i].due_ns <= now:
            max_late = max(max_late, now - schedule[i].due_ns)
            chunk.append(lines[i])
            i += 1
        if chunk:
            conn.send(b"".join(chunk), len(chunk))
            continue
        conn.pump()
        wait_ns = schedule[i].due_ns - time.monotonic_ns()
        if wait_ns > 0:
            time.sleep(min(wait_ns, 2_000_000) / 1e9)
    return start_ns, max_late / 1e6


@dataclass
class LoadPlan:
    """Seeded request sequences for the serve phases.

    Features targets follow the mix ``repro.serve.loadgen.LoadSpec``
    documents for a what-if service: the target of rank ``k`` (1-based,
    in the order given) has weight ``1 / k**skew``, with ``skew`` 1.0 by
    default.  Tenants are uniform, as there.
    """

    seed: int
    feature_targets: Tuple[int, ...]
    runtime_targets: Tuple[int, ...]
    tenants: Tuple[str, ...] = ("tenant0", "tenant1", "tenant2", "tenant3")
    skew: float = 1.0
    _next_id: int = field(default=0, init=False)
    rng: random.Random = field(init=False)
    _cum_weights: List[float] = field(init=False)

    def __post_init__(self):
        self.rng = random.Random(self.seed)
        total = 0.0
        self._cum_weights = []
        for k in range(1, len(self.feature_targets) + 1):
            total += 1.0 / k ** self.skew
            self._cum_weights.append(total)

    def _feature_target(self) -> int:
        return self.rng.choices(
            self.feature_targets, cum_weights=self._cum_weights
        )[0]

    def _new(self, kind: str, target: int, phase: str, offset_s: float) -> Request:
        self._next_id += 1
        return Request(
            self._next_id, kind, target, self.rng.choice(self.tenants),
            int(round(offset_s * 1e9)), phase,
        )

    def features(self, rate: float, duration_s: float, phase: str) -> List[Request]:
        """Evenly spaced features queries at ``rate`` per second."""
        n = int(round(rate * duration_s))
        return [
            self._new("features", self._feature_target(), phase, i / rate)
            for i in range(n)
        ]

    def burst(self, count: int, phase: str) -> List[Request]:
        """``count`` features queries all due at once (closed loop)."""
        return [
            self._new("features", self._feature_target(), phase, 0.0)
            for _ in range(count)
        ]

    def runtimes(self, rate: float, count: int, first_s: float, phase: str):
        """``count`` runtime queries at ``rate`` per second, cycling the
        runtime targets from a seeded starting point."""
        start = self.rng.randrange(len(self.runtime_targets))
        out = []
        for k in range(count):
            target = self.runtime_targets[(start + k) % len(self.runtime_targets)]
            out.append(self._new("runtime", target, phase, first_s + k / rate))
        return out


def merge(*schedules: Sequence[Request]) -> List[Request]:
    return sorted((r for s in schedules for r in s), key=lambda r: (r.due_ns, r.req_id))


# ----------------------------------------------------------------------
# the step rule


@dataclass
class StepResult:
    rate: float
    latencies_ms: List[float]
    failed: int
    #: from the step's last due time to its last answer (ms)
    drain_ms: float


def max_sustained_rate(
    steps: Sequence[StepResult], *, p99_limit_ms: float, min_samples: int = 1000
) -> float:
    """Highest step rate whose p99 is within the limit, with no failures
    and no growing backlog, where every lower step also qualifies.

    A step whose queue still held more than the latency limit's worth of
    work when its sends ended (``drain_ms`` above the limit) had a growing
    backlog.  A step with fewer than ``min_samples`` latencies cannot
    resolve its p99 and does not qualify.  Returns 0 when no step does.
    """
    from pblib.common import quantile

    best = 0.0
    for step in sorted(steps, key=lambda s: s.rate):
        ok = (
            step.failed == 0
            and len(step.latencies_ms) >= min_samples
            and quantile(step.latencies_ms, 0.99) <= p99_limit_ms
            and step.drain_ms <= p99_limit_ms
        )
        if not ok:
            break
        best = step.rate
    return best


