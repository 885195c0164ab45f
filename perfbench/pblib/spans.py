"""Span recording (inside a traced program process) and span arithmetic.

A span is one call of a wrapped layer function: its name, start and end
on the system-wide monotonic clock, its own id, the id of the span that
caused it, the process it ran in and the run id.  Spans stay in memory
and are written once per process: by the main process when the program
returns, and by a forked pool worker whenever its outermost span ends
(pool workers leave through ``os._exit``, so no exit hook would run).

Each process writes its own ``spans-<pid>.jsonl`` file; :func:`load_spans`
merges them.  A worker forked while a span was open records that span as
the parent of its own top-level spans, so cross-process nesting survives
the merge.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    span_id: str
    parent_id: Optional[str]
    pid: int
    run_id: str
    #: optional numbers the wrapper measured (counts, returned values)
    attrs: Optional[dict] = None

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "id": self.span_id,
            "parent": self.parent_id,
            "pid": self.pid,
            "run": self.run_id,
        }
        if self.attrs:
            doc["attrs"] = self.attrs
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Span":
        return cls(
            name=doc["name"],
            start_ns=int(doc["start_ns"]),
            end_ns=int(doc["end_ns"]),
            span_id=doc["id"],
            parent_id=doc.get("parent"),
            pid=int(doc["pid"]),
            run_id=doc.get("run", ""),
            attrs=doc.get("attrs"),
        )


class Recorder:
    """Per-process span store with a per-thread stack of open spans."""

    def __init__(self, out_dir: str, run_id: str):
        self.out_dir = Path(out_dir)
        self.run_id = run_id
        self._reset(fork_parent=None)
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self, fork_parent: Optional[str]) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._seq = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fork_parent = fork_parent
        self._is_child = fork_parent is not None

    def _after_fork(self) -> None:
        stack = getattr(self._local, "stack", None)
        self._reset(fork_parent=stack[-1] if stack else "")

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> Tuple[str, Optional[str], int]:
        with self._lock:
            self._seq += 1
            span_id = f"{self.pid}:{self._seq}"
        stack = self._stack()
        parent = stack[-1] if stack else (self._fork_parent or None)
        stack.append(span_id)
        return span_id, parent, time.monotonic_ns()

    def end(self, name: str, token, attrs=None) -> None:
        """Close a span; ``attrs`` is a dict or a callable returning one,
        called after the end time is taken so it adds nothing to it."""
        end_ns = time.monotonic_ns()
        span_id, parent, start_ns = token
        if callable(attrs):
            attrs = attrs()
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self.spans.append(
            Span(name, start_ns, end_ns, span_id, parent, self.pid,
                 self.run_id, attrs or None)
        )
        if self._is_child and not stack:
            self.flush()

    def flush(self) -> None:
        """Append the spans held so far to this process's file."""
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s.to_dict()) + "\n")


def load_spans(out_dir: str) -> List[Span]:
    """Merge every process's span file, ordered by start time."""
    spans: List[Span] = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    spans.append(Span.from_dict(json.loads(line)))
    spans.sort(key=lambda s: (s.start_ns, s.end_ns))
    return spans


def union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_s(spans: List[Span]) -> Dict[str, float]:
    """Self time per span id: duration minus the part its children cover.

    Children are clipped to the parent's interval, and overlapping
    children (pool workers running side by side) count once.
    """
    children: Dict[str, List[Tuple[int, int]]] = {}
    for s in spans:
        if s.parent_id:
            children.setdefault(s.parent_id, []).append((s.start_ns, s.end_ns))
    out: Dict[str, float] = {}
    for s in spans:
        clipped = [
            (max(a, s.start_ns), min(b, s.end_ns))
            for a, b in children.get(s.span_id, ())
            if min(b, s.end_ns) > max(a, s.start_ns)
        ]
        out[s.span_id] = (s.end_ns - s.start_ns - union_ns(clipped)) / 1e9
    return out


def top_level(spans: List[Span]) -> List[Span]:
    """Spans with no recorded parent among the merged spans."""
    ids = {s.span_id for s in spans}
    return [s for s in spans if not s.parent_id or s.parent_id not in ids]
