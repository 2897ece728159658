"""In-memory spans around calls into the majorize modules.

The benchmark rebinds the names through which one module calls another
(``majorize.cli.decompose_general``, ``Array.__post_init__`` and so on) to
wrappers that record one span per call, and restores every name when the
traced pass ends.  A span holds its name, start, end, parent span and
request; one request is one ``cli.main`` call.  Spans stay in memory until the
run ends, so tracing adds no I/O to the measured calls.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Optional

ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.kinds: list[str] = []  # request kind by request id
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_end)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_request.append(len(self.kinds) - 1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    @property
    def kind(self) -> Optional[str]:
        return self.kinds[-1] if self.kinds else None

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    @contextmanager
    def request(self, kind: str):
        """Root span of one CLI command; ``kind`` labels every span inside it."""
        self.kinds.append(kind)
        idx = self._open(self._id(ROOT_SPAN))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe: Optional[Callable] = None) -> None:
        """Trace calls made through ``owner.attr`` (a module global or a class attribute)."""
        raw = vars(owner).get(attr)
        if raw is None:
            print(f"bench: cannot trace {getattr(owner, '__name__', owner)}.{attr}: not found",
                  file=sys.stderr)
            return
        if isinstance(raw, classmethod):
            traced = classmethod(self._wrap(name, raw.__func__, observe))
        else:
            traced = self._wrap(name, raw, observe)
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def self_times(self) -> dict[tuple[str, str], list]:
        """(span name, request kind) -> [self seconds, calls].

        Self time is a span's duration minus the durations of its direct
        children, so self times add up to the traced wall time.
        """
        n = len(self.span_end)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: dict[tuple[str, str], list] = {}
        for i in range(n):
            req = self.span_request[i]
            key = (self.names[self.span_name[i]], self.kinds[req] if req >= 0 else "")
            rec = out.get(key)
            if rec is None:
                rec = out[key] = [0.0, 0]
            rec[0] += self.span_end[i] - self.span_start[i] - child[i]
            rec[1] += 1
        return out

    def write(self, path) -> int:
        """Write every span as gzipped CSV, times in seconds from the first span."""
        n = len(self.span_end)
        t0 = self.span_start[0] if n else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,request,kind\n")
            for i in range(n):
                req = self.span_request[i]
                kind = self.kinds[req] if req >= 0 else ""
                fh.write(f"{i},{self.names[self.span_name[i]]},{self.span_start[i] - t0:.9f},"
                         f"{self.span_end[i] - t0:.9f},{self.span_parent[i]},{req},{kind}\n")
        return n
