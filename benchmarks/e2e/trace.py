"""Span recorder for the traced benchmark pass.

The traced pass times calls into the program's *public* functions from the
benchmark's side: :meth:`Tracer.wrap` replaces an attribute of a class,
module or instance with a recording wrapper and :meth:`Tracer.remove` puts
the original object back, so the untraced pass runs the program untouched.
A span is ``[name, start, end, parent, op]``; spans nest per thread, ``op``
is the operation (round, epoch, query batch) the harness had open when the
span began.  Everything stays in memory until :meth:`Tracer.dump`.

Worker processes are not instrumented: a spawned worker re-imports the
program and never sees these wrappers.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Dict, List

#: name of the root span the harness opens around every operation
OP = "op"


class Tracer:
    def __init__(self):
        #: ``[name, start, end, parent, op]`` — ``end`` is ``None`` while open
        self.spans: List[list] = []
        #: per-name work counters kept beside the spans (kernel nnz, states
        #: folded); only calls made inside an operation are counted
        self.counts: Dict[str, int] = {}
        #: id of the operation in progress, -1 outside any (set-up, teardown)
        self.op = -1
        self._ops = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._wrapped: List[tuple] = []
        self._kernels: List[tuple] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        record = [name, 0.0, None, stack[-1] if stack else -1, self.op]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if not stack or stack.pop() != index:
            raise RuntimeError(
                f"span '{self.spans[index][0]}' closed out of order")

    def begin_op(self) -> int:
        """Close the open operation (if any) and open the next root span."""
        self.end_op()
        self.op = self._ops
        self._ops += 1
        return self.begin(OP)

    def end_op(self) -> None:
        stack = self._stack()
        if stack and self.spans[stack[-1]][0] == OP:
            self.end(stack[-1])
        self.op = -1

    # ------------------------------------------------------------------
    # Wrapper install / remove
    # ------------------------------------------------------------------
    def _recording(self, call: Callable, name: str,
                   count: Callable = None) -> Callable:
        @functools.wraps(call)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                return call(*args, **kwargs)
            finally:
                self.end(index)
                if count is not None and self.op >= 0:
                    self.counts[name] = self.counts.get(name, 0) \
                        + count(*args, **kwargs)
        return wrapper

    def wrap(self, owner, attribute: str, name: str,
             count: Callable = None) -> None:
        """Record a span around every call of ``owner.attribute``.

        ``owner`` is a class (plain methods), a module (functions) or an
        instance (bound methods).  ``count(*args, **kwargs)`` optionally
        adds to :attr:`counts` ``[name]`` per call.
        """
        own = vars(owner).get(attribute, _MISSING)
        setattr(owner, attribute,
                self._recording(getattr(owner, attribute), name, count))
        self._wrapped.append((owner, attribute, own))

    def wrap_kernel(self, backend, kernel: str, name: str,
                    count: Callable = None) -> None:
        """Same, through the array backend's own kernel registry."""
        original = backend.kernel(kernel)
        backend.register_kernel(kernel,
                                self._recording(original, name, count))
        self._kernels.append((backend, kernel, original))

    def remove(self) -> None:
        """Restore every wrapped attribute to the exact object it held."""
        while self._wrapped:
            owner, attribute, own = self._wrapped.pop()
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
        while self._kernels:
            backend, kernel, original = self._kernels.pop()
            backend.register_kernel(kernel, original)

    # ------------------------------------------------------------------
    def dump(self, path, **header) -> None:
        """Write the closed spans, times relative to the first start."""
        closed = [span for span in self.spans if span[2] is not None]
        origin = min((span[1] for span in closed), default=0.0)
        names = sorted({span[0] for span in closed})
        code = {name: index for index, name in enumerate(names)}
        # Parents index the unfiltered list; remap onto the closed one.
        position = {id(span): index for index, span in enumerate(closed)}
        rows = []
        for span in closed:
            parent = span[3]
            parent = position.get(id(self.spans[parent]), -1) \
                if parent >= 0 else -1
            rows.append([code[span[0]], round(span[1] - origin, 7),
                         round(span[2] - origin, 7), parent, span[4]])
        payload = dict(header)
        payload.update({
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "names": names, "counts": self.counts, "spans": rows})
        with open(path, "w") as handle:
            json.dump(payload, handle)
            handle.write("\n")


_MISSING = object()
