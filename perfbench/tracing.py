"""In-memory span recording around the simulator's public calls.

A :class:`Tracer` replaces selected methods and module functions with
thin wrappers that record one span per call: name, parent span, start
and end.  Spans are appended to flat arrays (no per-span objects), kept
in memory for the whole run and written out once, at the end, by
:meth:`Tracer.dump`.  Nothing here edits the program: the wrappers are
installed on the live classes in this process only and removed again by
:meth:`Tracer.uninstall`.

A call that re-enters a span of the same name (a base-class
``pick_batch`` delegating to ``pick``, ``advance_all`` looping over
``advance``) is folded into the outer span, so spans of one name never
overlap and their durations add up to host time.  A span's *self time*
is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    """Records spans in flat arrays; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def _recorder(self, name: str, fn):
        """*fn* wrapped so each outermost call records one span."""
        nid = self._name_id(name)
        depth = self._depth
        stack = self._stack
        name_ids, parents = self.name_ids, self.parents
        starts, ends = self.starts, self.ends

        def traced(*args, **kwargs):
            if depth[nid]:
                return fn(*args, **kwargs)
            depth[nid] = 1
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                depth[nid] = 0

        return traced

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span named *name*."""
        nid = self._name_id(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        try:
            yield
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record every call of ``owner.attr`` as a span named *name*.

        *owner* is a class (only a method defined in its own body is
        wrapped, so subclasses are listed explicitly) or a module.
        """
        fn = (owner.__dict__.get(attr) if isinstance(owner, type)
              else getattr(owner, attr, None))
        if fn is None:
            raise AttributeError(f"{owner!r} has no {attr!r} to trace")
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self._recorder(name, fn))

    def uninstall(self) -> None:
        """Put every wrapped callable back, newest first."""
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- reading -------------------------------------------------------
    def totals(self, since: int = 0) -> dict[str, dict[str, float]]:
        """``{name: {"total": s, "self": s, "count": n}}`` per span name,
        over the spans recorded from index *since* on."""
        n = len(self.starts)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"total": 0.0, "self": 0.0, "count": 0}
               for name in self.names}
        for i in range(since, n):
            row = out[self.names[self.name_ids[i]]]
            duration = ends[i] - starts[i]
            row["total"] += duration
            row["self"] += duration - child[i]
            row["count"] += 1
        return out

    def dump(self, path: Path) -> None:
        """Write every span: a JSON header line, then the raw arrays.

        The header names the span names and the array layout; the four
        arrays follow in header order, each ``count`` items long.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.starts),
            "arrays": [["name_id", "i"], ["parent", "i"],
                       ["start_s", "d"], ["end_s", "d"]],
        }
        with path.open("wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts,
                        self.ends):
                arr.tofile(handle)
