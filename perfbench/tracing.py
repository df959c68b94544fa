"""Outside-in span tracing for the benchmark's traced runs.

The program itself is not edited: :func:`instrument` swaps the public
entry point of each layer (``VCpu.enter``, ``SnapshotManager.restore``,
``assemble``, ...) for a wrapper that records one span per call, and
:func:`SpanTracer.restore` puts the originals back.  A span is four
integers kept in flat arrays -- its kind, the index of the span that was
open when it started (its parent), and ``perf_counter_ns`` start and end
-- so recording allocates no objects per call.  Spans stay in memory
until :meth:`SpanTracer.summarize` folds them into per-kind call counts
and self times (a span's duration minus its children's durations).

Forked worker processes inherit the wrappers; they turn themselves off
in the child, so only the coordinator's calls are recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from dataclasses import dataclass, field
from types import SimpleNamespace

#: The root span of one benchmark repetition.  Its self time is the
#: residual no wrapped layer claims: the engine's own bookkeeping.
ROOT = "bench.rep"

#: Layer entry points: (layer, function, "module:Class.method" or
#: "module:function").  ``search`` methods are wrapped on every concrete
#: strategy class; module-level functions are swapped in every ``repro``
#: module that imported them by name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("cpu", "enter", "repro.vmm.vcpu:VCpu.enter"),
    ("mem", "fork_cow", "repro.mem.addrspace:AddressSpace.fork_cow"),
    ("mem", "free", "repro.mem.addrspace:AddressSpace.free"),
    ("snapshot", "take", "repro.snapshot.snapshot:SnapshotManager.take"),
    ("snapshot", "restore", "repro.snapshot.snapshot:SnapshotManager.restore"),
    ("snapshot", "discard", "repro.snapshot.snapshot:SnapshotManager.discard"),
    ("snapshot", "pin", "repro.snapshot.tree:SnapshotTree.pin"),
    ("snapshot", "unpin", "repro.snapshot.tree:SnapshotTree.unpin"),
    ("libos", "handle_exit", "repro.libos.libos:LibOS.handle_exit"),
    ("libos", "load", "repro.libos.libos:LibOS.load"),
    ("libos", "files.fork_cow", "repro.libos.files:FileTable.fork_cow"),
    ("libos", "files.free", "repro.libos.files:FileTable.free"),
    ("search", "add", "repro.search.strategy:Strategy.add"),
    ("search", "next", "repro.search.strategy:Strategy.next"),
    ("cpu.assembler", "assemble", "repro.cpu.assembler:assemble"),
    ("crashsim", "simulate", "repro.crashsim.model:simulate"),
    ("crashsim", "crash_asm", "repro.crashsim.harness:crash_asm"),
    ("crashsim", "decode_survivor", "repro.crashsim.report:decode_survivor"),
    ("core.transport", "spawn", "repro.core.transport:PipeTransport.spawn"),
    ("core.transport", "poll", "repro.core.transport:PipeTransport.poll"),
    ("core.transport", "close", "repro.core.transport:PipeTransport.close"),
    ("core.transport", "send", "repro.core.transport:PipeEndpoint.send"),
)

#: The coordinator's wait for worker messages inside ``PipeTransport.poll``
#: (``multiprocessing.connection.wait``), kept apart from transport work.
WAIT = "core.transport.wait:wait"


@dataclass
class Summary:
    """Spans of one or more repetitions folded per kind."""

    calls: dict[str, int] = field(default_factory=dict)
    self_ns: dict[str, int] = field(default_factory=dict)
    #: Summed duration of the root spans (the traced wall time).
    root_ns: int = 0
    spans: int = 0
    #: Nesting violations found (empty when the trace is well formed).
    errors: list[str] = field(default_factory=list)

    def add(self, other: "Summary") -> None:
        for kind, n in other.calls.items():
            self.calls[kind] = self.calls.get(kind, 0) + n
        for kind, ns in other.self_ns.items():
            self.self_ns[kind] = self.self_ns.get(kind, 0) + ns
        self.root_ns += other.root_ns
        self.spans += other.spans
        self.errors.extend(other.errors)


class SpanTracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kinds = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self.active = False
        self._undo: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.active = False

    def kind(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self) -> None:
        # In place: the wrappers hold these very arrays.
        del self.kinds[:], self.parents[:], self.starts[:], self.ends[:]
        del self._stack[1:]

    # -- recording -----------------------------------------------------

    def wrap(self, name: str, fn):
        kind = self.kind(name)
        kinds, parents, starts, ends = self.kinds, self.parents, self.starts, self.ends
        stack = self._stack
        now = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            kinds.append(kind)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()

        return traced

    def run_root(self, fn, *args):
        """Call ``fn(*args)`` inside a :data:`ROOT` span, recording on."""
        self.active = True
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            self.active = False

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, name: str) -> None:
        original = vars(owner)[attr]  # only what *owner* itself defines
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def instrument(self) -> None:
        """Wrap every entry point in :data:`TARGETS`."""
        for layer, fn_name, spec in TARGETS:
            name = f"{layer}:{fn_name}"
            module_name, _, qual = spec.partition(":")
            module = importlib.import_module(module_name)
            if "." not in qual:
                original = getattr(module, qual)
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("repro")
                            and getattr(mod, qual, None) is original):
                        self._patch(mod, qual, name)
                continue
            cls_name, attr = qual.split(".")
            cls = getattr(module, cls_name)
            if cls_name == "Strategy":
                # Every override in the hierarchy; an override calling
                # super() nests a same-layer span, which self time absorbs.
                for owner in _class_tree(cls):
                    if attr in vars(owner):
                        self._patch(owner, attr, name)
            else:
                self._patch(cls, attr, name)
        transport = importlib.import_module("repro.core.transport")
        self._undo.append((transport, "mp_connection", transport.mp_connection))
        transport.mp_connection = SimpleNamespace(
            wait=self.wrap(WAIT, transport.mp_connection.wait))

    def restore(self) -> None:
        """Put every original entry point back."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- folding -------------------------------------------------------

    def summarize(self) -> Summary:
        """Fold the recorded spans into per-kind calls and self times,
        checking that every span is closed, lies inside its parent and
        starts after its previous sibling ended."""
        kinds, parents, starts, ends = self.kinds, self.parents, self.starts, self.ends
        n = len(starts)
        child_ns = [0] * n
        last_end: dict[int, int] = {}
        errors: list[str] = []
        root_ns = 0
        for i in range(n):
            start, end, parent = starts[i], ends[i], parents[i]
            if end < start or end == 0:
                errors.append(f"span {i} ({self.names[kinds[i]]}) never closed")
                continue
            if parent < 0:
                root_ns += end - start
            else:
                if start < starts[parent] or end > ends[parent]:
                    errors.append(f"span {i} ({self.names[kinds[i]]}) "
                                  f"outside its parent {parent}")
                child_ns[parent] += end - start
            if start < last_end.get(parent, start):
                errors.append(f"span {i} ({self.names[kinds[i]]}) overlaps "
                              "its previous sibling")
            last_end[parent] = end
        out = Summary(root_ns=root_ns, spans=n, errors=errors[:10])
        calls, self_ns, names = out.calls, out.self_ns, self.names
        for i in range(n):
            name = names[kinds[i]]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (ends[i] - starts[i]) - child_ns[i]
        return out

    def dump(self, path: str) -> None:
        """Write the recorded spans as a JSON header line followed by the
        four int64/int32 arrays (kinds, parents, starts, ends)."""
        header = {"names": self.names, "spans": len(self.starts),
                  "layout": ["kinds:i32", "parents:i64", "starts_ns:i64",
                             "ends_ns:i64"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.kinds, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def _class_tree(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        sub = todo.pop()
        out.append(sub)
        todo.extend(sub.__subclasses__())
    return out
