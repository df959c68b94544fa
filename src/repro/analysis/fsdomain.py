"""File-effect abstract domain over the CFG + interval facts.

A second abstract interpretation layered on
:mod:`repro.analysis.dataflow`: where the interval pass tracks register
values, this pass tracks what the *file layer* would remember — per-fd
inode bindings and per-inode durability state — along all paths,
joining at merge points:

* **dirty blocks**: ``write`` records issued but not yet retired by an
  ``fsync(74)`` of their inode or a global ``sync(162)``;
* **unretired creations**: ``O_CREAT`` opens whose namespace record is
  still volatile;
* **volatile renames**: ``rename(82)`` records, which only a global
  ``sync`` retires (there are no directory fds in this ISA);
* **reaching barriers**: each ``fsync``/``sync`` site is observed with
  what it actually retired, so dead barriers are provable.

All pending sets are *may* information (a record appears if some path
leaves it volatile), which is the sound direction for the FS lints:
a clean verdict means **no** path reaches a crash boundary
(``sys_crash_select`` or ``sys_exit``) with volatile state.  Whenever
the domain loses track of an effect entirely (unknown syscall number,
write through an unresolvable fd, ...) it sets ``tainted`` instead,
and :meth:`FsSummary.fs_clean` refuses to certify.

The writer prefix is additionally re-executed *concretely*
(:func:`predict oplog <analyze_fs>`): when the path from the entry to
the first ``sys_guess`` is straight-line with fully constant file
syscall arguments, the pass predicts the exact operation log the file
layer will accumulate, record for record.  ``analysis/crashprune``
validates that prediction against the dynamic log before using it to
skip crash points.

This module deliberately imports nothing from ``repro.libos`` or
``repro.crashsim`` — it is the static mirror, not a client, of the
file layer; the adapter from a crash plan lives in
``repro.crashsim.model.fs_context_for``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.dataflow import DataflowResult, Interval, _rpo
from repro.core import sysno
from repro.cpu import isa
from repro.cpu.assembler import Program

#: Mirrors ``repro.libos.files.DEFAULT_BLOCK_SIZE`` (pinned by a test;
#: not imported to keep this package ``mypy --strict``-clean).
DEFAULT_BLOCK_SIZE = 4096
#: Mirror of ``repro.libos.files.O_CREAT`` (pinned by a test).
O_CREAT = 64
_O_ACCMODE = 3

_SIGNED_MAX = 1 << 63

#: One file-layer operation record, in the exact tuple shape the
#: dynamic ``FileTable`` logs (``("write", seq, ino, block, off,
#: payload)`` and friends).
Record = tuple[Any, ...]

#: One DNF rule: ``((path, (alt | None, ...)), ...)`` where ``None``
#: stands for "file absent" (the static spelling of model.ABSENT).
FsRule = tuple[tuple[str, tuple[Optional[bytes], ...]], ...]

_MAX_PASSES = 80


@dataclass(frozen=True)
class FsContext:
    """What the analysis may assume about the initial filesystem.

    Without a context (the engine default) the base namespace is
    unknown: opens of pre-existing files are imprecise and the pass
    degrades to taint, but created-file tracking still works.  With a
    plan-derived context the initial inode numbering is pinned exactly
    like ``FileTable`` pins it (sorted path order, starting at 1), and
    ``final_rules`` enables the write-after-commit lint (FS005).
    """

    block_size: int = DEFAULT_BLOCK_SIZE
    base_files: Optional[tuple[tuple[str, bytes], ...]] = None
    final_rules: Optional[tuple[FsRule, ...]] = None


#: The analysis default: nothing known about the host filesystem.
DEFAULT_FS_CONTEXT = FsContext()


@dataclass(frozen=True)
class FsSummary:
    """Facts the FS lint family consumes, plus the predicted oplog."""

    #: False when the domain lost track of a file effect somewhere;
    #: a tainted program can never be certified FS-clean.
    tainted: bool
    #: Crash boundaries observed (``sys_crash_select``/``sys_exit`` pcs
    #: reachable with the writer's pending state).
    boundaries: tuple[int, ...]
    #: Writes volatile at some boundary: ``(write pc, ino, block)``
    #: (block -1 = statically unknown block).
    uncovered_writes: tuple[tuple[int, int, int], ...]
    #: Creations volatile at some boundary: ``(open pc, path)``.
    uncovered_creates: tuple[tuple[int, str], ...]
    #: Renames volatile at some boundary: ``(pc, src, dst)``.
    volatile_renames: tuple[tuple[int, str, str], ...]
    #: fsyncs that retired no data on an inode with boundary-uncovered
    #: writes: ``(fsync pc, ino)`` — the barrier ran too early.
    early_fsyncs: tuple[tuple[int, int], ...]
    #: Torn windows: ``(anchor pc, write pc, blocks)`` — at the write,
    #: >= 2 distinct dirty blocks of one inode are in flight.
    torn_windows: tuple[tuple[int, int, tuple[int, ...]], ...]
    #: Barriers that provably retire nothing: ``(pc, "fsync"|"sync")``.
    dead_barriers: tuple[tuple[int, str], ...]
    #: Fully-durable final image violates every final rule:
    #: ``(anchor write pc, path)``; None when final rules pass or are
    #: unavailable.
    commit_violation: Optional[tuple[int, str]]
    #: ino -> best-known path (for messages).
    ino_paths: dict[int, str] = field(default_factory=dict)
    #: The statically predicted writer oplog (exact ``FileTable``
    #: record shapes), or None when the writer prefix is not
    #: straight-line/constant enough to predict.
    predicted_log: Optional[tuple[Record, ...]] = None

    @property
    def fs_clean(self) -> bool:
        """No FS findings possible and nothing escaped tracking."""
        return (
            not self.tainted
            and not self.uncovered_writes
            and not self.uncovered_creates
            and not self.volatile_renames
            and not self.early_fsyncs
            and not self.torn_windows
            and self.commit_violation is None
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "tainted": self.tainted,
            "fs_clean": self.fs_clean,
            "boundaries": list(self.boundaries),
            "uncovered_writes": [list(t) for t in self.uncovered_writes],
            "uncovered_creates": [list(t) for t in self.uncovered_creates],
            "volatile_renames": [list(t) for t in self.volatile_renames],
            "early_fsyncs": [list(t) for t in self.early_fsyncs],
            "torn_windows": [
                [pc, wpc, list(blocks)]
                for pc, wpc, blocks in self.torn_windows
            ],
            "dead_barriers": [list(t) for t in self.dead_barriers],
            "commit_violation": (
                list(self.commit_violation)
                if self.commit_violation is not None else None
            ),
            "predicted_log_len": (
                len(self.predicted_log)
                if self.predicted_log is not None else None
            ),
        }


# ----------------------------------------------------------------------
# Abstract state
# ----------------------------------------------------------------------


class _FsState:
    """Per-program-point file-layer abstraction."""

    __slots__ = ("next_fd", "next_ino", "ns_known", "ns", "fds",
                 "dirty", "creates", "renames", "fds_exact", "tainted")

    def __init__(
        self,
        next_fd: Optional[int],
        next_ino: Optional[int],
        ns_known: bool,
        ns: dict[str, int],
        fds: dict[int, tuple[Optional[int], Optional[int], bool]],
        dirty: dict[int, frozenset[tuple[int, int]]],
        creates: dict[int, frozenset[int]],
        renames: frozenset[tuple[int, str, str]],
        fds_exact: bool,
        tainted: bool,
    ) -> None:
        self.next_fd = next_fd
        self.next_ino = next_ino
        self.ns_known = ns_known
        self.ns = ns
        #: fd -> (ino | None, position | None, writable).
        self.fds = fds
        #: ino -> {(write pc, block)}; block -1 = unknown.
        self.dirty = dirty
        #: ino -> {open pc of the pending creation}.
        self.creates = creates
        self.renames = renames
        #: True while ``fds`` provably contains every allocated file fd.
        self.fds_exact = fds_exact
        self.tainted = tainted

    @classmethod
    def entry(cls, context: FsContext) -> "_FsState":
        if context.base_files is not None:
            paths = sorted(p for p, _data in context.base_files)
            ns = {p: i + 1 for i, p in enumerate(paths)}
            return cls(3, len(paths) + 1, True, ns, {}, {}, {},
                       frozenset(), True, False)
        return cls(3, None, False, {}, {}, {}, {}, frozenset(), True, False)

    def copy(self) -> "_FsState":
        return _FsState(
            self.next_fd, self.next_ino, self.ns_known, dict(self.ns),
            dict(self.fds), dict(self.dirty), dict(self.creates),
            self.renames, self.fds_exact, self.tainted,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _FsState):
            return NotImplemented
        return (
            self.next_fd == other.next_fd
            and self.next_ino == other.next_ino
            and self.ns_known == other.ns_known
            and self.ns == other.ns
            and self.fds == other.fds
            and self.dirty == other.dirty
            and self.creates == other.creates
            and self.renames == other.renames
            and self.fds_exact == other.fds_exact
            and self.tainted == other.tainted
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as a key
        raise TypeError("_FsState is mutable")


def _join(a: _FsState, b: _FsState) -> _FsState:
    ns_known = a.ns_known and b.ns_known and a.ns == b.ns
    # When both sides track the namespace only best-effort, keep the
    # entries they agree on (created paths survive a merge).
    if ns_known:
        ns = dict(a.ns)
    else:
        ns = {p: i for p, i in a.ns.items() if b.ns.get(p) == i}
    fds: dict[int, tuple[Optional[int], Optional[int], bool]] = {}
    for fd in a.fds.keys() | b.fds.keys():
        ea, eb = a.fds.get(fd), b.fds.get(fd)
        if ea is None or eb is None:
            ent = ea if ea is not None else eb
            assert ent is not None
            fds[fd] = ent
        else:
            fds[fd] = (
                ea[0] if ea[0] == eb[0] else None,
                ea[1] if ea[1] == eb[1] else None,
                ea[2] or eb[2],
            )
    dirty: dict[int, frozenset[tuple[int, int]]] = dict(a.dirty)
    for ino, entries in b.dirty.items():
        dirty[ino] = dirty.get(ino, frozenset()) | entries
    creates: dict[int, frozenset[int]] = dict(a.creates)
    for ino, pcs in b.creates.items():
        creates[ino] = creates.get(ino, frozenset()) | pcs
    return _FsState(
        a.next_fd if a.next_fd == b.next_fd else None,
        a.next_ino if a.next_ino == b.next_ino else None,
        ns_known, ns, fds, dirty, creates,
        a.renames | b.renames,
        a.fds_exact and b.fds_exact,
        a.tainted or b.tainted,
    )


# ----------------------------------------------------------------------
# Facts recorder
# ----------------------------------------------------------------------


@dataclass
class _FsFacts:
    boundaries: set[int] = field(default_factory=set)
    uncovered_writes: set[tuple[int, int, int]] = field(default_factory=set)
    uncovered_creates: set[tuple[int, str]] = field(default_factory=set)
    volatile_renames: set[tuple[int, str, str]] = field(default_factory=set)
    #: fsync pc -> (ino, retired any data, retired any create).
    fsyncs: dict[int, tuple[int, bool, bool]] = field(default_factory=dict)
    #: sync pc -> retired anything.
    syncs: dict[int, bool] = field(default_factory=dict)
    #: torn anchor pc -> (write pc, blocks in flight).
    torn: dict[int, tuple[int, tuple[int, ...]]] = field(default_factory=dict)


def _const(iv: Interval) -> Optional[int]:
    return iv[0] if iv[0] == iv[1] else None


class _FsAnalysis:
    """One FS-domain run over a program's dataflow result."""

    def __init__(self, program: Program, df: DataflowResult,
                 context: FsContext) -> None:
        self.program = program
        self.df = df
        self.cfg: ControlFlowGraph = df.cfg
        self.context = context
        self.ino_paths: dict[int, str] = {}

    # -- helpers -------------------------------------------------------

    def _cstring(self, addr: Optional[int]) -> Optional[str]:
        if addr is None:
            return None
        data = self.program.data
        off = addr - self.program.data_base
        if off < 0 or off >= len(data):
            return None
        end = data.find(0, off)
        if end < 0:
            return None
        try:
            return data[off:end].decode("ascii")
        except UnicodeDecodeError:
            return None

    def _bind_path(self, ino: int, path: str) -> None:
        self.ino_paths.setdefault(ino, path)

    # -- transfer ------------------------------------------------------

    def _transfer_block(
        self, block_start: int, state: _FsState,
        facts: Optional[_FsFacts],
    ) -> _FsState:
        out = state.copy()
        for insn in self.cfg.blocks[block_start].insns:
            if insn.opcode != isa.SYSCALL:
                continue
            fact = self.df.syscalls.get(insn.pc)
            if fact is None:
                continue
            self._syscall(out, insn.pc, fact.number,
                          _const(fact.rdi), _const(fact.rsi),
                          _const(fact.rdx), facts)
        return out

    def _syscall(
        self, st: _FsState, pc: int, num: Optional[int],
        rdi: Optional[int], rsi: Optional[int], rdx: Optional[int],
        facts: Optional[_FsFacts],
    ) -> None:
        if num is None:
            st.tainted = True
            return
        if num == sysno.SYS_OPEN:
            self._op_open(st, pc, rdi, rsi)
        elif num == sysno.SYS_LSEEK:
            self._op_lseek(st, rdi, rsi, rdx)
        elif num == sysno.SYS_WRITE:
            self._op_write(st, pc, rdi, rdx, facts)
        elif num == sysno.SYS_FSYNC:
            self._op_fsync(st, pc, rdi, facts)
        elif num == sysno.SYS_SYNC:
            if facts is not None:
                facts.syncs[pc] = bool(st.dirty or st.creates or st.renames)
            st.dirty = {}
            st.creates = {}
            st.renames = frozenset()
        elif num == sysno.SYS_RENAME:
            self._op_rename(st, pc, rdi, rsi)
        elif num == sysno.SYS_CLOSE:
            if rdi is not None:
                st.fds.pop(rdi, None)
        elif num in (sysno.SYS_CRASH_SELECT, sysno.SYS_EXIT):
            # A crash boundary: whatever is volatile here can be lost.
            if facts is not None:
                self._observe_boundary(st, pc, facts)
        elif num == sysno.SYS_CRASH_COMMIT:
            # The table rebases onto the chosen crashed image: nothing
            # is pending any more, every fd is gone, and the surviving
            # namespace depends on the crash choices.
            st.dirty = {}
            st.creates = {}
            st.renames = frozenset()
            st.fds = {}
            st.ns_known = False
            st.ns = {}
        # Everything else (read, guess family, mmap, ...) has no file
        # effect the durability domain needs to model.

    def _op_open(self, st: _FsState, pc: int,
                 rdi: Optional[int], rsi: Optional[int]) -> None:
        path = self._cstring(rdi)
        flags = rsi
        if path is None or flags is None:
            st.tainted = True
            st.next_fd = None
            st.fds_exact = False
            return
        writable = (flags & _O_ACCMODE) != 0
        known_exists = path in st.ns
        if not known_exists and not (flags & O_CREAT):
            if st.ns_known:
                return  # deterministic -ENOENT: no fd consumed
            # Existence unknown: the fd allocation becomes uncertain.
            st.next_fd = None
            st.fds_exact = False
            return
        if known_exists:
            ino = st.ns[path]
        else:
            if st.ns_known and st.next_ino is not None:
                ino = st.next_ino
                st.next_ino += 1
            else:
                # Synthetic inode, unique per open site (constant path
                # per site, so all dynamic instances share it).
                ino = -(pc + 1)
            st.ns[path] = ino
            st.creates[ino] = st.creates.get(ino, frozenset()) | {pc}
        self._bind_path(ino, path)
        if st.next_fd is None:
            # We know a file was opened but not which fd number holds
            # it: subsequent writes by constant fd are untrackable.
            st.fds_exact = False
            st.tainted = True
            return
        fd = st.next_fd
        st.next_fd += 1
        st.fds[fd] = (ino, 0, writable)

    def _op_lseek(self, st: _FsState, rdi: Optional[int],
                  rsi: Optional[int], rdx: Optional[int]) -> None:
        if rdi is None:
            # Could move any tracked position.
            st.fds = {fd: (ino, None, w) for fd, (ino, _p, w) in
                      st.fds.items()}
            return
        ent = st.fds.get(rdi)
        if ent is None:
            return
        ino, _pos, writable = ent
        if rdx == 0 and rsi is not None and rsi < _SIGNED_MAX:
            st.fds[rdi] = (ino, rsi, writable)
        else:
            st.fds[rdi] = (ino, None, writable)

    def _op_write(self, st: _FsState, pc: int, rdi: Optional[int],
                  rdx: Optional[int], facts: Optional[_FsFacts]) -> None:
        if rdi is None:
            if st.fds or not st.fds_exact:
                st.tainted = True
            for _fd, (ino, _pos, w) in st.fds.items():
                if w and ino is not None:
                    st.dirty[ino] = st.dirty.get(ino, frozenset()) | {(pc, -1)}
            return
        if rdi in (0, 1, 2):
            return  # console fds are never file-layer fds
        ent = st.fds.get(rdi)
        if ent is None:
            if not st.fds_exact:
                st.tainted = True  # may be a file fd we failed to bind
            return  # else provably -EBADF: no record
        ino, pos, writable = ent
        if not writable:
            return  # -EACCES: no record
        if rdx == 0:
            return  # empty write logs nothing
        if ino is None:
            st.tainted = True
            return
        if pos is None or rdx is None or pos >= _SIGNED_MAX:
            st.tainted = True
            st.dirty[ino] = st.dirty.get(ino, frozenset()) | {(pc, -1)}
            st.fds[rdi] = (ino, None, writable)
            return
        bs = self.context.block_size
        blocks = frozenset(range(pos // bs, (pos + rdx - 1) // bs + 1))
        prev = st.dirty.get(ino, frozenset())
        if facts is not None:
            in_flight = {b for _p, b in prev} | set(blocks)
            if len(in_flight) >= 2:
                outside = [p for p, b in prev if b not in blocks]
                anchor = min(outside) if outside else pc
                facts.torn.setdefault(
                    anchor, (pc, tuple(sorted(in_flight)))
                )
        st.dirty[ino] = prev | {(pc, b) for b in blocks}
        st.fds[rdi] = (ino, pos + rdx, writable)

    def _op_fsync(self, st: _FsState, pc: int, rdi: Optional[int],
                  facts: Optional[_FsFacts]) -> None:
        ent = st.fds.get(rdi) if rdi is not None else None
        if ent is None:
            # Unknown or bad fd: retiring nothing over-approximates
            # the pending sets, which is the sound direction.
            return
        ino = ent[0]
        if ino is None:
            return
        had_data = bool(st.dirty.get(ino))
        had_create = bool(st.creates.get(ino))
        if facts is not None:
            facts.fsyncs[pc] = (ino, had_data, had_create)
        st.dirty.pop(ino, None)
        st.creates.pop(ino, None)

    def _op_rename(self, st: _FsState, pc: int,
                   rdi: Optional[int], rsi: Optional[int]) -> None:
        src = self._cstring(rdi)
        dst = self._cstring(rsi)
        if src is None or dst is None:
            st.tainted = True
            st.ns_known = False
            st.ns = {}
            return
        if src in st.ns:
            ino = st.ns.pop(src)
            st.ns[dst] = ino
            self._bind_path(ino, dst)
            st.renames = st.renames | {(pc, src, dst)}
        elif not st.ns_known:
            # May succeed against an unknown base namespace.
            st.renames = st.renames | {(pc, src, dst)}
            st.ns.pop(dst, None)
        # else: deterministic -ENOENT, no record.

    def _observe_boundary(self, st: _FsState, pc: int,
                          facts: _FsFacts) -> None:
        facts.boundaries.add(pc)
        for ino, entries in st.dirty.items():
            for wpc, block in entries:
                facts.uncovered_writes.add((wpc, ino, block))
        for ino, pcs in st.creates.items():
            path = self.ino_paths.get(ino, "?")
            for cpc in pcs:
                facts.uncovered_creates.add((cpc, path))
        facts.volatile_renames |= st.renames

    # -- fixpoint ------------------------------------------------------

    def run(self) -> tuple[_FsFacts, dict[int, _FsState], bool]:
        cfg = self.cfg
        order = _rpo(cfg)
        feasible = set(self.df.block_in)
        block_in: dict[int, _FsState] = {}
        converged = False
        if order:
            block_in[order[0]] = _FsState.entry(self.context)
        for _ in range(_MAX_PASSES):
            changed = False
            for block in order:
                state = block_in.get(block)
                if state is None or block not in feasible:
                    continue
                out = self._transfer_block(block, state, None)
                for succ in self._successors(block):
                    if succ not in feasible:
                        continue
                    old = block_in.get(succ)
                    if old is None:
                        block_in[succ] = out.copy()
                        changed = True
                    else:
                        joined = _join(old, out)
                        if joined != old:
                            block_in[succ] = joined
                            changed = True
            if not changed:
                converged = True
                break
        facts = _FsFacts()
        for block in order:
            state = block_in.get(block)
            if state is None or block not in feasible:
                continue
            self._transfer_block(block, state, facts)
        return facts, block_in, converged

    def _successors(self, block_start: int) -> list[int]:
        block = self.cfg.blocks[block_start]
        term = block.terminator
        if term.opcode == isa.SYSCALL and term.pc in self.df.noreturn:
            return []
        return [succ for _kind, succ in block.edges]


# ----------------------------------------------------------------------
# Concrete linear-trace oplog prediction
# ----------------------------------------------------------------------

_TRACE_INERT = frozenset({
    sysno.SYS_BRK, sysno.SYS_MMAP, sysno.SYS_MUNMAP,
    sysno.SYS_TIME, sysno.SYS_GETRANDOM, sysno.SYS_GUESS_STRATEGY,
})


def _linear_trace(
    program: Program, df: DataflowResult, context: FsContext
) -> Optional[list[tuple[int, Record]]]:
    """Predict the writer-phase oplog by concrete re-execution.

    Follows the unique path from the entry to the first ``sys_guess``,
    stepping a miniature file-table that emits records in the exact
    shapes the dynamic layer logs.  Returns None the moment anything is
    not statically exact — a conditional branch, a loop, a non-constant
    argument, an op this mirror does not model.  Callers treat None as
    "no prediction", never as an error.
    """
    if context.base_files is None:
        return None
    cfg = df.cfg
    if cfg.entry not in cfg.block_of or cfg.entry != cfg.block_of[cfg.entry]:
        return None
    bs = context.block_size
    ns = {p: i + 1
          for i, p in enumerate(sorted(p for p, _d in context.base_files))}
    next_ino = len(ns) + 1
    next_fd = 3
    fds: dict[int, list[int]] = {}  # fd -> [ino, pos, writable]
    seq = 0
    out: list[tuple[int, Record]] = []

    def cstr(addr: Optional[int]) -> Optional[str]:
        if addr is None:
            return None
        off = addr - program.data_base
        if off < 0 or off >= len(program.data):
            return None
        end = program.data.find(0, off)
        if end < 0:
            return None
        try:
            return program.data[off:end].decode("ascii")
        except UnicodeDecodeError:
            return None

    block = cfg.entry
    visited: set[int] = set()
    while True:
        if block in visited:
            return None
        visited.add(block)
        for insn in cfg.blocks[block].insns:
            if insn.opcode != isa.SYSCALL:
                continue
            fact = df.syscalls.get(insn.pc)
            if fact is None or fact.number is None:
                return None
            num = fact.number
            rdi = _const(fact.rdi)
            rsi = _const(fact.rsi)
            rdx = _const(fact.rdx)
            if num in (sysno.SYS_GUESS, sysno.SYS_GUESS_HINT):
                return out  # the writer prefix ends here
            if num in _TRACE_INERT:
                continue
            if num == sysno.SYS_OPEN:
                path = cstr(rdi)
                if path is None or rsi is None:
                    return None
                if path in ns:
                    ino = ns[path]
                elif rsi & O_CREAT:
                    ino = next_ino
                    next_ino += 1
                    ns[path] = ino
                    out.append((insn.pc, ("create", seq, path, ino)))
                    seq += 1
                else:
                    continue  # -ENOENT: no fd, no record
                fds[next_fd] = [ino, 0, int((rsi & _O_ACCMODE) != 0)]
                next_fd += 1
            elif num == sysno.SYS_LSEEK:
                if rdi is None or rsi is None or rdx != 0 \
                        or rsi >= _SIGNED_MAX:
                    return None
                if rdi in fds:
                    fds[rdi][1] = rsi
            elif num == sysno.SYS_WRITE:
                if rdi is None or rdx is None:
                    return None
                if rdi in (0, 1, 2):
                    continue
                ent = fds.get(rdi)
                if ent is None or rdx == 0:
                    continue
                if not ent[2]:
                    continue  # -EACCES
                if rsi is None:
                    return None
                start = rsi - program.data_base
                if start < 0 or start + rdx > len(program.data):
                    return None
                payload = program.data[start:start + rdx]
                ino, pos = ent[0], ent[1]
                off = 0
                while off < len(payload):
                    blockno, boff = divmod(pos + off, bs)
                    chunk = payload[off:off + bs - boff]
                    out.append(
                        (insn.pc, ("write", seq, ino, blockno, boff, chunk))
                    )
                    seq += 1
                    off += len(chunk)
                ent[1] = pos + len(payload)
            elif num == sysno.SYS_FSYNC:
                if rdi is None:
                    return None
                ent = fds.get(rdi)
                if ent is not None:
                    out.append((insn.pc, ("fsync", seq, ent[0])))
                    seq += 1
            elif num == sysno.SYS_SYNC:
                out.append((insn.pc, ("sync", seq)))
                seq += 1
            elif num == sysno.SYS_RENAME:
                src, dst = cstr(rdi), cstr(rsi)
                if src is None or dst is None:
                    return None
                if src in ns:
                    ino = ns.pop(src)
                    ns[dst] = ino
                    out.append((insn.pc, ("rename", seq, src, dst, ino)))
                    seq += 1
            elif num == sysno.SYS_CLOSE:
                if rdi is None:
                    return None
                fds.pop(rdi, None)
            elif num == sysno.SYS_READ:
                if rdi is None or (rdi in fds):
                    return None  # file reads move positions we track
            else:
                return None  # exit/crash/unknown before any guess
        term = cfg.blocks[block].terminator
        if term.opcode in isa.CONDITIONAL_JUMPS:
            return None
        succs = {succ for _k, succ in cfg.blocks[block].edges}
        if len(succs) != 1:
            return None
        block = succs.pop()


def _final_image(
    trace: list[tuple[int, Record]], context: FsContext
) -> tuple[dict[str, bytes], dict[int, int]]:
    """Apply every predicted record: the image when nothing is lost.

    Returns ``(path -> contents, ino -> pc of last write)``.
    """
    assert context.base_files is not None
    ns = {p: i + 1
          for i, p in enumerate(sorted(p for p, _d in context.base_files))}
    data: dict[int, bytearray] = {
        ns[p]: bytearray(d) for p, d in context.base_files
    }
    bs = context.block_size
    for _pc, rec in trace:
        kind = rec[0]
        if kind == "write":
            _, _seq, ino, blockno, boff, payload = rec
            buf = data.setdefault(ino, bytearray())
            start = blockno * bs + boff
            end = start + len(payload)
            if end > len(buf):
                buf.extend(bytes(end - len(buf)))
            buf[start:end] = payload
        elif kind == "create":
            ns[rec[2]] = rec[3]
            data.setdefault(rec[3], bytearray())
        elif kind == "rename":
            ns.pop(rec[2], None)
            ns[rec[3]] = rec[4]
    image = {path: bytes(data.get(ino, b"")) for path, ino in ns.items()}
    return image, {}


def _matches_rules(image: dict[str, bytes],
                   rules: tuple[FsRule, ...]) -> bool:
    for rule in rules:
        for path, alts in rule:
            present = path in image
            ok = False
            for alt in alts:
                if alt is None:
                    ok = ok or not present
                else:
                    ok = ok or (present and image[path] == alt)
            if not ok:
                break
        else:
            return True
    return False


def _commit_violation(
    trace: list[tuple[int, Record]], context: FsContext
) -> Optional[tuple[int, str]]:
    """FS005: the fully-durable final image fails every final rule.

    Anchors the finding at the last write whose payload conflicts with
    every byte alternative for its file across all final rules (the
    write that *committed* the bad state), falling back to the last
    write, then the last record.
    """
    rules = context.final_rules
    if rules is None or context.base_files is None:
        return None
    image, _ = _final_image(trace, context)
    if _matches_rules(image, rules):
        return None
    # Final namespace: ino -> path.
    ns = {p: i + 1
          for i, p in enumerate(sorted(p for p, _d in context.base_files))}
    for _pc, rec in trace:
        if rec[0] == "create":
            ns[rec[2]] = rec[3]
        elif rec[0] == "rename":
            ns.pop(rec[2], None)
            ns[rec[3]] = rec[4]
    path_of = {ino: path for path, ino in ns.items()}
    bs = context.block_size
    writes = [(pc, rec) for pc, rec in trace if rec[0] == "write"]
    for pc, rec in reversed(writes):
        _, _seq, ino, blockno, boff, payload = rec
        path = path_of.get(ino)
        if path is None:
            continue
        alts = [alt for rule in rules for p, aa in rule if p == path
                for alt in aa if alt is not None]
        if not alts:
            continue
        start = blockno * bs + boff
        end = start + len(payload)
        if all(alt[start:end] != payload or len(alt) < end for alt in alts):
            return (pc, path)
    if writes:
        return (writes[-1][0], path_of.get(writes[-1][1][2], "?"))
    if trace:
        return (trace[-1][0], "?")
    return None


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def analyze_fs(program: Program, df: DataflowResult,
               context: FsContext) -> FsSummary:
    """Run the file-effect domain and package the lint facts."""
    analysis = _FsAnalysis(program, df, context)
    facts, _block_in, converged = analysis.run()
    tainted = not converged
    for state in _block_in.values():
        if state.tainted:
            tainted = True
            break

    uncovered_inos = {ino for _pc, ino, _b in facts.uncovered_writes}
    early = tuple(sorted(
        (pc, ino) for pc, (ino, had_data, _hc) in facts.fsyncs.items()
        if not had_data and ino in uncovered_inos
    ))
    dead: list[tuple[int, str]] = []
    early_pcs = {pc for pc, _ino in early}
    for pc, (_ino, had_data, had_create) in facts.fsyncs.items():
        if not had_data and not had_create and pc not in early_pcs:
            dead.append((pc, "fsync"))
    for pc, had_any in facts.syncs.items():
        if not had_any:
            dead.append((pc, "sync"))

    trace = _linear_trace(program, df, context)
    predicted: Optional[tuple[Record, ...]] = None
    violation: Optional[tuple[int, str]] = None
    if trace is not None:
        predicted = tuple(rec for _pc, rec in trace)
        violation = _commit_violation(trace, context)

    return FsSummary(
        tainted=tainted,
        boundaries=tuple(sorted(facts.boundaries)),
        uncovered_writes=tuple(sorted(facts.uncovered_writes)),
        uncovered_creates=tuple(sorted(facts.uncovered_creates)),
        volatile_renames=tuple(sorted(facts.volatile_renames)),
        early_fsyncs=early,
        torn_windows=tuple(
            (anchor, wpc, blocks)
            for anchor, (wpc, blocks) in sorted(facts.torn.items())
        ),
        dead_barriers=tuple(sorted(dead)),
        commit_violation=violation,
        ino_paths=dict(analysis.ino_paths),
        predicted_log=predicted,
    )
