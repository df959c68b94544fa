"""Fetch/decode/execute core: two tiers over one semantics table.

The interpreter runs guest machine code against a :class:`AddressSpace`,
so every load, store, push, pop and instruction fetch is translated by
the simulated MMU — copy-on-write faults happen exactly where real guest
code would take them.

Execution proceeds until a *VM exit*: a ``syscall`` or ``hlt``
instruction, a page fault the MMU could not resolve, a CPU exception, or
the step budget.  The interpreter returns the :class:`VmExit` record the
VMM layer (:mod:`repro.vmm`) counts and the libOS consumes.

Both tiers instantiate :data:`repro.cpu.semantics.SEMANTICS`:

* The cold tier is one generic handler per opcode, compiled once per
  process and dispatched by opcode.  It single-steps from a block head
  to the end of the block.
* The hot tier starts once a block head has been entered
  :data:`HOT_THRESHOLD` times.  The templates of the already-decoded run
  from the head up to the next instruction of :data:`isa.ENDS_BLOCK`
  are joined into one compiled function, with registers as locals,
  operands folded to constants, and each flag computed only where a
  later reader, the block exit or a possibly-faulting instruction needs
  it.  A block follows a direct ``jmp`` to an already-decoded address it
  does not hold yet, up to :data:`_FOLLOW_LIMIT` instructions.  A block
  whose last jump can return to its own head (a ``jmp``, or either edge
  of a conditional jump) loops in place: its function runs pass after
  pass with registers and flags kept as locals, computes a flag per pass
  only if the next pass or a fault can read it (the others are set once,
  after the loop), and stops at the exit edge or before a pass that would
  not fit the step room it was given.

Exits stay exact.  A block runs only if one pass fits the remaining step
budget; otherwise the cold tier single-steps.  Before an instruction
that can fault, a block stores the registers and flags written so far
and the instruction's address (a looping block whose pass can fault also
stores them at the end of each pass), so a fault leaves registers,
flags, ``rip``, ``steps`` and ``instructions_executed`` as
single-stepping would.

Fetch translates once per decode.  An instruction that lies within one
page is decoded in place from the frame's bytes after one translation
with the EXEC check; one that runs into the next page is fetched whole
after its opcode byte, so a fault on the second page, or #UD for an
undefined opcode before it, is taken exactly as with two fetches.  Each
instruction is decoded once per program, on its first fetch.

Decoded instructions, head entry counts and compiled blocks live in a
:class:`CodeCache` owned by the loaded program.  The loader hands the
program's cache to the address space it builds and every fork of that
space shares it, so the cache survives snapshot restores and serves
every vCPU and every task that runs the program.  It stays valid because
.text is mapped read-execute: guest code cannot modify itself without
taking a protection fault.  Building a block reads only the decode
cache, never guest memory.
"""

from __future__ import annotations

import enum
import re
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.cpu import isa
from repro.cpu.registers import MASK64, RegisterFile
from repro.cpu.semantics import FLAGS, SEMANTICS, Semantics, register_effects, transfers
from repro.mem.addrspace import AddressSpace
from repro.mem.faults import PageFaultError
from repro.mem.layout import PAGE_MASK

#: Cold entries of a block head after which its block is compiled.  One
#: compile costs as much as several hundred cold instructions, so only a
#: block entered this often pays for it: a loop goes hot in its first
#: iterations, while a guest that runs each of its few hundred
#: instructions a handful of times (one crash search) stays cold.
HOT_THRESHOLD = 64
#: A block follows a direct ``jmp`` only while it holds fewer
#: instructions than this, so that a chain of jumps cannot grow one block
#: past the step budgets the engines hand out.
_FOLLOW_LIMIT = 32


class DivideError(Exception):
    """Guest divided by zero (#DE)."""


class InvalidOpcodeError(Exception):
    """Guest executed an undefined opcode byte (#UD)."""

    def __init__(self, rip: int, opcode: int):
        self.rip = rip
        self.opcode = opcode
        super().__init__(f"invalid opcode {opcode:#04x} at {rip:#x}")


class VmExitReason(enum.Enum):
    """Why control returned from the guest to the libOS."""

    SYSCALL = "syscall"
    HLT = "hlt"
    PAGE_FAULT = "page_fault"
    CPU_EXCEPTION = "cpu_exception"
    STEP_LIMIT = "step_limit"


@dataclass
class VmExit:
    """One VM exit event, with its qualification payload."""

    reason: VmExitReason
    steps: int
    #: For PAGE_FAULT / CPU_EXCEPTION: the underlying exception object.
    fault: Optional[Exception] = None


#: The instructions that leave the guest, and the exit each one makes.
_EXIT_OF = {isa.SYSCALL: VmExitReason.SYSCALL, isa.HLT: VmExitReason.HLT}
#: What an instruction that can fault may raise.
_FAULTS = (PageFaultError, DivideError)
#: The step budget of ``run(max_steps=None)``.
_UNLIMITED = sys.maxsize


# ----------------------------------------------------------------------
# Instantiating the semantics table
# ----------------------------------------------------------------------

def _define(params: str, lines: list[str], name: str) -> Callable[..., Any]:
    """Compile one generated function; *name* labels its code object.

    The templates' two constants are spelled as literals, so that
    ``compile()`` folds them into the operands they mask.
    """
    source = f"def f({params}):\n" + "".join(f"    {line}\n" for line in lines)
    source = source.replace("MASK64", f"{MASK64:#x}").replace("SIGN", f"{1 << 63:#x}")
    namespace: dict[str, Any] = {"DivideError": DivideError, "FAULTS": _FAULTS}
    exec(compile(source, name, "exec"), namespace)
    return namespace["f"]


def _statements(sem: Semantics, operands: list[str], names: dict[str, str]) -> list[str]:
    return sem.body.format(*operands, **names).splitlines()


def _cold_handler(op: int) -> Callable[..., int]:
    """The generic handler ``f(d, g, regs, space) -> next rip`` of *op*,
    over a decoded tuple ``d``, the register list ``g`` and the flags in
    ``regs``."""
    sem = SEMANTICS[op]
    layout = isa.OPCODES[op].layout
    nxt = f"d[{len(layout) + 1}]"
    operands = [f"g[d[{k}]]" if kind == "r" else f"d[{k}]"
                for k, kind in enumerate(layout, 1)]
    names = {"sp": "g[4]", "next": nxt, "pc": f"({nxt} - {isa.insn_length(op)})",
             **{flag: f"regs.{flag}" for flag in FLAGS}}
    lines = _statements(sem, operands, names)
    lines += [f"regs.{flag} = {expr}" for flag, expr in sem.writes.items()]
    lines.append("return rip" if transfers(sem.body) else f"return {nxt}")
    return _define("d, g, regs, space", lines, f"<{isa.OPCODES[op].name} {op:#04x}>")


#: opcode -> cold-tier handler, built once per process.
_HANDLERS = {op: _cold_handler(op) for op in SEMANTICS}
#: Register placeholders each template reads and writes.
_REGISTER_EFFECTS = {op: register_effects(sem.body) for op, sem in SEMANTICS.items()}
#: The temporaries (and ``rip``) each template assigns.
_TEMPORARIES = {op: frozenset(re.findall(r"^([a-z]\w*) = ", sem.body, re.MULTILINE))
                for op, sem in SEMANTICS.items()}
#: A name in a flag expression: one of its writer's temporaries.
_NAME = re.compile(r"\b[a-z]\w*")
_ALL_FLAGS = frozenset(FLAGS)


def _constant(value: int) -> str:
    return f"{value:#x}" if value >= 0 else f"({value:#x})"


class Block:
    """One compiled block.  A straight block's ``run(g, regs, space)``
    returns the next rip; a loop's ``run(g, regs, space, room)`` returns
    the next rip and the steps it ran, and marks a fault it raises with
    the passes it completed before it (``fault.passes``)."""

    __slots__ = ("size", "run", "exit", "pcs", "loop")

    def __init__(self, run: Callable[..., Any], pcs: list[int],
                 exit: Optional[VmExitReason], loop: bool):
        #: Instructions in one pass.
        self.size = len(pcs)
        self.run = run
        #: The exit its last instruction makes, if it leaves the guest.
        self.exit = exit
        #: Address of each instruction, in order.
        self.pcs = pcs
        #: Whether its last jump can return to its head.
        self.loop = loop


def _liveness(sems: list[Semantics], live: frozenset[str]
              ) -> tuple[list[frozenset[str]], frozenset[str]]:
    """The flags that can be read after each instruction, given *live*
    after the last, and the flags read before the first."""
    live_after: list[frozenset[str]] = []
    for sem in reversed(sems):
        live_after.append(live)
        live = _ALL_FLAGS if sem.faults else (live - sem.writes.keys()) | sem.reads
    live_after.reverse()
    return live_after, live


def _exit_only_flags(ops: list[int]) -> dict[str, str]:
    """flag -> expression, for each flag a loop pass writes that only the
    loop's exit reads, and that can be computed after the loop from its
    last writer's temporaries (no later instruction reassigns them)."""
    live_after, live_in = _liveness([SEMANTICS[op] for op in ops], frozenset())
    exit_only: dict[str, str] = {}
    written: set[str] = set()
    assigned: set[str] = set()
    for op, live in zip(reversed(ops), reversed(live_after)):
        for flag, expr in SEMANTICS[op].writes.items():
            if flag not in written | live | live_in \
                    and not assigned & set(_NAME.findall(expr)):
                exit_only[flag] = expr
        written |= SEMANTICS[op].writes.keys()
        assigned |= _TEMPORARIES[op]
    return exit_only


def _compile_block(insns: list[tuple[int, tuple[int, ...]]], loop: bool) -> Block:
    """Join the templates of ``(pc, decoded)`` pairs, a straight-line run
    whose direct jumps are followed, into one function; a *loop* block
    runs them pass after pass (see :class:`Block`)."""
    sems = [SEMANTICS[d[0]] for _, d in insns]
    size = len(insns)
    # Every flag can be read at the exit and at an instruction that can
    # fault, but a loop sets the flags only its exit reads after the loop.
    exit_only = _exit_only_flags([d[0] for _, d in insns]) if loop else {}
    live_after, _ = _liveness(sems, _ALL_FLAGS - exit_only.keys())

    entry: list[str] = []    # loads of the registers and flags read first
    lines: list[str] = []
    local_regs: set[int] = set()
    local_flags: set[str] = set()
    dirty: set[int] = set()    # registers written since the last store
    pending: set[str] = set()  # flags computed since the last store

    def store() -> list[str]:
        out = [f"g[{r}] = r{r}" for r in sorted(dirty)]
        out += [f"regs.{flag} = {flag}" for flag in FLAGS if flag in pending]
        dirty.clear()
        pending.clear()
        return out

    for i, ((pc, d), sem, live) in enumerate(zip(insns, sems, live_after)):
        if d[0] == isa.JMP and i < size - 1:
            continue    # followed: the next instruction is its target
        layout = isa.OPCODES[d[0]].layout
        register = {str(k): d[k + 1] for k, kind in enumerate(layout) if kind == "r"}
        register["sp"] = 4
        reads, writes = _REGISTER_EFFECTS[d[0]]
        for r in sorted(register[name] for name in reads if name in register):
            if r not in local_regs:
                entry.append(f"r{r} = g[{r}]")
                local_regs.add(r)
        for flag in sorted(sem.reads - local_flags):
            entry.append(f"{flag} = regs.{flag}")
            local_flags.add(flag)
        if sem.faults:
            lines += store()
            lines.append(f"regs.rip = {pc:#x}")
        operands = [f"r{value}" if kind == "r" else _constant(value)
                    for kind, value in zip(layout, d[1:-1])]
        names = {"sp": "r4", "next": _constant(d[-1]), "pc": _constant(pc),
                 **{flag: flag for flag in FLAGS}}
        lines += _statements(sem, operands, names)
        for name in writes:
            dirty.add(register[name])
            local_regs.add(register[name])
        for flag, expr in sem.writes.items():
            if flag in live:
                lines.append(f"{flag} = {expr}")
                local_flags.add(flag)
                pending.add(flag)
    head = insns[0][0]
    last = insns[-1][1]
    if loop:
        # A pass that can fault stores its writes before it loops back, so
        # the next pass's first fault finds them in place.
        if any(sem.faults for sem in sems):
            lines += store()
        pending.update(exit_only)
        lines = (["try:", f"    for k in range(room // {size}):"]
                 + [f"        {line}" for line in lines]
                 + [f"        if rip != {head:#x}: break",
                    "except FAULTS as fault:", "    fault.passes = k", "    raise"]
                 + [f"{flag} = {expr}" for flag, expr in exit_only.items()]
                 + store() + [f"return rip, (k + 1) * {size}"])
    else:
        lines += store()
        lines.append("return rip" if transfers(sems[-1].body) else f"return {last[-1]:#x}")
    run = _define("g, regs, space, room" if loop else "g, regs, space",
                  entry + lines, f"<block {head:#x}>")
    return Block(run, [pc for pc, _ in insns], _EXIT_OF.get(last[0]), loop)


class CodeCache:
    """Decoded instructions, block-head entry counts and compiled blocks
    of one program's text.

    A pickled or copied cache arrives empty: compiled code stays in the
    process that built it.
    """

    __slots__ = ("decoded", "counts", "blocks")

    def __init__(self) -> None:
        #: rip -> ``isa.decode`` tuple.
        self.decoded: dict[int, tuple[int, ...]] = {}
        #: block head -> cold entries so far.
        self.counts: dict[int, int] = {}
        #: block head -> compiled block.
        self.blocks: dict[int, Block] = {}

    def __reduce__(self) -> tuple[type, tuple[()]]:
        return (CodeCache, ())

    def compile(self, head: int) -> Optional[Block]:
        """Compile the decoded run from *head* to the next block end (or
        to the first instruction not decoded yet), following each direct
        ``jmp`` to a decoded address the block does not hold yet while it
        is shorter than :data:`_FOLLOW_LIMIT`; None if *head* itself was
        never decoded.  The block loops if its last jump can return to
        *head*."""
        decoded = self.decoded
        insns: list[tuple[int, tuple[int, ...]]] = []
        pcs: set[int] = set()
        pc = head
        while (d := decoded.get(pc)) is not None and pc not in pcs:
            insns.append((pc, d))
            pcs.add(pc)
            if d[0] == isa.JMP and len(insns) < _FOLLOW_LIMIT:
                pc = d[1]
            elif d[0] in isa.ENDS_BLOCK:
                break
            else:
                pc = d[-1]
        if not insns:
            return None
        op, *fields = insns[-1][1]
        loop = op == isa.JMP and fields[0] == head \
            or op in isa.CONDITIONAL_JUMPS and head in (fields[0], fields[-1])
        block = self.blocks[head] = _compile_block(insns, loop)
        return block


class Interpreter:
    """Executes guest code over an address space.

    Parameters
    ----------
    space:
        The guest address space (swappable via :meth:`attach_space` when
        the scheduler restores a snapshot).  Its code cache is the
        program's; a space the loader did not build gets its own on
        first attach.
    regs:
        The mutable register file (default: fresh zeroed file).
    """

    def __init__(self, space: AddressSpace, regs: Optional[RegisterFile] = None):
        self.regs = regs if regs is not None else RegisterFile()
        #: Total instructions executed over this interpreter's lifetime.
        self.instructions_executed = 0
        self.attach_space(space)

    def attach_space(self, space: AddressSpace) -> None:
        """Point the CPU at a different address space (snapshot restore)."""
        if space.code is None:
            space.code = CodeCache()
        self.space = space
        self.code: CodeCache = space.code

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------

    def _decode(self, rip: int) -> tuple[int, ...]:
        # One translation, with the EXEC check, serves an instruction that
        # lies within its page: it is decoded in place.
        space = self.space
        try:
            return isa.decode(space.fetch_page(rip), rip, rip & PAGE_MASK)
        except isa.DecodeError as err:
            opcode = err.opcode
            if err.kind != "truncated":
                # An undefined opcode, or a register operand outside
                # r0..r15, is an invalid encoding, not a host error.
                raise InvalidOpcodeError(rip, opcode) from None
        # It runs into the next page.  Fetch it whole: a fault there comes
        # only after its opcode byte proved valid, so an undefined opcode
        # is #UD even when the bytes after it are unmapped.
        try:
            return isa.decode(space.fetch(rip, isa.insn_length(opcode)), rip)
        except isa.DecodeError:
            raise InvalidOpcodeError(rip, opcode) from None

    # ------------------------------------------------------------------
    # Execute
    # ------------------------------------------------------------------

    def step(self) -> VmExit:
        """Execute exactly one instruction (slow path, used in tests)."""
        return self.run(max_steps=1)

    def run(self, max_steps: Optional[int] = None) -> VmExit:
        """Run until syscall/hlt/fault or *max_steps* instructions."""
        regs = self.regs
        g = regs.gprs
        space = self.space
        code = self.code
        blocks = code.blocks
        counts = code.counts
        decoded = code.decoded
        handlers = _HANDLERS
        ends_block = isa.ENDS_BLOCK
        rip = regs.rip
        steps = 0
        budget = _UNLIMITED if max_steps is None else max_steps
        try:
            while True:
                block = blocks.get(rip)
                if block is not None and block.size <= budget - steps:
                    try:
                        if block.loop:
                            rip, ran = block.run(g, regs, space, budget - steps)
                            steps += ran
                            continue
                        rip = block.run(g, regs, space)
                    except _FAULTS as fault:
                        # The block stored the faulting instruction's pc.
                        rip = regs.rip
                        steps += block.pcs.index(rip) + 1
                        if block.loop:
                            steps += fault.passes * block.size
                        raise
                    steps += block.size
                    if block.exit is not None:
                        return VmExit(block.exit, steps)
                    continue
                count = counts[rip] = counts.get(rip, 0) + 1
                if count == HOT_THRESHOLD and block is None \
                        and code.compile(rip) is not None:
                    continue
                # Cold tier: single-step to the end of the block.
                while True:
                    if steps >= budget:
                        return VmExit(VmExitReason.STEP_LIMIT, steps)
                    d = decoded.get(rip)
                    if d is None:
                        d = decoded[rip] = self._decode(rip)
                    steps += 1
                    op = d[0]
                    rip = handlers[op](d, g, regs, space)
                    if op in ends_block:
                        break
                reason = _EXIT_OF.get(op)
                if reason is not None:
                    return VmExit(reason, steps)
        except PageFaultError as fault:
            # rip still points at the faulting instruction.
            return VmExit(VmExitReason.PAGE_FAULT, steps, fault)
        except (DivideError, InvalidOpcodeError) as fault:
            return VmExit(VmExitReason.CPU_EXCEPTION, steps, fault)
        finally:
            regs.rip = rip
            self.instructions_executed += steps
