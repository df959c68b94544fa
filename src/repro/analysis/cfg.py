"""Control-flow graph construction over the shared ISA decode table.

Decoding starts from the entry point and every ``.text`` symbol and
proceeds by recursive descent through :func:`repro.cpu.isa.decode` — the
same decoder the interpreter and the symbolic executor use, so the static
decoder cannot drift from the dynamic one.

Conservatism notes:

* the ISA has no indirect jumps; the only indirect transfer is ``ret``,
  which is given an edge to the instruction after *every* ``call`` site
  (context-insensitive but sound);
* ``syscall`` falls through by default; the analysis pipeline later
  classifies sites (via constant propagation of ``rax``) and prunes the
  fall-through edge of non-returning calls (``exit``, ``guess_fail``),
  which callers express through the *noreturn* argument of
  :meth:`ControlFlowGraph.successors`;
* bytes never reached by decode are reported as coverage, not errors —
  data interleaved in ``.text`` is legal as long as control flow never
  enters it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu import isa
from repro.cpu.assembler import Program


@dataclass(frozen=True)
class Insn:
    """One statically decoded instruction."""

    pc: int
    opcode: int
    mnemonic: str
    layout: str
    #: Decoded operand fields in layout order; branch targets (``t``)
    #: are pre-resolved to absolute addresses, exactly like the
    #: interpreter's decode cache.
    fields: tuple[int, ...]
    length: int

    @property
    def next_pc(self) -> int:
        return self.pc + self.length


@dataclass(frozen=True)
class DecodeIssue:
    """A spot where static decode had to stop."""

    pc: int
    kind: str  # "invalid-opcode" | "truncated" | "bad-register"
    opcode: int


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions."""

    start: int
    insns: list[Insn] = field(default_factory=list)
    #: Out-edges as ``(kind, target_pc)``; kind is one of ``"jump"``
    #: (taken branch/call target), ``"fall"`` (fall-through, including
    #: after ``syscall``), ``"ret"`` (return-site edge).
    edges: list[tuple[str, int]] = field(default_factory=list)
    label: str = ""

    @property
    def end(self) -> int:
        return self.insns[-1].next_pc if self.insns else self.start

    @property
    def terminator(self) -> Insn:
        return self.insns[-1]

    def __len__(self) -> int:
        return len(self.insns)


def decode_insn(text: bytes, text_base: int, pc: int) -> Insn | DecodeIssue:
    """Decode one instruction at *pc* from the text image."""
    try:
        opcode, *fields, next_pc = isa.decode(text, pc, pc - text_base)
    except isa.DecodeError as err:
        return DecodeIssue(pc, err.kind, err.opcode)
    spec = isa.OPCODES[opcode]
    return Insn(pc, opcode, spec.name, spec.layout, tuple(fields), next_pc - pc)


class ControlFlowGraph:
    """Basic blocks and edges of one program's ``.text``."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.entry = program.entry
        self.text_base = program.text_base
        self.text_end = program.text_base + len(program.text)
        #: pc -> decoded instruction, for every reachable-by-decode pc.
        self.insns: dict[int, Insn] = {}
        #: Block start pc -> block, in ascending pc order.
        self.blocks: dict[int, BasicBlock] = {}
        #: pc of each instruction -> start pc of its block.
        self.block_of: dict[int, int] = {}
        #: Decode failures at pcs control flow can actually reach.
        self.decode_issues: list[DecodeIssue] = []
        #: ``(insn pc, target)`` for transfers whose target or
        #: fall-through leaves ``.text``.
        self.out_of_text: list[tuple[int, int]] = []
        #: pcs of ``syscall`` / ``call`` / ``ret`` instructions.
        self.syscall_sites: list[int] = []
        self.call_sites: list[int] = []
        self.ret_sites: list[int] = []
        #: symbol address -> name, for ``.text`` symbols only.
        self.labels: dict[int, str] = {
            addr: name
            for name, addr in sorted(program.symbols.items())
            if self.text_base <= addr < max(self.text_end, self.text_base + 1)
        }
        self._build()

    # -- construction --------------------------------------------------

    def _in_text(self, pc: int) -> bool:
        return self.text_base <= pc < self.text_end

    def _build(self) -> None:
        program = self.program
        roots = {self.entry} | set(self.labels)
        roots = {pc for pc in roots if self._in_text(pc)}
        # Recursive-descent decode from every root.
        work = sorted(roots)
        leaders: set[int] = set(roots)
        seen_issue: set[int] = set()
        while work:
            pc = work.pop()
            while pc not in self.insns:
                if not self._in_text(pc):
                    break
                decoded = decode_insn(program.text, self.text_base, pc)
                if isinstance(decoded, DecodeIssue):
                    if pc not in seen_issue:
                        seen_issue.add(pc)
                        self.decode_issues.append(decoded)
                    break
                self.insns[pc] = decoded
                op = decoded.opcode
                if op == isa.SYSCALL:
                    self.syscall_sites.append(pc)
                    leaders.add(decoded.next_pc)
                elif op == isa.CALL:
                    self.call_sites.append(pc)
                    target = decoded.fields[0]
                    leaders.add(decoded.next_pc)  # the return site
                    if self._in_text(target):
                        leaders.add(target)
                        work.append(target)
                    else:
                        self.out_of_text.append((pc, target))
                    break  # call does not fall through; ret comes back
                elif op == isa.RET:
                    self.ret_sites.append(pc)
                    leaders.add(decoded.next_pc)
                    break
                elif op == isa.JMP or op in isa.CONDITIONAL_JUMPS:
                    target = decoded.fields[0]
                    if self._in_text(target):
                        leaders.add(target)
                        work.append(target)
                    else:
                        self.out_of_text.append((pc, target))
                    leaders.add(decoded.next_pc)
                    if op == isa.JMP:
                        break
                elif op == isa.HLT:
                    leaders.add(decoded.next_pc)
                    break
                pc = decoded.next_pc

        # Group decoded instructions into blocks at leader boundaries.
        self.decode_issues.sort(key=lambda issue: issue.pc)
        self.syscall_sites.sort()
        self.call_sites.sort()
        self.ret_sites.sort()
        current: BasicBlock | None = None
        for pc in sorted(self.insns):
            insn = self.insns[pc]
            if current is None or pc in leaders or current.end != pc:
                current = BasicBlock(start=pc, label=self.labels.get(pc, ""))
                self.blocks[pc] = current
            current.insns.append(insn)
            self.block_of[pc] = current.start
            if insn.opcode in isa.ENDS_BLOCK:
                current = None

        return_sites = [self.insns[pc].next_pc for pc in self.call_sites]
        for block in self.blocks.values():
            self._add_edges(block, return_sites)

    def _add_edges(self, block: BasicBlock, return_sites: list[int]) -> None:
        last = block.terminator
        op = last.opcode
        if op == isa.JMP:
            self._edge(block, "jump", last.fields[0])
        elif op in isa.CONDITIONAL_JUMPS:
            self._edge(block, "jump", last.fields[0])
            self._edge(block, "fall", last.next_pc)
        elif op == isa.CALL:
            self._edge(block, "jump", last.fields[0])
        elif op == isa.RET:
            for site in return_sites:
                self._edge(block, "ret", site)
        elif op == isa.HLT:
            pass
        else:
            # Straight-line fall-through, including after syscall (the
            # pipeline prunes non-returning sites via `successors`).
            self._edge(block, "fall", last.next_pc)

    def _edge(self, block: BasicBlock, kind: str, target: int) -> None:
        if target in self.block_of:
            block.edges.append((kind, self.block_of[target]))

    # -- queries ---------------------------------------------------------

    def successors(
        self, block: BasicBlock, noreturn: frozenset[int] = frozenset()
    ) -> list[int]:
        """Successor block starts, honouring non-returning syscalls."""
        last = block.terminator
        if last.opcode == isa.SYSCALL and last.pc in noreturn:
            return []
        return [target for _, target in block.edges]

    def reachable_blocks(
        self, noreturn: frozenset[int] = frozenset()
    ) -> set[int]:
        """Block starts reachable from the entry point."""
        if self.entry not in self.block_of:
            return set()
        seen = {self.block_of[self.entry]}
        work = [self.block_of[self.entry]]
        while work:
            for succ in self.successors(self.blocks[work.pop()], noreturn):
                if succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return seen

    def nearest_label(self, pc: int) -> str:
        """The closest preceding ``.text`` symbol (for report locations)."""
        best = ""
        best_addr = -1
        for addr, name in self.labels.items():
            if best_addr < addr <= pc:
                best, best_addr = name, addr
        return best

    @property
    def insn_count(self) -> int:
        return len(self.insns)


def build_cfg(program: Program) -> ControlFlowGraph:
    """Decode *program* and build its control-flow graph."""
    return ControlFlowGraph(program)
