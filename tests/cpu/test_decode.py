"""One instruction decoder: the interpreter, the control-flow graph and the
symbolic executor all decode through :func:`repro.cpu.isa.decode`, so
they accept and reject exactly the same encodings."""

import pytest

from repro.analysis.cfg import ControlFlowGraph, DecodeIssue, decode_insn
from repro.core.machine import MachineEngine
from repro.cpu import isa
from repro.cpu.assembler import Program
from repro.mem.layout import CODE_BASE, DATA_BASE
from repro.symex.explorer import SymbolicExplorer


def program(text):
    return Program(text=bytes(text), data=b"", text_base=CODE_BASE,
                   data_base=DATA_BASE)


#: ``mov r32, r0``: the register byte is outside r0..r15.
BAD_REGISTER = program([isa.MOVR, 0x20, 0x00, isa.HLT])


def test_bad_register_is_rejected_by_every_consumer():
    result = MachineEngine().run(BAD_REGISTER)
    assert result.solutions == []
    assert result.stats.extra["kill_reasons"] == [
        f"cpu exception: invalid opcode {isa.MOVR:#04x} at {CODE_BASE:#x}"
    ]
    assert ControlFlowGraph(BAD_REGISTER).decode_issues == [
        DecodeIssue(CODE_BASE, "bad-register", isa.MOVR)
    ]
    explored = SymbolicExplorer(BAD_REGISTER, symbolic=[]).run()
    assert explored.paths == []
    assert explored.kills == 1


@pytest.mark.parametrize("text,kind", [
    ([0xFF], "invalid-opcode"),
    ([isa.MOVI, 0x00, 0x01], "truncated"),
    ([isa.ADDRR, 0x01, 0x10], "bad-register"),
])
def test_error_kinds(text, kind):
    with pytest.raises(isa.DecodeError) as err:
        isa.decode(bytes(text), CODE_BASE)
    assert (err.value.kind, err.value.pc, err.value.opcode) == (
        kind, CODE_BASE, text[0])
    assert decode_insn(bytes(text), CODE_BASE, CODE_BASE) == DecodeIssue(
        CODE_BASE, kind, text[0])
    assert SymbolicExplorer(program(text), symbolic=[]).run().kills == 1

