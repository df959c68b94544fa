"""Instruction fetch: an instruction within one page is decoded in place
after one translation; one that runs into the next page is fetched
whole, opcode byte first, so its faults are those of the old two-fetch
decoder (:mod:`tests.cpu.reference_interpreter`)."""

import pytest

from repro.cpu import Interpreter, VmExitReason, isa
from repro.cpu.interpreter import InvalidOpcodeError
from repro.mem import AddressSpace, FramePool, PAGE_SIZE, Permission
from repro.mem.faults import NotMappedError, ProtectionError

from tests.cpu.reference_interpreter import ReferenceInterpreter

TEXT = 0x400000
#: ``mov rax, 7``: 10 bytes, 3 of them on the first page.
MOV_RAX_7 = bytes([isa.MOVI, 0]) + (7).to_bytes(8, "little")
AT = TEXT + PAGE_SIZE - 3


def space_with(first: bytes, second_perms=None, second: bytes = b""):
    """``first`` ends the RX page at TEXT; the next page is mapped with
    *second_perms* and starts with *second*, or is left unmapped."""
    space = AddressSpace(FramePool())
    space.map_region(TEXT, PAGE_SIZE, Permission.RX,
                     data=bytes(PAGE_SIZE - len(first)) + first)
    if second_perms is not None:
        space.map_region(TEXT + PAGE_SIZE, PAGE_SIZE, second_perms, data=second)
    return space


def step(cpu_type, space):
    cpu = cpu_type(space)
    cpu.regs.rip = AT
    exit_event = cpu.step()
    return exit_event, cpu.regs


BOTH = pytest.mark.parametrize("cpu_type", [Interpreter, ReferenceInterpreter])


@BOTH
def test_straddle_into_an_unmapped_page(cpu_type):
    exit_event, regs = step(cpu_type, space_with(MOV_RAX_7[:3]))
    assert exit_event.reason is VmExitReason.PAGE_FAULT
    assert isinstance(exit_event.fault, NotMappedError)
    assert str(exit_event.fault) == "page fault at 0x401000 on execute"
    assert regs.rip == AT and regs.rax == 0


@BOTH
def test_straddle_into_a_page_without_exec(cpu_type):
    space = space_with(MOV_RAX_7[:3], Permission.RW, MOV_RAX_7[3:])
    exit_event, regs = step(cpu_type, space)
    assert exit_event.reason is VmExitReason.PAGE_FAULT
    assert isinstance(exit_event.fault, ProtectionError)
    assert exit_event.fault.addr == TEXT + PAGE_SIZE
    assert regs.rip == AT


@BOTH
def test_straddle_into_an_executable_page(cpu_type):
    space = space_with(MOV_RAX_7[:3], Permission.RX,
                       MOV_RAX_7[3:] + bytes([isa.HLT]))
    exit_event, regs = step(cpu_type, space)
    assert exit_event.reason is VmExitReason.STEP_LIMIT
    assert regs.rax == 7 and regs.rip == 0x401007


@BOTH
def test_undefined_opcode_before_an_unmapped_page(cpu_type):
    exit_event, regs = step(cpu_type, space_with(bytes([0xFF, 0, 0])))
    assert exit_event.reason is VmExitReason.CPU_EXCEPTION
    assert isinstance(exit_event.fault, InvalidOpcodeError)
    assert (exit_event.fault.rip, exit_event.fault.opcode) == (AT, 0xFF)


def test_in_page_decode_reads_the_frame_in_place(monkeypatch):
    """One translation per in-page decode; the whole-fetch path only for
    an instruction that crosses the page."""
    space = space_with(MOV_RAX_7 + MOV_RAX_7[:3], Permission.RX,
                       MOV_RAX_7[3:] + bytes([isa.HLT]))
    fetches = []

    def fetch(addr, n):
        fetches.append(addr)
        return AddressSpace.fetch(space, addr, n)

    monkeypatch.setattr(space, "fetch", fetch)
    cpu = Interpreter(space)
    cpu.regs.rip = AT - len(MOV_RAX_7)
    assert cpu.run(max_steps=3).reason is VmExitReason.HLT
    assert fetches == [AT]
