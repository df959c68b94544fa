"""Shared fixtures: assemble-and-run helpers for CPU tests."""

import pytest

from repro.cpu import Interpreter, assemble
from repro.mem import AddressSpace, FramePool, PAGE_SIZE, Permission
from repro.mem.layout import STACK_TOP

STACK_PAGES = 16


def load(program, pool=None):
    """Map an assembled program into a fresh address space."""
    pool = pool or FramePool()
    space = AddressSpace(pool)
    space.map_region(
        program.text_base,
        max(len(program.text), 1),
        Permission.RX,
        data=program.text,
    )
    space.map_region(
        program.data_base,
        max(len(program.data), PAGE_SIZE),
        Permission.RW,
        data=program.data or None,
    )
    stack_base = STACK_TOP - STACK_PAGES * PAGE_SIZE
    space.map_region(stack_base, STACK_PAGES * PAGE_SIZE, Permission.RW)
    return space


def run_asm(source, max_steps=100_000, setup=None):
    """Assemble, load and run *source*; returns (exit, interpreter, space)."""
    program = assemble(source)
    space = load(program)
    cpu = Interpreter(space)
    cpu.regs.rip = program.entry
    cpu.regs.rsp = STACK_TOP
    if setup is not None:
        setup(cpu, space, program)
    exit_event = cpu.run(max_steps=max_steps)
    return exit_event, cpu, space


@pytest.fixture
def asm():
    return run_asm
