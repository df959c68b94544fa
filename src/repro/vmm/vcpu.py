"""Virtual CPU: the VM-entry/VM-exit boundary.

A :class:`VCpu` owns an interpreter and presents the libOS with the
hardware-virtualization contract: call :meth:`VCpu.enter` (VMRESUME), get
back a :class:`VmExit` naming why the guest stopped.  System calls, halts,
page faults the MMU could not resolve, CPU exceptions and step-budget
expiry all surface as exits; the libOS decides what happens next.  The
interpreter builds the exit record itself (:mod:`repro.cpu.interpreter`
defines :class:`VmExit` and :class:`VmExitReason`, since this package
imports the CPU); the vCPU counts it and hands it on unchanged.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.cpu.interpreter import Interpreter, VmExit, VmExitReason
from repro.cpu.registers import RegisterFile
from repro.mem.addrspace import AddressSpace

__all__ = ["Ring", "VCpu", "Vmcs", "VmExit", "VmExitReason"]


class Ring(enum.Enum):
    """Privilege levels of the Figure 2 architecture."""

    ROOT_RING0 = "root-ring0"          # host Linux kernel
    NON_ROOT_RING0 = "non-root-ring0"  # the backtracking libOS
    NON_ROOT_RING3 = "non-root-ring3"  # the guest application


@dataclass
class Vmcs:
    """The software VMCS: per-vCPU control and accounting state."""

    current_ring: Ring = Ring.NON_ROOT_RING0
    entries: int = 0
    exits: int = 0
    exit_counts: Counter = field(default_factory=Counter)
    guest_instructions: int = 0


class VCpu:
    """One virtual CPU running a guest at non-root ring 3."""

    def __init__(self, cpu_id: int = 0, icache: Optional[dict] = None):
        self.cpu_id = cpu_id
        self.vmcs = Vmcs()
        self.regs = RegisterFile()
        self._icache: dict = icache if icache is not None else {}
        self._interp: Optional[Interpreter] = None

    def attach(self, space: AddressSpace) -> None:
        """Point the vCPU at a guest address space (e.g. after restore)."""
        if self._interp is None:
            self._interp = Interpreter(space, self.regs, self._icache)
        else:
            self._interp.attach_space(space)

    @property
    def space(self) -> AddressSpace:
        if self._interp is None:
            raise RuntimeError("no address space attached")
        return self._interp.space

    def enter(self, max_steps: Optional[int] = None) -> VmExit:
        """VMRESUME: run the guest until the next VM exit."""
        if self._interp is None:
            raise RuntimeError("no address space attached")
        self.vmcs.entries += 1
        self.vmcs.current_ring = Ring.NON_ROOT_RING3
        vm_exit = self._interp.run(max_steps=max_steps)
        self.vmcs.current_ring = Ring.NON_ROOT_RING0
        self.vmcs.exits += 1
        self.vmcs.guest_instructions += vm_exit.steps
        self.vmcs.exit_counts[vm_exit.reason] += 1
        return vm_exit
