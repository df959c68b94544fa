"""The simulated CPU.

Extension steps in the paper "run as arbitrary x86 code" (§3.1); this
package provides the simulated equivalent: a small x86-64-flavoured ISA
with 16 general-purpose registers, flags, a two-pass assembler, and an
interpreter whose loads and stores go through :mod:`repro.mem` address
spaces — so guest code takes real COW page faults.

* :mod:`repro.cpu.registers` -- the register file (the immutable half of
  a snapshot together with the address space).
* :mod:`repro.cpu.isa` -- opcode definitions, the one layout table the
  assembler packs and the decoder unpacks with, and the one instruction
  decoder every consumer shares.
* :mod:`repro.cpu.assembler` -- text assembly -> :class:`Program`, one
  lexing pass per line.
* :mod:`repro.cpu.semantics` -- what every opcode does, written once as
  a Python source template with its flag and fault effects declared.
* :mod:`repro.cpu.interpreter` -- fetch/decode/execute in two tiers over
  that table (one handler per opcode; compiled hot basic blocks) and a
  code cache owned by the program; stops with a typed :class:`VmExit`
  (syscall, halt, page fault, CPU exception, step budget) that the VMM
  layer counts and the libOS consumes.
"""

from repro.cpu.assembler import AssemblyError, Program, assemble
from repro.cpu.interpreter import Interpreter, VmExit, VmExitReason
from repro.cpu.registers import REG_NAMES, RegisterFile

__all__ = [
    "AssemblyError",
    "Interpreter",
    "Program",
    "REG_NAMES",
    "RegisterFile",
    "VmExit",
    "VmExitReason",
    "assemble",
]
