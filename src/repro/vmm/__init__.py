"""Dune-like virtualization layer.

The paper builds on Dune [1], which uses VT-x to run a libOS at non-root
ring 0 and the application at non-root ring 3, with the host Linux kernel
at root ring 0 (Figure 2).  This package models that control structure:

* :class:`Vmcs` -- per-vCPU state the hardware would keep (guest
  registers live in the interpreter; the VMCS tracks rings and exit info);
* :class:`VCpu` -- one virtual CPU: enters the guest, returns the typed
  :class:`VmExit` the interpreter stopped with, and counts exits per
  reason (the F2 architecture-accounting benchmark reads these counters);
* :class:`Ring` -- the privilege levels of Figure 2.

The "hardware" here is :mod:`repro.cpu`; what this layer adds is the
boundary crossing: guest execution always returns to the libOS through a
VM exit, never by ad-hoc callbacks.
"""

from repro.vmm.vcpu import Ring, VCpu, Vmcs, VmExit, VmExitReason

__all__ = ["Ring", "VCpu", "Vmcs", "VmExit", "VmExitReason"]
