"""The translation path does plain int arithmetic.

Permissions live in PTEs and cached translations as int bits, so a guest
load or store, and the page-table walk behind a cache miss, never call
into :mod:`enum`.  The count is deterministic, so the guard is exact.
"""

import os
import sys

from repro.core.machine import MachineEngine
from repro.workloads.nqueens import nqueens_asm

#: AddressSpace methods every guest fetch, load and store runs through.
ACCESSORS = {"_frame_for", "fetch_page", "read_word", "write_word", "read_byte",
             "write_byte"}


def on_translation_path(code) -> bool:
    path = code.co_filename.replace(os.sep, "/")
    if path.endswith("repro/mem/pagetable.py"):
        return True
    return path.endswith("repro/mem/addrspace.py") and code.co_name in ACCESSORS


def test_no_enum_calls_on_the_translation_path():
    engine = MachineEngine()
    source = nqueens_asm(6)
    calls = []

    def profile(frame, event, arg):
        if event != "call" or os.path.basename(frame.f_code.co_filename) != "enum.py":
            return
        caller = frame.f_back
        if caller is not None and on_translation_path(caller.f_code):
            calls.append(f"{caller.f_code.co_name} -> {frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        result = engine.run(source)
    finally:
        sys.setprofile(None)
    assert len(result.solutions) == 4
    assert calls == []
