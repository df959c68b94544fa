"""Interposition policy: which guest system calls are permitted, and how
each permitted call's side effects are contained.

Side-effect containment comes in two flavours:

* ``COW`` -- the state the call mutates is part of the per-extension
  copy-on-write image (memory via the page table, files via the COW file
  table), so backtracking reverses it for free;
* ``LOGGED`` -- the libOS records enough to reverse the call explicitly
  (the paper's example: ``brk`` must be "logged and reversed upon
  backtracking"; our brk is COW-contained too, but the audit log still
  tracks it so E9 can show the mechanism).

Refused calls follow §5's soundness rule: fail rather than emulate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class Verdict(enum.Enum):
    ALLOW = "allow"
    DENY = "deny"


class Containment(enum.Enum):
    """How an allowed call's side effects are contained."""

    NONE = "none"        # no side effects (read, lseek on private fd)
    COW = "cow"          # contained by the copy-on-write image
    LOGGED = "logged"    # explicitly logged for reversal
    OUTPUT = "output"    # per-path console output (part of the solution)


@dataclass(frozen=True)
class AuditRecord:
    """One interposed system call."""

    syscall: str
    detail: str
    verdict: Verdict
    containment: Containment


@dataclass
class AuditLog:
    """Chronological record of interposition decisions."""

    records: list[AuditRecord] = field(default_factory=list)

    def note(
        self,
        syscall: str,
        detail: str,
        verdict: Verdict,
        containment: Containment = Containment.NONE,
    ) -> None:
        self.records.append(AuditRecord(syscall, detail, verdict, containment))

    @property
    def denials(self) -> list[AuditRecord]:
        return [r for r in self.records if r.verdict is Verdict.DENY]

    @property
    def allowed(self) -> list[AuditRecord]:
        return [r for r in self.records if r.verdict is Verdict.ALLOW]

    def count(self, syscall: str) -> int:
        return sum(1 for r in self.records if r.syscall == syscall)


class InterpositionPolicy:
    """Base policy: everything implemented is allowed.

    Subclasses override the ``check_*`` hooks to narrow what guests may
    do.  A check returns ``None`` to allow, or an errno (positive int) to
    refuse with ``-errno``.
    """

    name = "permissive"

    def check_open(self, path: str, flags: int) -> Optional[int]:
        return None

    def check_unknown_syscall(self, number: int) -> str:
        """Policy for unimplemented syscall numbers.

        Returns ``"kill"`` to terminate the extension (sound refusal) or
        ``"errno"`` to return -ENOSYS and let the guest cope.
        """
        return "errno"


class PermissivePolicy(InterpositionPolicy):
    """Allows every implemented call; unknown calls get -ENOSYS."""


EACCES = 13
ENOSYS = 38

_DEVICE_PREFIXES = ("/dev/", "/proc/", "/sys/")
_SOCKET_MARKERS = ("socket:", "tcp:", "udp:", "unix:")


class SoundMinimalPolicy(InterpositionPolicy):
    """The §5 design point: regular files only, refuse everything else.

    * ``open`` of device/proc/socket paths is refused with -EACCES;
    * unknown system calls kill the extension (sound: no call with
      unconfined side effects can slip through);
    * everything allowed is contained by COW or the audit log.
    """

    name = "sound-minimal"

    def check_open(self, path: str, flags: int) -> Optional[int]:
        if path.startswith(_DEVICE_PREFIXES):
            return EACCES
        if any(path.startswith(m) for m in _SOCKET_MARKERS):
            return EACCES
        return None

    def check_unknown_syscall(self, number: int) -> str:
        return "kill"
