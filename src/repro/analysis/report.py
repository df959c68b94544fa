"""Findings, the lint catalog, and report rendering (human/JSON/SARIF).

Every finding carries a stable lint id from :data:`CATALOG`; ids are
grouped by family:

* ``CF*`` control flow, ``DF*`` dataflow, ``MB*`` memory bounds,
  ``DV*`` division, ``BT*`` backtracking discipline, ``DT*``
  determinism, ``FS*`` crash consistency (file-effect domain).

Exit-code semantics match the ``repro.tools.analyze`` CLI contract:
0 = clean (info findings allowed), 1 = warnings, 2 = errors.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.fsdomain import FsSummary


class Severity(enum.IntEnum):
    """Finding severity; the int order is the escalation order."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    @property
    def label(self) -> str:
        return self.name.lower()

    @property
    def sarif_level(self) -> str:
        return {"info": "note", "warning": "warning", "error": "error"}[
            self.label
        ]


@dataclass(frozen=True)
class LintSpec:
    """Catalog entry for one lint id."""

    lint_id: str
    name: str
    default_severity: Severity
    description: str
    #: A minimal guest-source sketch that triggers the lint (shown by
    #: ``analyze --explain``; empty for the pre-FS catalog entries).
    example: str = ""


_SPECS = [
    LintSpec("CF001", "invalid-opcode", Severity.ERROR,
             "Control flow reaches a byte that does not decode to a valid "
             "instruction (traps with an invalid-opcode fault)."),
    LintSpec("CF002", "unreachable-code", Severity.WARNING,
             "Basic block can never be reached from the entry point."),
    LintSpec("CF003", "control-flow-escape", Severity.ERROR,
             "A branch target or fall-through leaves the .text segment."),
    LintSpec("CF004", "ret-without-call", Severity.ERROR,
             "ret with no call site anywhere in the program; the return "
             "address load reads unmapped or unrelated stack memory."),
    LintSpec("DF001", "uninit-register-read", Severity.WARNING,
             "Register is read on a path where it was never written "
             "(the loader zeroes it, so the read yields 0)."),
    LintSpec("DV001", "divide-by-zero", Severity.WARNING,
             "udiv/umod divisor may be zero (error when provably zero); "
             "a zero divisor raises #DE and kills the extension."),
    LintSpec("MB001", "oob-access", Severity.ERROR,
             "Memory operand is provably outside every mapped segment; "
             "the access page-faults."),
    LintSpec("MB002", "possible-oob-access", Severity.WARNING,
             "Memory operand may fall outside the mapped segments for "
             "some abstract values."),
    LintSpec("MB003", "write-to-text", Severity.ERROR,
             "Store targets the read-execute .text segment; the MMU "
             "denies the write."),
    LintSpec("BT001", "no-reachable-guess-fail", Severity.INFO,
             "sys_guess with no reachable sys_guess_fail: subtrees can "
             "only end in solutions, exits, or kills."),
    LintSpec("BT002", "guess-fail-before-guess", Severity.WARNING,
             "sys_guess_fail reachable before any sys_guess: failing "
             "with no snapshot to backtrack to aborts the search."),
    LintSpec("BT003", "non-positive-fan-out", Severity.WARNING,
             "sys_guess with a constant fan-out n <= 0: the guess fails "
             "immediately and the subtree is stillborn."),
    LintSpec("BT004", "write-inside-guess-scope", Severity.INFO,
             "sys_write reachable inside a guess scope: output from "
             "abandoned extensions is discarded with the snapshot."),
    LintSpec("DT001", "replay-unsafe-read", Severity.WARNING,
             "sys_read consumes external input; replayed extensions may "
             "observe different bytes and diverge."),
    LintSpec("DT002", "host-environment-open", Severity.WARNING,
             "sys_open depends on host filesystem state; replay across "
             "processes may diverge."),
    LintSpec("DT003", "uninterposed-syscall", Severity.WARNING,
             "Syscall number is outside the libOS interposed set; its "
             "effect is not captured by snapshots or replay."),
    LintSpec("DT004", "unresolved-syscall-number", Severity.WARNING,
             "rax at a syscall site is not a static constant; the "
             "analyzer cannot prove the call is replay-safe."),
    LintSpec("DT005", "nondet-clock-read", Severity.WARNING,
             "sys_time reads the host wall clock; re-executions observe "
             "different timestamps unless a recorder interposes."),
    LintSpec("DT006", "nondet-random-read", Severity.WARNING,
             "sys_getrandom draws host entropy; re-executions observe "
             "different bytes unless a recorder interposes."),
    LintSpec("FS001", "missing-fsync", Severity.WARNING,
             "A written block or created file is still volatile when a "
             "crash boundary (sys_crash_select / sys_exit) is reached; "
             "a crash there can lose or tear the update.",
             example=("open '/db' O_WRONLY; write 8 bytes; "
                      "sys_crash_select with no intervening fsync")),
    LintSpec("FS002", "volatile-rename", Severity.WARNING,
             "A rename record is still volatile at a crash boundary; "
             "only a global sync retires namespace updates in this "
             "file model, so the new name can vanish on crash.",
             example=("rename('/cfg.tmp', '/cfg'); sys_crash_select "
                      "without a sys_sync after the rename")),
    LintSpec("FS003", "fsync-before-data", Severity.WARNING,
             "fsync retired no data on an inode that later reaches a "
             "crash boundary with unflushed writes: the barrier ran "
             "before the writes it was meant to cover.",
             example=("open '/journal' O_CREAT; fsync(fd); then write "
                      "the journal entry and never fsync again")),
    LintSpec("FS004", "torn-write-window", Severity.WARNING,
             "Two or more distinct dirty blocks of one inode are in "
             "flight between barriers; the crash model may persist "
             "any subset, exposing a torn multi-block state.",
             example=("write block 0 and block 1 of '/data' with no "
                      "fsync between the two writes")),
    LintSpec("FS005", "write-after-commit", Severity.ERROR,
             "Even the fully durable final image violates every "
             "final-state rule of the crash plan: some write after "
             "the commit point corrupts the committed state.",
             example=("commit metadata for slot A, then overwrite "
                      "slot A's allocation bit with a stale value")),
    LintSpec("FS006", "dead-barrier", Severity.INFO,
             "A barrier provably retires nothing on every path "
             "(fsync of a clean inode, or sync with no volatile "
             "state): it costs a flush and buys no durability.",
             example=("fsync(fd) immediately after open, before any "
                      "write through the fd")),
]

#: lint id -> spec.
CATALOG: dict[str, LintSpec] = {spec.lint_id: spec for spec in _SPECS}


def catalog_fingerprint() -> str:
    """Stable digest of the lint catalog (ids, severities, texts).

    Memoisation keys include this so a grown or re-tuned catalog can
    never serve a stale cached verdict from an older analyzer.
    """
    h = hashlib.sha256()
    for spec in sorted(CATALOG.values(), key=lambda s: s.lint_id):
        h.update(repr((
            spec.lint_id, spec.name, int(spec.default_severity),
            spec.description, spec.example,
        )).encode())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class Finding:
    """One lint hit, anchored to a pc/block/source line."""

    lint_id: str
    severity: Severity
    pc: int
    message: str
    block: int | None = None
    label: str = ""
    line: int | None = None

    @property
    def spec(self) -> LintSpec:
        return CATALOG[self.lint_id]

    def to_dict(self) -> dict[str, object]:
        return {
            "id": self.lint_id,
            "name": self.spec.name,
            "severity": self.severity.label,
            "pc": self.pc,
            "block": self.block,
            "label": self.label,
            "line": self.line,
            "message": self.message,
        }


@dataclass(frozen=True)
class DeterminismCertificate:
    """The analyzer's replay-safety verdict for one program.

    ``certified`` means: every reachable syscall site resolves to a
    statically known number inside the libOS interposed set, none of
    them consumes external input (``read``/``open``), and control flow
    never reaches an undecodable instruction.  Those are exactly the
    properties prefix replay in the process-parallel engine relies on.
    """

    certified: bool
    reasons: tuple[str, ...] = ()
    #: syscall name -> number of static sites.
    syscall_profile: dict[str, int] = field(default_factory=dict)
    #: scope key pc (entry or guess pc) -> worst-case step bound
    #: (None = statically unbounded, e.g. a loop inside the scope).
    step_bounds: dict[int, int | None] = field(default_factory=dict)
    #: pcs the certifier flagged, with the lint id that fired there.
    nondet_sites: tuple[tuple[int, str], ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {
            "certified": self.certified,
            "reasons": list(self.reasons),
            "syscall_profile": dict(self.syscall_profile),
            "step_bounds": {
                f"{pc:#x}": bound for pc, bound in self.step_bounds.items()
            },
            "nondet_sites": [
                {"pc": pc, "lint": lint_id} for pc, lint_id in self.nondet_sites
            ],
        }


@dataclass
class AnalysisReport:
    """Full analyzer output for one program."""

    findings: list[Finding]
    certificate: DeterminismCertificate
    entry: int
    text_size: int
    block_count: int
    insn_count: int
    elapsed: float = 0.0
    #: File-effect domain summary (None only for reports built before
    #: the FS pass existed, e.g. deserialized ones).
    fs: FsSummary | None = None

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == Severity.WARNING]

    @property
    def infos(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == Severity.INFO]

    @property
    def clean(self) -> bool:
        """No warnings or errors (info findings do not spoil a program)."""
        return not self.errors and not self.warnings

    @property
    def exit_code(self) -> int:
        """CLI contract: 0 clean, 1 warnings, 2 errors."""
        if self.errors:
            return 2
        if self.warnings:
            return 1
        return 0

    # -- rendering -----------------------------------------------------

    def render_human(self) -> str:
        lines = [
            f"guest-program verifier: {self.block_count} blocks, "
            f"{self.insn_count} insns, entry {self.entry:#x}, "
            f".text {self.text_size} bytes"
            + (f"  ({self.elapsed * 1000:.1f} ms)" if self.elapsed else "")
        ]
        if self.findings:
            rows = [("ID", "SEVERITY", "PC", "BLOCK", "MESSAGE")]
            for f in sorted(
                self.findings, key=lambda f: (-f.severity, f.pc, f.lint_id)
            ):
                where = f.label or (f"{f.block:#x}" if f.block else "-")
                if f.line is not None:
                    where += f" (line {f.line})"
                rows.append(
                    (f.lint_id, f.severity.label, f"{f.pc:#x}", where,
                     f.message)
                )
            widths = [
                max(len(row[col]) for row in rows) for col in range(4)
            ]
            for row in rows:
                lines.append(
                    "  ".join(
                        cell.ljust(widths[col]) if col < 4 else cell
                        for col, cell in enumerate(row)
                    ).rstrip()
                )
        else:
            lines.append("no findings")
        cert = self.certificate
        if cert.certified:
            lines.append(
                "determinism: CERTIFIED "
                "(all syscall sites resolved and interposed)"
            )
        else:
            lines.append("determinism: NOT CERTIFIED")
            for reason in cert.reasons:
                lines.append(f"  - {reason}")
        if self.fs is not None:
            if self.fs.fs_clean:
                lines.append(
                    "crash consistency: FS-CLEAN "
                    "(no volatile file effect reaches a crash boundary)"
                )
            else:
                suffix = (
                    " (file-effect tracking incomplete)"
                    if self.fs.tainted else ""
                )
                lines.append(f"crash consistency: NOT PROVEN{suffix}")
        if cert.syscall_profile:
            profile = ", ".join(
                f"{name}x{count}"
                for name, count in sorted(cert.syscall_profile.items())
            )
            lines.append(f"syscalls: {profile}")
        bounded = {
            pc: bound
            for pc, bound in cert.step_bounds.items() if bound is not None
        }
        if cert.step_bounds:
            worst = max(bounded.values()) if bounded else None
            unbounded = len(cert.step_bounds) - len(bounded)
            desc = f"{len(cert.step_bounds)} scopes"
            if worst is not None:
                desc += f", worst bounded scope {worst} insns"
            if unbounded:
                desc += f", {unbounded} statically unbounded"
            lines.append(f"step bounds: {desc}")
        lines.append(
            f"summary: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), {len(self.infos)} info(s)"
        )
        return "\n".join(lines)

    def to_json(self) -> dict[str, object]:
        return {
            "entry": self.entry,
            "text_size": self.text_size,
            "blocks": self.block_count,
            "insns": self.insn_count,
            "elapsed": self.elapsed,
            "findings": [f.to_dict() for f in self.findings],
            "certificate": self.certificate.to_dict(),
            "fs": self.fs.to_dict() if self.fs is not None else None,
            "exit_code": self.exit_code,
        }

    def to_sarif(self, artifact: str = "guest.s") -> dict[str, object]:
        """Minimal SARIF 2.1.0 document (one run, one tool)."""
        rules = [
            {
                "id": spec.lint_id,
                "name": spec.name,
                "shortDescription": {"text": spec.description},
                "defaultConfiguration": {
                    "level": spec.default_severity.sarif_level
                },
            }
            for spec in CATALOG.values()
        ]
        results = []
        for f in self.findings:
            location: dict[str, object] = {
                "physicalLocation": {
                    "artifactLocation": {"uri": artifact},
                    "region": {"startLine": f.line or 1},
                },
                "logicalLocations": [
                    {"name": f.label or f"{f.pc:#x}", "kind": "function"}
                ],
            }
            results.append(
                {
                    "ruleId": f.lint_id,
                    "level": f.severity.sarif_level,
                    "message": {"text": f"{f.message} (pc {f.pc:#x})"},
                    "locations": [location],
                }
            )
        return {
            "$schema": (
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json"
            ),
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro-analyze",
                            "informationUri":
                                "https://example.invalid/repro/analysis",
                            "rules": rules,
                        }
                    },
                    "results": results,
                }
            ],
        }

    def sarif_text(self, artifact: str = "guest.s") -> str:
        return json.dumps(self.to_sarif(artifact), indent=2)
