"""Inspect a write-ahead run journal.

Usage::

    python -m repro.tools.journal inspect run.journal [--json] [--records]

``inspect`` scans the journal with the same CRC-verifying recovery path
the engine resumes through (:func:`repro.core.journal.recover`) and
reports what a resume would see: the header, per-type record counts,
epoch range, corrupt records (interior skips vs torn tail), the pending
frontier, durable solutions, and quarantined tasks with their evidence.

Exit status: 0 for a clean journal, 1 when any corruption was detected
(skipped or torn records) — so CI can flag a journal that recovered but
lost records.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.core.errors import JournalError
from repro.core.journal import recover, scan


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.journal",
        description="Inspect a crash-tolerant run journal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    inspect = sub.add_parser(
        "inspect", help="scan a journal and report its recoverable state"
    )
    inspect.add_argument("journal", help="journal file (JSONL)")
    inspect.add_argument("--json", action="store_true",
                        help="emit the report as one JSON object")
    inspect.add_argument("--records", action="store_true",
                        help="also dump every valid record")
    return parser


def _report(args) -> dict:
    recovered = recover(args.journal)
    header = recovered.header or {}
    report = {
        "journal": args.journal,
        "version": header.get("version"),
        "program": header.get("program"),
        "strategy": header.get("strategy"),
        "workers": header.get("workers"),
        "certified": header.get("certified"),
        "records": recovered.records,
        "counts": recovered.counts,
        "last_epoch": recovered.last_epoch,
        "valid_bytes": recovered.valid_bytes,
        "skipped": recovered.skipped,
        "torn": recovered.torn,
        "resumes": recovered.resumes,
        "finished": recovered.finished,
        "stop_reason": (
            recovered.run_end.get("stop_reason")
            if recovered.run_end else None
        ),
        "pending": [list(t.prefix) for t in recovered.pending],
        "completed": len(recovered.completed_keys),
        "solutions": len(recovered.solutions),
        "dropped": [list(t.prefix) for t in recovered.dropped],
        "transport": header.get("transport"),
        "last_fence": recovered.last_fence,
        "poisoned": [
            {
                "task": list(task.prefix),
                "evidence": evidence,
                # The distinct workers this task is blamed for killing,
                # the count that put it in quarantine.
                "workers": sorted({
                    e.get("worker") for e in evidence
                    if e.get("worker") is not None
                }),
                "lease_history": recovered.lease_history.get(
                    task.key(), []
                ),
            }
            for task, evidence in recovered.poisoned
        ],
        # Full per-task dispatch/expire/stale/complete lineage for every
        # task that was ever re-dispatched or fenced — the forensic view
        # of which worker held which fence when, and whether the subtree
        # was ultimately accounted.
        "lease_history": {
            ",".join(map(str, key)): {
                "events": events,
                "completed": key in recovered.completed_keys,
            }
            for key, events in sorted(recovered.lease_history.items())
            if len(events) > 1
        },
    }
    if args.records:
        records, _, _, _ = scan(args.journal)
        report["record_list"] = records
    return report


def _render_human(report: dict) -> str:
    lines = [f"journal {report['journal']}"]
    lines.append(
        f"  header: version={report['version']} "
        f"strategy={report['strategy']} workers={report['workers']} "
        f"certified={report['certified']}"
    )
    lines.append(f"  program: {report['program']}")
    counts = " ".join(
        f"{k}={v}" for k, v in sorted(report["counts"].items())
    )
    lines.append(
        f"  records: {report['records']} ({counts}), "
        f"last epoch {report['last_epoch']}, resumes {report['resumes']}"
    )
    if report["skipped"] or report["torn"]:
        lines.append(
            f"  CORRUPTION: {report['skipped']} interior record(s) "
            f"skipped, {report['torn']} torn tail record(s) dropped "
            f"(valid through byte {report['valid_bytes']})"
        )
    else:
        lines.append("  integrity: all records valid")
    if report["finished"]:
        lines.append(
            f"  run finished (stop_reason={report['stop_reason']}); "
            f"{report['solutions']} solution(s), "
            f"{report['completed']} task(s) completed"
        )
    else:
        lines.append(
            f"  run interrupted: {len(report['pending'])} pending "
            f"task(s), {report['solutions']} durable solution(s), "
            f"{report['completed']} completed"
        )
        for prefix in report["pending"][:10]:
            lines.append(f"    pending {prefix}")
        if len(report["pending"]) > 10:
            lines.append(
                f"    ... and {len(report['pending']) - 10} more"
            )
    if report["dropped"]:
        lines.append(f"  dropped (retryable on resume): "
                     f"{report['dropped']}")
    if report.get("transport"):
        lines.append(
            f"  transport: {report['transport']}, "
            f"last fence {report.get('last_fence', 0)}"
        )
    for entry in report["poisoned"]:
        kills = entry["evidence"]
        workers = entry.get("workers") or sorted(
            {e.get("worker") for e in kills}
        )
        lines.append(
            f"  POISONED {entry['task']}: killed {len(kills)} worker(s) "
            f"{workers}"
        )
        for ev in kills:
            lines.append(
                f"    {ev.get('kind')} worker={ev.get('worker')} "
                f"slot={ev.get('slot')} {ev.get('detail', '')}".rstrip()
            )
        for ev in entry.get("lease_history", []):
            lines.append(
                f"    lease {ev.get('event')} fence={ev.get('fence')} "
                f"worker={ev.get('worker')} epoch={ev.get('epoch')}"
            )
    history = report.get("lease_history") or {}
    if history:
        lines.append(
            f"  lease lineage ({len(history)} re-dispatched/fenced "
            "task(s)):"
        )
        for key, entry in list(history.items())[:10]:
            trail = " -> ".join(
                f"{ev.get('event')}[f{ev.get('fence')}@w{ev.get('worker')}]"
                for ev in entry["events"]
            )
            mark = "completed" if entry["completed"] else "UNRESOLVED"
            lines.append(f"    ({key}): {trail} [{mark}]")
        if len(history) > 10:
            lines.append(f"    ... and {len(history) - 10} more")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _report(args)
    except (OSError, JournalError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_render_human(report))
    return 1 if (report["skipped"] or report["torn"]) else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
