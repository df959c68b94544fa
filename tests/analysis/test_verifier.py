"""The verify= gate on engines and the replay-divergence diagnostics."""

import warnings

import pytest

from repro.analysis import VerificationError, verify_program
from repro.analysis.verifier import GuestVerificationWarning, nondet_sites
from repro.core.cluster import ProcessParallelEngine
from repro.core.errors import GuessError, ReplayDivergenceError
from repro.core.machine import MachineEngine
from repro.cpu.assembler import assemble
from repro.workloads.nqueens import nqueens_asm

NONDET_GUEST = """
    .data
    buf: .zero 8
    .text
    _start:
        mov rax, 0
        mov rdi, 0
        mov rsi, buf
        mov rdx, 8
        syscall
        mov rax, 60
        mov rdi, 0
        syscall
"""


def test_verify_program_modes():
    program = assemble(nqueens_asm(4))
    assert verify_program(program, "off") is None
    report = verify_program(program, "strict")
    assert report is not None and report.certificate.certified
    with pytest.raises(ValueError):
        verify_program(program, "loud")


def test_strict_refuses_uncertified_with_actionable_message():
    program = assemble(NONDET_GUEST)
    with pytest.raises(VerificationError) as err:
        verify_program(program, "strict")
    message = str(err.value)
    assert "repro.tools.analyze" in message
    assert "DT001" in message
    assert err.value.report is not None


def test_warn_mode_warns_and_returns_report():
    program = assemble(NONDET_GUEST)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = verify_program(program, "warn")
    assert report is not None
    assert any(
        issubclass(w.category, GuestVerificationWarning) for w in caught
    )


def test_machine_engine_strict_pass_and_refusal():
    engine = MachineEngine(verify="strict")
    result = engine.run(nqueens_asm(4))
    assert len(result.solutions) == 2
    assert engine.last_report.certificate.certified

    with pytest.raises(VerificationError):
        MachineEngine(verify="strict").run(NONDET_GUEST)


def test_process_engine_strict_refuses_before_sharding():
    engine = ProcessParallelEngine(workers=2, verify="strict")
    with pytest.raises(VerificationError):
        engine.run(NONDET_GUEST)
    # Refusal happens before any worker spawns: registry never ran.
    assert engine.registry.counter("parallel.tasks_dispatched").value == 0


def test_process_engine_strict_runs_certified_guest():
    engine = ProcessParallelEngine(workers=2, verify="strict")
    result = engine.run(nqueens_asm(4))
    assert len(result.solutions) == 2
    assert nondet_sites(engine.last_report) == ()


def test_engines_reject_unknown_verify_mode():
    with pytest.raises(ValueError):
        MachineEngine(verify="paranoid")
    with pytest.raises(ValueError):
        ProcessParallelEngine(verify="paranoid")


def test_replay_divergence_error_payload():
    err = ReplayDivergenceError(
        "nondeterministic guest: fan-out changed",
        prefix=(0, 1, 2),
        position=1,
        pc=0x400010,
        expected=4,
        actual=3,
        verdict="DT001 flagged this syscall site",
    )
    assert isinstance(err, GuessError)
    assert err.prefix == (0, 1, 2)
    assert err.expected == 4 and err.actual == 3
    text = str(err)
    assert "decision prefix [0,1,2]" in text
    assert "diverged at depth 1" in text
    assert "guest pc 0x400010" in text
    assert "analyzer verdict: DT001" in text


def test_worker_divergence_verdict_lookup():
    from repro.core.cluster import ClusterConfig, _SubtreeWorker

    program = assemble(nqueens_asm(4))

    def worker(sites):
        return _SubtreeWorker(program, ClusterConfig(nondet_sites=sites))

    # verify="off": no analysis, no verdict to cite.
    assert worker(None).stepper.verdict(0x400010) is None
    # Certified program: divergence implicates the engine, not the guest.
    assert "certified" in worker(()).stepper.verdict(0x400010)
    # Flagged site: the verdict names the lint.
    flagged = worker(((0x400010, "DT001"),))
    assert "DT001" in flagged.stepper.verdict(0x400010)
    # Uncertified program, different site: cite the known sites.
    assert "0x400010" in flagged.stepper.verdict(0x400099)


def test_python_replay_divergence_cites_prefix():
    from repro.core.replay import ReplayEngine

    flip = {"first": True}

    def unstable(sys):
        n = 3 if flip.pop("first", False) else 2
        choice = sys.guess(n)
        if choice != 0:
            sys.fail()
        return choice

    with pytest.raises(ReplayDivergenceError) as err:
        ReplayEngine().run(unstable)
    assert err.value.position == 0
    assert err.value.expected == 3
    assert err.value.actual == 2
