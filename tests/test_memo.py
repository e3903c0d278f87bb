"""Steady-state loop memoizer tests (``sim="fast"`` compute path).

The contract under test: when the fast path detects a fully periodic
pipeline steady state and skips whole loop iterations, every externally
observable artifact stays bit-identical to single-stepping -- v3 trace
bytes (with chunk boundaries inside memoized periods), sanitizer
verdicts and the core statistics (modulo the driver-side
``CoreStats.DRIVER_FIELDS``, which record *how* the run was driven) --
including when sampling interrupts land mid-period, and with
``--paranoid`` cross-checking clean.
"""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import (DEFAULT_CHUNK_CYCLES, Machine, TraceWriterV3,
                       shifted_record)
from repro.cpu.core import CoreStats
from repro.fastpath import CycleBlock
from repro.isa.assembler import assemble
from repro.lint.sanitizer import TraceSanitizer
from repro.workloads import build_workload, k_dep_chain, k_int_ilp

from conftest import feed_records, make_record

#: A predictable countdown loop: the only branch is the loop-closing
#: ``bne`` (TTTT...F), so the predictor reaches a fixed point and the
#: pipeline settles into an exactly periodic steady state -- the
#: memoizer's best case, mirroring exchange2's integer kernels.
ILP_LOOP = """
.func main
    addi x1, x0, 0
    addi x2, x0, 0
    addi x4, x0, 0
    addi x6, x0, 4000
loop:
    addi x1, x1, 1
    add  x2, x2, x1
    andi x3, x1, 255
    add  x4, x4, x3
    addi x6, x6, -1
    bne  x6, x0, loop
    halt
"""


def _run(program, sim, chunk_cycles=4, paranoid=False,
         perf_sampling=None, premapped=None):
    """Run *program* recording a v3 trace.  The default 4-cycle chunks
    put chunk boundaries inside stall runs and memoized periods."""
    machine = Machine(program, premapped_data=premapped,
                      perf_sampling=perf_sampling)
    buffer = io.BytesIO()
    machine.attach(TraceWriterV3(buffer, machine.config.rob_banks,
                                 chunk_cycles=chunk_cycles))
    stats = machine.run(2_000_000, sim=sim, paranoid=paranoid)
    return buffer.getvalue(), stats, machine


def _content_stats(stats):
    """Stats dict minus the fields that describe the driving strategy."""
    return {k: v for k, v in stats.to_dict().items()
            if k not in CoreStats.DRIVER_FIELDS}


# -- memoized fast-forward vs single-stepping ---------------------------------


def test_memoizer_fires_and_traces_bit_identical():
    program = assemble(ILP_LOOP, name="ilp-loop")
    step_stats = fast_stats = None
    step_m = fast_m = None
    for chunk_cycles in (4, DEFAULT_CHUNK_CYCLES):
        step_trace, step_stats, step_m = _run(program, "step",
                                              chunk_cycles)
        fast_trace, fast_stats, fast_m = _run(program, "fast",
                                              chunk_cycles)
        assert fast_trace == step_trace, chunk_cycles
        assert _content_stats(fast_stats) == _content_stats(step_stats)
    # The loop is compute-bound: the skipped cycles must come from the
    # memoizer, and the skip must not disturb architectural state.
    assert fast_stats.steady_state_iterations > 0
    assert fast_stats.steady_state_cycles > 0
    assert fast_stats.steady_state_cycles > fast_stats.cycles // 2
    assert fast_m.core.regs == step_m.core.regs
    assert fast_m.core.memory == step_m.core.memory


def test_paranoid_cross_check_clean():
    """Paranoid mode steps every memoized cycle for real and compares;
    a clean run certifies the projection on this program."""
    program = assemble(ILP_LOOP, name="ilp-loop")
    step_trace, _, _ = _run(program, "step")
    fast_trace, stats, _ = _run(program, "fast", paranoid=True)
    assert fast_trace == step_trace
    assert stats.steady_state_cycles > 0


def test_sampling_interrupt_lands_mid_period():
    """A perf sampling interrupt cuts memoized regions short (the skip
    never crosses ``schedule.next_sample``); traces must still match."""
    program = assemble(ILP_LOOP, name="ilp-loop")
    sampling = (1009, 2)  # prime period: samples drift across the loop
    step_trace, step_stats, _ = _run(program, "step",
                                     perf_sampling=sampling)
    fast_trace, fast_stats, _ = _run(program, "fast",
                                     perf_sampling=sampling)
    assert fast_trace == step_trace
    assert _content_stats(fast_stats) == _content_stats(step_stats)
    assert fast_stats.sampling_interrupts > 0
    assert fast_stats.steady_state_cycles > 0


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2), st.integers(120, 700), st.integers(2, 6),
       st.one_of(st.none(), st.integers(400, 1300)))
def test_random_loop_programs_v3_byte_identical(kind, iters, width,
                                                sample_period):
    """Loop-heavy generated workloads produce byte-identical v3 traces
    and content-identical stats fast-vs-step, with and without
    sampling interrupts."""
    if kind == 0:
        kernels = [k_int_ilp("ilp", iters, width=width)]
    elif kind == 1:
        kernels = [k_dep_chain("dep", iters, muls=1 + width % 4)]
    else:
        kernels = [k_int_ilp("ilp", iters, width=width),
                   k_dep_chain("dep", iters // 2, muls=2)]
    workload = build_workload("memo-fuzz", kernels)
    sampling = None if sample_period is None else (sample_period, 2)
    step_trace, step_stats, _ = _run(workload.program, "step",
                                     premapped=workload.premapped,
                                     perf_sampling=sampling)
    fast_trace, fast_stats, _ = _run(workload.program, "fast",
                                     premapped=workload.premapped,
                                     perf_sampling=sampling)
    assert fast_trace == step_trace
    assert _content_stats(fast_stats) == _content_stats(step_stats)


def test_sanitizer_accepts_memoized_run():
    """Memoized periods reach the sanitizer as blocks, which it checks
    record by record: the same number of cycles and commits as a
    single-stepped run."""
    program = assemble(ILP_LOOP, name="ilp-loop")

    def sanitized(sim):
        machine = Machine(program)
        sanitizer = TraceSanitizer()
        machine.attach(sanitizer)
        stats = machine.run(2_000_000, sim=sim)
        return sanitizer, stats

    stepped, step_stats = sanitized("step")
    batched, fast_stats = sanitized("fast")
    assert fast_stats.steady_state_cycles > 0
    assert not stepped.violations and not batched.violations
    assert batched.cycles_checked == stepped.cycles_checked
    assert batched.commits_checked == stepped.commits_checked


# -- a memoized-period block at the trace writer, in isolation ----------------


def _period_records(n=3, base_cycle=1, commits=True):
    return [make_record(
        base_cycle + i,
        committed=[(0x40 + 4 * i, False, False)] if commits else (),
        rob_head=0x40 + 4 * ((i + 1) % n),
        fetch_pc=0x80 + 4 * i) for i in range(n)]


@pytest.mark.parametrize("commits", (True, False))
@pytest.mark.parametrize("chunk_cycles", (1, 4, 5))
def test_on_cycle_run_matches_repeated_on_cycle(chunk_cycles, commits):
    """One block of a repeated period, built as the memoizer builds it,
    == n*repeats one-record blocks, with chunk boundaries landing
    mid-period (period 3)."""
    records = _period_records(commits=commits)
    n, repeats = len(records), 5

    stepped = io.BytesIO()
    writer = TraceWriterV3(stepped, 2, chunk_cycles=chunk_cycles)
    feed_records(writer, [make_record(0)])
    feed_records(writer, [shifted_record(records[t % n], n * (t // n))
                          for t in range(n * repeats)])
    writer.on_finish(n * repeats)

    batched = io.BytesIO()
    writer = TraceWriterV3(batched, 2, chunk_cycles=chunk_cycles)
    feed_records(writer, [make_record(0)])
    period = CycleBlock.from_runs([(r, 1) for r in records], 2)
    writer.on_block(CycleBlock.concat([(period, 0, n)] * repeats))
    writer.on_finish(n * repeats)
    assert stepped.getvalue() == batched.getvalue()

