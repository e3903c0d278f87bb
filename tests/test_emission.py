"""The core's live emission contract.

A live run hands observers columnar blocks only: the core appends every
stepped cycle and stall run to one open block, which closes every
``DEFAULT_CHUNK_CYCLES`` cycles, before a memoized period, when the run
ends and before any exception leaves ``Core.run``.  Where those
boundaries fall must not change a single result.
"""

import io

import pytest

import repro.cpu.core as core_module
from repro.analysis.profiles import profile_checksum
from repro.core.oracle import OracleProfiler
from repro.core.profiler import SamplingProfiler
from repro.cpu import (Machine, MaxCyclesExceeded, TraceCollector,
                       TraceWriterV3)
from repro.fastpath import CycleBlock
from repro.harness.experiment import POLICIES, ProfilerConfig
from repro.harness.runner import run_workload
from repro.lint.sanitizer import TraceInvariantError, TraceSanitizer
from repro.simfast import SimCache
from repro.workloads import build_imagick
from repro.workloads.suite import build

from conftest import oracle_tables

ALL = [ProfilerConfig(policy, 13) for policy in POLICIES]


def _refuse(self, record):
    raise AssertionError("a live run called on_cycle")


@pytest.mark.parametrize("sim", ["step", "fast"])
@pytest.mark.parametrize("name", ["exchange2", "mcf"])
def test_live_runs_never_call_on_cycle(name, sim, tmp_path, monkeypatch):
    for cls in (SamplingProfiler, OracleProfiler, TraceWriterV3):
        monkeypatch.setattr(cls, "on_cycle", _refuse)
    cache = SimCache(str(tmp_path))
    result = run_workload(build(name, 0.05), profilers=ALL, sim=sim,
                          cache=cache)
    assert not result.cached
    assert all(profiler.samples for profiler in result.profilers.values())
    assert len(cache.keys()) == 1


@pytest.mark.parametrize("sim", ["step", "fast"])
@pytest.mark.parametrize("name", ["exchange2", "mcf"])
def test_sanitized_live_runs_materialize_no_record(name, sim, monkeypatch):
    """The sanitizer checks a live run's block columns: no cycle of it
    becomes a ``CycleRecord``, and every cycle is checked."""
    def refuse(self, i):
        raise AssertionError("a live run materialized a CycleRecord")
    monkeypatch.setattr(CycleBlock, "record", refuse)
    result = run_workload(build(name, 0.05), profilers=ALL, sim=sim,
                          sanitize=True)
    assert result.sanitizer.ok
    assert result.sanitizer.cycles_checked == result.stats.cycles


def _observed(workload, sim):
    """Everything a run's observers produced, plus its stats."""
    machine = Machine(workload.program, None, workload.premapped)
    oracle = OracleProfiler(machine.image)
    profilers = [config.build(machine.image) for config in ALL]
    stream = io.BytesIO()
    writer = TraceWriterV3(stream, banks=machine.config.rob_banks)
    for observer in [oracle, *profilers, writer]:
        machine.attach(observer)
    stats = machine.run(sim=sim)
    return (oracle_tables(oracle.report),
            [profile_checksum(p.samples) for p in profilers],
            stream.getvalue(), stats.to_dict())


@pytest.mark.parametrize("sim", ["step", "fast"])
@pytest.mark.parametrize("name", ["exchange2", "mcf", "imagick-orig"])
def test_block_boundaries_change_nothing(name, sim, monkeypatch):
    workload = (build_imagick(pixels=40, morph_iters=80)
                if name == "imagick-orig" else build(name, 0.05))
    reference = _observed(workload, sim)
    if sim == "fast":
        stats = reference[3]
        assert stats["fast_forwarded"] > 0
        if name == "exchange2":
            assert stats["steady_state_cycles"] > 0
    for cap in (1, 5, 64):
        monkeypatch.setattr(core_module, "DEFAULT_CHUNK_CYCLES", cap)
        assert _observed(workload, sim) == reference, cap


def test_open_block_fault_surfaces_before_max_cycles():
    workload = build("mcf", 0.05)
    machine = Machine(workload.program, None, workload.premapped)
    # A sanitizer that allows one commit a cycle sees the first wider
    # commit group as an S002 fault.
    sanitizer = TraceSanitizer(program=machine.image, commit_width=1,
                               banks=machine.config.rob_banks)
    machine.attach(sanitizer)
    reference = Machine(workload.program, None, workload.premapped)
    collector = TraceCollector()
    reference.attach(collector)
    with pytest.raises(MaxCyclesExceeded):
        reference.run(500)
    fault = next(record.cycle for record in collector
                 if len(record.committed) > 1)
    assert fault < 500 < core_module.DEFAULT_CHUNK_CYCLES
    with pytest.raises(TraceInvariantError) as excinfo:
        machine.run(500)
    assert excinfo.value.diagnostic.rule == "S002"
    assert excinfo.value.diagnostic.cycle == fault
    assert isinstance(excinfo.value.__context__, MaxCyclesExceeded)
