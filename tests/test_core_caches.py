"""The core's per-cycle caches equal what they replace.

Three caches make a stepped cycle cheaper without changing a simulated
bit: each queued uop's ready cycle (``MicroOp.ready_cycle``), the fetch
group of each PC (``Core._fetch_group``) and the TAGE history folds
(``TagePredictor.predict``).  Each is checked here against the plain
computation it replaces, kept test-side as the reference.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.branch import TagePredictor
from repro.cpu.config import CoreConfig
from repro.cpu.core import Core
from repro.cpu.machine import Machine
from repro.cpu.memo import LoopMemoizer
from repro.isa.assembler import assemble
from repro.workloads.suite import build_suite

from test_differential import DATA_BASE, DATA_WORDS
from test_simfast import MEMOIZED_AT_SMALL_SCALE, _random_program


# -- ready cycles -------------------------------------------------------------


def _sources_ready(uop, cycle: int) -> bool:
    """The issue readiness rule before ``ready_cycle``: polled on every
    visit, producer by producer."""
    for producer in uop.src_uops:
        if producer is None:
            continue
        if not producer.done_by(cycle):
            return False
        if producer.fault_vpn is not None:
            # A faulting producer never broadcasts a result; its
            # consumers wait and are squashed when the exception
            # fires at the head of the ROB.
            return False
    return True


def _recomputed_ready(uop) -> int:
    """The ready cycle of *uop* from its producers, without caching:
    -1 while a producer has not executed or has faulted."""
    ready = 0
    for producer in uop.src_uops:
        if producer is None:
            continue
        if not producer.executed or producer.fault_vpn is not None:
            return -1
        ready = max(ready, producer.done_cycle)
    return ready


def _queued(core: Core):
    return [uop for iq in (core.int_iq, core.mem_iq, core.fp_iq)
            for uop in iq]


def _random_machine(seed: int, config=None) -> Machine:
    return Machine(_random_program(seed), config=config, premapped_data=[
        (DATA_BASE, DATA_BASE + 8 * DATA_WORDS)])


@pytest.mark.parametrize("sim", ["step", "fast"])
@pytest.mark.parametrize("seed,config", [
    (0, None), (1, None), (2, None), (3, CoreConfig.tiny())])
def test_ready_cycle_matches_polled_readiness(monkeypatch, seed, config,
                                              sim):
    """At every issue stage, each queued uop is ready by its (cached or
    first computed) ready cycle exactly when polling its producers
    says so."""
    issue_stage = Core._issue_stage
    seen = set()

    def checked_issue_stage(core, cycle):
        for uop in _queued(core):
            ready = uop.ready_cycle
            if ready < 0:
                ready = uop.sources_ready_at()
            assert (0 <= ready <= cycle) == _sources_ready(uop, cycle), \
                f"{uop!r} at cycle {cycle}: ready_cycle {ready}"
            seen.add(ready >= 0)
        issue_stage(core, cycle)

    monkeypatch.setattr(Core, "_issue_stage", checked_issue_stage)
    machine = _random_machine(seed, config)
    machine.run(2_000_000, sim=sim)
    assert machine.core.halted
    assert seen == {True, False}  # some producers were still in flight


#: Each ``add`` waits only on its 16-cycle ``div``, so at any instant
#: several queued adds hold a cached ready cycle in the future -- the
#: values a memoized skip must shift.
DIV_LOOP = """
.func main
    addi x1, x0, 0
    addi x2, x0, 300
    addi x5, x0, 3
loop:
    div  x6, x1, x5
    add  x7, x6, x5
    addi x1, x1, 1
    bne  x1, x2, loop
    sw   x7, 0x3000(x0)
    halt
"""


def _machines_with_skips():
    for name in MEMOIZED_AT_SMALL_SCALE:
        workload, = build_suite([name], scale=0.05)
        yield name, lambda w=workload: Machine(
            w.program, premapped_data=w.premapped)
    yield "div-loop", lambda: Machine(assemble(DIV_LOOP, name="div-loop"),
                                      premapped_data=[(0x3000, 0x3008)])


@pytest.mark.parametrize("name,make", list(_machines_with_skips()))
def test_memoized_skip_shifts_ready_cycles(monkeypatch, name, make):
    """A skip re-times every in-flight uop; a cached ready cycle must
    move with the ``done_cycle`` of the producers it came from."""
    apply_skip = LoopMemoizer._apply_skip
    beyond = []

    def checked_apply_skip(memo, plan, *args):
        before = memo.core.cycle
        apply_skip(memo, plan, *args)
        for uop in _queued(memo.core):
            assert uop.ready_cycle in (-1, _recomputed_ready(uop)), uop
            beyond.append(uop.ready_cycle > before)

    stepped = make().run(sim="step")
    monkeypatch.setattr(LoopMemoizer, "_apply_skip", checked_apply_skip)
    stats = make().run(sim="fast")
    assert stats.steady_state_cycles > 0
    assert (stats.cycles, stats.committed) == \
        (stepped.cycles, stepped.committed)
    if name == "div-loop":
        assert True in beyond  # some cached cycle lay beyond the skip


FAULTING_PRODUCER = """
.func main
    ld   x2, 0x100000(x0)
    add  x3, x2, x2
    add  x4, x3, x2
    sw   x4, 0x3000(x0)
    halt
"""


@pytest.mark.parametrize("sim", ["step", "fast"])
def test_faulting_producer_never_readies_consumers(monkeypatch, sim):
    """A load that page-faults executes, but its consumers never become
    ready: they wait until the exception squashes them."""
    issue_stage = Core._issue_stage
    blocked = []

    def checked_issue_stage(core, cycle):
        waiting = [uop for uop in _queued(core)
                   if any(p is not None and p.fault_vpn is not None
                          for p in uop.src_uops)]
        for uop in waiting:
            assert uop.ready_cycle == -1 and uop.sources_ready_at() == -1
        issue_stage(core, cycle)
        assert not any(uop.issued for uop in waiting)
        blocked.extend(waiting)

    monkeypatch.setattr(Core, "_issue_stage", checked_issue_stage)
    machine = Machine(assemble(FAULTING_PRODUCER, name="fault"),
                      premapped_data=[(0x3000, 0x3008)])
    stats = machine.run(sim=sim)
    assert stats.exceptions == 1
    assert blocked
    assert machine.core.memory[0x3000] == 0  # x4 = 3 * the loaded 0


# -- fetch groups -------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([16, 32, 64]))
def test_fetch_group_is_the_straight_line_run(seed, block_size):
    """Each group is the chain of ``program.fetch(next_addr)`` from its
    PC, stays in one cache block, holds a control instruction only as
    its last element, and ends only where one of those rules (or the
    end of the text) ends it."""
    config = CoreConfig()
    config.memory.block_size = block_size
    program = _random_machine(seed).image
    core = Core(program, config)
    for pc in [inst.addr for inst in program.instructions] + [
            program.text_lo - 4, program.text_hi + 4]:
        group = core._fetch_group(pc)
        if program.fetch(pc) is None:
            assert group == ()
            continue
        assert group[0] is program.fetch(pc)
        for inst, nxt in zip(group, group[1:]):
            assert nxt is program.fetch(inst.next_addr)
            assert not inst.is_control
        assert {inst.addr // block_size for inst in group} == \
            {pc // block_size}
        last = group[-1]
        assert (last.is_control
                or last.next_addr // block_size != pc // block_size
                or program.fetch(last.next_addr) is None)


# -- TAGE folds ---------------------------------------------------------------


def _reference_predict(predictor: TagePredictor, pc: int) -> tuple:
    """The TAGE lookup before the fold cache: every table indexed and
    tagged with ``_TaggedTable.index``/``tag`` (no side effects)."""
    provider = -1
    taken = predictor.base[(pc >> 2) % len(predictor.base)] >= 2
    for i, table in enumerate(predictor.tables):
        idx = table.index(pc, predictor.history)
        if table.valid[idx] and \
                table.tags[idx] == table.tag(pc, predictor.history):
            taken = table.counters[idx] >= 4
            provider = i
    return taken, provider, predictor.history


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 12), st.integers(0, 4))
def test_tage_predict_equals_reference(seed, branches, lag):
    """Lookups interleave with commits as in the core: a prediction is
    trained up to *lag* lookups later, so several lookups share one
    history value.  Loop-like outcomes (each branch falls through once
    per trip, with some noise) make the tagged tables provide."""
    rng = random.Random(seed)
    pcs = [0x10000 + 4 * rng.randrange(1024) for _ in range(branches)]
    trips = [rng.randint(2, 9) for _ in pcs]
    counts = [0] * branches
    predictor = TagePredictor()
    pending = []
    providers = set()
    for step in range(600):
        b = step % branches
        pc = pcs[b]
        counts[b] += 1
        taken = counts[b] % trips[b] != 0
        if rng.random() < 0.05:
            taken = not taken
        expected = _reference_predict(predictor, pc)
        prediction = predictor.predict(pc)
        assert (prediction.taken, prediction.provider,
                prediction.history) == expected
        providers.add(prediction.provider)
        pending.append((pc, taken, prediction))
        while len(pending) > rng.randint(0, lag):
            branch_pc, outcome, made = pending.pop(0)
            predictor.update(branch_pc, outcome, made)
    assert providers - {-1}  # the tagged tables were consulted and hit
