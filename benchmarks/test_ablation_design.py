"""Ablations of the design choices DESIGN.md calls out.

Not paper figures -- these validate that the substrate's mechanisms are
load-bearing: the next-line prefetcher, memory-ordering speculation, the
flush refill penalty behind the Imagick second-order effect, and the
store write-buffer that produces the Store-stall cycle-stack component.
"""

from repro.core.samples import Category
from repro.cpu.config import CoreConfig
from repro.harness import default_profilers
from repro.workloads import (build_imagick, build_workload, k_icache,
                             k_stream_store)

from conftest import write_artifact


def _run(workload, config=None, period=31):
    from repro.harness import run_experiment
    return run_experiment(workload.program, default_profilers(period),
                          config=config,
                          premapped_data=workload.premapped)


def test_ablation_next_line_prefetcher(benchmark):
    """Disabling the L1 next-line prefetcher must slow a dependent
    sequential walk down and grow the load-stall component.  (On
    independent streams the 128-entry ROB already issues demand loads
    blocks ahead, so next-line prefetch is moot there -- the dependent
    walk is where it pays.)"""
    def _measure():
        from repro.workloads import k_pointer_chase
        workload = build_workload(
            "walk", [k_pointer_chase("k", 3000, 0x20_0000, 8192,
                                     sequential=True)])
        on = _run(workload, CoreConfig.boom_4wide())
        config_off = CoreConfig.boom_4wide()
        config_off.memory.next_line_prefetcher = False
        off = _run(workload, config_off)
        return on, off

    on, off = benchmark.pedantic(_measure, rounds=1, iterations=1)
    text = (f"== ablation: next-line prefetcher ==\n"
            f"cycles with prefetcher:    {on.stats.cycles}\n"
            f"cycles without prefetcher: {off.stats.cycles}\n"
            f"slowdown without: "
            f"{off.stats.cycles / on.stats.cycles:.2f}x")
    print("\n" + text)
    write_artifact("ablation_prefetcher.txt", text)
    assert off.stats.cycles > 1.1 * on.stats.cycles
    assert off.cycle_stack().fraction(Category.LOAD_STALL) > \
        on.cycle_stack().fraction(Category.LOAD_STALL)


def test_ablation_ordering_violations(benchmark):
    """With memory-dependence speculation disabled at detection level,
    no ordering mini-exceptions occur (and results stay correct because
    the detector is what guarantees replay)."""
    def _measure():
        from repro.isa import assemble
        from repro.cpu import Machine
        source = """
        .data 0x2100 0
        .func main
            addi x1, x0, 0x2000
            addi x9, x0, 60
        outer:
            lw   x2, 0x2100(x0)
            mul  x3, x2, x2
            mul  x3, x3, x3
            add  x4, x1, x3
            sw   x9, 0(x4)
            lw   x6, 0x2000(x0)
            addi x9, x9, -1
            bne  x9, x0, outer
            halt
        """
        program = assemble(source)
        machine = Machine(program,
                          premapped_data=[(0x2000, 0x2110)])
        machine.run()
        return machine.stats

    stats = benchmark.pedantic(_measure, rounds=1, iterations=1)
    text = (f"== ablation: memory-ordering speculation ==\n"
            f"ordering flushes taken: {stats.ordering_flushes}")
    print("\n" + text)
    write_artifact("ablation_ordering.txt", text)
    assert stats.ordering_flushes >= 1


def test_ablation_flush_refill_penalty(benchmark):
    """The Imagick speedup's second-order component scales with the
    front-end refill cost of a pipeline flush."""
    def _measure():
        speedups = {}
        for penalty in (0, 4, 10):
            config = CoreConfig.boom_4wide()
            config.flush_refill_penalty = penalty
            orig = _run(build_imagick(False, pixels=400,
                                      morph_iters=500), config)
            opt = _run(build_imagick(True, pixels=400,
                                     morph_iters=500), config)
            speedups[penalty] = orig.stats.cycles / opt.stats.cycles
        return speedups

    speedups = benchmark.pedantic(_measure, rounds=1, iterations=1)
    text = "== ablation: flush refill penalty vs Imagick speedup ==\n"
    text += "\n".join(f"penalty {p:>2}: speedup {s:.2f}x"
                      for p, s in speedups.items())
    print("\n" + text)
    write_artifact("ablation_flush_penalty.txt", text)
    assert speedups[0] < speedups[4] < speedups[10]
    assert speedups[0] > 1.2  # flushes hurt even with free refill


def test_ablation_store_buffer(benchmark):
    """A smaller store write-buffer increases Store-stall time on
    streaming stores (the source of Figure 7's Store component)."""
    def _measure():
        workload = build_workload(
            "stores", [k_stream_store("k", 1200, 0x80_0000,
                                      4 * 1024 * 1024)])
        fractions = {}
        for entries in (2, 8, 32):
            config = CoreConfig.boom_4wide()
            config.store_buffer_entries = entries
            result = _run(workload, config)
            fractions[entries] = result.cycle_stack().fraction(
                Category.STORE_STALL)
        return fractions

    fractions = benchmark.pedantic(_measure, rounds=1, iterations=1)
    text = "== ablation: store write-buffer size ==\n"
    text += "\n".join(f"{e:>2} entries: store-stall {f:.1%}"
                      for e, f in fractions.items())
    print("\n" + text)
    write_artifact("ablation_store_buffer.txt", text)
    assert fractions[2] > fractions[32]


def test_ablation_icache_footprint(benchmark):
    """Front-end drain time appears once the code footprint exceeds the
    32 KB L1 I-cache -- the mechanism behind the Drained state."""
    def _measure():
        fractions = {}
        # Enough iterations that the cold first pass is amortised; the
        # small footprint then runs from the L1I while the large one
        # keeps evicting itself.
        for funcs, insts, iters in ((6, 200, 40), (16, 520, 2)):
            workload = build_workload(
                f"code{funcs}", [k_icache("k", iters, funcs=funcs,
                                          insts_per_func=insts)])
            result = _run(workload)
            fractions[funcs * insts * 4] = \
                result.cycle_stack().fraction(Category.FRONTEND)
        return fractions

    fractions = benchmark.pedantic(_measure, rounds=1, iterations=1)
    text = "== ablation: code footprint vs front-end stalls ==\n"
    text += "\n".join(f"{size // 1024:>3} KB text: front-end {f:.1%}"
                      for size, f in fractions.items())
    print("\n" + text)
    write_artifact("ablation_icache.txt", text)
    small, large = sorted(fractions)
    assert fractions[large] > fractions[small] + 0.05
