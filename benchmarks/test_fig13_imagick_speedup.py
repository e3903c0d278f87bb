"""Figure 13: Imagick original vs optimized time breakdown, and the
1.93x speedup.

Paper: replacing frflags/fsflags with nops eliminates the Misc. flush
time entirely, and the speedup (1.93x) far exceeds the Amdahl estimate
from the flush time alone (1.28x) because removing the flushes restores
the processor's ability to hide latencies; IPC improves from 1.2 to 2.3
and the caller MeanShiftImage gets faster too.
"""

from repro.analysis import render_stacks_table
from repro.core.samples import Category

from conftest import write_artifact

HOT_FUNCTIONS = ["MeanShiftImage", "floor", "ceil", "MorphologyApply"]


def _breakdown(orig, opt):
    rows = {}
    for label, result in (("Orig.", orig), ("Opt.", opt)):
        stacks = result.function_stacks()
        for func in HOT_FUNCTIONS:
            rows[f"{func} ({label})"] = stacks[func]
    return rows


def test_fig13_imagick_speedup(benchmark, imagick_pair):
    orig, opt = imagick_pair
    rows = benchmark.pedantic(_breakdown, args=(orig, opt), rounds=1,
                              iterations=1)
    text = render_stacks_table(
        rows, title="Figure 13: per-function time breakdown")
    speedup = orig.stats.cycles / opt.stats.cycles
    flush_fraction = orig.cycle_stack().fraction(Category.MISC_FLUSH)
    amdahl = 1.0 / (1.0 - flush_fraction)
    text += (f"\nspeedup: {speedup:.2f}x (paper: 1.93x); "
             f"Amdahl estimate from flush time alone: {amdahl:.2f}x; "
             f"IPC {orig.stats.ipc:.2f} -> {opt.stats.ipc:.2f} "
             "(paper: 1.2 -> 2.3)")
    print("\n" + text)
    write_artifact("fig13_imagick_speedup.txt", text)

    # The headline speedup, same ballpark as the paper's 1.93x.
    assert 1.6 <= speedup <= 2.4
    # Second-order effect: speedup beats the Amdahl estimate.
    assert speedup > amdahl + 0.2
    # Flush time disappears entirely in the optimized version.
    orig_stacks = {f: rows[f"{f} (Orig.)"] for f in HOT_FUNCTIONS}
    opt_stacks = {f: rows[f"{f} (Opt.)"] for f in HOT_FUNCTIONS}
    for func in ("ceil", "floor"):
        assert orig_stacks[func].totals.get(Category.MISC_FLUSH, 0) > 0
        assert opt_stacks[func].totals.get(Category.MISC_FLUSH, 0) == 0
    # IPC improves substantially (paper: 1.2 -> 2.3).
    assert opt.stats.ipc > 1.5 * orig.stats.ipc
    # The caller speeds up too (reduced stalls carry over).
    orig_msi = orig_stacks["MeanShiftImage"].total
    opt_msi = opt_stacks["MeanShiftImage"].total
    assert opt_msi < orig_msi
    # MorphologyApply is untouched by the fix: its time barely moves.
    morph_ratio = (opt_stacks["MorphologyApply"].total
                   / orig_stacks["MorphologyApply"].total)
    assert 0.8 <= morph_ratio <= 1.2
