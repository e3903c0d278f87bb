"""Workload generator and suite tests."""

import pytest

from repro.harness import default_profilers, run_workload
from repro.workloads.generator import (build_workload, k_branchy, k_csr_flush,
                                       k_fault, k_icache, k_int_ilp,
                                       k_pointer_chase, k_serialize,
                                       k_stream_load, k_stream_store)
from repro.workloads.suite import (BENCHMARKS, PAPER_CLASSES, build,
                                   build_suite, workload_names)


def _run(workload, period=31):
    return run_workload(workload, default_profilers(period))


def test_suite_has_27_benchmarks():
    assert len(BENCHMARKS) == 27
    assert workload_names() == BENCHMARKS
    assert set(PAPER_CLASSES.values()) == {"Compute", "Flush", "Stall"}


def test_unknown_benchmark_raises():
    with pytest.raises(ValueError, match="unknown benchmark"):
        build("nonesuch")


def test_all_workloads_assemble():
    for name in BENCHMARKS:
        workload = build(name, scale=0.05)
        assert len(workload.program) > 10
        assert workload.program.functions


def test_build_suite_subset():
    suite = build_suite(["lbm", "mcf"], scale=0.05)
    assert [w.name for w in suite] == ["lbm", "mcf"]


def test_int_ilp_kernel_runs_wide():
    workload = build_workload("t", [k_int_ilp("k", 2000, width=7)])
    result = _run(workload)
    assert result.stats.ipc > 1.8


def test_pointer_chase_kernel_is_slow():
    workload = build_workload(
        "t", [k_pointer_chase("k", 500, 0x20_0000, 64 * 1024)])
    result = _run(workload)
    assert result.stats.ipc < 0.5
    from repro.core.samples import Category
    stack = result.cycle_stack()
    assert stack.fraction(Category.LOAD_STALL) > 0.4


def test_pointer_chase_visits_whole_cycle():
    kernel = k_pointer_chase("k", 10, 0x1000, 16, seed=1)
    # The data words form one cycle over all 16 entries.
    seen = set()
    addr = 0x1000
    for _ in range(16):
        seen.add(addr)
        addr = int(kernel.data[addr])
    assert len(seen) == 16
    assert addr == 0x1000


def test_csr_flush_kernel_flushes():
    workload = build_workload("t", [k_csr_flush("k", 300)])
    result = _run(workload)
    assert result.stats.csr_flushes >= 600  # frflags + fsflags per iter
    from repro.core.samples import Category
    assert result.cycle_stack().fraction(Category.MISC_FLUSH) > 0.1


def test_branchy_kernel_mispredicts():
    workload = build_workload(
        "t", [k_branchy("k", 1500, 0x20_0000, taken_bias=0.5)])
    result = _run(workload)
    assert result.stats.branch_mispredicts > 150


def test_branchy_biased_predictable():
    workload = build_workload(
        "t", [k_branchy("k", 1500, 0x20_0000, taken_bias=1.0)])
    result = _run(workload)
    assert result.stats.branch_mispredicts < 100


def test_fault_kernel_takes_page_faults():
    workload = build_workload("t", [k_fault("k", 8, 0x200_0000)])
    result = _run(workload)
    assert result.stats.exceptions == 8  # one first-touch fault per page


def test_fault_pages_stay_mapped_across_rounds():
    workload = build_workload("t", [k_fault("k", 8, 0x200_0000)], rounds=2)
    result = _run(workload)
    assert result.stats.exceptions == 8  # second round faults nothing


def test_serialize_kernel():
    workload = build_workload(
        "t", [k_serialize("k", 100, 0x12_0000)], rounds=1)
    result = _run(workload)
    assert result.stats.cycles > 100 * 10  # full drains per iteration


def test_stream_store_kernel_generates_store_stalls():
    workload = build_workload(
        "t", [k_stream_store("k", 1200, 0x80_0000, 4 * 1024 * 1024)],
        rounds=1)
    result = _run(workload)
    from repro.core.samples import Category
    assert result.cycle_stack().fraction(Category.STORE_STALL) > 0.2


def test_icache_kernel_has_frontend_stalls():
    workload = build_workload(
        "t", [k_icache("k", 2, funcs=14, insts_per_func=520)], rounds=1)
    result = _run(workload)
    from repro.core.samples import Category
    assert result.cycle_stack().fraction(Category.FRONTEND) > 0.1


def test_workload_premapped_regions_propagate():
    workload = build_workload(
        "t", [k_stream_load("k", 100, 0x20_0000, 64 * 1024)])
    assert (0x20_0000, 0x20_0000 + 64 * 1024) in workload.premapped


def test_rounds_multiply_work():
    one = build_workload("t", [k_int_ilp("k", 500)], rounds=1)
    two = build_workload("t2", [k_int_ilp("k", 500)], rounds=2)
    r1 = _run(one)
    r2 = _run(two)
    assert r2.stats.committed > 1.8 * r1.stats.committed


def test_recursive_kernel_returns_correctly():
    from repro.workloads import k_recursive
    workload = build_workload("t", [k_recursive("k", 150, depth=10)])
    result = _run(workload)
    # Every call returns: the program halts and commits all levels
    # (each iteration runs ~10 levels x ~6 instructions).
    assert result.stats.committed > 150 * 30
    # Deep call/return chains stay well-predicted via the RAS.
    mispredict_rate = (result.stats.branch_mispredicts
                       / max(result.stats.committed, 1))
    assert mispredict_rate < 0.02
