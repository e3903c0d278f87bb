"""The 27-benchmark synthetic suite (SPEC CPU2017 + PARSEC stand-ins).

One workload per benchmark in Figure 7, each built from kernels tuned to
land in the paper's class for that benchmark: *Compute*-intensive
benchmarks commit wide, *Flush*-intensive ones spend >3% of time on
mispredict/CSR flushes, and *Stall*-intensive ones are dominated by
load/store/ALU stalls and front-end drains.

The programs are synthetic: what matters for profiler-accuracy
experiments is the distribution of commit-stage states, not the original
program semantics (see DESIGN.md, substitutions).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from .generator import (Workload, build_workload, k_branchy, k_calls,
                        k_csr_flush, k_dep_chain, k_fault, k_fp_div, k_fp_ilp,
                        k_icache, k_int_ilp, k_pointer_chase, k_stream_load,
                        k_stream_store)

# Distinct data regions used by kernels within one workload.
BASE_A = 0x20_0000
BASE_B = 0x40_0000
BASE_C = 0x60_0000
BASE_D = 0x80_0000
FAULT_BASE = 0x200_0000
LOCK_BASE = 0x12_0000

KB = 1024
MB = 1024 * 1024

#: Benchmark -> class expected by the paper (Figure 7 grouping).
PAPER_CLASSES: Dict[str, str] = {
    "exchange2": "Compute", "x264": "Compute", "deepsjeng": "Compute",
    "namd": "Compute", "leela": "Compute", "swaptions": "Compute",
    "imagick": "Flush", "nab": "Flush", "perlbench": "Flush",
    "fluidanimate": "Flush", "blackscholes": "Flush", "povray": "Flush",
    "bodytrack": "Flush", "gcc": "Flush",
    "canneal": "Stall", "lbm": "Stall", "mcf": "Stall",
    "fotonik3d": "Stall", "bwaves": "Stall", "omnetpp": "Stall",
    "roms": "Stall", "streamcluster": "Stall", "xalancbmk": "Stall",
    "wrf": "Stall", "parest": "Stall", "cam4": "Stall",
    "cactuBSSN": "Stall",
}

#: All benchmark names in the paper's Figure 7 order.
BENCHMARKS: List[str] = list(PAPER_CLASSES)


def _scale(iters: int, scale: float) -> int:
    return max(8, int(iters * scale))


def _builders(scale: float) -> Dict[str, Callable[[], Workload]]:
    s = lambda iters: _scale(iters, scale)  # noqa: E731 - local shorthand

    return {
        # -- Compute-intensive ------------------------------------------------
        "exchange2": lambda: build_workload("exchange2", [
            k_int_ilp("solve", s(5000), width=7),
            k_calls("recurse", s(500), callees=3),
            k_branchy("validate", s(700), BASE_A, taken_bias=0.95),
        ], rounds=2, description="integer ILP + predictable control"),
        "x264": lambda: build_workload("x264", [
            k_int_ilp("sad", s(3500), width=6),
            k_stream_load("mc", s(700), BASE_A, 256 * KB, stride=16),
            k_calls("encode", s(350), callees=4),
        ], rounds=2, description="integer ILP + L2-resident streaming"),
        "deepsjeng": lambda: build_workload("deepsjeng", [
            k_int_ilp("eval", s(3000), width=6),
            k_branchy("search", s(600), BASE_A, taken_bias=0.8),
            k_dep_chain("hash", s(400), muls=2),
        ], rounds=2, description="integer ILP + search control flow"),
        "namd": lambda: build_workload("namd", [
            k_fp_ilp("forces", s(4500), width=4),
            k_stream_load("pairs", s(600), BASE_A, 256 * KB, stride=16,
                          fp=True),
        ], rounds=2, description="FP ILP molecular dynamics"),
        "leela": lambda: build_workload("leela", [
            k_int_ilp("playout", s(2800), width=6),
            k_calls("tree", s(700), callees=4),
            k_branchy("policy", s(450), BASE_A, taken_bias=0.85),
        ], rounds=2, description="integer ILP + tree calls"),
        "swaptions": lambda: build_workload("swaptions", [
            k_fp_ilp("hjm", s(3500), width=4),
            k_fp_div("discount", s(180), divs=1),
            k_int_ilp("paths", s(1200), width=5),
        ], rounds=2, description="FP ILP Monte Carlo"),

        # -- Flush-intensive --------------------------------------------------
        "imagick": lambda: build_workload("imagick", [
            k_csr_flush("resize", s(900), work=3),
            k_fp_ilp("filter", s(900), width=4),
            k_stream_load("pixels", s(250), BASE_A, 512 * KB, stride=16,
                          fp=True),
        ], rounds=2, description="CSR flushes around FP rounding"),
        "nab": lambda: build_workload("nab", [
            k_fp_ilp("mme", s(1800), width=4),
            k_csr_flush("round", s(350), work=2),
            k_fp_div("norm", s(150), divs=1),
        ], rounds=2, description="FP + rounding-mode flushes"),
        "perlbench": lambda: build_workload("perlbench", [
            k_branchy("interp", s(1900), BASE_A, taken_bias=0.5),
            k_calls("dispatch", s(400), callees=5),
            k_pointer_chase("symtab", s(130), BASE_C, 256 * KB // 8),
            k_int_ilp("regex", s(250), width=5),
        ], rounds=2, description="interpreter: mispredicts + calls"),
        "fluidanimate": lambda: build_workload("fluidanimate", [
            k_fp_ilp("density", s(1300), width=4),
            k_branchy("cells", s(900), BASE_A, taken_bias=0.6),
            k_stream_load("grid", s(350), BASE_B, 1 * MB, stride=16,
                          fp=True),
        ], rounds=2, description="FP + data-dependent cell tests"),
        "blackscholes": lambda: build_workload("blackscholes", [
            k_fp_ilp("bs", s(1500), width=4),
            k_fp_div("cndf", s(220), divs=2),
            k_csr_flush("round", s(280), work=2),
        ], rounds=2, description="FP pricing + rounding flushes"),
        "povray": lambda: build_workload("povray", [
            k_fp_ilp("shade", s(500), width=4),
            k_calls("trace", s(300), callees=5),
            k_branchy("intersect", s(1000), BASE_A, taken_bias=0.55),
            k_fp_div("refract", s(170), divs=1),
            k_stream_load("media", s(220), BASE_B, 2 * MB, stride=16,
                          fp=True),
        ], rounds=2, description="ray tracing: FP + branchy + calls"),
        "bodytrack": lambda: build_workload("bodytrack", [
            k_fp_ilp("likelihood", s(1100), width=4),
            k_branchy("particles", s(1000), BASE_A, taken_bias=0.55),
            k_stream_load("frames", s(300), BASE_B, 1 * MB, stride=16),
        ], rounds=2, description="vision: FP + mispredicted tests"),
        "gcc": lambda: build_workload("gcc", [
            k_branchy("parse", s(1300), BASE_A, taken_bias=0.5),
            k_pointer_chase("rtl", s(350), BASE_C, 32 * KB // 8),
            k_calls("passes", s(450), callees=5),
            k_int_ilp("fold", s(600), width=5),
            k_fault("mmap", 12, FAULT_BASE),
        ], rounds=2, description="compiler: mispredicts, pointers, faults"),

        # -- Stall-intensive --------------------------------------------------
        "canneal": lambda: build_workload("canneal", [
            k_pointer_chase("swap", s(750), BASE_C, 512 * KB // 8),
            k_branchy("accept", s(300), BASE_A, taken_bias=0.5),
        ], rounds=2, description="pointer chasing over a large netlist"),
        "lbm": lambda: build_workload("lbm", [
            k_stream_load("collide", s(2100), BASE_B, 4 * MB, stride=16,
                          fp=True),
            k_stream_store("propagate", s(420), BASE_D, 4 * MB, stride=16),
            k_fp_ilp("relax", s(420), width=4),
            k_dep_chain("site", s(170), muls=3),
        ], rounds=2, description="lattice Boltzmann streaming"),
        "mcf": lambda: build_workload("mcf", [
            k_pointer_chase("arcs", s(600), BASE_C, 2 * MB // 8),
            k_branchy("pricing", s(350), BASE_A, taken_bias=0.6),
        ], rounds=2, description="network simplex pointer chasing"),
        "fotonik3d": lambda: build_workload("fotonik3d", [
            k_stream_load("sweep", s(1800), BASE_B, 4 * MB, stride=16,
                          fp=True),
            k_fp_ilp("update", s(500), width=4),
        ], rounds=2, description="FDTD streaming sweeps"),
        "bwaves": lambda: build_workload("bwaves", [
            k_stream_load("flux", s(1500), BASE_B, 4 * MB, stride=16,
                          fp=True),
            k_fp_div("jacobi", s(120), divs=1),
            k_fp_ilp("rhs", s(500), width=4),
        ], rounds=2, description="CFD streaming + FP"),
        "omnetpp": lambda: build_workload("omnetpp", [
            k_pointer_chase("events", s(450), BASE_C, 1 * MB // 8),
            k_calls("deliver", s(450), callees=4),
            k_branchy("gates", s(500), BASE_A, taken_bias=0.6),
        ], rounds=2, description="discrete-event pointer chasing"),
        "roms": lambda: build_workload("roms", [
            k_stream_load("ocean", s(1300), BASE_B, 2 * MB, stride=16,
                          fp=True),
            k_stream_store("tides", s(350), BASE_D, 2 * MB, stride=16),
            k_fp_ilp("step", s(500), width=4),
        ], rounds=2, description="ocean model streaming"),
        "streamcluster": lambda: build_workload("streamcluster", [
            k_stream_load("dist", s(1800), BASE_B, 4 * MB, stride=16),
            k_int_ilp("centers", s(500), width=5),
        ], rounds=2, description="clustering distance streaming"),
        "xalancbmk": lambda: build_workload("xalancbmk", [
            k_icache("transform", s(2), funcs=14, insts_per_func=520),
            k_pointer_chase("dom", s(400), BASE_C, 512 * KB // 8),
            k_calls("templates", s(400), callees=5),
            k_fault("alloc", 10, FAULT_BASE),
        ], rounds=2, description="XSLT: code footprint + pointers"),
        "wrf": lambda: build_workload("wrf", [
            k_stream_load("physics", s(1900), BASE_B, 2 * MB, stride=16,
                          fp=True),
            k_fp_ilp("dynamics", s(300), width=4),
            k_icache("modules", s(1), funcs=8, insts_per_func=200),
        ], rounds=2, description="weather model: streams + code"),
        "parest": lambda: build_workload("parest", [
            k_stream_load("assemble", s(1000), BASE_B, 1 * MB, stride=16,
                          fp=True),
            k_fp_ilp("solve", s(800), width=4),
            k_fp_div("precond", s(150), divs=1),
        ], rounds=2, description="FEM solver"),
        "cam4": lambda: build_workload("cam4", [
            k_stream_load("column", s(1700), BASE_B, 2 * MB, stride=16,
                          fp=True),
            k_fp_ilp("radiation", s(260), width=4),
            k_icache("physics", s(1), funcs=8, insts_per_func=200),
            k_branchy("convect", s(350), BASE_A, taken_bias=0.7),
        ], rounds=2, description="atmosphere model"),
        "cactuBSSN": lambda: build_workload("cactuBSSN", [
            k_fp_div("rhs", s(250), divs=2),
            k_fp_ilp("stencil", s(700), width=4),
            k_stream_load("grid", s(900), BASE_B, 4 * MB, stride=16,
                          fp=True),
            k_dep_chain("bssn", s(200), muls=3),
        ], rounds=2, description="numerical relativity stencils"),
    }


def workload_names() -> List[str]:
    """All 27 benchmark names in Figure 7 order."""
    return list(BENCHMARKS)


def build(name: str, scale: float = 1.0) -> Workload:
    """Build one named benchmark at *scale* (iteration multiplier)."""
    builders = _builders(scale)
    if name not in builders:
        raise ValueError(f"unknown benchmark {name!r}; "
                         f"choose from {sorted(builders)}")
    return builders[name]()


def build_suite(names: Optional[Sequence[str]] = None,
                scale: float = 1.0) -> List[Workload]:
    """Build the whole suite (or a subset)."""
    return [build(name, scale) for name in (names or BENCHMARKS)]
