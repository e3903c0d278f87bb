"""Simulation fast path: stall fast-forwarding + result caching.

Three layers make re-running experiments cheap (see ``docs/simfast.md``):

* the **event-driven stall fast-forward** lives inside
  :class:`repro.cpu.core.Core` (``sim="fast"``) and hands each run of
  provably quiescent cycles -- like each run of memoized loop periods
  (:mod:`repro.cpu.memo`) -- to observers as one columnar block through
  :meth:`~repro.cpu.trace.TraceObserver.on_block`;
* **micro-op recycling** (:class:`repro.cpu.MicroOpPool`) removes the
  per-fetch allocation cost;
* the **content-addressed simulation cache** (:class:`SimCache`) stores
  the v3 trace of a completed run keyed by everything that determines
  it, so identical re-runs replay its columnar blocks instead of
  simulating.

All three produce results bit-identical to single-stepping -- the same
traces and the same profiler reports, floating point included.
"""

from .bench import render_sim_bench, run_sim_bench
from .cache import (DEFAULT_CACHE_BYTES, CacheCorruptionWarning, CacheHit,
                    SimCache, default_cache_root, resolve_cache,
                    simulation_key)

__all__ = [
    "CacheCorruptionWarning", "CacheHit", "DEFAULT_CACHE_BYTES",
    "SimCache", "default_cache_root", "render_sim_bench",
    "resolve_cache", "run_sim_bench", "simulation_key",
]
