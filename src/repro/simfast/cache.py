"""Content-addressed simulation cache.

A completed simulation is fully determined by the program (including
its pre-mapped data ranges), the core configuration, and the core-side
sampling schedule -- so its commit trace and final statistics can be
reused by any later run with the same inputs.  :class:`SimCache` stores
exactly that under ``~/.cache/repro`` (overridable via ``--cache-dir``
or ``$REPRO_CACHE_DIR``):

* the **key** is a SHA-256 over (program digest, config digest,
  sampling-schedule parameters, trace-format version, repro version) --
  any change to the simulator's inputs or to the code that could alter
  its output yields a fresh key, which is the whole invalidation story
  (bumping :data:`TRACE_FORMAT_VERSION` invalidates every v2-era
  entry, so mixed-version caches never hand back a stale format);
* each entry is a ``<key>.trace`` (columnar v3, written atomically by
  the path-mode :class:`~repro.cpu.tracefile.TraceWriterV3`, replayed
  zero-copy via mmap) plus a ``<key>.json`` sidecar holding the
  trace's SHA-256 checksum and the run's
  :class:`~repro.cpu.core.CoreStats`;
* every hit re-verifies the checksum (corrupt entries are evicted and
  treated as misses) and touches the trace's mtime, which drives the
  LRU size cap (:data:`DEFAULT_CACHE_BYTES`).

Runs that hit the ``max_cycles`` budget raise
:class:`~repro.cpu.core.MaxCyclesExceeded` before the writer finishes,
so truncated runs are never committed; a cached entry only hits when
its recorded cycle count fits the caller's budget.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import __version__
from ..cpu.config import CoreConfig
from ..cpu.core import CoreStats
from ..cpu.tracefile import TraceWriterV3
from ..isa.program import Program

#: Wire-format version of the cached traces (``TIPTRC03``).
TRACE_FORMAT_VERSION = 3

#: Default LRU size cap: 1 GiB of traces + sidecars.
DEFAULT_CACHE_BYTES = 1 << 30

#: Environment override for the cache root.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"


class CacheCorruptionWarning(UserWarning):
    """A cache entry passed its checksum but could not be replayed.

    The checksum guards byte integrity, not decodability: an entry
    written by a different producer, tampered with consistently
    (trace and sidecar together), or swapped underneath us between
    checksum verification and replay can still fail to decode.  The
    harness evicts such entries, emits this warning (printed to stderr
    by the default warning filters) and falls back to a fresh
    simulation instead of surfacing a bare traceback.
    """


def default_cache_root() -> str:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def program_digest(program: Program,
                   premapped: Optional[Sequence[Tuple[int, int]]] = None
                   ) -> str:
    """Digest of everything about *program* the simulator can observe."""
    h = hashlib.sha256()
    h.update(repr([(inst.op.name, inst.rd, tuple(inst.sources),
                    inst.imm, inst.addr)
                   for inst in program.instructions]).encode())
    h.update(repr(("entry", program.entry)).encode())
    # The data image by value, in image order, in one pass.  Pickle
    # round-trips it exactly (int, float and bool by opcode, ints of
    # any size, -0.0), so equal bytes mean equal images; nothing is
    # sorted, so an equal image built in another insertion order costs
    # a miss, never a wrong hit.
    h.update(pickle.dumps(program.data, protocol=5))
    h.update(repr(("premapped",
                   [tuple(span) for span in premapped or ()])).encode())
    return h.hexdigest()


def config_digest(config: CoreConfig) -> str:
    """Digest of the full core + memory-hierarchy configuration."""
    payload = json.dumps(asdict(config), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def simulation_key(program: Program, config: CoreConfig,
                   premapped: Optional[Sequence[Tuple[int, int]]] = None,
                   schedule: Optional[Tuple] = None) -> str:
    """Content key of a run (module-level form of ``SimCache.key_for``).

    *schedule* carries the core-side sampling-interrupt parameters
    (period, mode, seed) when one is attached, ``None`` otherwise;
    replay-side profiler schedules never enter the key because they do
    not influence the trace.  The job server uses this to coalesce
    duplicate submissions without instantiating a cache.
    """
    h = hashlib.sha256()
    h.update(program_digest(program, premapped).encode())
    h.update(config_digest(config).encode())
    h.update(repr(("schedule", schedule)).encode())
    h.update(repr(("format", TRACE_FORMAT_VERSION)).encode())
    h.update(repr(("repro", __version__)).encode())
    return h.hexdigest()


@dataclass
class CacheHit:
    """A verified cache entry ready for block-engine replay."""

    key: str
    trace_path: str
    stats: CoreStats


class SimCache:
    """Filesystem-backed, checksum-verified simulation result cache."""

    def __init__(self, root: Optional[str] = None,
                 max_bytes: int = DEFAULT_CACHE_BYTES):
        self.root = os.path.abspath(root or default_cache_root())
        self.max_bytes = max_bytes
        os.makedirs(self.root, exist_ok=True)

    # -- keys -----------------------------------------------------------------

    def key_for(self, program: Program, config: CoreConfig,
                premapped: Optional[Sequence[Tuple[int, int]]] = None,
                schedule: Optional[Tuple] = None) -> str:
        """Content key of a run.

        *schedule* carries the core-side sampling-interrupt parameters
        (period, mode, seed) when one is attached, ``None`` otherwise;
        replay-side profiler schedules never enter the key because they
        do not influence the trace.
        """
        return simulation_key(program, config, premapped, schedule)

    def _trace_path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.trace")

    def _meta_path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    # -- hits -----------------------------------------------------------------

    def lookup(self, key: str,
               max_cycles: Optional[int] = None) -> Optional[CacheHit]:
        """Return a verified entry, or ``None`` (miss).

        Misses include: no entry, an entry whose run needed more than
        *max_cycles* cycles (it could not have been produced under the
        caller's budget), and entries whose trace fails its recorded
        checksum -- those are evicted on the spot.
        """
        trace_path = self._trace_path(key)
        try:
            with open(self._meta_path(key), "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(meta, dict) or not os.path.exists(trace_path):
            return None
        if max_cycles is not None and meta.get("cycles", 0) > max_cycles:
            return None
        if _sha256_file(trace_path) != meta.get("sha256"):
            self.evict(key)
            return None
        os.utime(trace_path)  # LRU touch
        return CacheHit(key, trace_path,
                        CoreStats.from_dict(meta.get("stats", {})))

    # -- fills ----------------------------------------------------------------

    def open_writer(self, key: str, banks: int,
                    compress: bool = False) -> TraceWriterV3:
        """A path-mode (atomic) trace writer targeting this entry.

        Attach it to the machine for the run; on an aborted or failed
        run call :meth:`TraceWriterV3.abort` and nothing is cached.
        The entry only becomes visible once :meth:`commit` writes the
        checksummed sidecar.
        """
        return TraceWriterV3(self._trace_path(key), banks=banks,
                             compress=compress)

    def commit(self, key: str, stats: CoreStats,
               program_name: str = "") -> None:
        """Publish a filled entry: checksum the trace, write the meta."""
        meta = {
            "format": TRACE_FORMAT_VERSION,
            "version": __version__,
            "program": program_name,
            "cycles": stats.cycles,
            "stats": stats.to_dict(),
            "sha256": _sha256_file(self._trace_path(key)),
        }
        meta_path = self._meta_path(key)
        tmp = f"{meta_path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, meta_path)
        self._evict_lru()

    # -- maintenance ----------------------------------------------------------

    def keys(self) -> List[str]:
        return sorted(name[:-5] for name in os.listdir(self.root)
                      if name.endswith(".json"))

    def evict(self, key: str) -> None:
        for path in (self._meta_path(key), self._trace_path(key)):
            try:
                os.unlink(path)
            except OSError:
                pass

    def stats(self) -> Dict[str, Union[str, int]]:
        entries = 0
        total = 0
        for name in os.listdir(self.root):
            path = os.path.join(self.root, name)
            if name.endswith(".json"):
                entries += 1
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return {"root": self.root, "entries": entries, "bytes": total,
                "max_bytes": self.max_bytes}

    def clear(self) -> int:
        """Remove every entry (and stray temporaries); returns count."""
        removed = 0
        for name in os.listdir(self.root):
            if name.endswith((".json", ".trace", ".tmp")):
                try:
                    os.unlink(os.path.join(self.root, name))
                    removed += 1
                except OSError:
                    pass
        return removed

    def verify(self, remove: bool = False) -> Dict[str, bool]:
        """Checksum every entry; with *remove*, evict the bad ones.

        Orphan traces (no sidecar -- e.g. a crash between the trace
        rename and the meta write) count as bad entries.
        """
        results: Dict[str, bool] = {}
        for key in self.keys():
            trace_path = self._trace_path(key)
            try:
                with open(self._meta_path(key), "r",
                          encoding="utf-8") as fh:
                    meta = json.load(fh)
                ok = (isinstance(meta, dict)
                      and _sha256_file(trace_path) == meta.get("sha256"))
            except (OSError, ValueError):
                ok = False
            results[key] = ok
            if remove and not ok:
                self.evict(key)
        known = set(results)
        for name in os.listdir(self.root):
            if name.endswith(".trace") and name[:-6] not in known:
                results[name[:-6]] = False
                if remove:
                    self.evict(name[:-6])
        return results

    def _evict_lru(self) -> None:
        entries: List[Tuple[float, int, str]] = []
        total = 0
        for key in self.keys():
            size = 0
            mtime = 0.0
            for path in (self._trace_path(key), self._meta_path(key)):
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                size += stat.st_size
                mtime = max(mtime, stat.st_mtime)
            entries.append((mtime, size, key))
            total += size
        entries.sort()
        for _mtime, size, key in entries:
            if total <= self.max_bytes:
                break
            self.evict(key)
            total -= size

    def __repr__(self) -> str:
        return f"<SimCache {self.root}>"


def resolve_cache(cache: Union[None, bool, str, "os.PathLike[str]",
                               SimCache]) -> Optional[SimCache]:
    """Normalize the ``cache=`` argument accepted across the harness.

    ``None``/``False`` disable caching; ``True`` uses the default root;
    a path selects that root; a :class:`SimCache` passes through.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return SimCache()
    if isinstance(cache, SimCache):
        return cache
    return SimCache(os.fspath(cache))


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
