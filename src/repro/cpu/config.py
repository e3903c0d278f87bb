"""Core configuration (Table 1 of the paper).

:meth:`CoreConfig.boom_4wide` reproduces the simulated BOOM configuration
the paper evaluates; :meth:`CoreConfig.tiny` is a scaled-down core used by
unit tests where tiny structures make the interesting corner cases (full
ROB, full issue queues, drains) easy to trigger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mem.hierarchy import MemoryConfig


@dataclass
class CoreConfig:
    """Parameters of the out-of-order core."""

    # Front-end.
    fetch_width: int = 8
    fetch_buffer_entries: int = 32
    decode_width: int = 4
    frontend_latency: int = 3
    btb_entries: int = 512
    btb_miss_penalty: int = 2
    ras_entries: int = 16
    max_outstanding_branches: int = 20

    # Back-end.
    rob_entries: int = 128
    commit_width: int = 4
    int_iq_entries: int = 40
    int_issue_width: int = 4
    mem_iq_entries: int = 24
    mem_issue_width: int = 2
    fp_iq_entries: int = 32
    fp_issue_width: int = 2

    # LSU.
    load_queue_entries: int = 16
    store_queue_entries: int = 16
    store_forward_latency: int = 2
    #: Committed stores draining to the cache concurrently; a full buffer
    #: stalls further stores at the head of the ROB.
    store_buffer_entries: int = 8

    # Behavioural knobs.
    enable_ordering_violations: bool = True
    agu_latency: int = 1
    #: Extra front-end refill cycles after a full pipeline flush (CSR
    #: commit, sret, exception, memory-ordering replay).  Mispredict
    #: recovery resteers earlier and does not pay this.
    flush_refill_penalty: int = 4

    # Memory system.
    memory: MemoryConfig = field(default_factory=MemoryConfig)

    def __post_init__(self) -> None:
        if self.commit_width != self.decode_width:
            raise ValueError("ROB banking requires commit width == "
                             "decode width")
        if self.rob_entries % self.commit_width != 0:
            raise ValueError("ROB entries must be a multiple of the "
                             "commit width")

    @property
    def rob_banks(self) -> int:
        """Number of ROB banks (equals the commit width on BOOM)."""
        return self.commit_width

    @classmethod
    def boom_4wide(cls) -> "CoreConfig":
        """The paper's 4-wide BOOM configuration (Table 1)."""
        return cls()

    @classmethod
    def tiny(cls) -> "CoreConfig":
        """A 2-wide core with small structures, for unit tests."""
        return cls(fetch_width=4, fetch_buffer_entries=8, decode_width=2,
                   commit_width=2, frontend_latency=2, rob_entries=16,
                   int_iq_entries=8, int_issue_width=2, mem_iq_entries=6,
                   mem_issue_width=1, fp_iq_entries=6, fp_issue_width=1,
                   load_queue_entries=4, store_queue_entries=4,
                   max_outstanding_branches=8)
