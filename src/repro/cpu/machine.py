"""Machine: core + memory hierarchy + kernel, booted and ready to run.

This is the top-level simulation entry point::

    machine = Machine(program)
    machine.attach(profiler)
    stats = machine.run()
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..isa.program import Program
from ..kernel import Kernel
from ..mem.hierarchy import MemoryHierarchy
from .config import CoreConfig
from .core import STEP_SIM, Core, CoreStats
from .trace import TraceObserver


class Machine:
    """A booted single-core machine running *program* to completion.

    *perf_sampling* optionally enables real interrupt-driven sample
    collection (the Section 3.2 overhead experiment): a ``(period,
    payload_words)`` pair makes the core trap every *period* cycles to a
    generated handler that stores ``40 B + 8 * payload_words`` to the
    perf buffer and returns.

    *image* is *program* already linked by :meth:`Kernel.link`, from a
    caller that needed the image before the machine; the kernel boots
    it without linking again.
    """

    def __init__(self, program: Program,
                 config: Optional[CoreConfig] = None,
                 premapped_data: Optional[List[Tuple[int, int]]] = None,
                 perf_sampling: Optional[Tuple[int, int]] = None,
                 image: Optional[Program] = None):
        self.config = config or CoreConfig.boom_4wide()
        self.kernel = Kernel()
        image = self.kernel.boot(program, premapped_data, image)

        perf_handler = None
        if perf_sampling is not None:
            from ..kernel.perf_handler import (PERF_BUFFER_BASE,
                                               PERF_BUFFER_BYTES,
                                               PERF_SAVE_BASE,
                                               build_perf_handler)
            period, payload_words = perf_sampling
            perf_handler = build_perf_handler(payload_words)
            image = image.merged_with(perf_handler)
            table = self.kernel.page_table
            table.map_range(perf_handler.text_lo, perf_handler.text_hi)
            table.map_range(PERF_SAVE_BASE, PERF_SAVE_BASE + 0x100)
            table.map_range(PERF_BUFFER_BASE,
                            PERF_BUFFER_BASE + PERF_BUFFER_BYTES)

        self.image = image
        self.hierarchy = MemoryHierarchy(self.config.memory,
                                         self.kernel.page_table)
        self.core = Core(self.image, self.config, self.hierarchy,
                         self.kernel)
        if perf_sampling is not None:
            from ..core.sampling import SampleSchedule
            self.core.sampling_schedule = SampleSchedule(perf_sampling[0])
            self.core.sampling_handler_entry = perf_handler.entry

    def attach(self, observer: TraceObserver) -> None:
        self.core.attach(observer)

    def run(self, max_cycles: int = 10_000_000, sim: str = STEP_SIM,
            paranoid: bool = False) -> CoreStats:
        return self.core.run(max_cycles, sim=sim, paranoid=paranoid)

    @property
    def stats(self) -> CoreStats:
        return self.core.stats
