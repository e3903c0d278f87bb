"""The miniature kernel: page table ownership and fault handling."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..isa.program import KERNEL_TEXT_BASE, Program
from ..mem.tlb import PAGE_SHIFT, PageTable
from .handler import KERNEL_DATA_BASE, KERNEL_DATA_SIZE, build_handler_program


class Kernel:
    """Owns the page table and services page faults.

    The timing cost of a fault is paid by the handler *program* executing
    on the core; this object only performs the architectural effect
    (installing the page) and reports where the handler lives.
    """

    def __init__(self, page_table: Optional[PageTable] = None,
                 handler_base: int = KERNEL_TEXT_BASE):
        self.page_table = page_table or PageTable()
        self.handler_program = build_handler_program(handler_base)
        self.handler_entry = self.handler_program.entry
        #: (vpn, cycle) log of serviced faults.
        self.faults: List[Tuple[int, int]] = []

    # -- boot-time setup ------------------------------------------------------

    def link(self, app: Program) -> Program:
        """*app* merged with the handler program: the image the core runs.

        Maps nothing: a caller that only needs the image (to key,
        profile or symbolize it) boots no kernel.
        """
        return app.merged_with(self.handler_program)

    def boot(self, app: Program,
             premapped_data: Optional[List[Tuple[int, int]]] = None,
             image: Optional[Program] = None) -> Program:
        """Link *app* with the kernel image and map boot-time pages.

        *premapped_data* is a list of ``(lo, hi)`` data address ranges that
        are resident at boot; everything else data-wise faults on first
        touch.  Text and kernel memory are always mapped.  *image* is
        *app* already linked by :meth:`link`; it is booted as is instead
        of linked again.
        """
        if image is None:
            image = self.link(app)
        self.page_table.map_range(app.text_lo, app.text_hi)
        self.page_table.map_range(self.handler_program.text_lo,
                                  self.handler_program.text_hi)
        self.page_table.map_range(KERNEL_DATA_BASE,
                                  KERNEL_DATA_BASE + KERNEL_DATA_SIZE)
        for vpn in {addr >> PAGE_SHIFT for addr in image.data}:
            self.page_table.map_page(vpn)
        for lo, hi in premapped_data or ():
            self.page_table.map_range(lo, hi)
        return image

    # -- runtime --------------------------------------------------------------

    def on_page_fault(self, vpn: int, cycle: int) -> int:
        """Install the missing page and return the handler entry address."""
        self.page_table.map_page(vpn)
        self.faults.append((vpn, cycle))
        return self.handler_entry
