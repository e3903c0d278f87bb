"""Kernel model tests."""

from repro.isa.assembler import assemble
from repro.isa.program import KERNEL_TEXT_BASE
from repro.kernel import KERNEL_DATA_BASE, Kernel, build_handler_program
from repro.mem.tlb import vpn_of


def test_handler_program_shape():
    handler = build_handler_program()
    assert handler.text_lo == KERNEL_TEXT_BASE
    assert handler.functions[0].name == "__pf_handler"
    # Ends with sret.
    assert handler.instructions[-1].op.value == "sret"


def test_handler_initial_data():
    handler = build_handler_program()
    assert handler.data[KERNEL_DATA_BASE + 0x100] == 1


def test_boot_maps_text_and_data():
    kernel = Kernel()
    app = assemble(".func main\n    halt\n.data 0x2000 1\n")
    image = kernel.boot(app, premapped_data=[(0x5000, 0x6000)])
    table = kernel.page_table
    assert table.is_mapped(vpn_of(app.text_lo))
    assert table.is_mapped(vpn_of(KERNEL_TEXT_BASE))
    assert table.is_mapped(vpn_of(KERNEL_DATA_BASE))
    assert table.is_mapped(vpn_of(0x2000))   # .data words
    assert table.is_mapped(vpn_of(0x5000))   # premapped range
    assert not table.is_mapped(vpn_of(0x100_0000))
    # Merged image contains both texts.
    assert image.fetch(app.entry) is not None
    assert image.fetch(kernel.handler_entry) is not None


def test_on_page_fault_installs_page():
    kernel = Kernel()
    entry = kernel.on_page_fault(0x123, cycle=50)
    assert entry == kernel.handler_entry
    assert kernel.page_table.is_mapped(0x123)
    assert kernel.faults == [(0x123, 50)]


def test_handler_preserves_clobbered_registers():
    """End-to-end: registers x28-x31 survive a page fault."""
    from conftest import run_asm
    machine, _ = run_asm("""
    .func main
        addi x28, x0, 1111
        addi x29, x0, 2222
        addi x30, x0, 3333
        addi x31, x0, 4444
        lw   x1, 0x100000(x0)
        add  x5, x28, x29
        add  x6, x30, x31
        add  x7, x5, x6
        sw   x7, 0x3000(x0)
        halt
    """, premapped=[(0x3000, 0x3008)])
    assert machine.stats.exceptions == 1
    assert machine.core.memory.get(0x3000) == 1111 + 2222 + 3333 + 4444
