"""Unit tests for Program and ProgramBuilder."""

import pytest

from repro.isa.instruction import Register
from repro.isa.opcodes import Op
from repro.isa.program import (FunctionSymbol, Program, ProgramBuilder,
                               TEXT_BASE)


def _two_inst_program():
    builder = ProgramBuilder()
    builder.func("main")
    builder.emit(Op.NOP)
    builder.emit(Op.HALT)
    return builder.build()


def test_builder_produces_program():
    program = _two_inst_program()
    assert len(program) == 2
    assert program.entry == TEXT_BASE
    assert program.function_of(TEXT_BASE).name == "main"


def test_fetch_by_address():
    program = _two_inst_program()
    assert program.fetch(TEXT_BASE).op is Op.NOP
    assert program.fetch(TEXT_BASE + 4).op is Op.HALT
    assert program.fetch(TEXT_BASE + 8) is None
    assert TEXT_BASE in program
    assert TEXT_BASE + 2 not in program  # misaligned


def test_builder_forward_label_resolution():
    builder = ProgramBuilder()
    builder.func("main")
    builder.emit(Op.BEQ, None, (1, 2), target="skip")
    builder.emit(Op.NOP)
    builder.label("skip")
    builder.emit(Op.HALT)
    program = builder.build()
    assert program.instructions[0].imm == TEXT_BASE + 8


def test_builder_undefined_target_raises():
    builder = ProgramBuilder()
    builder.func("main")
    builder.emit(Op.JAL, 1, (), target="missing")
    with pytest.raises(ValueError, match="undefined label"):
        builder.build()


def test_builder_entry_label():
    builder = ProgramBuilder()
    builder.func("boot")
    builder.emit(Op.NOP)
    builder.func("main")
    builder.emit(Op.HALT)
    builder.entry("main")
    program = builder.build()
    assert program.entry == TEXT_BASE + 4


def test_empty_program_rejected():
    with pytest.raises(ValueError):
        Program([], [], TEXT_BASE)


def test_bad_entry_rejected():
    builder = ProgramBuilder()
    builder.func("main")
    builder.emit(Op.HALT)
    program = builder.build()
    with pytest.raises(ValueError):
        Program(program.instructions, program.functions, 0xDEAD)


def test_merged_with():
    app = _two_inst_program()
    kernel_builder = ProgramBuilder(base=0x8_0000)
    kernel_builder.func("handler")
    kernel_builder.emit(Op.SRET)
    kernel = kernel_builder.build()
    image = app.merged_with(kernel)
    assert len(image) == 3
    assert image.entry == app.entry
    assert image.function_of(0x8_0000).name == "handler"


def test_merged_image_owns_its_data():
    builder = ProgramBuilder()
    builder.func("main")
    builder.emit(Op.HALT)
    builder.word(0x3000, 1.0)
    builder.word(0x3008, 2.0)
    app = builder.build()
    kernel_builder = ProgramBuilder(base=0x8_0000)
    kernel_builder.func("handler")
    kernel_builder.emit(Op.SRET)
    kernel_builder.word(0x9_0000, 3.0)
    kernel_builder.word(0x3008, 4.0)  # the handler's word wins
    kernel = kernel_builder.build()
    image = app.merged_with(kernel)
    assert image.data == {0x3000: 1.0, 0x3008: 4.0, 0x9_0000: 3.0}
    assert list(image.data) == [0x3000, 0x3008, 0x9_0000]
    image.data[0x3000] = 9.0
    image.data[0x9_0000] = 9.0
    image.data[0x4000] = 9.0
    assert app.data == {0x3000: 1.0, 0x3008: 2.0}
    assert kernel.data == {0x9_0000: 3.0, 0x3008: 4.0}


def test_merged_overlap_rejected():
    a = _two_inst_program()
    b = _two_inst_program()
    with pytest.raises(ValueError, match="overlap"):
        a.merged_with(b)


def test_text_bounds():
    program = _two_inst_program()
    assert program.text_lo == TEXT_BASE
    assert program.text_hi == TEXT_BASE + 8


def test_function_symbol_contains():
    func = FunctionSymbol("f", 0x100, 0x110)
    assert func.contains(0x100)
    assert func.contains(0x10C)
    assert not func.contains(0x110)


def test_data_word():
    builder = ProgramBuilder()
    builder.func("main")
    builder.emit(Op.HALT)
    builder.word(0x2000, 1.25)
    program = builder.build()
    assert program.data[0x2000] == 1.25


def test_register_helpers():
    assert Register.parse("x5") == 5
    assert Register.parse("f3") == 35
    assert Register.name(5) == "x5"
    assert Register.name(35) == "f3"
    assert Register.is_fp(35)
    assert not Register.is_fp(5)
    with pytest.raises(ValueError):
        Register.parse("q1")
    with pytest.raises(ValueError):
        Register.x(32)


def test_interpreter_basics():
    from repro.isa import assemble, run_reference
    program = assemble("""
    .func main
        addi x1, x0, 6
        addi x2, x0, 7
        mul  x3, x1, x2
        sw   x3, 0x2000(x0)
        halt
    """)
    result = run_reference(program)
    assert result.regs[3] == 42
    assert result.memory[0x2000] == 42
    assert result.instructions_executed == 5


def test_interpreter_fell_off_text():
    from repro.isa import Interpreter, InterpreterError, assemble
    import pytest as _pytest
    program = assemble(".func main\n    nop\n    nop\n")
    interp = Interpreter(program)
    interp.step()
    interp.step()
    with _pytest.raises(InterpreterError, match="fell off"):
        interp.step()


def test_interpreter_runaway_guard():
    from repro.isa import InterpreterError, assemble, run_reference
    import pytest as _pytest
    program = assemble(".func main\nspin:\n    beq x0, x0, spin\n    halt\n")
    with _pytest.raises(InterpreterError, match="did not halt"):
        run_reference(program, max_instructions=100)
