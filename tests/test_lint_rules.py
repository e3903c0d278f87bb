"""Golden tests per lint rule: one trigger and one near-miss each."""

from repro.isa.assembler import assemble
from repro.isa.program import FunctionSymbol, Program
from repro.lint import (DEFAULT_RULES, Linter, RULES_BY_ID,
                        STRUCTURAL_RULE_IDS, Severity, lint_program)
from repro.workloads.imagick import build_imagick


def _lint(source):
    return lint_program(assemble(source, name="rule-test"))


def _rules(report):
    return {d.rule for d in report.diagnostics}


# -- L001 flush-in-loop -------------------------------------------------------

def test_l001_flush_in_loop_trigger():
    report = _lint("""
.entry main
.func main
main:
    addi x1, x0, 8
loop:
    frflags x7
    addi x1, x1, -1
    bne  x1, x0, loop
    halt
""")
    hits = report.by_rule("L001")
    assert len(hits) == 1
    assert hits[0].severity is Severity.WARNING
    assert "frflags" in hits[0].message
    assert "nop" in hits[0].fix_hint


def test_l001_near_miss_outside_loop():
    report = _lint("""
.entry main
.func main
main:
    frflags x7
    addi x1, x0, 8
loop:
    addi x1, x1, -1
    bne  x1, x0, loop
    halt
""")
    assert report.by_rule("L001") == []


def test_l001_imagick_golden():
    """The paper's Section 6 case study, address for address."""
    report = lint_program(build_imagick().program)
    hits = report.by_rule("L001")
    assert {d.addr for d in hits} == {0x10050, 0x10074, 0x1007c, 0x100a0}
    assert {d.function for d in hits} == {"ceil", "floor"}
    assert all("called from the loop" in d.message for d in hits)
    assert all("nop" in d.fix_hint for d in hits)
    assert report.ok  # warnings only


def test_l001_imagick_optimized_is_clean():
    report = lint_program(build_imagick(optimized=True).program)
    assert report.diagnostics == []


# -- L002 serialize-in-loop ---------------------------------------------------

def test_l002_serialize_in_loop_trigger():
    report = _lint("""
.entry main
.func main
main:
    addi x1, x0, 8
    addi x9, x0, 4096
loop:
    fence
    amoadd x7, x1, 0(x9)
    addi x1, x1, -1
    bne  x1, x0, loop
    halt
""")
    hits = report.by_rule("L002")
    assert {d.message.split()[0] for d in hits} == {"fence", "amoadd"}


def test_l002_near_miss_outside_loop():
    report = _lint("""
.entry main
.func main
main:
    fence
    halt
""")
    assert report.by_rule("L002") == []


# -- L003 unreachable-block ---------------------------------------------------

def test_l003_unreachable_trigger():
    report = _lint("""
.entry main
.func main
main:
    jal  x0, out
    addi x1, x1, 1
out:
    halt
""")
    hits = report.by_rule("L003")
    assert len(hits) == 1
    assert hits[0].severity is Severity.ERROR
    assert not report.ok


def test_l003_near_miss_all_reachable():
    report = _lint("""
.entry main
.func main
main:
    jal  x0, out
out:
    halt
""")
    assert report.by_rule("L003") == []


# -- L004 fall-through-off-text -----------------------------------------------

def test_l004_falls_off_text_trigger():
    report = _lint("""
.entry main
.func main
main:
    addi x1, x0, 1
    addi x2, x1, 2
""")
    hits = report.by_rule("L004")
    assert len(hits) == 1
    assert hits[0].severity is Severity.ERROR


def test_l004_near_miss_ends_with_halt():
    report = _lint("""
.entry main
.func main
main:
    addi x1, x0, 1
    halt
""")
    assert report.by_rule("L004") == []


# -- L005 zero-register-write -------------------------------------------------

def test_l005_zero_write_trigger():
    report = _lint("""
.entry main
.func main
main:
    add  x0, x1, x2
    halt
""")
    hits = report.by_rule("L005")
    assert len(hits) == 1
    assert "discarded" in hits[0].message


def test_l005_near_miss_control_and_nop():
    report = _lint("""
.entry main
.func main
main:
    nop
    jal  x0, out
out:
    halt
""")
    assert report.by_rule("L005") == []


# -- L006 function-overlap ----------------------------------------------------

def _with_functions(source, functions):
    base = assemble(source, name="overlap-test")
    return Program(base.instructions, functions, base.entry,
                   labels=base.labels, name="overlap-test")


OVERLAP_SRC = """
.entry main
.func main
main:
    addi x1, x0, 1
    addi x2, x0, 2
    addi x3, x0, 3
    halt
"""


def test_l006_overlap_trigger():
    program = _with_functions(OVERLAP_SRC, [
        FunctionSymbol("a", 0x10000, 0x1000c),
        FunctionSymbol("b", 0x10008, 0x10010),  # overlaps a's last inst
    ])
    report = lint_program(program)
    hits = report.by_rule("L006")
    assert len(hits) == 1
    assert "'b'" in hits[0].message and "'a'" in hits[0].message
    assert hits[0].severity is Severity.ERROR


def test_l006_near_miss_adjacent():
    program = _with_functions(OVERLAP_SRC, [
        FunctionSymbol("a", 0x10000, 0x10008),
        FunctionSymbol("b", 0x10008, 0x10010),  # touches, no overlap
    ])
    assert lint_program(program).by_rule("L006") == []


# -- L007 call-return-mismatch ------------------------------------------------

def test_l007_call_into_middle_trigger():
    report = _lint("""
.entry main
.func main
main:
    jal  x5, inner
    halt

.func helper
helper:
    addi x3, x3, 1
inner:
    addi x3, x3, 2
    jalr x0, x5, 0
""")
    hits = report.by_rule("L007")
    assert len(hits) == 1
    assert "middle" in hits[0].message


def test_l007_link_register_mismatch_trigger():
    report = _lint("""
.entry main
.func main
main:
    jal  x9, helper
    halt

.func helper
helper:
    addi x3, x3, 1
    jalr x0, x5, 0
""")
    hits = report.by_rule("L007")
    assert len(hits) == 1
    assert "x9" in hits[0].message and "x5" in hits[0].message


def test_l007_near_miss_matching_call():
    report = _lint("""
.entry main
.func main
main:
    jal  x5, helper
    halt

.func helper
helper:
    addi x3, x3, 1
    jalr x0, x5, 0
""")
    assert report.by_rule("L007") == []


# -- L008 implicit-fall-through -----------------------------------------------

def test_l008_fall_into_next_function_trigger():
    report = _lint("""
.entry main
.func main
main:
    jal  x5, first
    halt

.func first
first:
    addi x3, x3, 1

.func second
second:
    addi x4, x4, 1
    jalr x0, x5, 0
""")
    hits = report.by_rule("L008")
    assert len(hits) == 1
    assert "'first'" in hits[0].message and "'second'" in hits[0].message


def test_l008_near_miss_explicit_return():
    report = _lint("""
.entry main
.func main
main:
    jal  x5, first
    halt

.func first
first:
    addi x3, x3, 1
    jalr x0, x5, 0

.func second
second:
    addi x4, x4, 1
    jalr x0, x5, 0
""")
    assert report.by_rule("L008") == []
    # `second` is never called: that is L003's finding, not L008's.
    assert report.by_rule("L003") != []


# -- framework ----------------------------------------------------------------

def test_rule_registry_consistent():
    ids = [rule.rule_id for rule in DEFAULT_RULES]
    assert len(ids) == len(set(ids))
    assert set(RULES_BY_ID) == set(ids)
    for rule_id in STRUCTURAL_RULE_IDS:
        assert RULES_BY_ID[rule_id].severity is Severity.ERROR


def test_structural_linter_ignores_warnings():
    # A program full of warnings but structurally sound passes the
    # generator self-check rule set.
    source = """
.entry main
.func main
main:
    addi x1, x0, 8
loop:
    frflags x7
    add  x0, x1, x1
    addi x1, x1, -1
    bne  x1, x0, loop
    halt
"""
    program = assemble(source, name="warn-test")
    assert not Linter.structural().run(program).diagnostics
    assert lint_program(program).diagnostics  # default set still warns


def test_report_sorted_errors_first():
    report = _lint("""
.entry main
.func main
main:
    add  x0, x1, x1
    jal  x0, out
    addi x1, x1, 1
out:
    halt
""")
    severities = [d.severity for d in report.diagnostics]
    assert severities == sorted(severities, key=lambda s: -s.rank)
    assert report.to_dict()["errors"] == len(report.errors)
