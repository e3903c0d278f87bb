"""The interprocedural abstract interpreter: domain soundness,
engine fixpoints, the L014-L019 rule family, the static cost model,
and the optimizer's range-verdict pruning.

The load-bearing property is *soundness*: every concrete register
value and every concrete memory access observed by the reference
interpreter must lie inside the abstract values the engine computed,
and every branch verdict must match the concrete outcome.  Hypothesis
drives that over randomized programs; the unit tests pin the exact
facts (trip bounds, narrowed exits, summaries) the rules rely on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.assembler import assemble
from repro.isa.instruction import Instruction, Register
from repro.isa.interpreter import Interpreter
from repro.isa.opcodes import Op
from repro.isa.semantics import evaluate
from repro.lint import (ABSINT_RULE_IDS, Linter, lint_program,
                        static_cost_report)
from repro.lint.absint.domain import (TOP, AbsVal, abstract_evaluate)
from repro.lint.absint.engine import (AbsState, AbstractInterpreter,
                                     join_states, widen_states)
from repro.lint.absint.rules import _mapped_intervals
from repro.lint.cfg import build_cfg
from repro.lint.context import LintContext
from repro.lint.rules import DEFAULT_RULES, RULES_BY_ID
from repro.opt import diff_architectural, optimize_program
from repro.workloads.suite import build


def _ctx(source: str, regions=()) -> LintContext:
    program = assemble(source)
    return LintContext(program, build_cfg(program),
                       regions=tuple(regions))


def _absint(source: str, regions=()):
    return _ctx(source, regions).absint()


def _rules(source: str, regions=()):
    report = lint_program(assemble(source), regions=tuple(regions))
    return {d.rule for d in report.diagnostics}


# -- domain ------------------------------------------------------------------

def test_const_contains_only_itself():
    five = AbsVal.const(5)
    assert five.contains(5)
    assert not five.contains(6)
    assert not five.contains(5.5)


def test_join_contains_both_sides():
    joined = AbsVal.const(8).join(AbsVal.const(24))
    assert joined.contains(8) and joined.contains(24)
    # residue 0 (mod 8) survives the join; 9 does not fit
    assert not joined.contains(9)


def test_top_contains_everything():
    assert TOP.contains(0) and TOP.contains(-2**63) \
        and TOP.contains(0.25)


def test_equal_states_still_drop_top_frame_slots():
    """Joining or widening a state with an equal one returns it as is,
    except that a TOP frame slot is dropped like in any other join."""
    plain = AbsState({5: AbsVal.const(1)}, {8.0: AbsVal.const(2)})
    assert join_states(plain, AbsState(dict(plain.regs),
                                       dict(plain.frame))) is plain
    assert widen_states(plain, plain, (0.0,)) is plain
    spilled = AbsState({5: AbsVal.const(1)}, {8.0: TOP})
    for joined in (join_states(spilled, spilled),
                   widen_states(spilled, spilled, (0.0,))):
        assert joined.regs == spilled.regs
        assert joined.frame == {}


@given(st.integers(-50, 50), st.integers(-50, 50),
       st.lists(st.integers(-60, 60), max_size=4))
def test_widen_is_an_upper_bound(a, b, thresholds):
    older, newer = AbsVal.const(a), AbsVal.const(b)
    widened = older.widen(older.join(newer), sorted(thresholds))
    assert widened.contains(a) and widened.contains(b)


_ALU_OPS = [Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR,
            Op.SLT, Op.DIV, Op.REM, Op.SLL, Op.SRL]


@given(st.sampled_from(_ALU_OPS),
       st.integers(-1000, 1000),
       st.integers(-1000, 1000))
@settings(max_examples=200)
def test_abstract_evaluate_contains_concrete(op, a, b):
    """On constant inputs the abstract transfer must cover the
    concrete semantics -- including division by zero and shifts."""
    inst = Instruction(op, rd=5, sources=(6, 7))
    concrete = evaluate(inst, (a, b), 0)
    abstract = abstract_evaluate(inst, (AbsVal.const(a),
                                        AbsVal.const(b)))
    assert abstract.value is not None
    assert abstract.value.contains(concrete.value), \
        f"{op.value}({a}, {b}) = {concrete.value} not in " \
        f"{abstract.value}"


def test_abstract_div_contains_the_exact_quotient():
    """``[0, 2**62 - 1] / 1`` tops out at 2**62 - 1, which is what the
    concrete semantics must return for ``(2**62 - 1) / 1`` too; a
    quotient taken through a float rounds it up to 2**62."""
    inst = Instruction(Op.DIV, rd=5, sources=(6, 7))
    concrete = evaluate(inst, (2**62 - 1, 1), 0)
    abstract = abstract_evaluate(inst, (AbsVal.interval(0, 2**62 - 1),
                                        AbsVal.const(1)))
    assert abstract.value.contains(concrete.value)


# -- engine ------------------------------------------------------------------

COUNTED_LOOP = """
.entry main
.func main
main:
    addi x6, x0, 10
loop:
    addi x5, x5, 3
    addi x6, x6, -1
    bne  x6, x0, loop
    halt
"""


def test_counted_loop_trip_bound_is_exact():
    result = _absint(COUNTED_LOOP)
    assert not result.degraded
    assert result.trip_bounds == {("main", 1): 10}


def test_counted_loop_exit_is_narrowed():
    result = _absint(COUNTED_LOOP)
    # after the loop the counter is exactly zero
    program = assemble(COUNTED_LOOP)
    halt_addr = max(program.addresses())
    exit_x6 = result.value_before(halt_addr, 6)
    assert exit_x6.singleton == 0


def test_interprocedural_summary_propagates_returns():
    result = _absint("""
.entry main
.func main
main:
    jal  x1, five
    addi x6, x5, 1
    halt

.func five
five:
    addi x5, x0, 5
    jalr x0, x1, 0
""")
    assert not result.degraded
    # after the call, x5 is the callee's return value
    assert result.value_before(0x10004, 5).singleton == 5


def test_callee_saved_survives_call_in_summary():
    result = _absint("""
.entry main
.func main
main:
    addi x28, x0, 7
    jal  x1, leaf
    addi x6, x28, 0
    halt

.func leaf
leaf:
    addi x5, x0, 1
    jalr x0, x1, 0
""")
    assert not result.degraded
    assert result.value_before(0x1000c, 6) is not None
    # x28 is untouched by the callee, so its constant survives
    assert result.value_before(0x10008, 28).singleton == 7


def test_computed_jump_degrades_soundly():
    """An indirect jump the engine cannot resolve must degrade to TOP
    facts, never crash or fabricate verdicts."""
    result = _absint("""
.entry main
.func main
main:
    addi x5, x0, 0x10008
    jalr x0, x5, 0
    halt
""")
    assert result.degraded
    assert result.verdicts == {}
    assert result.trip_bounds == {}


# -- solve reuse --------------------------------------------------------------

def _count_solves(monkeypatch):
    """Count uncached per-function solves, in total and inside
    ``_record`` (the result assembly after the global fixpoint)."""
    counts = {"solves": 0, "record": 0}
    solve = AbstractInterpreter._function_fixpoint
    record = AbstractInterpreter._record

    def counting_solve(self, function):
        counts["solves"] += 1
        return solve(self, function)

    def counting_record(self, result):
        before = counts["solves"]
        record(self, result)
        counts["record"] += counts["solves"] - before

    monkeypatch.setattr(AbstractInterpreter, "_function_fixpoint",
                        counting_solve)
    monkeypatch.setattr(AbstractInterpreter, "_record", counting_record)
    return counts


CALLING_LOOP = """
.entry main
.func main
main:
    addi x6, x0, 4
loop:
    jal  x1, bump
    jal  x1, five
    addi x6, x6, -1
    bne  x6, x0, loop
    halt

.func bump
bump:
    addi x7, x7, 8
    jalr x0, x1, 0

.func five
five:
    addi x5, x0, 5
    jalr x0, x1, 0
"""


def test_record_reuses_the_converged_solves(monkeypatch):
    counts = _count_solves(monkeypatch)
    result = _absint(CALLING_LOOP)
    assert not result.degraded
    assert set(result.summaries) == {"main", "bump", "five"}
    assert counts["solves"] >= 3
    assert counts["record"] == 0


def test_gcc_solve_count_is_bounded(monkeypatch):
    """gcc calls its kernels one after another, and each call site only
    becomes reachable once the callee before it is proven to return,
    so its global rounds run into their cap.  Solving all eleven
    functions in every round would take 136 solves; solving only those
    whose inputs changed takes 38."""
    workload = build("gcc", 0.05)  # its self-check runs uncounted
    counts = _count_solves(monkeypatch)
    program = workload.program
    AbstractInterpreter(program, build_cfg(program),
                        workload.premapped).run()
    assert counts["solves"] <= 45


# -- soundness property -------------------------------------------------------

_SOUND_REGS = (5, 6, 7, 8)


@st.composite
def _random_program(draw):
    """A small always-halting program: random ALU prologue, an
    optional counted loop over random body ops, and random loads and
    stores into a declared data region."""
    lines = [".entry main", ".func main", "main:"]
    for _ in range(draw(st.integers(1, 4))):
        reg = draw(st.sampled_from(_SOUND_REGS))
        imm = draw(st.integers(-64, 64))
        lines.append(f"    addi x{reg}, x{reg}, {imm}")
    body = []
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["add", "sub", "and", "or", "xor"]))
        rd = draw(st.sampled_from(_SOUND_REGS))
        ra = draw(st.sampled_from(_SOUND_REGS))
        rb = draw(st.sampled_from(_SOUND_REGS))
        body.append(f"    {op} x{rd}, x{ra}, x{rb}")
    if draw(st.booleans()):
        word = draw(st.integers(0, 3))
        body.append(f"    sd x5, {0x400 + 8 * word}(x0)")
        body.append(f"    ld x7, {0x400 + 8 * word}(x0)")
    trips = draw(st.integers(1, 7))
    lines.append(f"    addi x9, x0, {trips}")
    lines.append("loop:")
    lines.extend(body)
    lines.append("    addi x9, x9, -1")
    lines.append("    bne  x9, x0, loop")
    lines.append("    halt")
    for word in range(4):
        value = draw(st.integers(-100, 100))
        lines.append(f".data {0x400 + 8 * word:#x} {value}")
    return "\n".join(lines) + "\n"


@given(_random_program())
@settings(max_examples=60, deadline=None)
def test_soundness_every_concrete_state_is_contained(source):
    """Drive the reference interpreter step by step: every concrete
    register value, effective address and branch outcome must be
    covered by the abstract facts."""
    program = assemble(source)
    cfg = build_cfg(program)
    result = AbstractInterpreter(program, cfg).run()
    entry_regs = [0.0] * Register.TOTAL

    interp = Interpreter(program)
    steps = 0
    while not interp.halted and steps < 4000:
        steps += 1
        pc = interp.pc
        state = result.state_before(pc)
        assert state is not None, \
            f"executed {pc:#x} but absint proved it unreachable"
        for reg, abstract in state.regs.items():
            concrete = interp.regs[reg] if reg else 0
            assert abstract.contains(concrete, sp_entry=0,
                                     entry_regs=entry_regs), \
                f"x{reg} = {concrete} at {pc:#x} not in {abstract}"

        inst = program.fetch(pc)
        operands = tuple(0 if r == 0 else interp.regs[r]
                         for r in inst.sources)
        outcome = evaluate(inst, operands, interp.fflags)
        if outcome.eff_addr is not None:
            access = result.accesses.get(pc)
            assert access is not None, f"unrecorded access at {pc:#x}"
            assert access.value.contains(outcome.eff_addr, sp_entry=0,
                                         entry_regs=entry_regs), \
                f"address {outcome.eff_addr:#x} at {pc:#x} " \
                f"not in {access.value}"
        block = cfg.block_of(pc)
        if block is not None and block.terminator.addr == pc \
                and block.terminator.is_branch \
                and block.index in result.verdicts:
            taken = bool(outcome.taken)
            assert result.verdicts[block.index] == taken, \
                f"verdict at {pc:#x} contradicts execution"
        interp.step()
    assert interp.halted


@given(_random_program())
@settings(max_examples=20, deadline=None)
def test_soundness_trip_bounds_hold(source):
    """A proven trip bound is an upper bound on concrete header visits."""
    program = assemble(source)
    cfg = build_cfg(program)
    result = AbstractInterpreter(program, cfg).run()
    if not result.trip_bounds:
        return
    headers = {cfg.blocks[index].start: bound
               for (_fn, index), bound in result.trip_bounds.items()}
    visits = {addr: 0 for addr in headers}
    interp = Interpreter(program)
    steps = 0
    while not interp.halted and steps < 4000:
        steps += 1
        if interp.pc in visits:
            visits[interp.pc] += 1
        interp.step()
    for addr, bound in headers.items():
        assert visits[addr] <= bound, \
            f"loop at {addr:#x} ran {visits[addr]} > proven {bound}"


# -- rules: true positives ---------------------------------------------------

def test_l014_flags_provable_oob_store():
    rules = _rules("""
.entry main
.func main
main:
    addi x5, x0, 0x4000
    addi x6, x0, 1
    sd   x6, 8(x5)
    halt
.data 0x400 1
""")
    assert "L014" in rules


def test_l014_respects_premapped_regions():
    source = """
.entry main
.func main
main:
    addi x5, x0, 0x4000
    addi x6, x0, 1
    sd   x6, 8(x5)
    halt
.data 0x400 1
"""
    assert "L014" in _rules(source)
    assert "L014" not in _rules(source,
                               regions=((0x4000, 0x4010),))


def test_l015_flags_provable_misalignment():
    rules = _rules("""
.entry main
.func main
main:
    addi x5, x0, 0x403
    ld   x6, 0(x5)
    halt
.data 0x400 1
""")
    assert "L015" in rules


def test_l016_flags_unbalanced_return():
    rules = _rules("""
.entry main
.func main
main:
    jal  x1, leaky
    halt

.func leaky
leaky:
    addi x31, x31, -16
    jalr x0, x1, 0
""")
    assert "L016" in rules


def test_l017_flags_clobbered_callee_saved():
    rules = _rules("""
.entry main
.func main
main:
    jal  x1, helper
    halt

.func helper
helper:
    addi x28, x0, 5
    jalr x0, x1, 0
""")
    assert "L017" in rules


def test_l018_flags_parity_dead_branch():
    rules = _rules("""
.entry main
.func main
main:
    addi x5, x0, 7
loop:
    addi x5, x5, -2
    beq  x5, x0, trap
    bge  x5, x0, loop
    halt
trap:
    halt
""")
    assert "L018" in rules


def test_l019_flags_oversized_bounded_loop():
    body = "\n".join("    addi x5, x5, 1" for _ in range(520))
    rules = _rules(f"""
.entry main
.func main
main:
    addi x6, x0, 4
loop:
{body}
    addi x6, x6, -1
    bne  x6, x0, loop
    halt
""")
    assert "L019" in rules


# -- rules: true negatives ---------------------------------------------------

def test_l016_l017_clean_on_proper_frame_discipline():
    """A callee that spills x28 to its frame, clobbers it, reloads it
    and pops the frame is clean for the whole absint family."""
    rules = _rules("""
.entry main
.func main
main:
    jal  x1, worker
    sd   x28, 0x400(x0)
    halt

.func worker
worker:
    addi x31, x31, -16
    sd   x28, 8(x31)
    addi x28, x0, 99
    add  x5, x28, x28
    ld   x28, 8(x31)
    addi x31, x31, 16
    jalr x0, x1, 0

.data 0x400 0
""")
    assert not rules & set(ABSINT_RULE_IDS), rules


def test_l014_l015_clean_on_in_bounds_aligned_access():
    rules = _rules("""
.entry main
.func main
main:
    addi x5, x0, 0x400
    ld   x6, 0(x5)
    sd   x6, 8(x5)
    halt
.data 0x400 3
.data 0x408 0
""")
    assert not rules & {"L014", "L015"}, rules


def test_example_programs_clean_for_unrelated_absint_rules():
    """The existing optimizer examples gained no absint findings."""
    for name in ("const_dead_branch", "dead_store", "hoistable_flush",
                 "streaming_clean"):
        with open(f"examples/asm/{name}.s") as handle:
            report = lint_program(assemble(handle.read()))
        fired = {d.rule for d in report.diagnostics} & {
            "L014", "L015", "L016", "L017", "L019"}
        assert not fired, (name, fired)


# -- L013 tightening ---------------------------------------------------------

def test_l013_fires_via_range_discounted_exit():
    """The odd-countdown loop's only exit is proven dead by ranges, so
    L013 fires even though the exit condition is redefined inside."""
    rules = _rules("""
.entry main
.func main
main:
    addi x5, x0, 7
loop:
    addi x5, x5, -2
    bne  x5, x0, loop
    halt
""")
    assert "L013" in rules
    assert "L018" in rules


def test_l013_stays_quiet_on_terminating_countdown():
    rules = _rules("""
.entry main
.func main
main:
    addi x5, x0, 8
loop:
    addi x5, x5, -2
    bne  x5, x0, loop
    halt
""")
    assert "L013" not in rules
    assert "L018" not in rules


# -- diagnostics: dedup and ordering -----------------------------------------

def test_diagnostics_sorted_by_address_and_deduplicated():
    report = lint_program(assemble("""
.entry main
.func main
main:
    addi x5, x0, 0x4000
    addi x6, x0, 1
    sd   x6, 8(x5)
    addi x7, x0, 0x403
    ld   x8, 0(x7)
    halt
.data 0x400 1
"""))
    ranks = [d.severity.rank for d in report.diagnostics]
    assert ranks == sorted(ranks, reverse=True)
    for rank in set(ranks):
        addrs = [d.addr for d in report.diagnostics
                 if d.severity.rank == rank and d.addr is not None]
        assert addrs == sorted(addrs)
    keys = [(d.rule, d.addr, d.message) for d in report.diagnostics]
    assert len(keys) == len(set(keys))


def test_interprocedural_contexts_dedup_to_one_finding():
    """A callee misbehaving once, called from two sites, reports one
    diagnostic, not one per calling context."""
    report = lint_program(assemble("""
.entry main
.func main
main:
    jal  x1, helper
    jal  x1, helper
    halt

.func helper
helper:
    addi x28, x0, 5
    jalr x0, x1, 0
"""))
    l017 = [d for d in report.diagnostics if d.rule == "L017"]
    assert len(l017) == 1


def _reference_mapped_intervals(data, regions):
    """The sort-every-word-then-merge formulation of the mapped memory
    that ``_mapped_intervals`` must reproduce."""
    raw = [(addr, addr + 8) for addr in data]
    raw.extend((int(lo), int(hi)) for lo, hi in regions if hi > lo)
    raw.sort()
    merged = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


@given(st.sets(st.integers(-40, 200), max_size=40),
       st.lists(st.tuples(st.integers(-60, 260), st.integers(-60, 260)),
                max_size=6))
@settings(max_examples=300)
def test_mapped_intervals_match_the_word_by_word_merge(addrs, regions):
    """Unaligned, touching and overlapping words, and empty or
    inverted regions, coalesce exactly as merging every word does."""
    ctx = _ctx(COUNTED_LOOP, regions=regions)
    ctx.program.data = {addr: 0.0 for addr in addrs}
    assert _mapped_intervals(ctx) == \
        _reference_mapped_intervals(addrs, regions)


# -- static cost model -------------------------------------------------------

def test_cost_report_weights_loop_bodies():
    ctx = _ctx(COUNTED_LOOP)
    report = static_cost_report(ctx)
    by_addr = {line.addr: line for line in report.lines}
    # the loop body runs 10x; the prologue and halt run once
    assert by_addr[0x10004].weight == pytest.approx(10.0)
    assert by_addr[0x10000].weight == pytest.approx(1.0)
    assert report.total > 0
    assert sum(report.shares().values()) == pytest.approx(1.0)


def test_cost_report_charges_memory_tiers():
    """A provably-huge access footprint costs more per execution than
    an L1-resident one."""
    small = static_cost_report(_ctx("""
.entry main
.func main
main:
    ld   x5, 0x400(x0)
    halt
.data 0x400 1
"""))
    ctx = _ctx("""
.entry main
.func main
main:
    ld   x5, 0x400(x6)
    halt
.data 0x400 1
""", regions=((0, 1 << 27),))
    big = static_cost_report(ctx)
    small_ld = next(line for line in small.lines if "ld" in line.text)
    big_ld = next(line for line in big.lines if "ld" in line.text)
    assert big_ld.per_exec >= small_ld.per_exec


def test_cost_lines_are_address_sorted():
    report = static_cost_report(_ctx(COUNTED_LOOP))
    addrs = [line.addr for line in report.lines]
    assert addrs == sorted(addrs)
    rendered = report.render(top=3)
    assert "static cost model" in rendered


# -- optimizer integration ---------------------------------------------------

L018_PRUNABLE = """
.entry main
.func main
main:
    addi x5, x0, 7
loop:
    addi x5, x5, -2
    beq  x5, x0, trap
    bge  x5, x0, loop
    halt
trap:
    addi x6, x0, 1
    halt
"""


def test_optimizer_prunes_range_dead_branch():
    program = assemble(L018_PRUNABLE)
    result = optimize_program(program)
    assert result.changed
    rules = {a.certificate.rule for a in result.applied}
    assert "L018" in rules
    # the never-taken beq is gone and the trap block with it
    ops = {inst.op for inst in result.program.instructions}
    assert Op.BEQ not in ops
    assert len(result.program.instructions) \
        < len(program.instructions)


def test_range_prune_preserves_architectural_state():
    program = assemble(L018_PRUNABLE)
    result = optimize_program(program)
    differential = diff_architectural(program, result.program,
                                      trials=4)
    assert differential.identical, differential.render()


# -- registry and docs -------------------------------------------------------

def test_absint_rules_are_registered():
    for rule_id in ("L014", "L015", "L016", "L017", "L018", "L019"):
        assert rule_id in RULES_BY_ID
        assert rule_id in ABSINT_RULE_IDS
    assert set(ABSINT_RULE_IDS) <= {r.rule_id for r in DEFAULT_RULES}


def test_every_rule_is_documented():
    """Doc drift: every registered rule id must have a table row in
    docs/lint.md."""
    with open("docs/lint.md") as handle:
        doc = handle.read()
    for rule_id in RULES_BY_ID:
        assert f"| {rule_id} |" in doc, \
            f"{rule_id} missing from docs/lint.md"


def test_list_rules_cli(capsys):
    from repro.cli import main
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES_BY_ID:
        assert rule_id in out


def test_lint_cost_cli(tmp_path, capsys):
    from repro.cli import main
    source = tmp_path / "prog.s"
    source.write_text(COUNTED_LOOP)
    assert main(["lint", str(source), "--cost", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "static cost model" in out


def test_no_dataflow_disables_absint_rules():
    linter = Linter(dataflow=False)
    report = linter.run(assemble(L018_PRUNABLE))
    assert not {d.rule for d in report.diagnostics} \
        & set(ABSINT_RULE_IDS)
