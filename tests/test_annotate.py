"""The static-vs-dynamic attribution diff (``repro annotate``).

Unit tests pin the divergence rule, ordering and serialization on
synthetic profiles; the golden test reproduces the Section 6 workflow
at reduced scale -- the ``frflags``/``fsflags`` flush hotspot must be
flagged divergent on ``imagick-orig`` and must *not* be flagged on
``imagick-opt``.
"""

from __future__ import annotations

import json

from repro.analysis import (DEFAULT_FACTOR, DEFAULT_MARGIN, Granularity,
                            annotate_profile)
from repro.analysis.symbols import OFF_TEXT
from repro.cli import main
from repro.harness import default_profilers, run_experiment
from repro.isa.assembler import assemble
from repro.isa.opcodes import Op
from repro.workloads.imagick import build_imagick

STRAIGHT = """
main:
    addi x5, x0, 1
    addi x6, x0, 2
    add  x7, x5, x6
    halt
"""


def _uniform_profile(program):
    addrs = [inst.addr for inst in program.instructions]
    return {addr: 1.0 / len(addrs) for addr in addrs}


# -- divergence rule ---------------------------------------------------------

def test_uniform_profile_on_uniform_cost_is_clean():
    program = assemble(STRAIGHT)
    report = annotate_profile(program, _uniform_profile(program))
    assert report.lines
    assert report.divergent == []


def test_hot_instruction_is_flagged():
    program = assemble(STRAIGHT)
    profile = _uniform_profile(program)
    hot = max(profile)
    # Concentrate nearly all time on one instruction: it must beat the
    # static expectation both multiplicatively and additively.
    for addr in profile:
        profile[addr] = 0.91 if addr == hot else 0.03
    report = annotate_profile(program, profile)
    flagged = [line.addr for line in report.divergent]
    assert flagged == [hot]


def test_margin_suppresses_small_absolute_excess():
    program = assemble(STRAIGHT)
    profile = _uniform_profile(program)
    hot = max(profile)
    # Triple a tiny static share but stay within the additive margin.
    report = annotate_profile(program, {hot: 0.01}, margin=0.05)
    assert all(not line.divergent for line in report.lines)
    # With the margin gone the multiplicative test alone flags it.
    strict = annotate_profile(program, {hot: 0.99}, margin=0.0)
    assert hot in {line.addr for line in strict.divergent}


def test_factor_and_margin_defaults_are_recorded():
    program = assemble(STRAIGHT)
    report = annotate_profile(program, _uniform_profile(program))
    assert report.factor == DEFAULT_FACTOR
    assert report.margin == DEFAULT_MARGIN


def test_off_text_and_unknown_keys_are_ignored():
    program = assemble(STRAIGHT)
    profile = _uniform_profile(program)
    profile[OFF_TEXT] = 0.5
    profile[0xDEAD0000] = 0.5
    report = annotate_profile(program, profile)
    addrs = {line.addr for line in report.lines}
    assert OFF_TEXT not in addrs
    assert 0xDEAD0000 not in addrs


# -- ordering and serialization ---------------------------------------------

def test_divergent_sorted_by_excess_then_addr():
    program = assemble(STRAIGHT)
    static = {line.addr: line.static_share
              for line in annotate_profile(program, {}).lines}
    addrs = sorted(static)
    profile = {addrs[0]: static[addrs[0]] + 0.10,
               addrs[1]: static[addrs[1]] + 0.30}
    report = annotate_profile(program, profile, factor=1.0, margin=0.05)
    flagged = report.divergent
    assert [line.addr for line in flagged] == [addrs[1], addrs[0]]
    assert flagged[0].excess >= flagged[1].excess


def test_to_dict_round_trips_through_json():
    program = assemble(STRAIGHT)
    report = annotate_profile(program, _uniform_profile(program),
                              target="straight", policy="TIP")
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["target"] == "straight"
    assert payload["policy"] == "TIP"
    line_addrs = [line["addr"] for line in payload["lines"]]
    assert line_addrs == sorted(line_addrs)
    assert payload["divergent"] == [line.addr
                                    for line in report.divergent]
    for line in payload["lines"]:
        assert set(line) == {"addr", "function", "text", "static_share",
                             "dynamic_share", "divergent"}


def test_render_marks_divergent_lines():
    program = assemble(STRAIGHT)
    profile = _uniform_profile(program)
    hot = max(profile)
    for addr in profile:
        profile[addr] = 0.91 if addr == hot else 0.03
    report = annotate_profile(program, profile, target="straight")
    text = report.render()
    assert "straight" in text and "1 divergent" in text
    flagged_rows = [row for row in text.splitlines() if "!!" in row]
    assert len(flagged_rows) == 1
    assert f"{hot:#x}" in flagged_rows[0]
    # top=1 keeps only the hottest row below the two header lines
    assert len(report.render(top=1).splitlines()) == 3


# -- the Section 6 golden case ----------------------------------------------

def _flush_addrs(program):
    return {inst.addr for inst in program.instructions
            if inst.op in (Op.FRFLAGS, Op.FSFLAGS)}


def _annotate_workload(workload):
    result = run_experiment(workload.program,
                            default_profilers(13, policies=["TIP"]),
                            premapped_data=list(workload.premapped),
                            sim="fast")
    profile = result.profile("TIP", Granularity.INSTRUCTION)
    return annotate_profile(workload.program, profile,
                            target=workload.name,
                            regions=tuple(workload.premapped))


def test_imagick_flush_hotspot_divergent_only_in_orig():
    orig = build_imagick(optimized=False, pixels=200, morph_iters=100)
    opt = build_imagick(optimized=True, pixels=200, morph_iters=100)
    flush = _flush_addrs(orig.program)
    assert flush, "imagick-orig lost its frflags/fsflags pair"

    orig_divergent = {line.addr
                      for line in _annotate_workload(orig).divergent}
    opt_divergent = {line.addr
                     for line in _annotate_workload(opt).divergent}

    # The paper's hotspot: every flush-train instruction overshoots its
    # static expectation in the original...
    assert flush <= orig_divergent
    # ...and none of those addresses is flagged after the fix.
    assert not (opt_divergent & flush)


# -- CLI ---------------------------------------------------------------------

def test_cli_annotate_file_smoke(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text(STRAIGHT)
    assert main(["annotate", str(source), "--period", "7"]) == 0
    out = capsys.readouterr().out
    assert "static vs TIP attribution" in out


def test_cli_annotate_json_output(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text(STRAIGHT)
    report_path = tmp_path / "annotate.json"
    assert main(["annotate", str(source), "--period", "7",
                 "-o", str(report_path)]) == 0
    payload = json.loads(report_path.read_text())
    assert payload["policy"] == "TIP"
    assert payload["lines"]


def test_cli_annotate_unknown_target_exits_2(capsys):
    assert main(["annotate", "no-such-benchmark"]) == 2
    assert "unknown target" in capsys.readouterr().err
