"""``# lint: ignore[...]`` pragma tests: assembler plumbing, linter
suppression, the ``--no-ignores`` override, and the structured fix-hint
JSON payload."""

import json

import pytest

from repro.cli import main
from repro.isa.assembler import assemble
from repro.lint import FixHint, lint_program

FLUSHY = """
.entry main
.func main
main:
    addi x1, x0, 4
loop:
    frflags x7{pragma}
    addi x1, x1, -1
    bne  x1, x0, loop
    halt
"""


def _flushy(pragma=""):
    return assemble(FLUSHY.format(pragma=pragma), name="flushy")


def test_assembler_records_bare_pragma():
    program = _flushy("   # lint: ignore")
    (rules,) = program.ignores.values()
    assert rules == frozenset({"*"})


def test_assembler_records_rule_list():
    program = _flushy("   # lint: ignore[L001, L012]")
    (rules,) = program.ignores.values()
    assert rules == frozenset({"L001", "L012"})


def test_no_pragma_no_ignores():
    assert _flushy().ignores == {}


def test_pragma_suppresses_matching_rules():
    loud = lint_program(_flushy())
    assert {d.rule for d in loud.diagnostics} >= {"L001", "L012"}
    quiet = lint_program(_flushy("   # lint: ignore[L001, L012]"))
    assert {d.rule for d in quiet.diagnostics} == \
        {d.rule for d in loud.diagnostics} - {"L001", "L012"}
    assert quiet.suppressed == 2


def test_bare_pragma_suppresses_everything_at_that_line():
    report = lint_program(_flushy("   # lint: ignore"))
    addr = next(iter(_flushy().ignores), None) or \
        next(iter(lint_program(_flushy()).diagnostics)).addr
    assert all(d.addr != addr for d in report.diagnostics)


def test_pragma_does_not_hide_other_rules():
    report = lint_program(_flushy("   # lint: ignore[L010]"))
    assert {d.rule for d in report.diagnostics} >= {"L001", "L012"}
    assert report.suppressed == 0


def test_honor_ignores_false_reports_everything():
    program = _flushy("   # lint: ignore")
    report = lint_program(program, honor_ignores=False)
    assert {d.rule for d in report.diagnostics} >= {"L001", "L012"}
    assert report.suppressed == 0


def test_suppressed_count_rendered():
    report = lint_program(_flushy("   # lint: ignore[L001, L012]"))
    assert "2 suppressed" in report.render()
    assert report.to_dict()["suppressed"] == 2


def test_editor_preserves_ignores():
    from repro.isa import ProgramEditor
    program = _flushy("   # lint: ignore[L001]")
    (addr,) = program.ignores
    rebuilt = ProgramEditor(program).build()
    assert rebuilt.ignores == {addr: frozenset({"L001"})}


# -- CLI ---------------------------------------------------------------------

@pytest.fixture
def pragma_file(tmp_path):
    path = tmp_path / "flushy.s"
    path.write_text(FLUSHY.format(
        pragma="   # lint: ignore[L001, L012]"))
    return str(path)


def test_cli_lint_honors_pragma(pragma_file, capsys):
    assert main(["lint", pragma_file, "--strict"]) == 0
    assert "2 suppressed" in capsys.readouterr().out


def test_cli_lint_no_ignores_overrides(pragma_file, capsys):
    assert main(["lint", pragma_file, "--strict",
                 "--no-ignores"]) == 1
    out = capsys.readouterr().out
    assert "L001" in out and "L012" in out


def test_cli_json_includes_fix_payload(tmp_path, capsys):
    path = tmp_path / "flushy.s"
    path.write_text(FLUSHY.format(pragma=""))
    assert main(["lint", str(path), "--json"]) == 0
    (report,) = json.loads(capsys.readouterr().out)
    fixes = {d["rule"]: d.get("fix") for d in report["diagnostics"]}
    assert fixes["L001"]["action"] == "nop"
    assert fixes["L012"]["action"] == "hoist"
    assert fixes["L012"]["addrs"] and fixes["L012"]["header"]
    assert report["suppressed"] == 0


def test_fix_hint_round_trip():
    hint = FixHint(action="hoist", text="move it", addrs=(0x10008,),
                   header=0x10008)
    assert hint.to_dict() == {"action": "hoist", "text": "move it",
                              "addrs": ["0x10008"],
                              "header": "0x10008"}
