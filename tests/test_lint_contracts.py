"""The observer-contract conformance checker (C001, C004).

The shipped tree must be clean (the checker gates CI), and each
contract must catch a seeded violation written to a temp file.
"""

import os

import repro
from repro.lint import CONTRACT_RULES, check_observer_contracts

REPRO_SRC = os.path.dirname(repro.__file__)


def _check(tmp_path, source, name="seeded.py"):
    path = tmp_path / name
    path.write_text(source)
    return check_observer_contracts([str(path)])


def _rules(report):
    return [d.rule for d in report.diagnostics]


# -- the shipped tree is its own conformance fixture --------------------------


def test_shipped_profilers_are_clean():
    report = check_observer_contracts([REPRO_SRC])
    assert report.diagnostics == [], report.render()
    assert report.classes_checked >= 10
    assert report.files_checked >= 40


def test_contract_rule_table_is_complete():
    assert set(CONTRACT_RULES) == {"C001", "C004"}


# -- C001 block-native pairing ------------------------------------------------


def test_c001_block_native_without_hooks(tmp_path):
    report = _check(tmp_path, """
class BrokenBlockNative(TraceObserver):
    block_native = True

    def on_block(self, start, instructions, cycles):
        pass
""")
    assert _rules(report) == ["C001"]
    diag = report.diagnostics[0]
    assert not report.ok
    assert "_block_attribute" in diag.message


def test_c001_hooks_without_block_native_claim(tmp_path):
    report = _check(tmp_path, """
class ForgotTheFlag(TraceObserver):
    block_native = False

    def _block_attribute(self, *a):
        return []

    def _block_scan_resolve(self, *a):
        return []

    def _block_resolve_outcome(self, *a):
        self.done = True
""")
    assert _rules(report) == ["C001"]
    assert report.ok  # warning, not error: the claim is just missing
    assert "ignore" in report.diagnostics[0].message


def test_c001_clean_block_native(tmp_path):
    report = _check(tmp_path, """
class GoodBlockNative(TraceObserver):
    block_native = True

    def on_block(self, start, instructions, cycles):
        self.cycles = cycles

    def _block_attribute(self, *a):
        return []

    def _block_scan_resolve(self, *a):
        return []

    def _block_resolve_outcome(self, *a):
        self.done = True
""")
    assert report.diagnostics == []


# -- C004 shared-state hazards ------------------------------------------------


def test_c004_class_attr_mutation_in_shard_method(tmp_path):
    report = _check(tmp_path, """
class Tally(TraceObserver):
    totals = {}

    def on_cycle(self, record):
        Tally.totals[record.cycle] = 1

    def on_finish(self, final_cycle):
        type(self).count = final_cycle
""")
    assert _rules(report) == ["C004", "C004"]


def test_c004_module_global_mutation(tmp_path):
    report = _check(tmp_path, """
SAMPLES = []

class Leaky(TraceObserver):
    def on_cycle(self, record):
        SAMPLES.append(record.cycle)
""")
    assert _rules(report) == ["C004"]
    assert "SAMPLES" in report.diagnostics[0].message


def test_c004_mutable_class_literal_via_self(tmp_path):
    report = _check(tmp_path, """
class SharedDefault(TraceObserver):
    seen = []

    def on_cycle(self, record):
        self.seen.append(record.cycle)
""")
    assert _rules(report) == ["C004"]


def test_c004_instance_state_is_fine(tmp_path):
    report = _check(tmp_path, """
class PerInstance(TraceObserver):
    def __init__(self):
        self.seen = []

    def on_cycle(self, record):
        self.seen.append(record.cycle)
""")
    assert report.diagnostics == []


def test_c004_merge_side_methods_are_exempt(tmp_path):
    report = _check(tmp_path, """
MERGED = []

class Merger(TraceObserver):
    def on_cycle(self, record):
        self.last = record.cycle

    def snapshot(self):
        return {}

    def absorb(self, snapshots):
        MERGED.extend(snapshots)
""")
    assert report.diagnostics == []


def test_c004_suppression_comment(tmp_path):
    report = _check(tmp_path, """
REGISTRY = []

class Registered(TraceObserver):
    def on_cycle(self, record):
        REGISTRY.append(record.cycle)  # lint: shared-ok
""")
    assert report.diagnostics == []


def test_c004_ignores_non_observer_classes(tmp_path):
    report = _check(tmp_path, """
CACHE = {}

class JustAHelper:
    def remember(self, key, value):
        CACHE[key] = value
""")
    assert report.diagnostics == []
    assert report.classes_checked == 0


def test_duck_typed_observer_is_still_checked(tmp_path):
    """Two or more locally defined hook methods make a class
    observer-like even without a framework base."""
    report = _check(tmp_path, """
EVENTS = []

class DuckObserver:
    def on_cycle(self, record):
        EVENTS.append(record.cycle)

    def on_finish(self, final_cycle):
        pass
""")
    assert report.classes_checked == 1
    assert _rules(report) == ["C004"]


# -- C000 and reporting mechanics ---------------------------------------------


def test_c000_parse_failure(tmp_path):
    report = _check(tmp_path, "def broken(:\n")
    assert _rules(report) == ["C000"]
    assert not report.ok


def test_directory_walk_skips_pycache(tmp_path):
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("def broken(:\n")
    (tmp_path / "ok.py").write_text("class Plain:\n    pass\n")
    report = check_observer_contracts([str(tmp_path)])
    assert report.diagnostics == []
    assert report.files_checked == 1


def test_report_to_dict_and_render(tmp_path):
    report = _check(tmp_path, """
class HalfBlockNative(TraceObserver):
    block_native = True

    def on_block(self, start, instructions, cycles):
        self.cycles = cycles
""")
    data = report.to_dict()
    assert data["errors"] + data["warnings"] == 1
    assert data["diagnostics"][0]["rule"] == "C001"
    assert data["diagnostics"][0]["path"].endswith("seeded.py")
    assert data["diagnostics"][0]["line"] is not None
    rendered = report.render()
    assert "C001" in rendered and "seeded.py" in rendered
