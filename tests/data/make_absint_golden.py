"""Regenerate the abstract-interpretation exactness golden.

Run from the repository root::

    PYTHONPATH=src python tests/data/make_absint_golden.py

Produces ``absint_golden.json``: for every program of a fixed corpus
(the 27 suite benchmarks at scale 0.05, the Imagick case-study pair at
a small size, and every ``examples/asm/*.s``) a sha256 per
:class:`~repro.lint.absint.engine.AbsintResult` field over a canonical
rendering, plus digests of the ``Linter.self_check()`` diagnostics and
of the full ``lint_program`` diagnostics.

``tests/test_absint_golden.py`` recomputes every digest and compares.
The rendering distinguishes ``5`` from ``5.0`` and keeps list order,
so the file pins the analysis result down to its representation: a
change to the fixpoint engine that is meant to be a pure speed-up must
leave it byte-identical.  Regenerating it is only legitimate after an
intentional change to what the analysis computes.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from repro.isa import assemble
from repro.isa.program import Program
from repro.lint import Linter, lint_program
from repro.lint.absint.domain import AbsVal
from repro.lint.absint.engine import AbsintResult, AbsState, analyze_program
from repro.lint.cfg import build_cfg
from repro.lint.diagnostics import Diagnostic
from repro.workloads.imagick import build_imagick
from repro.workloads.suite import BENCHMARKS, build

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "absint_golden.json")

#: Suite scale of the corpus (small, but every kernel shape appears).
SUITE_SCALE = 0.05
#: Imagick case-study size of the corpus.
IMAGICK_PIXELS = 125
IMAGICK_MORPH_ITERS = 275

Regions = Tuple[Tuple[int, int], ...]


def corpus_labels() -> List[str]:
    """Every program label of the corpus, in golden order."""
    examples = sorted(os.path.relpath(path, ROOT) for path in
                      glob.glob(os.path.join(ROOT, "examples", "asm",
                                             "*.s")))
    return list(BENCHMARKS) + ["imagick-orig", "imagick-opt"] + examples


def load(label: str) -> Tuple[Program, Regions]:
    """The program behind *label* plus the premapped regions its lint
    runs with (a workload's own; none for an example file)."""
    if label in BENCHMARKS:
        workload = build(label, SUITE_SCALE)
    elif label in ("imagick-orig", "imagick-opt"):
        workload = build_imagick(optimized=label.endswith("-opt"),
                                 pixels=IMAGICK_PIXELS,
                                 morph_iters=IMAGICK_MORPH_ITERS)
    else:
        with open(os.path.join(ROOT, label)) as handle:
            return assemble(handle.read(), name=label), ()
    return workload.program, tuple(workload.premapped)


# -- canonical rendering -----------------------------------------------------

def _val(value: AbsVal) -> str:
    return repr((value.lo, value.hi, tuple(sorted(value.res)),
                 value.maybe_float, value.sp, value.entry_of))


def _state(state: Optional[AbsState]) -> str:
    if state is None:
        return "None"
    regs = ",".join(f"{reg}:{_val(value)}"
                    for reg, value in sorted(state.regs.items()))
    frame = ",".join(f"{off!r}:{_val(value)}"
                     for off, value in sorted(state.frame.items()))
    return f"regs[{regs}] frame[{frame}]"


def _rendered_fields(result: AbsintResult) -> Dict[str, List[str]]:
    return {
        "envs": [f"{index}={_state(state)}"
                 for index, state in sorted(result.envs.items())],
        "verdicts": [f"{index}={verdict!r}"
                     for index, verdict in sorted(result.verdicts.items())],
        "accesses": [
            repr((addr, a.function, a.op.value, a.size, a.is_store,
                  a.is_load)) + "=" + _val(a.value)
            for addr, a in sorted(result.accesses.items())],
        "trip_bounds": [repr(item)
                        for item in sorted(result.trip_bounds.items())],
        "summaries": [
            repr((fn, tuple(sorted(s.preserved)), s.may_return,
                  s.may_touch_stack)) + "=" + ",".join(
                f"{reg}:{_val(value)}"
                for reg, value in sorted(s.returns.items()))
            for fn, s in sorted(result.summaries.items())],
        "return_states": [
            f"{fn}@{term.addr:#x}={_state(state)}"
            for fn, states in sorted(result.return_states.items())
            for term, state in states],
        "degraded": [repr(result.degraded)],
    }


def _diagnostics(diagnostics: List[Diagnostic]) -> List[str]:
    return [json.dumps(d.to_dict(), sort_keys=True) for d in diagnostics]


def _sha(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digests(program: Program, regions: Regions) -> Dict[str, object]:
    """Every digest the golden stores for one program."""
    result = analyze_program(program, build_cfg(program), regions)
    self_check = Linter.self_check().run(program, regions=regions)
    report = lint_program(program, regions=regions)
    return {
        "absint": {name: _sha(lines) for name, lines
                   in _rendered_fields(result).items()},
        "self_check": _sha(_diagnostics(self_check.diagnostics)),
        "lint": _sha(_diagnostics(report.diagnostics)),
        "lint_count": len(report.diagnostics),
    }


def main() -> int:
    entries = {}
    for label in corpus_labels():
        entries[label] = entry = digests(*load(label))
        print(f"{label}: {entry['lint_count']} diagnostics",
              file=sys.stderr)
    with open(GOLDEN, "w") as handle:
        handle.write(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(entries)} programs)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
