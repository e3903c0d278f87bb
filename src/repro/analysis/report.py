"""Text rendering of profiles, error tables and cycle stacks.

These produce the human-readable artefacts of the paper: the Figure 12
style side-by-side function/instruction profiles, Figure 7/13 style cycle
stacks, and the per-benchmark error tables behind Figures 8-10.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Mapping, Optional, Sequence

from ..isa.program import Program
from .cyclestacks import STACK_ORDER, CycleStack


def format_diag(severity: str, rule: str, message: str, *,
                addr: Optional[int] = None,
                function: Optional[str] = None,
                cycle: Optional[int] = None,
                hint: Optional[str] = None,
                path: Optional[str] = None,
                line: Optional[int] = None) -> str:
    """The one shared diagnostic line format of the toolkit.

    Used by the linter's :class:`~repro.lint.diagnostics.Diagnostic`
    and the trace sanitizer's violation reports so every tool prints
    machine-grepable, uniformly shaped lines::

        severity[RULE] path:line cycle N @0xADDR (function): message
            hint: ...

    Location parts (*path*/*line* for source files, *cycle* for
    traces, *addr*/*function* for guest text) are optional and omitted
    when unknown.  *hint* adds an indented fix-suggestion line.
    """
    parts = [f"{severity}[{rule}]"]
    if path is not None:
        location = path
        if line is not None:
            location += f":{line}"
        parts.append(location)
    if cycle is not None:
        parts.append(f"cycle {cycle}")
    if addr is not None:
        parts.append(f"@{addr:#x}")
    if function:
        parts.append(f"({function})")
    text = f"{' '.join(parts)}: {message}"
    if hint:
        text += f"\n    hint: {hint}"
    return text


def _render_matrix(title: str, row_label: str, rows: Sequence[str],
                   columns: Sequence[str],
                   cell: Callable[[str, str], float],
                   footer: Optional[str] = None,
                   footer_cell: Optional[Callable[[str], float]] = None
                   ) -> str:
    """Shared rows x columns percentage table (profiles, error tables)."""
    if not rows:
        return f"== {title} ==\n(empty)"
    width = max([len(r) for r in rows]
                + [len(footer or ""), len(row_label), 10])
    lines = [f"== {title} ==",
             f"{row_label:<{width}} " + " ".join(f"{c:>9}" for c in columns)]
    for row in rows:
        body = " ".join(f"{cell(row, c):>8.2%}" for c in columns)
        lines.append(f"{row:<{width}} {body}")
    if footer is not None and footer_cell is not None:
        body = " ".join(f"{footer_cell(c):>8.2%}" for c in columns)
        lines.append(f"{footer:<{width}} {body}")
    return "\n".join(lines)


def _fmt_symbol(program: Optional[Program], sym: Hashable) -> str:
    if isinstance(sym, int):
        label = f"{sym:#x}"
        if program is not None:
            inst = program.fetch(sym)
            if inst is not None:
                return f"{label} {inst.op.value}"
        return label
    return str(sym)


def render_profile_table(profiles: Mapping[str, Dict[Hashable, float]],
                         program: Optional[Program] = None,
                         top: int = 15, title: str = "profile") -> str:
    """Side-by-side normalised profiles, ranked by the first column."""
    names = list(profiles)
    if not names:
        return f"== {title} ==\n(empty)"
    reference = profiles[names[0]]
    symbols = sorted(set().union(*[p.keys() for p in profiles.values()]),
                     key=lambda s: reference.get(s, 0.0), reverse=True)[:top]
    width = max([len(_fmt_symbol(program, s)) for s in symbols] + [8])
    lines = [f"== {title} ==",
             f"{'symbol':<{width}} " + " ".join(f"{n:>9}" for n in names)]
    for sym in symbols:
        row = " ".join(f"{profiles[n].get(sym, 0.0):>8.2%}" for n in names)
        lines.append(f"{_fmt_symbol(program, sym):<{width}} {row}")
    return "\n".join(lines)


def render_error_table(errors: Mapping[str, Mapping[str, float]],
                       title: str = "profile error") -> str:
    """Benchmarks x profilers error matrix, plus the arithmetic mean."""
    benchmarks = list(errors)
    if not benchmarks:
        return f"== {title} ==\n(empty)"
    profilers = list(next(iter(errors.values())))
    return _render_matrix(
        title, "benchmark", benchmarks, profilers,
        lambda bench, prof: errors[bench].get(prof, 0.0),
        footer="average",
        footer_cell=lambda prof: sum(errors[b].get(prof, 0.0)
                                     for b in benchmarks) / len(benchmarks))


def render_cycle_stack(stack: CycleStack, label: str = "run") -> str:
    """One normalised cycle stack as text."""
    lines = [f"== cycle stack: {label} (total {stack.total:.0f} cycles) =="]
    for category in STACK_ORDER:
        lines.append(f"  {category.value:<12} "
                     f"{stack.fraction(category):>7.2%}")
    lines.append(f"  class: {stack.classify()}")
    return "\n".join(lines)


def render_stacks_table(stacks: Mapping[str, CycleStack],
                        title: str = "cycle stacks") -> str:
    """Many normalised cycle stacks side by side (Figure 7 layout)."""
    names = list(stacks)
    if not names:
        return f"== {title} ==\n(empty)"
    width = max([len(n) for n in names] + [10])
    header = " ".join(f"{c.value[:9]:>9}" for c in STACK_ORDER)
    lines = [f"== {title} ==",
             f"{'benchmark':<{width}} {header} {'class':>8}"]
    for name in names:
        stack = stacks[name]
        row = " ".join(f"{stack.fraction(c):>8.2%}" for c in STACK_ORDER)
        lines.append(f"{name:<{width}} {row} {stack.classify():>8}")
    return "\n".join(lines)
