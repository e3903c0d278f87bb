"""Profile diffing: quantify an optimization's effect per symbol.

The Section 6 workflow ends with comparing the original and optimized
runs (Figure 13).  :func:`diff_profiles` makes that comparison a
first-class operation: given two *unnormalised* profiles (symbol ->
time) it reports, per symbol, the absolute and relative time change,
ranked by impact -- the table a developer reads after applying a fix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List


@dataclass(frozen=True)
class SymbolDelta:
    """Time change of one symbol between two runs."""

    symbol: Hashable
    before: float
    after: float

    @property
    def delta(self) -> float:
        return self.after - self.before

    @property
    def speedup(self) -> float:
        """How much faster this symbol got (>1 = improvement)."""
        if self.after <= 0.0:
            return float("inf") if self.before > 0 else 1.0
        return self.before / self.after


@dataclass
class ProfileDiff:
    """Full comparison of two profiles."""

    deltas: List[SymbolDelta]
    total_before: float
    total_after: float

    @property
    def overall_speedup(self) -> float:
        if self.total_after <= 0.0:
            return float("inf") if self.total_before > 0 else 1.0
        return self.total_before / self.total_after

    def improvements(self) -> List[SymbolDelta]:
        """Symbols that got faster, biggest absolute win first."""
        wins = [d for d in self.deltas if d.delta < 0]
        return sorted(wins, key=lambda d: d.delta)

    def regressions(self) -> List[SymbolDelta]:
        """Symbols that got slower, biggest absolute loss first."""
        losses = [d for d in self.deltas if d.delta > 0]
        return sorted(losses, key=lambda d: d.delta, reverse=True)


def diff_profiles(before: Dict[Hashable, float],
                  after: Dict[Hashable, float]) -> ProfileDiff:
    """Compare two unnormalised symbol -> time profiles."""
    symbols = set(before) | set(after)
    deltas = [SymbolDelta(sym, before.get(sym, 0.0), after.get(sym, 0.0))
              for sym in symbols]
    deltas.sort(key=lambda d: abs(d.delta), reverse=True)
    return ProfileDiff(deltas, sum(before.values()), sum(after.values()))


def render_diff(diff: ProfileDiff, top: int = 10,
                title: str = "profile diff") -> str:
    """Human-readable diff table."""
    lines = [f"== {title} ==",
             f"overall: {diff.total_before:.0f} -> {diff.total_after:.0f} "
             f"cycles ({diff.overall_speedup:.2f}x)"]
    width = max([len(str(d.symbol)) for d in diff.deltas[:top]] + [8])
    lines.append(f"{'symbol':<{width}} {'before':>10} {'after':>10} "
                 f"{'delta':>10} {'speedup':>8}")
    for delta in diff.deltas[:top]:
        speedup = (f"{delta.speedup:.2f}x"
                   if delta.speedup != float("inf") else "inf")
        lines.append(f"{str(delta.symbol):<{width}} {delta.before:>10.0f} "
                     f"{delta.after:>10.0f} {delta.delta:>+10.0f} "
                     f"{speedup:>8}")
    return "\n".join(lines)
