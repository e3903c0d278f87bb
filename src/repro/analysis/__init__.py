"""Profile analysis: symbolization, error metric, cycle stacks, reports."""

from .annotate import (DEFAULT_FACTOR, DEFAULT_MARGIN, AnnotatedLine,
                       AnnotateReport, annotate_profile)
from .cyclestacks import (CLASS_COMPUTE, CLASS_FLUSH, CLASS_STALL,
                          STACK_ORDER, CycleStack, cycle_stack,
                          per_symbol_stacks)
from .diff import ProfileDiff, SymbolDelta, diff_profiles, render_diff
from .error import (all_granularity_errors, error_reduction, overlap,
                    per_sample_error, profile_error, profile_errors)
from .profiles import (build_profile, normalize, oracle_profile,
                       profile_checksum, top_symbols)
from .report import (render_cycle_stack, render_error_table,
                     render_profile_table, render_stacks_table)
from .symbols import (Granularity, OFF_TEXT, Symbolizer, UNKNOWN_FUNCTION)

__all__ = [
    "DEFAULT_FACTOR", "DEFAULT_MARGIN", "AnnotatedLine",
    "AnnotateReport", "annotate_profile",
    "CLASS_COMPUTE", "CLASS_FLUSH", "CLASS_STALL", "STACK_ORDER",
    "CycleStack", "cycle_stack", "per_symbol_stacks",
    "ProfileDiff", "SymbolDelta", "diff_profiles", "render_diff",
    "all_granularity_errors", "error_reduction", "overlap",
    "per_sample_error", "profile_error", "profile_errors",
    "build_profile", "normalize", "oracle_profile", "profile_checksum",
    "top_symbols",
    "render_cycle_stack", "render_error_table", "render_profile_table",
    "render_stacks_table",
    "Granularity", "OFF_TEXT", "Symbolizer", "UNKNOWN_FUNCTION",
]
