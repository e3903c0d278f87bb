"""Figure 8: function-level profile error for all six profilers.

Paper: TIP 0.3%, TIP-ILP 0.4%, NCI 0.6%, LCI 1.6% -- all accurate --
while Software (9.1%) and Dispatch (5.8%) are much worse because tagging
at fetch/dispatch biases samples towards instructions stuck behind
long-latency stalls.  Also folds in the Section 5.2 validation check:
the Software-vs-NCI gap is of the same order as on real hardware.
"""

from repro.analysis import Granularity, render_error_table

from conftest import write_artifact

POLICIES = ["Software", "Dispatch", "LCI", "NCI", "TIP-ILP", "TIP"]


def _errors(suite_result):
    table = suite_result.errors(Granularity.FUNCTION, POLICIES)
    averages = suite_result.average_errors(Granularity.FUNCTION, POLICIES)
    return table, averages


def test_fig08_function_error(benchmark, suite_result):
    table, averages = benchmark.pedantic(_errors, args=(suite_result,),
                                         rounds=1, iterations=1)
    text = render_error_table(table,
                              title="Figure 8: function-level error")
    print("\n" + text)
    write_artifact("fig08_function_error.txt", text)

    # All commit-based profilers are accurate at function level.
    for policy in ("TIP", "TIP-ILP", "NCI", "LCI"):
        assert averages[policy] < 0.05, (policy, averages)
    # TIP is the best.
    for policy in POLICIES:
        assert averages["TIP"] <= averages[policy] + 1e-9
    # Software and Dispatch are clearly worse than the commit samplers.
    commit_worst = max(averages[p] for p in ("TIP", "TIP-ILP", "NCI"))
    assert averages["Software"] > commit_worst
    assert averages["Dispatch"] > commit_worst
    # Per-benchmark errors are valid fractions.
    for row in table.values():
        for value in row.values():
            assert 0.0 <= value <= 1.0


def test_sec52_validation_software_vs_nci(benchmark, suite_result):
    """Section 5.2 validation: the relative Software-NCI difference is
    large at instruction level and small at function level, matching the
    perf-vs-PEBS measurement on real hardware (69%/57% and 4%/7%)."""
    def _gaps():
        instruction = suite_result.average_errors(
            Granularity.INSTRUCTION, ("Software", "NCI"))
        function = suite_result.average_errors(
            Granularity.FUNCTION, ("Software", "NCI"))
        return (instruction["Software"] - instruction["NCI"],
                function["Software"] - function["NCI"])

    inst_gap, func_gap = benchmark.pedantic(_gaps, rounds=1, iterations=1)
    text = (f"== Section 5.2 validation ==\n"
            f"Software-NCI gap, instruction level: {inst_gap:.2%} "
            f"(paper ballpark: 57-69%)\n"
            f"Software-NCI gap, function level:    {func_gap:.2%} "
            f"(paper ballpark: 4-7%)")
    print("\n" + text)
    write_artifact("sec52_validation.txt", text)
    assert inst_gap > 0.15
    assert abs(func_gap) < 0.10
