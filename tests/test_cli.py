"""CLI tests."""

import os

import pytest

from repro.cli import build_parser, main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["overhead"])
    assert args.command == "overhead"


def test_overhead_command(capsys):
    assert main(["overhead"]) == 0
    out = capsys.readouterr().out
    assert "57 B" in out
    assert "352 KB/s" in out


def test_profile_command(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("""
.func main
    addi x1, x0, 0
    addi x2, x0, 300
loop:
    add  x3, x3, x1
    addi x1, x1, 1
    bne  x1, x2, loop
    halt
""")
    assert main(["profile", str(source), "--period", "7"]) == 0
    out = capsys.readouterr().out
    assert "instruction profile" in out
    assert "TIP" in out
    assert "Oracle" in out


def test_stacks_command(capsys):
    assert main(["stacks", "lbm", "--scale", "0.05",
                 "--period", "29"]) == 0
    out = capsys.readouterr().out
    assert "cycle stacks" in out
    assert "lbm" in out


def _note_sim_modes(monkeypatch):
    """Patch ``Machine.run`` to note the ``sim`` mode of every run."""
    from repro.cpu.machine import Machine
    modes = []
    run = Machine.run

    def noting(self, max_cycles=10_000_000, sim="step", paranoid=False):
        modes.append(sim)
        return run(self, max_cycles, sim=sim, paranoid=paranoid)
    monkeypatch.setattr(Machine, "run", noting)
    return modes


def test_stacks_runs_fast(monkeypatch, capsys):
    modes = _note_sim_modes(monkeypatch)
    assert main(["stacks", "lbm", "--scale", "0.05",
                 "--period", "29"]) == 0
    assert modes == ["fast"]


def test_imagick_runs_fast(monkeypatch, capsys):
    import repro.cli
    from repro.workloads import build_imagick
    monkeypatch.setattr(
        repro.cli, "build_imagick",
        lambda optimized: build_imagick(optimized=optimized, pixels=40,
                                        morph_iters=80))
    modes = _note_sim_modes(monkeypatch)
    assert main(["imagick", "--period", "29"]) == 0
    assert modes == ["fast", "fast"]
    assert "speedup" in capsys.readouterr().out


def test_suite_command_subset(capsys):
    assert main(["suite", "exchange2", "--scale", "0.05",
                 "--period", "29"]) == 0
    out = capsys.readouterr().out
    assert "instruction-level error" in out
    assert "exchange2" in out


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [
    ["bench"],
    ["bench", "--sim", "--trace", "run.tiptrace"],
    ["replay", "run.tiptrace", "prog.s", "--jobs", "2"],
], ids=["bench-bare", "bench-both", "replay-jobs"])
def test_bench_and_replay_usage_errors(capsys, argv):
    """``bench`` needs exactly one of --trace or --sim; replay takes no
    worker count."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_suite_unknown_benchmark_exits_2(capsys):
    assert main(["suite", "gcc", "nosuchbench"]) == 2
    err = capsys.readouterr().err
    assert "nosuchbench" in err
    assert "unknown benchmark" in err


def test_stacks_unknown_benchmark_exits_2(capsys):
    assert main(["stacks", "typo1", "typo2"]) == 2
    err = capsys.readouterr().err
    assert "typo1" in err and "typo2" in err


def test_lint_file_warnings_only_exits_0(tmp_path, capsys):
    source = tmp_path / "hot.s"
    source.write_text("""
.entry main
.func main
main:
    addi x1, x0, 4
loop:
    frflags x7
    addi x1, x1, -1
    bne  x1, x0, loop
    halt
""")
    assert main(["lint", str(source)]) == 0
    out = capsys.readouterr().out
    assert "warning[L001]" in out
    assert "hint: replace with `nop`" in out


def test_lint_errors_exit_1(tmp_path, capsys):
    source = tmp_path / "dead.s"
    source.write_text("""
.entry main
.func main
main:
    jal  x0, out
    addi x1, x1, 1
out:
    halt
""")
    assert main(["lint", str(source)]) == 1
    assert "error[L003]" in capsys.readouterr().out


def test_lint_directory_and_benchmark(tmp_path, capsys):
    (tmp_path / "clean.s").write_text("""
.entry main
.func main
main:
    halt
""")
    assert main(["lint", str(tmp_path), "imagick-opt"]) == 0
    out = capsys.readouterr().out
    assert "clean.s: 0 error(s), 0 warning(s)" in out
    assert "imagick-opt: 0 error(s), 0 warning(s)" in out


def test_lint_bad_target_exits_2(capsys):
    assert main(["lint", "no/such/file.s"]) == 2
    assert "cannot lint" in capsys.readouterr().err


def test_lint_json(capsys):
    import json
    assert main(["lint", "imagick-orig", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["program"] == "imagick-orig"
    # Each of the four CSR sites draws the syntactic L001 plus the
    # semantic (dataflow-proven) L012.
    assert reports[0]["warnings"] == 8
    assert {d["rule"] for d in reports[0]["diagnostics"]} == \
        {"L001", "L012"}


HOT_LOOP = """
.entry main
.func main
main:
    addi x1, x0, 4
loop:
    frflags x7
    addi x1, x1, -1
    bne  x1, x0, loop
    halt
"""


def test_lint_strict_warnings_exit_1(tmp_path):
    source = tmp_path / "hot.s"
    source.write_text(HOT_LOOP)
    assert main(["lint", str(source)]) == 0
    assert main(["lint", str(source), "--strict"]) == 1


def test_lint_no_dataflow_suppresses_semantic_rules(tmp_path, capsys):
    source = tmp_path / "hot.s"
    source.write_text(HOT_LOOP)
    assert main(["lint", str(source), "--no-dataflow"]) == 0
    out = capsys.readouterr().out
    assert "warning[L001]" in out
    assert "L012" not in out


def test_lint_format_json_carries_locations(tmp_path, capsys):
    import json
    source = tmp_path / "hot.s"
    source.write_text(HOT_LOOP)
    assert main(["lint", str(source), "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    diags = reports[0]["diagnostics"]
    assert {d["rule"] for d in diags} == {"L001", "L012"}
    for diag in diags:
        assert diag["path"] == str(source)
        assert diag["line"] == 7  # the frflags line
        assert diag["addr"] == "0x10004"
        assert "fix_hint" in diag


def test_lint_assembler_error_exits_2(tmp_path, capsys):
    source = tmp_path / "broken.s"
    source.write_text("main:\n    frobnicate x1\n")
    assert main(["lint", str(source)]) == 2
    assert "cannot lint" in capsys.readouterr().err


@pytest.mark.parametrize("removed", [
    ["--observers"],
    ["--format", "json"],
], ids=["observers", "format-json"])
def test_lint_removed_options_exit_2(tmp_path, removed, capsys):
    """``--json`` is the one JSON switch, and observer contracts hold by
    construction, so neither option parses any more."""
    source = tmp_path / "hot.s"
    source.write_text(HOT_LOOP)
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", *removed, str(source)])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_profile_sanitize(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("""
.func main
    addi x1, x0, 0
    addi x2, x0, 200
loop:
    addi x1, x1, 1
    bne  x1, x2, loop
    halt
""")
    assert main(["profile", str(source), "--period", "7",
                 "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "sanitizer:" in out and "clean" in out


def test_suite_sanitize(capsys):
    assert main(["suite", "exchange2", "--scale", "0.05",
                 "--period", "29", "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "exchange2: sanitizer:" in out
    assert "clean" in out


def test_record_and_replay_commands(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("""
.func main
    addi x1, x0, 0
    addi x2, x0, 400
loop:
    add  x3, x3, x1
    addi x1, x1, 1
    bne  x1, x2, loop
    halt
""")
    trace = tmp_path / "run.tiptrace"
    assert main(["record", str(source), "-o", str(trace),
                 "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "recorded" in out
    assert "sanitizer:" in out and "clean" in out
    assert trace.stat().st_size > 100

    assert main(["replay", str(trace), str(source),
                 "--policy", "TIP", "--period", "11",
                 "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "replayed" in out
    assert "error" in out
    assert "sanitizer:" in out and "clean" in out


def test_record_replay_and_convert(tmp_path, capsys):
    """Compressed, plain and re-chunked recordings of one run replay to
    the same report."""
    source = tmp_path / "prog.s"
    source.write_text("""
.func main
    addi x1, x0, 0
    addi x2, x0, 600
loop:
    add  x3, x3, x1
    addi x1, x1, 1
    bne  x1, x2, loop
    halt
""")

    def replay(trace, *extra):
        assert main(["replay", str(trace), str(source),
                     "--period", "11", *extra]) == 0
        return capsys.readouterr().out.splitlines()

    packed = tmp_path / "packed.tiptrace"
    assert main(["record", str(source), "-o", str(packed),
                 "--chunk-cycles", "128", "--compress"]) == 0
    out = capsys.readouterr().out
    assert "[v3]" in out
    cycles = int(out.split()[1])
    report = replay(packed, "--sanitize")
    assert report[0].startswith(f"replayed {cycles} cycles, ")
    assert "clean" in report[2]

    plain = tmp_path / "plain.tiptrace"
    assert main(["record", str(source), "-o", str(plain),
                 "--chunk-cycles", "128"]) == 0
    capsys.readouterr()
    assert replay(plain, "--sanitize") == report

    # Re-chunking a v3 trace keeps every record.
    rechunked = tmp_path / "rechunked.tiptrace"
    assert main(["convert-trace", str(plain), "-o", str(rechunked),
                 "--chunk-cycles", "64"]) == 0
    out = capsys.readouterr().out
    assert "converted" in out and "[v3]" in out
    assert replay(rechunked) == report[:2]


@pytest.mark.parametrize("legacy", ["golden_v1", "golden_v2"])
def test_convert_trace_upgrades_legacy_fixture(tmp_path, capsys, legacy):
    """Both legacy goldens upgrade to the v3 golden byte for byte, and
    the result replays."""
    converted = tmp_path / "converted.tiptrace"
    assert main(["convert-trace", f"{DATA}/{legacy}.tiptrace",
                 "-o", str(converted), "--chunk-cycles", "256"]) == 0
    assert "converted 4131 records" in capsys.readouterr().out
    with open(f"{DATA}/golden.tiptrace", "rb") as handle:
        assert converted.read_bytes() == handle.read()
    assert main(["replay", str(converted), f"{DATA}/golden.s",
                 "--period", "23"]) == 0
    assert "replayed 4131 cycles" in capsys.readouterr().out


def _bad_trace(tmp_path, kind, cut_from="golden.tiptrace"):
    """A trace file the replay and convert verbs must refuse."""
    if kind.startswith("golden_"):
        return f"{DATA}/{kind}.tiptrace"
    path = tmp_path / f"{kind}.tiptrace"
    if kind == "garbage":
        path.write_bytes(b"this is not a trace file\n" * 8)
    elif kind == "corrupt":  # a compressed v3 trace, zlib header broken
        from repro.cpu import convert_trace
        convert_trace(f"{DATA}/golden.tiptrace", str(path),
                      chunk_cycles=256, compress=True)
        data = bytearray(path.read_bytes())
        data[16 + 96:16 + 96 + 2] = b"\0\0"  # first chunk's payload
        path.write_bytes(bytes(data))
    else:  # *cut_from* cut inside its first chunk
        with open(f"{DATA}/{cut_from}", "rb") as handle:
            path.write_bytes(handle.read()[:1000])
    return str(path)


@pytest.mark.parametrize("kind", ["garbage", "truncated", "golden_v1",
                                  "golden_v2", "corrupt"])
def test_replay_rejects_bad_trace(tmp_path, capsys, kind):
    """Bad input is a one-line user error (exit 2), not a traceback;
    legacy traces are pointed at convert-trace."""
    trace = _bad_trace(tmp_path, kind)
    assert main(["replay", trace, f"{DATA}/golden.s",
                 "--period", "23"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot replay {trace}: ")
    assert captured.err.count("\n") == 1
    if kind.startswith("golden_"):
        assert "repro convert-trace" in captured.err


@pytest.mark.parametrize("kind", ["garbage", "truncated", "corrupt"])
def test_convert_trace_rejects_bad_input(tmp_path, capsys, kind):
    """A bad source exits 2 and leaves an existing destination as it
    was."""
    source = _bad_trace(tmp_path, kind, cut_from="golden_v2.tiptrace")
    dest = tmp_path / "out.tiptrace"
    dest.write_bytes(b"previous contents")
    assert main(["convert-trace", source, "-o", str(dest)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot convert {source}: ")
    assert captured.err.count("\n") == 1
    assert dest.read_bytes() == b"previous contents"
    assert not list(tmp_path.glob("*.tmp"))


def test_suite_parallel_jobs(capsys):
    assert main(["suite", "exchange2", "lbm", "--scale", "0.05",
                 "--period", "29", "--jobs", "2", "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "exchange2" in out and "lbm" in out
    assert "sanitizer:" in out and "clean" in out


def test_suite_parallel_failure_exits_1(capsys):
    """A pooled benchmark that runs out of time is reported, not
    raised, and fails the run."""
    assert main(["suite", "lbm", "--scale", "0.05", "--jobs", "2",
                 "--timeout", "0.01", "--retries", "0"]) == 1
    out, err = capsys.readouterr()
    assert "FAILED lbm: timeout after 1 attempt(s): no result within " \
        "0.01s" in err
    assert "(empty)" not in out  # no error tables without a result
