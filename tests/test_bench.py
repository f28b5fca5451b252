"""Benchmark harness: case validation, metrics, CSV report, CLI."""

import pytest

from destpass import bench, bench_cli
from destpass.bench import (
    BenchCase,
    BenchRow,
    emit_report,
    parse_report,
    run_case,
    run_series,
)
from destpass.dlist import NIL
from destpass.errors import OracleMismatch


def quick(case, engine, k):
    return BenchCase(case=case, engine=engine, k=k, reps=1, warmup=1)


def test_case_validation():
    with pytest.raises(ValueError):
        BenchCase(case="nope", engine="dps", k=8)
    with pytest.raises(ValueError):
        BenchCase(case="bfs", engine="functional_dlist", k=8)
    with pytest.raises(ValueError):
        BenchCase(case="dlist", engine="dps", k=20)  # bounds 6..14
    with pytest.raises(ValueError):
        BenchCase(case="sexpr", engine="dps", k=9)  # bounds 10..22
    with pytest.raises(ValueError):
        BenchCase(case="dlist", engine="dps", k=8, reps=0)


@pytest.mark.parametrize(
    "field, value", [("k", 6.5), ("reps", 2.5), ("warmup", 1.5), ("k", "8"), ("reps", True)]
)
def test_a_count_that_is_no_int_is_refused_before_anything_runs(field, value):
    """A float size or repeat count once built a case that ``run_case``
    refused mid-run with ``'float' object cannot be interpreted as an integer``."""
    given = {"k": 8, "reps": 1, "warmup": 1, field: value}
    with pytest.raises(TypeError, match=f"{field} must be an int"):
        BenchCase(case="dlist", engine="dps", **given)


def test_dlist_dps_row_counts_cells():
    row = run_case(quick("dlist", "dps", 6))
    # 2^6 cons cells plus the final nil
    assert row.region_cells == 64 + 1
    assert row.leaf_copies == 64
    assert row.aux_counter == 0  # concat phase allocates nothing
    assert row.wall_time_ns > 0


def test_dlist_baseline_rows_have_no_region():
    for engine in ("naive", "functional_dlist"):
        row = run_case(quick("dlist", engine, 6))
        assert row.region_cells == row.region_bytes == row.leaf_copies == 0


def test_bfs_dps_row_counts_visits():
    row = run_case(quick("bfs", "dps", 8))
    assert row.aux_counter == 2**8
    assert row.region_cells > 2**8  # nodes plus nil cells


def test_sexpr_rows_validate_against_each_other():
    naive = run_case(quick("sexpr", "naive", 10))
    dps = run_case(quick("sexpr", "dps", 10))
    assert naive.aux_counter >= 1  # reversals
    assert dps.aux_counter == 0
    assert dps.region_cells > 0


def test_rows_report_the_peak_of_a_checked_run(monkeypatch):
    naive = run_case(quick("sexpr", "naive", 12))
    dps = run_case(quick("sexpr", "dps", 12))
    assert naive.peak_kib > 0 and dps.peak_kib > 0
    # the peak run is checked by the oracle like every other run
    runs = []
    real = bench._dlist_naive_run

    def once_wrong(n):
        runs.append(n)
        out, m = real(n)
        return (out if len(runs) < 3 else out[::-1]), m

    monkeypatch.setattr(bench, "_dlist_naive_run", once_wrong)
    with pytest.raises(OracleMismatch):
        run_case(BenchCase(case="dlist", engine="naive", k=6, reps=1, warmup=1))
    assert len(runs) == 3  # checked run, timed run, peak run


def test_oracle_mismatch_aborts(monkeypatch):
    monkeypatch.setattr(
        bench, "_dlist_naive_run", lambda n: ([0, 0, 0], dict(bench._ZERO_METRICS))
    )
    with pytest.raises(OracleMismatch):
        run_case(quick("dlist", "naive", 6))


@pytest.mark.parametrize(
    "case, name, wrong, message",
    [
        ("bfs", "relabel_two_pass", lambda tree: None, "shape changed"),
        ("bfs", "relabel_two_pass", lambda tree: tree, "labels are not 1..n"),
        ("sexpr", "parse_naive", lambda data: bench._sexpr.SList(0, NIL), "parsers disagree"),
    ],
)
def test_a_wrong_baseline_fails_its_oracle(monkeypatch, case, name, wrong, message):
    module = bench._bfs if case == "bfs" else bench._sexpr
    monkeypatch.setattr(module, name, wrong)
    with pytest.raises(OracleMismatch, match=message):
        run_case(quick(case, "naive", 10))


def test_run_series_interleaves_sizes():
    rows = run_series("dlist", "dps", [6, 7], reps=2, warmup=1)
    assert sorted(rows) == [6, 7]
    assert rows[6].size == 64 and rows[7].size == 128
    assert rows[7].region_cells == 129


def test_emit_report_empty():
    assert emit_report([]) == (
        "case,engine,size,wall_time_ns,region_bytes,region_cells,"
        "leaf_copies,aux_counter,peak_kib\n"
    )


def test_emit_report_sorted_and_round_trips():
    rows = [
        BenchRow("sexpr", "dps", 1024, 5, 1, 2, 3, 0),
        BenchRow("bfs", "naive", 64, 7, 0, 0, 0, 0),
        BenchRow("bfs", "dps", 64, 6, 9, 9, 9, 64),
    ]
    text = emit_report(rows)
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert lines[1].startswith("bfs,dps")
    assert lines[2].startswith("bfs,naive")
    assert parse_report(text) == sorted(rows, key=lambda r: (r.case, r.engine, r.size))


def test_cli_writes_csv(tmp_path):
    out = tmp_path / "rows.csv"
    code = bench_cli.main(
        [
            "run",
            "--case",
            "dlist",
            "--engines",
            "dps,naive",
            "--sizes",
            "6..7",
            "--reps",
            "1",
            "--warmup",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = parse_report(out.read_text())
    assert len(rows) == 4
    assert {r.engine for r in rows} == {"dps", "naive"}


def test_cli_stdout_and_sizes_formats(capsys):
    code = bench_cli.main(
        ["run", "--case", "bfs", "--engines", "dps", "--sizes", "6,7",
         "--reps", "1", "--warmup", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("case,engine,size")
    assert len(out.strip().split("\n")) == 3


def test_cli_rejects_invalid_engine(capsys):
    assert bench_cli.main(["run", "--case", "bfs", "--engines", "functional_dlist"]) == 1
    assert "not valid" in capsys.readouterr().err


def test_cli_rejects_out_of_bounds_k(capsys):
    assert bench_cli.main(["run", "--case", "sexpr", "--sizes", "5"]) == 1
    assert "outside" in capsys.readouterr().err
    # every plan error is reported before anything runs
    for bad in (["--reps", "0"], ["--sizes", "6..x"], ["--warmup", "-1"]):
        assert bench_cli.main(["run", *bad]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


def test_cli_case_all_clamps_sizes_per_case(capsys):
    # 6 is valid for dlist/bfs but not sexpr: sexpr is skipped, not fatal
    code = bench_cli.main(
        ["run", "--case", "all", "--engines", "dps", "--sizes", "6",
         "--reps", "1", "--warmup", "1"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "note: case sexpr skips" in captured.err
    lines = captured.out.strip().split("\n")
    assert [ln.split(",")[0] for ln in lines[1:]] == ["bfs", "dlist"]


def test_cli_oracle_mismatch_exit_code(monkeypatch, capsys):
    def broken(c):
        raise OracleMismatch("forced")

    monkeypatch.setattr(bench_cli, "run_case", broken)
    code = bench_cli.main(
        ["run", "--case", "dlist", "--engines", "dps", "--sizes", "6", "--reps", "1"]
    )
    assert code == 2
    assert "oracle mismatch" in capsys.readouterr().err


def test_parse_sizes_formats():
    assert bench_cli.parse_sizes("6..8") == [6, 7, 8]
    assert bench_cli.parse_sizes("10") == [10]
    assert bench_cli.parse_sizes("6,8,10") == [6, 8, 10]
    assert bench_cli.parse_sizes("6..7,10") == [6, 7, 10]


def test_cli_rejects_a_descending_size_range(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert bench_cli.main(["run", "--case", "sexpr", "--sizes", "14..12", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "14..12" in captured.err
    assert not out.exists()


def test_cli_rejects_a_plan_that_runs_nothing(capsys):
    # every size is outside every case's bounds, so each case is skipped
    assert bench_cli.main(["run", "--case", "all", "--sizes", "30"]) == 1
    assert "runs nothing" in capsys.readouterr().err


def test_cli_rejects_an_unwritable_out_before_running(monkeypatch, tmp_path, capsys):
    ran = []
    monkeypatch.setattr(bench_cli, "run_case", ran.append)
    for out in (tmp_path / "missing" / "rows.csv", tmp_path):
        code = bench_cli.main(
            ["run", "--case", "dlist", "--engines", "dps", "--sizes", "6", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot write")
    assert ran == []
