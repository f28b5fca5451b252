"""The trajectory printer over the committed BENCH_<n>.json files."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_trajectory", ROOT / "scripts" / "bench_trajectory.py"
)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


def test_files_are_read_in_the_order_of_their_numbers(tmp_path):
    for name in ("BENCH_10.json", "BENCH_9.json", "BENCH_x.json", "notes.json"):
        (tmp_path / name).write_text("{}")
    assert [p.name for p in bench_trajectory.bench_files(tmp_path)] == [
        "BENCH_9.json",
        "BENCH_10.json",
    ]


def test_prints_each_workloads_medians_and_ratio(capsys):
    assert bench_trajectory.main([str(ROOT / "BENCH_6.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("BENCH_6.json: ")
    assert lines[1].split() == list(bench_trajectory.HEADER)
    rows = [line.split() for line in lines[2:] if not line.startswith("host/dps")]
    assert len(rows) == 3 * 5  # three workloads, five end-to-end metrics each
    assert ["bfs-relabel", "dps_peak_kib", "KiB", "3,154", "1,189", "0.377", "10/10"] in rows


def test_prints_host_over_dps_per_workload_after_the_table(capsys):
    assert bench_trajectory.main([str(ROOT / "BENCH_21.json")]) == 0
    tail = [line.split() for line in capsys.readouterr().out.splitlines()[-3:]]
    workloads = ("bfs-relabel", "dlist-concat", "sexpr-stream")
    assert [row[:2] for row in tail] == [["host/dps", w] for w in workloads]
    assert tail[1] == ["host/dps", "dlist-concat", "parent", "9.11x", "change", "8.33x"]


@pytest.mark.parametrize("content", [None, "{}", '{"change": "x"}', "[]", "not json"],
                         ids=["missing", "empty", "no summary", "a list", "not json"])
def test_a_file_that_cannot_be_read_or_has_no_summary_is_named(tmp_path, capsys, content):
    """As ``sexpr parse`` does for an unreadable file: ``error: ...`` on
    stderr, nothing on stdout, exit code 2, even after a good file."""
    bad = tmp_path / "BENCH_7.json"
    if content is not None:
        bad.write_text(content)
    assert bench_trajectory.main([str(ROOT / "BENCH_6.json"), str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(bad) in err
