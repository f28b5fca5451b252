"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import channels  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
TINY = {"dlist-concat": 4, "bfs-relabel": 5, "sexpr-stream": 3}


@pytest.fixture(autouse=True)
def tiny_sizes(monkeypatch):
    for workload, k in TINY.items():
        monkeypatch.setitem(workloads.SIZES, workload, k)


def _destpass_bindings_untouched():
    mods = {m: sys.modules[f"destpass.{m}"] for m in run.MODULES}
    for name in spans.REGION_FUNCS:
        assert not hasattr(getattr(mods["region"], name), "__wrapped__")
    for layer in spans.CASE_MODULES:
        for name in spans.BUILDER_SPANS:
            if hasattr(mods[layer], name):
                assert getattr(mods[layer], name) is getattr(mods["builder"], name)
    assert not hasattr(mods["shapes"].ShapeRegistry.resolve, "__wrapped__")


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.BUILDERS)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_metrics(workload):
    result, report = run.measure(workload, 3, 0, False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["metrics"]["failed_frac"]["value"] == 0
    assert report["metrics"]["dps_run_ms_p50"]["value"] > 0
    assert report["samples"]["dps_samples"] >= run.MIN_DPS_SAMPLES
    _destpass_bindings_untouched()


@pytest.mark.parametrize("workload", sorted(TINY))
def test_per_layer_metrics(workload):
    result, report = run.measure(workload, 3, 0, True)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == PER_LAYER
    case = report["case"]
    assert metrics[f"{case}.self_share"] > 0
    assert metrics[f"{case}.dps_over_host"] > 0
    assert metrics["dlist.concat_cells"] == 0
    assert metrics["sexpr.reversals"] == 0
    if case == "bfs":
        assert metrics["bfs.visits"] == 2 ** TINY[workload]
    assert report["trace_detail"]["unspanned_share"] <= run.MAX_UNSPANNED_SHARE
    _destpass_bindings_untouched()


def _raise(*_args):
    raise ValueError("deliberate failure")


def _host_wrong_after_setup():
    calls = [0]
    fun_dlist = workloads._fun_dlist

    def wrong(dp, elems):
        calls[0] += 1
        out = fun_dlist(dp, elems)
        return out[::-1] if calls[0] > run.SETUP_REPS else out

    return wrong


@pytest.mark.parametrize(
    "workload, attr, make_wrong",
    [
        ("dlist-concat", "_fun_dlist", lambda: lambda dp, elems: list(reversed(elems))),
        ("dlist-concat", "_fun_dlist", _host_wrong_after_setup),
        ("bfs-relabel", "_relabel", lambda: lambda st, _x: (st + 1, st + 1)),
        ("bfs-relabel", "_relabel", lambda: _raise),
    ],
    ids=["host-wrong", "host-wrong-when-timed", "dps-wrong", "dps-raises"],
)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_wrong_engine_output_fails(monkeypatch, capsys, workload, attr, make_wrong, trace):
    monkeypatch.setattr(workloads, attr, make_wrong())
    report = _run_failing(monkeypatch, capsys, workload, trace)
    if trace == "0":
        assert report["metrics"]["failed_frac"]["value"] > 0


def _run_failing(monkeypatch, capsys, workload, trace):
    """Run the command; assert it fails; return the JSON report."""
    monkeypatch.setattr(run, "pin_to_one_cpu", lambda: None)
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace])
    *_, report, last = capsys.readouterr().out.strip().splitlines()
    assert code != 0
    last = json.loads(last)
    assert not last["correct"] and last["failed"] > 0
    return json.loads(report)


def _growing_region_snapshot(monkeypatch):
    """Each read of a live region reports one more cell than the last."""
    snapshot, grown = channels.region_snapshot, [0]

    def grow(dp, region):
        grown[0] += 1
        c = snapshot(dp, region)
        c.cells += grown[0]
        return c

    monkeypatch.setattr(channels, "region_snapshot", grow)


def _counted_with(attr, **broken):
    def patch(monkeypatch):
        counted = getattr(channels, attr)

        def broken_counted(*args):
            out, c = counted(*args)
            for name, delta in broken.items():
                setattr(c, name, getattr(c, name) + delta)
            return out, c

        monkeypatch.setattr(channels, attr, broken_counted)

    return patch


@pytest.mark.parametrize(
    "workload, patch",
    [
        ("dlist-concat", _growing_region_snapshot),
        ("bfs-relabel", _counted_with("bfs_counted", visits=1)),
        ("sexpr-stream", _counted_with("sexpr_counted", reversals=1)),
    ],
    ids=["concat-allocates", "bfs-revisits", "sexpr-reverses"],
)
def test_broken_invariant_fails(monkeypatch, capsys, workload, patch):
    patch(monkeypatch)
    report = _run_failing(monkeypatch, capsys, workload, "1")
    assert any("invariant broken" in f for f in report["failures"])


def test_patched_binding_is_caught():
    dp = run.import_destpass()
    binds = spans.bindings(dp, workloads.harness_calls(dp))
    originals = spans.snapshot(binds)
    tracer = spans.Tracer(binds)
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            spans.assert_untouched(binds, originals)
    finally:
        tracer.uninstall()
    spans.assert_untouched(binds, originals)
