"""Tests of the benchmark itself: ``python -m pytest benchmarks/e2e -q``.

Tier-1's ``testpaths`` does not include this directory.  The span and
self-time arithmetic is tested on a fake clock; one ``--smoke`` run checks
that the command prints every metric ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.e2e import metrics as M  # noqa: E402
from benchmarks.e2e import run, trace  # noqa: E402


class FakeClock:
    """Time moves only when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


# --------------------------------------------------------------------------- #
# Span / self-time arithmetic
# --------------------------------------------------------------------------- #
def test_self_time_is_duration_minus_direct_children(clock):
    tracer = trace.Tracer(clock)
    with tracer.span("outer"):
        clock.advance(2)
        with tracer.span("middle"):
            clock.advance(1)
            with tracer.span("inner"):
                clock.advance(4)
            clock.advance(1)
        with tracer.span("middle"):
            clock.advance(3)
        clock.advance(5)
    totals = tracer.totals()
    assert totals["outer"] == {"self_s": 7.0, "total_s": 16.0, "calls": 1}
    assert totals["middle"] == {"self_s": 5.0, "total_s": 9.0, "calls": 2}
    assert totals["inner"] == {"self_s": 4.0, "total_s": 4.0, "calls": 1}
    assert sum(row["self_s"] for row in totals.values()) == 16.0
    outer, middle, inner = tracer.spans[:3]
    assert (outer.parent, middle.parent, inner.parent) == (None, outer.sid, middle.sid)


def test_totals_select_units_and_chrome_trace_keeps_parents(clock):
    tracer = trace.Tracer(clock)
    for unit in (trace.SETUP, 0, 1):
        tracer.unit = unit
        with tracer.span("layer"):
            clock.advance(1 + max(unit, 0))
    assert tracer.totals([0, 1])["layer"] == {"self_s": 3.0, "total_s": 3.0, "calls": 2}
    assert tracer.totals([trace.SETUP])["layer"]["calls"] == 1
    events = tracer.chrome_trace()["traceEvents"]
    assert [e["args"]["unit"] for e in events] == [trace.SETUP, 0, 1]
    assert events[2]["ts"] == 2e6 and events[2]["dur"] == 2e6


def test_generator_wrapper_times_each_next_not_the_consumer(clock):
    def batches():
        for size in (2, 3):
            clock.advance(size)  # work inside the layer
            yield size

    tracer = trace.Tracer(clock)
    wrapped = tracer.wrap_generator("loader", batches)
    with tracer.span("fit"):
        for _ in wrapped():
            clock.advance(10)  # the consumer's own work
    totals = tracer.totals()
    assert totals["loader"]["self_s"] == 5.0
    assert totals["loader"]["calls"] == 3  # two items and the exhausted fetch
    assert totals["fit"]["self_s"] == 20.0


def test_exception_inside_a_span_closes_it(clock):
    tracer = trace.Tracer(clock)

    def boom():
        clock.advance(3)
        raise KeyError("inside")

    wrapped = tracer.wrap("layer", boom)
    with tracer.span("outer"):
        with pytest.raises(KeyError):
            wrapped()
        clock.advance(1)
    assert tracer._stack == []
    totals = tracer.totals()
    assert totals["layer"] == {"self_s": 3.0, "total_s": 3.0, "calls": 1}
    assert totals["outer"]["self_s"] == 1.0


def test_override_calling_its_parent_is_one_span_and_absorbed_spans_fold_in(clock):
    tracer = trace.Tracer(clock)
    base = tracer.wrap("optim.step", lambda: clock.advance(1))
    override = tracer.wrap("optim.step", lambda: (clock.advance(2), base()))
    override()
    assert tracer.totals()["optim.step"] == {"self_s": 3.0, "total_s": 3.0, "calls": 1}

    predict = tracer.wrap("models.forward_eval", lambda: clock.advance(4))
    training_step = tracer.wrap("models.forward_train", predict)
    training_step()
    predict()
    totals = tracer.totals()
    assert totals["models.forward_train"]["self_s"] == 4.0
    assert totals["models.forward_eval"] == {"self_s": 4.0, "total_s": 4.0, "calls": 1}


def test_patch_and_restore_put_the_originals_back(clock):
    class Layer:
        def work(self):
            return "done"

    module = types.ModuleType("fake_module")
    module.helper = lambda: "helped"
    original_method, original_helper = vars(Layer)["work"], module.helper

    tracer = trace.Tracer(clock)
    tracer.patch(Layer, "work", "layer.work")
    tracer.patch(module, "helper", "layer.helper")
    assert Layer().work() == "done" and module.helper() == "helped"
    assert {s.name for s in tracer.spans} == {"layer.work", "layer.helper"}
    tracer.restore()
    assert vars(Layer)["work"] is original_method
    assert module.helper is original_helper


def test_install_reaches_every_boundary_and_restore_undoes_it():
    from repro.optim import AdamW
    from repro.serving.servable import Servable
    from repro.tasks import ScalarRegressionTask

    before = (vars(Servable)["predict"], vars(ScalarRegressionTask)["training_step"])
    tracer = trace.Tracer()
    trace.install(tracer)
    try:
        assert vars(Servable)["predict"] is not before[0]
        assert vars(ScalarRegressionTask)["training_step"] is not before[1]
        patched = {(owner.__name__, attr) for owner, attr, _ in tracer._patches}
        # Subclass overrides are patched where they are defined.
        assert ("Adam", "step") in patched and ("DDPStrategy", "execute") in patched
        assert "step" not in vars(AdamW)
    finally:
        tracer.restore()
    assert (vars(Servable)["predict"], vars(ScalarRegressionTask)["training_step"]) == before


# --------------------------------------------------------------------------- #
# Reduction
# --------------------------------------------------------------------------- #
def _unit(u, wall, items=100, attempted=100, error=None, requests=(0.001, 0.002, 0.003)):
    return {"unit": u, "wall_s": wall, "cpu_s": wall * 0.9, "outer_s": wall * 1.1, "items": items,
            "attempted": attempted, "error": error, "request_s": list(requests), "counters": {}}


def test_end_to_end_takes_the_best_unit_and_skips_failed_units():
    slow_requests = (0.004, 0.005, 0.006)
    main = {"units": [_unit(0, 2.0), _unit(1, 1.0, requests=slow_requests), _unit(2, 50.0),
                      _unit(3, 0.5, error="boom")],
            "peak_rss_mib": 80.0}
    values = M.end_to_end(main, setup_samples=[3.0, 1.0, 2.0])
    # The best unit that passed its checks; set-up is the median sample.
    assert values["items_per_s"] == 100.0
    assert values["cpu_ms_per_item"] == pytest.approx(9.0)
    assert values["setup_s"] == 2.0
    assert values["request_ms_p50"] == pytest.approx(2.0)
    assert values["request_ms_p90"] == pytest.approx(2.8)
    assert M.operations(main["units"]) == (400, 300, 100)
    assert M.end_to_end({"units": [_unit(0, 1.0, error="boom")], "peak_rss_mib": 1.0}, [1.0]) == {}


def test_percentile_matches_linear_interpolation():
    assert M.percentile([4, 1, 3, 2], 50) == 2.5
    assert M.percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)
    assert M.percentile([7], 99) == 7


def test_benchmark_json_lists_the_metrics_this_package_defines():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == run.WORKLOADS
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in M.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in M.PER_LAYER
    ]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(run.WORKLOADS)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in spec["end_to_end"])


# --------------------------------------------------------------------------- #
# --compare
# --------------------------------------------------------------------------- #
def _results(tmp_path, label, **overrides):
    e2e = {"items_per_s": 100.0, "cpu_ms_per_item": 10.0, "setup_s": 2.0, "peak_rss_mib": 90.0,
           "request_ms_p50": 1.0, "request_ms_p90": 2.0, "failed_share": 0.0}
    layers = {m.name: 1.0 for m in M.PER_LAYER}
    workloads = {name: {"end_to_end": dict(e2e), "per_layer": dict(layers)} for name in run.WORKLOADS}
    for dotted, value in overrides.items():
        workload, block, metric = dotted.split("/")
        workloads[workload][block][metric] = value
    directory = tmp_path / label
    directory.mkdir()
    (directory / "results.json").write_text(json.dumps({"workloads": workloads}))
    return str(directory)


def test_compare_is_within_inside_the_bound_and_outside_beyond_it(tmp_path, capsys):
    before = _results(tmp_path, "a")
    slower = _results(tmp_path, "b", **{"pretrain_ddp/end_to_end/items_per_s": 80.0,
                                        "serve_trace/end_to_end/peak_rss_mib": 107.0})
    assert run.main(["--compare", before, slower]) == 0
    assert "outside" not in capsys.readouterr().out

    regressed = _results(tmp_path, "c", **{"pretrain_ddp/end_to_end/items_per_s": 70.0})
    assert run.main(["--compare", before, regressed]) == 1
    out = capsys.readouterr().out
    assert "+30.0%  outside 25%" in out and "1 outside" in out
    # Faster is never outside.
    assert run.main(["--compare", regressed, before]) == 0


def test_compare_wants_exact_counts_and_failed_share_identical(tmp_path, capsys):
    before = _results(tmp_path, "a")
    shed = _results(tmp_path, "b", **{"serve_trace/end_to_end/failed_share": 0.01})
    assert run.main(["--compare", before, shed]) == 1
    calls = _results(tmp_path, "c", **{"screen_funnel/per_layer/screening.generate.calls": 2.0})
    assert run.main(["--compare", before, calls]) == 1
    assert "exact count differs" in capsys.readouterr().out
    timing = _results(tmp_path, "d", **{"screen_funnel/per_layer/screening.generate.self_s": 2.0})
    assert run.main(["--compare", before, timing]) == 0


# --------------------------------------------------------------------------- #
# One smoke run of the real command
# --------------------------------------------------------------------------- #
def test_smoke_run_prints_every_metric_with_its_unit(tmp_path, capsys):
    code = run.main(["--smoke", "--seed", "0", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "not comparable" in out
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sections = out.split("\n== ")[1:]
    assert [s.split(" ")[0] for s in sections] == list(run.WORKLOADS)
    for section in sections:
        printed = {line.split()[0]: line.split() for line in section.splitlines() if line.startswith("  ")}
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert printed[metric["name"]][2] == metric["unit"], metric["name"]
            assert printed[metric["name"]][3] in (M.MEASURED, M.MODELED)
    assert "serving.modeled.goodput_rps" in out and "modeled" in out

    results = json.loads((tmp_path / "results.json").read_text())
    pinned = json.loads((HERE / "expected.json").read_text())["digests"]["smoke"]
    for name, workload in results["workloads"].items():
        assert workload["errors"] == []
        assert workload["per_layer"]["trace.coverage"] >= 0.90, name
        assert (tmp_path / f"trace_{name}.json").exists()
        expected_share = 0.0
        if name == "serve_trace":
            digest = pinned[name]["0"][0]
            answered = digest["server"][0] + digest["pool"][0] + 8
            expected_share = 1.0 - answered / workload["attempted"]
            assert expected_share > 0
        assert workload["end_to_end"]["failed_share"] == expected_share, name
        assert workload["per_layer"]["failed_share"] == expected_share, name
