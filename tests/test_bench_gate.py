"""Benchmark-regression gate: unit tests over synthetic baselines.

The gate compares a current bench run against a committed JSON baseline
and fails on >threshold regressions.  These tests drive it with synthetic
result sets — no timing involved — so the pass/fail/bootstrap contract is
checked exactly; a tiny timed integration run is marked ``bench``.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import (  # noqa: E402
    BENCH_SCHEMA,
    bench_result,
    compare_callables,
    load_bench_json,
    time_callable,
    write_bench_json,
)
from benchmarks.gate import (  # noqa: E402
    EXIT_PASS,
    EXIT_REGRESSION,
    EXIT_USAGE,
    compare_results,
    run_gate,
)


def _results(speedup=1.5, step_time=0.1):
    return [
        bench_result("kernel.x", "speedup", speedup, "x"),
        bench_result("kernel.x.time", "time", step_time, "s"),
        bench_result("aux.count", "metric", 7, "items"),
    ]


# --------------------------------------------------------------------------- #
# compare_results verdict logic
# --------------------------------------------------------------------------- #
class TestCompareResults:
    def test_within_threshold_passes(self):
        verdicts = compare_results(_results(1.4), _results(1.5))
        assert [v["regressed"] for v in verdicts] == [False]

    def test_speedup_regression_beyond_threshold_fails(self):
        # 1.5 -> 1.0 is a 33% drop: beyond the 25% tolerance.
        verdicts = compare_results(_results(1.0), _results(1.5))
        assert [v["regressed"] for v in verdicts] == [True]

    def test_boundary_is_not_a_regression(self):
        verdicts = compare_results(_results(1.5 * 0.75), _results(1.5))
        assert not verdicts[0]["regressed"]

    def test_time_entries_gated_only_with_absolute(self):
        slow = _results(1.5, step_time=0.2)
        base = _results(1.5, step_time=0.1)
        assert len(compare_results(slow, base)) == 1  # speedup only
        verdicts = compare_results(slow, base, absolute=True)
        assert len(verdicts) == 2
        by_kind = {v["kind"]: v for v in verdicts}
        assert by_kind["time"]["regressed"]  # 2x slower
        assert not by_kind["speedup"]["regressed"]

    def test_faster_time_is_not_a_regression(self):
        verdicts = compare_results(
            _results(1.5, 0.05), _results(1.5, 0.1), absolute=True
        )
        assert not any(v["regressed"] for v in verdicts)

    def test_metric_entries_never_gated(self):
        current = _results()
        current[2]["value"] = 999.0
        assert all(v["kind"] != "metric" for v in compare_results(current, _results()))

    def test_new_and_removed_entries_are_skipped(self):
        current = _results() + [bench_result("kernel.new", "speedup", 0.1, "x")]
        baseline = _results() + [bench_result("kernel.gone", "speedup", 9.9, "x")]
        names = [v["name"] for v in compare_results(current, baseline)]
        assert names == ["kernel.x"]

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_results(_results(), _results(), threshold=1.5)


# --------------------------------------------------------------------------- #
# run_gate: bootstrap / pass / fail, exit codes, baseline file handling
# --------------------------------------------------------------------------- #
class TestRunGate:
    def test_missing_baseline_bootstraps_and_passes(self, tmp_path, capsys):
        path = tmp_path / "BENCH_x.json"
        assert run_gate(_results(), str(path)) == EXIT_PASS
        assert path.exists()
        payload = load_bench_json(str(path))
        assert payload["schema"] == BENCH_SCHEMA
        assert "bootstrapped" in capsys.readouterr().out
        # Second run gates against the bootstrap and passes.
        assert run_gate(_results(), str(path)) == EXIT_PASS

    def test_regression_fails_with_exit_1(self, tmp_path, capsys):
        path = tmp_path / "BENCH_x.json"
        write_bench_json(str(path), _results(2.0))
        assert run_gate(_results(1.0), str(path)) == EXIT_REGRESSION
        assert "REGRESSED" in capsys.readouterr().out

    def test_update_baseline_overwrites_and_passes(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_bench_json(str(path), _results(9.0))
        assert run_gate(_results(1.0), str(path), update_baseline=True) == EXIT_PASS
        payload = load_bench_json(str(path))
        by_name = {r["name"]: r["value"] for r in payload["results"]}
        assert by_name["kernel.x"] == 1.0

    def test_unreadable_baseline_is_usage_error(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text('{"schema": "something-else", "results": []}')
        assert run_gate(_results(), str(path)) == EXIT_USAGE

    def test_malformed_baseline_json_is_usage_error(self, tmp_path, capsys):
        # A truncated/corrupted baseline must be a clean usage error, not a
        # traceback: json.JSONDecodeError is a ValueError and the gate maps
        # every baseline ValueError to EXIT_USAGE.
        path = tmp_path / "BENCH_x.json"
        path.write_text('{"schema": "repro-bench-v1", "results": [')
        assert run_gate(_results(), str(path)) == EXIT_USAGE
        assert "gate:" in capsys.readouterr().out

    def test_committed_baseline_loads_under_schema(self):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        payload = load_bench_json(os.path.join(repo, "benchmarks", "BENCH_hotpaths.json"))
        names = {r["name"] for r in payload["results"]}
        assert "e2e.pretrain_step" in names
        kinds = {r["kind"] for r in payload["results"]}
        assert kinds <= {"time", "speedup", "metric"}


# --------------------------------------------------------------------------- #
# Suite registration in scripts/bench_gate.py
# --------------------------------------------------------------------------- #
class TestSuiteRegistration:
    @pytest.fixture(scope="class")
    def gate_script(self):
        import importlib.util

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "bench_gate_script", os.path.join(repo, "scripts", "bench_gate.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_serving_suite_registered(self, gate_script):
        assert "serving" in gate_script.SUITES
        module, baseline = gate_script.SUITES["serving"]
        assert baseline.endswith("BENCH_serving.json")
        assert hasattr(module, "collect_results")
        assert hasattr(module, "print_results")

    def test_every_suite_has_a_committed_baseline(self, gate_script):
        for name, (_, baseline) in gate_script.SUITES.items():
            assert os.path.isfile(baseline), f"suite {name!r} missing {baseline}"

    def test_committed_serving_baseline_gates_goodput_gain(self, gate_script):
        _, baseline = gate_script.SUITES["serving"]
        payload = load_bench_json(baseline)
        by_name = {r["name"]: r for r in payload["results"]}
        gain = by_name["serve.goodput.gain"]
        assert gain["kind"] == "speedup"  # gated by default
        # The acceptance bar: micro-batching beats one-at-a-time serving
        # at the fixed p99 SLO.
        assert gain["value"] > 1.0

    def test_unknown_suite_is_usage_error(self, gate_script, capsys):
        # "compile" names the deleted tape-compiler suite: argparse must
        # reject it before any bench runs.
        with pytest.raises(SystemExit) as exc:
            gate_script.main(["--suite", "compile"])
        assert exc.value.code == EXIT_USAGE
        assert "invalid choice: 'compile'" in capsys.readouterr().err

    def test_meta_records_host_load(self, gate_script, monkeypatch, tmp_path, capsys):
        """Each suite's meta carries the load average and CPU count, and
        both are printed before the verdict."""
        suite = type(
            "Suite", (),
            {"collect_results": staticmethod(lambda **kw: _results()),
             "print_results": staticmethod(lambda results: None)},
        )
        baseline = tmp_path / "BENCH_fake.json"
        monkeypatch.setitem(gate_script.SUITES, "hotpaths", (suite, str(baseline)))
        out = tmp_path / "run.json"
        argv = ["--suite", "hotpaths", "--out", str(out)]
        assert gate_script.main(argv) == EXIT_PASS  # bootstrap
        assert gate_script.main(argv) == EXIT_PASS  # self-compare
        for payload in (load_bench_json(str(out)), load_bench_json(str(baseline))):
            meta = payload["meta"]
            assert len(meta["loadavg"]) == 3
            assert meta["cpu_count"] == os.cpu_count()
        printed = capsys.readouterr().out
        host = printed.index("host: load average")
        assert host < printed.index("gate: pass")

    def test_screening_suite_registered(self, gate_script):
        assert "screening" in gate_script.SUITES
        module, baseline = gate_script.SUITES["screening"]
        assert baseline.endswith("BENCH_screening.json")
        assert hasattr(module, "collect_results")
        assert hasattr(module, "print_results")

    def test_committed_screening_baseline_gates_throughput_gain(self, gate_script):
        _, baseline = gate_script.SUITES["screening"]
        payload = load_bench_json(baseline)
        by_name = {r["name"]: r for r in payload["results"]}
        gain = by_name["screen.throughput.gain"]
        assert gain["kind"] == "speedup"  # gated by default
        # The acceptance bar: batched candidate scoring beats one-at-a-time
        # by >2x — and because both arms run under batch-invariant kernels
        # the bit-identity flag must ride along at exactly 1.0.
        assert gain["value"] > 2.0
        assert by_name["screen.bit_identical"]["value"] == 1.0
        assert by_name["screen.cand_per_sec.batched"]["kind"] == "metric"

    def _screening_shaped_results(self, gain=3.0):
        return [
            bench_result("screen.throughput.gain", "speedup", gain, "x"),
            bench_result("screen.bit_identical", "metric", 1.0, "bool"),
        ]

    def test_screening_missing_baseline_bootstraps(self, tmp_path, capsys):
        # A fresh checkout running `--suite screening` before the baseline
        # lands must bootstrap-and-pass, not crash.
        path = tmp_path / "BENCH_screening.json"
        assert run_gate(self._screening_shaped_results(), str(path)) == EXIT_PASS
        assert path.exists()
        assert "bootstrapped" in capsys.readouterr().out

    def test_screening_malformed_baseline_is_usage_error(self, tmp_path):
        path = tmp_path / "BENCH_screening.json"
        path.write_text('{"schema": "repro-bench-v1", "results": [{"name"')
        assert run_gate(self._screening_shaped_results(), str(path)) == EXIT_USAGE

    def test_screening_gain_regression_fails(self, tmp_path):
        path = tmp_path / "BENCH_screening.json"
        write_bench_json(str(path), self._screening_shaped_results(gain=3.0))
        assert (
            run_gate(self._screening_shaped_results(gain=1.0), str(path))
            == EXIT_REGRESSION
        )

    def test_resilience_suite_registered(self, gate_script):
        assert "resilience" in gate_script.SUITES
        module, baseline = gate_script.SUITES["resilience"]
        assert baseline.endswith("BENCH_resilience.json")
        assert hasattr(module, "collect_results")
        assert hasattr(module, "print_results")

    def test_committed_resilience_baseline_gates_availability(self, gate_script):
        _, baseline = gate_script.SUITES["resilience"]
        payload = load_bench_json(baseline)
        by_name = {r["name"]: r for r in payload["results"]}
        pool = by_name["resilience.availability.pool"]
        gain = by_name["resilience.availability.gain"]
        # Both gated by default so a regression in fault coverage fails CI.
        assert pool["kind"] == "speedup" and gain["kind"] == "speedup"
        # The acceptance bar: the pool holds >= 0.95 availability under the
        # pinned chaos schedule that drags the bare baseline below 0.75.
        assert pool["value"] >= 0.95
        assert gain["value"] > 1.0
        assert by_name["resilience.availability.baseline"]["value"] < 0.75
        # Every delivered response matched the fault-free run bit for bit.
        assert by_name["resilience.bit_identical"]["value"] == 1.0


# --------------------------------------------------------------------------- #
# Tiny serving-suite integration (simulated clock, so cheap but marked
# serve: it trains the demo servable once)
# --------------------------------------------------------------------------- #
@pytest.mark.serve
def test_serving_suite_tiny_is_deterministic(tmp_path):
    from benchmarks.bench_serving import collect_results

    first = collect_results(rounds=1, warmup=0, tiny=True)
    second = collect_results(rounds=1, warmup=0, tiny=True)
    gated = [r for r in first if r["kind"] == "speedup"]
    assert [r["name"] for r in gated] == ["serve.goodput.gain"]
    assert gated[0]["value"] > 1.0
    # Everything driven by the reference service model is bit-reproducible;
    # only the measured calibration entries may differ between runs.
    stable = {
        r["name"]: r["value"]
        for r in first
        if not r["name"].startswith("serve.measured.")
    }
    stable2 = {
        r["name"]: r["value"]
        for r in second
        if not r["name"].startswith("serve.measured.")
    }
    assert stable == stable2
    path = tmp_path / "BENCH_serving_tiny.json"
    assert run_gate(first, str(path)) == EXIT_PASS  # bootstrap
    assert run_gate(second, str(path)) == EXIT_PASS  # self-compare


@pytest.mark.serve
def test_serving_suite_records_a_degenerate_calibration(monkeypatch):
    """Batch 1 and batch 8 timed as a tie take the calibration's flat-cost
    fallback; the suite records it as a measured entry and still runs."""
    import repro.serving.server
    from benchmarks.bench_serving import collect_results

    monkeypatch.setattr(repro.serving.server, "time_callable", lambda *a, **k: 1e-3)
    results = {r["name"]: r for r in collect_results(rounds=1, warmup=0, tiny=True)}
    flag = results["serve.measured.degenerate_fit"]
    assert flag["kind"] == "metric" and flag["value"] == 1.0
    assert results["serve.goodput.gain"]["value"] > 1.0


@pytest.mark.screen
def test_screening_suite_tiny_end_to_end(tmp_path):
    """The tiny screening suite must hold bit-identity across execution
    layouts (collect_results raises otherwise) and produce a gateable
    result set.  The gain *value* is timing-dependent, so only the
    committed full-size baseline pins it above 2.0."""
    from benchmarks.bench_screening import collect_results

    results = collect_results(rounds=1, warmup=0, tiny=True)
    by_name = {r["name"]: r for r in results}
    assert by_name["screen.throughput.gain"]["kind"] == "speedup"
    assert by_name["screen.bit_identical"]["value"] == 1.0
    assert by_name["screen.topk.size"]["value"] > 0
    path = tmp_path / "BENCH_screening_tiny.json"
    assert run_gate(results, str(path)) == EXIT_PASS  # bootstrap
    assert run_gate(results, str(path)) == EXIT_PASS  # self-compare


@pytest.mark.chaos
def test_resilience_suite_tiny_is_deterministic(tmp_path):
    from benchmarks.bench_resilience import collect_results

    first = collect_results(rounds=1, warmup=0, tiny=True)
    second = collect_results(rounds=1, warmup=0, tiny=True)
    by_name = {r["name"]: r["value"] for r in first}
    assert by_name["resilience.availability.pool"] >= 0.95
    assert by_name["resilience.availability.baseline"] < 0.75
    assert by_name["resilience.bit_identical"] == 1.0
    # The whole suite runs on the reference service model + simulated
    # clock, so every entry is bit-reproducible between runs.
    assert [(r["name"], r["value"]) for r in first] == \
        [(r["name"], r["value"]) for r in second]
    path = tmp_path / "BENCH_resilience_tiny.json"
    assert run_gate(first, str(path)) == EXIT_PASS  # bootstrap
    assert run_gate(second, str(path)) == EXIT_PASS  # self-compare


# --------------------------------------------------------------------------- #
# Shared timing helpers
# --------------------------------------------------------------------------- #
class TestTimingHelpers:
    def test_time_callable_counts_calls(self):
        calls = []
        time_callable(lambda: calls.append(1), rounds=3, warmup=2)
        assert len(calls) == 5  # warmup discarded from timing but still run

    def test_time_callable_rejects_bad_args(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, rounds=0)
        with pytest.raises(ValueError):
            time_callable(lambda: None, reduce="mean")

    def test_compare_callables_interleaves(self):
        order = []
        compare_callables(
            lambda: order.append("a"), lambda: order.append("b"), rounds=3, warmup=1
        )
        # warmup pair + 3 interleaved rounds, strictly alternating
        assert order == ["a", "b"] * 4

    def test_write_load_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_t.json"
        write_bench_json(str(path), _results(), meta={"k": 1})
        payload = load_bench_json(str(path))
        assert payload["meta"] == {"k": 1}
        assert payload["results"][0]["name"] == "kernel.x"

    def test_bench_result_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            bench_result("x", "latency", 1.0, "s")


# --------------------------------------------------------------------------- #
# Tiny end-to-end integration (timed; kept out of quick lanes via marker)
# --------------------------------------------------------------------------- #
@pytest.mark.bench
def test_gate_integration_tiny(tmp_path):
    from benchmarks.bench_hotpaths import collect_results

    results = collect_results(rounds=1, warmup=0, tiny=True)
    names = {r["name"] for r in results}
    assert names == {
        f"{name}{suffix}"
        for name in (
            "e2e.pretrain_step",
            "kernel.linear_act_silu",
            "kernel.rms_norm",
            "kernel.layer_norm",
            "kernel.mul_segment_sum",
        )
        for suffix in ("", ".time")
    }
    path = tmp_path / "BENCH_tiny.json"
    assert run_gate(results, str(path)) == EXIT_PASS  # bootstrap
    assert run_gate(results, str(path)) == EXIT_PASS  # self-compare
