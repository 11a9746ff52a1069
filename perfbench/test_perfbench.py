"""Smoke tests for the benchmark: tiny shapes, a few seconds in total.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import sys

import pytest

import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.SRC))


def bench(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                     "--trace", str(trace), "--smoke"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_reported_metrics():
    assert BENCHMARK["workloads"] and {w["name"] for w in BENCHMARK["workloads"]} == set(
        run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    summary = bench(capsys, workload, 0)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 2
    assert set(summary["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in summary["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(capsys, workload):
    first = bench(capsys, workload, 1)
    second = bench(capsys, workload, 1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(run.PER_LAYER)
    for name, unit in run.PER_LAYER.items():
        if unit == "count" or unit.endswith("computed") or name.endswith("_frac") \
                and name != "trace.overhead_frac":
            assert first["metrics"][name] == second["metrics"][name], name


def test_layers_are_isolated_by_workload(capsys):
    f1 = bench(capsys, "f1-paper", 1)["metrics"]
    seq = bench(capsys, "seq-small", 1)["metrics"]
    stream = bench(capsys, "score-stream", 1)["metrics"]
    assert f1["kernels.lstm_forward_calls"]["value"] == 0
    assert stream["kernels.lstm_forward_calls"]["value"] == 0
    assert seq["kernels.lstm_backward_calls"]["value"] > 0
    assert f1["impute.repeat_frac"]["value"] > 0
    assert stream["impute.calls"]["value"] > 0 and stream["neural.train_epochs"]["value"] == 0


def test_missing_target_is_listed_not_fatal():
    recorder = spans.Recorder()
    targets = (("gone", ("mergepipe.kernels.no_such_kernel", "mergepipe.no_module.fn"), None),)
    with spans.Tracer(recorder, targets) as tracer:
        pass
    assert tracer.missing == ["mergepipe.kernels.no_such_kernel", "mergepipe.no_module.fn"]


def test_tracer_restores_every_patched_function():
    impute, kernels, pipeline, network = (importlib.import_module(f"mergepipe.{name}") for name in
                                          ("impute", "kernels", "pipeline", "neural.network"))

    before = (pipeline.impute, impute.impute, kernels.masked_sqdist,
              network.DenseNet.__dict__["forward_batch"])
    with spans.Tracer(spans.Recorder()):
        assert pipeline.impute is not before[0]
        assert kernels.masked_sqdist_numpy is not kernels.masked_sqdist
    after = (pipeline.impute, impute.impute, kernels.masked_sqdist,
             network.DenseNet.__dict__["forward_batch"])
    assert after == before


def test_self_time_subtracts_children():
    recorder = spans.Recorder()
    outer = recorder.open("impute")
    inner = recorder.open("kernels.masked_sqdist")
    recorder.close(inner)
    recorder.close(outer)
    outer["start"], outer["end"], inner["start"], inner["end"] = 0.0, 1.0, 0.25, 0.75
    m = spans.layer_metrics(recorder.spans)
    assert m["impute.s"] == 1.0 and m["impute.self_s"] == 0.5
    assert m["kernels.masked_sqdist_s"] == 0.5


def test_failed_operations_are_counted(capsys, monkeypatch):
    monkeypatch.setattr(run.Run, "__init__", _floor_above_one(run.Run.__init__))
    summary = bench(capsys, "f1-paper", 0)
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"]


def _floor_above_one(init):
    def patched(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.auroc_floor = 1.01

    return patched


def test_fails_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "f1-paper", "--smoke"]) != 0
    assert capsys.readouterr().out == ""
