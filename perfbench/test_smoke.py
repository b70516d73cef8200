"""Fast checks of the benchmark itself, at tiny workload sizes.

Run with `python -m pytest perfbench/test_smoke.py`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    return worker.smoke_workload(workloads.WORKLOADS[name])


def invoke(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_declared_metrics_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(metrics.WORKLOAD_NAMES)
    assert set(metrics.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        name: detail[:2] for name, detail in metrics.LAYER_DETAIL.items()}
    assert set(tracing.SPAN_NAMES) == {n[:-len(".calls")] for n in metrics.PER_LAYER
                                       if n.endswith(".calls")}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_schema(trace):
    proc = invoke("--workload", "eil51-landscape", "--seed", "3", "--seconds", "0.2",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in last["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke("--workload", "rand100-ilk", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", ["eil51-ils-escape", "bqp1000-flip"])
def test_validation_catches_corrupted_solver_output(name):
    w = tiny(name)
    state = w.setup(w.make_input())
    outcome, trace = w.execute(state, w.specs(1)[0])
    assert w.check(state, outcome, trace) == []

    bad_value = replace(trace, final_value=trace.final_value + 1.0)
    assert any("recomputed" in e for e in w.check(state, outcome, bad_value))
    bad_best = trace.final_best.copy()
    bad_best[0] = bad_best[1] if name.startswith("eil51") else 2
    assert w.check(state, outcome, replace(trace, final_best=bad_best))
    over = replace(trace, consumed_fe=int(w.max_fe + w.fe_slack + 1))
    assert any("exceeds cap" in e for e in w.check(state, outcome, over))
    early = replace(trace, consumed_fe=1)
    if not outcome.hit:
        assert any("before the cap" in e for e in w.check(state, outcome, early))


def test_validation_catches_corrupted_landscape_output():
    w = tiny("eil51-landscape")
    state = w.setup(w.make_input())
    optimum = w.collect(state, 1)[0]
    outcome, (opt, flags, stats, size) = w.execute(state, optimum, 0)
    assert w.check(state, outcome, (opt, flags, stats, size)) == []
    assert w.check(state, outcome, (opt, ~flags, stats, size))


def test_exceptions_are_counted(monkeypatch):
    w = tiny("rand100-ilk")

    def boom(cfg, inst):
        raise RuntimeError("solver failed")

    monkeypatch.setattr(workloads.metaheuristics, "run", boom)
    result = workloads.run_pass(w, w.make_input(), 1)
    assert len(result["outcomes"]) == 2
    assert all("solver failed" in o.errors[0] for o in result["outcomes"])


def test_failed_check_exits_nonzero(monkeypatch, capsys, tmp_path):
    def fake_launch(args, deadline, traced):
        e2e = {name: {"value": 1.0, "unit": unit, "n": 1}
               for name, unit in metrics.END_TO_END.items()}
        return {"errors": ["ils/1: final tour is not a permutation"], "attempted": 1,
                "failed": 1, "passes": 1, "end_to_end": e2e, "signatures": [],
                "environment": {"nproc": 1, "python": "", "numpy": "", "blas_threads": 1}}

    monkeypatch.setattr(run, "launch", fake_launch)
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "rand100-ilk", "--trace", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1


@pytest.mark.parametrize("name", list(metrics.WORKLOAD_NAMES))
def test_traced_pass_reproduces_untraced_pass(name):
    w = tiny(name)
    source = w.make_input()
    plain = workloads.run_pass(w, source, 2)
    originals = {(o, a): tracing._resolve(o).__dict__[a] for o, a, _ in tracing.WRAP_POINTS}
    tracer = tracing.Tracer()
    with tracer:
        traced = workloads.run_pass(w, source, 2, tracer)
    assert all(tracing._resolve(o).__dict__[a] is f for (o, a), f in originals.items())
    assert [o.signature for o in traced["outcomes"]] == [o.signature for o in plain["outcomes"]]
    assert not any(o.errors for o in traced["outcomes"])
    layers = tracing.layer_metrics(tracer.spans)
    assert set(layers) | {"trace.overhead_ratio"} == set(metrics.PER_LAYER)
    assert layers["decomposition.sample_split.calls"] >= 1
