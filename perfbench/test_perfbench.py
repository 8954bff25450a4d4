"""Tests of the benchmark itself, at a small scale.

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced through ``run.py``; the
tests check metric names and units against ``BENCHMARK.json``, the seed
plumbing, and that a failed correctness gate makes the run fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import suite  # noqa: E402
from suite import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = "0.02"


def bench(workload: str, seed: int, trace: int, out: Path, *extra: str):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--scale", SCALE, "--out", str(out),
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    return completed, json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("untraced")
    return {name: bench(name, 3, 0, out) for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return out, {name: bench(name, 3, 1, out) for name in WORKLOADS}


def test_spec_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["paths"] == ["perfbench"]
    assert run.QOS_RATE_TAGS == tuple(f"r{rate:g}" for rate in suite.QOS_RATES)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(untraced, name):
    completed, result = untraced[name]
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric, unit in run.END_TO_END.items():
        entry = result["metrics"][metric]
        assert entry["unit"] == unit
        assert entry["value"] > 0, metric
    assert set(result["metrics"]) == set(run.END_TO_END)
    printed = [line.split() for line in completed.stdout.splitlines()]
    for metric, unit in run.END_TO_END.items():
        assert any(words[:1] == [metric] and words[2] == unit for words in printed), metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(traced, name):
    out, results = traced
    completed, result = results[name]
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert result["correct"] is True
    assert {m: e["unit"] for m, e in result["metrics"].items()} == run.PER_LAYER
    trace = json.loads((out / f"{name}-seed3.trace.json").read_text())
    assert trace["workload"] == name
    assert trace["layers"]["obs.trace_overhead"] == result["metrics"]["obs.trace_overhead"]["value"]
    spans = trace["spans"]
    assert spans and all(s["end"] >= s["start"] for s in spans)
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)


def test_traced_runs_measure_the_layers_each_workload_exercises(traced):
    _, results = traced
    layer = {name: result[1]["metrics"] for name, result in results.items()}
    harl, des = layer["harl-replay"], layer["des-chaos"]
    assert harl["workloads.gen_s"]["value"] > 0
    assert harl["core.plan_s"]["value"] > 0 and harl["core.regions"]["value"] > 0
    assert harl["experiments.calibrate_s"]["value"] > 0
    assert harl["pfs.batch.event_heap_batches"]["value"] == 4
    assert harl["pfs.mapping.decompose_s"]["value"] > 0
    assert harl["sim_harl_gain.write"]["value"] > 1
    assert des["simulate.events"]["value"] > 0
    assert des["pfs.mds_cache.hit_ratio"]["value"] > 0
    assert des["online.rebuild_bytes"]["value"] > 0
    assert des["pfs.integrity.repaired"]["value"] > 0
    assert des["sim_mttr_s"]["value"] > 0
    assert des["serving.gold.p99_ms.r1500"]["value"] > 0
    assert des["serving.hedge_launched"]["value"] > 0
    assert des["sim_slo_rate"]["value"] in (0.0, *suite.QOS_RATES)
    for metrics in layer.values():
        assert metrics["pfs.integrity.silent"]["value"] == 0
        assert metrics["pfs.mds_cache.stale_hits"]["value"] == 0
        assert metrics["online.data_lost_bytes"]["value"] == 0
        assert metrics["fail_ratio"]["value"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_makes_the_inputs(name):
    from probe import Probe
    from run import digest

    setup = WORKLOADS[name].setup
    scale = float(SCALE)

    def outputs(seed):
        with Probe(traced=False) as probe:
            return digest(WORKLOADS[name].run(setup(seed, scale), probe).sim)

    assert outputs(5) == outputs(5)
    assert outputs(5) != outputs(6)


def test_sample_counts_do_not_depend_on_program_speed():
    for workload in WORKLOADS.values():
        cycles, repeat = run.plan(workload, 30)
        assert (cycles, repeat) == run.plan(workload, 30)
        assert cycles >= run.MIN_CYCLES
        assert repeat * workload.setup_s >= run.SETUP_BODY_S / 2 or repeat == 1
    assert run.plan(WORKLOADS["harl-replay"], 0.2) == (run.MIN_CYCLES, 1)


def test_fastest_takes_each_stage_from_its_fastest_sample():
    class Timed:
        def __init__(self, wall, stages):
            self.wall, self.stages = wall, stages

    samples = [Timed(3.0, [("a", 1.0), ("b", 1.5)]), Timed(3.0, [("a", 2.0), ("b", 0.5)])]
    assert run.fastest(samples) == pytest.approx(1.0 + 0.5 + 0.5)
    with pytest.raises(AssertionError):
        run.fastest([samples[0], Timed(1.0, [("a", 1.0)])])


def test_invariant_gates_catch_nonzero_counts():
    clean = {"silent": 0, "stale_hits": 0, "lost_entries": 0, "data_lost_bytes": 0}
    assert all(ok for _, ok, _ in run.invariant_gates(clean))
    for key in clean:
        gates = run.invariant_gates({**clean, key: 1})
        assert [ok for _, ok, _ in gates].count(False) == 1


def test_a_failed_gate_fails_the_run(monkeypatch, capsys, tmp_path):
    import dataclasses

    original = suite.WORKLOADS["des-chaos"]
    passes = []

    def drifting(inputs, probe):
        outcome = original.run(inputs, probe)
        passes.append(1)
        outcome.sim["pass"] = len(passes)  # simulated output changes per pass
        return outcome

    monkeypatch.setitem(suite.WORKLOADS, "des-chaos",
                        dataclasses.replace(original, run=drifting))
    code = run.main(["--workload", "des-chaos", "--seed", "1", "--seconds", "0.1",
                     "--scale", SCALE, "--out", str(tmp_path)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert any("GATE FAILED: simulated outputs identical" in line for line in lines)


def test_without_program_source_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "harl-replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
