"""Tests of the benchmark itself (tiny runs; about a minute in total).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("btree_lookup", "lsm_mixed", "cluster_ycsb")
TINY = "0.05"


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        return json.load(spec_file)


def _child(workload, trace=0, size=TINY, seed=5):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--workload",
         workload, "--seed", str(seed), "--trace", str(trace),
         "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_twice_is_bit_identical(workload):
    first = _child(workload)
    second = _child(workload)
    traced = _child(workload, trace=1)
    for key in ("sim", "counts", "attempted", "failed", "failures"):
        assert first[key] == second[key], key
        assert first[key] == traced[key], key
    assert first["attempted"] > 0
    assert first["unexplained"] == 0


def test_other_seed_gives_other_inputs():
    assert (_child("btree_lookup", seed=5)["sim"] !=
            _child("btree_lookup", seed=6)["sim"])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(trace):
    spec = _spec()
    group = spec["per_layer"] if trace else spec["end_to_end"]
    names = {metric["name"] for metric in group}
    units = {metric["name"]: metric["unit"] for metric in group}
    proc = _run(ROOT, "--workload", "cluster_ycsb", "--seed", "3",
                "--seconds", "0", "--trace", str(trace), "--size", TINY)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == names
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))


def test_spec_follows_the_contract_and_the_intent_table():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = []
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            assert name_re.match(metric["name"]), metric
            assert unit_re.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
            names.append(metric["name"])
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [m["name"] for m in spec["per_layer"]] == list(metrics.MOVES)
    for metric in set(tracing.TIME_BUCKETS.values()) - {
            "structures.btree_build_s"}:
        assert metric in metrics.MOVES, metric


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "btree_lookup", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_times_add_up_to_the_phase():
    tracer = tracing.Tracer()
    outer = tracer.name_id("outer")
    inner = tracer.name_id("inner")

    def work(seconds):
        import time
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def gen():
        work(0.002)
        yield 1
        work(0.002)
        return 7

    tracer.begin_phase("measured")
    tracer.enter(outer)
    work(0.003)
    wrapped = tracing._traced_gen(tracer, inner, gen())
    assert next(wrapped) == 1
    with pytest.raises(StopIteration) as stop:
        wrapped.send(None)
    assert stop.value.value == 7
    tracer.exit()
    tracer.end_phase()
    selfs = tracer.phase_self("measured")
    total = (tracer.span_end[0] - tracer.span_start[0])
    assert sum(selfs.values()) == pytest.approx(total, rel=1e-9)
    assert selfs["inner"] >= 0.004
    assert selfs["outer"] >= 0.003
    assert tracer.calls["measured"] == {}
