"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload btree_lookup --seed 7 --seconds 25 --trace 0

Run from the repository root.  Each sample is a fresh interpreter
(``child.py``) that sets the workload up cold and runs its measured phase
once; samples repeat until ``--seconds`` have passed (at least
``MIN_SAMPLES``), and host-time metrics are the median over samples.

* ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
* ``--trace 1`` alternates untraced and traced samples and reports the
  per-layer metrics, including the tracing overhead, and writes the
  traced spans under ``.perfbench_out/``.

Simulated metrics are a pure function of the seed: every sample of a run
must agree on them bit for bit, traced or not, or the run is incorrect.
Host times are in reference seconds (see ``hostclock.py``); raw seconds
are printed for information only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)
sys.dont_write_bytecode = True

from hostclock import CAL_REF_S  # noqa: E402
import tracing  # noqa: E402
from metrics import MOVES  # noqa: E402

MIN_SAMPLES = 5
#: A run never starts a sample that could end after this many seconds.
RUN_LIMIT_S = 160
CHILD_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"
CACHE_DIR = ".perfbench_cache"


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    # Byte code goes to the benchmark's own cache, not next to sources.
    env["PYTHONPYCACHEPREFIX"] = os.path.abspath(
        os.path.join(CACHE_DIR, "pycache"))
    env.pop("PYTHONPATH", None)
    return env


def _build() -> None:
    """Compile the program's byte code once per checkout, so no sample's
    set-up pays for compiling and every sample pays the same."""
    marker = os.path.join(CACHE_DIR, "built")
    if os.path.exists(marker):
        return
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    _HERE], check=True, env=_env(), timeout=600,
                   stdout=subprocess.DEVNULL)
    with open(marker, "w") as out:
        out.write("ok\n")


def _sample(args, trace: bool, index: int) -> Dict:
    cmd = [sys.executable, os.path.join(_HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(trace)), "--size", str(args.size)]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}-{index}.tsv.gz")]
    # Samples take the allowed CPUs in turn and stay on theirs: hosts
    # whose CPUs run at different speeds then weigh equally in a median,
    # and no sample migrates half-way through its phase.
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[index % len(cpus)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"sample {index} of {args.workload} failed "
                         f"(exit {proc.returncode})")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    # Set-up: from starting the interpreter to the first measured op,
    # less the calibration loops run on the way.
    sample["setup_raw_s"] = (sample["measure_started_at"] - spawned -
                             sample["setup_calibration_s"])
    sample["setup_ref_s"] = sample["setup_raw_s"] / sample["setup_speed"]
    sample["host_ops_per_s"] = sample["attempted"] / sample["phase_ref_s"]
    sample["wall_s"] = time.monotonic() - spawned
    sample["cpu"] = cpu
    return sample


def _collect(args) -> List[Dict]:
    """Samples until the run's time is up (alternating traced ones)."""
    samples: List[Dict] = []
    pattern = [False, True] if args.trace else [False]
    minimum = 2 if args.trace else MIN_SAMPLES
    began = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - began
        enough = len(samples) >= minimum and elapsed >= args.seconds
        if enough or (samples and elapsed + 1.5 * longest > RUN_LIMIT_S):
            break
        trace = pattern[len(samples) % len(pattern)]
        sample = _sample(args, trace, len(samples))
        longest = max(longest, sample["wall_s"])
        samples.append(sample)
    return samples


def _deterministic(samples: List[Dict]) -> bool:
    """Simulated results and counts agree across every sample."""
    keys = ("sim", "counts", "attempted", "failed", "failures")
    first = samples[0]
    same = all(s[k] == first[k] for s in samples for k in keys)
    traced = [s for s in samples if s["trace"]]
    if traced:
        t0 = traced[0]
        same = same and all(
            s[k] == t0[k] for s in traced
            for k in ("simlayer", "trace_counts"))
    return same


def _e2e(samples: List[Dict]) -> Dict[str, float]:
    sim = samples[0]["sim"]
    return {
        "setup_s": median(s["setup_ref_s"] for s in samples),
        "host_ops_per_s": median(s["host_ops_per_s"] for s in samples),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in samples),
        "sim_kops": sim["sim_kops"],
        "sim_p50_us": sim["sim_p50_us"],
        "sim_p99_us": sim["sim_p99_us"],
    }


def _phase_table(traced: Dict, phase: str) -> Dict[str, float]:
    """Reference seconds of self time per bucket, for one traced sample."""
    buckets: Dict[str, float] = {}
    for name, seconds in traced["trace_self_s"][phase].items():
        metric = (name if name == tracing.CALIBRATE
                  else tracing.TIME_BUCKETS[name])
        buckets[metric] = buckets.get(metric, 0.0) + seconds / traced[
            "speed"]
    return buckets


def _per_layer(samples: List[Dict]) -> Dict[str, float]:
    plain = [s for s in samples if not s["trace"]]
    traced = [s for s in samples if s["trace"]]
    first = traced[0]
    measured = [_phase_table(s, "measured") for s in traced]
    setup = [_phase_table(s, "setup") for s in traced]
    calls = first["trace_calls"]["measured"]
    counts = first["trace_counts"]["measured"]
    # Verification is counted over set-up and measured phase alike: it
    # moves set-up time on one workload and throughput on another.
    setup_calls = first["trace_calls"]["setup"]
    setup_counts = first["trace_counts"]["setup"]
    sim = first["sim"]
    out: Dict[str, float] = {}
    for metric in set(tracing.TIME_BUCKETS.values()):
        out[metric] = median(t.get(metric, 0.0) for t in measured)
    setup_import = median(
        (s["imported_at"] - s["started_at"] - s["setup_calibration_s"]) /
        s["setup_speed"] for s in traced)
    setup_named = {
        "setup.ebpf.verify_s": "ebpf.verify_s",
        "setup.structures.lsm_put_s": "structures.lsm_put_s",
        "setup.structures.btree_build_s": "structures.btree_build_s",
        "setup.sim.engine_self_s": "sim.engine_self_s",
    }
    for metric, bucket in setup_named.items():
        out[metric] = median(t.get(bucket, 0.0) for t in setup)
    out["setup.import_s"] = setup_import
    out["setup.other_s"] = max(0.0, median(
        s["setup_ref_s"] for s in traced) - setup_import -
        sum(out[m] for m in setup_named))
    layer_counts = dict(first["counts"])
    layer_counts.update({
        "ebpf.verify_calls": (calls.get("ebpf.verify", 0) +
                              setup_calls.get("ebpf.verify", 0)),
        "ebpf.verify_states": (counts.get("ebpf.verify_states", 0) +
                               setup_counts.get("ebpf.verify_states", 0)),
        "ebpf.vm_runs": calls.get("ebpf.vm", 0),
        "ebpf.vm_insns": counts.get("ebpf.vm_insns", 0),
        "core.chain_hops": counts.get("core.chain_hops", 0),
        "core.chain_refreshes": calls.get("core.refresh", 0),
        "compact.runs": counts.get("compact.runs", 0),
        "compact.boundary_bytes": counts.get("compact.boundary_bytes", 0),
        "compact.output_bytes": counts.get("compact.output_bytes", 0),
        "net.rpcs": counts.get("net.rpcs", 0),
        "net.wire_bytes": counts.get("net.wire_bytes", 0),
        "net.retransmits": counts.get("net.retransmits", 0),
        "core.sim_speedup": sim.get("sim_speedup", 0.0),
        "device.sim_write_amp": sim.get("sim_write_amp", 0.0),
        "cluster.sim_unavail_us": sim.get("sim_unavail_us", 0.0),
    })
    out.update(layer_counts)
    for layer, value in first["simlayer"].items():
        out[f"simlayer.{layer}_ns_per_op"] = value
    out["obs.trace_overhead"] = (
        median(s["host_ops_per_s"] for s in plain) /
        median(s["host_ops_per_s"] for s in traced))
    return {metric: out.get(metric, 0) for metric in MOVES}


def _print_report(args, samples, e2e, per_layer, units) -> None:
    print(f"perfbench {args.workload} seed={args.seed} "
          f"samples={len(samples)} trace={args.trace}")
    sim = samples[0]["sim"]
    failed = samples[0]["failed"]
    attempted = samples[0]["attempted"]
    print(f"  ops per sample {attempted}, failed {failed} "
          f"(error_rate {failed / attempted:.6f}) "
          f"{samples[0]['failures']}")
    print(f"  simulated: {json.dumps(sim, sort_keys=True)}")
    print(f"  sim_p99_us over {sim['p99_samples']} samples")
    print(f"  counts: {json.dumps(samples[0]['counts'], sort_keys=True)}")
    raw = [round(s["phase_raw_s"], 3) for s in samples]
    print(f"  raw phase seconds (information only): {raw}")
    print(f"  raw set-up seconds (information only): "
          f"{[round(s['setup_raw_s'], 3) for s in samples]}")
    print(f"  sample CPUs: {[s['cpu'] for s in samples]}")
    print(f"  sample wall seconds: "
          f"{[round(s['wall_s'], 2) for s in samples]}")
    print(f"  host speed vs reference ({CAL_REF_S * 1000:.1f} ms loop): "
          f"{[round(s['speed'], 3) for s in samples]}")
    for name, value in (e2e or {}).items():
        print(f"  {name:<16} {value:14.4f} {units[name]}")
    if per_layer:
        traced = next(s for s in samples if s["trace"])
        for phase in ("measured", "setup"):
            table = _phase_table(traced, phase)
            calibration = table.pop(tracing.CALIBRATE, 0.0)
            total = sum(table.values())
            span = traced["trace_phase_s"][phase] / traced["speed"]
            print(f"  -- {phase} phase self time by layer, one traced "
                  f"sample, reference s: sum {total:.4f} = phase span "
                  f"{span:.4f} less calibration {calibration:.4f} --")
            for metric, value in sorted(table.items(), key=lambda kv: -kv[1]):
                if value:
                    print(f"    {metric:<28} {value:10.4f} "
                          f"{value / total:7.1%}")
        print("  -- per-layer metrics (and what each should move) --")
        for metric, value in per_layer.items():
            print(f"    {metric:<34} {value:16.4f} {units[metric]:<6} "
                  f"{MOVES[metric]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=float, default=1.0,
                        help="scale each sample's work (tests use < 1)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "repro")):
        sys.stderr.write("perfbench: run from the repository root "
                         "(no src/repro here)\n")
        return 2
    with open("BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    _build()
    samples = _collect(args)
    correct = _deterministic(samples) and all(
        s["unexplained"] == 0 for s in samples)
    if args.trace:
        per_layer = _per_layer(samples)
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = {name: per_layer[name] for name in wanted}
        e2e = None
    else:
        per_layer = None
        e2e = _e2e(samples)
        wanted = [m["name"] for m in spec["end_to_end"]]
        metrics = {name: e2e[name] for name in wanted}
    _print_report(args, samples, e2e, per_layer, units)
    result = {
        "correct": correct,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
