"""One cold run of one workload, in a fresh interpreter.

``run.py`` starts this once per sample, so set-up always pays what a user
pays on every ``repro`` run: imports, machine builds, data loading and
static verification, with no cache from an earlier run in the process.
Prints one JSON object (the sample) as its last line of output.

    python3 perfbench/child.py --workload lsm_mixed --seed 3 --trace 0
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _net_counts(connections) -> dict:
    """RPC, byte and retransmission totals over every connection."""
    return {
        "net.rpcs": sum(sum(c.rpcs_sent.values()) for c in connections),
        "net.wire_bytes": sum(c.c2s.bytes_sent + c.s2c.bytes_sent
                              for c in connections),
        "net.retransmits": sum(c.retries for c in connections),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=float, default=1.0,
                        help="scale the measured work (tests use < 1)")
    parser.add_argument("--spans-out", default="",
                        help="write the traced spans here (gzip TSV)")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import hostclock
    import workloads

    # Machine speed at the start of set-up; the phase adds its own.
    early = [hostclock.calibrate() for _ in range(3)]

    # Every package the workloads touch, imported up front so that the
    # import cost is one set-up item and tracing can wrap loaded modules.
    import repro.bench.runner  # noqa: F401
    import repro.cluster  # noqa: F401
    import repro.compact  # noqa: F401
    import repro.net  # noqa: F401
    imported_at = time.monotonic()

    tracer = None
    session = None
    if args.trace:
        import tracing
        from repro.obs import ObsSession

        tracer = tracing.Tracer()
        tracing.install(tracer)
        session = ObsSession()
        session.__enter__()
        tracer.begin_phase("setup")

    factory = workloads.WORKLOADS[args.workload]
    workload = factory(args.seed, obs=session, size=args.size)
    workload.setup()
    clock = hostclock.HostClock()
    if tracer is not None:
        tracer.end_phase()
        tracer.begin_phase("measured")
        calibrate = hostclock.HostClock._calibrate

        def traced_calibrate(self):
            return tracer.timed(tracing.CALIBRATE, calibrate, self)

        clock._calibrate = traced_calibrate.__get__(clock)
        net_before = _net_counts(tracer.connections)
    workload.measure(clock)
    if tracer is not None:
        net_after = _net_counts(tracer.connections)
        tracer.end_phase()
        session.__exit__(None, None, None)
        tracer.begin_phase("check")
    workload.check()
    if tracer is not None:
        tracer.end_phase()

    sample = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "started_at": _STARTED,
        "imported_at": imported_at,
        "measure_started_at": clock.started_at,
        "speed": clock.speed(),
        "setup_speed": hostclock.speed_of(early + clock.samples[:3]),
        "setup_calibration_s": sum(early),
        "calibrations": len(clock.samples),
        "phase_raw_s": clock.raw_s,
        "phase_ref_s": clock.ref_s,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "failures": workload.failures,
        "unexplained": workload.unexplained,
        "sim": workload.sim,
        "counts": workload.counts,
        "simlayer": workload.simlayer,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        sample["trace_self_s"] = {phase: tracer.phase_self(phase)
                                  for phase in ("setup", "measured")}
        sample["trace_phase_s"] = tracer.phase_s
        sample["trace_calls"] = tracer.calls
        sample["trace_counts"] = tracer.counts
        sample["trace_counts"]["measured"].update(
            {key: net_after[key] - net_before[key] for key in net_after})
        if args.spans_out:
            sample["spans"] = tracer.write(args.spans_out)
    print(json.dumps(sample, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
